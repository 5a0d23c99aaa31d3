import sys

import numpy as np
import pytest

from lagkit import taylor
from lagkit.charts import closed_form
from lagkit.construction import random_orthogonal
from lagkit.families import HilfParams, hilf_chart, torus_chart


def mesh(n, half_width, points, center=None):
    center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    axes = [np.linspace(c - half_width, c + half_width, points) for c in center]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)


def laguerre_rotation(n, seed):
    """A seeded Laguerre-group element: ``random_orthogonal(n + 1, seed)``
    on the positive axes 3..n+3.  Axes 1, 2 and n+4 are fixed, so P is
    preserved and the signature form is untouched."""
    T = np.eye(n + 4)
    T[2:n + 3, 2:n + 3] = random_orthogonal(n + 1, seed)
    return T


def count_rows(monkeypatch, fn, position):
    """Wrap ``fn`` in every lagkit module that holds it by name.

    Returns the list of the row counts of its argument ``position``, one
    entry per call.
    """
    rows = []

    def wrapper(*args, **kwargs):
        rows.append(len(args[position]))
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "lagkit" or name.startswith("lagkit."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)
    return rows


@pytest.fixture(scope="session")
def hilf3():
    return hilf_chart(HilfParams(a=(1.0, 2.0, 3.0)))


@pytest.fixture(scope="session")
def hilf2():
    return hilf_chart(HilfParams(a=(1.0, 2.0)))


@pytest.fixture(scope="session")
def torus21():
    return torus_chart(2.0, 1.0)


@pytest.fixture(scope="session")
def grid3():
    return mesh(3, 0.4, 3)


@pytest.fixture(scope="session")
def torus_points():
    rng = np.random.default_rng(11)
    return np.stack(
        [rng.uniform(-3.0, 3.0, 20), rng.uniform(-1.0, 1.0, 20)], axis=-1
    )


def graph_chart(height):
    """Graph chart u -> (u, h(u)) over R^2 with the normal (-grad h, 1);
    ``height`` takes float points and Taylor seeds alike, so the jet is
    exact and grad h is read off its degree-1 jet."""
    def normal(U):
        grad = height(taylor.variables(U, 1)).partials()[1]
        return np.concatenate([-grad, np.ones((len(U), 1))], axis=-1)

    return closed_form(lambda U: np.concatenate([U, height(U)[..., None]], axis=-1), normal,
                       n=2, name="graph")


def unit_sphere():
    """Upper unit hemisphere as a graph over the unit disc; umbilic everywhere."""
    return graph_chart(lambda U: np.sqrt(1.0 - np.sum(U**2, axis=-1)))


@pytest.fixture(scope="session")
def generic_chart():
    """Quadric-plus-cubic graph; distinct curvatures, curved lift metric."""
    c = dict(c20=1.0, c02=2.5, c11=0.4, c30=0.7, c03=-0.5, c21=0.9)

    def h(U):
        u, v = U[..., 0], U[..., 1]
        return (
            c["c20"] * u**2 + c["c02"] * v**2 + c["c11"] * u * v
            + c["c30"] * u**3 + c["c03"] * v**3 + c["c21"] * u**2 * v
        )

    return graph_chart(h)


@pytest.fixture(scope="session")
def generic_points():
    rng = np.random.default_rng(7)
    return rng.uniform(-0.25, 0.25, size=(12, 2))
