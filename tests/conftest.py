import sys

import numpy as np
import pytest

from lagkit.charts import Chart
from lagkit.families import HilfParams, hilf_chart, torus_chart


def mesh(n, half_width, points, center=None):
    center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    axes = [np.linspace(c - half_width, c + half_width, points) for c in center]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)


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


def graph_chart(height, height_grad, height_hess, domain_half=1.0):
    """Graph chart u -> (u, h(u)) over R^2 with exact jets."""

    def evaluate(U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        return np.concatenate([U, height(U)[:, None]], axis=1)

    def jet(U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        m = U.shape[0]
        x = evaluate(U)
        dx = np.zeros((m, 2, 3))
        dx[:, 0, 0] = 1.0
        dx[:, 1, 1] = 1.0
        dx[:, :, 2] = height_grad(U)
        ddx = np.zeros((m, 2, 2, 3))
        ddx[:, :, :, 2] = height_hess(U)
        return x, dx, ddx

    return Chart(
        n=2,
        domain=((-domain_half, domain_half), (-domain_half, domain_half)),
        evaluator=evaluate,
        jet=jet,
        name="graph",
    )


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

    def hg(U):
        u, v = U[..., 0], U[..., 1]
        du = 2 * c["c20"] * u + c["c11"] * v + 3 * c["c30"] * u**2 + 2 * c["c21"] * u * v
        dv = 2 * c["c02"] * v + c["c11"] * u + 3 * c["c03"] * v**2 + c["c21"] * u**2
        return np.stack([du, dv], axis=-1)

    def hh(U):
        u, v = U[..., 0], U[..., 1]
        m = U.shape[0]
        out = np.empty((m, 2, 2))
        out[:, 0, 0] = 2 * c["c20"] + 6 * c["c30"] * u + 2 * c["c21"] * v
        out[:, 1, 1] = 2 * c["c02"] + 6 * c["c03"] * v
        out[:, 0, 1] = c["c11"] + 2 * c["c21"] * u
        out[:, 1, 0] = out[:, 0, 1]
        return out

    return graph_chart(h, hg, hh)


@pytest.fixture(scope="session")
def generic_points():
    rng = np.random.default_rng(7)
    return rng.uniform(-0.25, 0.25, size=(12, 2))
