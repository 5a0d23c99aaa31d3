import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagkit.errors import DimensionError
from lagkit.invariants import analyze
from lagkit.spaces import (
    dot,
    is_laguerre_transform,
    laguerre_signs,
    minkowski_signs,
    p_vector,
)
from tests.conftest import laguerre_rotation

SIGNS2 = laguerre_signs(2)  # R^6 with minus signs on axes 1 and 6
G2 = np.diag(SIGNS2)

coord_lists = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=6, max_size=6
)


def test_signatures_are_their_sign_vectors():
    assert laguerre_signs(2).tolist() == [-1.0, 1.0, 1.0, 1.0, 1.0, -1.0]
    assert laguerre_signs(3).tolist() == [-1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0]
    assert minkowski_signs(3).tolist() == [1.0, 1.0, 1.0, 1.0, -1.0]


def test_p_is_lightlike_exactly():
    P = p_vector(6)
    assert dot(SIGNS2, P, P) == 0.0


def test_nu_is_lightlike_exactly():
    signs = minkowski_signs(3)
    nu = np.zeros(signs.size)
    nu[0] = nu[-1] = 1.0
    assert dot(signs, nu, nu) == 0.0


def test_unit_axis_vector_positive():
    e3 = np.array([0, 0, 1, 0, 0, 0])
    assert dot(SIGNS2, e3, e3) == 1.0


def test_negative_axes_signature():
    e1 = np.array([1, 0, 0, 0, 0, 0])
    e6 = np.array([0, 0, 0, 0, 0, 1])
    assert dot(SIGNS2, e1, e1) == -1.0
    assert dot(SIGNS2, e6, e6) == -1.0


def test_mismatched_spaces_rejected():
    with pytest.raises(DimensionError):
        dot(SIGNS2, np.ones(6), np.ones(7))
    with pytest.raises(DimensionError):
        dot(SIGNS2, np.ones(7), np.ones(7))


def test_the_pairing_keeps_the_dtype_of_its_operands():
    # No cast to float64: a long-double pairing stays long double.
    u = np.arange(6, dtype=np.longdouble) / 3
    assert dot(SIGNS2, u, u).dtype == np.longdouble
    assert dot(SIGNS2, u[None], u[None]).dtype == np.longdouble


@given(coord_lists, coord_lists)
@settings(max_examples=50, deadline=None)
def test_inner_product_symmetric(a, b):
    assert dot(SIGNS2, a, b) == dot(SIGNS2, b, a)


@given(coord_lists, coord_lists, st.floats(min_value=-10, max_value=10, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_inner_product_bilinear(a, b, s):
    u, w = np.asarray(a), np.asarray(b)
    lhs = dot(SIGNS2, s * u + w, u)
    rhs = s * dot(SIGNS2, u, u) + dot(SIGNS2, w, u)
    assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs) + abs(rhs))


def test_identity_is_group_member():
    assert is_laguerre_transform(np.eye(6))


def test_rotation_on_positive_axes_is_member():
    # explicit two-condition oracle: signature preservation and fixed P
    theta = 0.7
    T = np.eye(6)
    T[2:4, 2:4] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    assert np.allclose(T.T @ G2 @ T, G2, atol=1e-14)
    assert np.allclose(p_vector(6) @ T, p_vector(6))
    assert is_laguerre_transform(T)


def test_uniform_scaling_is_not_member():
    assert not is_laguerre_transform(2.0 * np.eye(6))


def test_boost_preserves_form_but_moves_p():
    # hyperbolic rotation in the (1, 2) plane: in the orthogonal group
    # of the form, but it rescales P, so it is not a group member
    t = 0.3
    T = np.eye(6)
    T[0, 0] = T[1, 1] = np.cosh(t)
    T[0, 1] = T[1, 0] = np.sinh(t)
    assert np.allclose(T.T @ G2 @ T, G2, atol=1e-14)
    assert not is_laguerre_transform(T)


def test_non_square_rejected():
    with pytest.raises(DimensionError):
        is_laguerre_transform(np.ones((6, 5)))


@given(coord_lists, coord_lists, st.integers(min_value=0, max_value=1000))
@settings(max_examples=30, deadline=None)
def test_group_elements_preserve_inner_products(a, b, seed):
    T = laguerre_rotation(2, seed)
    assert is_laguerre_transform(T)
    u, w = np.asarray(a), np.asarray(b)
    before = dot(SIGNS2, u, w)
    after = dot(SIGNS2, u @ T, w @ T)
    scale = 1.0 + abs(before)
    assert abs(after - before) <= 1e-9 * scale


def test_transformed_lift_stays_lightlike(hilf3):
    a = analyze(hilf3, np.array([[0.1, -0.2, 0.05]]))
    T = laguerre_rotation(3, 42)
    image = a.Y[0] @ T
    assert abs(dot(a.signs, image, image)) <= 1e-12 * (1.0 + np.sum(image**2))


def test_pipeline_y_n_pairing(hilf3, grid3):
    # oracle: evaluate the lift and its Laplacian-based partner numerically
    a = analyze(hilf3, grid3[:5])
    pairing = dot(a.signs, a.Y, a.N)
    assert np.max(np.abs(pairing + 1.0)) <= 1e-6
