import numpy as np
import pytest

from ptscatter import LayerPotential, compute_transfer
from ptscatter.catalog import pt_bilayer

from oracles import slab_matrix_oracle

# frozen from the face-matching solve for v0=2, width=1, k=1 at x_left=0
SLAB_V2_W1_K1 = np.array([
    [0.8337300251311492 - 1.2984575814159773j, -0.9888977057628651 - 0.6349639147847362j],
    [-0.9888977057628648 + 0.6349639147847362j, 0.8337300251311491 + 1.2984575814159771j],
])


def test_free_slab_is_identity():
    m = compute_transfer(LayerPotential((0.0,), (5.0,)), 1.7, "stack")
    np.testing.assert_allclose(m.as_array(), np.eye(2), atol=1e-14)


def test_real_slab_matches_face_matching_oracle():
    m = compute_transfer(LayerPotential((2.0,), (1.0,)), 1.0, "stack")
    np.testing.assert_allclose(m.as_array(), SLAB_V2_W1_K1, atol=1e-13)
    live = slab_matrix_oracle(2.0, 1.0, 1.0)
    np.testing.assert_allclose(m.as_array(), live, atol=1e-13)
    assert abs(m.det - 1.0) <= 1e-12


@pytest.mark.parametrize("v0,w,k,x0", [
    (2.0, 1.0, 1.0, 0.0),
    (1j, 0.7, 1.3, -0.4),
    (0.5j, 1.0, 2.2, 0.0),
    (2.0 - 0.3j, 1.5, 0.8, 0.2),
    (-3.0, 0.3, 0.45, 1.1),
    (4.0, 2.0, 1.2, -2.5),  # evanescent interior (k^2 < v0)
])
def test_slab_matches_oracle_and_unit_determinant(v0, w, k, x0):
    m = compute_transfer(LayerPotential((v0,), (w,), x0), k, "stack")
    live = slab_matrix_oracle(v0, w, k, x0)
    np.testing.assert_allclose(m.as_array(), live, atol=1e-12)
    assert abs(m.det - 1.0) <= 1e-11


def test_sqrt_branch_is_unobservable():
    # oracle built with the opposite branch of kappa gives the same matrix
    for v0, w, k in [(2.0 - 0.3j, 1.5, 0.8), (1j, 0.7, 1.3)]:
        a = slab_matrix_oracle(v0, w, k, 0.0, flip_branch=False)
        b = slab_matrix_oracle(v0, w, k, 0.0, flip_branch=True)
        np.testing.assert_allclose(a, b, atol=1e-13)
        m = compute_transfer(LayerPotential((v0,), (w,)), k, "stack")
        np.testing.assert_allclose(m.as_array(), a, atol=1e-12)


def test_interior_resonant_kappa_near_zero():
    # k^2 == v0 exactly: sin(kappa w)/kappa must go through the series path
    k = 1.3
    m = compute_transfer(LayerPotential((k * k,), (2.0,)), k, "stack")
    live = slab_matrix_oracle(k * k + 1e-9, 2.0, k)  # oracle slightly off the degenerate point
    np.testing.assert_allclose(m.as_array(), live, atol=1e-7)
    assert abs(m.det - 1.0) <= 1e-12


def test_zero_energy_rejected():
    with pytest.raises(ValueError, match="k = 0"):
        compute_transfer(LayerPotential((1.0,), (1.0,)), 0.0, "stack")


def test_nonpositive_width_rejected():
    with pytest.raises(ValueError, match="width"):
        compute_transfer(LayerPotential((1.0,), (0.0,)), 1.0, "stack")
    with pytest.raises(ValueError, match="width"):
        compute_transfer(LayerPotential((1.0,), (-2.0,)), 1.0, "stack")


def test_two_half_slabs_equal_one_slab():
    k = 1.7
    v0 = 1.5 - 0.4j
    whole = compute_transfer(LayerPotential((v0,), (2.0,), -1.0), k, "stack").as_array()
    left = compute_transfer(LayerPotential((v0,), (1.0,), -1.0), k, "stack").as_array()
    right = compute_transfer(LayerPotential((v0,), (1.0,), 0.0), k, "stack").as_array()
    np.testing.assert_allclose(right @ left, whole, atol=1e-13)


def test_slab_position_enters_through_phases():
    # same slab shifted: reflection phases move, transmission modulus does not
    k = 1.1
    m0 = compute_transfer(LayerPotential((2.0,), (1.0,), 0.0), k, "stack")
    m1 = compute_transfer(LayerPotential((2.0,), (1.0,), 3.0), k, "stack")
    assert abs(abs(1 / m0.m22) - abs(1 / m1.m22)) <= 1e-14
    assert abs(m0.m12 - m1.m12) > 1e-3


def test_bilayer_stack_equals_oracle_product():
    p = pt_bilayer(gamma=0.5, a=1.0)
    k = 1.0
    got = compute_transfer(p, k, "stack").as_array()
    want = slab_matrix_oracle(-0.5j, 1.0, k, 0.0) @ slab_matrix_oracle(0.5j, 1.0, k, -1.0)
    np.testing.assert_allclose(got, want, atol=1e-13)
