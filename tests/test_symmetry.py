import numpy as np
import pytest

from ptscatter import TransferMatrix, compute_transfer
from ptscatter.catalog import barrier, double_barrier, onesided, pt_bilayer, pt_stack4, scarf2
from ptscatter.potentials import LayerPotential

from oracles import apply_parity, apply_pt, apply_time_reversal, invariance_residual


def _random_unit_det(rng, n):
    out = []
    while len(out) < n:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = np.linalg.det(m)
        if abs(det) < 1e-3:
            continue
        m = m / np.sqrt(det)
        out.append(TransferMatrix(*m.ravel().tolist(), 1.0))
    return out


def test_identity_fixed_by_all_actions():
    i = TransferMatrix(1, 0, 0, 1, 1.0)
    for action in (apply_parity, apply_time_reversal, apply_pt):
        assert invariance_residual(i, action) == 0.0


def test_parity_rule_on_shear():
    m = TransferMatrix(1.0, 5.0 - 2j, 0.0, 1.0, 1.0)
    p = apply_parity(m)
    assert p.m11 == 1.0 and p.m22 == 1.0
    assert p.m12 == 0.0
    assert p.m21 == -(5.0 - 2j)


def test_time_reversal_rule():
    a, b, c, d = 1 + 2j, 3 - 1j, -2 + 0.5j, 0.5 - 0.25j
    t = apply_time_reversal(TransferMatrix(a, b, c, d, 1.0))
    assert (t.m11, t.m12, t.m21, t.m22) == (
        d.conjugate(), c.conjugate(), b.conjugate(), a.conjugate())


def test_pt_equals_composition():
    rng = np.random.default_rng(11)
    for m in _random_unit_det(rng, 50):
        viaPT = apply_pt(m).as_array()
        viaP_T = apply_parity(apply_time_reversal(m)).as_array()
        viaT_P = apply_time_reversal(apply_parity(m)).as_array()
        np.testing.assert_allclose(viaPT, viaP_T, atol=1e-12)
        np.testing.assert_allclose(viaPT, viaT_P, atol=1e-12)


def test_involutions():
    rng = np.random.default_rng(12)
    for m in _random_unit_det(rng, 50):
        for apply in (apply_parity, apply_time_reversal, apply_pt):
            twice = apply(apply(m)).as_array()
            np.testing.assert_allclose(twice, m.as_array(), atol=1e-12)


def test_even_potential_parity_invariant():
    for pot in (barrier(), LayerPotential((1 + 0.5j,), (2.0,), -1.0)):
        for k in (0.6, 1.4, 2.7):
            m = compute_transfer(pot, k, "stack")
            assert invariance_residual(m, apply_parity) <= 1e-9


def test_real_potential_time_reversal_invariant():
    for pot in (barrier(), double_barrier()):
        for k in (0.6, 1.4, 2.7):
            m = compute_transfer(pot, k, "stack")
            assert invariance_residual(m, apply_time_reversal) <= 1e-9
            # entrywise statement: M11^* = M22 and M12^* = M21
            assert abs(m.m11.conjugate() - m.m22) <= 1e-12
            assert abs(m.m12.conjugate() - m.m21) <= 1e-12


def test_pt_potential_pt_invariant():
    for pot in (pt_bilayer(), pt_stack4()):
        for k in (0.6, 1.4, 2.7):
            m = compute_transfer(pot, k, "stack")
            assert invariance_residual(m, apply_pt) <= 1e-9


def test_pt_invariance_of_scarf2_via_ode():
    m = compute_transfer(scarf2(), 1.3, ode_tol=1e-12)
    assert invariance_residual(m, apply_pt) <= 1e-8


def test_symmetry_breaking_is_visible():
    m = compute_transfer(onesided(), 1.1, "stack")
    assert invariance_residual(m, apply_pt) > 1e-3
    assert invariance_residual(m, apply_time_reversal) > 1e-3
    assert invariance_residual(m, apply_parity) > 1e-3


def test_singular_matrix_rejected():
    with pytest.raises(ZeroDivisionError):
        apply_parity(TransferMatrix(0, 0, 0, 0, 1.0))


def test_det_drift_warns():
    m = TransferMatrix(2.0, 0.0, 0.0, 2.0, 1.0)  # det = 4
    with pytest.warns(UserWarning, match="drifts from 1"):
        apply_parity(m)
