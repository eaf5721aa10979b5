import math
import re
from pathlib import Path

import numpy as np
import pytest

from ptscatter import (
    LayerPotential,
    ScatteringData,
    TransferMatrix,
    classify_symmetry,
    compute_transfer,
    identity_report,
    negative_k_matrix,
    scattering_data,
)
from ptscatter import identities
from ptscatter import io as tables
from ptscatter.catalog import barrier, double_barrier, free, onesided, pt_bilayer, pt_stack4
from ptscatter.identities import (
    D_FLOOR,
    D_PHASE,
    GEN_UNITARITY_L,
    GEN_UNITARITY_R,
    IDENTITY_IDS,
    NEGK_AMPLITUDES,
    NEGK_MATRIX,
    PHASE_SUM_PT,
    PHASE_SUM_REAL,
    PT_NEGK_R,
    PT_PSEUDO_UNITARITY,
    R_NEGK_CONJ,
    R_PHASE_REAL,
    RECIPROCITY_GEN,
    T_MODULUS_PARITY,
    T_NEGK_CONJ,
    UNITARITY_REAL,
    _CATALOG,
    phases,
    residual,
)
from ptscatter.cli import DEFAULT_VERIFY_TOL
from ptscatter.transfer import SINGULARITY_FLOOR, ConvergenceError, abs2

from oracles import matrix_from_amplitudes


def _free_data():
    return ScatteringData(1.0, 1.0 + 0j, 0j, 0j, 1.0 + 0j, True, 1.0)


def _pair(pot, k, **kw):
    return (scattering_data(compute_transfer(pot, k, **kw)),
            scattering_data(compute_transfer(pot, -k, **kw)))


def test_phases_free_potential():
    ph = phases(_free_data())
    assert ph.tau == 0.0
    assert ph.lam is None and ph.rho is None
    assert ph.m1 is None and ph.m2 is None


def test_phases_principal_argument():
    s = ScatteringData(1.0, 0.5j, 0j, 0j, 1.0 + 0j, True, 2.0)
    assert phases(s).tau == pytest.approx(math.pi / 2)


def test_phases_rejects_nonfinite():
    s = ScatteringData(1.0, complex("nan"), 0j, 0j, 0j, False, 0.0)
    with pytest.raises(ValueError):
        phases(s)


def test_bilayer_phase_integers_lock():
    s = scattering_data(compute_transfer(pt_bilayer(gamma=0.5), 1.0))
    ph = phases(s, pt_symmetric=True)
    assert ph.m1 is not None and ph.m2 is not None
    assert ph.m1_residue <= 1e-8
    assert ph.m2_residue <= 1e-8
    assert (ph.m1, ph.m2) == (-1, 0)


def _sign_of_one_minus_t2(s):
    # the pseudo-unitarity sign: that of 1 - |T|^2, 0 at |T| = 1
    return int(np.sign(1.0 - abs(s.T) ** 2))


def test_pseudo_unitarity_free():
    s = _free_data()
    assert residual(PT_PSEUDO_UNITARITY, s, s) == 0.0
    assert _sign_of_one_minus_t2(s) == 0


def test_pseudo_unitarity_real_barrier():
    s_k, s_negk = _pair(barrier(), 1.3)
    assert residual(PT_PSEUDO_UNITARITY, s_k, s_negk) <= 1e-9
    assert _sign_of_one_minus_t2(s_k) == +1


def test_pseudo_unitarity_bilayer_gain_side():
    # gamma = 0.5 at k = 1 amplifies: |T| > 1, odd m1 + m2
    s_k, s_negk = _pair(pt_bilayer(gamma=0.5), 1.0)
    assert abs(s_k.T) > 1.0
    assert _sign_of_one_minus_t2(s_k) == -1
    assert residual(PT_PSEUDO_UNITARITY, s_k, s_negk) <= 1e-8
    # with the other sign, |T|^2 + |R_l R_r| = 1 fails at this point
    assert abs(abs(s_k.T) ** 2 + abs(s_k.R_left * s_k.R_right) - 1.0) > 1e-2
    ph = phases(s_k, pt_symmetric=True)
    assert (ph.m1 + ph.m2) % 2 == 1  # e^{i pi (m1+m2)} = -1 matches the minus sign


def test_generalized_unitarity_free():
    assert residual(GEN_UNITARITY_L, _free_data(), _free_data()) == 0.0


def test_generalized_unitarity_real_barrier():
    s_k, s_negk = _pair(barrier(), 1.3)
    assert residual(GEN_UNITARITY_L, s_k, s_negk) <= 1e-8
    assert residual(GEN_UNITARITY_R, s_k, s_negk) <= 1e-8


def test_generalized_unitarity_pt_bilayer():
    s_k, s_negk = _pair(pt_bilayer(gamma=0.5), 1.0)
    for identity in (GEN_UNITARITY_L, GEN_UNITARITY_R):
        assert residual(identity, s_k, s_negk) <= 1e-8


def test_residual_rejects_unknown_identity():
    with pytest.raises(ValueError, match="unknown identity"):
        residual("GEN_UNITARITY_UP", _free_data(), _free_data())


def test_residual_refers_negk_matrix_to_the_matrices():
    with pytest.raises(ValueError, match="residual_negk_matrix"):
        residual(NEGK_MATRIX, _free_data(), _free_data())


@pytest.mark.parametrize("identity", [i for i in IDENTITY_IDS if i != NEGK_MATRIX])
def test_residual_rejects_nonfinite_amplitudes(identity):
    # a spectral singularity of the bilayer: the amplitudes at k are NaN
    s_k, s_negk = _pair(pt_bilayer(gamma=2.071737124880286), 1.064682550561970)
    assert not s_k.finite
    for pair in ((s_k, s_negk), (s_negk, s_k)):
        with pytest.raises(ValueError, match="non-finite amplitudes"):
            residual(identity, *pair)


def test_reciprocity_gen():
    assert residual(RECIPROCITY_GEN, _free_data(), _free_data()) == 0.0
    s_k, s_negk = _pair(barrier(), 1.3)
    assert residual(RECIPROCITY_GEN, s_k, s_negk) <= 1e-9
    s_k, s_negk = _pair(pt_bilayer(gamma=0.5), 1.0)
    assert residual(RECIPROCITY_GEN, s_k, s_negk) <= 1e-8


def test_t_parity_real_and_onesided():
    for identity in (T_MODULUS_PARITY, T_NEGK_CONJ):
        assert residual(identity, _free_data(), _free_data()) == 0.0
    s_k, s_negk = _pair(barrier(), 1.3)
    assert residual(T_MODULUS_PARITY, s_k, s_negk) <= 1e-9
    assert residual(T_NEGK_CONJ, s_k, s_negk) <= 1e-9
    # a potential with no symmetry class keeps RRT but loses T(-k) = T(k)^*
    s_k, s_negk = _pair(onesided(), 1.3)
    assert residual(T_NEGK_CONJ, s_k, s_negk) > 0.1
    assert residual(NEGK_AMPLITUDES, s_k, s_negk) <= 1e-8


def test_negk_amplitudes_class_independent():
    s = _free_data()
    assert residual(NEGK_AMPLITUDES, s, s) == 0.0
    for pot in (onesided(), pt_bilayer(), barrier(), double_barrier(), pt_stack4()):
        s_k, s_negk = _pair(pot, 0.9)
        assert residual(NEGK_AMPLITUDES, s_k, s_negk) <= 1e-8


def test_negk_amplitudes_undefined_at_small_d():
    # with det M = 1, D = M11/M22 = 1e-13: |M11(k)| <= 1e-12 |M22(k)|, while M22(-k) = M11(k)
    # stays above the singularity floor, so both amplitude triples are finite
    m_k = TransferMatrix(1e-9, 1.0, 1e-5 - 1.0, 1e4, 1.0)
    s_k, s_negk = scattering_data(m_k), scattering_data(negative_k_matrix(m_k))
    assert s_k.finite and s_negk.finite
    assert 0 < abs(s_k.D) <= D_FLOOR and abs(m_k.m11) > SINGULARITY_FLOOR
    reason = r"NEGK_AMPLITUDES undefined: \|D\| = 1\.00e-13 below floor"
    with pytest.raises(ValueError, match=reason):
        residual(NEGK_AMPLITUDES, s_k, s_negk)


def test_d_phase_for_pt():
    s_k, s_negk = _pair(pt_bilayer(gamma=0.5), 1.0)
    assert residual(D_PHASE, s_k, s_negk) <= 1e-8


def test_phase_sums_real_barrier():
    s_k, s_negk = _pair(barrier(), 1.3)
    assert residual(PHASE_SUM_REAL, s_k, s_negk) <= 1e-8
    assert residual(PHASE_SUM_PT, s_k, s_negk) <= 1e-8  # odd multiples of pi are multiples of pi


def test_phase_sums_pt_even_parity_matches_real_form():
    # frozen even-parity point of the bilayer: gamma = 1.5, k = 0.5
    s_k, s_negk = _pair(pt_bilayer(gamma=1.5), 0.5)
    ph = phases(s_k, pt_symmetric=True)
    assert (ph.m1 + ph.m2) % 2 == 0
    assert residual(PHASE_SUM_REAL, s_k, s_negk) <= 1e-8
    assert residual(PHASE_SUM_PT, s_k, s_negk) <= 1e-8


def test_phase_sums_pt_odd_parity_breaks_real_form():
    s_k, s_negk = _pair(pt_bilayer(gamma=0.5), 1.0)
    ph = phases(s_k, pt_symmetric=True)
    assert (ph.m1 + ph.m2) % 2 == 1
    assert residual(PHASE_SUM_PT, s_k, s_negk) <= 1e-8
    assert residual(PHASE_SUM_REAL, s_k, s_negk) == pytest.approx(math.pi, abs=1e-6)


def test_phase_sums_need_reflection():
    for identity in (PHASE_SUM_REAL, PHASE_SUM_PT):
        with pytest.raises(ValueError, match="reflectionless: lambda/rho below floor"):
            residual(identity, _free_data(), _free_data())


def test_r_phase_real():
    assert residual(R_PHASE_REAL, _free_data(), _free_data()) == 0.0
    for pot in (barrier(), double_barrier()):
        assert residual(R_PHASE_REAL, *_pair(pot, 1.3)) <= 1e-9


def test_report_free_all_zero():
    r = identity_report(free(), 1.0)
    assert r.symmetry.is_real and r.symmetry.is_even and r.symmetry.is_pt_symmetric
    for e in r.entries:
        if e.identity in (PHASE_SUM_REAL, PHASE_SUM_PT):
            assert not e.applicable and "reflectionless" in e.note
        else:
            assert e.applicable
            assert e.residual <= 1e-12


def test_report_real_barrier_everything_applies_and_passes():
    r = identity_report(barrier(), 1.3)
    assert all(e.applicable for e in r.entries)
    assert r.max_applicable_residual() <= 1e-8
    assert r.passes(1e-8)


def test_report_bilayer_real_only_identities_not_applicable():
    r = identity_report(pt_bilayer(gamma=0.5), 1.0)
    for identity in (R_NEGK_CONJ, PHASE_SUM_REAL, "UNITARITY_REAL", "RECIPROCITY_REAL",
                     "R_PHASE_REAL"):
        e = r.entry(identity)
        assert not e.applicable
        assert "wrong symmetry class" in e.note
    # the diagnostics are still evaluated and show genuine violations
    assert r.entry(R_NEGK_CONJ).residual > 1e-2
    assert r.passes(1e-8)


def test_report_onesided_counts_full_catalog_and_fails():
    r = identity_report(onesided(), 1.3)
    assert not r.symmetry.has_any
    assert all(e.applicable for e in r.entries if e.residual is not None)
    assert r.entry(NEGK_MATRIX).residual <= 1e-12
    assert r.entry(NEGK_AMPLITUDES).residual <= 1e-8
    for identity in (RECIPROCITY_GEN, GEN_UNITARITY_L, GEN_UNITARITY_R, T_NEGK_CONJ):
        assert r.entry(identity).residual > 1e-3
    assert not r.passes(1e-8)


def test_report_nan_residual_fails():
    # overflowed slab: amplitudes are non-finite, NEGK_MATRIX stays applicable with NaN
    r = identity_report(LayerPotential((10000.0,), (10.0,), -5.0), 1.0)
    assert not r.scattering.finite
    assert math.isnan(r.max_applicable_residual())
    assert r.failing(1e-8) == (NEGK_MATRIX,)
    assert not r.passes(1e-8)


def test_report_rejects_zero_k():
    with pytest.raises(ValueError):
        identity_report(barrier(), 0.0)


@pytest.mark.parametrize("k", [0.0, [1.0, 0.0]], ids=["scalar", "array"])
@pytest.mark.parametrize("backend,backend_negk", [("stack", None), ("ode", None), ("stack", "ode")])
def test_report_zero_k_is_refused_by_the_backends(k, backend, backend_negk):
    # identity_report has no k = 0 check of its own: transfer_matrices refuses it
    with pytest.raises(ValueError, match="^k = 0: zero-energy scattering is excluded$"):
        identity_report(barrier(), k, backend=backend, backend_negk=backend_negk)


def test_report_backend_choice_does_not_change_residuals():
    pot = pt_bilayer(gamma=0.5)
    r_ss = identity_report(pot, 1.0, backend="stack")
    r_so = identity_report(pot, 1.0, backend="stack", backend_negk="ode", ode_tol=1e-11)
    r_oo = identity_report(pot, 1.0, backend="ode", ode_tol=1e-11)
    for identity in IDENTITY_IDS:
        vals = []
        for r in (r_ss, r_so, r_oo):
            e = r.entry(identity)
            if e.residual is not None:
                vals.append(e.residual)
        assert max(vals) - min(vals) <= 1e-7, identity


def test_report_at_spectral_singularity_is_flagged():
    # frozen singular point of the bilayer family
    gamma_star, k_star = 2.071737124880286, 1.064682550561970
    r = identity_report(pt_bilayer(gamma=gamma_star), k_star)
    assert not r.scattering.finite
    assert r.entry(NEGK_MATRIX).applicable
    assert r.entry(NEGK_MATRIX).residual <= 1e-10
    for e in r.entries:
        if e.identity != NEGK_MATRIX:
            assert not e.applicable
            assert "non-finite" in e.note


@pytest.mark.parametrize("pot,k", [
    (LayerPotential((10000.0,), (10.0,), -5.0), 1.0),  # opaque: M overflows
    (pt_bilayer(gamma=2.071737124880286), 1.064682550561970),  # spectral singularity
])
def test_report_nonfinite_entries_follow_catalog_order(pot, k):
    r = identity_report(pot, k)
    assert not r.scattering.finite
    assert [e.identity for e in r.entries] == list(IDENTITY_IDS)


def test_report_on_overflowed_m22_notes_every_amplitude_row_nonfinite():
    # with T = 1/inf = 0 counted as finite, D_PHASE's T/T* raised ZeroDivisionError here
    m = TransferMatrix(0, 0, 0, math.inf, 1.0)
    sym = classify_symmetry(barrier())
    r = identities._report(1.0, m, m, sym, identities._rows(sym))
    assert not r.scattering.finite and r.phases is None
    assert [e.identity for e in r.entries] == list(IDENTITY_IDS)
    assert r.entry(NEGK_MATRIX).residual == math.inf
    for e in r.entries:
        if e.identity != NEGK_MATRIX:
            assert not e.applicable
            assert e.note == identities._NONFINITE


def test_entry_lookup_raises_for_unknown_id():
    r = identity_report(free(), 1.0)
    with pytest.raises(KeyError):
        r.entry("NOT_AN_IDENTITY")


def test_pt_negk_r_sign_convention():
    # R(-k) = -e^{-2 i tau} R_opposite(k): the exponent sign is observable
    s_k, s_negk = _pair(pt_bilayer(gamma=0.5), 1.0)
    phase = s_k.T.conjugate() / s_k.T
    good = abs(s_negk.R_left + phase * s_k.R_right)
    flipped = abs(s_negk.R_left + (s_k.T / s_k.T.conjugate()) * s_k.R_right)
    assert good <= 1e-12
    assert flipped > 1e-3
    r = identity_report(pt_bilayer(gamma=0.5), 1.0)
    assert r.entry(PT_NEGK_R).applicable
    assert r.entry(PT_NEGK_R).residual <= 1e-8


@pytest.mark.parametrize("pot,ks,backend,backend_negk", [
    (pt_stack4(), (0.3, 0.77, 1.5, 2.9), "stack", None),
    (LayerPotential((10000.0,), (10.0,), -5.0), np.linspace(0.3, 3.0, 60), "auto", None),
    (pt_bilayer(gamma=2.071737124880286), (1.064682550561970, 1.1, 1.2), "auto", None),
], ids=["stack", "opaque-slab", "pt-bilayer-singular"])
def test_report_batch_matches_per_k_reports(pot, ks, backend, backend_negk):
    # one pass over the k array gives the reports of one call per k, to the byte
    kwargs = {"backend": backend, "backend_negk": backend_negk, "ode_tol": 1e-11}
    with np.errstate(all="ignore"):
        batch = identity_report(pot, np.asarray(ks), **kwargs)
        single = [identity_report(pot, float(k), **kwargs) for k in ks]
    assert isinstance(batch, tuple) and len(batch) == len(ks)
    assert tables.reports_to_json(batch) == tables.reports_to_json(single)


@pytest.mark.parametrize("pot,ks,backend,backend_negk", [
    (pt_stack4(), (0.3, 1.5, 2.9), "ode", None),
    (pt_bilayer(gamma=0.5), (0.4, 1.1, 2.3), "stack", "ode"),  # verify --backend both
], ids=["ode", "both"])
def test_report_batch_agrees_with_per_k_reports(pot, ks, backend, backend_negk):
    # the ODE integrates a batch's k in one system, with its own step sequence, so
    # batch and per-k reports agree to the solve's error, not to the byte: each
    # entry of M(+-k) within 10 tol max|M|, and every verdict the same
    tol = 1e-11
    kwargs = {"backend": backend, "backend_negk": backend_negk, "ode_tol": tol}
    batch = identity_report(pot, np.asarray(ks), **kwargs)
    single = [identity_report(pot, float(k), **kwargs) for k in ks]
    assert len(batch) == len(ks)
    for got, want in zip(batch, single):
        assert got.k == want.k
        for s_got, s_want in ((got.scattering, want.scattering),
                              (got.scattering_negk, want.scattering_negk)):
            m_got, m_want = (matrix_from_amplitudes(s.T, s.R_left, s.R_right, s.k).as_array()
                             for s in (s_got, s_want))
            assert np.max(np.abs(m_got - m_want)) <= 10 * tol * np.max(np.abs(m_want))
        verdicts = [[(e.identity, e.applicable, e.residual is not None
                      and e.residual <= DEFAULT_VERIFY_TOL) for e in r.entries]
                    for r in (got, want)]
        assert verdicts[0] == verdicts[1]


def test_report_raises_first_failed_solve_in_k_minus_k_order(fail_ode_systems):
    # M(k) and M(-k) are drawn k1, -k1, k2, -k2: a failure at -k1 is the one
    # raised, though k2 comes first in the k array of the solve
    fail_ode_systems([-0.7, 1.1])
    with pytest.raises(ConvergenceError, match=r"at k=-0\.7: step too small"):
        identity_report(pt_stack4(), np.array([0.7, 1.1]), backend="ode")


def test_squared_moduli_overflow_to_inf():
    # |T| = 1e200: abs(T) ** 2 overflows; the residual is inf, not an OverflowError
    s = ScatteringData(1.0, 1e200 + 0j, 0j, 0j, 0j, True, 1.0)
    assert residual(UNITARITY_REAL, s, s) == math.inf
    assert residual(PT_PSEUDO_UNITARITY, s, s) == math.inf
    # a NaN part after that overflow stays NaN (CPython's abs() keeps the stale errno)
    assert math.isnan(abs2(complex(math.nan, 1.0)))
    assert abs2(complex(math.inf, math.nan)) == math.inf
    assert abs2(3 + 4j) == 25.0


def test_readme_identity_table_follows_the_catalog():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Identity ids", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([A-Z_]+)` \| ([a-z, ]+) \|", section, flags=re.M)
    assert tuple(identity for identity, _ in rows) == IDENTITY_IDS
    for identity, classes in rows:
        assert tuple(classes.split(", ")) == _CATALOG[identity][0], identity
