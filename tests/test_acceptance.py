"""Acceptance suite: one test per exit criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Shared
sweeps are computed once per session; the slower entries are the adaptive
integrations of the smooth PT profile (truncated support reaches |x| ~ 28).
"""
import numpy as np
import pytest
from scipy.optimize import minimize_scalar, root

from ptscatter import (
    classify_symmetry,
    compute_transfer,
    find_spectral_singularities,
    find_unidirectional_points,
    identity_report,
    scattering_data,
    stack_matrices,
)
from ptscatter import io as tables
from ptscatter.catalog import corpus, pt_bilayer
from ptscatter.cli import run_command
from ptscatter.identities import (
    GEN_UNITARITY_L,
    GEN_UNITARITY_R,
    NEGK_AMPLITUDES,
    PHASE_SUM_REAL,
    PT_PSEUDO_UNITARITY,
    R_NEGK_CONJ,
    R_PHASE_REAL,
    RECIPROCITY_GEN,
    RECIPROCITY_REAL,
    T_MODULUS_PARITY,
    T_NEGK_CONJ,
    UNITARITY_REAL,
    phases,
    residual,
    residual_negk_matrix,
)
from ptscatter.transfer import transfer_matrices

from oracles import apply_parity, apply_pt, apply_time_reversal, invariance_residual

K_GRID = np.linspace(0.3, 3.0, 50)
ODE_TOL_DET = 1e-9       # criterion 1 pins this tolerance
ODE_TOL_TIGHT = 1e-12    # used where residuals must reach 1e-8

LAYER_NAMES = ("free", "barrier", "double-barrier", "pt-bilayer", "pt-stack4", "onesided")
REAL_NAMES = ("barrier", "double-barrier")
PT_NAMES = ("pt-bilayer", "pt-stack4", "scarf2-pt")


@pytest.fixture(scope="module")
def pots():
    return corpus()


@pytest.fixture(scope="module")
def stack_sweeps(pots):
    return {
        name: stack_matrices(pots[name], K_GRID)
        for name in LAYER_NAMES
    }


@pytest.fixture(scope="module")
def ode_sweeps(pots):
    return {name: list(transfer_matrices(p, K_GRID, "ode", ODE_TOL_DET))
            for name, p in pots.items()}


@pytest.fixture(scope="module")
def pm_data(pots):
    """Scattering data at (+k, -k) from independent runs, per potential.

    Layer potentials use the exact stack backend on both sides; the smooth
    profile uses the integrator at the tight tolerance, +k and -k as their
    own rows of one run.
    """
    out = {}
    for name in LAYER_NAMES:
        plus = stack_matrices(pots[name], K_GRID)
        minus = stack_matrices(pots[name], -K_GRID[::-1])[::-1]
        out[name] = [
            (_tm(plus[i], K_GRID[i]), _tm(minus[i], -K_GRID[i]))
            for i in range(K_GRID.size)
        ]
    p = pots["scarf2-pt"]
    mats = list(transfer_matrices(p, np.concatenate((K_GRID, -K_GRID)), "ode", ODE_TOL_TIGHT))
    out["scarf2-pt"] = list(zip(mats[:K_GRID.size], mats[K_GRID.size:]))
    return out


def _tm(arr, k):
    from ptscatter.transfer import TransferMatrix

    return TransferMatrix(*arr.ravel().tolist(), float(k), "stack")


def test_c01_unit_determinant(pots, stack_sweeps, ode_sweeps):
    worst_stack = 0.0
    for name, mats in stack_sweeps.items():
        dets = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
        worst_stack = max(worst_stack, float(np.max(np.abs(dets - 1.0))))
    assert worst_stack <= 1e-9
    worst_ode = 0.0
    for name, mats in ode_sweeps.items():
        for m in mats:
            worst_ode = max(worst_ode, abs(m.det - 1.0))
    assert worst_ode <= 1e-6
    print(f"\nACCEPTANCE 01 det M = 1: PASS (stack {worst_stack:.2e} <= 1e-9, "
          f"ode {worst_ode:.2e} <= 1e-6 at tol {ODE_TOL_DET})")


def test_c02_backend_cross_agreement(stack_sweeps, ode_sweeps):
    worst = 0.0
    for name in LAYER_NAMES:
        for i in range(K_GRID.size):
            ms = stack_sweeps[name][i]
            mo = ode_sweeps[name][i].as_array()
            rel = np.max(np.abs(ms - mo)) / max(1e-300, np.max(np.abs(ms)))
            worst = max(worst, float(rel))
    assert worst <= 1e-6
    print(f"\nACCEPTANCE 02 stack/ode agreement: PASS (worst relative {worst:.2e} <= 1e-6)")


def test_c03_class_independent_negk_identities(pm_data):
    worst_mat = worst_amp = 0.0
    for name, pairs in pm_data.items():
        for m_k, m_negk in pairs:
            worst_mat = max(worst_mat, residual_negk_matrix(m_k, m_negk))
            s_k, s_negk = scattering_data(m_k), scattering_data(m_negk)
            assert s_k.finite and s_negk.finite, name
            assert abs(s_k.D) > 1e-12
            worst_amp = max(worst_amp, residual(NEGK_AMPLITUDES, s_k, s_negk))
    assert worst_mat <= 1e-8
    assert worst_amp <= 1e-8
    print(f"\nACCEPTANCE 03 negative-k identities, all classes: PASS "
          f"(matrix {worst_mat:.2e}, amplitudes {worst_amp:.2e} <= 1e-8)")


def test_c04_real_potential_suite(pots):
    ids = (RECIPROCITY_REAL, UNITARITY_REAL, R_PHASE_REAL, PHASE_SUM_REAL,
           R_NEGK_CONJ, T_NEGK_CONJ, GEN_UNITARITY_L, GEN_UNITARITY_R)
    worst = 0.0
    for name in REAL_NAMES:
        for k in K_GRID:
            report = identity_report(pots[name], float(k))
            for identity in ids:
                e = report.entry(identity)
                assert e.applicable, (name, k, identity, e.note)
                worst = max(worst, e.residual)
    assert worst <= 1e-8
    print(f"\nACCEPTANCE 04 real-potential suite: PASS (worst residual {worst:.2e} <= 1e-8)")


def test_c05_pt_conjecture_relations(pm_data):
    worst = 0.0
    for name in ("pt-bilayer", "scarf2-pt"):
        for m_k, m_negk in pm_data[name]:
            s_k, s_negk = scattering_data(m_k), scattering_data(m_negk)
            worst = max(worst,
                        abs(abs(s_negk.R_left) - abs(s_k.R_right)),
                        abs(abs(s_negk.R_right) - abs(s_k.R_left)),
                        abs(abs(s_negk.T) - abs(s_k.T)))
    assert worst <= 1e-8
    print(f"\nACCEPTANCE 05 |R^l(-k)|=|R^r(k)| and |T(-k)|=|T(k)| (PT corpus): PASS "
          f"(worst {worst:.2e} <= 1e-8)")


def test_c06_generalized_unitarity_and_its_failure(pm_data):
    worst = 0.0
    for name in REAL_NAMES + PT_NAMES:
        for m_k, m_negk in pm_data[name]:
            s_k, s_negk = scattering_data(m_k), scattering_data(m_negk)
            t2 = abs(s_k.T) ** 2
            worst = max(worst,
                        abs(s_k.R_left * s_negk.R_left + t2 - 1.0),
                        abs(s_k.R_right * s_negk.R_right + t2 - 1.0))
    assert worst <= 1e-8
    worst_onesided = 0.0
    for m_k, m_negk in pm_data["onesided"]:
        s_k, s_negk = scattering_data(m_k), scattering_data(m_negk)
        worst_onesided = max(worst_onesided,
                             abs(s_k.R_left * s_negk.R_left + abs(s_k.T) ** 2 - 1.0))
    assert worst_onesided > 1e-3
    print(f"\nACCEPTANCE 06 generalized unitarity: PASS (real+PT worst {worst:.2e} <= 1e-8; "
          f"one-sided violates with {worst_onesided:.2e} > 1e-3)")


def test_c07_pseudo_unitarity_sign_rule():
    floor = 1e-6  # reflection zeros are the degenerate points of the sign
    checked = 0
    signs_seen = set()
    for gamma in np.linspace(0.25, 4.0, 16):
        p = pt_bilayer(gamma=float(gamma))
        mats = stack_matrices(p, K_GRID)
        for i, k in enumerate(K_GRID):
            s = scattering_data(_tm(mats[i], k))
            if abs(s.R_left) < floor or abs(s.R_right) < floor:
                continue
            # the relation reads amplitudes at k only, so s stands in for the -k triple
            assert residual(PT_PSEUDO_UNITARITY, s, s) <= 1e-8, (gamma, k)
            sign = int(np.sign(1.0 - abs(s.T) ** 2))
            ph = phases(s, pt_symmetric=True)
            assert ph.m1_residue <= 1e-6 and ph.m2_residue <= 1e-6
            parity = (ph.m1 + ph.m2) % 2
            assert sign == (1 if parity == 0 else -1), (gamma, k, sign, parity)
            signs_seen.add(sign)
            checked += 1
    assert checked > 400
    assert signs_seen == {1, -1}
    print(f"\nACCEPTANCE 07 pseudo-unitarity sign vs m1+m2 parity: PASS "
          f"({checked} grid points, both signs exercised)")


def test_c08_spectral_singularity_scan_vs_oracle(pots):
    # independent oracle: coarse 2D grid on (gamma, k), nested refinement,
    # then a 2D root polish on (Re M22, Im M22)
    def m22(gamma, k):
        return compute_transfer(pt_bilayer(gamma=float(gamma)), float(k), "stack").m22

    gammas = np.linspace(1.6, 2.6, 60)
    ks = np.linspace(0.7, 1.4, 80)
    best = min(((abs(m22(g, k)), g, k) for g in gammas for k in ks))
    _, g0, k0 = best

    def min_over_k(gamma):
        r = minimize_scalar(lambda k: abs(m22(gamma, k)) ** 2,
                            bracket=(k0 - 0.2, k0, k0 + 0.2), method="brent",
                            options={"xtol": 1e-12})
        return r

    outer = minimize_scalar(lambda g: min_over_k(g).fun,
                            bracket=(g0 - 0.1, g0, g0 + 0.1), method="brent",
                            options={"xtol": 1e-10})
    sol = root(lambda p: [m22(p[0], p[1]).real, m22(p[0], p[1]).imag],
               [outer.x, min_over_k(outer.x).x], tol=1e-14)
    gamma_star, k_star = sol.x
    assert abs(m22(gamma_star, k_star)) <= 1e-10

    res = find_spectral_singularities(pt_bilayer(gamma=float(gamma_star)),
                                      0.3, 3.0, 2.7 / 49, tol=1e-12)
    assert len(res.features) == 1
    f = res.features[0]
    assert abs(f.k_star - k_star) <= 1e-6
    t_mag = 1.0 / abs(m22(gamma_star, f.k_star))
    assert t_mag > 1e3

    empty = find_spectral_singularities(pots["barrier"], 0.3, 3.0, 2.7 / 49, tol=1e-12)
    assert empty.features == ()
    print(f"\nACCEPTANCE 08 spectral singularity: PASS (oracle gamma*={gamma_star:.9f}, "
          f"k*={k_star:.9f}; scan |dk| = {abs(f.k_star - k_star):.2e} <= 1e-6; "
          f"|T| = {t_mag:.2e} > 1e3; real barrier scan empty)")


def test_c09_reflectionless_implies_unit_transmission(pots):
    res = find_unidirectional_points(pots["pt-stack4"], 0.3, 5.0, 0.005, tol=1e-10)
    assert len(res.features) == 2
    worst = 0.0
    for f in res.features:
        s = scattering_data(compute_transfer(pots["pt-stack4"], f.k_star, "stack"))
        worst = max(worst, abs(abs(s.T) - 1.0))
    assert worst <= 1e-6
    print(f"\nACCEPTANCE 09 reflectionless => |T| = 1 (4-layer PT stack): PASS "
          f"({len(res.features)} features, worst ||T|-1| = {worst:.2e} <= 1e-6)")


def test_c10_symmetry_action_laws(pots):
    rng = np.random.default_rng(1234)
    worst_law = 0.0
    n = 0
    from ptscatter.transfer import TransferMatrix

    while n < 1000:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = np.linalg.det(m)
        if abs(det) < 1e-2:
            continue
        tm = TransferMatrix(*(m / np.sqrt(det)).ravel().tolist(), 1.0)
        arr = tm.as_array()
        for apply in (apply_parity, apply_time_reversal, apply_pt):
            worst_law = max(worst_law, float(np.max(np.abs(apply(apply(tm)).as_array() - arr))))
        comp = np.max(np.abs(apply_pt(tm).as_array()
                             - apply_parity(apply_time_reversal(tm)).as_array()))
        worst_law = max(worst_law, float(comp))
        n += 1
    assert worst_law <= 1e-10

    worst_class = 0.0
    for name, p in pots.items():
        sym = classify_symmetry(p)
        if name == "scarf2-pt":
            mats = list(transfer_matrices(p, K_GRID[::5], "ode", ODE_TOL_TIGHT))
        else:
            mats = [_tm(a, k) for a, k in zip(stack_matrices(p, K_GRID), K_GRID)]
        for m in mats:
            if sym.is_real:
                worst_class = max(worst_class, invariance_residual(m, apply_time_reversal))
            if sym.is_even:
                worst_class = max(worst_class, invariance_residual(m, apply_parity))
            if sym.is_pt_symmetric:
                worst_class = max(worst_class, invariance_residual(m, apply_pt))
    assert worst_class <= 1e-8
    print(f"\nACCEPTANCE 10 symmetry-action laws: PASS (1000 matrices, laws {worst_law:.2e} "
          f"<= 1e-10; class correspondence {worst_class:.2e} <= 1e-8)")


def test_c11_cli_exit_codes_and_roundtrips(pots, tmp_path, capsys):
    docs = {
        "free": '{"layers": [], "x0": 0}',
        "barrier": '{"layers":[{"re":2,"im":0,"width":2}],"x0":-1}',
        "pt-bilayer": '{"family":"pt-bilayer","params":{"gamma":0.5}}',
        "pt-stack4": '{"family":"pt-stack4"}',
        "onesided": '{"layers":[{"re":0,"im":1,"width":1}],"x0":0}',
    }
    expected_exit = {"free": 0, "barrier": 0, "pt-bilayer": 0, "pt-stack4": 0, "onesided": 1}
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(doc)
        code = run_command(["verify", "--potential", str(path), "--k-range", "0.5:3:7",
                            "--format", "json"])
        out = capsys.readouterr()
        reports = tables.reports_from_json(out.out)
        worst = max(r.max_applicable_residual() for r in reports)
        assert code == expected_exit[name], (name, worst)
        assert code == (0 if worst <= 1e-8 else 1), name
        # JSON round-trip is lossless at the object level
        assert tables.reports_from_json(tables.reports_to_json(reports)) == reports
        # CSV round-trip is lossless at the text level
        code = run_command(["verify", "--potential", str(path), "--k-range", "0.5:3:7"])
        out = capsys.readouterr()
        text = out.out
        assert tables.reports_to_csv(tables.reports_from_csv(text)) == text
    print("\nACCEPTANCE 11 CLI exit codes and round-trips: PASS "
          f"({len(docs)} corpus potentials)")
