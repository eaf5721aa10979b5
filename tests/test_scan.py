import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize._optimize import Brent

from ptscatter import (
    Feature,
    ScatteringData,
    check_invisibility,
    compute_transfer,
    find_spectral_singularities,
    find_unidirectional_points,
    scattering_data,
    sweep,
)
from ptscatter import SampledPotential, scan, transfer
from ptscatter.catalog import barrier, free, onesided, pt_bilayer, pt_stack4, scarf2
from ptscatter.scan import (
    BIDIRECTIONAL_REFLECTIONLESS,
    REFLECTIONLESS_LEFT,
    REFLECTIONLESS_RIGHT,
    SPECTRAL_SINGULARITY,
)

# frozen coordinates: bilayer singularity from the two-parameter polish,
# stack4 reflection zeros from wide-bracket refinement
BILAYER_GAMMA_STAR = 2.071737124880286
BILAYER_K_STAR = 1.064682550561970
STACK4_LEFT_ZERO = 2.228963253
STACK4_RIGHT_ZERO = 4.712710432


def test_sweep_free_potential():
    res = sweep(free(), np.linspace(0.5, 2.5, 11))
    assert len(res.rows) == 11 and not res.errors
    for s in res.rows:
        assert s.T == 1.0 and s.R_left == 0.0 and s.R_right == 0.0


def test_sweep_real_barrier_unitary_rows():
    res = sweep(barrier(), np.linspace(0.5, 3.0, 21))
    for s in res.rows:
        assert abs(abs(s.T) ** 2 + abs(s.R_left) ** 2 - 1.0) <= 1e-12


def test_sweep_bilayer_pseudo_unitary_rows():
    res = sweep(pt_bilayer(gamma=0.5), np.linspace(0.5, 3.0, 21))
    for s in res.rows:
        sign = 1.0 if abs(s.T) <= 1.0 else -1.0
        assert abs(abs(s.T) ** 2 + sign * abs(s.R_left * s.R_right) - 1.0) <= 1e-12


def test_sweep_validates_grid():
    with pytest.raises(ValueError):
        sweep(free(), [1.0, 0.5])
    with pytest.raises(ValueError):
        sweep(free(), [-1.0, 1.0])
    with pytest.raises(ValueError):
        sweep(free(), [])
    for grid in ([0.5, np.inf], [np.nan, 0.5, 1.0], [0.5, 1.0, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            sweep(free(), grid)


def test_sweep_ode_backend_row_errors_do_not_abort():
    res = sweep(barrier(), np.array([0.7, 1.1]), backend="ode", ode_tol=1e-8)
    assert len(res.rows) == 2
    assert not res.errors


def test_sweep_records_convergence_errors_per_row(fail_ode_systems):
    fail_ode_systems([0.7, 1.1])
    res = sweep(barrier(), np.array([0.7, 1.1]), backend="ode")
    assert res.errors == ((0.7, "integration failed on [-1.0, 1.0] at k=0.7: step too small"),
                          (1.1, "integration failed on [-1.0, 1.0] at k=1.1: step too small"))
    assert not any(s.finite for s in res.rows)
    assert all(np.isnan(s.condition) for s in res.rows)


def test_sweep_error_rows_carry_resolved_backend(fail_ode_systems):
    fail_ode_systems([0.7, 1.1])
    res = sweep(scarf2(), np.array([0.7, 1.1]))
    assert len(res.errors) == 2
    assert [s.backend for s in res.rows] == ["ode", "ode"]


def test_sweep_propagates_programming_errors(fail_ode_systems):
    fail_ode_systems([], error=TypeError("programming error"))
    with pytest.raises(TypeError, match="programming error"):
        sweep(barrier(), np.array([0.7, 1.1]), backend="ode")


def test_sweep_one_failing_k_keeps_the_others(fail_ode_systems):
    # the failed system is redone one k at a time: only the k that fails alone is lost
    tol = 1e-10
    ks = np.linspace(0.5, 2.5, 5)
    clean = sweep(pt_stack4(), np.delete(ks, 2), backend="ode", ode_tol=tol)
    fail_ode_systems([ks[2]])
    res = sweep(pt_stack4(), ks, backend="ode", ode_tol=tol)
    assert [k for k, _ in res.errors] == [ks[2]]
    assert [s.finite for s in res.rows] == [True, True, False, True, True]
    for got, want in zip(res.rows[:2] + res.rows[3:], clean.rows):
        assert got.k == want.k
        for a, b in ((got.T, want.T), (got.R_left, want.R_left), (got.R_right, want.R_right)):
            assert abs(a - b) <= 100 * tol


def test_singularity_scan_real_potentials_empty():
    for pot in (barrier(), free()):
        res = find_spectral_singularities(pot, 0.3, 5.0, 0.05)
        assert res.features == ()


def test_singularity_scan_finds_bilayer_zero():
    pot = pt_bilayer(gamma=BILAYER_GAMMA_STAR)
    res = find_spectral_singularities(pot, 0.3, 3.0, 2.7 / 49, tol=1e-12)
    assert len(res.features) == 1
    f = res.features[0]
    assert f.kind == SPECTRAL_SINGULARITY
    assert f.residual <= 1e-8
    assert f.bracket[0] <= f.k_star <= f.bracket[1]
    assert abs(f.k_star - BILAYER_K_STAR) <= 1e-6
    # pole certified by the denominator: |T| explodes at k*
    s = scattering_data(compute_transfer(pot, f.k_star))
    if s.finite:
        assert abs(s.T) > 1e3


def test_singularity_scan_slightly_off_critical_gain_empty():
    res = find_spectral_singularities(pt_bilayer(gamma=BILAYER_GAMMA_STAR - 0.05),
                                      0.3, 3.0, 2.7 / 49, tol=1e-12)
    assert res.features == ()


def test_singularity_scan_validates_range():
    with pytest.raises(ValueError):
        find_spectral_singularities(barrier(), -1.0, 2.0, 0.1)
    with pytest.raises(ValueError):
        find_spectral_singularities(barrier(), 2.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        find_spectral_singularities(barrier(), 0.5, 2.0, 0.0)
    # an infinite k_max would size the grid as int(inf); an infinite step leaves one k
    with pytest.raises(ValueError, match="finite"):
        find_spectral_singularities(pt_stack4(), 0.3, np.inf, 0.1)
    with pytest.raises(ValueError, match="finite"):
        find_spectral_singularities(pt_stack4(), 0.3, 3.0, np.inf)
    with pytest.raises(ValueError, match="finite"):
        find_unidirectional_points(pt_stack4(), 0.3, 3.0, np.inf)


def test_unidirectional_scan_stack4_left_zero():
    res = find_unidirectional_points(pt_stack4(), 0.3, 3.0, 0.01)
    assert len(res.features) == 1
    f = res.features[0]
    assert f.kind == REFLECTIONLESS_LEFT
    assert abs(f.k_star - STACK4_LEFT_ZERO) <= 1e-6
    assert f.residual <= 1e-8
    # transparent (|T| = 1) but not invisible (T != 1): stays reflectionless
    s = scattering_data(compute_transfer(pt_stack4(), f.k_star))
    assert abs(abs(s.T) - 1.0) <= 1e-6
    assert abs(s.T - 1.0) > 0.1


def test_unidirectional_scan_stack4_both_zeros():
    res = find_unidirectional_points(pt_stack4(), 0.3, 5.0, 0.005)
    kinds = [f.kind for f in res.features]
    assert kinds == [REFLECTIONLESS_LEFT, REFLECTIONLESS_RIGHT]
    assert abs(res.features[0].k_star - STACK4_LEFT_ZERO) <= 1e-6
    assert abs(res.features[1].k_star - STACK4_RIGHT_ZERO) <= 1e-6


def test_even_potential_zeros_are_bidirectional():
    res = find_unidirectional_points(barrier(), 1.8, 2.5, 0.01)
    assert len(res.features) == 1
    f = res.features[0]
    assert f.kind == BIDIRECTIONAL_REFLECTIONLESS
    # slab resonance: interior wavenumber fits the width, kappa * 2h = pi
    expect = np.sqrt(2.0 + (np.pi / 2.0) ** 2)
    assert abs(f.k_star - expect) <= 1e-8


def test_free_potential_reports_no_isolated_features():
    res = find_unidirectional_points(free(), 0.5, 2.0, 0.05)
    assert res.features == ()


def test_local_minima_skips_a_minimum_on_a_stretch_below_the_floor():
    # noise on a stretch whose squared objective is already below the squared floor
    # has grid minima, and none of them is a candidate
    shape = np.array([1.0, 0.5, 0.1, 0.3, 0.2, 0.6, 1.0])
    assert scan._local_minima(shape).tolist() == [2, 4]
    plateau = np.where(shape < 1.0, shape * scan.ACCEPTANCE_FLOOR ** 2, shape)
    assert scan._local_minima(plateau).tolist() == []


@pytest.mark.parametrize("values", [(1.0, 0.5, 0.1, 2.0, 1.0), (1.0, 2.0, 0.1, 0.5, 1.0)],
                         ids=["right-above", "left-above"])
def test_local_minima_keeps_a_minimum_with_one_neighbour_above_the_floor(values):
    assert scan._local_minima(np.array(values) * scan.ACCEPTANCE_FLOOR ** 2).tolist() == [2]


def test_feature_lists_stable_under_grid_refinement():
    tol = 1e-10
    r1 = find_unidirectional_points(pt_stack4(), 0.3, 3.0, 0.01, tol=tol)
    r2 = find_unidirectional_points(pt_stack4(), 0.3, 3.0, 0.005, tol=tol)
    assert len(r1.features) == len(r2.features)
    for a, b in zip(r1.features, r2.features):
        assert a.kind == b.kind
        assert abs(a.k_star - b.k_star) <= tol
    s1 = find_spectral_singularities(pt_bilayer(gamma=BILAYER_GAMMA_STAR), 0.3, 3.0, 0.05, tol=tol)
    s2 = find_spectral_singularities(pt_bilayer(gamma=BILAYER_GAMMA_STAR), 0.3, 3.0, 0.025, tol=tol)
    assert len(s1.features) == len(s2.features) == 1
    assert abs(s1.features[0].k_star - s2.features[0].k_star) <= tol


def test_check_invisibility_free_data():
    s = ScatteringData(1.0, 1.0 + 0j, 0j, 0j, 1.0 + 0j, True, 1.0)
    f = Feature(REFLECTIONLESS_LEFT, 1.0, 0.0, (0.9, 1.1))
    assert check_invisibility(f, s)


def test_check_invisibility_rejects_transparent_but_phased():
    s = ScatteringData(1.0, np.exp(0.3j), 0j, 0j, np.exp(0.6j), True, 1.0)
    f = Feature(BIDIRECTIONAL_REFLECTIONLESS, 1.0, 0.0, (0.9, 1.1))
    assert not check_invisibility(f, s)
    with pytest.raises(ValueError):
        check_invisibility(Feature(SPECTRAL_SINGULARITY, 1.0, 0.0, (0.9, 1.1)), s)


def test_invisibility_upgrade_wiring(monkeypatch):
    # loose tolerance forces the upgrade path; kind switches and the note
    # records the measured |T - 1|
    monkeypatch.setattr(scan, "INVISIBILITY_TOL", 2.0)
    res = find_unidirectional_points(pt_stack4(), 2.0, 2.5, 0.01)
    assert len(res.features) == 1
    f = res.features[0]
    assert f.kind == "invisible_left"
    assert "|T-1|" in f.note


def test_boundary_warning_near_edge():
    res = find_unidirectional_points(pt_stack4(), 2.22, 3.0, 0.01)
    assert len(res.features) == 1
    assert res.features[0].boundary_warning


def test_onesided_scan_runs_clean():
    res = find_spectral_singularities(onesided(), 0.5, 3.0, 0.05)
    assert res.features == ()


def test_unidirectional_scan_integrates_each_grid_k_once(monkeypatch):
    # both reflection sides read one M per grid k; refinement is switched off,
    # so every system started here is the grid's, and it holds each grid k once
    systems = []
    solve_ivp = transfer.solve_ivp

    def recording(fun, t_span, y0, **kwargs):
        if t_span[0] == -1.0:  # first piece: plane-wave data, psi'/psi = ik
            n = y0.size // 4
            systems.append((y0[n:2 * n] / y0[:n]).imag)
        return solve_ivp(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(transfer, "solve_ivp", recording)
    monkeypatch.setattr(scan, "_local_minima", lambda values: np.array([], dtype=int))
    bump = SampledPotential((-1.0, 0.0, 1.0), (0.0, 1.0 + 0.5j, 0.0))
    find_unidirectional_points(bump, 0.5, 0.9, 0.1, backend="ode")
    assert len(systems) == 1
    assert systems[0] == pytest.approx([0.5, 0.6, 0.7, 0.8, 0.9], rel=1e-12)


def test_unidirectional_scan_ode_grid_finds_stack_zero():
    # the ODE backend's grid is its rows stacked into one array, as the stack kernel's is
    stack = find_unidirectional_points(pt_stack4(), 0.3, 3.0, 0.01)
    ode = find_unidirectional_points(pt_stack4(), 0.3, 3.0, 0.01, backend="ode")
    assert [f.kind for f in ode.features] == [f.kind for f in stack.features] == [REFLECTIONLESS_LEFT]
    assert abs(ode.features[0].k_star - stack.features[0].k_star) <= 1e-6


def test_ode_scan_finds_exact_scarf2_singularity():
    # Scarf II has a spectral singularity where a = 2n + 1 (Ahmed, J. Phys. A 42
    # (2009) 472005): n = 1 at v1 = 1, v2 = 7.75, alpha = 1, k* = sqrt(v2 - v1 - 1/4) / 2
    res = find_spectral_singularities(scarf2(1.0, 7.75, 1.0), 1.0, 1.6, 0.02, backend="ode")
    assert [f.kind for f in res.features] == [SPECTRAL_SINGULARITY]
    assert abs(res.features[0].k_star - np.sqrt(6.5) / 2) <= 1e-9


def _leave_errno_at_erange():
    try:
        1e200 ** 2
    except OverflowError:
        pass


def test_moduli_of_nan_entries_do_not_raise():
    # CPython's abs() of a complex with a NaN part keeps errno from an earlier
    # float overflow and raises OverflowError; every modulus here reads NaN
    m = transfer.TransferMatrix(1, 0, 0, complex(np.nan, 1.0), 1.0)
    _leave_errno_at_erange()
    assert np.isnan(m.condition)
    _leave_errno_at_erange()
    s = transfer.scattering_data(m)
    assert not s.finite and np.isnan(s.condition)
    for kind in scan._OBJECTIVES:
        _leave_errno_at_erange()
        assert np.isnan(scan._residual(kind, m))
    _leave_errno_at_erange()
    assert transfer.modulus(complex(1.5e308, 1.5e308)) == np.inf
    assert transfer.abs2(1e200 + 0j) == np.inf


# --- the ported Brent against scipy's Brent.optimize core ----------------------

def _drive(minimizer, f):
    """Run a minimizer generator on f; its return value and the x it asked for, in order."""
    asked = []
    try:
        x = next(minimizer)
        while True:
            asked.append(x)
            x = minimizer.send(f(x))
    except StopIteration as stop:
        return stop.value, asked


def _recorded(f):
    asked = []

    def g(x):
        asked.append(x)
        return f(x)
    return g, asked


def _same(x, y) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


class GridMinimumBrent(Brent):
    """scipy's Brent.optimize core, unchanged, from a bracket whose ends are not evaluated.

    get_bracket_info keeps the 3-point order check and evaluates f only at xb;
    the core never reads f(xa) or f(xc).
    """

    def get_bracket_info(self):
        xa, xb, xc = self.brack
        if xa > xc:
            xc, xa = xa, xc
        if not ((xa < xb) and (xb < xc)):
            raise ValueError("bracket (xa, xb, xc) needs xa < xb < xc")
        return xa, xb, xc, None, self.func(*((xb,) + self.args)), None, 1


def _scipy_brent(f, bracket, xtol) -> GridMinimumBrent:
    ref = GridMinimumBrent(f, tol=xtol, maxiter=500)
    ref.set_bracket(bracket)
    ref.optimize()
    return ref


def _assert_brent_matches_scipy(f, bracket, xtol):
    """The port's x bits, nfev and asked x sequence are scipy's Brent core's; returns x."""
    g, scipy_asked = _recorded(f)
    want = _scipy_brent(g, bracket, xtol)
    (x, nfev), asked = _drive(scan.brent(*bracket, xtol), f)
    assert _same(x, want.xmin) and nfev == want.funcalls == len(asked)
    assert all(map(_same, asked, scipy_asked)) and len(asked) == len(scipy_asked)
    return x


smooth = st.tuples(st.floats(-3, 3), st.floats(0, 2), st.floats(0.1, 20), st.floats(0, 6))


@given(smooth, st.floats(-3, 3), st.floats(1e-3, 4), st.sampled_from([1e-12, 1e-10, 1.48e-8, 1e-4]))
@settings(max_examples=150, deadline=None)
def test_brent_matches_scipy_core_bit_for_bit(shape, a, width, xtol):
    x0, amp, freq, phase = shape

    def f(x):
        return (x - x0) ** 2 + amp * np.sin(freq * x + phase)

    # b is the lowest of 7 interior points, as a grid minimum is; the ends may lie lower
    c = a + width
    inner = np.linspace(a, c, 9)[1:-1].tolist()
    b = min(inner, key=f)
    _assert_brent_matches_scipy(f, (a, b, c), xtol)


def test_brent_rejects_unordered_brackets_as_scipy_does():
    for bracket in [(0.0, 2.0, 1.0), (0.0, 0.0, 1.0), (1.0, 1.0, 1.0)]:
        with pytest.raises(ValueError):
            _scipy_brent(abs, bracket, 1e-10)
        with pytest.raises(ValueError):
            _drive(scan.brent(*bracket, 1e-10), abs)


def test_brent_refines_tied_brackets():
    def parabola(x):
        return (x - 1.0) ** 2

    # f(b) == f(c): scipy's full 3-point check would refuse this bracket; its core and the
    # port, which never read f(c), refine it like any other
    assert parabola(0.5) == parabola(1.5)
    for bracket in [(-1.0, 0.5, 1.5), (-1.0, 0.75, 1.5)]:
        assert abs(_assert_brent_matches_scipy(parabola, bracket, 1e-10) - 1.0) <= 1e-8


@pytest.mark.parametrize("band", [(-np.inf, np.inf), (0.3, 0.45), (1.0, 1.5), (1.9, 2.1)],
                         ids=["everywhere", "left-of-b", "right-of-b", "at-c"])
def test_nan_objective_matches_scipy(band):
    # NaN on an open band of x: the first at b itself, the middle two read inside Brent's
    # iteration, the last around c, which is never read
    def f(x):
        return np.nan if band[0] < x < band[1] else (x - 0.5) ** 2

    _assert_brent_matches_scipy(f, (0.0, 0.6, 2.0), 1e-10)


def test_locate_refines_a_tied_grid_minimum_by_brent(monkeypatch):
    # |R_left| - 0.05, floored at 0, is a flat zero around pt-stack4's reflection zero: the
    # grid minimum's right neighbour ties, and Brent from the grid minimum gives k* exactly
    # as scipy's Brent core does
    def flattened(m11, m12, m21, m22):
        return np.maximum(transfer.modulus(-m21 / m22) - 0.05, 0.0)

    monkeypatch.setitem(scan._OBJECTIVES, REFLECTIONLESS_LEFT, flattened)
    brent, runs = scan.brent, []

    def recording(xa, xb, xc, xtol):
        runs.append((xa, xb, xc))
        return brent(xa, xb, xc, xtol)

    monkeypatch.setattr(scan, "brent", recording)
    p, tol = pt_stack4(), 1e-10

    def objective(k):
        return transfer.abs2(scan._residual(REFLECTIONLESS_LEFT, compute_transfer(p, k)))

    res = scan._locate(p, 2.0, 2.5, 0.01, (REFLECTIONLESS_LEFT,), tol, "auto", 1e-9)
    assert len(runs) == 1 and len(res.features) == 1
    a, b, c = runs[0]
    assert objective(b) == objective(c) == 0.0
    f = res.features[0]
    assert f.bracket == (a, c) and f.residual == 0.0
    assert f.k_star == _scipy_brent(objective, runs[0], tol).xmin


# perfbench's 13-point sampled PT bump: reflection zeros near k = 3.4 and 3.9
SAMPLED_BUMP = SampledPotential(
    tuple(np.linspace(-3.0, 3.0, 13).tolist()),
    tuple(complex(np.exp(-x * x), 0.3 * x * np.exp(-x * x)) for x in np.linspace(-3.0, 3.0, 13)))


def _grid_brackets(p, ks, backend):
    """(kind, grid bracket) at each grid minimum of the three refined kinds, as in _locate."""
    mats = scan._grid_matrices(p, ks, backend, transfer.DEFAULT_ODE_TOL)
    return [(kind, tuple(ks[i - 1:i + 2].tolist()))
            for kind in (SPECTRAL_SINGULARITY, REFLECTIONLESS_LEFT, REFLECTIONLESS_RIGHT)
            for i in scan._local_minima(scan._grid_objective(mats, kind)).tolist()]


def _assert_lockstep_refines_as_alone(p, brackets, backend, xtol):
    # outside shared_work() every minimize_scalar call solves its own k
    ode_tol = transfer.DEFAULT_ODE_TOL
    together = scan.minimize_scalar(p, brackets, backend, ode_tol, xtol, ())
    alone = [scan.minimize_scalar(p, [b], backend, ode_tol, xtol, ()) for b in brackets]
    assert all(map(_same, together.x, [r.x[0] for r in alone]))
    assert together.nfev == sum(r.nfev for r in alone)


@given(st.integers(20, 400), st.sampled_from([1e-12, 1e-10, 1e-6, 1e-2]))
@settings(max_examples=20, deadline=None)
def test_lockstep_refinement_is_each_bracket_refined_alone_on_the_stack(n, xtol):
    p = pt_stack4()
    brackets = _grid_brackets(p, np.linspace(0.3, 5.0, n), "stack")
    assert len(brackets) > 1
    _assert_lockstep_refines_as_alone(p, brackets, "stack", xtol)


def test_lockstep_refinement_is_each_bracket_refined_alone_on_the_ode():
    brackets = _grid_brackets(SAMPLED_BUMP, np.linspace(3.0, 4.2, 13), "ode")
    assert len(brackets) == 3
    _assert_lockstep_refines_as_alone(SAMPLED_BUMP, brackets, "ode", 1e-10)
