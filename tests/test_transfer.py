import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from ptscatter import transfer
from ptscatter import (
    AnalyticPotential,
    BackendError,
    ConvergenceError,
    LayerPotential,
    SampledPotential,
    TransferMatrix,
    compute_transfer,
    negative_k_matrix,
    scattering_data,
    stack_matrices,
    transfer_matrix_ode,
)
from ptscatter.catalog import barrier, double_barrier, free, onesided, pt_bilayer, pt_stack4, scarf2
from ptscatter.transfer import resolve_backend, transfer_matrices

from oracles import matrix_from_amplitudes, scarf2_transmission_oracle, stack_matrix_oracle

# frozen from the face-matching composition oracle: PT bilayer gamma=0.5, a=1, k=1
BILAYER_K1 = np.array([
    [0.9372437464324519 - 0.006140962707705954j, 0.2869824573723178j],
    [0.4234978314113765j, 0.9372437464324522 + 0.006140962707706016j],
])


def test_empty_stack_is_identity():
    m = compute_transfer(free(), 0.9, "stack")
    np.testing.assert_allclose(m.as_array(), np.eye(2), atol=0)


def test_stack_requires_layers():
    with pytest.raises(BackendError):
        compute_transfer(scarf2(), 1.0, "stack")


def test_stack_rejects_zero_k():
    with pytest.raises(ValueError, match="k = 0"):
        compute_transfer(barrier(), 0.0, "stack")


def test_bilayer_matrix_structure_and_values():
    m = compute_transfer(pt_bilayer(gamma=0.5, a=1.0), 1.0, "stack")
    np.testing.assert_allclose(m.as_array(), BILAYER_K1, atol=1e-13)
    live = stack_matrix_oracle([0.5j, -0.5j], [1.0, 1.0], -1.0, 1.0)
    np.testing.assert_allclose(m.as_array(), live, atol=1e-13)
    # PT structure: M11^* = M22 and purely imaginary off-diagonal entries
    assert abs(m.m11.conjugate() - m.m22) <= 1e-14
    assert abs(m.m12.real) <= 1e-14
    assert abs(m.m21.real) <= 1e-14


@pytest.mark.parametrize("pot", [barrier(), double_barrier(), pt_bilayer(), pt_stack4(), onesided()])
def test_stack_matches_composition_oracle(pot):
    for k in (0.7, 1.3, 2.6):
        got = compute_transfer(pot, k, "stack").as_array()
        want = stack_matrix_oracle(pot.values, pot.widths, pot.x_left, k)
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert abs(np.linalg.det(got) - 1.0) <= 1e-12


def test_stack_semigroup_property():
    p1 = pt_bilayer(gamma=0.7, a=1.0)
    # same profile cut into four half-width slabs
    p2 = type(p1)((0.7j, 0.7j, -0.7j, -0.7j), (0.5, 0.5, 0.5, 0.5), -1.0)
    for k in (0.5, 1.9):
        a = compute_transfer(p1, k, "stack").as_array()
        b = compute_transfer(p2, k, "stack").as_array()
        np.testing.assert_allclose(a, b, atol=1e-13)


def test_stack_matrices_vectorized_agrees_with_scalar():
    """Every row of a batched call is bit for bit that k's single-k call.

    scan._locate takes its grid rows as refinement rows on that ground. The
    64-layer k counts sit on both sides of the kernel's layer-block bounds;
    each stack's first layer is real, and k = sqrt(v) there makes kappa = 0,
    the |z| < 1e-6 branch; the opaque stack's product overflows to inf and NaN.
    """
    rng = np.random.default_rng(79)
    sizes = [(64, n) for n in (1, 63, 64, 65, 4097)]
    sizes += [(int(rng.integers(1, 65)), int(rng.integers(2, 200))) for _ in range(6)]
    stacks = []
    for n_layers, n in sizes:
        values = rng.normal(scale=3.0, size=n_layers) + 1j * rng.normal(size=n_layers)
        values[0] = abs(values[0].real) + 0.5
        ks = np.sort(rng.uniform(0.2, 5.0, size=n))
        ks[n // 2] = np.sqrt(values[0].real)
        stacks.append((values, rng.uniform(0.05, 0.5, size=n_layers), ks))
    stacks.append(((1.0 + 0.5j, 10000.0, -2.0), (0.5, 10.0, 0.3), np.linspace(0.3, 3.0, 60)))
    nonfinite_rows = 0
    for values, widths, ks in stacks:
        p = LayerPotential(tuple(values), tuple(widths), -1.0)
        mats = stack_matrices(p, ks)
        nonfinite_rows += int(np.sum(~np.all(np.isfinite(mats), axis=(1, 2))))
        for i in sorted({*range(0, ks.size, 97), ks.size // 2, ks.size - 1}):
            single = stack_matrices(p, ks[i:i + 1])
            assert single.tobytes() == mats[i:i + 1].tobytes(), (len(values), ks.size, i)
    assert nonfinite_rows >= 60


def test_ode_zero_potential_identity():
    m = transfer_matrix_ode(free(), 1.3, 1e-10)
    np.testing.assert_allclose(m.as_array(), np.eye(2), atol=1e-10)


def test_ode_matches_stack_on_real_barrier():
    tol = 1e-9
    ms = compute_transfer(barrier(), 1.3, "stack").as_array()
    mo = transfer_matrix_ode(barrier(), 1.3, tol).as_array()
    assert np.max(np.abs(ms - mo)) <= 10 * tol


@pytest.mark.parametrize("pot", [double_barrier(), pt_bilayer(), pt_stack4(), onesided()])
def test_ode_matches_stack_layer_corpus(pot):
    tol = 1e-10
    for k in (0.6, 1.7):
        ms = compute_transfer(pot, k, "stack").as_array()
        mo = transfer_matrix_ode(pot, k, tol).as_array()
        scale = np.max(np.abs(ms))
        assert np.max(np.abs(ms - mo)) / scale <= 1e-7


def test_ode_sampled_bilayer_within_interpolation_bound():
    gamma, k = 0.5, 1.0
    errs = {}
    for h in (2e-3, 1e-3):
        xs = np.arange(-1.0, 1.0 + h / 2, h)
        vals = np.where(xs < 0, 1j * gamma, -1j * gamma)
        p = SampledPotential(tuple(xs), tuple(vals))
        mo = transfer_matrix_ode(p, k, 1e-10).as_array()
        ms = compute_transfer(pt_bilayer(gamma=gamma), k, "stack").as_array()
        errs[h] = np.max(np.abs(mo - ms))
        # linear interpolation smears the jumps over one cell: error ~ gamma*h
        assert errs[h] <= 1.0 * h, f"h={h}: {errs[h]}"
    assert 0.3 <= errs[1e-3] / errs[2e-3] <= 0.7  # first-order convergence


def _piecewise_linear_reference(xs, vs, k, rtol=1e-13, atol=1e-15):
    """M(k) of a sampled profile with one scipy DOP853 solve per linear piece."""
    el = np.exp(1j * k * xs[0])
    y = np.array([el, 1j * k * el, 1 / el, -1j * k / el])
    for x0, x1, v0, v1 in zip(xs[:-1], xs[1:], vs[:-1], vs[1:]):
        slope = (v1 - v0) / (x1 - x0)

        def rhs(x, y):
            g = v0 + slope * (x - x0) - k * k
            return np.array([y[1], g * y[0], y[3], g * y[2]])

        y = scipy_solve_ivp(rhs, (x0, x1), y, method="DOP853", rtol=rtol, atol=atol).y[:, -1]
    er, ik = np.exp(1j * k * xs[-1]), 1j * k
    return np.array([
        [(y[0] / 2 + y[1] / (2 * ik)) / er, (y[2] / 2 + y[3] / (2 * ik)) / er],
        [(y[0] / 2 - y[1] / (2 * ik)) * er, (y[2] / 2 - y[3] / (2 * ik)) * er],
    ])


def test_ode_sampled_bump_matches_piecewise_reference():
    # 13-point PT bump: stepping across the kinks at the sample abscissae
    # erred by 3.9e-8 here; restarting at each abscissa errs by 3.4e-11
    xs = np.linspace(-2.5, 2.5, 13)
    env = np.exp(-xs**2)
    vs = env + 0.4j * (xs / 2.5) * env
    k = 0.5
    m = transfer_matrix_ode(SampledPotential(tuple(xs), tuple(vs)), k, 1e-10).as_array()
    assert np.max(np.abs(m - _piecewise_linear_reference(xs, vs, k))) <= 1e-9


_PT_XS, _PARABOLA_XS = np.linspace(-2.5, 2.5, 13), np.linspace(-1.0, 1.0, 9)


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("k", [0.5, 4.0])
@pytest.mark.parametrize("xs,vs", [
    (_PT_XS, np.exp(-_PT_XS ** 2) * (1 + 0.4j * _PT_XS / 2.5)),
    (_PARABOLA_XS, 3 * (1 - _PARABOLA_XS ** 2) + 1j * _PARABOLA_XS),
], ids=["pt-bump", "parabola"])
def test_single_k_ode_matches_scipy_dop853_at_the_same_tol(xs, vs, k, tol):
    # one k: the per-k error norm is scipy's, so the steps are scipy's and the
    # rows differ by rounding, far below tol
    m = transfer_matrix_ode(SampledPotential(tuple(xs), tuple(vs)), k, tol).as_array()
    ref = _piecewise_linear_reference(xs, vs, k, rtol=tol, atol=tol)
    assert np.max(np.abs(m - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_ode_restarts_only_at_slope_changes(monkeypatch):
    # a sampled step is constant on each side of one jump cell: three pieces,
    # not one per sample interval; a tent adds one restart at its apex
    calls = []
    solve_ivp = transfer.solve_ivp

    def counting_solve_ivp(fun, t_span, *args, **kwargs):
        calls.append(t_span)
        return solve_ivp(fun, t_span, *args, **kwargs)

    monkeypatch.setattr(transfer, "solve_ivp", counting_solve_ivp)
    xs = np.linspace(-1.0, 1.0, 41)
    step = SampledPotential(tuple(xs), tuple(np.where(xs < 0, 0.5j, -0.5j)))
    transfer_matrix_ode(step, 1.0, 1e-10)
    assert calls == [(-1.0, xs[19]), (xs[19], 0.0), (0.0, 1.0)]
    calls.clear()
    tent = SampledPotential((-1.0, -0.5, 0.0, 0.5, 1.0), (0.0, 0.5, 1.0, 0.5, 0.0))
    transfer_matrix_ode(tent, 1.0, 1e-10)
    assert calls == [(-1.0, 0.0), (0.0, 1.0)]


# a PT stack whose inner pieces end on value jumps
PT4_EDGES = LayerPotential((0.3 + 0.1j, -0.3, -0.3, 0.3 - 0.1j), (1.5,) * 4, -3.0)


def test_ode_layer_pieces_read_only_their_own_layer(monkeypatch):
    # reading v at a piece's right edge gave the next layer's value to the last
    # stage of every step there, and 2564 rhs calls with many rejected steps
    k, tol = -1.7, 1e-12
    edges = PT4_EDGES.edges.tolist()
    calls, nfev = [], []
    solve_ivp = transfer.solve_ivp

    def checking_solve_ivp(coef, t_span, y0, **kwargs):
        g_own = PT4_EDGES.values[edges.index(t_span[0])] - k * k

        def checked(xs):
            g = coef(xs)
            calls.append((xs.size, np.allclose(g, g_own, rtol=1e-14, atol=0)))
            return g

        sol = solve_ivp(checked, t_span, y0, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(transfer, "solve_ivp", checking_solve_ivp)
    m = transfer_matrix_ode(PT4_EDGES, k, tol)
    # per piece 2 single nodes, then one call per attempt: 11 derivatives each, and one
    # more for each accepted step that ends inside the piece
    attempts = sum(size == 12 for size, _ in calls)
    assert len(nfev) == 4 and len(calls) == 2 * 4 + attempts and all(ok for _, ok in calls)
    assert 2 * 4 + 11 * attempts < sum(nfev) < 2 * 4 + 12 * attempts
    assert sum(nfev) < 2564 // 2
    ms = compute_transfer(PT4_EDGES, k, "stack").as_array()
    assert np.max(np.abs(m.as_array() - ms)) <= 100 * tol * np.max(np.abs(ms))


def _array_coef(p, ks, t_span):
    """Reference coefficient v - k^2: v read through evaluate's array branch from one 0-d
    array per node (once, at its middle, on a layer piece).
    """
    k2, (a, b) = ks * ks, t_span
    if isinstance(p, LayerPotential):
        row = np.array([p.evaluate(np.asarray((a + b) / 2)) - k2])
        return lambda xs: row
    return lambda xs: np.array([p.evaluate(np.asarray(x)) - k2 for x in xs])


_BUMP_XS = np.linspace(-3.0, 3.0, 13)
_BUMP = SampledPotential(tuple(_BUMP_XS), tuple(
    np.exp(-_BUMP_XS ** 2) + 0.3j * _BUMP_XS * np.exp(-_BUMP_XS ** 2)))


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("p", [
    PT4_EDGES, _BUMP, scarf2(1.0, 7.75, 1.0),
    AnalyticPotential("gaussian", {"height": 1.3, "width": 0.7}),
], ids=["layers", "sampled-bump", "scarf2", "gaussian"])
def test_ode_rhs_is_bit_identical_to_the_array_reference(monkeypatch, p, n):
    ks = np.linspace(0.4, 2.9, n)
    solve_ivp = transfer.solve_ivp

    def with_reference_coef(coef, t_span, y0, **kwargs):
        return solve_ivp(_array_coef(p, ks, t_span), t_span, y0, **kwargs)

    monkeypatch.setattr(transfer, "solve_ivp", with_reference_coef)
    expected = transfer._integrate(p, ks, 1e-10)
    monkeypatch.undo()
    got = transfer._integrate(p, ks, 1e-10)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))  # signed zeros too


@pytest.mark.parametrize("p", [_BUMP, scarf2()], ids=["sampled-bump", "scarf2"])
def test_ode_evaluates_the_profile_once_per_step_attempt(monkeypatch, p):
    # v at all 12 nodes of a step attempt in one call, plus the initial-step rule's two
    # points per piece; a read per stage made about 12 calls per step
    evaluations, pieces = [], []
    evaluate, solve_ivp = type(p).evaluate, transfer.solve_ivp

    def counting_evaluate(self, x):
        evaluations.append(np.size(x))
        return evaluate(self, x)

    def counting_solve_ivp(coef, t_span, y0, **kwargs):
        before = len(evaluations)
        sol = solve_ivp(coef, t_span, y0, **kwargs)
        attempts = (sol.nfev - 2) // 11  # or more: an attempt adds 11 to nfev, and 1 if accepted
        pieces.append((len(evaluations) - before, attempts))
        return sol

    monkeypatch.setattr(type(p), "evaluate", counting_evaluate)
    monkeypatch.setattr(transfer, "solve_ivp", counting_solve_ivp)
    transfer_matrices(p, np.linspace(0.3, 3.0, 4), "ode", 1e-10)
    assert pieces and all(calls <= attempts + 2 for calls, attempts in pieces)
    assert sum(evaluations) >= 12 * sum(calls - 2 for calls, _ in pieces)


@pytest.mark.parametrize("params", [(1.0, 0.5, 1.0), (2.0, 1.5, 1.3)])
def test_batched_ode_matches_scarf2_closed_form(params):
    tol = 1e-10
    ks = np.linspace(0.3, 3.0, 28)
    rows = transfer_matrices(scarf2(*params), ks, "ode", tol)
    worst = max(abs(scattering_data(m).T - scarf2_transmission_oracle(k, *params))
                for k, m in zip(ks, rows))
    assert worst <= 100 * tol


def test_scarf2_oracle_t_of_minus_k_is_conjugate():
    # (1, 2, 1): b is imaginary, so A and beta are complex
    for params in ((1.0, 0.5, 1.0), (2.0, 1.5, 1.3), (1.0, 2.0, 1.0)):
        for k in (0.3, 0.8, 1.5, 2.4, 3.0):
            t = scarf2_transmission_oracle(k, *params)
            assert abs(scarf2_transmission_oracle(-k, *params) - t.conjugate()) <= 1e-14 * abs(t)


def test_ode_k_array_is_one_system_held_to_tol_per_k(monkeypatch):
    # the error norm is each k's own, so 50 k at 1e-13 share one system (an RMS
    # over all of them needed tol / sqrt(50), below the 100 eps floor) and each
    # row is its single-k solve's to within about tol
    tol, ks = 1e-13, np.linspace(0.3, 3.0, 50)
    sizes, tols = [], set()
    solve_ivp = transfer.solve_ivp

    def recording(fun, t_span, y0, **kwargs):
        if t_span[0] == -1.0:  # a system's first piece
            sizes.append(y0.size // 4)
        tols.add(kwargs["tol"])
        return solve_ivp(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(transfer, "solve_ivp", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = list(transfer_matrices(pt_stack4(), ks, "ode", tol))
    monkeypatch.undo()
    assert sizes == [ks.size] and tols == {tol}
    assert [m.k for m in rows] == ks.tolist()
    for m in rows:
        alone = transfer_matrix_ode(pt_stack4(), m.k, tol).as_array()
        assert np.max(np.abs(m.as_array() - alone)) <= 10 * tol * np.max(np.abs(alone))


def test_ode_tol_below_100_eps_raises_rtol_to_the_floor_with_a_warning():
    # atol stays ode_tol; rtol cannot go below 100 eps, as in scipy's solve_ivp
    ks = np.linspace(0.3, 3.0, 7)
    with pytest.warns(UserWarning, match="rtol is raised to"):
        rows = list(transfer_matrices(pt_stack4(), ks, "ode", 1e-15))
    exact = stack_matrices(pt_stack4(), ks)
    for m, ms in zip(rows, exact):
        assert np.max(np.abs(m.as_array() - ms)) <= 1e-12 * np.max(np.abs(ms))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_rhs_fails_the_solve_of_its_k_only(monkeypatch, bad):
    # a NaN or inf error estimate rejects the step, down to the smallest step:
    # the k whose derivative is poisoned gets a ConvergenceError, never a row
    ks = [0.5, 1.1, 1.7]
    solve_ivp = transfer.solve_ivp

    def poisoned(coef, t_span, y0, **kwargs):
        if t_span[0] != -1.0:
            return solve_ivp(coef, t_span, y0, **kwargs)
        n = y0.size // 4  # first piece: plane-wave data, psi'/psi = ik
        hit = np.isclose((y0[n:2 * n] / y0[:n]).imag, 1.1)

        def poisoned_coef(xs):
            g = np.broadcast_to(coef(xs), (xs.size, n)).copy()
            g[np.ix_(xs > -0.8, hit)] = bad
            return g

        return solve_ivp(poisoned_coef, t_span, y0, **kwargs)

    monkeypatch.setattr(transfer, "solve_ivp", poisoned)
    rows = transfer_matrices(pt_stack4(), ks, "ode", 1e-10)
    assert np.isfinite(next(rows).as_array()).all()
    with pytest.raises(ConvergenceError, match="less than spacing"):
        next(rows)
    assert np.isfinite(next(rows).as_array()).all()


def test_ode_scarf2_unit_determinant():
    m = transfer_matrix_ode(scarf2(), 1.3, 1e-11)
    assert abs(m.det - 1.0) <= 1e-9


def test_ode_rejects_bad_args():
    with pytest.raises(ValueError):
        transfer_matrix_ode(barrier(), 0.0)
    with pytest.raises(ValueError):
        transfer_matrix_ode(barrier(), 1.0, ode_tol=-1.0)


def test_scattering_identity_matrix():
    s = scattering_data(TransferMatrix(1, 0, 0, 1, 1.0))
    assert s.T == 1 and s.R_left == 0 and s.R_right == 0 and s.D == 1
    assert s.finite


def test_scattering_dictionary_example():
    s = scattering_data(TransferMatrix(1.0, 1.0, -1.0, 2.0, 1.0))
    assert s.T == pytest.approx(0.5)
    assert s.R_left == pytest.approx(0.5)
    assert s.R_right == pytest.approx(0.5)
    assert s.D == pytest.approx(0.0)


def test_scattering_near_singularity_flags_nonfinite():
    s = scattering_data(TransferMatrix(1.0, 1.0, 1.0, 1e-13, 1.0))
    assert not s.finite
    assert s.condition == pytest.approx(1e-13)
    assert np.isnan(s.T.real)


def test_scattering_overflow_flags_nonfinite():
    # kappa w ~ 1000: the slab's cos and sin overflow and M comes back NaN
    s = scattering_data(compute_transfer(LayerPotential((10000.0,), (10.0,), -5.0), 1.0))
    assert np.isnan(s.T.real)
    assert not s.finite
    # M22 alone overflowed: T, R_left, R_right and D come out finite (T = 0), M did not
    s = scattering_data(TransferMatrix(0, 0, 0, math.inf, 1.0))
    assert s.condition == math.inf
    assert not s.finite


def test_bilayer_pseudo_unitarity_from_stack():
    s = scattering_data(compute_transfer(pt_bilayer(gamma=0.5), 1.0, "stack"))
    t2 = abs(s.T) ** 2
    prod = abs(s.R_left * s.R_right)
    assert min(abs(t2 + prod - 1.0), abs(t2 - prod - 1.0)) <= 1e-12


def test_matrix_reconstruction_roundtrip():
    for pot in (barrier(), pt_bilayer(), onesided()):
        m = compute_transfer(pot, 1.15, "stack")
        s = scattering_data(m)
        back = matrix_from_amplitudes(s.T, s.R_left, s.R_right, s.k)
        np.testing.assert_allclose(back.as_array(), m.as_array(), atol=1e-13)


def test_negative_k_matrix_swaps_entries():
    m = TransferMatrix(1 + 1j, 2.0, 3.0, 4 - 1j, 0.8)
    n = negative_k_matrix(m)
    assert (n.m11, n.m12, n.m21, n.m22) == (m.m22, m.m21, m.m12, m.m11)
    assert n.k == -0.8
    i = TransferMatrix(1, 0, 0, 1, 0.8)
    assert negative_k_matrix(i).as_array().tolist() == np.eye(2).tolist()


@pytest.mark.parametrize("pot", [barrier(), double_barrier(), pt_bilayer(), onesided()])
def test_negk_swap_equals_direct_evaluation(pot):
    for k in (0.45, 1.8):
        direct = compute_transfer(pot, -k, "stack").as_array()
        swapped = negative_k_matrix(compute_transfer(pot, k, "stack")).as_array()
        np.testing.assert_allclose(swapped, direct, atol=1e-13)


def test_negk_swap_against_ode_backend():
    pot = pt_bilayer()
    k = 1.1
    swapped = negative_k_matrix(compute_transfer(pot, k, "stack")).as_array()
    direct = transfer_matrix_ode(pot, -k, 1e-10).as_array()
    assert np.max(np.abs(swapped - direct)) <= 1e-7


def test_compute_transfer_dispatch():
    assert compute_transfer(barrier(), 1.0).backend == "stack"
    assert compute_transfer(scarf2(), 1.0, ode_tol=1e-8).backend == "ode"
    assert compute_transfer(barrier(), 1.0, backend="ode", ode_tol=1e-8).backend == "ode"
    with pytest.raises(ValueError, match="unknown backend"):
        compute_transfer(barrier(), 1.0, backend="nope")
    assert resolve_backend(free(), "auto") == "stack"
    assert resolve_backend(scarf2(), "auto") == "ode"
    assert resolve_backend(scarf2(), "stack") == "stack"
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend(barrier(), "both")
