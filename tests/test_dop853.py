import math

import numpy as np
import pytest
from scipy.integrate._ivp import dop853_coefficients as scipy_tableau

from ptscatter import dop853


def test_tableau_is_scipys_bit_for_bit():
    same = lambda ours, theirs: np.array_equal(
        np.asarray(ours, dtype=float).view(np.int64), np.asarray(theirs).view(np.int64))
    n = scipy_tableau.N_STAGES
    assert same(dop853.C, scipy_tableau.C[:n])
    assert all(same(dop853.A[s], scipy_tableau.A[s, :s]) for s in range(1, n))
    assert not scipy_tableau.A[1:n, :n][np.triu_indices(n - 1, 1)].any()
    assert same(dop853.B, scipy_tableau.B)
    for ours, theirs in ((dop853.E3, scipy_tableau.E3), (dop853.E5, scipy_tableau.E5)):
        assert same(ours, theirs[:n]) and theirs[n] == 0


def _plane_waves(ks):
    """psi'' = -k^2 psi for every k of ks: its constant coefficient, and plane-wave data at x = 0."""
    row = -(ks * ks)[None].astype(complex)
    return (lambda xs: row), np.concatenate((np.ones(ks.size), 1j * ks, np.ones(ks.size), -1j * ks))


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
def test_end_state_meets_tol_and_counts_every_call(tol):
    k, calls = 2.0, []
    coef, y0 = _plane_waves(np.array([k]))

    def counted(xs):
        calls.append(xs.tolist())
        return coef(xs)

    sol = dop853.solve_ivp(counted, (0.0, 3.0), y0, tol=tol)
    exact = np.array([np.exp(3j * k), 1j * k * np.exp(3j * k),
                      np.exp(-3j * k), -1j * k * np.exp(-3j * k)])
    assert sol.success and sol.message is None
    # the initial-step rule's two single nodes, then 11 stages and the end per attempt; a
    # step was accepted inside the piece where the next attempt ends further on
    first, attempts = calls[:2], calls[2:]
    assert [len(xs) for xs in first] == [1, 1] and {len(xs) for xs in attempts} == {12}
    ends = [xs[-1] for xs in attempts]
    accepted = sum(b > a for a, b in zip(ends, ends[1:]))
    assert sol.nfev == 2 + 11 * len(attempts) + accepted
    assert max(max(xs) for xs in calls) <= 3.0 and ends[-1] == 3.0
    assert np.max(np.abs(sol.y - exact)) <= 100 * tol * np.max(np.abs(exact))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_derivative_of_one_k_ends_in_failure_not_a_state(bad):
    # the middle k's error is NaN: a max that skips NaN would accept the step
    coef, y0 = _plane_waves(np.array([0.5, 1.0, 1.5]))

    def poisoned(xs):
        g = np.repeat(coef(xs), xs.size, axis=0)
        g[xs > 0.5, 1] = bad
        return g

    sol = dop853.solve_ivp(poisoned, (0.0, 1.0), y0, tol=1e-10)
    assert not sol.success and sol.message == dop853.TOO_SMALL_STEP


def test_nonfinite_first_derivative_fails_at_once():
    coef, y0 = _plane_waves(np.array([1.0]))
    sol = dop853.solve_ivp(lambda xs: coef(xs) * math.nan, (0.0, 1.0), y0, tol=1e-10)
    assert not sol.success and sol.message == dop853.TOO_SMALL_STEP
    assert sol.nfev == 2  # the initial-step rule's two calls, no step tried


def test_a_fast_k_takes_its_own_steps_beside_99_slow_ones():
    # the norm is a max over k: an RMS over all 100 would dilute the fast k's
    # error tenfold and let it take about 25% fewer rhs calls than alone
    ks, tol = np.array([0.5] * 99 + [20.0]), 1e-10
    (coef, y0), (coef1, y1) = _plane_waves(ks), _plane_waves(ks[-1:])
    batch = dop853.solve_ivp(coef, (0.0, 2.0), y0, tol=tol)
    alone = dop853.solve_ivp(coef1, (0.0, 2.0), y1, tol=tol)
    assert batch.success and alone.success
    assert abs(batch.nfev - alone.nfev) <= 2 * 12  # the first steps may differ
    fast = batch.y.reshape(4, -1)[:, -1]
    assert np.max(np.abs(fast - alone.y)) <= 10 * tol * np.max(np.abs(alone.y))
