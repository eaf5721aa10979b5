"""k-interval sweeps and feature location: singularities, reflectionless and invisible points.

A feature is a real wavenumber where the modulus that _OBJECTIVES assigns to
its kind touches zero. Grid local minima of the squared modulus are refined by
Brent's method, which starts from the grid minimum and stays inside its grid
neighbours, and a zero is accepted only when the refined modulus is at or
below an acceptance floor, so shallow dips are never promoted to features.
The refinements (scipy's Brent, ported as a generator) run in lockstep: each
round solves the next k of every unfinished one together, so scipy is not
needed at run time.
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace

import numpy as np

from .potentials import Potential
from .transfer import (
    DEFAULT_ODE_TOL,
    STACK,
    ConvergenceError,
    ScatteringData,
    TransferMatrix,
    _rows,
    abs2,
    compute_transfer,
    modulus,
    resolve_backend,
    scattering_data,
    stack_matrices,
    transfer_matrices,
)

SPECTRAL_SINGULARITY = "spectral_singularity"
REFLECTIONLESS_LEFT = "reflectionless_left"
REFLECTIONLESS_RIGHT = "reflectionless_right"
BIDIRECTIONAL_REFLECTIONLESS = "bidirectional_reflectionless"
INVISIBLE_LEFT = "invisible_left"
INVISIBLE_RIGHT = "invisible_right"

ACCEPTANCE_FLOOR = 1e-8       # refined |M22| or |R| at an accepted feature
INVISIBILITY_TOL = 1e-6       # |T - 1| for the invisibility upgrade
DEFAULT_REFINE_TOL = 1e-10


@dataclass(frozen=True)
class Feature:
    kind: str
    k_star: float
    residual: float
    bracket: tuple[float, float]
    boundary_warning: bool = False
    note: str = ""


@dataclass(frozen=True)
class ScanResult:
    features: tuple[Feature, ...]
    k_min: float
    k_max: float
    grid_step: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[ScatteringData, ...]
    errors: tuple[tuple[float, str], ...] = field(default=())


def sweep(p: Potential, k_grid, backend: str = "auto",
          ode_tol: float = DEFAULT_ODE_TOL) -> SweepResult:
    """One ScatteringData per grid point; a k whose ODE solve failed gets an error row."""
    ks = np.asarray(k_grid, dtype=float)
    if ks.ndim != 1 or ks.size == 0:
        raise ValueError("k grid must be a nonempty 1D array")
    if not np.all(np.isfinite(ks)):
        raise ValueError("k grid must be finite")
    if np.any(ks <= 0):
        raise ValueError("k grid must be strictly positive")
    if np.any(np.diff(ks) <= 0):
        raise ValueError("k grid must be strictly increasing")
    backend = resolve_backend(p, backend)
    matrices = transfer_matrices(p, ks, backend, ode_tol)
    rows, errors = [], []
    for k in ks.tolist():
        try:
            rows.append(scattering_data(next(matrices)))
        except ConvergenceError as exc:
            errors.append((k, str(exc)))
            nan = complex(float("nan"), float("nan"))
            rows.append(ScatteringData(k, nan, nan, nan, nan, False, 0.0, backend))
    return SweepResult(tuple(rows), tuple(errors))


# per feature kind, the modulus that vanishes there, from M's entries (for the refined
# kinds also the grid's numpy columns): squared, the grid's and Brent's objective; at k*,
# the feature's residual and the ODE value that `scan --backend both` reports
_OBJECTIVES = {
    SPECTRAL_SINGULARITY: lambda m11, m12, m21, m22: modulus(m22),
    REFLECTIONLESS_LEFT: lambda m11, m12, m21, m22: modulus(-m21 / m22),
    REFLECTIONLESS_RIGHT: lambda m11, m12, m21, m22: modulus(m12 / m22),
    BIDIRECTIONAL_REFLECTIONLESS: lambda *m: min(_OBJECTIVES[REFLECTIONLESS_LEFT](*m),
                                                 _OBJECTIVES[REFLECTIONLESS_RIGHT](*m)),
    INVISIBLE_LEFT: lambda *m: _OBJECTIVES[REFLECTIONLESS_LEFT](*m) + modulus(1.0 / m[3] - 1.0),
    INVISIBLE_RIGHT: lambda *m: _OBJECTIVES[REFLECTIONLESS_RIGHT](*m) + modulus(1.0 / m[3] - 1.0),
}

# a one-sided reflection zero: the opposite side, and its kind when T = 1 there too
_SIDES = {REFLECTIONLESS_LEFT: (REFLECTIONLESS_RIGHT, INVISIBLE_LEFT),
          REFLECTIONLESS_RIGHT: (REFLECTIONLESS_LEFT, INVISIBLE_RIGHT)}


def _residual(kind: str, m: TransferMatrix) -> float:
    return _OBJECTIVES[kind](m.m11, m.m12, m.m21, m.m22)


_SHARED: ContextVar[dict | None] = ContextVar("ptscatter_scan_shared", default=None)


@contextmanager
def shared_work():
    """Scans inside the block share M on equal grids and at equal refine k.

    Both finders of one `scan` command build the same grid, and refinements of
    different kinds revisit the same k; each M is computed once. M depends only
    on (potential, backend, ODE tolerance, k), so the results are those of
    scans run apart. Outside the block every scan computes its own.
    """
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _memo(p, backend, tol) -> dict:
    """M by grid bytes (an (n, 2, 2) array) and by k (a TransferMatrix) for p, backend and tol.

    Kept for the enclosing shared_work(), with p held so that its id is not
    reused; a fresh dict outside one.
    """
    shared = _SHARED.get()
    if shared is None:
        return {}
    return shared.setdefault((id(p), resolve_backend(p, backend), tol), (p, {}))[1]


def _grid_matrices(p, ks, backend, tol) -> np.ndarray:
    """M on the grid as one (n, 2, 2) array: the stack kernel's, or the ODE rows stacked."""
    memo, key = _memo(p, backend, tol), ks.tobytes()
    if key not in memo:
        if resolve_backend(p, backend) == STACK:
            memo[key] = stack_matrices(p, ks)
        else:
            rows = [(m.m11, m.m12, m.m21, m.m22) for m in transfer_matrices(p, ks, backend, tol)]
            memo[key] = np.array(rows, dtype=complex).reshape(-1, 2, 2)
    return memo[key]


def _grid_objective(mats: np.ndarray, kind) -> np.ndarray:
    """Squared objective of kind at every grid k."""
    return _OBJECTIVES[kind](mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]) ** 2


def _local_minima(values: np.ndarray) -> np.ndarray:
    interior = (values[1:-1] < values[:-2]) & (values[1:-1] <= values[2:])
    return np.nonzero(interior)[0] + 1


# scipy's Brent constants: golden ratio, absolute tolerance floor, iteration cap
_CG = 0.3819660
_MINTOL = 1.0e-11
_MAXITER = 500


def brent(xa, xb, xc, xtol):
    """scipy's Brent.optimize core from the bracket (xa, xb, xc), as a generator.

    Yields each x to evaluate and is sent f(x); returns (x_min, nfev). Raises
    ValueError unless xa < xb < xc (ends in either order). f is read at xb and
    at each step, never at xa or xc, so nfev starts at 1 and a tied or NaN end
    is no reason to refuse. Stops with x within 2 * (xtol * |x| + 1e-11) of
    both ends of its interval.
    """
    if xa > xc:
        xc, xa = xa, xc
    if not ((xa < xb) and (xb < xc)):
        raise ValueError("bracket (xa, xb, xc) needs xa < xb < xc")
    fb = yield xb
    funcalls = 1
    x = w = v = xb
    fw = fv = fx = fb
    a, b = xa, xc
    deltax = 0.0
    iter = 0
    while (iter < _MAXITER):
        tol1 = xtol * np.abs(x) + _MINTOL
        tol2 = 2.0 * tol1
        xmid = 0.5 * (a + b)
        if np.abs(x - xmid) < (tol2 - 0.5 * (b - a)):
            break
        if (np.abs(deltax) <= tol1):
            if (x >= xmid):
                deltax = a - x  # golden section step
            else:
                deltax = b - x
            rat = _CG * deltax
        else:  # parabolic step
            tmp1 = (x - w) * (fx - fv)
            tmp2 = (x - v) * (fx - fw)
            p = (x - v) * tmp2 - (x - w) * tmp1
            tmp2 = 2.0 * (tmp2 - tmp1)
            if (tmp2 > 0.0):
                p = -p
            tmp2 = np.abs(tmp2)
            dx_temp = deltax
            deltax = rat
            if ((p > tmp2 * (a - x)) and (p < tmp2 * (b - x)) and
                    (np.abs(p) < np.abs(0.5 * tmp2 * dx_temp))):
                rat = p * 1.0 / tmp2
                u = x + rat
                if ((u - a) < tol2 or (b - u) < tol2):
                    if xmid - x >= 0:
                        rat = tol1
                    else:
                        rat = -tol1
            else:
                if (x >= xmid):
                    deltax = a - x
                else:
                    deltax = b - x
                rat = _CG * deltax
        if (np.abs(rat) < tol1):  # move by at least tol1
            if rat >= 0:
                u = x + tol1
            else:
                u = x - tol1
        else:
            u = x + rat
        fu = yield u
        funcalls += 1
        if (fu > fx):
            if (u < x):
                a = u
            else:
                b = u
            if (fu <= fw) or (w == x):
                v = w
                w = u
                fv = fw
                fw = fu
            elif (fu <= fv) or (v == x) or (v == w):
                v = u
                fv = fu
        else:
            if (u >= x):
                a = x
            else:
                b = x
            v = w
            w = x
            x = u
            fv = fw
            fw = fx
            fx = fu
        iter += 1
    return x, funcalls


@dataclass(frozen=True)
class Refinement:
    """Per bracket, k* and M(k*); nfev counts objective reads, at b and one per Brent step."""
    x: tuple[float, ...]
    m: tuple[TransferMatrix, ...]
    nfev: int


def _solve(p, seen: dict, ks, backend, ode_tol) -> None:
    """M into seen at each k of ks it lacks: one kernel call on the stack, one ODE system per k."""
    ks = [k for k in dict.fromkeys(ks) if k not in seen]
    if not ks:
        return
    if resolve_backend(p, backend) == STACK:
        seen.update(zip(ks, transfer_matrices(p, ks, STACK)))
    else:
        for k in ks:
            seen[k] = compute_transfer(p, float(k), backend, ode_tol)


def minimize_scalar(p, brackets, backend, ode_tol, xtol, known) -> Refinement:
    """k* minimizing kind's squared objective in each (kind, (a, b, c)) bracket, all in lockstep.

    Each bracket runs brent, which reads b and then one k per step, never a
    or c. The known TransferMatrix rows are taken as solved at their k. Every
    round advances each unfinished run to the next k that no earlier round
    solved, and solves those k together; the first round's k are the grid
    minima. The stack kernel gives every k in a batch bit for bit its
    single-k M, and the ODE solves each k alone, so every run takes the
    iterates it would take on its own. M is kept at every k solved (shared
    within shared_work()), so no k is solved twice. A failed ODE solve raises its ConvergenceError.
    """
    seen = _memo(p, backend, ode_tol)
    seen.update((m.k, m) for m in known)

    def f(i, k):
        return abs2(_residual(brackets[i][0], seen[k]))

    runs = [brent(*triple, xtol) for _, triple in brackets]
    xs, nfev = [None] * len(runs), 0
    owed = dict.fromkeys(range(len(runs)))  # what each unfinished run is sent next; None starts it
    while owed:
        wanted = {}
        for i, value in owed.items():
            try:
                k = runs[i].send(value)
                while k in seen:  # solved before: no need to wait for the round
                    k = runs[i].send(f(i, k))
                wanted[i] = k
            except StopIteration as stop:
                xs[i], n = stop.value
                nfev += n
        _solve(p, seen, wanted.values(), backend, ode_tol)
        owed = {i: f(i, k) for i, k in wanted.items()}
    return Refinement(tuple(map(float, xs)), tuple(seen[x] for x in xs), nfev)


def _classify(f: Feature, m: TransferMatrix, tol) -> Feature | None:
    """A one-sided reflection zero as found, bidirectional, or invisible; None if not finite."""
    s = scattering_data(m)
    if not s.finite:
        return None
    opposite, invisible = _SIDES[f.kind]
    note, tau = f"|T-1| = {modulus(s.T - 1.0):.3e}", f", tau = {np.angle(s.T):.6f}"
    if _residual(opposite, m) <= 10.0 * tol:
        return replace(f, kind=BIDIRECTIONAL_REFLECTIONLESS,
                       note=f"both reflections vanish; {note}{tau}")
    if check_invisibility(f, s):
        return replace(f, kind=invisible, note=note)
    return replace(f, note=note + tau)


def _locate(p, k_min, k_max, grid_step, kinds, tol, backend, ode_tol) -> ScanResult:
    """Features at each kind's grid minima whose refined objective reaches the acceptance floor.

    The minima of every kind are refined together, in one minimize_scalar call.
    """
    if not (0 < k_min < k_max < np.inf):
        raise ValueError("need finite 0 < k_min < k_max")
    if not 0 < grid_step < np.inf:
        raise ValueError("grid_step must be positive and finite")
    n = int(np.floor((k_max - k_min) / grid_step + 0.5)) + 1
    ks = k_min + grid_step * np.arange(n)
    ks = ks[ks <= k_max + 1e-12 * max(1.0, k_max)]
    mats = _grid_matrices(p, ks, backend, ode_tol)
    brackets, at = [], []  # at: the grid index of every bracket's minimum
    for kind in kinds:
        values = _grid_objective(mats, kind)
        if np.all(np.sqrt(values) < ACCEPTANCE_FLOOR):
            continue
        minima = _local_minima(values).tolist()
        brackets += [(kind, tuple(ks[i - 1:i + 2].tolist())) for i in minima]
        at += minima
    # stack grid rows are bit for bit single-k rows; an ODE grid row, from one batched
    # system, differs from a single-k solve in its last digits, so it is solved again
    known = _rows(ks[at], mats[at], STACK) if resolve_backend(p, backend) == STACK else ()
    refined = minimize_scalar(p, brackets, backend, ode_tol, tol, known)
    features = []
    for (kind, (a, _, c)), k_star, m in zip(brackets, refined.x, refined.m):
        if not _residual(kind, m) <= ACCEPTANCE_FLOOR:
            continue
        f = Feature(kind, k_star, 0.0, (a, c), boundary_warning=(
            k_star - k_min < grid_step or k_max - k_star < grid_step))
        if kind in _SIDES:
            f = _classify(f, m, tol)
        if f is not None:
            features.append(replace(f, residual=_residual(f.kind, m)))
    features.sort(key=lambda f: f.k_star)
    # bidirectional records found from both sides within max(10*tol, 1e-9) count as one
    kept = features[:1]
    for f in features[1:]:
        if not (f.kind == kept[-1].kind == BIDIRECTIONAL_REFLECTIONLESS
                and f.k_star - kept[-1].k_star <= max(10.0 * tol, 1e-9)):
            kept.append(f)
    return ScanResult(tuple(kept), k_min, k_max, grid_step)


def find_spectral_singularities(
    p: Potential, k_min: float, k_max: float, grid_step: float,
    tol: float = DEFAULT_REFINE_TOL, backend: str = "auto",
    ode_tol: float = DEFAULT_ODE_TOL,
) -> ScanResult:
    """Locate real-k zeros of M22 (poles of the amplitudes) on [k_min, k_max].

    Grid local minima of |M22|^2 are refined by Brent's method until k* is
    within 2 * (tol * k* + 1e-11) of the minimum (tol is relative, with a
    1e-11 absolute floor), and accepted only when the refined |M22| is at or
    below the acceptance floor. Real potentials cannot host such zeros, so
    scanning them is expected to return an empty feature list.
    """
    return _locate(p, k_min, k_max, grid_step, (SPECTRAL_SINGULARITY,), tol, backend, ode_tol)


def check_invisibility(feature: Feature, s: ScatteringData) -> bool:
    """True iff the reflectionless point is also perfectly transparent, T = 1.

    |T| = 1 alone is not enough: invisibility needs the transmission phase to
    vanish as well, so the test is |T(k*) - 1| <= INVISIBILITY_TOL on the
    full complex T.
    """
    if feature.kind not in _OBJECTIVES or feature.kind == SPECTRAL_SINGULARITY:
        raise ValueError(f"not a reflectionless feature: {feature.kind}")
    return bool(s.finite and abs(s.T - 1.0) <= INVISIBILITY_TOL)


def find_unidirectional_points(
    p: Potential, k_min: float, k_max: float, grid_step: float,
    tol: float = DEFAULT_REFINE_TOL, backend: str = "auto",
    ode_tol: float = DEFAULT_ODE_TOL,
) -> ScanResult:
    """Locate zeros of |R_left| and |R_right| and classify them.

    Grid local minima of |R_left|^2 and |R_right|^2 are refined and accepted
    as in find_spectral_singularities.
    A zero of one reflection is unidirectional when the opposite reflection
    modulus exceeds 10*tol at the located k, bidirectional otherwise.
    Unidirectional features are upgraded to invisible_{left,right} when
    additionally |T - 1| <= INVISIBILITY_TOL. A potential that is
    reflectionless on the entire grid (the free potential) has no isolated
    zeros and reports no features.
    """
    return _locate(p, k_min, k_max, grid_step, tuple(_SIDES), tol, backend, ode_tol)
