"""k-interval sweeps and feature location: singularities, reflectionless points.

Features of interest are real wavenumbers where a modulus touches zero:
|M22| for spectral singularities (poles of T and R), |R_left| / |R_right| for
one-sided reflectionlessness. All location is done on the squared modulus by
bracketed derivative-free minimization of grid local minima; a zero is
accepted only when the refined modulus is at or below an acceptance floor, so
shallow dips are never promoted to features.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .potentials import Potential
from .transfer import (
    DEFAULT_ODE_TOL,
    STACK,
    BackendError,
    ConvergenceError,
    ScatteringData,
    compute_transfer,
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

    def of_kind(self, *kinds: str) -> tuple[Feature, ...]:
        return tuple(f for f in self.features if f.kind in kinds)


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[ScatteringData, ...]
    errors: tuple[tuple[float, str], ...] = field(default=())


def sweep(p: Potential, k_grid, backend: str = "auto",
          tol: float = DEFAULT_ODE_TOL) -> SweepResult:
    """One ScatteringData per grid point; per-row backend errors do not abort."""
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
    errors: list[tuple[float, str]] = []
    if backend == STACK:
        rows = [scattering_data(m) for m in transfer_matrices(p, ks, STACK)]
    else:
        rows = []
        for k in ks:
            try:
                rows.append(scattering_data(compute_transfer(p, float(k), backend, tol)))
            except (ConvergenceError, BackendError) as exc:
                errors.append((float(k), str(exc)))
                nan = complex(float("nan"), float("nan"))
                rows.append(ScatteringData(float(k), nan, nan, nan, nan, False, 0.0, backend))
    return SweepResult(tuple(rows), tuple(errors))


# the quantity whose modulus vanishes at each located feature kind, from M's entries
_OBJECTIVES = {
    SPECTRAL_SINGULARITY: lambda m11, m12, m21, m22: m22,
    REFLECTIONLESS_LEFT: lambda m11, m12, m21, m22: -m21 / m22,
    REFLECTIONLESS_RIGHT: lambda m11, m12, m21, m22: m12 / m22,
}


def _grid_matrices(p, ks, backend, tol):
    """M on the grid: one stack-kernel array, or one ODE TransferMatrix per k."""
    if resolve_backend(p, backend) == STACK:
        return stack_matrices(p, ks)
    return [compute_transfer(p, float(k), backend, tol) for k in ks]


def _grid_objective(mats, kind) -> np.ndarray:
    """|objective|^2 per grid k: numpy on the stack columns, Python complex per ODE matrix."""
    extract = _OBJECTIVES[kind]
    if isinstance(mats, np.ndarray):
        return np.abs(extract(mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1])) ** 2
    return np.asarray([abs(extract(m.m11, m.m12, m.m21, m.m22)) ** 2 for m in mats])


def _objective_scalar(p, k, backend, tol, extract):
    m = compute_transfer(p, float(k), backend, tol)
    return abs(extract(m.m11, m.m12, m.m21, m.m22)) ** 2


def _local_minima(values: np.ndarray) -> np.ndarray:
    interior = (values[1:-1] < values[:-2]) & (values[1:-1] <= values[2:])
    return np.nonzero(interior)[0] + 1


def _refine(p, triple, backend, tol, refine_tol, extract) -> tuple[float, float, tuple[float, float]]:
    """Minimize the squared objective inside a grid bracket (a, b, c), f(b) lowest.

    Brent with an explicit bracket converges to the requested xtol; the
    bounded variant is only a fallback because it cannot localize better than
    sqrt(machine eps) in relative terms, which is coarser than the acceptance
    floors used here.
    """
    a, b, c = triple
    objective = lambda k: _objective_scalar(p, k, backend, tol, extract)
    try:
        res = minimize_scalar(objective, bracket=(a, b, c), method="brent",
                              options={"xtol": refine_tol, "maxiter": 500})
        if not (a <= res.x <= c):
            raise ValueError("left the bracket")
    except (ValueError, RuntimeError):
        res = minimize_scalar(objective, bounds=(a, c), method="bounded",
                              options={"xatol": refine_tol, "maxiter": 500})
    return float(res.x), float(np.sqrt(max(res.fun, 0.0))), (a, c)


def _k_grid(k_min, k_max, grid_step):
    if not (0 < k_min < k_max):
        raise ValueError("need 0 < k_min < k_max")
    if not grid_step > 0:
        raise ValueError("grid_step must be positive")
    n = int(np.floor((k_max - k_min) / grid_step + 0.5)) + 1
    ks = k_min + grid_step * np.arange(n)
    return ks[ks <= k_max + 1e-12 * max(1.0, k_max)]


def _refined_zeros(p, ks, values, kind, tol, backend, ode_tol):
    """(k*, refined modulus, bracket) per grid minimum accepted as a zero of kind's objective."""
    for i in _local_minima(values):
        triple = (float(ks[i - 1]), float(ks[i]), float(ks[i + 1]))
        k_star, resid, bracket = _refine(p, triple, backend, ode_tol, tol, _OBJECTIVES[kind])
        if resid <= ACCEPTANCE_FLOOR:
            yield k_star, resid, bracket


def find_spectral_singularities(
    p: Potential, k_min: float, k_max: float, grid_step: float,
    tol: float = DEFAULT_REFINE_TOL, backend: str = "auto",
    ode_tol: float = DEFAULT_ODE_TOL,
) -> ScanResult:
    """Locate real-k zeros of M22 (poles of the amplitudes) on [k_min, k_max].

    Grid local minima of |M22|^2 are refined by bounded minimization to
    bracket width <= tol and accepted only when the refined |M22| is at or
    below the acceptance floor. Real potentials cannot host such zeros, so
    scanning them is expected to return an empty feature list.
    """
    ks = _k_grid(k_min, k_max, grid_step)
    values = _grid_objective(_grid_matrices(p, ks, backend, ode_tol), SPECTRAL_SINGULARITY)
    features = tuple(
        Feature(kind=SPECTRAL_SINGULARITY, k_star=k_star, residual=resid, bracket=bracket,
                boundary_warning=(k_star - k_min < grid_step or k_max - k_star < grid_step))
        for k_star, resid, bracket in _refined_zeros(
            p, ks, values, SPECTRAL_SINGULARITY, tol, backend, ode_tol)
    )
    return ScanResult(features, k_min, k_max, grid_step)


def check_invisibility(feature: Feature, s: ScatteringData) -> bool:
    """True iff the reflectionless point is also perfectly transparent, T = 1.

    |T| = 1 alone is not enough: invisibility needs the transmission phase to
    vanish as well, so the test is |T(k*) - 1| <= INVISIBILITY_TOL on the
    full complex T.
    """
    if feature.kind not in (REFLECTIONLESS_LEFT, REFLECTIONLESS_RIGHT,
                            BIDIRECTIONAL_REFLECTIONLESS, INVISIBLE_LEFT, INVISIBLE_RIGHT):
        raise ValueError(f"not a reflectionless feature: {feature.kind}")
    return bool(s.finite and abs(s.T - 1.0) <= INVISIBILITY_TOL)


def find_unidirectional_points(
    p: Potential, k_min: float, k_max: float, grid_step: float,
    tol: float = DEFAULT_REFINE_TOL, backend: str = "auto",
    ode_tol: float = DEFAULT_ODE_TOL,
) -> ScanResult:
    """Locate zeros of |R_left| and |R_right| and classify them.

    A zero of one reflection is unidirectional when the opposite reflection
    modulus exceeds 10*tol at the located k, bidirectional otherwise.
    Unidirectional features are upgraded to invisible_{left,right} when
    additionally |T - 1| <= INVISIBILITY_TOL. A potential that is
    reflectionless on the entire grid (the free potential) has no isolated
    zeros and reports no features.
    """
    sides = (
        (REFLECTIONLESS_LEFT, INVISIBLE_LEFT, lambda s: abs(s.R_right)),
        (REFLECTIONLESS_RIGHT, INVISIBLE_RIGHT, lambda s: abs(s.R_left)),
    )
    ks = _k_grid(k_min, k_max, grid_step)
    mats = _grid_matrices(p, ks, backend, ode_tol)  # shared by both sides
    features = []
    for kind, invisible_kind, opposite in sides:
        values = _grid_objective(mats, kind)
        if np.all(np.sqrt(values) < ACCEPTANCE_FLOOR):
            continue  # reflectionless everywhere on this side: no isolated features
        for k_star, resid, bracket in _refined_zeros(p, ks, values, kind, tol, backend, ode_tol):
            s = scattering_data(compute_transfer(p, k_star, backend, ode_tol))
            if not s.finite:
                continue
            one_sided = opposite(s) > 10.0 * tol
            t_dev = abs(s.T - 1.0)
            near_edge = k_star - k_min < grid_step or k_max - k_star < grid_step
            if one_sided and t_dev <= INVISIBILITY_TOL:
                feature_kind = invisible_kind
                residual = resid + t_dev
                note = f"|T-1| = {t_dev:.3e}"
            else:
                feature_kind = kind if one_sided else BIDIRECTIONAL_REFLECTIONLESS
                residual = resid
                prefix = "" if one_sided else "both reflections vanish; "
                note = prefix + f"|T-1| = {t_dev:.3e}, tau = {np.angle(s.T):.6f}"
            features.append(Feature(
                kind=feature_kind, k_star=k_star, residual=residual, bracket=bracket,
                boundary_warning=near_edge, note=note,
            ))
    features.sort(key=lambda f: f.k_star)
    # drop duplicate bidirectional records found from both sides
    deduped: list[Feature] = []
    for f in features:
        if (f.kind == BIDIRECTIONAL_REFLECTIONLESS and deduped
                and deduped[-1].kind == BIDIRECTIONAL_REFLECTIONLESS
                and abs(deduped[-1].k_star - f.k_star) <= max(10.0 * tol, 1e-9)):
            continue
        deduped.append(f)
    return ScanResult(tuple(deduped), k_min, k_max, grid_step)
