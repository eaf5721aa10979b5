"""Transfer matrices M(k) and scattering amplitudes for compact-support potentials.

M(k) is the unique 2x2 complex matrix sending the plane-wave coefficients on
the left of the support to those on the right: with
psi(x) = A e^{ikx} + B e^{-ikx} outside the support,

    [A_plus, B_plus] = M(k) [A_minus, B_minus].

Coefficients are referenced to the global origin x = 0, which fixes the phases
of the reflection amplitudes. Amplitude dictionary: T = 1/M22,
R_left = -M21/M22, R_right = M12/M22. det M = 1 always.

Two backends: an exact slab-product ("stack") for piecewise-constant
potentials and an adaptive integrator ("ode") for any potential kind.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .dop853 import solve_ivp
from .potentials import LayerPotential, Potential, _breakpoints

SINGULARITY_FLOOR = 1e-12
DEFAULT_ODE_TOL = 1e-10

STACK = "stack"
ODE = "ode"


def modulus(z: complex) -> float:
    """abs(z) that cannot raise: inf past float64's range, NaN for a NaN part.

    CPython's abs() of a complex with a NaN part leaves errno as it was, so
    after an earlier float overflow it raises OverflowError too.
    """
    try:
        return abs(z)
    except OverflowError:
        return math.nan if cmath.isnan(z) else math.inf


def abs2(z: complex) -> float:
    """abs(z) ** 2, or inf where that overflows float64 (|z| above about 1.34e154)."""
    try:
        return abs(z) ** 2
    except OverflowError:
        return math.nan if cmath.isnan(z) else math.inf


class BackendError(RuntimeError):
    """Requested backend cannot handle this potential kind."""


class ConvergenceError(RuntimeError):
    """Adaptive integration failed to meet the requested tolerance."""


@dataclass(frozen=True)
class TransferMatrix:
    m11: complex
    m12: complex
    m21: complex
    m22: complex
    k: float
    backend: str = STACK

    @property
    def det(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21

    @property
    def condition(self) -> float:
        """|M22|: proximity to a spectral singularity (0 = singular)."""
        return modulus(self.m22)

    def as_array(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m21, self.m22]], dtype=complex)


@dataclass(frozen=True)
class ScatteringData:
    """Amplitude triple at one wavenumber with the derived combination D.

    D = T^2 - R_left R_right controls the negative-k amplitude relations.
    finite is True only when T, R_left, R_right, D and |M22| are all finite. It is
    False at (numerical) spectral singularities, where |M22| fell below the
    singularity floor and the amplitudes diverge, and wherever M itself
    overflowed to inf or NaN.
    """

    k: float
    T: complex
    R_left: complex
    R_right: complex
    D: complex
    finite: bool
    condition: float
    backend: str = STACK


def stack_matrices(p: Potential, ks) -> np.ndarray:
    """Vectorized stack backend over a k array; shape (len(ks), 2, 2)."""
    if not isinstance(p, LayerPotential):
        raise BackendError(f"stack backend requires a layer potential, got kind {p.kind!r}")
    ks = np.asarray(ks, dtype=float)
    if np.any(ks == 0):
        raise ValueError("k = 0: zero-energy scattering is excluded")
    if not p.values:
        out = np.zeros((ks.size, 2, 2), dtype=complex)
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = 1.0
        return out
    return kernels.stack_transfer(
        np.asarray(p.values, dtype=complex), np.asarray(p.widths, dtype=float),
        p.x_left, ks,
    )


def transfer_matrix_ode(p: Potential, k: float,
                        ode_tol: float = DEFAULT_ODE_TOL) -> TransferMatrix:
    """The ODE backend at one k: the n = 1 case of transfer_matrices' integrator."""
    return next(transfer_matrices(p, [k], ODE, ode_tol))


def _integrate(p: Potential, ks: np.ndarray, tol: float) -> np.ndarray:
    """M(k) at every k of ks, shape (n, 2, 2), from one DOP853 system of 4n components.

    Solves -psi'' + v psi = k^2 psi across the support for both columns of
    every k at once. Initial data at the left support edge are exact plane
    waves e^{+-ikx} (valid because v vanishes outside the support);
    (A_plus, B_plus) are read off psi and psi' at the right edge. The
    solve restarts at each breakpoint, so no step crosses a jump or a kink
    of the profile; on a layer the constant v is read once, from the middle
    of the piece, so no stage sees the next layer's value at the edge. Each
    piece is one call of solve_ivp (dop853.py), which reads v - k^2 at all
    nodes of a step in one evaluate call, holds every k's own error to
    rtol = atol = tol and returns only the state at the piece's end.
    """
    n = ks.size
    k2 = ks * ks
    ik = 1j * ks
    lo, hi = p.support_interval()
    el = np.exp(ik * lo)
    y = np.concatenate((el, ik * el, 1.0 / el, -ik / el))

    def coef(xs):  # v - k^2 at every node and k
        return np.subtract.outer(p.evaluate(xs), k2, dtype=complex)

    layered = isinstance(p, LayerPotential)
    e = _breakpoints(p).tolist()
    for a, b in zip(e[:-1], e[1:]):
        if layered:
            row = coef(np.array([(a + b) / 2]))
        sol = solve_ivp((lambda xs: row) if layered else coef, (a, b), y, tol=tol)
        if not sol.success:
            where = f"k={ks.tolist()[0]}" if n == 1 else f"{n} k"
            raise ConvergenceError(f"integration failed on [{a}, {b}] at {where}: {sol.message}")
        y = sol.y
    psi1, dpsi1, psi2, dpsi2 = y.reshape(4, n)
    er = np.exp(ik * hi)
    # A = e^{-ikx}(psi/2 + psi'/(2ik)), B = e^{ikx}(psi/2 - psi'/(2ik)) at x = hi
    m = np.empty((n, 2, 2), dtype=complex)
    m[:, 0, 0] = (psi1 / 2 + dpsi1 / (2 * ik)) / er
    m[:, 1, 0] = (psi1 / 2 - dpsi1 / (2 * ik)) * er
    m[:, 0, 1] = (psi2 / 2 + dpsi2 / (2 * ik)) / er
    m[:, 1, 1] = (psi2 / 2 - dpsi2 / (2 * ik)) * er
    return m


def _ode_rows(p: Potential, ks: np.ndarray, tol: float) -> list:
    """One TransferMatrix per k, or the ConvergenceError of a k whose own solve failed.

    All k are solved as one system. If it fails, it is redone one k at a
    time, so only the k that fail alone are lost, each with the message of
    its own solve.
    """
    if np.any(ks == 0):
        raise ValueError("k = 0: zero-energy scattering is excluded")
    if not tol > 0:
        raise ValueError("ode_tol must be positive")
    lo, hi = p.support_interval()
    if lo == hi or not ks.size:
        return [TransferMatrix(1.0, 0.0, 0.0, 1.0, k, ODE) for k in ks.tolist()]
    try:
        return list(_rows(ks, _integrate(p, ks, tol), ODE))
    except ConvergenceError as exc:
        if ks.size == 1:
            return [exc]
        return [row for i in range(ks.size) for row in _ode_rows(p, ks[i:i + 1], tol)]


def _rows(ks: np.ndarray, m: np.ndarray, backend: str):
    """TransferMatrix rows of an (n, 2, 2) array, its columns taken once as Python complexes."""
    columns = (m[:, 0, 0].tolist(), m[:, 0, 1].tolist(), m[:, 1, 0].tolist(),
               m[:, 1, 1].tolist())
    return (TransferMatrix(m11, m12, m21, m22, k, backend)
            for k, m11, m12, m21, m22 in zip(ks.tolist(), *columns))


def _drawn(row):
    if isinstance(row, ConvergenceError):
        raise row
    return row


def resolve_backend(p: Potential, backend: str) -> str:
    """'stack' | 'ode' for a requested 'stack' | 'ode' | 'auto' (stack for layers)."""
    if backend == "auto":
        return STACK if isinstance(p, LayerPotential) else ODE
    if backend in (STACK, ODE):
        return backend
    raise ValueError(f"unknown backend {backend!r}")


def compute_transfer(p: Potential, k: float, backend: str = "auto",
                     ode_tol: float = DEFAULT_ODE_TOL) -> TransferMatrix:
    """Dispatch to the backend that resolve_backend picks."""
    if resolve_backend(p, backend) == STACK:
        return next(transfer_matrices(p, [k], STACK))
    return transfer_matrix_ode(p, k, ode_tol)


def transfer_matrices(p: Potential, ks, backend: str = "auto",
                      ode_tol: float = DEFAULT_ODE_TOL):
    """An iterator of one TransferMatrix per k of a 1-D array, in k order.

    Stack: one kernel call, made here, and rows built as they are drawn, so
    a caller that consumes each row at once holds one at a time. ODE: every
    k in one DOP853 system, each k held to rtol = atol = ode_tol on its own,
    solved here. A k whose solve failed raises its ConvergenceError when
    drawn, and drawing goes on with the next k.
    """
    ks = np.asarray(ks, dtype=float)
    if resolve_backend(p, backend) == STACK:
        return _rows(ks, stack_matrices(p, ks), STACK)
    # map's iterator, unlike a generator's, survives an exception raised for one row
    return map(_drawn, _ode_rows(p, ks, ode_tol))


def scattering_data(m: TransferMatrix) -> ScatteringData:
    """Amplitudes from the transfer-matrix dictionary; non-finite at singularities or overflow."""
    cond = m.condition
    if cond <= SINGULARITY_FLOOR:
        nan = complex(math.nan, math.nan)
        return ScatteringData(m.k, nan, nan, nan, nan, False, cond, m.backend)
    t = 1.0 / m.m22
    r_left = -m.m21 / m.m22
    r_right = m.m12 / m.m22
    d = t * t - r_left * r_right
    # an overflowed M22 alone gives T = 0 and finite R_left, R_right and D
    finite = math.isfinite(cond) and all(map(cmath.isfinite, (t, r_left, r_right, d)))
    return ScatteringData(m.k, t, r_left, r_right, d, finite, cond, m.backend)


def negative_k_matrix(m: TransferMatrix) -> TransferMatrix:
    """M(-k) = sigma1 M(k) sigma1: swap M11<->M22 and M12<->M21, negate k."""
    return TransferMatrix(m.m22, m.m21, m.m12, m.m11, -m.k, m.backend)
