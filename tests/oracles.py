"""Independent reference implementations used to cross-check the engine.

The slab matrix here comes from an explicit 4x4 linear solve of the
face-matching conditions (continuity of psi and psi' at both faces of a
constant slab), with the interior written in its own exponential basis.
Stacks are composed by multiplying per-slab matrices, which is valid because
each slab matrix acts on the global plane-wave coefficients and those are
constant wherever v = 0. None of the production code paths are reused.

Below them are the formulas only tests read: the parity, time-reversal and
PT actions on M, the inverse amplitude dictionary, and the round-trip check
of the CSV/JSON float cells.
"""
import math
import warnings

import numpy as np

from ptscatter import io as tables
from ptscatter.transfer import TransferMatrix


def slab_matrix_oracle(v0, width, k, x_left=0.0, flip_branch=False):
    """Transfer matrix of one constant slab from the 4x4 face-matching solve."""
    kap = np.sqrt(complex(k * k - v0))
    if flip_branch:
        kap = -kap
    x0, x1 = x_left, x_left + width
    m = np.zeros((2, 2), dtype=complex)
    ew = np.exp(1j * kap * width)
    for col, (a_minus, b_minus) in enumerate([(1.0, 0.0), (0.0, 1.0)]):
        lhs = np.array([
            [1.0, 1.0, 0.0, 0.0],
            [1j * kap, -1j * kap, 0.0, 0.0],
            [ew, 1.0 / ew, -np.exp(1j * k * x1), -np.exp(-1j * k * x1)],
            [1j * kap * ew, -1j * kap / ew,
             -1j * k * np.exp(1j * k * x1), 1j * k * np.exp(-1j * k * x1)],
        ], dtype=complex)
        psi0 = a_minus * np.exp(1j * k * x0) + b_minus * np.exp(-1j * k * x0)
        dpsi0 = 1j * k * (a_minus * np.exp(1j * k * x0) - b_minus * np.exp(-1j * k * x0))
        rhs = np.array([psi0, dpsi0, 0.0, 0.0], dtype=complex)
        sol = np.linalg.solve(lhs, rhs)
        m[0, col], m[1, col] = sol[2], sol[3]
    return m


def stack_matrix_oracle(values, widths, x_left, k):
    """Stack transfer matrix as a product of face-matching slab matrices."""
    m = np.eye(2, dtype=complex)
    x = x_left
    for v0, w in zip(values, widths):
        m = slab_matrix_oracle(v0, w, k, x) @ m
        x += w
    return m


def amplitudes_oracle(m):
    """(T, R_left, R_right) read from a transfer matrix array."""
    t = 1.0 / m[1, 1]
    return t, -m[1, 0] / m[1, 1], m[0, 1] / m[1, 1]


def scarf2_transmission_oracle(k, v1, v2, alpha, dps=30):
    """Exact T(k) of v = -v1 sech^2(alpha x) + i v2 sech(alpha x) tanh(alpha x).

    Closed form of Khare & Sukhatme, J. Phys. A 21 (1988) L501, and Ahmed,
    Phys. Lett. A 282 (2001) 343, evaluated with mpmath at dps digits: with
    q = k/alpha, a = sqrt(v1/alpha^2 + 1/4 + v2/alpha^2) and
    b = sqrt(v1/alpha^2 + 1/4 - v2/alpha^2) (complex square roots),
    A = (a + b)/2 - 1/2 and beta = (a - b)/2,

        T = G(-A - iq) G(1 + A - iq) G(1/2 - beta - iq) G(1/2 + beta - iq)
            / [G(-iq) G(1 - iq) G(1/2 - iq)^2].
    """
    import mpmath

    with mpmath.workdps(dps):
        q = mpmath.mpf(k) / alpha
        u1, u2 = mpmath.mpf(v1) / alpha ** 2, mpmath.mpf(v2) / alpha ** 2
        a = mpmath.sqrt(mpmath.mpc(u1 + 0.25 + u2))
        b = mpmath.sqrt(mpmath.mpc(u1 + 0.25 - u2))
        big_a, beta = (a + b) / 2 - 0.5, (a - b) / 2
        iq = 1j * q
        g = mpmath.gamma
        t = (g(-big_a - iq) * g(1 + big_a - iq) * g(0.5 - beta - iq) * g(0.5 + beta - iq)
             / (g(-iq) * g(1 - iq) * g(0.5 - iq) ** 2))
        return complex(t)


# --- symmetry actions on M ------------------------------------------------------
#
# With sigma1 the first Pauli matrix,
#
#     P:  M -> sigma1 M^-1 sigma1
#     T:  M -> sigma1 M^*  sigma1
#     PT: M -> (M^-1)^*
#
# Each action is an involution on unit-determinant matrices, and a potential's
# symmetry class shows up as invariance of its transfer matrix under the
# matching action.

_DET_DRIFT_WARN = 1e-6


def _checked_det(m: TransferMatrix) -> complex:
    det = m.det
    if det == 0:
        raise ZeroDivisionError("singular transfer matrix: parity/PT action undefined")
    if abs(det - 1.0) > _DET_DRIFT_WARN:
        warnings.warn(
            f"det M = {det} drifts from 1 by {abs(det - 1.0):.3e}; "
            "the backend that produced this matrix looks inaccurate",
            stacklevel=3,
        )
    return det


def apply_parity(m: TransferMatrix) -> TransferMatrix:
    """sigma1 M^-1 sigma1: fixes the diagonal (for det M = 1), M12 <-> -M21."""
    det = _checked_det(m)
    return TransferMatrix(m.m11 / det, -m.m21 / det, -m.m12 / det, m.m22 / det,
                          m.k, m.backend)


def apply_time_reversal(m: TransferMatrix) -> TransferMatrix:
    """sigma1 M^* sigma1: M11 <-> M22^*, M12 <-> M21^*."""
    return TransferMatrix(
        m.m22.conjugate(), m.m21.conjugate(), m.m12.conjugate(), m.m11.conjugate(),
        m.k, m.backend,
    )


def apply_pt(m: TransferMatrix) -> TransferMatrix:
    """(M^-1)^*: equals parity and time reversal composed, in either order."""
    det = _checked_det(m).conjugate()
    return TransferMatrix(
        m.m22.conjugate() / det, -m.m12.conjugate() / det,
        -m.m21.conjugate() / det, m.m11.conjugate() / det,
        m.k, m.backend,
    )


def invariance_residual(m: TransferMatrix, action) -> float:
    """Max entrywise modulus of M - action(M); 0 means exactly invariant.

    action is apply_parity, apply_time_reversal or apply_pt.
    """
    return float(np.max(np.abs(m.as_array() - action(m).as_array())))


# --- amplitudes and float cells ---------------------------------------------------

def matrix_from_amplitudes(t: complex, r_left: complex, r_right: complex, k: float) -> TransferMatrix:
    """Inverse dictionary: rebuild M from (T, R_left, R_right). Requires T != 0."""
    if t == 0:
        raise ValueError("T = 0 has no transfer-matrix preimage")
    return TransferMatrix(
        m11=t - r_left * r_right / t,
        m12=r_right / t,
        m21=-r_left / t,
        m22=1.0 / t,
        k=float(k),
        backend="dictionary",
    )


def roundtrip_floats_exact(x: float) -> bool:
    """The 17 significant digits of a CSV/JSON float cell reproduce any finite float64 exactly."""
    return math.isnan(x) or float(tables._fmt(x)) == x
