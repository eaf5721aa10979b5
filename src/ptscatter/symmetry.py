"""Parity, time-reversal, and combined PT actions on transfer matrices.

With sigma1 the first Pauli matrix,

    P:  M -> sigma1 M^-1 sigma1
    T:  M -> sigma1 M^*  sigma1
    PT: M -> (M^-1)^*

Each action is an involution on unit-determinant matrices, and a potential's
symmetry class shows up as invariance of its transfer matrix under the
matching action.
"""
from __future__ import annotations

import warnings
from collections.abc import Callable

import numpy as np

from .transfer import TransferMatrix

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


def invariance_residual(m: TransferMatrix,
                        action: Callable[[TransferMatrix], TransferMatrix]) -> float:
    """Max entrywise modulus of M - action(M); 0 means exactly invariant.

    action is apply_parity, apply_time_reversal or apply_pt.
    """
    return float(np.max(np.abs(m.as_array() - action(m).as_array())))
