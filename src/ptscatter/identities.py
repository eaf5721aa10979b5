"""The amplitude-identity catalog, evaluated as numerical residuals.

Every identity relating T, R_left, R_right at +-k is computed as a residual
>= 0, together with an applicability flag derived from the potential's
symmetry class. Class-independent identities (the sigma1-swap of M under
k -> -k and the amplitude relations it induces through D = T^2 - R_l R_r)
are always applicable; the remaining ones are consequences of realness,
evenness, or PT symmetry and are only counted for the classes that guarantee
them. Potentials with no symmetry class at all are checked against the whole
catalog, which is what makes `verify` useful as a symmetry detector.

Phase bookkeeping: tau, lambda, rho are the principal arguments of T, R_left,
R_right; for PT-symmetric potentials the reflection phases are offset from
tau by half-odd-integer multiples of pi, and the integers m1, m2 recovered
from that offset fix the sign in the pseudo-unitarity relation
|T|^2 +- |R_l R_r| = 1 through the parity of m1 + m2.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .potentials import Potential, SymmetryClass, classify_symmetry
from .transfer import (
    DEFAULT_ODE_TOL,
    ScatteringData,
    TransferMatrix,
    abs2,
    negative_k_matrix,
    resolve_backend,
    scattering_data,
    transfer_matrices,
)

REFLECTIONLESS_FLOOR = 1e-10
D_FLOOR = 1e-12

RECIPROCITY_REAL = "RECIPROCITY_REAL"
UNITARITY_REAL = "UNITARITY_REAL"
PT_PSEUDO_UNITARITY = "PT_PSEUDO_UNITARITY"
PHASE_SUM_REAL = "PHASE_SUM_REAL"
PHASE_SUM_PT = "PHASE_SUM_PT"
NEGK_MATRIX = "NEGK_MATRIX"
NEGK_AMPLITUDES = "NEGK_AMPLITUDES"
D_PHASE = "D_PHASE"
R_NEGK_CONJ = "R_NEGK_CONJ"
T_NEGK_CONJ = "T_NEGK_CONJ"
RECIPROCITY_GEN = "RECIPROCITY_GEN"
T_MODULUS_PARITY = "T_MODULUS_PARITY"
GEN_UNITARITY_L = "GEN_UNITARITY_L"
GEN_UNITARITY_R = "GEN_UNITARITY_R"
R_PHASE_REAL = "R_PHASE_REAL"
PT_NEGK_R = "PT_NEGK_R"


@dataclass(frozen=True)
class PhaseRecord:
    """Principal-argument phases of (T, R_left, R_right) and the PT integers.

    Angles lie in (-pi, pi] and are None when the corresponding modulus is
    below the reflectionless floor. m1, m2 are the nearest integers to
    (lambda - tau)/pi - 1/2 and (rho - tau)/pi - 1/2; their rounding residues
    (dimensionless, in units of pi) measure how well the PT phase locking
    holds. No unwrapping across k is attempted: the integers are per-k data.
    """

    tau: float | None
    lam: float | None
    rho: float | None
    m1: int | None = None
    m2: int | None = None
    m1_residue: float | None = None
    m2_residue: float | None = None


def phases(s: ScatteringData, pt_symmetric: bool = False) -> PhaseRecord:
    """Phase record of a finite scattering triple.

    m1/m2 are only computed when pt_symmetric is set (they are meaningless
    otherwise) and the matching reflection is above REFLECTIONLESS_FLOOR.
    """
    if not s.finite:
        raise ValueError("phases undefined: amplitudes are non-finite at this k")
    floor = REFLECTIONLESS_FLOOR
    tau = cmath.phase(s.T) if abs(s.T) >= floor else None
    lam = cmath.phase(s.R_left) if abs(s.R_left) >= floor else None
    rho = cmath.phase(s.R_right) if abs(s.R_right) >= floor else None
    m1 = m2 = None
    res1 = res2 = None
    if pt_symmetric and tau is not None:
        if lam is not None:
            x = (lam - tau) / math.pi - 0.5
            m1 = round(x)
            res1 = abs(x - m1)
        if rho is not None:
            x = (rho - tau) / math.pi - 0.5
            m2 = round(x)
            res2 = abs(x - m2)
    return PhaseRecord(tau, lam, rho, m1, m2, res1, res2)


def _t_phase(s: ScatteringData) -> complex:
    """e^{-2i tau} = T^*/T, or 1 where T = 0."""
    return (s.T.conjugate() / s.T) if s.T != 0 else 1.0


def _pseudo_unitarity(s: ScatteringData) -> float:
    """Residual of |T|^2 +- |R_l R_r| = 1 with the sign of 1 - |T|^2."""
    t2 = abs2(s.T)
    sign = 0 if t2 == 1.0 else (1 if t2 < 1.0 else -1)
    return abs(t2 + sign * abs(s.R_left * s.R_right) - 1.0)


def _negk_amplitudes(s_k: ScatteringData, s_negk: ScatteringData) -> float | str:
    """Worst of R_l(-k) = -R_r(k)/D, R_r(-k) = -R_l(k)/D, T(-k) = T(k)/D, or why not."""
    d = s_k.D
    if abs(d) <= D_FLOOR:
        return f"|D| = {abs(d):.2e} below floor"
    return max(
        abs(s_negk.R_left + s_k.R_right / d),
        abs(s_negk.R_right + s_k.R_left / d),
        abs(s_negk.T - s_k.T / d),
    )


def _phase_sum(ph: PhaseRecord, offset: float, period: float) -> float | str:
    """Distance of lambda + rho - 2 tau - offset to the nearest multiple of period, or why not.

    Comparisons are distance-to-nearest-lattice-point, never raw subtraction:
    the principal arguments wrap independently.
    """
    missing = [name for name, val in (("lambda", ph.lam), ("rho", ph.rho), ("tau", ph.tau))
               if val is None]
    if missing:
        return f"reflectionless: {'/'.join(missing)} below floor"
    return abs(math.remainder(ph.lam + ph.rho - 2.0 * ph.tau - offset, period))


def residual_negk_matrix(m_k: TransferMatrix, m_negk: TransferMatrix) -> float:
    """Max entrywise |sigma1 M(k) sigma1 - M(-k)| from two independent runs."""
    swapped = negative_k_matrix(m_k)
    return max(
        abs(swapped.m11 - m_negk.m11),
        abs(swapped.m12 - m_negk.m12),
        abs(swapped.m21 - m_negk.m21),
        abs(swapped.m22 - m_negk.m22),
    )


# identity -> (symmetry classes whose members are guaranteed to satisfy it, its
# residual). A residual reads (s, sn, ph), the finite amplitudes at k and -k and
# the phase record at k, and returns a float >= 0 or why it is undefined there.
# NEGK_MATRIX has none: residual_negk_matrix compares the two transfer matrices,
# which stay defined where the amplitudes are not. Catalog order is the order
# of report entries and table columns.
_CATALOG = {
    # |R_l| = |R_r|: reciprocity of real potentials, exact for even ones
    RECIPROCITY_REAL: (("real", "even"), lambda s, sn, ph: abs(abs(s.R_left) - abs(s.R_right))),
    # |R|^2 + |T|^2 = 1 on each side
    UNITARITY_REAL: (("real",), lambda s, sn, ph: max(abs(abs2(s.R_left) + abs2(s.T) - 1.0),
                                                     abs(abs2(s.R_right) + abs2(s.T) - 1.0))),
    PT_PSEUDO_UNITARITY: (("real", "pt"), lambda s, sn, ph: _pseudo_unitarity(s)),
    # lambda + rho - 2 tau on odd multiples of pi (real) or on multiples of pi (PT)
    PHASE_SUM_REAL: (("real",), lambda s, sn, ph: _phase_sum(ph, math.pi, 2.0 * math.pi)),
    PHASE_SUM_PT: (("real", "pt"), lambda s, sn, ph: _phase_sum(ph, 0.0, math.pi)),
    NEGK_MATRIX: (("any",), None),
    NEGK_AMPLITUDES: (("any",), lambda s, sn, ph: _negk_amplitudes(s, sn)),
    # D = e^{2i tau} = T/T^*
    D_PHASE: (("real", "pt"), lambda s, sn, ph: abs(s.D - s.T / s.T.conjugate())),
    # R(-k) = R(k)^* on each side
    R_NEGK_CONJ: (("real",), lambda s, sn, ph: max(abs(sn.R_left - s.R_left.conjugate()),
                                                  abs(sn.R_right - s.R_right.conjugate()))),
    # T(-k) = T(k)^* and |T(-k)| = |T(k)| hold together for real and PT potentials;
    # a potential with no symmetry class keeps RRT but breaks both
    T_NEGK_CONJ: (("real", "pt"), lambda s, sn, ph: abs(sn.T - s.T.conjugate())),
    # |R_l(-k)| = |R_r(k)| and |R_r(-k)| = |R_l(k)|
    RECIPROCITY_GEN: (("real", "pt"), lambda s, sn, ph: max(abs(abs(sn.R_left) - abs(s.R_right)),
                                                           abs(abs(sn.R_right) - abs(s.R_left)))),
    T_MODULUS_PARITY: (("real", "pt"), lambda s, sn, ph: abs(abs(sn.T) - abs(s.T))),
    # R(k) R(-k) + |T(k)|^2 = 1 on each side: the shared real/PT unitarity form
    GEN_UNITARITY_L: (("real", "pt"),
                      lambda s, sn, ph: abs(s.R_left * sn.R_left + abs2(s.T) - 1.0)),
    GEN_UNITARITY_R: (("real", "pt"),
                      lambda s, sn, ph: abs(s.R_right * sn.R_right + abs2(s.T) - 1.0)),
    # R_l^* = -e^{-2i tau} R_r
    R_PHASE_REAL: (("real",),
                   lambda s, sn, ph: abs(s.R_left.conjugate() + _t_phase(s) * s.R_right)),
    # R(-k) = -e^{-2i tau} R_opposite(k) on each side
    PT_NEGK_R: (("real", "pt"), lambda s, sn, ph: max(abs(sn.R_left + _t_phase(s) * s.R_right),
                                                     abs(sn.R_right + _t_phase(s) * s.R_left))),
}
IDENTITY_IDS = tuple(_CATALOG)

_NONFINITE = "non-finite amplitudes (spectral singularity or overflow)"


def residual(identity: str, s_k: ScatteringData, s_negk: ScatteringData) -> float:
    """The residual of one catalog identity at (k, -k).

    Raises ValueError for an unknown id, for NEGK_MATRIX (it needs the
    transfer matrices: residual_negk_matrix), on non-finite amplitudes (near a
    spectral singularity), and where the identity is undefined at this k, so
    that no NaN stands in for a residual.
    """
    if identity not in _CATALOG:
        raise ValueError(f"unknown identity {identity!r}")
    row = _CATALOG[identity][1]
    if row is None:
        raise ValueError(f"{identity} compares transfer matrices: use residual_negk_matrix")
    if not (s_k.finite and s_negk.finite):
        raise ValueError(f"{identity} undefined: {_NONFINITE}")
    value = row(s_k, s_negk, phases(s_k))
    if isinstance(value, str):
        raise ValueError(f"{identity} undefined: {value}")
    return value


@dataclass(frozen=True)
class IdentityEntry:
    identity: str
    residual: float | None
    applicable: bool
    note: str = ""


@dataclass(frozen=True)
class IdentityReport:
    """All identity residuals for one potential at one wavenumber pair (k, -k).

    phases is the phase record at k, None where the amplitudes at k are non-finite.
    """

    k: float
    entries: tuple[IdentityEntry, ...]
    scattering: ScatteringData
    scattering_negk: ScatteringData
    symmetry: SymmetryClass
    phases: PhaseRecord | None

    def entry(self, identity: str) -> IdentityEntry:
        for e in self.entries:
            if e.identity == identity:
                return e
        raise KeyError(identity)

    def max_applicable_residual(self) -> float:
        """Largest applicable residual, 0 if none; NaN if any applicable residual is NaN."""
        return worst_residual(e.residual for e in self.entries
                              if e.applicable and e.residual is not None)

    def failing(self, tol: float) -> tuple[str, ...]:
        """Applicable identities whose residual is not <= tol (a NaN residual fails)."""
        return tuple(e.identity for e in self.entries if e.applicable
                     and e.residual is not None and not e.residual <= tol)

    def passes(self, tol: float) -> bool:
        return not self.failing(tol)


def worst_residual(residuals) -> float:
    """max(0, *residuals), except that a NaN residual makes the result NaN.

    Python's max() keeps its first argument when compared against NaN, which
    would let a NaN residual vanish from the maximum.
    """
    worst = 0.0
    for r in residuals:
        if math.isnan(r):
            return math.nan
        worst = max(worst, r)
    return worst


def _rows(sym: SymmetryClass) -> tuple[tuple, ...]:
    """(identity, residual, applicable, note) per catalog row, for one symmetry class."""
    holds = {"any": True, "real": sym.is_real, "even": sym.is_even, "pt": sym.is_pt_symmetric}
    rows = []
    for identity, (classes, row) in _CATALOG.items():
        if any(holds[c] for c in classes):
            claim = (True, "")
        elif not sym.has_any:
            # no symmetry protects anything: check the full catalog as diagnostics
            claim = (True, "no symmetry class detected; full catalog counted")
        else:
            claim = (False, f"wrong symmetry class (needs one of {'/'.join(classes)})")
        rows.append((identity, row, *claim))
    return tuple(rows)


def identity_report(
    p: Potential,
    k,
    ode_tol: float = DEFAULT_ODE_TOL,
    backend: str = "auto",
    backend_negk: str | None = None,
) -> IdentityReport | tuple[IdentityReport, ...]:
    """Evaluate the full identity catalog at one k, or at each k of a 1-D array.

    A float k gives one IdentityReport, an array a tuple of them in k order.
    The potential is classified once. M(k) and M(-k) come from one
    transfer_matrices call on k1, -k1, k2, ... when both signs use one
    backend, or from one call per sign: -k is always its own backend row
    (never the sigma1 swap), so the negative-k identities are genuine
    cross-checks. A failed ODE solve raises in that order, at its pair.
    """
    ks = np.asarray(k, dtype=float)
    if ks.ndim > 1:
        raise ValueError("k must be a number or a 1-D array")
    sym = classify_symmetry(p)
    flat = ks.reshape(-1)
    backend_negk = backend_negk or backend
    if resolve_backend(p, backend) == resolve_backend(p, backend_negk):
        both = transfer_matrices(p, np.column_stack((flat, -flat)).reshape(-1), backend, ode_tol)
        pairs = zip(flat.tolist(), both, both)
    else:
        pairs = zip(flat.tolist(), transfer_matrices(p, flat, backend, ode_tol),
                    transfer_matrices(p, -flat, backend_negk, ode_tol))
    rows = _rows(sym)
    reports = tuple(_report(k, m_k, m_negk, sym, rows) for k, m_k, m_negk in pairs)
    return reports if ks.ndim else reports[0]


def _report(k: float, m_k: TransferMatrix, m_negk: TransferMatrix,
            sym: SymmetryClass, rows: tuple[tuple, ...]) -> IdentityReport:
    """The catalog at (k, -k) from the two transfer matrices and the rows for sym."""
    s_k = scattering_data(m_k)
    s_negk = scattering_data(m_negk)
    ph = phases(s_k, pt_symmetric=sym.is_pt_symmetric) if s_k.finite else None
    finite = s_k.finite and s_negk.finite
    entries = []
    for identity, row, applicable, note in rows:
        if row is None:
            value = residual_negk_matrix(m_k, m_negk)
        else:
            value = row(s_k, s_negk, ph) if finite else _NONFINITE
        entries.append(IdentityEntry(identity, None, False, value) if isinstance(value, str)
                       else IdentityEntry(identity, value, applicable, note))
    return IdentityReport(k, tuple(entries), s_k, s_negk, sym, ph)
