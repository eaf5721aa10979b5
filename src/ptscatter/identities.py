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
from dataclasses import dataclass, replace

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

# symmetry classes whose members are guaranteed to satisfy each identity, in
# catalog order: report entries and table columns follow this order
_CLAIMED_FOR = {
    RECIPROCITY_REAL: ("real", "even"),
    UNITARITY_REAL: ("real",),
    PT_PSEUDO_UNITARITY: ("real", "pt"),
    PHASE_SUM_REAL: ("real",),
    PHASE_SUM_PT: ("real", "pt"),
    NEGK_MATRIX: ("any",),
    NEGK_AMPLITUDES: ("any",),
    D_PHASE: ("real", "pt"),
    R_NEGK_CONJ: ("real",),
    T_NEGK_CONJ: ("real", "pt"),
    RECIPROCITY_GEN: ("real", "pt"),
    T_MODULUS_PARITY: ("real", "pt"),
    GEN_UNITARITY_L: ("real", "pt"),
    GEN_UNITARITY_R: ("real", "pt"),
    R_PHASE_REAL: ("real",),
    PT_NEGK_R: ("real", "pt"),
}
IDENTITY_IDS = tuple(_CLAIMED_FOR)


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

    @property
    def parity(self) -> int | None:
        """Parity of m1 + m2 (0 even, 1 odd), or None if either is absent."""
        if self.m1 is None or self.m2 is None:
            return None
        return (self.m1 + self.m2) % 2


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


def _require_finite(*ss: ScatteringData):
    for s in ss:
        if not s.finite:
            raise ValueError("identity undefined: non-finite amplitudes (near a spectral singularity)")


def _dist_to_multiple(x: float, period: float) -> float:
    """Distance from x to the nearest integer multiple of period."""
    r = math.remainder(x, period)
    return abs(r)


def residual_reciprocity_real(s: ScatteringData) -> float:
    """| |R_l| - |R_r| | (reciprocity of real potentials; exact for even ones)."""
    _require_finite(s)
    return abs(abs(s.R_left) - abs(s.R_right))


def residual_unitarity_real(s: ScatteringData) -> float:
    """max over sides of | |R|^2 + |T|^2 - 1 |."""
    _require_finite(s)
    t2 = abs2(s.T)
    return max(abs(abs2(s.R_left) + t2 - 1.0), abs(abs2(s.R_right) + t2 - 1.0))


def residual_pt_pseudo_unitarity(s: ScatteringData) -> tuple[float, int]:
    """Residual of |T|^2 +- |R_l R_r| = 1 with the sign of 1 - |T|^2, and that sign."""
    _require_finite(s)
    t2 = abs2(s.T)
    sign = 0 if t2 == 1.0 else (1 if t2 < 1.0 else -1)
    return abs(t2 + sign * abs(s.R_left * s.R_right) - 1.0), sign


def residual_generalized_unitarity(s_k: ScatteringData, s_negk: ScatteringData,
                                   side: str) -> float:
    """|R_side(k) R_side(-k) + |T(k)|^2 - 1|, the shared real/PT unitarity form."""
    _require_finite(s_k, s_negk)
    if side == "left":
        prod = s_k.R_left * s_negk.R_left
    elif side == "right":
        prod = s_k.R_right * s_negk.R_right
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return abs(prod + abs2(s_k.T) - 1.0)


def residual_reciprocity_gen(s_k: ScatteringData, s_negk: ScatteringData) -> float:
    """max of | |R_l(-k)| - |R_r(k)| | and the mirrored combination."""
    _require_finite(s_k, s_negk)
    return max(
        abs(abs(s_negk.R_left) - abs(s_k.R_right)),
        abs(abs(s_negk.R_right) - abs(s_k.R_left)),
    )


def residual_t_parity(s_k: ScatteringData, s_negk: ScatteringData) -> tuple[float, float]:
    """(| |T(-k)| - |T(k)| |, |T(-k) - T(k)^*|).

    The modulus residual and the conjugate residual vanish together for real
    and PT potentials; a generic complex potential keeps RRT but breaks both.
    """
    _require_finite(s_k, s_negk)
    return (
        abs(abs(s_negk.T) - abs(s_k.T)),
        abs(s_negk.T - s_k.T.conjugate()),
    )


def residual_negk_amplitudes(s_k: ScatteringData, s_negk: ScatteringData) -> tuple[float, float, float]:
    """Residuals of R_l(-k) = -R_r(k)/D, R_r(-k) = -R_l(k)/D, T(-k) = T(k)/D.

    Valid for any potential. Caller must ensure |D(k)| is above the D floor.
    """
    _require_finite(s_k, s_negk)
    d = s_k.D
    return (
        abs(s_negk.R_left + s_k.R_right / d),
        abs(s_negk.R_right + s_k.R_left / d),
        abs(s_negk.T - s_k.T / d),
    )


def residual_negk_matrix(m_k: TransferMatrix, m_negk: TransferMatrix) -> float:
    """Max entrywise |sigma1 M(k) sigma1 - M(-k)| from two independent runs."""
    swapped = negative_k_matrix(m_k)
    return max(
        abs(swapped.m11 - m_negk.m11),
        abs(swapped.m12 - m_negk.m12),
        abs(swapped.m21 - m_negk.m21),
        abs(swapped.m22 - m_negk.m22),
    )


def residual_d_phase(s: ScatteringData) -> float:
    """|D - e^{2i tau}| = |D - T/T^*| (real and PT classes)."""
    _require_finite(s)
    return abs(s.D - s.T / s.T.conjugate())


def residual_r_negk_conj(s_k: ScatteringData, s_negk: ScatteringData) -> float:
    """max over sides of |R(-k) - R(k)^*| (real potentials only)."""
    _require_finite(s_k, s_negk)
    return max(
        abs(s_negk.R_left - s_k.R_left.conjugate()),
        abs(s_negk.R_right - s_k.R_right.conjugate()),
    )


def residual_pt_negk_r(s_k: ScatteringData, s_negk: ScatteringData) -> float:
    """max over sides of |R(-k) + e^{-2i tau} R_opposite(k)| (real and PT)."""
    _require_finite(s_k, s_negk)
    phase = (s_k.T.conjugate() / s_k.T) if s_k.T != 0 else 1.0
    return max(
        abs(s_negk.R_left + phase * s_k.R_right),
        abs(s_negk.R_right + phase * s_k.R_left),
    )


def residual_r_phase_real(s: ScatteringData) -> float:
    """|R_l^* + e^{-2i tau} R_r| (real potentials)."""
    _require_finite(s)
    phase = (s.T.conjugate() / s.T) if s.T != 0 else 1.0
    return abs(s.R_left.conjugate() + phase * s.R_right)


def residual_phase_sums(ph: PhaseRecord) -> tuple[float, float]:
    """(real-class, PT-class) distances of lambda + rho - 2 tau to its lattice.

    Real class: the combination sits on odd multiples of pi; PT class: on
    integer multiples of pi. Comparisons are distance-to-nearest-lattice-point,
    never raw subtraction.
    """
    if ph.lam is None or ph.rho is None or ph.tau is None:
        raise ValueError("phase sums undefined: a reflection amplitude is below the floor")
    x = ph.lam + ph.rho - 2.0 * ph.tau
    return _dist_to_multiple(x - math.pi, 2.0 * math.pi), _dist_to_multiple(x, math.pi)


@dataclass(frozen=True)
class IdentityEntry:
    identity: str
    residual: float | None
    applicable: bool
    note: str = ""


@dataclass(frozen=True)
class IdentityReport:
    """All identity residuals for one potential at one wavenumber pair (k, -k)."""

    k: float
    entries: tuple[IdentityEntry, ...]
    scattering: ScatteringData
    scattering_negk: ScatteringData
    symmetry: SymmetryClass

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


def _is_claimed(identity: str, sym: SymmetryClass) -> tuple[bool, str]:
    classes = _CLAIMED_FOR[identity]
    if "any" in classes:
        return True, ""
    if not sym.has_any:
        # no symmetry protects anything: check the full catalog as diagnostics
        return True, "no symmetry class detected; full catalog counted"
    if "real" in classes and sym.is_real:
        return True, ""
    if "even" in classes and sym.is_even:
        return True, ""
    if "pt" in classes and sym.is_pt_symmetric:
        return True, ""
    return False, f"wrong symmetry class (needs one of {'/'.join(classes)})"


def identity_report(
    p: Potential,
    k,
    tol_ode: float = DEFAULT_ODE_TOL,
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
    if np.any(ks == 0):
        raise ValueError("k = 0: zero-energy scattering is excluded")
    sym = classify_symmetry(p)
    flat = ks.reshape(-1)
    backend_negk = backend_negk or backend
    if resolve_backend(p, backend) == resolve_backend(p, backend_negk):
        both = transfer_matrices(p, np.column_stack((flat, -flat)).reshape(-1), backend, tol_ode)
        pairs = zip(flat.tolist(), both, both)
    else:
        pairs = zip(flat.tolist(), transfer_matrices(p, flat, backend, tol_ode),
                    transfer_matrices(p, -flat, backend_negk, tol_ode))
    reports = tuple(_report(k, m_k, m_negk, sym) for k, m_k, m_negk in pairs)
    return reports if ks.ndim else reports[0]


def _report(k: float, m_k: TransferMatrix, m_negk: TransferMatrix,
            sym: SymmetryClass) -> IdentityReport:
    """The catalog at (k, -k) from the two transfer matrices and the symmetry class."""
    s_k = scattering_data(m_k)
    s_negk = scattering_data(m_negk)
    if s_k.finite:
        s_k = replace(s_k, phases=phases(s_k, pt_symmetric=sym.is_pt_symmetric))
    ph = s_k.phases

    # identity -> residual, or the reason it cannot be computed
    found: dict[str, float | str] = dict.fromkeys(
        IDENTITY_IDS, "non-finite amplitudes (spectral singularity or overflow)")
    found[NEGK_MATRIX] = residual_negk_matrix(m_k, m_negk)  # needs only the two matrices
    if s_k.finite and s_negk.finite:
        t_modulus, t_conj = residual_t_parity(s_k, s_negk)
        found.update({
            RECIPROCITY_REAL: residual_reciprocity_real(s_k),
            UNITARITY_REAL: residual_unitarity_real(s_k),
            PT_PSEUDO_UNITARITY: residual_pt_pseudo_unitarity(s_k)[0],
            D_PHASE: residual_d_phase(s_k),
            R_NEGK_CONJ: residual_r_negk_conj(s_k, s_negk),
            T_NEGK_CONJ: t_conj,
            T_MODULUS_PARITY: t_modulus,
            RECIPROCITY_GEN: residual_reciprocity_gen(s_k, s_negk),
            GEN_UNITARITY_L: residual_generalized_unitarity(s_k, s_negk, "left"),
            GEN_UNITARITY_R: residual_generalized_unitarity(s_k, s_negk, "right"),
            R_PHASE_REAL: residual_r_phase_real(s_k),
            PT_NEGK_R: residual_pt_negk_r(s_k, s_negk),
        })
        if abs(s_k.D) <= D_FLOOR:
            found[NEGK_AMPLITUDES] = f"|D| = {abs(s_k.D):.2e} below floor"
        else:
            found[NEGK_AMPLITUDES] = max(residual_negk_amplitudes(s_k, s_negk))
        missing = [name for name, val in
                   (("lambda", ph.lam), ("rho", ph.rho), ("tau", ph.tau)) if val is None]
        if missing:
            found[PHASE_SUM_REAL] = found[PHASE_SUM_PT] = \
                f"reflectionless: {'/'.join(missing)} below floor"
        else:
            found[PHASE_SUM_REAL], found[PHASE_SUM_PT] = residual_phase_sums(ph)

    entries = tuple(
        IdentityEntry(identity, None, False, value) if isinstance(value, str)
        else IdentityEntry(identity, value, *_is_claimed(identity, sym))
        for identity, value in found.items()
    )
    return IdentityReport(k, entries, s_k, s_negk, sym)
