"""Named example potentials used by the CLI, the docs, and the test corpus."""
from __future__ import annotations

from typing import Callable

from .potentials import (
    AnalyticPotential,
    LayerPotential,
    Potential,
    PotentialError,
    _number,
)


def free() -> LayerPotential:
    """The zero potential."""
    return LayerPotential((), (), 0.0)


def barrier(v0: float = 2.0, half_width: float = 1.0) -> LayerPotential:
    """Real even barrier v0 on [-half_width, half_width]."""
    return LayerPotential((v0,), (2.0 * half_width,), -half_width)


def double_barrier(v1: float = 2.0, v2: float = 3.0, w1: float = 1.0,
                   gap: float = 0.8, w2: float = 0.7, x0: float = -1.5) -> LayerPotential:
    """Two real barriers separated by a gap; deliberately not centered (real, not even)."""
    return LayerPotential((v1, 0.0, v2), (w1, gap, w2), x0)


def pt_bilayer(gamma: float = 0.5, a: float = 1.0) -> LayerPotential:
    """Balanced gain/loss pair: +i gamma on (-a, 0), -i gamma on (0, a)."""
    return LayerPotential((1j * gamma, -1j * gamma), (a, a), -a)


def pt_stack4(gamma: float = 1.2, w: float = 0.5,
              base1: float = 1.0, base2: float = 2.0) -> LayerPotential:
    """Four-layer PT stack [b1 + ig, b2 - ig, b2 + ig, b1 - ig] on [-2w, 2w]."""
    return LayerPotential(
        (base1 + 1j * gamma, base2 - 1j * gamma, base2 + 1j * gamma, base1 - 1j * gamma),
        (w, w, w, w),
        -2.0 * w,
    )


def onesided(gamma: float = 1.0, width: float = 1.0) -> LayerPotential:
    """One-sided absorptive layer i gamma on [0, width]: no symmetry class at all."""
    return LayerPotential((1j * gamma,), (width,), 0.0)


def scarf2(v1: float = 1.0, v2: float = 0.5, alpha: float = 1.0,
           truncation: float = 1e-12) -> AnalyticPotential:
    """Complexified Scarf II profile, PT-symmetric for real v1, v2."""
    return AnalyticPotential("scarf2", {"v1": v1, "v2": v2, "alpha": alpha}, truncation)


_CATALOG: dict[str, Callable[..., Potential]] = {
    "free": free,
    "barrier": barrier,
    "double-barrier": double_barrier,
    "pt-bilayer": pt_bilayer,
    "pt-stack4": pt_stack4,
    "onesided": onesided,
    "scarf2-pt": scarf2,
}


def builtin_potentials() -> dict[str, Callable[..., Potential]]:
    """Name -> constructor map of the built-in corpus."""
    return dict(_CATALOG)


def builtin_potential(name: str, /, **params) -> Potential:
    """The catalog potential `name`; params pass _number first, as 1j * True hides a boolean."""
    if name not in _CATALOG:
        raise PotentialError(f"unknown built-in potential {name!r}; known: {sorted(_CATALOG)}")
    params = {key: _number(value, f"param {key!r}") for key, value in params.items()}
    try:
        return _CATALOG[name](**params)
    except TypeError as exc:
        raise PotentialError(f"bad parameters for {name!r}: {exc}") from exc


def corpus() -> dict[str, Potential]:
    """The default-parameter instances used throughout the test suite."""
    return {name: ctor() for name, ctor in _CATALOG.items()}
