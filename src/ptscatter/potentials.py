"""Complex 1D potentials with compact support: layers, samples, analytic families.

Conventions (used throughout the package): wave equation -psi'' + v(x) psi = k^2 psi
with hbar = 2m = 1, so v carries units 1/length^2 and e^{+-ikx} are exact free
solutions. Every potential is treated as identically zero outside its support
interval; analytic families with infinite tails are truncated where |v| drops
below a configurable threshold.
"""
from __future__ import annotations

import cmath
import json
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .kernels import layer_edges

DEFAULT_TRUNCATION = 1e-12
DEFAULT_CLASS_TOL = 1e-10
DEFAULT_CLASS_SAMPLES = 2001
# mode: (the keys its spec may carry, the keys each entry may carry, the required one first)
SPEC_KEYS = {"layers": (("layers", "x0"), ("width", "re", "im")),
             "family": (("family", "params", "truncation"), ()),  # catalog: no truncation
             "samples": (("samples",), ("x", "re", "im"))}


class PotentialError(ValueError):
    """Malformed potential description (construction-time only)."""


@dataclass(frozen=True)
class LayerPotential:
    """Piecewise-constant potential: contiguous slabs left-to-right from x_left.

    An empty layer list is the free (zero) potential; its support degenerates
    to [0, 0] by convention. It owns the number rule (_number) for x_left and
    each width and complex value.
    """

    values: tuple[complex, ...]
    widths: tuple[float, ...]
    x_left: float = 0.0

    kind = "layers"

    def __post_init__(self):
        if len(self.values) != len(self.widths):
            raise PotentialError("values and widths must have equal length")
        x_left = _number(self.x_left, "x_left")
        values = tuple(_number(v, f"layer {i}", complex) for i, v in enumerate(self.values))
        widths = tuple(_number(w, f"layer {i}") for i, w in enumerate(self.widths))
        for i, w in enumerate(widths):
            if not w > 0:
                raise PotentialError(f"layer {i}: width must be positive, got {w}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "x_left", x_left)

    @property
    def edges(self) -> np.ndarray:
        """Layer boundary positions, length n_layers + 1."""
        return layer_edges(self.widths, self.x_left)

    def support_interval(self) -> tuple[float, float]:
        if not self.values:
            return (0.0, 0.0)
        e = self.edges
        return (float(e[0]), float(e[-1]))

    def evaluate(self, x):
        """Value at x (array-friendly). Interior edges take the right layer's value."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        if self.values:
            e = self.edges
            idx = np.searchsorted(e, x, side="right") - 1
            inside = (x >= e[0]) & (x <= e[-1])
            idx = np.clip(idx, 0, len(self.values) - 1)
            vals = np.asarray(self.values, dtype=complex)
            out[inside] = vals[idx[inside]]
        return out if out.shape else complex(out)


@dataclass(frozen=True)
class SampledPotential:
    """Potential given on a strictly increasing grid, piecewise-linear in between.

    It owns the number rule (_number) for each x and each complex value.
    """

    xs: tuple[float, ...]
    vs: tuple[complex, ...]

    kind = "samples"

    def __post_init__(self):
        if len(self.xs) != len(self.vs):
            raise PotentialError("xs and vs must have equal length")
        if len(self.xs) < 2:
            raise PotentialError("at least 2 samples required")
        xs = tuple(_number(x, f"sample {i}") for i, x in enumerate(self.xs))
        vs = tuple(_number(v, f"sample {i}", complex) for i, v in enumerate(self.vs))
        if not np.all(np.diff(xs) > 0):
            raise PotentialError("sample abscissae must be strictly increasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "vs", vs)
        # arrays built once: evaluate runs once per ODE step, and
        # converting the tuples there costs O(len(xs)) per call
        object.__setattr__(self, "_xs", np.asarray(self.xs))
        object.__setattr__(self, "_vs", np.asarray(self.vs, dtype=complex))

    def support_interval(self) -> tuple[float, float]:
        return (self.xs[0], self.xs[-1])

    def evaluate(self, x):
        """Linear interpolation, 0 outside the samples (array-friendly)."""
        x = np.asarray(x, dtype=float)
        xs, vs = self._xs, self._vs
        out = np.interp(x, xs, vs.real) + 1j * np.interp(x, xs, vs.imag)
        out = np.where((x < xs[0]) | (x > xs[-1]), 0.0, out)
        return out if out.shape else complex(out)


def _scarf2(x, v1=1.0, v2=0.5, alpha=1.0):
    """Complexified Scarf II profile: -v1 sech^2(ax) + i v2 sech(ax) tanh(ax)."""
    s = 1.0 / np.cosh(alpha * x)
    return -v1 * s * s + 1j * v2 * s * np.tanh(alpha * x)


def _gaussian(x, height=1.0, width=1.0):
    # u * u, not u ** 2: numpy squares a 0-d array with pow() and a longer array
    # by multiplying, and the two differ in the last bit
    u = x / width
    return height * np.exp(-(u * u))


ANALYTIC_FAMILIES: dict[str, Callable] = {
    "scarf2": _scarf2,
    "gaussian": _gaussian,
}


@dataclass(frozen=True)
class AnalyticPotential:
    """Named analytic profile, numerically truncated where |v| < truncation.

    It owns the number rule (_number) for truncation and each param.
    """

    family: str
    params: dict = field(default_factory=dict)
    truncation: float = DEFAULT_TRUNCATION

    kind = "family"

    def __post_init__(self):
        if self.family not in ANALYTIC_FAMILIES:
            raise PotentialError(
                f"unknown analytic family {self.family!r}; "
                f"known: {sorted(ANALYTIC_FAMILIES)}"
            )
        params = {name: _number(value, f"param {name!r}") for name, value in self.params.items()}
        truncation = _number(self.truncation, "'truncation'")
        if not truncation > 0:
            raise PotentialError("truncation threshold must be positive")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "truncation", truncation)
        try:  # the first profile evaluation also judges the params' names and values
            object.__setattr__(self, "_support", _truncated_support(self._raw, truncation))
        except (TypeError, ArithmeticError) as exc:
            raise PotentialError(f"bad parameters for family {self.family!r}: {exc}") from exc

    def _raw(self, x):
        return ANALYTIC_FAMILIES[self.family](x, **self.params)

    def support_interval(self) -> tuple[float, float]:
        return self._support

    def evaluate(self, x):
        """The profile inside the truncated support, 0 outside (array-friendly)."""
        lo, hi = self._support
        x = np.asarray(x, dtype=float)
        out = np.where((x < lo) | (x > hi), 0.0, self._raw(x))
        return out if out.shape else complex(out)


Potential = LayerPotential | SampledPotential | AnalyticPotential


def _truncated_support(vfun, threshold) -> tuple[float, float]:
    """Interval outside which |v| stays below threshold, found by bisection per side."""

    def edge(sign: float) -> float:
        x = sign * 1.0
        if abs(vfun(x)) <= threshold:
            # walk inward; the profile may be below threshold everywhere
            while abs(x) > 1e-8 and abs(vfun(x)) <= threshold:
                x *= 0.5
            if abs(vfun(x)) <= threshold:
                return 0.0
        hi = x
        for _ in range(200):
            hi *= 2.0
            if abs(vfun(hi)) < threshold:
                break
        else:
            raise PotentialError("potential does not decay below the truncation threshold")
        # |v| > threshold at inner, < threshold at outer; halve until they are adjacent floats
        inner, outer = abs(x), abs(hi)
        while (mid := (inner + outer) / 2) not in (inner, outer):
            if abs(vfun(sign * mid)) > threshold:
                inner = mid
            else:
                outer = mid
        return outer * sign

    lo, hi = edge(-1.0), edge(+1.0)
    if lo == 0.0 and hi == 0.0:
        return (0.0, 0.0)
    return (min(lo, 0.0), max(hi, 0.0))


@dataclass(frozen=True)
class SymmetryClass:
    """Symmetry diagnosis of a potential (see classify_symmetry).

    Flags are tolerance judgements on the sup-norm of the defining residuals:
    realness |Im v|, evenness |v(-x) - v(x)|, PT |v(-x)* - v(x)|.
    """

    is_real: bool
    is_even: bool
    is_pt_symmetric: bool
    real_violation: float
    even_violation: float
    pt_violation: float
    tol: float

    @property
    def has_any(self) -> bool:
        return self.is_real or self.is_even or self.is_pt_symmetric


def classify_symmetry(p: Potential) -> SymmetryClass:
    """Flags from exact sup-norms for layers and samples, a grid for analytic profiles.

    Folded onto x >= 0, the breakpoints cut [0, L], L = max |support edge|, into
    intervals where v(x) and v(-x) are both constant (layers: read at midpoints)
    or both linear (samples: the residual peaks at an end, read from inside the
    interval, so a jump at a support edge counts on its own side). Folded points
    within max(8, n) ulps of L merge, n the number of breakpoints: edges summed
    from n widths may differ from their mirror images by about that much.
    Analytic profiles are read on DEFAULT_CLASS_SAMPLES // 2 midpoints of [0, L].
    """
    tol = DEFAULT_CLASS_TOL
    lo, hi = p.support_interval()
    half = max(abs(lo), abs(hi))
    if half == 0.0:
        return SymmetryClass(True, True, True, 0.0, 0.0, 0.0, tol)
    if p.kind == AnalyticPotential.kind:
        m = DEFAULT_CLASS_SAMPLES // 2
        xs = mids = (np.arange(m) + 0.5) * (half / m)
    else:
        b = _breakpoints(p)
        f = np.unique(np.abs(np.append(b, 0.0)))
        f = f[np.append(True, np.diff(f) > max(8, b.size) * np.spacing(half))]
        xs = mids = (f[:-1] + f[1:]) / 2
        if p.kind == SampledPotential.kind:  # both ends, each masked by its midpoint
            xs, mids = np.concatenate((f[:-1], f[1:])), np.tile(mids, 2)
    v_pos, v_neg = (np.where((lo < s * mids) & (s * mids < hi), p.evaluate(s * xs), 0.0)
                    for s in (1.0, -1.0))
    real_viol = float(max(np.max(np.abs(v_pos.imag)), np.max(np.abs(v_neg.imag))))
    even_viol = float(np.max(np.abs(v_neg - v_pos)))
    pt_viol = float(np.max(np.abs(np.conj(v_neg) - v_pos)))
    return SymmetryClass(
        is_real=real_viol <= tol,
        is_even=even_viol <= tol,
        is_pt_symmetric=pt_viol <= tol,
        real_violation=real_viol,
        even_violation=even_viol,
        pt_violation=pt_viol,
        tol=tol,
    )


def _breakpoints(p: Potential) -> np.ndarray:
    """Sorted points, support ends included, between which v is smooth.

    Layer edges; the ends of each run of samples on one line (slopes compared
    exactly); an analytic profile's support ends.
    """
    if isinstance(p, LayerPotential) and p.values:
        return p.edges
    if isinstance(p, SampledPotential):
        slope = np.diff(p._vs) / np.diff(p._xs)
        kinks = np.nonzero(slope[1:] != slope[:-1])[0] + 1
        return p._xs[np.concatenate(([0], kinks, [len(p.xs) - 1]))]
    return np.array(p.support_interval())


def _number(value, where: str, kind: type = float):
    """`value` as a finite `kind` (float or complex): the number rule each potential owns.

    Any finite real (or complex) number, numpy scalars included: no string, boolean, NaN or inf.
    """
    if type(value) is kind and cmath.isfinite(value):
        return value
    abc = numbers.Complex if kind is complex else numbers.Real
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, abc):
        raise PotentialError(f"{where}: malformed number: expected a JSON number, got {value!r}")
    try:
        value = kind(value)
    except OverflowError as exc:
        raise PotentialError(f"{where}: malformed number: {exc}") from exc
    if not cmath.isfinite(value):
        raise PotentialError(f"{where}: non-finite value {value}")
    return value


def _known_keys(obj, allowed: tuple[str, ...], where: str) -> None:
    """Refuse obj unless it is an object with key allowed[0] and no key outside allowed."""
    if not isinstance(obj, dict) or allowed[0] not in obj:
        raise PotentialError(f"{where}: expected an object with field '{allowed[0]}'")
    if unknown := [key for key in obj if key not in allowed]:
        raise PotentialError(f"{where}: unknown key {unknown[0]!r}; allowed: {', '.join(allowed)}")


def _entries(doc: dict, mode: str, name: str) -> tuple[tuple, tuple[complex, ...]]:
    """Each entry's required field, unconverted, and its "re" + i "im" (0 when absent).

    A missing, unknown or malformed field (SPEC_KEYS[mode]) raises naming "<name> <index>".
    """
    entries = doc[mode]
    if not isinstance(entries, list):
        raise PotentialError(f"'{mode}' must be a list")
    allowed = SPEC_KEYS[mode][1]
    fields, values = [], []
    for i, entry in enumerate(entries):
        where = f"{name} {i}"
        _known_keys(entry, allowed, where)
        fields.append(entry[allowed[0]])
        values.append(complex(_number(entry.get("re", 0.0), where),
                              _number(entry.get("im", 0.0), where)))
    return tuple(fields), tuple(values)


def parse_potential_spec(text: str) -> Potential:
    """Parse the JSON potential format (see the format reference in the README).

    Accepts one of:
      {"layers": [{"re":..., "im":..., "width":...}, ...], "x0": ...}
      {"family": "...", "params": {...}}            # analytic or catalog name
      {"samples": [{"x":..., "re":..., "im":...}, ...]}
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PotentialError(f"potential spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise PotentialError("potential spec must be a JSON object")
    keys = [key for key in SPEC_KEYS if key in doc]
    if len(keys) != 1:
        raise PotentialError(
            "potential spec must contain exactly one of 'layers', 'family', 'samples'"
        )
    mode = keys[0]
    _known_keys(doc, SPEC_KEYS[mode][0], "potential spec")
    if mode == "layers":
        widths, values = _entries(doc, mode, "layer")
        return LayerPotential(values, widths, _number(doc.get("x0", 0.0), "'x0'"))
    if mode == "samples":
        return SampledPotential(*_entries(doc, mode, "sample"))
    family = doc["family"]
    if not isinstance(family, str):
        raise PotentialError("'family' must be a string")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise PotentialError("'params' must be an object")
    if family in ANALYTIC_FAMILIES:
        return AnalyticPotential(family, params, doc.get("truncation", DEFAULT_TRUNCATION))
    # catalog names (layer builders) are accepted through the same syntax
    from .catalog import builtin_potential, builtin_potentials

    if family in builtin_potentials():
        _known_keys(doc, ("family", "params"), "potential spec")
        return builtin_potential(family, **params)
    raise PotentialError(
        f"unknown analytic family {family!r}; known families: "
        f"{sorted(ANALYTIC_FAMILIES)}, catalog: {sorted(builtin_potentials())}"
    )
