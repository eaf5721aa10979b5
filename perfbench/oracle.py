"""Independent reference values for checking ptscatter outputs.

Layer potentials: the slab product evaluated in mpmath at a working precision
raised by the decimal digits the product can grow by, together with a
first-order rounding-error bound for a float64 evaluation of the same product
(Higham-style: |E| <= gamma |W_r^-1| |P_n| ... |P_1| |W_l| entrywise). The bound
turns into a per-amplitude tolerance, so thick or opaque stacks get a tolerance
that follows their conditioning instead of a fixed absolute floor.

Smooth potentials: this module's own DOP853 integration of the wave equation
with its own profile formulas, at a tighter tolerance than the program uses.
"""
from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp

UNIT_ROUNDOFF = 2.0 ** -53
ERROR_SAFETY = 32.0
TINY = 1e-300  # below this a float64 result may legitimately underflow to 0
OVERFLOW_LOG10 = 300.0  # beyond this a float64 evaluation cannot represent M


class LayerOracle:
    """M(k), amplitudes and their float64 error bounds for one layer stack."""

    def __init__(self, values, widths, x0):
        self.values = [complex(v) for v in values]
        self.widths = [float(w) for w in widths]
        self.x0 = float(x0)

    def _gamma(self, k: float) -> float:
        """Relative rounding budget: one unit per factor plus the conditioning of the
        trigonometric and exponential arguments, which float64 rounds before use."""
        args = sum(abs(cmath.sqrt(k * k - v)) * w for v, w in zip(self.values, self.widths))
        span = abs(k) * (abs(self.x0) + abs(self.x0 + sum(self.widths)))
        return ERROR_SAFETY * UNIT_ROUNDOFF * (len(self.values) + 4 + args + span)

    @classmethod
    def from_spec(cls, spec: dict) -> "LayerOracle":
        layers = spec["layers"]
        return cls([complex(l.get("re", 0.0), l.get("im", 0.0)) for l in layers],
                   [l["width"] for l in layers], spec.get("x0", 0.0))

    def _product(self, k, absolute: bool):
        """W_r^-1 P_n ... P_1 W_l as a 2x2 mpmath matrix (entrywise |.| if absolute)."""
        k = mp.mpf(k)
        x_left = mp.mpf(self.x0)
        x_right = x_left + mp.fsum(mp.mpf(w) for w in self.widths)
        f = abs if absolute else (lambda z: z)
        p = mp.matrix([[1, 0], [0, 1]])
        for v, w in zip(self.values, self.widths):
            kap = mp.sqrt(k * k - mp.mpc(v.real, v.imag))
            z = kap * mp.mpf(w)
            c = mp.cos(z)
            s = mp.sin(z) / kap if z != 0 else mp.mpf(w)
            layer = mp.matrix([[f(c), f(s)], [f(-kap * kap * s), f(c)]])
            p = layer * p
        ik = mp.mpc(0, 1) * k
        el, er = mp.exp(ik * x_left), mp.exp(ik * x_right)
        w_left = mp.matrix([[f(el), f(1 / el)], [f(ik * el), f(-ik / el)]])
        w_right_inv = mp.matrix([[f(1 / (2 * er)), f(1 / (2 * ik * er))],
                                 [f(er / 2), f(-er / (2 * ik))]])
        return w_right_inv * p * w_left

    def evaluate(self, k: float) -> dict:
        """Reference M and amplitudes at k, plus float64 tolerances for each."""
        with mp.workdps(20):
            bound = self._product(k, absolute=True)
            growth = max(abs(bound[i, j]) for i in range(2) for j in range(2))
            log10_growth = float(mp.log10(growth)) if growth > 0 else 0.0
        with mp.workdps(30 + max(0, int(log10_growth))):
            m = self._product(k, absolute=False)
            m11, m12, m21, m22 = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
            a22 = abs(m22)
            t = 1 / m22
            r_left = -m21 / m22
            r_right = m12 / m22
            d = m11 / m22
            g = self._gamma(k)
            tol_t = g * bound[1, 1] / (a22 * a22)
            tol_rl = g * (bound[1, 0] + abs(r_left) * bound[1, 1]) / a22
            tol_rr = g * (bound[0, 1] + abs(r_right) * bound[1, 1]) / a22
            # the program forms D = T^2 - R_l R_r, so its error composes from the parts
            tol_d = (2 * abs(t) * tol_t + abs(r_left) * tol_rr + abs(r_right) * tol_rl
                     + 4 * UNIT_ROUNDOFF * (abs(t) ** 2 + abs(r_left * r_right)))
            amps = {"T": t, "R_left": r_left, "R_right": r_right, "D": d}
            tols = {"T": tol_t, "R_left": tol_rl, "R_right": tol_rr, "D": tol_d}
            return {
                "abs_m22": float(a22) if a22 < mp.mpf(1e300) else math.inf,
                "log10_growth": log10_growth,
                "amplitudes": {name: _to_complex(z) for name, z in amps.items()},
                "tolerances": {name: _tolerance(tols[name], amps[name]) for name in amps},
            }


def _to_complex(z) -> complex:
    """Nearest float64 complex, with magnitudes beyond float range kept as inf."""
    try:
        return complex(z)
    except OverflowError:
        return complex(math.inf, math.inf)


def _tolerance(tol, value) -> float:
    """Error bound plus final rounding, floored at the float64 underflow scale."""
    total = tol + 4 * UNIT_ROUNDOFF * abs(value)
    return max(float(total) if total < mp.mpf(1e300) else math.inf, TINY)


def amplitude_mismatches(got: dict, ref: dict) -> list[str]:
    """Names of amplitudes whose float64 value misses the reference by more than its bound."""
    bad = []
    for name, want in ref["amplitudes"].items():
        have = got[name]
        diff = abs(complex(have) - want) if cmath.isfinite(want) else math.inf
        if not diff <= ref["tolerances"][name]:
            bad.append(f"{name}: got {have}, oracle {want}, |diff| {diff:.3e} > "
                       f"tol {ref['tolerances'][name]:.3e}")
    return bad


# --- smooth potentials ---------------------------------------------------------


def profile(spec: dict):
    """Vectorized v(x) and the support interval, from the spec's own formulas."""
    if "samples" in spec:
        xs = np.array([s["x"] for s in spec["samples"]], dtype=float)
        vs = np.array([complex(s.get("re", 0.0), s.get("im", 0.0)) for s in spec["samples"]])

        def v(x):
            inside = (x >= xs[0]) & (x <= xs[-1])
            return np.where(inside, np.interp(x, xs, vs.real) + 1j * np.interp(x, xs, vs.imag), 0)

        return v, float(xs[0]), float(xs[-1]), list(xs)
    params = spec.get("params", {})
    if spec.get("family") == "gaussian":
        h, w = params.get("height", 1.0), params.get("width", 1.0)

        def v(x):
            return h * np.exp(-((x / w) ** 2)) + 0j

        # |v| < 1e-12 beyond |x| = w sqrt(ln(|h|/1e-12))
        half = w * math.sqrt(math.log(abs(h) / 1e-12))
        return v, -half, half, []
    if spec.get("family") == "scarf2":
        v1, v2, a = params.get("v1", 1.0), params.get("v2", 0.5), params.get("alpha", 1.0)

        def v(x):
            s = 1.0 / np.cosh(a * x)
            return -v1 * s * s + 1j * v2 * s * np.tanh(a * x)

        # |v| ~ (|v2| + 2|v1|) e^{-a|x|} in the tails
        half = math.log((abs(v2) + 2 * abs(v1)) / 1e-12) / a
        return v, -half, half, []
    raise ValueError(f"no smooth oracle for spec {spec}")


def ode_amplitudes(spec: dict, k: float, rtol: float = 1e-12) -> dict:
    """T, R_left, R_right at k by integrating psi'' = (v - k^2) psi across the support.

    The support is cut at the sample abscissae so no step crosses a kink. The
    truncated tails beyond the support carry |v| < 1e-12 and change the
    amplitudes by far less than the check tolerance.
    """
    v, lo, hi, knots = profile(spec)
    cuts = sorted({lo, hi, *[x for x in knots if lo < x < hi]})

    def rhs(x, y):
        g = v(np.asarray(x)) - k * k
        return np.array([y[1], g * y[0], y[3], g * y[2]])

    el = cmath.exp(1j * k * lo)
    y = np.array([el, 1j * k * el, 1 / el, -1j * k / el], dtype=complex)
    for a, b in zip(cuts[:-1], cuts[1:]):
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=rtol, atol=rtol * 1e-2)
        if not sol.success:
            raise RuntimeError(f"oracle integration failed at k={k}: {sol.message}")
        y = sol.y[:, -1]
    er = cmath.exp(1j * k * hi)
    ik = 1j * k
    m12 = (y[2] / 2 + y[3] / (2 * ik)) / er
    m21 = (y[0] / 2 - y[1] / (2 * ik)) * er
    m22 = (y[2] / 2 - y[3] / (2 * ik)) * er
    return {"T": 1 / m22, "R_left": -m21 / m22, "R_right": m12 / m22}
