"""Output checks for benchmark ops; each returns a list of problems (empty = pass).

The checks run outside the timed region and parse outputs with the standard
library, except that every sweep document is also read back once through the
``ptscatter.io`` readers (the read side of the io layer).
"""
from __future__ import annotations

import csv
import io
import json
import math

import oracle
from workloads import VERIFY_TOL, Op

SINGULARITY_FLOOR = 1e-12  # |M22| below which a row may be reported non-finite
ACCEPTANCE_FLOOR = 1e-8  # the largest residual scan may accept
# ODE-backend amplitudes, relative to max(1, |amp|). The program's ODE tolerance
# (1e-10) is local; sampled profiles integrate across their kinks, and their
# global errors reach ~5e-8 (smooth profiles ~3e-9).
ODE_CHECK_RTOL = 1e-6
SCAN_KINDS = {"spectral_singularity", "reflectionless_left", "reflectionless_right",
              "bidirectional_reflectionless", "invisible_left", "invisible_right"}
AMPLITUDES = ("T", "R_left", "R_right", "D")


class Reference:
    """Oracle values for one op's potential, cached per k."""

    def __init__(self, op: Op):
        self.op = op
        self.layers = oracle.LayerOracle.from_spec(op.spec) if "layers" in op.spec else None
        self._cache: dict = {}

    def at(self, k: float) -> dict:
        if k not in self._cache:
            self._cache[k] = self._evaluate(k)
        return self._cache[k]

    def _evaluate(self, k):
        if self.layers is not None:
            return self.layers.evaluate(k)
        amps = oracle.ode_amplitudes(self.op.spec, k)
        amps["D"] = amps["T"] ** 2 - amps["R_left"] * amps["R_right"]
        return {"amplitudes": amps, "abs_m22": abs(1 / amps["T"]), "log10_growth": 0.0}

    def at_ode_tolerance(self, k: float) -> dict:
        """Reference at k with tolerances for amplitudes the program's ODE backend produced."""
        ref = self.at(k)
        return dict(ref, tolerances={n: ODE_CHECK_RTOL * max(1.0, abs(a))
                                     for n, a in ref["amplitudes"].items()})

    def amplitude_problems(self, k: float, got: dict, finite: bool, from_ode: bool) -> list[str]:
        ref = self.at_ode_tolerance(k) if from_ode else self.at(k)
        if not finite:
            if ref["abs_m22"] <= SINGULARITY_FLOOR or ref["log10_growth"] > oracle.OVERFLOW_LOG10:
                return []  # an explicit refusal is a correct answer here
            return [f"k={k!r}: marked non-finite but oracle |M22| = {ref['abs_m22']:.3e}"]
        return [f"k={k!r}: {p}" for p in oracle.amplitude_mismatches(got, ref)]

    def objective(self, kind: str, k: float, from_ode: bool) -> tuple[float, float]:
        """Reference value of the quantity a scan feature of this kind minimizes, and its tolerance."""
        ref = self.at_ode_tolerance(k) if from_ode else self.at(k)
        amps, tols = ref["amplitudes"], ref["tolerances"]
        if kind == "spectral_singularity":
            return 1.0 / abs(amps["T"]), tols["T"] / abs(amps["T"]) ** 2
        side = "R_right" if kind.endswith("right") else "R_left"
        value, tol = abs(amps[side]), tols[side]
        if kind.startswith("invisible"):
            value += abs(amps["T"] - 1.0)
            tol += tols["T"]
        return value, tol


def _finite(*zs) -> bool:
    return all(math.isfinite(z.real) and math.isfinite(z.imag) for z in zs)


def check_sweep(op: Op, text: str, ptscatter_io, ref: Reference) -> list[str]:
    reader = ptscatter_io.sweep_from_csv if op.fmt == "csv" else ptscatter_io.sweep_from_json
    try:
        result = reader(text)
    except (ValueError, KeyError) as exc:
        return [f"unreadable sweep output: {exc}"]
    rows = result.rows
    grid = op.k_grid
    if len(rows) != grid.size:
        return [f"{len(rows)} rows for {grid.size} k"]
    problems = []
    if any(r.k != k for r, k in zip(rows, grid)):
        problems.append("row k values differ from the requested grid")
    bad = [r.k for r in rows if r.finite and not _finite(r.T, r.R_left, r.R_right, r.D)]
    if bad:
        problems.append(f"{len(bad)} rows marked finite have non-finite amplitudes "
                        f"(first k={bad[0]!r})")
    if result.errors:
        problems.append(f"{len(result.errors)} per-row errors, first: {result.errors[0]}")
    from_ode = op.backend == "ode"
    for i in op.oracle_k:
        r = rows[i]
        got = {"T": r.T, "R_left": r.R_left, "R_right": r.R_right, "D": r.D}
        problems += ref.amplitude_problems(float(grid[i]), got, r.finite, from_ode)
    return problems


def _j2c(obj) -> complex:
    return complex(obj["re"], obj["im"])


SYMMETRY_FLAGS = {"real": {"is_real": True}, "even": {"is_real": True, "is_even": True},
                  "pt": {"is_pt_symmetric": True}}


def check_verify(op: Op, text: str, rc: int, ref: Reference) -> list[str]:
    try:
        doc = json.loads(text)
        reports = doc["reports"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable verify output: {exc}"]
    grid = op.k_grid
    if len(reports) != grid.size:
        return [f"{len(reports)} reports for {grid.size} k"]
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0 (all applicable identities hold)")
    failing: dict[str, int] = {}
    for rep in reports:
        for e in rep["entries"]:
            res = e["residual"]
            # NaN fails both comparisons, so it counts as a failure here
            if e["applicable"] and res is not None and not (math.isfinite(res) and res <= VERIFY_TOL):
                failing[e["identity"]] = failing.get(e["identity"], 0) + 1
    if failing:
        problems.append("applicable residuals non-finite or above tol: " +
                        ", ".join(f"{k} x{v}" for k, v in sorted(failing.items())))
    if any(rep["k"] != k for rep, k in zip(reports, grid)):
        problems.append("report k values differ from the requested grid")
    for flag, want in SYMMETRY_FLAGS.get(op.symmetry, {}).items():
        if any(rep["symmetry"][flag] != want for rep in reports):
            problems.append(f"symmetry flag {flag} is not {want}")
            break
    from_ode = op.backend == "ode"
    for i in op.oracle_k:
        s = reports[i]["scattering"]
        got = {name: _j2c(s[name]) for name in AMPLITUDES}
        problems += ref.amplitude_problems(float(grid[i]), got, s["finite"], from_ode)
    return problems


def check_scan(op: Op, text: str, ref: Reference) -> list[str]:
    try:
        rows = list(csv.DictReader(io.StringIO(text)))
    except csv.Error as exc:
        return [f"unreadable scan output: {exc}"]
    lo, hi, _ = op.k_range
    problems = []
    from_ode = op.backend == "ode"
    found = []
    for row in rows:
        try:
            kind, k_star, residual = row["kind"], float(row["k_star"]), float(row["residual"])
            bracket = (float(row["bracket_lo"]), float(row["bracket_hi"]))
        except (KeyError, TypeError, ValueError) as exc:
            return [f"malformed scan row {row}: {exc}"]
        found.append(k_star)
        if kind not in SCAN_KINDS:
            problems.append(f"unknown feature kind {kind!r}")
            continue
        slack = 1e-12 * hi  # the program's grid may end a rounding step past k_max
        if not (lo <= bracket[0] <= k_star <= bracket[1] <= hi + slack):
            problems.append(f"{kind} at k={k_star!r} outside its bracket {bracket} or the range")
        if kind == "bidirectional_reflectionless":
            value, tol = min(ref.objective("reflectionless_left", k_star, from_ode),
                             ref.objective("reflectionless_right", k_star, from_ode))
        else:
            value, tol = ref.objective(kind, k_star, from_ode)
        if not (abs(value - residual) <= tol and value <= ACCEPTANCE_FLOOR + tol):
            problems.append(f"{kind} at k={k_star!r}: residual {residual:.3e}, "
                            f"oracle {value:.3e} (tol {tol:.1e})")
    if op.expect_feature_at is not None and not any(
            abs(k - op.expect_feature_at) <= 1e-6 for k in found):
        problems.append(f"no feature reported at the resonance k={op.expect_feature_at!r}")
    return problems


def check_op(op: Op, rc: int, text: str | None, ptscatter_io, ref: Reference) -> list[str]:
    """All problems with one op's result; the exit code is checked per command."""
    if text is None:
        return [f"no output written (exit code {rc})"]
    if op.command == "verify":
        return check_verify(op, text, rc, ref)
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if op.command == "sweep":
        return problems + check_sweep(op, text, ptscatter_io, ref)
    return problems + check_scan(op, text, ref)

