"""Seeded op generators for the benchmark workloads.

A workload is a sequence of rounds. Every round has the same fixed schedule of
op sizes (layer counts, grid sizes, output formats, backends), so the mix and
hence the latency percentiles do not depend on the seed; the seed draws the
potential values, widths, k ranges and the order of ops within the round.
Every round draws fresh potentials, so no two rounds share work.

Each round also carries a fixed share of ops marked ``known_defect``: opaque
layer stacks whose slab product overflows float64 (kappa * width around 1000),
and in ode-smooth a verify whose reflections are too small for its absolute
phase tolerance. Their failures are counted like any other; the mark only lets
the run report them apart from unexpected failures.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("sweep-layers", "verify-scan-layers", "ode-smooth")
LAYER_COUNTS = (2, 4, 8, 16, 32, 64)
STACK_LENGTH = 6.0
VERIFY_TOL = 1e-8


@dataclass
class Op:
    """One ptscatter command, the inputs it reads and what its output must satisfy."""

    name: str
    command: str  # sweep | verify | scan
    spec: dict
    k_range: tuple[float, float, int]
    backend: str
    fmt: str = "csv"
    kpts: int = 0
    symmetry: str | None = None  # real | even | pt: flags verify must report
    oracle_k: tuple[int, ...] = ()  # grid indices checked against the oracle
    expect_feature_at: float | None = None  # k of a feature the scan must find
    known_defect: bool = False
    extra: list = field(default_factory=list)

    def argv(self, potential_path: str, out_path: str) -> list[str]:
        lo, hi, n = self.k_range
        argv = [self.command, "--potential", potential_path,
                "--k-range", f"{lo!r}:{hi!r}:{n}", "--backend", self.backend,
                "--format", self.fmt, "--out", out_path]
        if self.command == "verify":
            argv += ["--tol", repr(VERIFY_TOL)]
        return argv + self.extra

    @property
    def k_grid(self) -> np.ndarray:
        lo, hi, n = self.k_range
        return np.linspace(lo, hi, n)


# --- potential specs -------------------------------------------------------------


def _layers_spec(values, widths, x0) -> dict:
    return {"layers": [{"re": float(v.real), "im": float(v.imag), "width": float(w)}
                       for v, w in zip(values, widths)], "x0": float(x0)}


def layer_stack(rng, n: int, kind: str) -> dict:
    """Random stack of total length STACK_LENGTH.

    real: independent real layers; even: a real half mirrored about x = 0;
    pt: a complex half mirrored with conjugated values, so v(-x) = v(x)*.
    Widths are drawn, not equal, so no layer edge falls on the fixed sampling
    grid of the program's symmetry classifier.
    """
    if kind == "real":
        widths = rng.uniform(0.5, 1.5, n)
        widths *= STACK_LENGTH / widths.sum()
        values = rng.uniform(-1.0, 1.0, n) + 0j
        return _layers_spec(values, widths, -STACK_LENGTH / 2)
    half = n // 2
    hw = rng.uniform(0.5, 1.5, half)
    hw *= STACK_LENGTH / 2 / hw.sum()
    hv = rng.uniform(-1.0, 1.0, half) + 0j
    if kind == "pt":
        hv = hv + 1j * rng.uniform(-0.4, 0.4, half)
    left = np.conj(hv[::-1]) if kind == "pt" else hv[::-1]
    widths = np.concatenate([hw[::-1], hw])
    return _layers_spec(np.concatenate([left, hv]), widths, -float(hw.sum()))


def opaque_stack(rng) -> dict:
    """One thick real barrier with kappa * width between about 900 and 1400.

    The opaque-layer example {"layers":[{"re":10000,"width":10}],"x0":-5}
    lies inside this family.
    """
    height = float(rng.uniform(8000.0, 14000.0))
    width = float(rng.uniform(10.0, 12.0))
    return {"layers": [{"re": height, "width": width}], "x0": -width / 2}


def gaussian_spec(rng) -> dict:
    return {"family": "gaussian",
            "params": {"height": float(rng.uniform(0.5, 2.0)),
                       "width": float(rng.uniform(0.8, 1.0))}}


def scarf2_spec(rng) -> dict:
    return {"family": "scarf2",
            "params": {"v1": float(rng.uniform(0.5, 1.5)), "v2": float(rng.uniform(0.2, 0.6)),
                       "alpha": float(rng.uniform(1.1, 1.3))}}


def sampled_spec(rng, kind: str) -> dict:
    """Smooth bump sampled on a symmetric grid; kind real or pt (odd imaginary part)."""
    n, half = 13, 2.5
    height = float(rng.uniform(0.5, 1.5))
    gain = float(rng.uniform(0.2, 0.5)) if kind == "pt" else 0.0
    xs = np.linspace(-half, half, n)
    bump = height * np.exp(-(xs / (0.4 * half)) ** 2)
    odd = gain * (xs / half) * np.exp(-(xs / (0.4 * half)) ** 2)
    return {"samples": [{"x": float(x), "re": float(r), "im": float(i)}
                        for x, r, i in zip(xs, bump, odd)]}


# PT-symmetric sampled bump whose reflections at k ~ 3 are 1e-4..1e-3: verify's
# absolute 1e-8 bound on the reflection-phase identities (PHASE_SUM_PT) then
# fails on ODE errors of ~1e-9 in R, although the identities hold exactly.
SMALL_R_SPEC = {"samples": [{"x": float(x), "re": float(np.exp(-x * x)),
                             "im": float(0.3 * x * np.exp(-x * x))}
                            for x in np.linspace(-3.0, 3.0, 13)]}


def resonant_barrier(rng) -> tuple[dict, float]:
    """Real barrier and its first transmission resonance k with sqrt(k^2 - v0) w = pi."""
    v0 = float(rng.uniform(1.0, 3.0))
    width = float(rng.uniform(1.2, 2.0))
    return ({"layers": [{"re": v0, "width": width}], "x0": -width / 2},
            math.sqrt(v0 + (math.pi / width) ** 2))


# --- rounds ------------------------------------------------------------------------


def _k_span(rng, lo=(0.3, 0.8), span=3.0):
    """Seeded start, fixed length: the cost of an op depends on its k span."""
    start = float(rng.uniform(*lo))
    return start, start + span


def _oracle_picks(rng, n_grid, count):
    return tuple(sorted(int(i) for i in rng.choice(n_grid, size=min(count, n_grid),
                                                   replace=False)))


# sweep-layers: (grid points, format, layers); one opaque op per round
SWEEP_SCHEDULE = (
    [(2000, fmt, LAYER_COUNTS[i % 6]) for i, fmt in enumerate(["csv", "json"] * 4)]
    + [(3000, fmt, LAYER_COUNTS[(i + 2) % 6]) for i, fmt in enumerate(["csv", "json"] * 2 + ["csv"])]
    + [(4000, fmt, LAYER_COUNTS[(i + 1) % 6]) for i, fmt in enumerate(["json", "csv"] * 2)]
    + [(6000, "csv", 16), (6000, "json", 4), (6000, "csv", 64)]
    # four equal ops above the rest, so that p90 falls inside one cluster of
    # like ops instead of between two different ones
    + [(8000, "json", n) for n in (2, 8, 32, 64)]
    + [(20000, "json", 64)]
)
SYM_KINDS = ("real", "pt", "even")


def sweep_round(rng, r: int) -> list[Op]:
    ops = []
    for i, (n_k, fmt, n_layers) in enumerate(SWEEP_SCHEDULE):
        kind = SYM_KINDS[i % 3]
        lo, hi = _k_span(rng)
        ops.append(Op(f"r{r}.sweep.{kind}{n_layers}L.{n_k}k.{fmt}", "sweep",
                      layer_stack(rng, n_layers, kind), (lo, hi, n_k), "stack", fmt,
                      kpts=n_k, oracle_k=_oracle_picks(rng, n_k, 3)))
    lo, hi = _k_span(rng)
    ops.append(Op(f"r{r}.sweep.opaque1L.2000k.csv", "sweep", opaque_stack(rng),
                  (lo, hi, 2000), "stack", "csv", kpts=2000,
                  oracle_k=_oracle_picks(rng, 2000, 3), known_defect=True))
    rng.shuffle(ops)
    return ops


# verify-scan-layers: (layers, verify k count, scan grid points), one verify + one scan each.
# The first four verifies cost about the same and more than any other op, so
# p90 falls inside that group; the last four also cost about the same and sit
# at the middle of the round, where p50 falls.
VERIFY_SCAN_SCHEDULE = (
    (2, 480, 2000), (16, 260, 800), (32, 170, 500), (64, 100, 941),
    (4, 300, 1500), (8, 200, 1000), (64, 50, 300), (32, 60, 300),
    (2, 135, 1000), (4, 110, 600), (8, 100, 400), (16, 75, 2000),
)


def verify_scan_round(rng, r: int) -> list[Op]:
    ops = []
    for i, (n_layers, n_verify, n_scan) in enumerate(VERIFY_SCAN_SCHEDULE):
        kind = ("pt", "even", "real")[i % 3]
        spec = layer_stack(rng, n_layers, kind)
        lo, hi = _k_span(rng)
        slo, shi = lo + 0.5, hi
        tag = f"{kind}{n_layers}L"
        ops.append(Op(f"r{r}.verify.{tag}.{n_verify}k", "verify", spec, (lo, hi, n_verify),
                      "stack", "json", kpts=n_verify, symmetry=kind,
                      oracle_k=_oracle_picks(rng, n_verify, 2)))
        ops.append(Op(f"r{r}.scan.{tag}.{n_scan}k", "scan", spec, (slo, shi, n_scan),
                      "stack", "csv", kpts=n_scan))
    spec = opaque_stack(rng)
    lo, hi = _k_span(rng)
    ops.append(Op(f"r{r}.verify.opaque1L.50k", "verify", spec, (lo, hi, 50), "stack", "json",
                  kpts=50, symmetry="even", oracle_k=_oracle_picks(rng, 50, 2),
                  known_defect=True))
    ops.append(Op(f"r{r}.scan.opaque1L.300k", "scan", spec, (lo, hi, 300), "stack", "csv",
                  kpts=300, known_defect=True))
    rng.shuffle(ops)
    return ops


def ode_round(rng, r: int) -> list[Op]:
    ops = []

    def add(label, command, spec, span, n, backend="ode", **kw):
        ops.append(Op(f"r{r}.{command}.{label}.{n}k.{backend}", command, spec,
                      (span[0], span[1], n), backend, "json" if command == "verify" else "csv",
                      kpts=n, **kw))

    add("gaussian", "sweep", gaussian_spec(rng), _k_span(rng), 6, oracle_k=(int(rng.integers(6)),))
    add("gaussian", "sweep", gaussian_spec(rng), _k_span(rng), 4, oracle_k=(int(rng.integers(4)),))
    add("scarf2", "sweep", scarf2_spec(rng), _k_span(rng), 2, oracle_k=(int(rng.integers(2)),))
    add("sampled-real", "sweep", sampled_spec(rng, "real"), _k_span(rng), 2,
        oracle_k=(int(rng.integers(2)),))
    add("sampled-pt", "sweep", sampled_spec(rng, "pt"), _k_span(rng), 2,
        oracle_k=(int(rng.integers(2)),))
    # verify holds the identities to an absolute 1e-8, and the reflection-phase
    # identities amplify an amplitude error by 1/|R|. So the seeded ODE verifies
    # stay at k <= 1.4 (|R| >= ~2e-3) and run the ODE at 1e-12 (worst residual
    # seen ~3e-11). The small-|R| regime at default settings is the known-defect op.
    low_k = {"lo": (0.3, 0.6), "span": 0.8}
    tight = ["--ode-tol", "1e-12"]
    add("gaussian", "verify", gaussian_spec(rng), _k_span(rng, **low_k), 2, symmetry="even",
        oracle_k=(int(rng.integers(2)),), extra=tight)
    add("scarf2", "verify", scarf2_spec(rng), _k_span(rng, **low_k), 2, symmetry="pt",
        extra=tight)
    add("sampled-real", "verify", sampled_spec(rng, "real"), _k_span(rng, **low_k), 2,
        symmetry="even", extra=tight)
    add("sampled-pt-small-R", "verify", SMALL_R_SPEC, (2.9, 3.0), 2, symmetry="pt",
        known_defect=True)
    add("gaussian", "scan", gaussian_spec(rng), _k_span(rng, span=1.5), 4)
    add("scarf2", "scan", scarf2_spec(rng), _k_span(rng, span=1.5), 3)
    # the three costliest ops of the round, alike, so p90 falls inside their group
    for _ in range(3):
        add("sampled-real", "scan", sampled_spec(rng, "real"), _k_span(rng, span=1.5), 3)
    spec, k_res = resonant_barrier(rng)
    step = 0.04
    centre = k_res + step * float(rng.uniform(-0.3, 0.3))
    add("barrier", "scan", spec, (centre - 2 * step, centre + 2 * step), 5,
        expect_feature_at=k_res)
    for n_layers in (2, 4):
        kind = ("pt", "even")[n_layers // 4]
        # NEGK_MATRIX compares stack and ODE entries of M(-k) against an absolute
        # 1e-8, so the ODE side runs at 1e-12 (worst residual seen ~3e-10)
        add(f"{kind}{n_layers}L", "verify", layer_stack(rng, n_layers, kind), _k_span(rng), 2,
            backend="both", symmetry=kind, oracle_k=(0, 1), extra=["--ode-tol", "1e-12"])
    rng.shuffle(ops)
    return ops


ROUNDS = {"sweep-layers": sweep_round, "verify-scan-layers": verify_scan_round,
          "ode-smooth": ode_round}


def smallest_ops(workload: str) -> list[Op]:
    """The smallest op of each command the workload uses (cold-start probes, warm-up)."""
    rng = np.random.default_rng(0)
    by_command: dict[str, Op] = {}
    for op in ROUNDS[workload](rng, 0):
        if op.known_defect:
            continue
        best = by_command.get(op.command)
        if best is None or op.kpts * _weight(op) < best.kpts * _weight(best):
            by_command[op.command] = op
    return [by_command[c] for c in sorted(by_command)]


def _weight(op: Op) -> int:
    """Rough cost of one k-point: layers for the stack kernel, profile cost for the ODE."""
    if op.backend == "stack":
        return len(op.spec["layers"])
    return 1 if op.spec.get("family") == "gaussian" else 5
