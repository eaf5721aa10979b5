"""Fingerprint the CLI's output on the built-in corpus, one line per run.

Runs `sweep`, `verify` and `scan` in-process (through `cli.run_command`) on
the seven `catalog.corpus()` potentials, each given as the spec
{"family": NAME}, and on the potentials in EXTRAS,
and prints for every run its argv, exit code, and the sha256 of stdout and
of stderr. Two checkouts whose lines are identical give
byte-identical tables, diagnostics and exit codes on this matrix:

    PYTHONPATH=<checkout>/src python tools/corpus_digest.py > digest.txt

Python warnings are silenced, because their text carries the checkout path.
The potential file's path is printed as <NAME>.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

import numpy as np

from ptscatter.catalog import corpus
from ptscatter.cli import run_command

DENSE_SWEEP, SPARSE_SWEEP = "0.3:3.0:200", "0.3:3.0:7"
DENSE_VERIFY, SPARSE_VERIFY = "0.3:3.0:9", "0.4:2.9:3"
DENSE_SCAN, SPARSE_SCAN = "0.3:3.0:271", "0.3:3.0:10"
ODE_ONLY = "scarf2-pt"  # the one analytic profile: every run integrates the ODE
GAMMA_STAR, K_STAR = 2.071737124880286, "1.064682550561970"  # a pt-bilayer singularity
PT2L_SCAN = "0.8957570661443863:3.3957570661443865:2000"

# perfbench's 13-point sampled PT bump (SMALL_R_SPEC in perfbench/workloads.py)
SAMPLED_PT = {"samples": [{"x": float(x), "re": float(np.exp(-x * x)),
                           "im": float(0.3 * x * np.exp(-x * x))}
                          for x in np.linspace(-3.0, 3.0, 13)]}
# 2e-4 and 1e-4 wide real spikes, off-centre: neither even nor PT
LAYER_SPIKE = {"layers": [{"re": 2, "width": 1}, {"re": 2, "width": 0.5001},
                          {"re": 30, "width": 2e-4}, {"re": 2, "width": 0.4997}], "x0": -1}
SAMPLED_SPIKE = {"samples": [{"x": x, "re": v} for x, v in
                             ((-1, 0), (0.3, 0), (0.3001, 5), (0.3002, 0), (1, 0))]}

# name, spec, argv: a slab whose product overflows (NaN and inf rows),
# pt-bilayer at a spectral singularity, each with multi-k verify batches,
# a two-layer PT stack whose bidirectional zeros have unequal |R_left| and |R_right|,
# a sampled profile, two spikes narrower than any fixed classification grid,
# Scarf II round its n = 1 spectral singularity k* = sqrt(6.5) / 2, and a gaussian
# (the other analytic family); the ODE scans of the sampled profile and of Scarf II
# refine grid minima
EXTRAS = (
    ("opaque-slab", {"layers": [{"re": 10000, "width": 10}], "x0": -5}, (
        ["sweep", "--backend", "stack", "--format", "csv", "--k-range", "0.3:3.0:60"],
        ["sweep", "--backend", "stack", "--format", "json", "--k-range", "0.3:3.0:60"],
        ["verify", "--k", "1"],
        ["verify", "--k", "1", "--format", "json"],
        ["verify", "--k-range", "0.3:3.0:60"],
        ["verify", "--k-range", "0.3:3.0:60", "--long"],
        ["verify", "--k-range", "0.3:3.0:60", "--format", "json"],
        ["scan", "--k-range", DENSE_SCAN],
    )),
    ("pt-bilayer-singular", {"family": "pt-bilayer", "params": {"gamma": GAMMA_STAR}}, (
        ["sweep", "--format", "json", "--k-range", f"{K_STAR}:1.2:3"],
        ["verify", "--k", K_STAR, "--format", "json"],
        ["verify", "--format", "json", "--k-range", f"{K_STAR}:1.2:3"],
    )),
    ("pt2L", {"layers": [{"re": -0.1534134432452603, "im": 0.00015804652321999013, "width": 3.0},
                         {"re": -0.1534134432452603, "im": -0.00015804652321999013, "width": 3.0}],
              "x0": -3.0}, (
        ["scan", "--backend", "stack", "--k-range", PT2L_SCAN],
        ["scan", "--backend", "stack", "--format", "json", "--k-range", PT2L_SCAN],
        ["scan", "--backend", "both", "--k-range", PT2L_SCAN],
    )),
    ("sampled-pt", SAMPLED_PT, (
        ["sweep", "--format", "json", "--k-range", "0.5:3.0:4"],
        ["verify", "--format", "json", "--k-range", "0.5:3.0:3"],
        ["scan", "--backend", "ode", "--k-range", "3.0:4.2:13"],
    )),
    ("layer-spike", LAYER_SPIKE, (
        ["verify", "--k", "1"],
        ["verify", "--k", "1", "--format", "json"],
    )),
    ("sampled-spike", SAMPLED_SPIKE, (
        ["verify", "--k", "1", "--format", "json"],
    )),
    ("scarf2-singular", {"family": "scarf2", "params": {"v1": 1, "v2": 7.75}}, (
        ["scan", "--k-range", "1.0:1.6:61"],
    )),
    ("gaussian", {"family": "gaussian", "params": {"height": 1.3, "width": 0.7}}, (
        ["sweep", "--format", "json", "--k-range", SPARSE_SWEEP],
        ["verify", "--format", "json", "--k-range", SPARSE_VERIFY],
    )),
)


def runs(name: str):
    """(argv without --potential) of every run on one corpus potential."""
    ode_only = name == ODE_ONLY
    for backend in ("auto", "stack", "ode", "both"):
        k_range = SPARSE_SWEEP if ode_only or backend in ("ode", "both") else DENSE_SWEEP
        for fmt in ("csv", "json"):
            yield ["sweep", "--backend", backend, "--format", fmt, "--k-range", k_range]
    for backend in ("auto", "both"):
        k_range = SPARSE_VERIFY if ode_only or backend == "both" else DENSE_VERIFY
        for extra in ([], ["--long"], ["--format", "json"]):
            yield ["verify", "--backend", backend, "--k-range", k_range] + extra
        yield ["verify", "--backend", backend, "--k", "1.0"]
    k_range = SPARSE_SCAN if ode_only else DENSE_SCAN
    for extra in ([], ["--format", "json"], ["--backend", "both"]):
        yield ["scan", "--k-range", k_range] + extra
    if not ode_only:
        yield ["scan", "--backend", "ode", "--k-range", SPARSE_SCAN]


def digest(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
    return code, sha(out.getvalue()), sha(err.getvalue())


def main() -> int:
    warnings.simplefilter("ignore")
    cases = [(name, {"family": name}, runs(name)) for name in corpus()] + list(EXTRAS)
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec, argvs in cases:
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            for args in argvs:
                code, out, err = digest([args[0], "--potential", path] + args[1:])
                shown = " ".join([args[0], "--potential", f"<{name}>"] + args[1:])
                print(f"{shown} | exit {code} | stdout {out} | stderr {err}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
