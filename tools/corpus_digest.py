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

Where lines differ, keep each run's stdout and compare the numbers:

    PYTHONPATH=<a>/src python tools/corpus_digest.py --stdout-dir out_a > /dev/null
    PYTHONPATH=<b>/src python tools/corpus_digest.py --stdout-dir out_b > /dev/null
    python tools/corpus_digest.py --compare out_a out_b

--stdout-dir writes run i's stdout to DIR/<i>.out and its digest line to line
i of DIR/runs.txt. --compare prints, for each run whose stdout differs, the
max |delta| over its amplitude values (the re and im parts of T, R_left and
R_right, from CSV columns or JSON objects) and over every number in it; a run
whose outputs differ in more than their numbers says so instead.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from ptscatter.catalog import corpus
from ptscatter.cli import run_command

DENSE_SWEEP, SPARSE_SWEEP = "0.3:3.0:200", "0.3:3.0:7"
DENSE_VERIFY, SPARSE_VERIFY = "0.3:3.0:9", "0.4:2.9:3"
DENSE_SCAN, SPARSE_SCAN = "0.3:3.0:271", "0.3:3.0:10"
ODE_ONLY = "scarf2-pt"  # the one analytic profile: every run integrates the ODE
GAMMA_STAR, K_STAR = 2.071737124880286, "1.064682550561970"  # a pt-bilayer singularity
PT2L_SCAN = "0.8957570661443863:3.3957570661443865:2000"
# the gaussian's |R| is below the acceptance floor from k = 7.5 on, and the ODE's noise there
# has grid minima; none is a candidate, so the run pins an empty table
GAUSSIAN_SCAN = "0.3:12.0:40"

# perfbench's 13-point sampled PT bump (SMALL_R_SPEC in perfbench/workloads.py)
SAMPLED_PT = {"samples": [{"x": float(x), "re": float(np.exp(-x * x)),
                           "im": float(0.3 * x * np.exp(-x * x))}
                          for x in np.linspace(-3.0, 3.0, 13)]}
# 2e-4 and 1e-4 wide real spikes, off-centre: neither even nor PT
LAYER_SPIKE = {"layers": [{"re": 2, "width": 1}, {"re": 2, "width": 0.5001},
                          {"re": 30, "width": 2e-4}, {"re": 2, "width": 0.4997}], "x0": -1}
SAMPLED_SPIKE = {"samples": [{"x": x, "re": v} for x, v in
                             ((-1, 0), (0.3, 0), (0.3001, 5), (0.3002, 0), (1, 0))]}
# 64 seeded layers, each 3/32 wide (np.sum and cumsum of the widths agree exactly), the
# right half the conjugate mirror of the left: a PT stack on [-3, 3] whose kernel calls
# span several layer blocks at every k count
_HALF = np.random.default_rng(64).normal(scale=(2.0, 0.5), size=(32, 2))
PT_STACK64 = {"layers": [{"re": float(re), "im": float(im), "width": 0.09375}
                         for re, im in np.concatenate([_HALF, _HALF[::-1] * (1.0, -1.0)])],
              "x0": -3}

# name, spec, argv: a slab whose product overflows (NaN and inf rows),
# pt-bilayer at a spectral singularity, each with multi-k verify batches,
# a two-layer PT stack whose bidirectional zeros have unequal |R_left| and |R_right|
# (also scanned at a fine and a coarse --tol, which must not change any zero's kind),
# a sampled profile, two spikes narrower than any fixed classification grid,
# Scarf II round its n = 1 spectral singularity k* = sqrt(6.5) / 2, and a gaussian
# (the other analytic family); the ODE scans of the sampled profile and of Scarf II refine
# grid minima, a Scarf II `scan --backend both` is its auto scan (no cross-check note off
# the stack), and a Scarf II verify at ode_tol 1e-13 rejects steps
# (its +-0.1 system rejects 4; a k array from 0.1 to 3 rejects none); then pt-stack4
# scans at a fine and a coarse refinement tolerance (at 1e-2 its R_left zero is refined
# to a k whose |R_left| misses the acceptance floor, and the table is empty); last, three
# specs whose number is not a JSON number, each refused by the object that owns the field:
# a layer width "1", a catalog param true and an analytic truncation "1e-10"; then a layer
# whose imaginary part is under an unknown key "imag", and a catalog param Infinity;
# then the 64-layer PT stack, swept, verified and scanned on the stack backend
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
        ["scan", "--tol", "1e-12", "--k-range", PT2L_SCAN],
        ["scan", "--tol", "1e-5", "--k-range", PT2L_SCAN],
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
        ["verify", "--backend", "ode", "--ode-tol", "1e-13", "--k", "0.1"],
        ["scan", "--backend", "both", "--k-range", "1.0:1.6:61"],
    )),
    ("gaussian", {"family": "gaussian", "params": {"height": 1.3, "width": 0.7}}, (
        ["sweep", "--format", "json", "--k-range", SPARSE_SWEEP],
        ["verify", "--format", "json", "--k-range", SPARSE_VERIFY],
        ["scan", "--backend", "ode", "--k-range", GAUSSIAN_SCAN],
    )),
    ("pt-stack4", {"family": "pt-stack4"}, (
        ["scan", "--tol", "1e-12", "--k-range", DENSE_SCAN],
        ["scan", "--tol", "1e-2", "--k-range", DENSE_SCAN],
    )),
    ("string-width", {"layers": [{"re": 2, "width": "1"}], "x0": -1}, (
        ["verify", "--k", "1"],
    )),
    ("boolean-param", {"family": "pt-bilayer", "params": {"gamma": True}}, (
        ["verify", "--k", "1"],
    )),
    ("string-truncation", {"family": "scarf2", "truncation": "1e-10"}, (
        ["verify", "--k", "1"],
    )),
    ("unknown-key", {"layers": [{"re": 1, "imag": 0.5, "width": 1}], "x0": -0.5}, (
        ["verify", "--k", "1"],
    )),
    ("infinite-param", {"family": "pt-bilayer", "params": {"a": float("inf")}}, (
        ["verify", "--k", "1"],
    )),
    ("pt-stack64", PT_STACK64, (
        ["sweep", "--format", "json", "--k-range", "0.3:3.0:2000"],
        ["verify", "--format", "json", "--k-range", "0.3:3.0:100"],
        ["scan", "--k-range", "0.3:3.0:941"],
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


def run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


def digest_corpus(stdout_dir: str | None) -> None:
    warnings.simplefilter("ignore")
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
    cases = [(name, {"family": name}, runs(name)) for name in corpus()] + list(EXTRAS)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec, argvs in cases:
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            for args in argvs:
                code, out, err = run([args[0], "--potential", path] + args[1:])
                shown = " ".join([args[0], "--potential", f"<{name}>"] + args[1:])
                lines.append(f"{shown} | exit {code} | stdout {sha(out)} | stderr {sha(err)}")
                print(lines[-1], flush=True)
                if stdout_dir is not None:
                    Path(stdout_dir, f"{len(lines) - 1}.out").write_text(out, encoding="utf-8")
    if stdout_dir is not None:
        Path(stdout_dir, "runs.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


AMPLITUDES = ("T", "R_left", "R_right")
AMPLITUDE_COLUMNS = {f"{part}_{name}" for name in AMPLITUDES for part in ("re", "im")}
NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf|NaN|Infinity)")


def amplitude_values(text: str) -> list[float]:
    """The re and im parts of every T, R_left and R_right in one stdout, in order."""
    try:
        doc = json.loads(text)
    except ValueError:
        lines = text.splitlines()
        header = next((i for i, line in enumerate(lines) if line.startswith("k,")), None)
        if header is None:
            return []
        rows = list(csv.reader(lines[header:]))
        cols = [j for j, name in enumerate(rows[0]) if name in AMPLITUDE_COLUMNS]
        return [float(row[j]) for row in rows[1:] for j in cols if j < len(row)]
    values = []

    def walk(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key in AMPLITUDES and isinstance(value, dict):
                    values.extend((float(value["re"]), float(value["im"])))
                else:
                    walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(doc)
    return values


def max_delta(a: list[float], b: list[float]) -> float:
    """max |a_i - b_i|, 0 where both are the same non-finite value, inf where only one is."""
    worst = 0.0
    for x, y in zip(a, b):
        if x != y and not (x != x and y != y):
            d = abs(x - y)
            worst = max(worst, d if d == d else float("inf"))
    return worst


def compare(dir_a: str, dir_b: str) -> int:
    """Print max |delta| of the amplitudes and of all numbers of each run whose stdout differs."""
    lines = Path(dir_a, "runs.txt").read_text(encoding="utf-8").splitlines()
    changed = 0
    for i, line in enumerate(lines):
        a, b = (Path(d, f"{i}.out").read_text(encoding="utf-8") for d in (dir_a, dir_b))
        if a == b:
            continue
        changed += 1
        shown = line.split(" | ")[0]
        if NUMBER.sub("#", a) != NUMBER.sub("#", b):
            print(f"{shown} | text differs")
            continue
        amp_a, amp_b = amplitude_values(a), amplitude_values(b)
        num_a, num_b = ([float(t) for t in NUMBER.findall(x)] for x in (a, b))
        amp = f"{max_delta(amp_a, amp_b):.3g}" if amp_a else "none"
        every = f"{max_delta(num_a, num_b):.3g}"
        print(f"{shown} | amplitudes max|d| {amp} | all numbers max|d| {every}")
    print(f"{changed} of {len(lines)} runs differ")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stdout-dir", help="also write each run's stdout to this directory")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="compare two --stdout-dir directories instead of running")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.stdout_dir is not None:
        os.makedirs(args.stdout_dir, exist_ok=True)
    digest_corpus(args.stdout_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
