#!/usr/bin/env python3
"""ptscatter benchmark: one seeded workload, end-to-end or traced per layer.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Ops run in this process through ``ptscatter.cli.run_command``, one at a time
(a closed loop with a single client: the next op starts when the previous one
returned). Whole rounds of ops run until the ops have taken ``--seconds`` and
at least MIN_OPS ops have run, so the tail percentile has ten samples beyond it.
Every output is checked after its op, outside the timed region.

--trace 0 prints the end-to-end metrics. Their times are divided by the
machine slowdown that speed.py measures between ops; meta.raw keeps the
wall-clock values. --trace 1 runs every op twice, once plain and once with
the layer wrappers of tracer.py, and prints the per-layer metrics. The last
stdout line is the result object; earlier lines carry the run metadata and
one line per failed op.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

import checks
from speed import MachineSpeed
from tracer import Tracer
from workloads import ROUNDS, WORKLOADS, smallest_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MIN_OPS = 100
SLOWDOWN_WINDOW = 4  # an op's slowdown: median of the 2 * 4 reference samples nearest it
TAIL_PERCENTILE = 90
SETUP_PROBES = 5
IMPORTTIME_PROBES = 3
PROBE_TIMEOUT_S = 150
KERNEL_LAYERS = 64
KERNEL_BATCH_K = 20000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --- running ops -------------------------------------------------------------------


class OpResult(NamedTuple):
    rc: int | None
    seconds: float
    text: str | None
    error: str | None


class Runner:
    """Writes an op's input, runs it through the CLI and returns its timing and output."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def prepare(self, op) -> tuple[list[str], Path]:
        self.count += 1
        pot = self.workdir / f"pot{self.count}.json"
        out = self.workdir / f"out{self.count}.txt"
        pot.write_text(json.dumps(op.spec), encoding="utf-8")
        return op.argv(str(pot), str(out)), out

    def run(self, cli, argv, out: Path) -> OpResult:
        """Run one op; its output file is read and removed."""
        error = None
        with contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                rc = cli.run_command(argv)
            except Exception as exc:  # an op that crashes is a failed op, the run goes on
                rc, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        text = out.read_text(encoding="utf-8") if out.exists() else None
        out.unlink(missing_ok=True)
        return OpResult(rc, elapsed, text, error)


# --- cold start -----------------------------------------------------------------------


def probe_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_probes(workload: str, workdir: Path, runner: Runner) -> tuple[list[float], list[float]]:
    """Seconds from spawning an interpreter until the smallest op of each command returned,
    and the slowdown each probe measured right after its ops."""
    commands = []
    for op in smallest_ops(workload):
        argv, _ = runner.prepare(op)
        commands.append(argv)
    cmd_file = workdir / "probe_commands.json"
    cmd_file.write_text(json.dumps(commands), encoding="utf-8")
    times, slowdowns = [], []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(cmd_file)],
                              cwd=ROOT, env=probe_env(), capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        if any(report["codes"]):
            raise RuntimeError(f"setup probe commands exited with {report['codes']}")
        times.append(report["done"] - start)
        slowdowns.append(report["slowdown"])
    return times, slowdowns


IMPORTTIME_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def import_probes() -> tuple[float, float]:
    """Median seconds to import ptscatter.cli, and scipy.optimize's share, from -X importtime."""
    cli_s, scipy_s = [], []
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ptscatter.cli"],
                              cwd=ROOT, env=probe_env(), capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-500:]}")
        top, opt = 0, 0
        for line in proc.stderr.splitlines():
            m = IMPORTTIME_LINE.match(line)
            if not m:
                continue
            # nested imports are indented two spaces per level after the "| "
            cumulative, depth, name = int(m.group(2)), len(m.group(3)) - 1, m.group(4)
            if depth == 0 and name.split(".")[0] == "ptscatter":
                top += cumulative
            if name == "scipy.optimize":
                opt = cumulative
        cli_s.append(top * 1e-6)
        scipy_s.append(opt * 1e-6)
    return statistics.median(cli_s), statistics.median(scipy_s)


# --- metadata -------------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, kernels, n_ops: int, rounds: int) -> dict:
    compiled = getattr(kernels, "USING_COMPILED", None)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "kernel": "absent" if compiled is None else ("compiled" if compiled else "numpy"),
        "ops": n_ops, "rounds": rounds, "tail_percentile": TAIL_PERCENTILE,
        "load": "closed loop, 1 client, ops in-process",
    }


# --- the run --------------------------------------------------------------------------


def run_ops(args, cli, ptscatter_io, runner, speed, tracer=None):
    """Run whole rounds of ops; returns one record per op and the number of rounds.

    Untraced, each op runs once and the speed reference is sampled after it.
    Traced, each op runs plain and traced, alternating which copy goes first
    so that warm caches favour neither.
    """
    rng = np.random.default_rng(args.seed)
    records = []
    measured = 0.0
    rounds = 0
    speed.sample()
    while rounds == 0 or measured < args.seconds or (tracer is None and len(records) < MIN_OPS):
        for op in ROUNDS[args.workload](rng, rounds):
            argv, out = runner.prepare(op)
            if tracer is None:
                result = runner.run(cli, argv, out)
                plain, traced = result.seconds, None
            else:
                runs = {}
                for traced_copy in ((False, True) if len(records) % 2 else (True, False)):
                    if traced_copy:
                        tracer.op_id = op.name
                        tracer.install()
                    try:
                        runs[traced_copy] = runner.run(cli, argv, out)
                    finally:
                        if traced_copy:
                            tracer.uninstall()
                result = runs[True]
                plain, traced = runs[False].seconds, result.seconds
            measured += plain + (traced or 0.0)
            if result.error is not None:
                problems = [f"raised {result.error}"]
            else:
                if tracer is not None:
                    tracer.install()  # reading sweep outputs back is io-layer work
                try:
                    problems = checks.check_op(op, result.rc, result.text, ptscatter_io,
                                               checks.Reference(op))
                finally:
                    if tracer is not None:
                        tracer.uninstall()
            if tracer is not None and runs[False].text != result.text:
                problems.append("traced and untraced outputs differ")
            if tracer is None:
                speed.sample()
            records.append({"op": op, "plain": plain, "traced": traced, "problems": problems})
        rounds += 1
    if tracer is None:
        # samples[i] was taken right before op i and samples[i + 1] right after it
        for i, r in enumerate(records):
            r["slowdown"] = speed.slowdown(i + 1 - SLOWDOWN_WINDOW, i + 1 + SLOWDOWN_WINDOW)
    return records, rounds


def warm_up(workload, cli, runner):
    """Run the smallest op of each command once so lazy imports and first calls are paid."""
    for op in smallest_ops(workload):
        argv, out = runner.prepare(op)
        result = runner.run(cli, argv, out)
        if result.rc != 0:
            raise RuntimeError(f"warm-up op {op.name} failed: {result.error or result.rc}")


def end_to_end_metrics(records, setup_times, setup_slowdowns, adjust=True) -> dict:
    """The end-to-end metrics; with adjust, times are at the reference machine speed."""
    latencies = [r["plain"] / (r["slowdown"] if adjust else 1.0) for r in records]
    setup = [t / (s if adjust else 1.0) for t, s in zip(setup_times, setup_slowdowns)]
    failed = sum(1 for r in records if r["problems"])
    quantiles = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_p90_s": (quantiles[TAIL_PERCENTILE - 1], "s"),
        "kpts_per_s": (sum(r["op"].kpts for r in records) / sum(latencies), "1/s"),
        "fail_frac": (failed / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def kernel_regimes(kernels) -> tuple[float, float]:
    """bench_stack.py's two regimes at 64 layers: batched 20k-k matrices/s, single-k us/call.

    Both read 0 when ``ptscatter.kernels.stack_transfer`` no longer exists.
    """
    if getattr(kernels, "stack_transfer", None) is None:
        return 0.0, 0.0
    rng = np.random.default_rng(7)
    values = rng.normal(size=KERNEL_LAYERS) + 1j * rng.normal(size=KERNEL_LAYERS)
    widths = rng.uniform(0.05, 0.4, size=KERNEL_LAYERS)
    ks = np.linspace(0.3, 5.0, KERNEL_BATCH_K)
    batched = []
    for _ in range(5):
        t0 = time.perf_counter()
        kernels.stack_transfer(values, widths, -1.0, ks)
        batched.append(time.perf_counter() - t0)
    single = []
    k1 = ks[:1]
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(100):
            kernels.stack_transfer(values, widths, -1.0, k1)
        single.append((time.perf_counter() - t0) / 100)
    return KERNEL_BATCH_K / statistics.median(batched), statistics.median(single) * 1e6


def per_layer_metrics(records, tracer, import_s, scipy_import_s, regimes) -> dict:
    n = len(records)
    tot = tracer.totals()
    c = tracer.counters

    def calls(name):
        return tot[name][0] / n if name in tot else 0.0

    def busy(name):
        return tot[name][1] / n if name in tot else 0.0

    def self_s(name):
        return tot[name][2] / n if name in tot else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    features = c["scan.features"]
    ode_calls = tot["transfer.ode"][0] if "transfer.ode" in tot else 0
    plain = sum(r["plain"] for r in records)
    traced = sum(r["traced"] for r in records)
    write_s = tot["io.write"][1] if "io.write" in tot else 0.0
    read_s = tot["io.read"][1] if "io.read" in tot else 0.0
    return {
        "kernels.calls": (calls("kernels.stack_transfer"), "count/op"),
        "kernels.matrices": (c["kernels.matrices"] / n, "count/op"),
        "kernels.slab_steps": (c["kernels.slab_steps"] / n, "count/op"),
        "kernels.batched_s": (c["kernels.batched_s"] / n, "s/op"),
        "kernels.batched_mps": (regimes[0], "1/s"),
        "kernels.single_k_calls": (c["kernels.single_k_calls"] / n, "count/op"),
        "kernels.single_k_us": (regimes[1], "us"),
        "transfer.amplitude_calls": (calls("transfer.amplitude"), "count/op"),
        "transfer.amplitude_s": (busy("transfer.amplitude"), "s/op"),
        "transfer.ode_solves": (calls("transfer.ode"), "count/op"),
        "transfer.ode_s": (busy("transfer.ode"), "s/op"),
        "transfer.ode_ms_per_k": (1e3 * ratio(busy("transfer.ode") * n, ode_calls), "ms"),
        "transfer.ode_rhs_evals": (c["transfer.ode_rhs_evals"] / n, "count/op"),
        "transfer.ode_failures": (c["transfer.ode_failures"] / n, "count/op"),
        "scan.rows": (c["scan.rows"] / n, "count/op"),
        "scan.sweep_self_s": (self_s("scan.sweep"), "s/op"),
        "scan.candidates": (c["scan.candidates"] / n, "count/op"),
        "scan.features": (features / n, "count/op"),
        "scan.accept_ratio": (ratio(features, c["scan.candidates"]), "ratio"),
        "scan.refine_calls": (calls("scan.refine"), "count/op"),
        "scan.refine_evals": (c["scan.refine_evals"] / n, "count/op"),
        "scan.locate_self_s": (self_s("scan.locate"), "s/op"),
        "scan.kernel_calls_per_feature": (c["scan.locate_evals"] / max(features, 1), "count"),
        "io.write_s": (busy("io.write"), "s/op"),
        "io.write_mb": (c["io.write_bytes"] / 1e6 / n, "MB/op"),
        "io.write_mb_per_s": (ratio(c["io.write_bytes"] / 1e6, write_s), "MB/s"),
        "io.read_s": (busy("io.read"), "s/op"),
        "io.read_mb_per_s": (ratio(c["io.read_bytes"] / 1e6, read_s), "MB/s"),
        "identities.reports": (calls("identities.report"), "count/op"),
        "identities.self_s": (self_s("identities.report"), "s/op"),
        "potentials.classify_calls": (calls("potentials.classify"), "count/op"),
        "potentials.classify_s": (busy("potentials.classify"), "s/op"),
        "potentials.evaluate_calls": (calls("potentials.evaluate"), "count/op"),
        "potentials.evaluate_s": (busy("potentials.evaluate"), "s/op"),
        "potentials.parse_s": (busy("potentials.parse"), "s/op"),
        "cli.import_s": (import_s, "s"),
        "cli.scipy_optimize_import_s": (scipy_import_s, "s"),
        "cli.self_s": (self_s("cli.run_command"), "s/op"),
        "trace.overhead_frac": (traced / plain - 1.0, "ratio"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not (SRC / "ptscatter" / "cli.py").is_file():
        print(f"error: no ptscatter sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workdir)
    speed = MachineSpeed()
    try:
        if args.trace:
            import_s, scipy_import_s = import_probes()
        else:
            setup_times, setup_slowdowns = setup_probes(args.workload, workdir, runner)
        import ptscatter.cli as cli
        import ptscatter.io as ptscatter_io

        try:
            import ptscatter.kernels as kernels
        except ImportError:
            kernels = None  # metadata and the kernel regimes report it absent

        warm_up(args.workload, cli, runner)
        tracer = Tracer() if args.trace else None
        records, rounds = run_ops(args, cli, ptscatter_io, runner, speed, tracer)
        meta = metadata(args, kernels, len(records), rounds)
        if args.trace:
            metrics = per_layer_metrics(records, tracer, import_s, scipy_import_s,
                                        kernel_regimes(kernels))
            trace_path = WORK / f"trace-{args.workload}-s{args.seed}.jsonl"
            tracer.dump(trace_path)
            meta["trace_file"] = str(trace_path.relative_to(ROOT))
            meta["trace_absent"] = tracer.absent
            meta["trace_hook_errors"] = tracer.hook_errors
        else:
            metrics = end_to_end_metrics(records, setup_times, setup_slowdowns)
            raw = end_to_end_metrics(records, setup_times, setup_slowdowns, adjust=False)
            meta["raw"] = {name: value for name, (value, _) in raw.items()}
            meta["slowdown"] = {"setup": statistics.median(setup_slowdowns),
                                "ops_median": statistics.median(r["slowdown"] for r in records)}
            meta["reference_samples"] = len(speed.samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r["problems"]]
    unexpected = [r for r in failed if not r["op"].known_defect]
    meta["failed_ops"] = [r["op"].name for r in failed]
    meta["unexpected_failures"] = len(unexpected)
    for r in failed:
        tag = "known defect" if r["op"].known_defect else "UNEXPECTED"
        print(f"FAIL {r['op'].name} [{tag}]: {'; '.join(r['problems'])[:400]}")
    print(json.dumps({"meta": meta}))
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
