"""Command-line front end: sweep, verify, and scan subcommands.

Exit codes: 0 success, 1 verify found an applicable identity residual above
tolerance, 2 usage or potential-spec errors. Diagnostics go to stderr; tables
go to --out or stdout.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import io as tables
from .identities import identity_report, worst_residual
from .potentials import PotentialError, parse_potential_spec
from .scan import (DEFAULT_REFINE_TOL, ScanResult, SweepResult, _residual,
                   find_spectral_singularities, find_unidirectional_points, shared_work, sweep)
from .transfer import (DEFAULT_ODE_TOL, ODE, BackendError, ConvergenceError, compute_transfer,
                       resolve_backend)

TOL_ENV_VAR = "PTSCATTER_TOL"
DEFAULT_VERIFY_TOL = 1e-8


def _positive(text: str) -> float:
    """A tolerance or wavenumber argument: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _default_tol() -> float:
    raw = os.environ.get(TOL_ENV_VAR)
    if raw:
        try:
            return _positive(raw)
        except argparse.ArgumentTypeError as exc:
            print(f"warning: ignoring {TOL_ENV_VAR}={raw!r}: {exc}", file=sys.stderr)
    return DEFAULT_VERIFY_TOL


def _parse_k_range(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("--k-range must be MIN:MAX:COUNT")
    lo, hi = _positive(parts[0]), _positive(parts[1])  # each end is judged as --k is
    try:
        count = int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --k-range: {exc}") from exc
    if not lo < hi or count < 2:
        raise argparse.ArgumentTypeError("--k-range needs MIN < MAX and COUNT >= 2")
    return np.linspace(lo, hi, count)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptscatter",
        description="Transfer-matrix scattering engine for 1D complex potentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, run, needs_range: bool):
        sp.set_defaults(run=run)
        sp.add_argument("--potential", required=True, metavar="FILE",
                        help="potential spec file (JSON; see format reference)")
        if needs_range:
            sp.add_argument("--k-range", required=True, type=_parse_k_range,
                            metavar="MIN:MAX:COUNT")
        else:
            group = sp.add_mutually_exclusive_group(required=True)
            group.add_argument("--k", type=_positive, metavar="V", help="single wavenumber")
            group.add_argument("--k-range", type=_parse_k_range, metavar="MIN:MAX:COUNT")
        sp.add_argument("--backend", choices=("auto", "stack", "ode", "both"),
                        default="auto")
        sp.add_argument("--ode-tol", type=_positive, default=DEFAULT_ODE_TOL,
                        help="local error tolerance of the ODE backend")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", metavar="PATH", default=None,
                        help="output file (default: stdout)")

    sp = sub.add_parser("sweep", help="tabulate scattering data over a k grid")
    common(sp, _cmd_sweep, needs_range=True)

    sp = sub.add_parser("verify", help="evaluate the identity catalog; exit 1 on failure")
    common(sp, _cmd_verify, needs_range=False)
    sp.add_argument("--tol", type=_positive, default=None,
                    help=f"residual tolerance (default {DEFAULT_VERIFY_TOL}, or ${TOL_ENV_VAR})")
    sp.add_argument("--long", action="store_true",
                    help="CSV output as one row per (k, identity) instead of wide columns")

    sp = sub.add_parser("scan", help="locate singular/reflectionless/invisible points")
    common(sp, _cmd_scan, needs_range=True)
    sp.add_argument("--tol", type=_positive, default=DEFAULT_REFINE_TOL,
                    help=f"refinement tolerance (default {DEFAULT_REFINE_TOL})")

    return parser


def _load_potential(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_potential_spec(fh.read())
    except OSError as exc:
        raise PotentialError(f"cannot read potential file {path!r}: {exc}") from exc


def _write(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _backends(p, requested: str) -> tuple[str, str]:
    """The primary and the cross-check backend: 'both' crosses p's auto backend with ode."""
    if requested == "both":
        return resolve_backend(p, "auto"), ODE
    return requested, requested


def _cmd_sweep(args) -> int:
    p = _load_potential(args.potential)
    rows, errors = [], []
    for backend in dict.fromkeys(_backends(p, args.backend)):
        res = sweep(p, args.k_range, backend=backend, ode_tol=args.ode_tol)
        rows.extend(res.rows)
        errors.extend(res.errors)
    rows.sort(key=lambda s: (s.k, s.backend))
    merged = SweepResult(tuple(rows), tuple(errors))
    for k, msg in errors:
        print(f"warning: k={k}: {msg}", file=sys.stderr)
    text = tables.sweep_to_csv(merged) if args.format == "csv" else tables.sweep_to_json(merged)
    _write(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    p = _load_potential(args.potential)
    tol = args.tol if args.tol is not None else _default_tol()
    ks = args.k_range if args.k_range is not None else np.array([args.k])
    backend_k, backend_negk = _backends(p, args.backend)
    reports = identity_report(p, ks, ode_tol=args.ode_tol,
                              backend=backend_k, backend_negk=backend_negk)
    if args.format == "json":
        text = tables.reports_to_json(reports)
    elif args.long:
        text = tables.reports_to_long_csv(reports)
    else:
        text = tables.reports_to_csv(reports)
    _write(text, args.out)
    worst = worst_residual(r.max_applicable_residual() for r in reports)
    failing = sorted({identity for r in reports for identity in r.failing(tol)})
    if failing:
        print(f"verify: FAIL (max applicable residual {worst:.3e} > tol {tol:.1e}); "
              f"failing: {', '.join(failing)}", file=sys.stderr)
        return 1
    print(f"verify: ok (max applicable residual {worst:.3e} <= tol {tol:.1e})",
          file=sys.stderr)
    return 0


def _cmd_scan(args) -> int:
    p = _load_potential(args.potential)
    ks = args.k_range
    k_min, k_max = float(ks[0]), float(ks[-1])
    grid_step = float(ks[1] - ks[0])
    backend, check = _backends(p, args.backend)
    with shared_work():  # one grid and one solve per refine k for both finders
        res_ss = find_spectral_singularities(p, k_min, k_max, grid_step, tol=args.tol,
                                             backend=backend, ode_tol=args.ode_tol)
        res_ur = find_unidirectional_points(p, k_min, k_max, grid_step, tol=args.tol,
                                            backend=backend, ode_tol=args.ode_tol)
    merged = ScanResult(
        tuple(sorted(res_ss.features + res_ur.features, key=lambda f: f.k_star)),
        k_min, k_max, grid_step,
    )
    if check != backend:
        merged = _cross_check_features(p, merged, check, args.ode_tol)
    text = tables.scan_to_csv(merged) if args.format == "csv" else tables.scan_to_json(merged)
    _write(text, args.out)
    return 0


def _cross_check_features(p, res, backend, ode_tol):
    """Annotate each feature with the cross-check backend's value of its residual."""
    out = []
    for f in res.features:
        val = _residual(f.kind, compute_transfer(p, f.k_star, backend, ode_tol))
        note = (f.note + "; " if f.note else "") + f"cross-backend({backend}) residual = {val:.3e}"
        out.append(replace(f, note=note))
    return replace(res, features=tuple(out))


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (BackendError, ValueError) as exc:  # a PotentialError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: integration did not converge: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
