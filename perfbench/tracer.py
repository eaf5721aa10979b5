"""Layer tracing from outside the program: wrap the names each consumer module calls.

ptscatter modules import layer functions by name (``from .transfer import
compute_transfer``), so a call is traced by replacing the binding in the module
that makes the call, not the defining one. ``Tracer.install`` swaps every
binding in ``PATCHES`` for a timing wrapper and ``uninstall`` puts the originals
back. A binding that no longer exists is recorded as absent and skipped.

Coarse calls (one per command or per output document) are kept as spans:
(name, start, end, parent span, op id). Per-row calls (per k, per ODE step)
are folded into a count and busy/self time per (op, name), so a 20k-row sweep
stays 20k counter updates rather than 20k span records. Both are written out
by ``dump`` when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name, per-row?) -- attribute "Class.method" patches a method
PATCHES = (
    ("ptscatter.cli", "run_command", "cli.run_command", False),
    ("ptscatter.cli", "parse_potential_spec", "potentials.parse", False),
    ("ptscatter.cli", "sweep", "scan.sweep", False),
    ("ptscatter.cli", "find_spectral_singularities", "scan.locate", False),
    ("ptscatter.cli", "find_unidirectional_points", "scan.locate", False),
    ("ptscatter.cli", "identity_report", "identities.report", True),
    ("ptscatter.identities", "classify_symmetry", "potentials.classify", True),
    ("ptscatter.identities", "scattering_data", "transfer.amplitude", True),
    ("ptscatter.scan", "scattering_data", "transfer.amplitude", True),
    ("ptscatter.transfer", "scattering_data", "transfer.amplitude", True),
    ("ptscatter.scan", "minimize_scalar", "scan.refine", True),
    ("ptscatter.scan", "_local_minima", "scan.candidates", True),
    ("ptscatter.transfer", "transfer_matrix_ode", "transfer.ode", True),
    ("ptscatter.transfer", "solve_ivp", "transfer.solve_ivp", True),
    ("ptscatter.kernels", "stack_transfer", "kernels.stack_transfer", True),
    ("ptscatter.potentials", "LayerPotential.evaluate", "potentials.evaluate", True),
    ("ptscatter.potentials", "SampledPotential.evaluate", "potentials.evaluate", True),
    ("ptscatter.potentials", "AnalyticPotential.evaluate", "potentials.evaluate", True),
    ("ptscatter.io", "sweep_to_csv", "io.write", False),
    ("ptscatter.io", "sweep_to_json", "io.write", False),
    ("ptscatter.io", "reports_to_csv", "io.write", False),
    ("ptscatter.io", "reports_to_long_csv", "io.write", False),
    ("ptscatter.io", "reports_to_json", "io.write", False),
    ("ptscatter.io", "scan_to_csv", "io.write", False),
    ("ptscatter.io", "scan_to_json", "io.write", False),
    ("ptscatter.io", "sweep_from_csv", "io.read", False),
    ("ptscatter.io", "sweep_from_json", "io.read", False),
)


class Tracer:
    """Spans, per-row aggregates and layer counters for one benchmark run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.rows: dict = defaultdict(lambda: [0, 0.0, 0.0])  # (op, name) -> n, busy, self
        self.counters: dict = defaultdict(float)
        self.absent: list[str] = []
        self.hook_errors: dict[str, str] = {}
        self.op_id = None
        self._stack: list[list] = []  # [name, child time, span index]
        self._saved: list[tuple] = []
        self._hooks = {
            "kernels.stack_transfer": self._on_kernel,
            "transfer.ode": self._on_ode,
            "transfer.solve_ivp": self._on_solve_ivp,
            "scan.refine": self._on_refine,
            "scan.candidates": self._on_candidates,
            "scan.locate": self._on_locate,
            "scan.sweep": self._on_sweep,
            "io.write": self._on_write,
            "io.read": self._on_read,
        }

    # --- patching -------------------------------------------------------------

    def install(self):
        for module_name, attr, name, per_row in PATCHES:
            owner, leaf, original = self._resolve(module_name, attr)
            if original is None:
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original, per_row))

    def uninstall(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    @staticmethod
    def _resolve(module_name, attr):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None, None, None
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None, None
        return owner, leaf, owner.__dict__.get(leaf) if isinstance(owner, type) \
            else getattr(owner, leaf, None)

    def _wrap(self, name, fn, per_row):
        tracer = self
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            frame = [name, 0.0, None]
            if not per_row:
                frame[2] = len(tracer.spans)
                tracer.spans.append(None)  # filled in on return, keeps start order
            stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                busy = t1 - t0
                if stack:
                    stack[-1][1] += busy
                if per_row:
                    agg = tracer.rows[(tracer.op_id, name)]
                    agg[0] += 1
                    agg[1] += busy
                    agg[2] += busy - frame[1]
                else:
                    parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                    tracer.spans[frame[2]] = (name, t0, t1, parent, tracer.op_id, busy - frame[1])
                if hook is not None:
                    try:
                        hook(args, kwargs, result, busy)
                    except (AttributeError, IndexError, TypeError) as exc:
                        # a later signature or result type; keep the call, drop its counters
                        tracer.hook_errors.setdefault(name, repr(exc))

        return traced

    # --- counters fed by the wrappers ------------------------------------------

    def _in_span(self, name) -> bool:
        return any(f[0] == name for f in self._stack)

    def _on_kernel(self, args, kwargs, result, busy):
        values, ks = args[0], args[3]
        n_k = len(ks)
        c = self.counters
        c["kernels.matrices"] += n_k
        c["kernels.slab_steps"] += len(values) * n_k
        if n_k == 1:
            c["kernels.single_k_calls"] += 1
        else:
            c["kernels.batched_calls"] += 1
            c["kernels.batched_s"] += busy
        if self._in_span("scan.locate"):
            c["scan.locate_evals"] += 1

    def _on_ode(self, args, kwargs, result, busy):
        if self._in_span("scan.locate"):
            self.counters["scan.locate_evals"] += 1

    def _on_solve_ivp(self, args, kwargs, result, busy):
        if result is None or not getattr(result, "success", False):
            self.counters["transfer.ode_failures"] += 1
        if result is not None:
            self.counters["transfer.ode_rhs_evals"] += getattr(result, "nfev", 0)

    def _on_refine(self, args, kwargs, result, busy):
        if result is not None:
            self.counters["scan.refine_evals"] += getattr(result, "nfev", 0)

    def _on_candidates(self, args, kwargs, result, busy):
        if result is not None:
            self.counters["scan.candidates"] += len(result)

    def _on_locate(self, args, kwargs, result, busy):
        if result is not None:
            self.counters["scan.features"] += len(result.features)

    def _on_sweep(self, args, kwargs, result, busy):
        if result is not None:
            self.counters["scan.rows"] += len(result.rows)

    def _on_write(self, args, kwargs, result, busy):
        if result is not None:
            self.counters["io.write_bytes"] += len(result)

    def _on_read(self, args, kwargs, result, busy):
        self.counters["io.read_bytes"] += len(args[0])

    # --- aggregation ------------------------------------------------------------

    def totals(self) -> dict:
        """name -> [calls, busy s, self s] over spans and per-row aggregates."""
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for name, t0, t1, _parent, _op, self_s in self.spans:
            agg = out[name]
            agg[0] += 1
            agg[1] += t1 - t0
            agg[2] += self_s
        for (_op, name), (n, busy, self_s) in self.rows.items():
            agg = out[name]
            agg[0] += n
            agg[1] += busy
            agg[2] += self_s
        return out

    def dump(self, path):
        """Write spans, then per-op aggregates, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, op, self_s in self.spans:
                fh.write(json.dumps({"span": name, "start": t0, "end": t1, "parent": parent,
                                     "op": op, "self_s": self_s}) + "\n")
            for (op, name), (n, busy, self_s) in sorted(self.rows.items(), key=str):
                fh.write(json.dumps({"aggregate": name, "op": op, "calls": n,
                                     "busy_s": busy, "self_s": self_s}) + "\n")
