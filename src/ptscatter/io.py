"""CSV and JSON serialization of sweeps, identity reports, and scan results.

Numbers are printed with 17 significant digits so that parsing the emitted
text reproduces the exact float64 values. JSON documents round-trip to equal
objects; CSV documents round-trip to identical text (the CSV carries the
documented numeric columns, JSON additionally carries applicability flags,
notes, and the symmetry classification).
"""
from __future__ import annotations

import csv
import io as _io
import json
import math
from dataclasses import asdict, replace

from .identities import IDENTITY_IDS, IdentityEntry, IdentityReport, PhaseRecord
from .potentials import SymmetryClass
from .scan import Feature, ScanResult, SweepResult
from .transfer import ScatteringData

CSV_FORMAT = "csv"
JSON_FORMAT = "json"


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    v = float(x)
    if v == 0.0:  # normalize -0.0
        return "0"
    return "%.17g" % v


def _parse_opt_float(cell: str):
    return None if cell == "" else float(cell)


def _parse_opt_int(cell: str):
    return None if cell == "" else int(cell)


def _parse_bool(cell: str) -> bool:
    return cell == "true"


def _c2j(z: complex):
    return {"re": z.real, "im": z.imag}


def _j2c(obj) -> complex:
    return complex(obj["re"], obj["im"])


def _write_csv(columns, rows) -> str:
    """Header row, then each row of cells as it is produced."""
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    w.writerows(rows)
    return buf.getvalue()


def _read_csv(text: str, columns, table: str):
    """Check the header, then yield one column -> cell dict per record."""
    reader = csv.reader(_io.StringIO(text))
    header = next(reader, [])  # empty text has no header row
    if tuple(header) != columns:
        raise ValueError(f"unexpected {table} CSV header: {header}")
    return (dict(zip(columns, rec)) for rec in reader)


def _read_json(text: str, doc_type: str):
    doc = json.loads(text)
    if doc.get("type") != doc_type:
        raise ValueError(f"not a {doc_type} document")
    return doc


# --- sweep tables -----------------------------------------------------------

SWEEP_COLUMNS = (
    "k", "re_T", "im_T", "re_R_left", "im_R_left", "re_R_right", "im_R_right",
    "abs2_T", "abs2_R_left", "abs2_R_right", "re_D", "im_D",
    "condition", "finite", "backend",
)


def _scattering_row(s: ScatteringData) -> list[str]:
    return [
        _fmt(s.k),
        _fmt(s.T.real), _fmt(s.T.imag),
        _fmt(s.R_left.real), _fmt(s.R_left.imag),
        _fmt(s.R_right.real), _fmt(s.R_right.imag),
        _fmt(abs(s.T) ** 2), _fmt(abs(s.R_left) ** 2), _fmt(abs(s.R_right) ** 2),
        _fmt(s.D.real), _fmt(s.D.imag),
        _fmt(s.condition), _fmt(s.finite), s.backend,
    ]


def _scattering_from_cells(cells: dict[str, str]) -> ScatteringData:
    t = complex(float(cells["re_T"]), float(cells["im_T"]))
    rl = complex(float(cells["re_R_left"]), float(cells["im_R_left"]))
    rr = complex(float(cells["re_R_right"]), float(cells["im_R_right"]))
    d = complex(float(cells["re_D"]), float(cells["im_D"]))
    return ScatteringData(
        k=float(cells["k"]), T=t, R_left=rl, R_right=rr, D=d,
        finite=_parse_bool(cells["finite"]), condition=float(cells["condition"]),
        backend=cells["backend"],
    )


def sweep_to_csv(sw: SweepResult) -> str:
    return _write_csv(SWEEP_COLUMNS, map(_scattering_row, sw.rows))


def sweep_from_csv(text: str) -> SweepResult:
    rows = map(_scattering_from_cells, _read_csv(text, SWEEP_COLUMNS, "sweep"))
    return SweepResult(tuple(rows), ())


def _scattering_json(s: ScatteringData):
    return {
        "k": s.k, "T": _c2j(s.T), "R_left": _c2j(s.R_left), "R_right": _c2j(s.R_right),
        "D": _c2j(s.D), "finite": s.finite, "condition": s.condition,
        "backend": s.backend,
    }


def _scattering_from_json(obj) -> ScatteringData:
    return ScatteringData(
        k=obj["k"], T=_j2c(obj["T"]), R_left=_j2c(obj["R_left"]),
        R_right=_j2c(obj["R_right"]), D=_j2c(obj["D"]),
        finite=obj["finite"], condition=obj["condition"], backend=obj["backend"],
    )


def sweep_to_json(sw: SweepResult) -> str:
    doc = {
        "type": "sweep",
        "rows": [_scattering_json(s) for s in sw.rows],
        "errors": [[k, msg] for k, msg in sw.errors],
    }
    return json.dumps(doc, indent=2)


def sweep_from_json(text: str) -> SweepResult:
    doc = _read_json(text, "sweep")
    rows = tuple(_scattering_from_json(o) for o in doc["rows"])
    errors = tuple((float(k), str(m)) for k, m in doc["errors"])
    return SweepResult(rows, errors)


# --- identity reports -------------------------------------------------------

# the first 12 sweep columns (k and the amplitudes), then phases and residuals
REPORT_COLUMNS = SWEEP_COLUMNS[:12] + ("tau", "lambda", "rho", "m1", "m2") + IDENTITY_IDS

LONG_REPORT_COLUMNS = ("k", "identity", "residual", "applicable", "note")


def _report_row(r: IdentityReport) -> list[str]:
    ph = r.scattering.phases
    residuals = {e.identity: e.residual for e in r.entries}
    return (_scattering_row(r.scattering)[:12]
            + [_fmt(getattr(ph, name) if ph else None)
               for name in ("tau", "lam", "rho", "m1", "m2")]
            + [_fmt(residuals.get(identity)) for identity in IDENTITY_IDS])


def reports_to_csv(reports) -> str:
    """Wide table: one row per k, one column per identity residual.

    Rows are IdentityReports, or the dicts reports_from_csv returns.
    """
    return _write_csv(REPORT_COLUMNS, (
        _report_row(r) if isinstance(r, IdentityReport)
        else [_fmt(r.get(c)) for c in REPORT_COLUMNS]
        for r in reports))


def reports_from_csv(text: str) -> list[dict]:
    """Parse the wide table back into row dicts (the columns the CSV carries)."""
    return [
        {col: _parse_opt_int(cell) if col in ("m1", "m2") else _parse_opt_float(cell)
         for col, cell in cells.items()}
        for cells in _read_csv(text, REPORT_COLUMNS, "report")
    ]


def reports_to_long_csv(reports) -> str:
    """Long table: one row per (k, identity), with applicability and notes."""
    return _write_csv(LONG_REPORT_COLUMNS, (
        [_fmt(r.k), e.identity, _fmt(e.residual), _fmt(e.applicable), e.note]
        for r in reports for e in r.entries))


def reports_from_long_csv(text: str) -> list[dict]:
    return [
        {
            "k": float(cells["k"]),
            "identity": cells["identity"],
            "residual": _parse_opt_float(cells["residual"]),
            "applicable": _parse_bool(cells["applicable"]),
            "note": cells["note"],
        }
        for cells in _read_csv(text, LONG_REPORT_COLUMNS, "long report")
    ]


def _phases_json(ph: PhaseRecord | None):
    if ph is None:
        return None
    return {
        "tau": ph.tau, "lambda": ph.lam, "rho": ph.rho,
        "m1": ph.m1, "m2": ph.m2,
        "m1_residue": ph.m1_residue, "m2_residue": ph.m2_residue,
    }


def _phases_from_json(obj) -> PhaseRecord | None:
    if obj is None:
        return None
    return PhaseRecord(
        tau=obj["tau"], lam=obj["lambda"], rho=obj["rho"],
        m1=obj["m1"], m2=obj["m2"],
        m1_residue=obj["m1_residue"], m2_residue=obj["m2_residue"],
    )


def reports_to_json(reports) -> str:
    docs = [
        {
            "k": r.k,
            "symmetry": asdict(r.symmetry),
            "scattering": _scattering_json(r.scattering),
            "scattering_negk": _scattering_json(r.scattering_negk),
            "phases": _phases_json(r.scattering.phases),
            "entries": [
                {"identity": e.identity, "residual": e.residual,
                 "applicable": e.applicable, "note": e.note}
                for e in r.entries
            ],
        }
        for r in reports
    ]
    return json.dumps({"type": "verify", "reports": docs}, indent=2)


def reports_from_json(text: str) -> list[IdentityReport]:
    return [
        IdentityReport(
            k=obj["k"],
            entries=tuple(IdentityEntry(**e) for e in obj["entries"]),
            scattering=replace(_scattering_from_json(obj["scattering"]),
                               phases=_phases_from_json(obj["phases"])),
            scattering_negk=_scattering_from_json(obj["scattering_negk"]),
            symmetry=SymmetryClass(**obj["symmetry"]),
        )
        for obj in _read_json(text, "verify")["reports"]
    ]


# --- scan results -----------------------------------------------------------

SCAN_COLUMNS = ("kind", "k_star", "residual", "bracket_lo", "bracket_hi",
                "boundary_warning", "note")


def scan_to_csv(res: ScanResult) -> str:
    return _write_csv(SCAN_COLUMNS, (
        [f.kind, _fmt(f.k_star), _fmt(f.residual), _fmt(f.bracket[0]), _fmt(f.bracket[1]),
         _fmt(f.boundary_warning), f.note]
        for f in res.features))


def scan_from_csv(text: str) -> tuple[Feature, ...]:
    return tuple(
        Feature(
            kind=cells["kind"], k_star=float(cells["k_star"]),
            residual=float(cells["residual"]),
            bracket=(float(cells["bracket_lo"]), float(cells["bracket_hi"])),
            boundary_warning=_parse_bool(cells["boundary_warning"]),
            note=cells["note"],
        )
        for cells in _read_csv(text, SCAN_COLUMNS, "scan")
    )


def scan_to_json(res: ScanResult) -> str:
    doc = {
        "type": "scan",
        "k_min": res.k_min, "k_max": res.k_max, "grid_step": res.grid_step,
        "features": [asdict(f) for f in res.features],
    }
    return json.dumps(doc, indent=2)


def scan_from_json(text: str) -> ScanResult:
    doc = _read_json(text, "scan")
    feats = tuple(Feature(**{**o, "bracket": tuple(o["bracket"])}) for o in doc["features"])
    return ScanResult(feats, doc["k_min"], doc["k_max"], doc["grid_step"])


def roundtrip_floats_exact(x: float) -> bool:
    """17 significant digits reproduce any finite float64 exactly."""
    return math.isnan(x) or float(_fmt(x)) == x
