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
from dataclasses import asdict
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .identities import IDENTITY_IDS, IdentityEntry, IdentityReport, PhaseRecord
from .potentials import SymmetryClass
from .scan import Feature, ScanResult, SweepResult
from .transfer import ScatteringData, abs2


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


def _amplitude_cells(s: ScatteringData) -> tuple[float, ...]:
    """The values of the first 12 SWEEP_COLUMNS (k and the amplitudes), in column order.

    Adding 0.0 turns -0.0 into 0.0, which prints as "0" just as _fmt writes it.
    """
    t, rl, rr, d = s.T, s.R_left, s.R_right, s.D
    try:  # abs2's values, without a call per cell on the rows that need none
        t2, rl2, rr2 = abs(t) ** 2, abs(rl) ** 2, abs(rr) ** 2
    except OverflowError:
        t2, rl2, rr2 = abs2(t), abs2(rl), abs2(rr)
    return (s.k + 0.0, t.real + 0.0, t.imag + 0.0, rl.real + 0.0, rl.imag + 0.0,
            rr.real + 0.0, rr.imag + 0.0, t2, rl2, rr2, d.real + 0.0, d.imag + 0.0)


# one sweep row: the 12 amplitude cells and condition as _fmt prints floats, then finite, backend
_CSV_ROW = ",".join(["%.17g"] * 13 + ["%s", "%s"]) + "\n"
_BOOL_TEXT = {True: "true", False: "false"}  # as _fmt and json write a bool


def _csv_cell(text: str) -> str:
    """A text cell as csv.writer writes it inside a row (quoted where it must be)."""
    return _write_csv(("", text), ())[1:-1]


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
    """The header, then one _CSV_ROW per row: the cells _fmt and csv.writer would write."""
    backends = {b: _csv_cell(b) for b in {s.backend for s in sw.rows}}
    return _write_csv(SWEEP_COLUMNS, ()) + "".join(
        _CSV_ROW % (*_amplitude_cells(s), s.condition + 0.0, _BOOL_TEXT[s.finite],
                    backends[s.backend])
        for s in sw.rows)


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


_SLOT = "\0"  # a placeholder value in the documents the templates are encoded from


def _json_template(doc, depth: int) -> str:
    """json.dumps(doc, indent=2) as it nests depth levels deep, with %s for each _SLOT value.

    Encoding a placeholder document keeps its keys and their order written
    once, in the function that builds that document.
    """
    text = json.dumps(doc, indent=2).replace("\n", "\n" + "  " * depth)
    return text.replace(json.dumps(_SLOT), "%s")


_ROW_SLOT = ScatteringData(_SLOT, *[SimpleNamespace(real=_SLOT, imag=_SLOT)] * 4,
                           _SLOT, _SLOT, _SLOT)
_JSON_ROW = "\n    " + _json_template(_scattering_json(_ROW_SLOT), 2)  # in a sweep's rows
_JSON_SCATTERING = _json_template(_scattering_json(_ROW_SLOT), 3)  # a report's value
# str() of a non-finite float, and json's name for it
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scattering_texts(rows, template):
    """Each row as json.dumps(..., indent=2) writes it: repr for floats, NaN/Infinity otherwise."""
    for s in rows:
        t, rl, rr, d = s.T, s.R_left, s.R_right, s.D
        values = (s.k, t.real, t.imag, rl.real, rl.imag, rr.real, rr.imag, d.real, d.imag,
                  _BOOL_TEXT[s.finite], s.condition, encode_basestring_ascii(s.backend))
        text = template % values
        if "nan" in text or "inf" in text:  # a non-finite float, or a backend named so
            text = template % tuple(_JSON_NONFINITE.get(v, v) for v in map(str, values))
        yield text


def sweep_to_json(sw: SweepResult) -> str:
    """The text of json.dumps(doc, indent=2), with the rows written from _JSON_ROW."""
    doc = {"type": "sweep", "rows": [], "errors": [[k, msg] for k, msg in sw.errors]}
    text = json.dumps(doc, indent=2)
    if not sw.rows:
        return text
    # the first '"rows": []' is the rows key: only "type": "sweep" precedes it
    rows = '"rows": [' + ",".join(_scattering_texts(sw.rows, _JSON_ROW)) + "\n  ]"
    return text.replace('"rows": []', rows, 1)


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
    ph = r.phases
    residuals = {e.identity: e.residual for e in r.entries}
    return ([_fmt(v) for v in _amplitude_cells(r.scattering)]
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


_JSON_PHASES = _json_template(_phases_json(PhaseRecord(*[_SLOT] * 7)), 3)
_JSON_ENTRY = "\n        " + _json_template(asdict(IdentityEntry(*[_SLOT] * 4)), 4)
_JSON_REPORT = "\n    " + _json_template({
    "k": _SLOT,
    "symmetry": asdict(SymmetryClass(*[_SLOT] * 7)),
    "scattering": _SLOT,  # _JSON_SCATTERING
    "scattering_negk": _SLOT,  # _JSON_SCATTERING
    "phases": _SLOT,  # _JSON_PHASES, or null
    "entries": _SLOT,  # a list of _JSON_ENTRY
}, 2)


def _json_number(x) -> str:
    """A float, an int or None as json.dumps writes it: repr, NaN/Infinity/-Infinity, null."""
    if x is None:
        return "null"
    text = str(x)
    return _JSON_NONFINITE.get(text, text)


def _reports_json(reports):
    """Each report as json.dumps(..., indent=2) writes it inside the reports list."""
    for r in reports:
        sym, ph = r.symmetry, r.phases
        scattering, scattering_negk = _scattering_texts(
            (r.scattering, r.scattering_negk), _JSON_SCATTERING)
        phases = "null" if ph is None else _JSON_PHASES % tuple(map(_json_number, (
            ph.tau, ph.lam, ph.rho, ph.m1, ph.m2, ph.m1_residue, ph.m2_residue)))
        entries = ",".join(
            _JSON_ENTRY % (encode_basestring_ascii(e.identity), _json_number(e.residual),
                           _BOOL_TEXT[e.applicable], encode_basestring_ascii(e.note))
            for e in r.entries)
        yield _JSON_REPORT % (
            _json_number(r.k), _BOOL_TEXT[sym.is_real], _BOOL_TEXT[sym.is_even],
            _BOOL_TEXT[sym.is_pt_symmetric], _json_number(sym.real_violation),
            _json_number(sym.even_violation), _json_number(sym.pt_violation),
            _json_number(sym.tol), scattering, scattering_negk, phases,
            "[" + entries + "\n      ]" if entries else "[]")


def reports_to_json(reports) -> str:
    """The text of json.dumps(doc, indent=2), with each report written from _JSON_REPORT."""
    text = json.dumps({"type": "verify", "reports": []}, indent=2)
    body = ",".join(_reports_json(reports))
    if not body:
        return text
    return text.replace('"reports": []', '"reports": [' + body + "\n  ]", 1)


def reports_from_json(text: str) -> list[IdentityReport]:
    return [
        IdentityReport(
            k=obj["k"],
            entries=tuple(IdentityEntry(**e) for e in obj["entries"]),
            scattering=_scattering_from_json(obj["scattering"]),
            scattering_negk=_scattering_from_json(obj["scattering_negk"]),
            symmetry=SymmetryClass(**obj["symmetry"]),
            phases=_phases_from_json(obj["phases"]),
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
