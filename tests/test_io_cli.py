import json

import numpy as np
import pytest

from ptscatter import (
    builtin_potential,
    builtin_potentials,
    classify_symmetry,
    compute_transfer,
    find_unidirectional_points,
    identity_report,
    scattering_data,
    sweep,
)
from ptscatter import identities, kernels, scan, transfer
from ptscatter import io as tables
from ptscatter.catalog import barrier, free, onesided, pt_bilayer, pt_stack4
from ptscatter.cli import build_parser, run_command
from ptscatter.identities import GEN_UNITARITY_L, NEGK_AMPLITUDES, RECIPROCITY_GEN
from ptscatter.potentials import PotentialError, parse_potential_spec
from ptscatter.scan import ScanResult, SweepResult

from oracles import roundtrip_floats_exact

POTS = {
    "free": '{"layers": [], "x0": 0}',
    "barrier": '{"layers":[{"re":2,"im":0,"width":2}],"x0":-1}',
    "ptbilayer": '{"layers":[{"re":0,"im":0.5,"width":1},{"re":0,"im":-0.5,"width":1}],"x0":-1}',
    "onesided": '{"layers":[{"re":0,"im":1,"width":1}],"x0":0}',
    "opaque": '{"layers":[{"re":10000,"width":10}],"x0":-5}',
}


@pytest.fixture
def pot_files(tmp_path):
    paths = {}
    for name, text in POTS.items():
        f = tmp_path / f"{name}.json"
        f.write_text(text)
        paths[name] = str(f)
    return paths


# --- serialization round-trips ----------------------------------------------

def test_sweep_json_roundtrip_exact():
    sw = sweep(pt_bilayer(), np.linspace(0.4, 2.9, 7))
    assert tables.sweep_from_json(tables.sweep_to_json(sw)) == sw


def test_sweep_csv_roundtrip_exact_text():
    sw = sweep(pt_stack4(), np.linspace(0.4, 2.9, 7))
    text = tables.sweep_to_csv(sw)
    again = tables.sweep_to_csv(tables.sweep_from_csv(text))
    assert again == text
    assert tables.sweep_from_csv(text).rows == sw.rows


def test_empty_sweep_is_header_only():
    text = tables.sweep_to_csv(SweepResult((), ()))
    assert text.strip() == ",".join(tables.SWEEP_COLUMNS)


def test_free_row_column_layout():
    sw = sweep(free(), np.array([1.0]))
    row = tables.sweep_to_csv(sw).splitlines()[1].split(",")
    # k, Re/Im T, Re/Im R_l, Re/Im R_r, |T|^2, |R_l|^2, |R_r|^2, Re/Im D, ...
    assert row[:12] == ["1", "1", "0", "0", "0", "0", "0", "1", "0", "0", "1", "0"]


def test_report_json_roundtrip_exact():
    reports = [identity_report(pt_bilayer(), k) for k in (0.8, 1.7)]
    back = tables.reports_from_json(tables.reports_to_json(reports))
    assert all(r.phases is not None for r in back)
    assert back == reports  # phases included


def test_report_csv_roundtrip_idempotent():
    reports = [identity_report(barrier(), k) for k in (0.8, 1.7)]
    text = tables.reports_to_csv(reports)
    again = tables.reports_to_csv(tables.reports_from_csv(text))
    assert again == text


def test_report_long_csv_lists_every_identity():
    reports = [identity_report(onesided(), 1.1)]
    rows = tables.reports_from_long_csv(tables.reports_to_long_csv(reports))
    assert {r["identity"] for r in rows} == set(tables.IDENTITY_IDS)
    failing = [r for r in rows if r["identity"] == RECIPROCITY_GEN][0]
    assert failing["applicable"] and failing["residual"] > 1e-3
    passing = [r for r in rows if r["identity"] == NEGK_AMPLITUDES][0]
    assert passing["applicable"] and passing["residual"] <= 1e-8


def test_scan_json_roundtrip_exact():
    res = find_unidirectional_points(pt_stack4(), 0.3, 3.0, 0.01)
    assert tables.scan_from_json(tables.scan_to_json(res)) == res


def test_scan_csv_roundtrip_exact_features():
    res = find_unidirectional_points(pt_stack4(), 0.3, 3.0, 0.01)
    text = tables.scan_to_csv(res)
    feats = tables.scan_from_csv(text)
    assert feats == res.features
    rebuilt = tables.scan_to_csv(ScanResult(feats, res.k_min, res.k_max, res.grid_step))
    assert rebuilt == text


@pytest.mark.parametrize("reader,message", [
    (tables.sweep_from_csv, "unexpected sweep CSV header"),
    (tables.reports_from_csv, "unexpected report CSV header"),
    (tables.reports_from_long_csv, "unexpected long report CSV header"),
    (tables.scan_from_csv, "unexpected scan CSV header"),
])
@pytest.mark.parametrize("text", ["k,identity\n1,NEGK_MATRIX\n", ""])
def test_csv_readers_reject_foreign_header(reader, message, text):
    with pytest.raises(ValueError, match=message):
        reader(text)


@pytest.mark.parametrize("reader,doc_type", [
    (tables.sweep_from_json, "sweep"),
    (tables.reports_from_json, "verify"),
    (tables.scan_from_json, "scan"),
])
def test_json_readers_reject_foreign_type(reader, doc_type):
    with pytest.raises(ValueError, match=f"not a {doc_type} document"):
        reader(json.dumps({"type": "other", "rows": [], "reports": [], "features": []}))


def test_seventeen_digit_floats_roundtrip():
    rng = np.random.default_rng(33)
    for x in rng.normal(scale=10.0 ** rng.integers(-8, 8, size=200), size=200):
        assert roundtrip_floats_exact(float(x))


# --- catalog ------------------------------------------------------------------

def test_builtin_names():
    names = set(builtin_potentials())
    assert {"free", "barrier", "double-barrier", "pt-bilayer", "pt-stack4",
            "onesided", "scarf2-pt"} <= names


def test_builtin_pt_bilayer_parameters():
    p = builtin_potential("pt-bilayer", gamma=0.5, a=1.0)
    assert p.values == (0.5j, -0.5j)
    assert p.support_interval() == (-1.0, 1.0)


def test_builtin_scarf2_is_pt_symmetric():
    assert classify_symmetry(builtin_potential("scarf2-pt")).is_pt_symmetric


def test_builtin_unknown_name():
    with pytest.raises(PotentialError, match="unknown built-in"):
        builtin_potential("nope")
    with pytest.raises(PotentialError, match="parameters"):
        builtin_potential("pt-bilayer", bogus=3)


# --- CLI ----------------------------------------------------------------------

def test_verify_free_exits_zero(pot_files, capsys):
    code = run_command(["verify", "--potential", pot_files["free"], "--k", "1.0"])
    out = capsys.readouterr()
    assert code == 0
    rows = tables.reports_from_csv(out.out)
    assert rows[0]["NEGK_MATRIX"] == 0.0


def test_verify_bilayer_range_exits_zero(pot_files, tmp_path, capsys):
    out_file = tmp_path / "report.csv"
    code = run_command(["verify", "--potential", pot_files["ptbilayer"],
                        "--k-range", "0.5:3:50", "--out", str(out_file)])
    assert code == 0
    rows = tables.reports_from_csv(out_file.read_text())
    assert len(rows) == 50
    assert all(r[GEN_UNITARITY_L] <= 1e-8 for r in rows)


def test_verify_onesided_exits_one(pot_files, capsys):
    code = run_command(["verify", "--potential", pot_files["onesided"],
                        "--k-range", "0.5:3:10", "--long"])
    out = capsys.readouterr()
    assert code == 1
    assert "RECIPROCITY_GEN" in out.err
    rows = tables.reports_from_long_csv(out.out)
    neg = [r for r in rows if r["identity"] == NEGK_AMPLITUDES]
    assert all(r["residual"] <= 1e-8 for r in neg)


def test_verify_nan_residual_exits_one(pot_files, capsys):
    # the opaque layer overflows the stack kernel: NEGK_MATRIX is NaN and must fail
    code = run_command(["verify", "--potential", pot_files["opaque"], "--k", "1"])
    out = capsys.readouterr()
    assert code == 1
    assert "failing: NEGK_MATRIX" in out.err


def test_verify_json_output_parses(pot_files, capsys):
    code = run_command(["verify", "--potential", pot_files["barrier"], "--k", "1.3",
                        "--format", "json"])
    out = capsys.readouterr()
    assert code == 0
    reports = tables.reports_from_json(out.out)
    assert reports[0].passes(1e-8)


def test_verify_tol_flag_flips_exit(pot_files, capsys):
    code = run_command(["verify", "--potential", pot_files["onesided"], "--k", "1.3",
                        "--tol", "100"])
    capsys.readouterr()
    assert code == 0


def test_verify_env_tolerance(pot_files, capsys, monkeypatch):
    monkeypatch.setenv("PTSCATTER_TOL", "100")
    code = run_command(["verify", "--potential", pot_files["onesided"], "--k", "1.3"])
    capsys.readouterr()
    assert code == 0
    monkeypatch.setenv("PTSCATTER_TOL", "bogus")
    code = run_command(["verify", "--potential", pot_files["onesided"], "--k", "1.3"])
    capsys.readouterr()
    assert code == 1
    # a NaN or negative tolerance would fail every identity: warn and use the default
    for raw in ("nan", "-1"):
        monkeypatch.setenv("PTSCATTER_TOL", raw)
        code = run_command(["verify", "--potential", pot_files["barrier"], "--k", "1.3"])
        assert code == 0
        assert "ignoring PTSCATTER_TOL" in capsys.readouterr().err


def test_sweep_csv_to_stdout(pot_files, capsys):
    code = run_command(["sweep", "--potential", pot_files["barrier"],
                        "--k-range", "0.5:3:20"])
    out = capsys.readouterr()
    assert code == 0
    sw = tables.sweep_from_csv(out.out)
    assert len(sw.rows) == 20


def test_sweep_rejects_tol_flag(pot_files, capsys):
    code = run_command(["sweep", "--potential", pot_files["barrier"],
                        "--k-range", "0.5:3:20", "--tol", "1"])
    assert code == 2
    assert "--tol" in capsys.readouterr().err


def test_sweep_overflowed_rows_are_not_finite(pot_files, capsys):
    code = run_command(["sweep", "--potential", pot_files["opaque"], "--k-range", "1:2:2"])
    out = capsys.readouterr()
    assert code == 0
    header, *rows = out.out.splitlines()
    col = header.split(",").index("finite")
    assert [row.split(",")[col] for row in rows] == ["false", "false"]


def test_sweep_backend_both_tags_rows(pot_files, capsys):
    code = run_command(["sweep", "--potential", pot_files["barrier"],
                        "--k-range", "0.5:1.5:3", "--backend", "both"])
    out = capsys.readouterr()
    assert code == 0
    sw = tables.sweep_from_csv(out.out)
    assert len(sw.rows) == 6
    assert {s.backend for s in sw.rows} == {"stack", "ode"}
    ks = [s.k for s in sw.rows]
    assert ks == sorted(ks)


def test_scan_cli_finds_stack4_zero(tmp_path, capsys):
    f = tmp_path / "stack4.json"
    f.write_text(json.dumps({"family": "pt-stack4", "params": {"gamma": 1.2}}))
    code = run_command(["scan", "--potential", str(f), "--k-range", "0.3:3:271",
                        "--format", "json"])
    out = capsys.readouterr()
    assert code == 0
    res = tables.scan_from_json(out.out)
    assert [ft.kind for ft in res.features] == ["reflectionless_left"]


def test_cli_usage_errors_exit_two(pot_files, capsys, tmp_path):
    assert run_command(["verify", "--potential", pot_files["free"],
                        "--k-range", "3:1:10"]) == 2
    capsys.readouterr()
    assert run_command(["verify", "--potential", str(tmp_path / "missing.json"),
                        "--k", "1.0"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text('{"layers":[{"width":-1}]}')
    assert run_command(["verify", "--potential", str(bad), "--k", "1.0"]) == 2
    capsys.readouterr()
    # analytic parameters that divide by zero, a truncation that is not finite,
    # and truncations that are not numbers at all
    for spec in ('{"family":"gaussian","params":{"width":0}}',
                 '{"family":"scarf2","truncation":1e400}',
                 '{"family":"scarf2","truncation":null}',
                 '{"family":"scarf2","truncation":[1]}',
                 # an integer too large for a float is a malformed number, not a traceback
                 '{"layers":[{"re":1,"width":1%s}],"x0":-1}' % ("0" * 399)):
        bad.write_text(spec)
        assert run_command(["verify", "--potential", str(bad), "--k", "1.0"]) == 2
        capsys.readouterr()
    assert run_command(["nonsense"]) == 2
    capsys.readouterr()
    # non-finite k is a usage error, not a table of nan/inf rows or a failed identity
    for argv in (["sweep", "--k-range", "0.5:inf:3"], ["sweep", "--k-range", "0.5:1e400:3"],
                 ["scan", "--k-range", "0.5:inf:3"], ["verify", "--k-range", "0.5:inf:3"],
                 # each end of --k-range is judged as --k is
                 ["sweep", "--k-range", "nan:1:3"], ["sweep", "--k-range", "0:1:3"],
                 ["sweep", "--k-range", "-1:1:3"], ["verify", "--k-range", "0.5:1e400:3"],
                 ["scan", "--k-range", "x:1:3"],
                 ["verify", "--k", "nan"], ["verify", "--k", "inf"],
                 ["verify", "--k", "0"], ["verify", "--k", "-1"],
                 # a tolerance is a finite number > 0
                 ["verify", "--k", "1", "--tol", "nan"], ["verify", "--k", "1", "--tol", "-1"],
                 ["verify", "--k", "1", "--tol", "0"],
                 ["scan", "--k-range", "0.5:3:10", "--tol", "nan"],
                 ["scan", "--k-range", "0.5:3:10", "--tol", "-1"],
                 ["scan", "--k-range", "0.5:3:10", "--tol", "inf"],
                 ["sweep", "--k-range", "0.5:1:3", "--ode-tol", "inf"],
                 ["verify", "--k", "1", "--ode-tol", "nan"]):
        assert run_command(argv[:1] + ["--potential", pot_files["barrier"]] + argv[1:]) == 2
        capsys.readouterr()


@pytest.mark.parametrize("text,where,key", [
    ('{"layers":[{"re":1,"width":1}],"x_0":-0.5}', "potential spec", "x_0"),
    ('{"layers":[{"re":1,"imag":0.5,"width":1}],"x0":-0.5}', "layer 0", "imag"),
    ('{"family":"scarf2","parms":{"v1":2}}', "potential spec", "parms"),
    ('{"layers":[{"re":1,"width":1,"wdth":2}]}', "layer 0", "wdth"),
    ('{"samples":[{"x":0},{"x":1}],"x0":1}', "potential spec", "x0"),
    # "truncation" is for analytic families; a catalog name takes only params
    ('{"family":"barrier","truncation":1e-10}', "potential spec", "truncation"),
])
def test_unknown_spec_key_is_refused(text, where, key, tmp_path, capsys):
    # a misspelt key would otherwise build, and verify, a different potential
    fragment = f"{where}: unknown key '{key}'"
    with pytest.raises(PotentialError, match=f"^{fragment}"):
        parse_potential_spec(text)
    f = tmp_path / "spec.json"
    f.write_text(text)
    assert run_command(["verify", "--potential", str(f), "--k", "1"]) == 2
    assert fragment in capsys.readouterr().err


def test_malformed_layer_field_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"layers":[{"re":null,"width":1}]}')
    assert run_command(["verify", "--potential", str(bad), "--k", "1.0"]) == 2
    assert "layer 0" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"samples":[{"x":"abc"},{"x":1}]}',
                                  '{"samples":[{"x":0,"re":"abc"},{"x":1}]}'],
                         ids=["x", "re"])
def test_malformed_sample_field_exits_two(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run_command(["verify", "--potential", str(bad), "--k", "1.0"]) == 2
    assert "sample 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "verify", "scan"])
def test_ode_tol_default_is_the_library_default(command):
    args = build_parser().parse_args([command, "--potential", "p.json", "--k-range", "1:2:3"])
    assert args.ode_tol == transfer.DEFAULT_ODE_TOL == 1e-10


def test_nonfinite_sample_value_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"samples":[{"x":-1,"re":0},{"x":0,"re":NaN},{"x":1,"re":0}]}')
    for argv in (["sweep", "--k-range", "0.5:1:3"], ["verify", "--k", "1.0"]):
        assert run_command(argv[:1] + ["--potential", str(bad)] + argv[1:]) == 2
        assert "sample 1" in capsys.readouterr().err


def test_stack_verify_is_one_pass(pot_files, capsys, monkeypatch):
    # 50 k: one kernel call for k, -k, next k, ..., and the potential classified once
    calls = {"kernel": 0, "classify": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(kernels, "stack_transfer", counting("kernel", kernels.stack_transfer))
    monkeypatch.setattr(identities, "classify_symmetry",
                        counting("classify", identities.classify_symmetry))
    code = run_command(["verify", "--potential", pot_files["ptbilayer"], "--k-range",
                        "0.5:3:50", "--format", "json"])
    assert code == 0
    assert len(tables.reports_from_json(capsys.readouterr().out)) == 50
    assert calls == {"kernel": 1, "classify": 1}


def test_verify_exit_matches_report_contents(pot_files, capsys):
    # exit code must agree with the max applicable residual in the emitted report
    for name, expect in (("free", 0), ("barrier", 0), ("ptbilayer", 0), ("onesided", 1)):
        code = run_command(["verify", "--potential", pot_files[name], "--k", "1.1",
                            "--format", "json"])
        out = capsys.readouterr()
        reports = tables.reports_from_json(out.out)
        worst = max(r.max_applicable_residual() for r in reports)
        assert code == (0 if worst <= 1e-8 else 1)
        assert code == expect


PT2L = {"layers": [{"re": -0.1534134432452603, "im": 0.00015804652321999013, "width": 3.0},
                   {"re": -0.1534134432452603, "im": -0.00015804652321999013, "width": 3.0}],
        "x0": -3.0}
PT2L_RANGE = "0.8957570661443863:3.3957570661443865:2000"


def _scan_features(tmp_path, capsys, spec, argv):
    f = tmp_path / "pot.json"
    f.write_text(json.dumps(spec))
    code = run_command(["scan", "--potential", str(f)] + argv)
    out = capsys.readouterr()
    assert code == 0, out.err
    return parse_potential_spec(json.dumps(spec)), tables.scan_from_csv(out.out)


def test_bidirectional_residual_is_smaller_reflection(tmp_path, capsys):
    # a two-layer PT stack whose bidirectional zeros have |R_left| != |R_right|
    pot, features = _scan_features(tmp_path, capsys, PT2L,
                                   ["--backend", "stack", "--k-range", PT2L_RANGE])
    bidirectional = [f for f in features if f.kind == "bidirectional_reflectionless"]
    assert len(bidirectional) == 3
    for f in bidirectional:
        s = scattering_data(compute_transfer(pot, f.k_star, "stack"))
        assert f.residual == min(abs(s.R_left), abs(s.R_right))


@pytest.mark.parametrize("tol", ["1e-12", "1e-5"])
def test_scan_kinds_do_not_depend_on_tol(tmp_path, capsys, tol):
    # --tol only stops Brent: at 1e-12 the bidirectional zero at k = 0.971190 stays one
    # record, and at 1e-5 the one-sided zeros at 2.588185 and 2.588872 stay one-sided
    argv = ["--backend", "stack", "--k-range", PT2L_RANGE]
    _, default = _scan_features(tmp_path, capsys, PT2L, argv)
    _, features = _scan_features(tmp_path, capsys, PT2L, argv + ["--tol", tol])
    assert features
    for f in features:
        assert [g.kind for g in default if abs(g.k_star - f.k_star) <= 1e-6] == [f.kind]


def test_sweep_failed_rows_print_nan_condition(pot_files, capsys, fail_ode_systems):
    # a failed solve has no condition number; 0 would read as a spectral singularity
    fail_ode_systems([1.0])
    argv = ["sweep", "--potential", pot_files["barrier"], "--backend", "ode",
            "--k-range", "0.5:1.5:3"]
    assert run_command(argv) == 0
    out = capsys.readouterr()
    header, *rows = out.out.splitlines()
    col = header.split(",").index("condition")
    assert [row.split(",")[col] == "nan" for row in rows] == [False, True, False]
    assert "warning: k=1.0:" in out.err
    assert run_command(argv + ["--format", "json"]) == 0
    doc = capsys.readouterr().out
    assert doc.count('"condition": NaN') == 1
    assert [k for k, _ in json.loads(doc)["errors"]] == [1.0]


def _ode_residual(pot, kind, k):
    """The residual rule of each scan feature kind, from the ODE backend's amplitudes."""
    s = scattering_data(compute_transfer(pot, k, "ode", 1e-10))
    r_left, r_right = abs(s.R_left), abs(s.R_right)
    return {
        "spectral_singularity": s.condition,
        "reflectionless_left": r_left,
        "reflectionless_right": r_right,
        "bidirectional_reflectionless": min(r_left, r_right),
        "invisible_left": r_left + abs(s.T - 1.0),
        "invisible_right": r_right + abs(s.T - 1.0),
    }[kind]


@pytest.mark.parametrize("spec,k_range,kinds", [
    ({"family": "barrier"}, "0.3:3:271", {"bidirectional_reflectionless"}),
    ({"family": "pt-stack4"}, "0.3:3:271", {"reflectionless_left"}),
    ({"family": "pt-bilayer", "params": {"gamma": 2.071737124880286}}, "0.3:3:50",
     {"spectral_singularity", "reflectionless_right"}),
    (PT2L, PT2L_RANGE, {"bidirectional_reflectionless", "reflectionless_left",
                        "reflectionless_right"}),
], ids=["barrier", "pt-stack4", "pt-bilayer-singular", "pt2L"])
def test_scan_backend_both_note_is_ode_residual(tmp_path, capsys, spec, k_range, kinds):
    pot, features = _scan_features(tmp_path, capsys, spec,
                                   ["--backend", "both", "--k-range", k_range])
    assert {f.kind for f in features} == kinds
    for f in features:
        expected = f"cross-backend(ode) residual = {_ode_residual(pot, f.kind, f.k_star):.3e}"
        assert f.note.endswith(expected), (f.kind, f.note, expected)


def test_scan_reports_no_feature_on_a_stretch_below_the_floor(tmp_path, capsys):
    # the gaussian's |R| is below the acceptance floor from k = 7.5 on; the ODE's
    # rounding noise there has grid minima, and none of them is refined
    f = tmp_path / "gaussian.json"
    f.write_text(json.dumps({"family": "gaussian", "params": {"height": 1.3, "width": 0.7}}))
    assert run_command(["scan", "--potential", str(f), "--backend", "ode",
                        "--k-range", "0.3:12.0:40"]) == 0
    assert capsys.readouterr().out == ",".join(tables.SCAN_COLUMNS) + "\n"


# perfbench's 13-point sampled PT bump: reflection zeros near k = 3.4 and 3.9
SAMPLED_BUMP = {"samples": [{"x": x, "re": float(np.exp(-x * x)),
                             "im": float(0.3 * x * np.exp(-x * x))}
                            for x in np.linspace(-3.0, 3.0, 13).tolist()]}


@pytest.mark.parametrize("spec,argv,grid", [
    (SAMPLED_BUMP, ["--backend", "ode", "--k-range", "3.0:4.2:13"], (3.0, 4.2, 13)),
    ({"family": "barrier"}, ["--k-range", "0.3:3:271"], (0.3, 3.0, 271)),
], ids=["ode-sampled-bump", "stack-barrier"])
def test_scan_computes_its_grid_once_and_each_refine_k_once(tmp_path, capsys, monkeypatch,
                                                            spec, argv, grid):
    # both finders share one grid, and the refinements of all kinds share their solves: the
    # barrier's zeros are bidirectional, so both reflection sides refine each; on the stack
    # the refinements run in lockstep, one kernel call per round for every pending k,
    # and start from the grid's rows
    calls = []  # the k of each kernel call or ODE system, in call order

    def counting_kernel(values, widths, x_left, ks):
        calls.append(np.asarray(ks, dtype=float).tolist())
        return stack_transfer(values, widths, x_left, ks)

    def counting_solve_ivp(fun, t_span, y0, **kwargs):
        if t_span[0] == -3.0:  # a system's first piece: y0 is its plane-wave data, psi'/psi = ik
            n = y0.size // 4
            calls.append((y0[n:2 * n] / y0[:n]).imag.tolist())
        return solve_ivp(fun, t_span, y0, **kwargs)

    minima = []  # every bracket's grid minimum, as a grid k

    def recording_minimize_scalar(p, brackets, *args):
        minima.extend(triple[1] for _, triple in brackets)
        return minimize_scalar(p, brackets, *args)

    stack_transfer, solve_ivp = kernels.stack_transfer, transfer.solve_ivp
    minimize_scalar = scan.minimize_scalar
    monkeypatch.setattr(kernels, "stack_transfer", counting_kernel)
    monkeypatch.setattr(transfer, "solve_ivp", counting_solve_ivp)
    monkeypatch.setattr(scan, "minimize_scalar", recording_minimize_scalar)
    f = tmp_path / "pot.json"
    f.write_text(json.dumps(spec))
    assert run_command(["scan", "--potential", str(f)] + argv) == 0
    capsys.readouterr()
    first, *refines = calls
    assert np.allclose(first, np.linspace(*grid), rtol=1e-12, atol=0)
    assert [len(ks) for ks in refines].count(grid[2]) == 0
    refine_ks = [k for ks in refines for k in ks]
    assert refine_ks and len(set(refine_ks)) == len(refine_ks)
    if "ode" not in argv:  # a stack round solves all its pending k in one call
        assert len(refines) < len(set(refine_ks))
        # and the grid minima are the grid's own rows, bit for bit the single-k ones
        assert not set(refine_ks) & set(first)
    else:  # the ODE solves each grid minimum single-k, and never a bracket end
        assert minima
        at_minima = {int(np.argmin(np.abs(np.array(first) - b))) for b in minima}
        assert {first.index(k) for k in refine_ks if k in first} == at_minima


def test_scan_fails_when_a_refine_solve_fails(tmp_path, capsys, monkeypatch, fail_ode_systems):
    f = tmp_path / "pot.json"
    f.write_text(json.dumps({"family": "barrier"}))
    argv = ["scan", "--potential", str(f), "--backend", "ode", "--k-range", "0.3:3.0:10"]
    solved = []  # every refine k, exactly as the refinement asked for it

    def recording(p, k, *args):
        solved.append(k)
        return compute_transfer(p, k, *args)

    compute_transfer = scan.compute_transfer
    monkeypatch.setattr(scan, "compute_transfer", recording)
    assert run_command(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(scan, "compute_transfer", compute_transfer)
    grid = np.linspace(0.3, 3.0, 10)
    bad = next(k for k in solved if not np.isclose(k, grid, rtol=1e-12, atol=0).any())
    fail_ode_systems([bad])
    assert run_command(argv) == 2
    out = capsys.readouterr()
    assert "integration did not converge" in out.err and f"at k={bad}:" in out.err
    assert out.out == ""
