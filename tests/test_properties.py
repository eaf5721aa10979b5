"""Property-based checks of the structural invariants."""
import cmath
import csv
import io
import json
import math
from dataclasses import asdict

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ptscatter import (
    LayerPotential,
    SampledPotential,
    TransferMatrix,
    classify_symmetry,
    negative_k_matrix,
    compute_transfer,
    scattering_data,
)
from ptscatter import io as tables
from ptscatter.identities import (
    IDENTITY_IDS,
    NEGK_AMPLITUDES,
    IdentityEntry,
    IdentityReport,
    PhaseRecord,
    residual,
    residual_negk_matrix,
)
from ptscatter.potentials import SymmetryClass
from ptscatter.scan import SweepResult
from ptscatter.transfer import ODE, STACK, ScatteringData, stack_matrices

from oracles import (
    apply_parity,
    apply_pt,
    apply_time_reversal,
    matrix_from_amplitudes,
    roundtrip_floats_exact,
)

finite = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
layer_value = st.tuples(finite, finite).map(lambda t: complex(*t))
# down to 1e-6: layers far narrower than any fixed sampling grid
widths = st.floats(min_value=1e-6, max_value=0.8)


@st.composite
def layer_stacks(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    values = tuple(draw(layer_value) for _ in range(n))
    ws = tuple(draw(widths) for _ in range(n))
    x_left = draw(st.floats(min_value=-2.0, max_value=1.0))
    return LayerPotential(values, ws, x_left)


ks = st.floats(min_value=0.3, max_value=5.0)


@given(layer_stacks(), ks)
@settings(max_examples=60, deadline=None)
def test_stack_determinant_is_one(p, k):
    m = compute_transfer(p, k, "stack")
    assert abs(m.det - 1.0) <= 1e-9


@given(layer_stacks(), ks)
@settings(max_examples=60, deadline=None)
def test_negk_identities_hold_for_any_layer_stack(p, k):
    m_k = compute_transfer(p, k, "stack")
    m_negk = compute_transfer(p, -k, "stack")
    assert residual_negk_matrix(m_k, m_negk) <= 1e-10
    s_k, s_negk = scattering_data(m_k), scattering_data(m_negk)
    if s_k.finite and s_negk.finite and abs(s_k.D) > 1e-6:
        assert residual(NEGK_AMPLITUDES, s_k, s_negk) <= 1e-7


@given(layer_stacks(), ks)
@settings(max_examples=60, deadline=None)
def test_amplitude_dictionary_roundtrip(p, k):
    m = compute_transfer(p, k, "stack")
    s = scattering_data(m)
    if s.finite:
        back = matrix_from_amplitudes(s.T, s.R_left, s.R_right, k)
        scale = max(1.0, float(np.max(np.abs(m.as_array()))))
        assert np.max(np.abs(back.as_array() - m.as_array())) / scale <= 1e-12


@st.composite
def unit_det_matrices(draw):
    entries = [complex(draw(finite), draw(finite)) for _ in range(4)]
    m = np.array(entries, dtype=complex).reshape(2, 2)
    det = np.linalg.det(m)
    if abs(det) < 1e-2:
        m = m + np.eye(2)
        det = np.linalg.det(m)
    assume(abs(det) >= 1e-2)  # m + I is singular too for some m, e.g. [[-1, a], [0, 0]]
    return TransferMatrix(*(m / np.sqrt(det)).ravel().tolist(), 1.0)


@given(unit_det_matrices())
@settings(max_examples=100, deadline=None)
def test_actions_are_involutions_and_compose(m):
    arr = m.as_array()
    for apply in (apply_parity, apply_time_reversal, apply_pt):
        assert np.max(np.abs(apply(apply(m)).as_array() - arr)) <= 1e-10
    lhs = apply_pt(m).as_array()
    rhs = apply_parity(apply_time_reversal(m)).as_array()
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


@given(unit_det_matrices())
@settings(max_examples=50, deadline=None)
def test_negk_is_involutive(m):
    assert negative_k_matrix(negative_k_matrix(m)) == m


# a change of one layer or sample that must break PT symmetry
deltas = st.complex_numbers(min_magnitude=1e-8, max_magnitude=4.0, allow_nan=False,
                            allow_infinity=False)


@given(layer_stacks(), st.data())
@settings(max_examples=40, deadline=None)
def test_pt_completion_classifies_pt(p, data):
    # v(x) = w(x) + w(-x)^* built from an arbitrary stack w
    n = len(p.values)
    ws = np.asarray(p.widths)
    vals_w = np.concatenate([np.zeros(n, dtype=complex), np.asarray(p.values)])
    full_vals = vals_w + np.conj(vals_w[::-1])
    full_ws = np.concatenate([ws[::-1], ws])
    q = LayerPotential(tuple(full_vals), tuple(full_ws), -float(np.sum(ws)))
    sym = classify_symmetry(q)
    assert sym.is_pt_symmetric
    assert sym.pt_violation <= 1e-12
    # changing any one layer by delta breaks PT by |delta|, up to rounding
    i, delta = data.draw(st.integers(0, 2 * n - 1)), data.draw(deltas)
    full_vals[i] += delta
    sym = classify_symmetry(LayerPotential(tuple(full_vals), q.widths, q.x_left))
    assert not sym.is_pt_symmetric
    assert abs(sym.pt_violation - abs(delta)) <= 1e-14


@given(st.lists(st.tuples(finite, finite), min_size=2, max_size=30), st.data())
@settings(max_examples=40, deadline=None)
def test_sampled_pt_completion(points, data):
    xs = np.linspace(-1.5, 1.5, len(points))
    w = np.array([complex(a, b) for a, b in points])
    vs = w + np.conj(w[::-1])
    assert classify_symmetry(SampledPotential(tuple(xs), tuple(vs))).is_pt_symmetric
    # changing any one sample breaks PT, except a real change of an odd grid's
    # centre sample, which stays real and so PT
    i, delta = data.draw(st.integers(0, vs.size - 1)), data.draw(deltas)
    assume(2 * i != vs.size - 1 or abs(delta.imag) >= 1e-8)
    vs[i] += delta
    assert not classify_symmetry(SampledPotential(tuple(xs), tuple(vs))).is_pt_symmetric


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200)
def test_csv_float_cells_roundtrip(x):
    assert roundtrip_floats_exact(x)


# --- sweep writers against the encoders they replace --------------------------

EDGE_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-310,
               1e300, -1e300, 1e-300, -1e-300)
any_float = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
# |T|, |R| above ~1.3e154 overflow abs(.) ** 2: the CSV writer prints inf there
amplitude_part = st.one_of(st.sampled_from(EDGE_FLOATS[:8]),
                           st.floats(min_value=-1e300, max_value=1e300))
amplitude = st.builds(complex, amplitude_part, amplitude_part)
messages = st.one_of(st.text(), st.sampled_from(
    ['say "hi"\nthen, stop', "k* \u2248 1.06 \u2014 \u00fcn\u00efcode", "back\\slash\r\n"]))


@st.composite
def sweep_results(draw):
    rows = draw(st.lists(st.builds(
        ScatteringData, any_float, amplitude, amplitude, amplitude,
        st.builds(complex, any_float, any_float), st.booleans(), any_float,
        st.one_of(st.sampled_from((STACK, ODE, "nan", "a,b")), st.text())), max_size=4))
    errors = draw(st.lists(st.tuples(any_float, messages), max_size=3))
    return SweepResult(tuple(rows), tuple(errors))


def _reference_sweep_json(sw):
    return json.dumps({"type": "sweep", "rows": [tables._scattering_json(s) for s in sw.rows],
                       "errors": [[k, msg] for k, msg in sw.errors]}, indent=2)


def _abs2(z):
    """|z|^2: NaN for a NaN part (unless the other is infinite), inf past float64's range."""
    if cmath.isnan(z) and not cmath.isinf(z):
        return math.nan
    try:
        return abs(z) ** 2
    except OverflowError:
        return math.inf


def _reference_sweep_csv(sw):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(tables.SWEEP_COLUMNS)
    fmt = tables._fmt
    for s in sw.rows:
        w.writerow([fmt(s.k), fmt(s.T.real), fmt(s.T.imag), fmt(s.R_left.real),
                    fmt(s.R_left.imag), fmt(s.R_right.real), fmt(s.R_right.imag),
                    fmt(_abs2(s.T)), fmt(_abs2(s.R_left)), fmt(_abs2(s.R_right)),
                    fmt(s.D.real), fmt(s.D.imag), fmt(s.condition), fmt(s.finite), s.backend])
    return buf.getvalue()


@given(sweep_results())
@settings(max_examples=200, deadline=None)
def test_sweep_writers_match_reference_encoders(sw):
    assert tables.sweep_to_json(sw) == _reference_sweep_json(sw)
    assert tables.sweep_to_csv(sw) == _reference_sweep_csv(sw)


# --- report writer against the encoder it replaces ----------------------------

optional_float = st.one_of(st.none(), any_float)
optional_int = st.one_of(st.none(), st.integers())
scattering_rows = st.builds(
    ScatteringData, any_float, amplitude, amplitude, amplitude,
    st.builds(complex, any_float, any_float), st.booleans(), any_float,
    st.sampled_from((STACK, ODE)))
phase_records = st.builds(PhaseRecord, optional_float, optional_float, optional_float,
                          optional_int, optional_int, optional_float, optional_float)
entries = st.builds(IdentityEntry, st.one_of(st.sampled_from(IDENTITY_IDS), st.text()),
                    optional_float, st.booleans(), messages)
symmetries = st.builds(SymmetryClass, st.booleans(), st.booleans(), st.booleans(),
                       any_float, any_float, any_float, any_float)


@st.composite
def identity_reports(draw):
    return IdentityReport(draw(any_float), tuple(draw(st.lists(entries, max_size=4))),
                          draw(scattering_rows), draw(scattering_rows), draw(symmetries),
                          draw(st.one_of(st.none(), phase_records)))


def _reference_reports_json(reports):
    docs = [{"k": r.k, "symmetry": asdict(r.symmetry),
             "scattering": tables._scattering_json(r.scattering),
             "scattering_negk": tables._scattering_json(r.scattering_negk),
             "phases": tables._phases_json(r.phases),
             "entries": [{"identity": e.identity, "residual": e.residual,
                          "applicable": e.applicable, "note": e.note} for e in r.entries]}
            for r in reports]
    return json.dumps({"type": "verify", "reports": docs}, indent=2)


@given(st.lists(identity_reports(), max_size=3))
@settings(max_examples=200, deadline=None)
def test_report_writer_matches_reference_encoder(reports):
    assert tables.reports_to_json(reports) == _reference_reports_json(reports)


# --- batched stack kernel against one call per k -------------------------------

opaque_stacks = st.builds(
    lambda v, w, x: LayerPotential((complex(v, 0.0),), (w,), x),
    st.floats(min_value=1e3, max_value=1e4), st.floats(min_value=1.0, max_value=10.0),
    st.floats(min_value=-5.0, max_value=0.0))
signed_ks = st.lists(st.builds(lambda k, neg: -k if neg else k, ks, st.booleans()),
                     min_size=1, max_size=12)


@given(st.one_of(layer_stacks(), opaque_stacks), signed_ks)
@settings(max_examples=150, deadline=None)
def test_batched_stack_kernel_matches_single_k_bitwise(p, k_list):
    with np.errstate(all="ignore"):
        batch = stack_matrices(p, k_list)
        for i, k in enumerate(k_list):
            assert batch[i].tobytes() == stack_matrices(p, [k])[0].tobytes()
