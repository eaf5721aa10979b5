import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptscatter import (
    AnalyticPotential,
    LayerPotential,
    PotentialError,
    SampledPotential,
    classify_symmetry,
    parse_potential_spec,
)
from ptscatter.catalog import barrier, builtin_potential, free, onesided, pt_bilayer, scarf2
from ptscatter.potentials import _breakpoints


def test_zero_potential_evaluates_to_zero():
    assert free().evaluate(0.3) == 0
    assert free().evaluate(-17.0) == 0


def test_single_layer_readback():
    p = LayerPotential((1 + 2j,), (1.0,), 0.0)
    assert p.evaluate(0.5) == 1 + 2j
    assert p.evaluate(-0.1) == 0
    assert p.evaluate(1.1) == 0


def test_pt_bilayer_readback():
    p = pt_bilayer(gamma=0.5, a=1.0)
    assert p.evaluate(-0.5) == 0.5j
    assert p.evaluate(0.5) == -0.5j


def test_evaluate_is_exactly_zero_outside_support():
    pots = [
        barrier(),
        pt_bilayer(),
        SampledPotential((-1.0, 0.0, 1.0), (1j, 2.0, -1j)),
        scarf2(),
    ]
    for p in pots:
        lo, hi = p.support_interval()
        for x in (lo - 1e-9, hi + 1e-9, lo - 50.0, hi + 50.0):
            assert p.evaluate(x) == 0, f"{p.kind} at {x}"


def test_layer_support_interval():
    p = LayerPotential((1.0, 2.0), (1.5, 1.5), -1.0)
    assert p.support_interval() == (-1.0, 2.0)


def test_zero_potential_degenerate_support():
    assert free().support_interval() == (0.0, 0.0)


def test_scarf2_truncation_width_matches_bisection_oracle():
    # independent bracketing bisection on |v| along the analytic tail
    threshold = 1e-12
    p = scarf2(v1=1.0, v2=0.5, alpha=1.0, truncation=threshold)

    def modulus(x):
        s = 1.0 / np.cosh(x)
        return abs(-s * s + 0.5j * s * np.tanh(x))

    lo, hi = 1.0, 1.0
    while modulus(hi) > threshold:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if modulus(mid) > threshold:
            lo = mid
        else:
            hi = mid
    expect = 0.5 * (lo + hi)
    got_lo, got_hi = p.support_interval()
    assert got_hi == pytest.approx(expect, abs=1e-9)
    assert got_lo == pytest.approx(-expect, abs=1e-9)
    # ln(amplitude/threshold) sets the scale of the half-width
    assert got_hi == pytest.approx(np.log(1.0 / threshold), rel=0.05)


def test_sampled_interpolation_and_support():
    p = SampledPotential((0.0, 1.0, 2.0), (0.0, 2.0 + 2j, 0.0))
    assert p.evaluate(0.5) == pytest.approx(1.0 + 1j)
    assert p.support_interval() == (0.0, 2.0)


def test_classify_real_even_barrier():
    sym = classify_symmetry(barrier())
    assert sym.is_real and sym.is_even and sym.is_pt_symmetric
    assert max(sym.real_violation, sym.even_violation, sym.pt_violation) == 0.0


@pytest.mark.parametrize("p,flags,violations", [
    (pt_bilayer(), (False, False, True), (0.5, 1.0, 0.0)),
    # spikes narrower than a 1e-3-spaced sampling grid
    (LayerPotential((2, 2, 30, 2), (1, 0.5001, 2e-4, 0.4997), -1),
     (True, False, False), (0.0, 28.0, 28.0)),
    (SampledPotential((-1, 0.3, 0.3001, 0.3002, 1), (0, 0, 5, 0, 0)),
     (True, False, False), (0.0, 5.0, 5.0)),
    # the supremum is the limit at x -> 1+, where v(x) -> 1 and v(-x) = 0
    (SampledPotential((-1.0, 1.0, 2.0), (1.0, 1.0, 0.0)),
     (True, False, False), (0.0, 1.0, 1.0)),
], ids=["pt-bilayer", "layer-spike", "sampled-spike", "sampled-edge-limit"])
def test_classify_exact_violations(p, flags, violations):
    sym = classify_symmetry(p)
    assert (sym.is_real, sym.is_even, sym.is_pt_symmetric) == flags
    assert (sym.real_violation, sym.even_violation, sym.pt_violation) == violations


def test_classify_onesided_no_class():
    sym = classify_symmetry(onesided())
    assert not (sym.is_real or sym.is_even or sym.is_pt_symmetric)
    assert not sym.has_any


def test_classify_even_complex_layer():
    p = LayerPotential((1 + 0.5j,), (2.0,), -1.0)
    sym = classify_symmetry(p)
    assert sym.is_even and not sym.is_real and not sym.is_pt_symmetric


def test_classify_scarf2_is_pt():
    sym = classify_symmetry(scarf2())
    assert sym.is_pt_symmetric and not sym.is_real and not sym.is_even


def test_parse_bilayer_document():
    text = '{"layers":[{"re":0,"im":0.5,"width":1},{"re":0,"im":-0.5,"width":1}],"x0":-1}'
    p = parse_potential_spec(text)
    assert isinstance(p, LayerPotential)
    assert p.values == (0.5j, -0.5j)
    assert p.support_interval() == (-1.0, 1.0)


def test_parse_family_document():
    p = parse_potential_spec('{"family":"scarf2","params":{"v1":1.0,"v2":0.5}}')
    assert isinstance(p, AnalyticPotential)
    assert p.family == "scarf2"


def test_parse_catalog_name_through_family_syntax():
    p = parse_potential_spec('{"family":"pt-bilayer","params":{"gamma":0.25}}')
    assert isinstance(p, LayerPotential)
    assert p.values == (0.25j, -0.25j)


def test_parse_samples_document():
    p = parse_potential_spec('{"samples":[{"x":0,"re":1},{"x":1,"re":2,"im":-1}]}')
    assert isinstance(p, SampledPotential)
    assert p.vs == (1.0, 2.0 - 1j)


@pytest.mark.parametrize("text,fragment", [
    ('{"layers":[{"width":-1,"re":1}]}', "width"),
    ('{"layers":[{"re":1}]}', "width"),
    ("{not json", "JSON"),
    ('{"family":"nope"}', "unknown"),
    ('{"samples":[{"x":1,"re":0},{"x":0,"re":0}]}', "increasing"),
    ('{"samples":[{"x":1,"re":0}]}', "2 samples"),
    ('{"layers":[],"family":"scarf2"}', "exactly one"),
    ('[1,2]', "object"),
    ('{"layers":[{"re":null,"width":1}]}', "layer 0"),
    ('{"layers":[{"re":1,"width":null}]}', "layer 0"),
    ('{"layers":[{"re":1,"width":[1]}]}', "layer 0"),
    ('{"samples":[{"x":"abc"},{"x":1}]}', "sample 0: malformed number"),
    ('{"samples":[{"x":0,"re":"abc"},{"x":1}]}', "sample 0: malformed number"),
    ('{"samples":[{"x":0},{"re":1}]}', "sample 1: expected an object"),
    # a spec number is a JSON number: never a string or a boolean, and it fits a float
    ('{"layers":[{"re":"2","width":1}]}', "layer 0: malformed number"),
    ('{"layers":[{"re":1,"width":true}]}', "layer 0: malformed number"),
    ('{"layers":[{"re":1,"width":1}],"x0":"-1"}', "'x0': malformed number"),
    ('{"family":"pt-bilayer","params":{"gamma":true}}', "gamma.*: malformed number"),
    ('{"family":"scarf2","truncation":"1e-10"}', "'truncation': malformed number"),
    pytest.param('{"layers":[{"re":1,"width":1%s}]}' % ("0" * 399), "layer 0: malformed number",
                 id="400-digit-width"),
    # a family is a string, and a catalog param may be called "name"
    ('{"family":[1]}', "'family' must be a string"),
    ('{"family":"barrier","params":{"name":1}}', "bad parameters for 'barrier'"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(PotentialError, match=fragment):
        parse_potential_spec(text)


# field: (JSON spec with the bad value at that field, the same through the Python
# constructor, the name of the field in the message on each path)
NUMBER_FIELDS = {
    "layer width": (lambda bad: {"layers": [{"re": 1, "width": bad}]},
                    lambda bad: LayerPotential((1.0,), (bad,)), "layer 0", "layer 0"),
    "layer value": (lambda bad: {"layers": [{"re": bad, "width": 1}]},
                    lambda bad: LayerPotential((bad,), (1.0,)), "layer 0", "layer 0"),
    "x0": (lambda bad: {"layers": [{"re": 1, "width": 1}], "x0": bad},
           lambda bad: LayerPotential((1.0,), (1.0,), bad), "'x0'", "x_left"),
    "sample x": (lambda bad: {"samples": [{"x": bad}, {"x": 1}]},
                 lambda bad: SampledPotential((bad, 1.0), (0.0, 0.0)), "sample 0", "sample 0"),
    "sample value": (lambda bad: {"samples": [{"x": 0, "re": bad}, {"x": 1}]},
                     lambda bad: SampledPotential((0.0, 1.0), (bad, 0.0)), "sample 0", "sample 0"),
    "truncation": (lambda bad: {"family": "scarf2", "truncation": bad},
                   lambda bad: AnalyticPotential("scarf2", {}, bad),
                   "'truncation'", "'truncation'"),
    "analytic param": (lambda bad: {"family": "gaussian", "params": {"height": bad}},
                       lambda bad: AnalyticPotential("gaussian", {"height": bad}),
                       "param 'height'", "param 'height'"),
    "catalog param": (lambda bad: {"family": "pt-bilayer", "params": {"gamma": bad}},
                      lambda bad: builtin_potential("pt-bilayer", gamma=bad),
                      "param 'gamma'", "param 'gamma'"),
}
MALFORMED = {"string": "1", "boolean": True, "null": None, "list": [1], "400-digit": 10 ** 400}


@pytest.mark.parametrize("bad", MALFORMED.values(), ids=MALFORMED.keys())
@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_one_number_rule_for_json_and_python(field, bad):
    # the spec parser and the constructors refuse the same values with the same message
    spec, build, json_where, python_where = NUMBER_FIELDS[field]
    with pytest.raises(PotentialError, match=f"^{json_where}: malformed number") as from_json:
        parse_potential_spec(json.dumps(spec(bad)))
    with pytest.raises(PotentialError, match=f"^{python_where}: malformed number") as from_python:
        build(bad)
    assert str(from_python.value) == str(from_json.value).replace(json_where, python_where, 1)


# Python value, and its JSON text: 1e400 is a literal that Python parses to inf
NON_FINITE = {"nan": (float("nan"), "NaN"), "inf": (float("inf"), "Infinity"),
              "-inf": (float("-inf"), "-Infinity"), "1e400": (float("inf"), "1e400")}


@pytest.mark.parametrize("bad", NON_FINITE.values(), ids=NON_FINITE.keys())
@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_non_finite_refused_for_json_and_python(field, bad):
    # _number refuses NaN and +-inf on both paths, naming the field
    spec, build, json_where, python_where = NUMBER_FIELDS[field]
    value, json_text = bad
    marker = 123456.789  # stands in for the value, then its JSON text replaces it
    text = json.dumps(spec(marker)).replace(repr(marker), json_text)
    with pytest.raises(PotentialError, match=f"^{json_where}: non-finite value "):
        parse_potential_spec(text)
    with pytest.raises(PotentialError, match=f"^{python_where}: non-finite value "):
        build(value)


@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_numpy_boolean_is_not_a_number(field):
    _, build, _, python_where = NUMBER_FIELDS[field]
    with pytest.raises(PotentialError, match=f"^{python_where}: malformed number.*np.True_"):
        build(np.bool_(True))


def test_numpy_scalars_are_numbers():
    p = LayerPotential((np.complex64(1 + 1j),), (np.float32(0.5),), np.int64(-1))
    assert p == LayerPotential((1 + 1j,), (0.5,), -1.0)
    assert (type(p.values[0]), type(p.widths[0]), type(p.x_left)) == (complex, float, float)
    s = SampledPotential((np.int32(0), np.float16(1.5)), (np.float64(2.0), np.complex128(1j)))
    assert s == SampledPotential((0.0, 1.5), (2.0, 1j))
    a = AnalyticPotential("gaussian", {"height": np.float32(0.5)}, np.float64(1e-10))
    assert a == AnalyticPotential("gaussian", {"height": 0.5}, 1e-10)
    assert builtin_potential("pt-bilayer", gamma=np.int64(2)) == pt_bilayer(gamma=2.0)


_SPEC_NUMBER = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                         st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
_SPEC_WIDTH = st.one_of(st.integers(1, 100), st.floats(1e-6, 100.0))


@st.composite
def _layer_or_sample_spec(draw):
    """A JSON-ready layer or sample spec and the potential its constructor builds from it."""
    value = st.fixed_dictionaries({}, optional={"re": _SPEC_NUMBER, "im": _SPEC_NUMBER})
    if draw(st.booleans()):
        layers = [dict(width=w, **draw(value)) for w in draw(st.lists(_SPEC_WIDTH, max_size=6))]
        x0 = draw(_SPEC_NUMBER)
        values = tuple(complex(e.get("re", 0), e.get("im", 0)) for e in layers)
        return ({"layers": layers, "x0": x0},
                LayerPotential(values, tuple(e["width"] for e in layers), x0))
    xs = sorted(draw(st.lists(_SPEC_NUMBER, min_size=2, max_size=6, unique=True)))
    samples = [dict(x=x, **draw(value)) for x in xs]
    values = tuple(complex(e.get("re", 0), e.get("im", 0)) for e in samples)
    return {"samples": samples}, SampledPotential(tuple(xs), values)


@given(_layer_or_sample_spec())
@settings(max_examples=200, deadline=None)
def test_json_spec_equals_the_constructor_on_the_same_numbers(case):
    spec, expected = case
    assert parse_potential_spec(json.dumps(spec)) == expected


def test_layer_validation_errors():
    with pytest.raises(PotentialError):
        LayerPotential((1.0,), (0.0,), 0.0)
    with pytest.raises(PotentialError):
        LayerPotential((1.0, 2.0), (1.0,), 0.0)
    with pytest.raises(PotentialError):
        SampledPotential((0.0, 0.0), (1.0, 1.0))
    # malformed numbers name the layer or sample instead of escaping as a TypeError
    with pytest.raises(PotentialError, match="layer 0"):
        LayerPotential((1.0,), (None,), 0.0)
    with pytest.raises(PotentialError, match="layer 0"):
        LayerPotential((None,), (1.0,), 0.0)
    with pytest.raises(PotentialError, match="x_left"):
        LayerPotential((1.0,), (1.0,), None)
    with pytest.raises(PotentialError, match="sample 0"):
        SampledPotential((0.0, 1.0), (None, 2.0))
    with pytest.raises(PotentialError, match="sample 1"):
        SampledPotential((0.0, "x"), (1.0, 2.0))
    # non-finite values are refused as for layers
    with pytest.raises(PotentialError, match="sample 1: non-finite"):
        SampledPotential((-1.0, 0.0, 1.0), (0.0, complex("nan"), 0.0))
    with pytest.raises(PotentialError, match="sample 0: non-finite"):
        SampledPotential((0.0, 1.0), (complex(0.0, float("inf")), 0.0))


def test_pt_construction_rule_layers():
    # v(x) = w(x) + w(-x)^* is PT-symmetric for any complex w
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = rng.integers(1, 5)
        w_vals = rng.normal(size=n) + 1j * rng.normal(size=n)
        widths = rng.uniform(0.2, 1.5, size=n)
        # symmetric edge layout so every layer has a mirror cell
        widths_full = np.concatenate([widths[::-1], widths])
        vals_w = np.concatenate([np.zeros(n), w_vals])  # w supported on x > 0
        vals = vals_w + np.conj(vals_w[::-1])
        x_left = -float(np.sum(widths))
        p = LayerPotential(tuple(vals), tuple(widths_full), x_left)
        sym = classify_symmetry(p)
        assert sym.is_pt_symmetric, f"violation {sym.pt_violation}"
        assert sym.pt_violation <= 1e-12


def test_pt_construction_rule_samples():
    rng = np.random.default_rng(4)
    xs = np.linspace(-2.0, 2.0, 41)
    w = rng.normal(size=xs.size) + 1j * rng.normal(size=xs.size)
    vals = w + np.conj(w[::-1])
    p = SampledPotential(tuple(xs), tuple(vals))
    sym = classify_symmetry(p)
    assert sym.is_pt_symmetric
    assert sym.pt_violation <= 1e-12


def test_real_even_implies_pt_flag():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        vals = rng.normal(size=n)
        widths = rng.uniform(0.2, 1.0, size=n)
        full_vals = tuple(np.concatenate([vals[::-1], vals]).astype(complex))
        full_widths = tuple(np.concatenate([widths[::-1], widths]))
        p = LayerPotential(full_vals, full_widths, -float(np.sum(widths)))
        sym = classify_symmetry(p)
        assert sym.is_real and sym.is_even
        assert sym.is_pt_symmetric


def test_parse_rejects_unreadable_params():
    with pytest.raises(PotentialError):
        AnalyticPotential("scarf2", {"bogus": 1.0})


def test_layers_json_round_shape():
    doc = {"layers": [{"re": 2, "im": 0, "width": 2}], "x0": -1}
    p = parse_potential_spec(json.dumps(doc))
    assert p.evaluate(0.0) == 2.0


def _equal_layers_on_grid(half_values):
    """64 equal layers on [-3, 3]: edges 0.1875, 0.5625, ... fall on the classifier grid."""
    return LayerPotential(tuple(np.conj(half_values[::-1])) + tuple(half_values),
                          (6.0 / 64,) * 64, -3.0)


def test_classify_pt_stack_with_edges_on_grid():
    rng = np.random.default_rng(6)
    half = rng.uniform(-1, 1, 32) + 1j * rng.uniform(-0.4, 0.4, 32)
    sym = classify_symmetry(_equal_layers_on_grid(half))
    assert sym.is_pt_symmetric and sym.pt_violation == 0.0
    assert not sym.is_real and not sym.is_even


def test_classify_mirrored_real_stack_with_edges_on_grid():
    rng = np.random.default_rng(7)
    sym = classify_symmetry(_equal_layers_on_grid(rng.uniform(-1, 1, 32) + 0j))
    assert sym.is_real and sym.is_even and sym.is_pt_symmetric
    assert sym.even_violation == 0.0


_BUMP_XS = np.linspace(-3.0, 3.0, 13)
# signed zeros among the values: an exact abscissa must not return its sample as stored
NODE_CASES = {
    "layers": LayerPotential((0.3 + 0.1j, complex(-0.0, -0.3), -0.3, 0.3 - 0.1j), (1.5,) * 4, -3.0),
    "samples": SampledPotential(tuple(_BUMP_XS), tuple(
        complex(-0.0 if x == 0 else np.exp(-x * x), 0.3 * x * np.exp(-x * x)) for x in _BUMP_XS)),
    "scarf2": scarf2(1.0, 7.75, 1.0),
    "gaussian": AnalyticPotential("gaussian", {"height": 1.3, "width": 0.7}),
}


@st.composite
def _step_nodes(draw):
    """A profile and 12 x, as many as the ODE reads in one evaluate call per step."""
    name = draw(st.sampled_from(sorted(NODE_CASES)))
    p = NODE_CASES[name]
    lo, hi = p.support_interval()
    special = _breakpoints(p).tolist() + [-0.0, 0.0, lo - 1.0, hi + 1.0]
    special += [np.nextafter(x, s) for x in special for s in (-np.inf, np.inf)]
    node = st.one_of(st.sampled_from(special), st.floats(lo - 1.0, hi + 1.0))
    return name, draw(st.lists(node, min_size=12, max_size=12))


@given(_step_nodes())
@example(("gaussian", [0.6725] * 12))  # (x / width) ** 2 once made a one-element array differ here
@settings(max_examples=400, deadline=None)
def test_evaluate_on_a_node_array_is_bit_identical_to_each_node_alone(case):
    # the ODE reads all nodes of a step in one call; each node read through a 0-d
    # array is the reference, and int64 views tell signed zeros apart
    name, nodes = case
    p = NODE_CASES[name]
    got = np.asarray(p.evaluate(np.array(nodes)), dtype=complex)
    alone = np.array([p.evaluate(np.asarray(x)) for x in nodes], dtype=complex)
    assert got.shape == (12,)
    assert np.array_equal(got.view(np.int64), alone.view(np.int64))
