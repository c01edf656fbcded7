import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrank.operators import (Operator, OperatorSpecError, _real_stack, multi_indices,
                               multinomial_weight, operator_from_document, parse_operator,
                               serialize_operator, symbol, symbol_stack)
from symrank.zoo import zoo_get, zoo_list


# ------------------------------------------------------------------ indices

def test_multi_indices_n2_k2_explicit():
    assert multi_indices(2, 2) == ((0, 2), (1, 1), (2, 0))


def test_multi_indices_n3_k1_explicit():
    assert multi_indices(3, 1) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


@pytest.mark.parametrize("n, k", [(0, 1), (2, -1)])
def test_multi_indices_need_an_axis_and_a_nonnegative_degree(n, k):
    with pytest.raises(ValueError, match="need n >= 1 and k >= 0"):
        multi_indices(n, k)


@given(st.integers(1, 4), st.integers(0, 5))
def test_multi_indices_properties(n, k):
    out = multi_indices(n, k)
    assert all(len(a) == n and sum(a) == k for a in out)
    assert sorted(set(out)) == list(out)
    # stars and bars count
    assert len(out) == math.comb(n + k - 1, n - 1)


def test_multinomial_weight_values():
    assert multinomial_weight((2, 0)) == 1
    assert multinomial_weight((1, 1)) == 2
    assert multinomial_weight((1, 2)) == 3
    assert multinomial_weight((2, 2)) == 6
    assert multinomial_weight((1, 1, 1)) == 6


@given(st.integers(1, 3), st.integers(0, 6))
def test_multinomial_weights_sum_to_power(n, k):
    # sum over |alpha| = k of k!/alpha! equals n^k
    assert sum(multinomial_weight(a) for a in multi_indices(n, k)) == n ** k


# ------------------------------------------------------------------ operator

def test_terms_are_canonicalized():
    a = Operator("wave", 2, 2, 1, 1, (((2, 0), ((1.0,),)), ((0, 2), ((-1.0,),))))
    b = Operator("wave", 2, 2, 1, 1, (((0, 2), ((-1.0,),)), ((2, 0), ((1.0,),))))
    assert a == b
    assert [alpha for alpha, _ in a.terms] == [(0, 2), (2, 0)]
    assert hash(a) == hash(b)


@pytest.mark.parametrize("terms, message", [
    ((((1, 0), ((1.0,),)), ((0, 2), ((1.0,),))), "inhomogeneous"),
    ((((1, 1), ((1.0,),)), ((1, 1), ((2.0,),))), "duplicate"),
    ((((1, 1), ((1.0, 2.0),)),), "rows of"),
    ((((1, 1), ((float("nan"),),)),), "non-finite"),
    ((), "empty term list"),
    ((((1, 1), ((0.0,),)),), "all coefficient matrices are zero"),
    ((((1, -1, 2), ((1.0,),)),), "nonnegative"),
    # float() and int() raise OverflowError here, not TypeError or ValueError
    ((((1, 1), ((10 ** 400,),)),), r"matrix: entry beyond the float range"),
    ((((math.inf, 2), ((1.0,),)),), "integer exponents"),
    # nothing is rounded: int() made (0.5, 2.9) the exponents (0, 2), and
    # float() made "2" and True coefficients
    ((((0.5, 2.9), ((1.0,),)),), "integer exponents"),
    ((((1.0, 1.0), ((1.0,),)),), "integer exponents"),
    ((((True, True), ((1.0,),)),), "integer exponents"),
    ((((1, 1), (("2",),)),), "non-numeric entry '2'"),
    ((((1, 1), ((True,),)),), "non-numeric entry True"),
    ((((2 ** 63, 0), ((1.0,),)),), r"terms\[0\]\.alpha: exponent beyond the int64 range"),
    (5, "terms: expected an iterable"),
    ((((1, 1), ((1.0,),), 3),), r"terms\[0\]: expected an \(alpha, matrix\) pair"),
    ((((1, 1), 1.0),), r"terms\[0\]\.matrix: expected a list of rows"),
    ((((1, 1), (1.0,)),), r"terms\[0\]\.matrix: expected a list of rows"),
])
def test_invalid_terms_rejected(terms, message):
    n = len(terms[0][0]) if isinstance(terms, tuple) and terms else 2
    with pytest.raises(OperatorSpecError, match=message):
        Operator("bad", n, 2, 1, 1, terms)


def test_numpy_integers_and_rows_are_accepted_as_they_are():
    plain = Operator("m", 2, 2, 2, 2, (((1, 1), ((1.0, 0.0), (0.0, 1.0))),))
    assert Operator("m", 2, 2, 2, 2, ((np.array([1, 1]), np.eye(2)),)) == plain
    assert Operator("m", 2, 2, 2, 2, [[(np.int8(1), np.uint64(1)), [[1, 0], [0, 1]]]]) == plain


def test_invalid_dimensions_rejected():
    with pytest.raises(OperatorSpecError, match="dim_v"):
        Operator("bad", 2, 1, 0, 1, (((1, 0), ((1.0,),)),))
    with pytest.raises(OperatorSpecError, match="name"):
        Operator("", 2, 2, 1, 1, (((1, 1), ((1.0,),)),))


def test_zoo_entries_pass_validation():
    for entry in zoo_list():
        op = entry.build()
        assert op.name == entry.name
        assert all(sum(alpha) == op.k for alpha, _ in op.terms)


# ------------------------------------------------------------------ symbol

def test_symbol_divergence_oracle():
    op = zoo_get("divergence")
    got = symbol(op, (1.0, 2.0, 3.0))
    assert np.allclose(got, 1j * np.array([[1.0, 2.0, 3.0]]))


def test_symbol_laplacian_oracle():
    op = zoo_get("laplacian")
    got = symbol(op, (3.0, 4.0))
    assert np.allclose(got, [[-25.0]])


def test_symbol_wave_and_d1d2_oracle():
    assert np.allclose(symbol(zoo_get("wave"), (2.0, 1.0)), [[-3.0]])
    assert np.allclose(symbol(zoo_get("d1d2"), (5.0, 1.0)), [[-5.0]])
    # vanishing loci: diagonals for wave, axes for d1d2
    assert np.allclose(symbol(zoo_get("wave"), (1.0, 1.0)), [[0.0]])
    assert np.allclose(symbol(zoo_get("d1d2"), (1.0, 0.0)), [[0.0]])


def test_symbol_curl_is_cross_product():
    op = zoo_get("curl")
    rng = np.random.default_rng(5)
    for _ in range(10):
        xi = rng.standard_normal(3)
        v = rng.standard_normal(3)
        assert np.allclose(symbol(op, xi) @ v, 1j * np.cross(xi, v))


def test_symbol_shape_and_input_validation():
    op = zoo_get("divergence")
    assert symbol(op, (1.0, 0.0, 0.0)).shape == (1, 3)
    with pytest.raises(ValueError, match="length 3"):
        symbol(op, (1.0, 2.0))
    with pytest.raises(ValueError, match="non-finite"):
        symbol(op, (1.0, float("inf"), 0.0))
    for xis in ([1.0, 0.0, 0.0], [[1.0, 0.0]], np.zeros((1, 1, 3))):
        with pytest.raises(ValueError, match=r"expected an array of shape \(m, 3\)"):
            _real_stack(op, xis)


@pytest.mark.parametrize("name", [e.name for e in zoo_list()])
def test_symbol_stack_matches_pointwise(name):
    op = zoo_get(name)
    rng = np.random.default_rng(7)
    xis = rng.standard_normal((11, op.n))
    stacked = symbol_stack(op, xis)
    for i in range(len(xis)):
        assert np.allclose(stacked[i], symbol(op, xis[i]))


@pytest.mark.parametrize("name", [e.name for e in zoo_list()])
def test_symbol_reflection_conjugation(name):
    # real coefficients force conj(A(xi)) = A(-xi)
    op = zoo_get(name)
    rng = np.random.default_rng(11)
    for _ in range(5):
        xi = rng.standard_normal(op.n)
        assert np.allclose(symbol(op, xi).conj(), symbol(op, -xi), atol=1e-12)


@given(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), st.floats(0.1, 5.0))
@settings(max_examples=60)
def test_symbol_homogeneity(x, y, t):
    for name in ("gradient", "laplacian", "wave"):
        op = zoo_get(name)
        xi = np.array([x, y])
        assert np.allclose(symbol(op, t * xi), t ** op.k * symbol(op, xi),
                           rtol=1e-10, atol=1e-10)


# ------------------------------------------------------------------ documents

def test_parse_serialize_round_trip():
    for entry in zoo_list():
        op = entry.build()
        text = serialize_operator(op)
        again = parse_operator(text)
        assert again == op
        assert serialize_operator(again) == text


def test_serialized_document_is_canonical():
    op = zoo_get("wave")
    doc = json.loads(serialize_operator(op))
    shuffled = dict(doc)
    shuffled["terms"] = list(reversed(doc["terms"]))
    assert serialize_operator(operator_from_document(shuffled)) == serialize_operator(op)


def test_parse_rejects_bad_documents():
    good = json.loads(serialize_operator(zoo_get("d1d2")))

    def broken(**changes):
        doc = json.loads(json.dumps(good))
        doc.update(changes)
        return json.dumps(doc)

    with pytest.raises(OperatorSpecError, match="invalid JSON"):
        parse_operator("{")
    with pytest.raises(OperatorSpecError, match="missing field 'terms'"):
        doc = json.loads(json.dumps(good))
        del doc["terms"]
        parse_operator(json.dumps(doc))
    with pytest.raises(OperatorSpecError, match="unknown field"):
        parse_operator(broken(extra=1))
    with pytest.raises(OperatorSpecError, match="must be an integer"):
        parse_operator(broken(n=2.5))
    with pytest.raises(OperatorSpecError, match="expected a list of integers"):
        parse_operator(broken(terms=[{"alpha": [1.0, 1.0], "matrix": [[1.0]]}]))
    with pytest.raises(OperatorSpecError, match="non-numeric entry"):
        parse_operator(broken(terms=[{"alpha": [1, 1], "matrix": [["x"]]}]))
    with pytest.raises(OperatorSpecError, match="non-finite"):
        parse_operator(broken(terms=[{"alpha": [1, 1], "matrix": [[None]]}])
                       .replace("null", "NaN"))
    with pytest.raises(OperatorSpecError, match="expected a JSON object"):
        parse_operator("[1, 2]")
    # a JSON integer decodes exactly, however large; as a float it overflows
    with pytest.raises(OperatorSpecError, match=r"terms\[0\]\.matrix: entry beyond the float range"):
        parse_operator(broken(terms=[{"alpha": [1, 1], "matrix": [[10 ** 400]]}]))
    # json.loads raises plain ValueError past int's digit limit, RecursionError past nesting
    with pytest.raises(OperatorSpecError, match="invalid JSON .*digits"):
        parse_operator(broken(terms=[]).replace("[]", "[[[1" + "0" * 5000 + "]]]"))
    with pytest.raises(OperatorSpecError, match="invalid JSON .*recursion"):
        parse_operator("[" * 100000 + "]" * 100000)


def test_parse_rejects_repeated_and_unknown_keys():
    # json.loads keeps the last of a repeated key: this document read as d1d2
    text = ('{"name": "x", "n": 2, "k": 2, "dimV": 1, "dimW": 1, "terms": '
            '[{"alpha": [2, 0], "matrix": [[1.0]]}, {"alpha": [0, 2], "matrix": [[1.0]]}], '
            '"terms": [{"alpha": [1, 1], "matrix": [[1.0]]}]}')
    with pytest.raises(OperatorSpecError, match="^document: duplicate field 'terms'$"):
        parse_operator(text)
    with pytest.raises(OperatorSpecError, match="^document: duplicate field 'alpha'$"):
        parse_operator(text.replace('"alpha": [1, 1]', '"alpha": [1, 1], "alpha": [1, 1]'))
    doc = json.loads(serialize_operator(zoo_get("d1d2")))
    doc["terms"][0]["scale"] = 2
    with pytest.raises(OperatorSpecError, match=r"^terms\[0\]: unknown field 'scale'$"):
        parse_operator(json.dumps(doc))


def test_document_messages_spell_fields_as_the_document_does():
    # Operator names the field dim_v; the document's message names it dimV
    doc = json.loads(serialize_operator(zoo_get("d1d2")))
    doc["dimV"] = 0
    with pytest.raises(OperatorSpecError, match="^dimV: must be an integer"):
        parse_operator(json.dumps(doc))


def test_document_example_from_module_docstring():
    text = """
    {"name": "divergence", "n": 3, "k": 1, "dimV": 3, "dimW": 1,
     "terms": [{"alpha": [1, 0, 0], "matrix": [[1, 0, 0]]},
               {"alpha": [0, 1, 0], "matrix": [[0, 1, 0]]},
               {"alpha": [0, 0, 1], "matrix": [[0, 0, 1]]}]}
    """
    assert parse_operator(text) == zoo_get("divergence")


# ------------------------------------------------------------------ documents, generated
# Any decoded JSON value as a document, one shaped like an operator document,
# or a zoo operator's document with an entry or field replaced, every drawn
# value an int (huge ones too), float (non-finite too), bool, string, null or
# nested list: parse_operator either returns an Operator or raises
# OperatorSpecError.  (Ints past Python's digit limit cannot be encoded here;
# test_parse_rejects_bad_documents writes one by hand.)

HUGE_INTS = st.sampled_from([2 ** 63, -2 ** 63 - 1, 2 ** 1024, 10 ** 400, -10 ** 400])
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), HUGE_INTS,
                   st.floats(), st.text(max_size=3))
JSON_VALUES = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)
SMALL = st.one_of(st.integers(1, 3), LEAVES)
SHAPED = st.fixed_dictionaries(
    {"name": st.one_of(st.text(max_size=4), LEAVES), "n": SMALL, "k": SMALL, "dimV": SMALL,
     "dimW": SMALL, "terms": st.one_of(st.lists(st.fixed_dictionaries(
         {"alpha": st.lists(st.one_of(st.integers(0, 2), LEAVES), max_size=3),
          "matrix": st.lists(st.lists(LEAVES, max_size=3), max_size=3)}), max_size=3),
         JSON_VALUES)},
    optional={"extra": JSON_VALUES})
FIELDS = ["name", "n", "k", "dimV", "dimW", "terms", "extra"]


@st.composite
def edited_documents(draw):
    """A zoo operator's document with a matrix entry or another part replaced, maybe a field too."""
    doc = json.loads(serialize_operator(draw(st.sampled_from(zoo_list())).build()))
    term = draw(st.sampled_from(doc["terms"]))
    row = draw(st.sampled_from(term["matrix"]))
    if draw(st.booleans()):
        row[draw(st.integers(0, len(row) - 1))] = draw(LEAVES)
    else:
        target, key = draw(st.sampled_from([
            (term, "alpha"), (term, "matrix"), (term, "extra"),
            (term["alpha"], draw(st.integers(0, len(term["alpha"]) - 1))),
            (term["matrix"], draw(st.integers(0, len(term["matrix"]) - 1)))]))
        target[key] = draw(JSON_VALUES)
    if draw(st.booleans()):
        doc[draw(st.sampled_from(FIELDS))] = draw(JSON_VALUES)
    if draw(st.booleans()):
        doc.pop(draw(st.sampled_from(FIELDS)), None)
    return doc


@given(st.one_of(edited_documents(), SHAPED, JSON_VALUES))
@settings(max_examples=200, deadline=None)
def test_generated_documents_parse_or_raise_spec_errors(doc):
    # json.dumps writes non-finite floats as NaN and Infinity, which the parser rejects
    try:
        op = parse_operator(json.dumps(doc))
    except OperatorSpecError:
        return
    assert isinstance(op, Operator)
    assert parse_operator(serialize_operator(op)) == op


def value_or_none(build):
    """build(), or None when it raises OperatorSpecError."""
    try:
        return build()
    except OperatorSpecError:
        return None


@given(st.one_of(edited_documents(), SHAPED))
@settings(max_examples=200, deadline=None)
def test_documents_and_the_constructor_agree(doc):
    # the parser checks only the document's shape and hands its values to Operator as
    # they are: a well-shaped document parses exactly when Operator takes its values,
    # to the same operator, and any other is refused
    parsed = value_or_none(lambda: parse_operator(json.dumps(doc)))
    terms = doc.get("terms")
    if set(doc) != set(FIELDS[:6]) or not isinstance(terms, list) or not all(
            isinstance(term, dict) and set(term) == {"alpha", "matrix"} for term in terms):
        assert parsed is None
        return
    built = value_or_none(lambda: Operator(
        doc["name"], doc["n"], doc["k"], doc["dimV"], doc["dimW"],
        tuple((term["alpha"], term["matrix"]) for term in terms)))
    assert parsed == built


@given(st.text(max_size=40))
@settings(max_examples=100, deadline=None)
def test_generated_text_parses_or_raises_spec_errors(text):
    try:
        parse_operator(text)
    except OperatorSpecError:
        pass
