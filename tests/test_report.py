"""Report documents: deterministic encoding and text rendering."""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp, mpf_neg, to_str

from admissible_sl2 import report
from admissible_sl2.cli import main
from admissible_sl2.exact import UniPoly, rat, rat_str
from admissible_sl2.numeric import ComplexVal, theta_eval_numeric
from admissible_sl2.qseries import QSeries, ThetaSpec
from admissible_sl2.report import (
    SCHEMA_VERSION,
    all_checks_pass,
    check,
    document,
    dumps,
    encode,
    render_text,
)
from admissible_sl2.weights import Level, enumerate_admissible
from test_golden_reports import ARGVS as GOLDEN_ARGVS
from test_libmp_spellings import MPMATH


def test_encode_scalars():
    assert encode(None) is None
    assert encode(True) is True
    assert encode(7) == 7
    assert encode("x") == "x"
    assert encode(Fraction(4)) == "4"
    assert encode(Fraction(-3, 2)) == "-3/2"


def test_encode_poly_sorted_pairs():
    poly = UniPoly({3: Fraction(2), 0: Fraction(-1, 2)})
    assert encode(poly) == [[0, "-1/2"], [3, "2"]]


def test_encode_qseries_round_trip():
    series = QSeries.from_terms(
        [(Fraction(7, 24), Fraction(1)), (Fraction(31, 24), Fraction(2))], Fraction(2)
    )
    assert encode(series) == {"D": 24, "terms": [[7, "1"], [31, "2"]], "order": "2"}


def test_encode_level_and_weight_round_trip():
    level = Level(3, 2)
    assert encode(level) == {"p": 3, "q": 2, "ell": "-1/2", "t": "3/2"}
    for w in enumerate_admissible(level):
        assert encode(w) == {"n": w.n, "k": w.k, "j": rat_str(w.j)}


def test_parse_rational():
    # the "a/b" encoding reads back with exact.rat
    assert rat("-3/2") == Fraction(-3, 2)
    assert rat("4") == Fraction(4)
    with pytest.raises(ValueError):
        rat("x/y")


def test_encode_complexval_preserves_precision():
    # a value computed at 192 bits must not be re-rounded to 53 on encoding
    val = theta_eval_numeric(
        ThetaSpec(0, 1, Fraction(0)), mp.mpc(0, "0.5"), tol=mp.mpf("1e-35"), prec=192
    )
    obj = encode(val)
    assert set(obj) == {"value", "err"}
    with mp.workprec(192):
        classical = mp.pi ** mp.mpf("0.25") / mp.gamma(mp.mpf(3) / 4)
        reread = mp.mpf(obj["value"][0])
        assert abs(reread - classical) < mp.mpf("1e-28")
    # 30 significant digits survive the string round trip
    digits = obj["value"][0].replace(".", "").lstrip("-0")
    assert len(digits) >= 25


_MPF = st.one_of(
    st.just(mp.mpf(0)),
    st.builds(
        lambda sign, man, exp: mp.make_mpf(from_man_exp(sign * man, exp)),  # exact
        st.sampled_from([1, -1]),
        st.integers(1, 2**200),
        st.integers(-1200, 1200),
    ),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(x=_MPF, y=_MPF, err=_MPF)
def test_memoised_strings_equal_fresh_to_str(x, y, err):
    # one document holds a value, its negation and its conjugate, so they
    # share memo entries; each string must still be to_str's own.  At 400
    # bits every negation and the complex pair are exact.
    with mp.workprec(400):
        z = mp.mpc(x, y)
        doc = document(
            "demo",
            {},
            {
                "reals": [x, -x, y, -y],
                "complex": [z, mp.conj(z), -z],
                "val": ComplexVal(z, abs(err), 192),
            },
            [],
        )["results"]

        def fresh(v, digits=30):
            return to_str(v._mpf_, digits, strip_zeros=True)

        assert doc["reals"] == [fresh(x), fresh(-x), fresh(y), fresh(-y)]
        assert doc["complex"] == [
            [fresh(x), fresh(y)], [fresh(x), fresh(-y)], [fresh(-x), fresh(-y)]
        ]
        assert doc["val"] == {"value": [fresh(x), fresh(y)], "err": fresh(abs(err), 8)}
        assert encode(x) == fresh(x) and encode(-x) == fresh(-x)


_MANTISSAS = st.integers(1, 400).flatmap(lambda bits: st.integers(2 ** (bits - 1), 2**bits - 1))


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(man=_MANTISSAS, lead=st.integers(-3600, 3600), digits=st.sampled_from([30, 8]))
def test_decimal_kernel_is_to_str(man, lead, digits):
    # the integer kernel inside |exp + bc| <= 3500 and to_str past it give
    # to_str's own string, for a value and its negation
    raw = from_man_exp(man, lead - man.bit_length())  # exp + bc = lead
    for x in (raw, mpf_neg(raw)):
        assert report._real_str(x, digits, {}) == to_str(x, digits), MPMATH


@pytest.mark.parametrize("digits", [30, 8])
def test_decimal_kernel_carries_and_switches_layout_where_to_str_does(digits):
    # 9.99...955 carried to the next power of ten, and leading digits at
    # both edges of the fixed-point window: min(-(digits // 3), -5) and
    # digits themselves print with an exponent, the ones just inside do not
    min_fixed = min(-(digits // 3), -5)
    with mp.workprec(400):
        carry = 10 - mp.mpf("4.5") * mp.mpf(10) ** -digits  # 9.99...955: digit 5 carries
        assert report._real_str(carry._mpf_, digits, {}) == "10.0"
        cases = [carry, 1 - mp.ldexp(1, -140), mp.mpf(1)]
        for point in (min_fixed - 1, min_fixed, min_fixed + 1, digits - 1, digits, digits + 1):
            scale = mp.mpf(10) ** point
            cases += [scale, scale * mp.mpf("1.25"), scale * carry / 10, scale * mp.pi]
        for v in cases:
            assert report._real_str(v._mpf_, digits, {}) == to_str(v._mpf_, digits), (v, MPMATH)
        assert "e" in report._real_str((mp.mpf(10) ** min_fixed)._mpf_, digits, {})
        assert "e" not in report._real_str((3 * mp.mpf(10) ** (min_fixed + 1))._mpf_, digits, {})
        assert "e" not in report._real_str((mp.mpf(10) ** (digits - 1))._mpf_, digits, {})
        assert "e" in report._real_str((mp.mpf(10) ** digits)._mpf_, digits, {})


def test_encode_mappings_with_fraction_keys():
    obj = encode({Fraction(-1, 2): 1, Fraction(3): 0})
    assert obj == {"-1/2": 1, "3": 0}


@pytest.mark.parametrize("value", [object(), 0.25, {"x": [1, Fraction(1, 2), 0.5]}])
def test_encode_rejects_unknown_types(value):
    # a float carries no error bound, so no report may hold one, however deep
    with pytest.raises(TypeError):
        encode(value)
    with pytest.raises(TypeError):
        document("x", {}, {"results": value}, [])


def test_document_and_checks():
    doc = document(
        "weights",
        {"p": 3, "q": 2},
        {"count": 4},
        [check("a", True, "fine"), check("b", False, "broken")],
    )
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["command"] == {"subcommand": "weights", "parameters": {"p": 3, "q": 2}}
    assert not all_checks_pass(doc["checks"])
    assert all_checks_pass(document("weights", {}, {}, [check("a", True)])["checks"])


def test_dumps_is_valid_deterministic_json():
    doc = document("demo", {"p": 3}, {"xs": [Fraction(1, 3), 2]}, [check("ok", True)])
    text = dumps(doc)
    assert text == dumps(doc)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["results"]["xs"] == ["1/3", 2]


# -- the JSON writer against json.dumps ----------------------------------------
#
# ``dumps`` writes the indented JSON itself; on every tree of the primitives
# ``encode`` emits it must give exactly the standard library's bytes.

_strings = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f\u2028é€😀'), st.characters()),
    max_size=12,
)
_ints = st.one_of(st.integers(), st.integers(min_value=-(10**300), max_value=10**300))
_scalars = st.one_of(st.none(), st.booleans(), _ints, _strings)
_pairs = st.lists(st.tuples(_ints, _strings).map(list), max_size=6)


def _nest(value, shape: list[bool]):
    for in_dict in shape:
        value = {"k": value} if in_dict else [value]
    return value


_str_lists = st.lists(_strings, min_size=1, max_size=6)
_two_leaf_lists = st.one_of(
    st.tuples(_strings, _strings).map(list), st.tuples(st.booleans(), _strings).map(list)
)
_trees = st.recursive(
    st.one_of(_scalars, _pairs, _str_lists, _two_leaf_lists, st.just([]), st.just({})),
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.dictionaries(_strings, kids, max_size=5),
    ),
    max_leaves=30,
)
_deep = st.builds(_nest, _trees, st.lists(st.booleans(), min_size=20, max_size=60))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.one_of(_trees, _deep))
def test_dumps_equals_json_dumps(doc):
    assert dumps(doc) == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def test_dumps_equals_json_dumps_on_every_golden_report(monkeypatch):
    docs = []
    write = report.dumps
    monkeypatch.setattr(report, "dumps", lambda doc: docs.append(doc) or write(doc))
    reports = 0
    for argv in GOLDEN_ARGVS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            reports += main([*argv, "--format", "json"]) != 2  # 2: usage error, no report
    assert len(docs) == reports >= len(GOLDEN_ARGVS) - 1
    for doc in docs:
        assert write(doc) == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("doc", [1.5, {"a": [0.25]}, {1: "a"}, [{"x": {None: 1}}], {(1, 2): 3}])
def test_dumps_rejects_floats_and_non_str_keys(doc):
    with pytest.raises(TypeError):
        dumps(doc)


def test_render_text_walks_the_encoded_document():
    doc = document(
        "fusion",
        {"p": 3, "q": 2, "j1": Fraction(1), "skipme": None},
        {"outputs": {Fraction(-3, 2): 1}, "flag": True},
        [check("oracles_agree", True, "3 routes"), check("gate", False, "blocked")],
    )
    text = render_text(doc)
    assert text.splitlines()[0] == "fusion (p=3, q=2, j1=1)"
    assert "skipme" not in text
    assert "outputs" in text and "-3/2: 1" in text
    assert "checks: 1/2 passed" in text
    assert "[pass] oracles_agree: 3 routes" in text
    assert "[FAIL] gate: blocked" in text


def test_render_text_deterministic():
    doc = document("demo", {"q": 1}, {"m": {"b": 1, "a": 2}}, [])
    assert render_text(doc) == render_text(doc)
