"""Exact q-series lattice arithmetic and theta expansions.

The theta oracle is a brute-force scan of a wide symmetric window of the
lattice Z + n/2m, collecting q^(m(j^2+jz)) for every exponent below the
truncation order; the production code enumerates outward from the parabola
vertex, so window agreement over asymmetric z pins the support logic.

The division oracle (``tests/_division_oracle.py``) is leading-term
elimination over Fractions; ``qseries_div`` must return the very same series
on random inputs, on its integer path and on its rational one.  The theta
series oracle (``tests/_theta_series_oracle.py``) is the expansion over
Fraction exponents that ``theta_qseries`` replaced with integer keys; the
two must agree on random indices, flavours and orders.
"""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from mpmath import mp

from admissible_sl2.errors import InputError
from admissible_sl2.qseries import QSeries, ThetaSpec, qseries_div, theta_min_exponent, theta_qseries
from _division_oracle import leading_term_division
from _theta_series_oracle import theta_qseries as fraction_theta_qseries

RNG_SEED = 91


def _brute_theta(n: int, m: int, z: Fraction, order: Fraction) -> QSeries:
    pairs = []
    off = Fraction(n, 2 * m)
    for i in range(-200, 201):
        j = i + off
        e = m * (j * j + j * z)
        if e < order:
            pairs.append((e, Fraction(1)))
    return QSeries.from_terms(pairs, order)


def test_qseries_construction_normalizes_lattice():
    s = QSeries(12, {6: Fraction(1), 9: Fraction(2)}, Fraction(3))
    assert s.denom == 4  # gcd(12, 6, 9) = 3 divides out
    assert s.terms == {2: 1, 3: 2}
    assert s.prefix() == [(Fraction(1, 2), 1), (Fraction(3, 4), 2)]


def test_qseries_drops_terms_at_or_above_order():
    s = QSeries(2, {1: Fraction(1), 4: Fraction(5), 6: Fraction(7)}, Fraction(2))
    assert s.prefix() == [(Fraction(1, 2), Fraction(1))]
    assert s.order == 2


def test_qseries_addition_and_subtraction():
    a = QSeries.from_terms([(Fraction(1, 2), Fraction(1))], Fraction(4))
    b = QSeries.from_terms([(Fraction(1, 3), Fraction(2))], Fraction(3))
    c = a + b
    assert c.order == 3  # pessimistic: min of operand orders
    assert c.prefix() == [(Fraction(1, 3), 2), (Fraction(1, 2), 1)]
    assert c - b == a.truncate(Fraction(3))
    assert -a == QSeries.from_terms([(Fraction(1, 2), Fraction(-1))], Fraction(4))


def test_qseries_multiplication_against_convolution():
    rng = random.Random(RNG_SEED)
    for _ in range(10):
        a_terms = [(Fraction(rng.randint(0, 8), 2), Fraction(rng.randint(-4, 4))) for _ in range(4)]
        b_terms = [(Fraction(rng.randint(0, 8), 3), Fraction(rng.randint(-4, 4))) for _ in range(4)]
        a = QSeries.from_terms(a_terms, Fraction(6))
        b = QSeries.from_terms(b_terms, Fraction(6))
        prod = a * b
        # order bookkeeping: exact below min(Oa + eb, Ob + ea)
        ea = a.lowest()[0] if a.lowest() else Fraction(6)
        eb = b.lowest()[0] if b.lowest() else Fraction(6)
        assert prod.order == min(Fraction(6) + eb, Fraction(6) + ea)
        conv: dict[Fraction, Fraction] = {}
        for e1, c1 in a.prefix():
            for e2, c2 in b.prefix():
                if e1 + e2 < prod.order:
                    conv[e1 + e2] = conv.get(e1 + e2, Fraction(0)) + c1 * c2
        assert prod.prefix() == sorted((e, c) for e, c in conv.items() if c)


def test_qseries_exponent_maps():
    s = QSeries.from_terms([(Fraction(1, 2), Fraction(3)), (Fraction(2), Fraction(-1))], Fraction(4))
    shifted = s.shift_exponents(Fraction(1, 3))
    assert shifted.lowest() == (Fraction(5, 6), Fraction(3))
    assert shifted.order == Fraction(13, 3)
    scaled = s.scale_exponents(Fraction(1, 2))
    assert scaled.lowest() == (Fraction(1, 4), Fraction(3))
    assert scaled.order == Fraction(2)


@pytest.mark.parametrize(
    "n,m,z",
    [
        (0, 1, Fraction(0)),
        (1, 2, Fraction(0)),
        (-1, 2, Fraction(1, 2)),
        (2, 6, Fraction(1, 3)),
        (7, 6, Fraction(2, 5)),
        (5, 3, Fraction(-3, 4)),
    ],
)
def test_theta_matches_brute_force(n, m, z):
    order = Fraction(12)
    ours = theta_qseries(ThetaSpec(n, m, z), order)
    brute = _brute_theta(n, m, z, order)
    assert ours == brute
    lo = ours.lowest()
    assert lo is not None and lo[0] == theta_min_exponent(ThetaSpec(n, m, z))


def test_theta_periodicity_in_the_index():
    # the lattice Z + n/2m only depends on n mod 2m
    for z in (Fraction(0), Fraction(1, 2), Fraction(2, 7)):
        a = theta_qseries(ThetaSpec(1, 3, z), Fraction(10))
        b = theta_qseries(ThetaSpec(7, 3, z), Fraction(10))
        c = theta_qseries(ThetaSpec(-5, 3, z), Fraction(10))
        assert a == b == c


def test_theta_index_negation_flips_z():
    for n, m in ((1, 2), (2, 5)):
        for z in (Fraction(0), Fraction(1, 3)):
            lhs = theta_qseries(ThetaSpec(-n, m, z), Fraction(10))
            rhs = theta_qseries(ThetaSpec(n, m, -z), Fraction(10))
            assert lhs == rhs
    # at z = 0 the negation symmetry is an equality outright
    assert theta_qseries(ThetaSpec(3, 4), Fraction(10)) == theta_qseries(
        ThetaSpec(-3, 4), Fraction(10)
    )


def test_theta_z_zero_coefficients_count_lattice_points():
    # Theta_{0,1} = 1 + 2q + 2q^4 + 2q^9 + ...
    s = theta_qseries(ThetaSpec(0, 1), Fraction(17))
    assert s.prefix() == [
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(2)),
        (Fraction(4), Fraction(2)),
        (Fraction(9), Fraction(2)),
        (Fraction(16), Fraction(2)),
    ]


# -- theta expansion against the Fraction oracle --------------------------------
#
# Two lattice points j and -z - j share an exponent.  Both lie on Z + n/2m,
# with z = v/u in lowest terms, exactly when u | m and n = -mv/u (mod m), so
# half the draws pick n that way and must then show keys counted twice.


@st.composite
def _theta_draws(draw) -> tuple[ThetaSpec, Fraction, bool]:
    u = draw(st.integers(1, 12))
    v = draw(st.integers(-3 * u, 3 * u))
    paired = draw(st.booleans())
    if paired:
        m = u * draw(st.integers(1, 60 // u))
        n0 = -(m // u) * v % m
        n = draw(st.sampled_from([n for n in range(-60, 61) if n % m == n0]))
    else:
        m, n = draw(st.integers(1, 60)), draw(st.integers(-60, 60))
    spec = ThetaSpec(n, m, Fraction(v, u))
    # orders from below the lowest exponent to far above it
    reach = draw(st.fractions(min_value=-4, max_value=40, max_denominator=12))
    return spec, theta_min_exponent(spec) + reach, paired


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_theta_draws())
def test_theta_expansion_matches_fraction_oracle(case):
    spec, order, paired = case
    ours, ref = theta_qseries(spec, order), fraction_theta_qseries(spec, order)
    assert (ours.denom, ours.terms, ours.order) == (ref.denom, ref.terms, ref.order)
    event("empty" if not ours.terms else "repeated keys" if 2 in ours.terms.values() else "single keys")
    if paired and sum(ours.terms.values()) >= 2:
        # every point pairs with its mirror but the vertex, if it is on the lattice
        assert 2 in ours.terms.values()


def test_theta_requires_rational_z():
    spec = ThetaSpec(0, 1, 0.5j)  # stored as given, but not expandable
    assert not spec.has_rational_z
    with pytest.raises(InputError, match="requires a rational z"):
        theta_qseries(spec, Fraction(4))
    with pytest.raises(InputError, match="requires a rational z"):
        theta_min_exponent(spec)


def test_theta_invalid_m():
    with pytest.raises(InputError, match="theta index m"):
        ThetaSpec(0, 0)


@pytest.mark.parametrize(
    "n,m,index",
    [(1, 1.5, "m"), (0.5, 2, "n"), (Fraction(1, 2), 2, "n"), (1, Fraction(4, 2), "m")],
)
def test_theta_indices_must_be_ints(n, m, index):
    # a non-integer index names no theta function, even one that would expand
    with pytest.raises(InputError, match=f"theta index {index}"):
        ThetaSpec(n, m, Fraction(1, 3))


@pytest.mark.parametrize("z", ["abc", "1/0", ""])
def test_a_malformed_theta_argument_is_refused(z):
    with pytest.raises(InputError, match="theta argument z must be a rational"):
        ThetaSpec(1, 2, z)


def test_a_float_or_complex_theta_argument_is_kept_unformatted():
    class Unprintable(complex):
        """A complex z whose repr fails: nothing may format it to throw the text away."""

        def __repr__(self):
            raise AssertionError("formatted")

    for z in (0.25, 0.5j, mp.mpc("0.3", "0.2"), Unprintable(0.1, 0.2)):
        assert ThetaSpec(1, 2, z).z is z
    assert ThetaSpec(1, 2, "-2/6").z == Fraction(-1, 3)


def test_qseries_div_inverts_multiplication():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(10):
        a_terms = [(Fraction(rng.randint(0, 6), 2), Fraction(rng.randint(-4, 4))) for _ in range(4)]
        b_terms = [(Fraction(0), Fraction(rng.randint(1, 4)))] + [
            (Fraction(rng.randint(1, 6), 2), Fraction(rng.randint(-4, 4))) for _ in range(3)
        ]
        a = QSeries.from_terms(a_terms, Fraction(8))
        b = QSeries.from_terms(b_terms, Fraction(8))
        quotient = qseries_div(a * b, b)
        assert quotient == a.truncate(quotient.order)
        assert quotient.order >= Fraction(4)  # never silently empty


def test_qseries_div_by_a_non_unit_int_lead_is_exact():
    # the leading denominator coefficient is the int 2: its reciprocal is
    # Fraction(1, 2), never the float 0.5
    quotient = qseries_div(theta_qseries(ThetaSpec(0, 2), 6), theta_qseries(ThetaSpec(2, 2), 6))
    assert (quotient.denom, quotient.terms, quotient.order) == (
        2, {-1: Fraction(1, 2), 3: 1, 7: Fraction(-1, 2)}, 5
    )
    assert all(type(c) in (int, Fraction) for c in quotient.terms.values())


def test_integral_series_stay_int_valued():
    # a key only one operand holds must not come out as a Fraction
    a, b = (theta_qseries(ThetaSpec(n, 2, Fraction(1, 3)), 40) for n in (1, -1))
    for series in (a - b, a + b, a * b, (a - b).scale_exponents(Fraction(3, 2))):
        assert series.terms and all(type(c) is int for c in series.terms.values())


def test_qseries_div_empty_denominator():
    num = QSeries.from_terms([(Fraction(0), Fraction(1))], Fraction(4))
    den = QSeries.zero(Fraction(4))
    with pytest.raises(InputError, match="denominator has no terms"):
        qseries_div(num, den)


# -- honest truncation orders ------------------------------------------------
#
# A series built from random (exponent, coefficient) terms truncated at a
# random order claims to be exact below that order.  The same terms built to
# order 40 are one completion of it, so every coefficient an operation claims
# below its result's order must match the same operation on the completions.

REF_ORDER = Fraction(40)
_terms = st.lists(
    st.tuples(
        st.fractions(min_value=-2, max_value=8, max_denominator=6),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
    ),
    max_size=6,
)
_orders = st.fractions(min_value=-2, max_value=10, max_denominator=6)
_honest = settings(max_examples=100, derandomize=True, database=None, deadline=None)


def _pair(terms, order) -> tuple[QSeries, QSeries]:
    return QSeries.from_terms(terms, order), QSeries.from_terms(terms, REF_ORDER)


def _assert_honest(result: QSeries, reference: QSeries) -> None:
    assert reference.order >= result.order
    assert result.prefix() == reference.prefix(result.order)


@_honest
@given(_terms, _orders, _terms, _orders)
def test_product_order_is_honest(ta, oa, tb, ob):
    (a, a_ref), (b, b_ref) = _pair(ta, oa), _pair(tb, ob)
    _assert_honest(a * b, a_ref * b_ref)


@_honest
@given(_terms, _orders, _terms, _orders)
def test_quotient_order_is_honest(tn, on, td, od):
    (num, num_ref), (den, den_ref) = _pair(tn, on), _pair(td, od)
    assume(den.lowest() is not None)
    _assert_honest(qseries_div(num, den), qseries_div(num_ref, den_ref))


@_honest
@given(_terms, _orders, st.fractions(min_value=-3, max_value=3, max_denominator=6))
def test_shift_order_is_honest(terms, order, delta):
    s, s_ref = _pair(terms, order)
    _assert_honest(s.shift_exponents(delta), s_ref.shift_exponents(delta))


@_honest
@given(_terms, _orders, st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6))
def test_scale_order_is_honest(terms, order, factor):
    s, s_ref = _pair(terms, order)
    _assert_honest(s.scale_exponents(factor), s_ref.scale_exponents(factor))


# -- division against the leading-term oracle ---------------------------------
#
# Int series over a +-1 leading denominator term keep every coefficient of
# the lattice kernel an int; a non-unit leading term, int or rational, takes
# it through Fractions.  The oracle divides with ``/``, so it gets Fraction
# copies of the inputs.  Negative exponents and orders just above the leading
# exponents reach the edges of the remainder cap.

_exponents = st.fractions(min_value=-4, max_value=8, max_denominator=6)
_gaps = st.fractions(min_value=Fraction(1, 12), max_value=6, max_denominator=12)
_units = st.sampled_from([1, -1])
_int_non_units = st.integers(-5, 5).filter(lambda c: c not in (0, 1, -1))
_non_units = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(
    lambda c: c not in (0, 1, -1)
)
_ints = st.integers(-5, 5)
_divisions = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def _with(series: QSeries, kind: type) -> QSeries:
    """``series`` with every coefficient converted to ``kind`` (int only when integral)."""
    return QSeries(series.denom, {m: kind(c) for m, c in series.terms.items()}, series.order)


@st.composite
def _division_inputs(draw, leads, coeffs, kind: type) -> tuple[QSeries, QSeries]:
    lead = draw(leads)
    e_d = draw(_exponents)
    tail = draw(st.lists(st.tuples(_gaps, coeffs), max_size=8))
    den = QSeries.from_terms([(e_d, lead)] + [(e_d + g, c) for g, c in tail], e_d + draw(_gaps))
    terms = draw(st.lists(st.tuples(_exponents, coeffs), max_size=12))
    e_n = min((e for e, _ in terms), default=draw(_exponents))
    reach = draw(st.fractions(min_value=-1, max_value=10, max_denominator=12))
    num = QSeries.from_terms(terms, e_n + reach)
    return _with(num, kind), _with(den, kind)


def _assert_same_division(num: QSeries, den: QSeries, kinds: tuple[type, ...]) -> None:
    ours = qseries_div(num, den)
    ref = leading_term_division(_with(num, Fraction), _with(den, Fraction))
    assert (ours.denom, ours.terms, ours.order) == (ref.denom, ref.terms, ref.order)
    assert all(type(c) in kinds for c in ours.terms.values())


@_divisions
@given(_division_inputs(_units, _ints, int))
def test_division_matches_oracle_on_integral_series(case):
    _assert_same_division(*case, kinds=(int,))


@_divisions
@given(_division_inputs(_int_non_units, _ints, int))
def test_division_matches_oracle_on_int_series_with_non_unit_lead(case):
    _assert_same_division(*case, kinds=(int, Fraction))


@_divisions
@given(_division_inputs(_non_units, st.fractions(-5, 5, max_denominator=4), Fraction))
def test_division_matches_oracle_on_rational_series(case):
    _assert_same_division(*case, kinds=(int, Fraction))


# -- edges of the division's remainder list ------------------------------------
#
# ``qseries_div`` keeps its remainder in a list over the lattice that the
# numerator keys and denominator offsets span from the lowest numerator key,
# or, when that lattice has far more points below the cap than the product of
# the two series has terms, in a heap of keys.

DIVISION_EDGES = {
    # keys 0 and 2 over denominator 3 with a tail offset of 4: the remainder
    # steps by 2 on the lattice (1/3)Z, and its last slot, key 10, lies one
    # step below the odd cap 11
    "lattice coarser than the denominator": (
        QSeries(3, {0: 1, 2: -1}, Fraction(11, 3)), QSeries(3, {0: 1, 4: 1}, 5), (int,),
    ),
    # (1 + q^2) / (1 + q + q^2): slot 2 cancels to zero at the first step and
    # is filled again by the second; slot 3 cancels at the third for good
    "zero slots in the middle": (
        QSeries(1, {0: 1, 2: 1}, 9), QSeries(1, {0: 1, 1: 1, 2: 1}, 9), (int,),
    ),
    "zero slots in the middle, rational": (
        QSeries(1, {0: Fraction(1), 2: Fraction(1)}, 9),
        QSeries(1, {0: Fraction(2), 1: Fraction(2), 2: Fraction(2)}, 9),
        (Fraction,),
    ),
    # the denominator's order 0 caps the remainder at 0 + 5/12 + 1/6 = 7/12,
    # two slots above the lowest numerator term 5/12, so the numerator keys
    # 7 and 30, at and above the cap, never enter the list
    "lowest term just below the cap": (
        QSeries(12, {5: -1, 7: 3, 30: 1}, 3), QSeries(12, {-2: 1, -1: 2}, 0), (int,),
    ),
    "non-unit Fraction lead": (
        QSeries(6, {-2: Fraction(1, 3), 1: Fraction(-2), 5: Fraction(5, 4)}, 4),
        QSeries(6, {1: Fraction(3, 2), 4: Fraction(-1), 7: Fraction(2, 3)}, 5),
        (Fraction,),
    ),
    # (1 + q^(500/1009)) (1 - q^(3/1009)) over 1 - q^(3/1009): about 4 000
    # lattice points below the cap for a product of 8 terms, so the heap runs
    "sparse quotient on a fine lattice": (
        QSeries(1009, {0: 1, 3: -1, 500: 1, 503: -1}, 4), QSeries(1009, {0: 1, 3: -1}, 4), (int,),
    ),
    "sparse quotient on a fine lattice, rational": (
        QSeries(1009, {0: Fraction(2), 3: Fraction(-1, 2), 1700: Fraction(3)}, 4),
        QSeries(1009, {0: Fraction(2), 3: Fraction(-1, 2)}, 4),
        (Fraction,),
    ),
}


@pytest.mark.parametrize("num, den, kinds", DIVISION_EDGES.values(), ids=DIVISION_EDGES)
def test_division_edges_match_oracle(num, den, kinds):
    _assert_same_division(num, den, kinds)
    assert qseries_div(num, den).terms


def test_sparse_quotient_takes_no_slot_per_lattice_point():
    # At level (2,1) a character's numerator and denominator are both
    # theta_{1,2}(z) - theta_{-1,2}(z), so the quotient is 1 whatever z is.  At
    # z = 1/10007 its lattice has about 1.6 million points below the cap, and
    # a list slot for each would take about 13 MB.
    z = Fraction(1, 10007)
    den = theta_qseries(ThetaSpec(1, 2, z), 161) - theta_qseries(ThetaSpec(-1, 2, z), 161)
    tracemalloc.start()
    try:
        quotient = qseries_div(den, den)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert quotient.terms == {0: 1}
    assert peak < 1 << 20
