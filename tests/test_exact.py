"""Exact rational/polynomial layer: algebraic laws checked by evaluation.

The independent oracle for polynomial arithmetic is evaluation at random
rational points (a nonzero polynomial of degree d has at most d roots, so
agreement at many random points over a large height range is decisive), plus
sympy's polynomial product, division and gcd as a second implementation
where it is available.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from admissible_sl2.exact import (
    UniPoly,
    poly_from_linear_factors,
    poly_gcd,
    rat,
    rat_str,
)
from admissible_sl2.pbw import SL2, PBWElement

RNG_SEED = 20260815


def _random_fraction(rng: random.Random, span: int = 40) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def _random_poly(rng: random.Random, max_deg: int = 6) -> UniPoly:
    deg = rng.randint(0, max_deg)
    return UniPoly({d: _random_fraction(rng) for d in range(deg + 1)})


def test_rat_coercions():
    assert rat(3) == Fraction(3)
    assert rat("3/2") == Fraction(3, 2)
    assert rat(" -7/3 ") == Fraction(-7, 3)
    assert rat(Fraction(5, 10)) == Fraction(1, 2)
    with pytest.raises(TypeError):
        rat(1.5)  # floats are never silently accepted


def test_rat_str_round_trip():
    for value in (Fraction(3, 2), Fraction(-7, 3), Fraction(4), Fraction(0)):
        assert rat(rat_str(value)) == value
    assert rat_str(Fraction(4)) == "4"
    assert rat_str(Fraction(-3, 2)) == "-3/2"


def test_unipoly_basics():
    zero = UniPoly.zero()
    assert zero.degree == -1 and zero.is_zero()
    assert UniPoly.constant(0) == zero
    x = UniPoly({1: 1})
    assert x.degree == 1 and x(Fraction(7)) == 7
    p = UniPoly({0: 1, 1: 0, 2: "3/2"})
    assert p.coeffs == {0: 1, 2: Fraction(3, 2)}  # zero coefficients are not stored
    assert p.leading_coefficient() == Fraction(3, 2)
    with pytest.raises(ValueError):
        UniPoly({-1: 1})


def test_unipoly_ring_laws_by_evaluation():
    rng = random.Random(RNG_SEED)
    for _ in range(25):
        f, g, h = (_random_poly(rng) for _ in range(3))
        x = _random_fraction(rng, span=100)
        assert (f * g)(x) == f(x) * g(x)
        assert ((f * g) * h)(x) == (f * (g * h))(x) == f(x) * g(x) * h(x)


def test_unipoly_divmod():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(25):
        f = _random_poly(rng)
        g = _random_poly(rng)
        if g.is_zero():
            continue
        quot, rem = f.divmod(g)
        assert rem.degree < g.degree or rem.is_zero()
        # f - quot g - rem has degree at most max(deg f, deg g), so agreement
        # at that many points plus one is the identity f = quot g + rem
        for x in range(max(f.degree, g.degree) + 1):
            assert quot(x) * g(x) + rem(x) == f(x)
        assert f % g == rem


def test_poly_gcd_properties():
    rng = random.Random(RNG_SEED + 2)
    for _ in range(15):
        f, g, h = (_random_poly(rng, max_deg=4) for _ in range(3))
        if f.is_zero() or g.is_zero():
            continue
        d = poly_gcd(f, g)
        assert (f % d).is_zero() and (g % d).is_zero()
        assert d.leading_coefficient() == 1
        if not h.is_zero():
            # common factors are picked up: gcd(f h, g h) is divisible by h
            dd = poly_gcd(f * h, g * h)
            assert (dd % h.monic()).is_zero()


def _to_sympy(p: UniPoly):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly(
        {d: sympy.Rational(c.numerator, c.denominator) for d, c in p.coeffs.items()},
        sympy.symbols("x"),
        domain="QQ",
    )


def test_unipoly_operators_against_sympy():
    rng = random.Random(RNG_SEED + 4)
    for _ in range(25):
        f, g = _random_poly(rng), _random_poly(rng)
        assert _to_sympy(f * g) == _to_sympy(f) * _to_sympy(g)
        if g.is_zero():
            continue
        quot, rem = f.divmod(g)
        theirs = _to_sympy(f).div(_to_sympy(g))
        assert (_to_sympy(quot), _to_sympy(rem)) == theirs
        assert _to_sympy(f % g) == _to_sympy(f).rem(_to_sympy(g))


def test_poly_gcd_against_sympy():
    rng = random.Random(RNG_SEED + 3)
    for _ in range(15):
        f, g = _random_poly(rng, 5), _random_poly(rng, 5)
        if f.is_zero() or g.is_zero():
            continue
        ours = poly_gcd(f, g)
        theirs = _to_sympy(f).gcd(_to_sympy(g)).monic()
        assert _to_sympy(ours) == theirs


def test_poly_from_linear_factors():
    p = poly_from_linear_factors([1, "3/2", -2])
    assert p.degree == 3 and p.leading_coefficient() == 1
    for root in (Fraction(1), Fraction(3, 2), Fraction(-2)):
        assert p(root) == 0
    assert p(Fraction(5)) != 0


def test_signed_sum_renderings():
    # the demos print these strings; PBWElement renders through the same helper
    assert repr(UniPoly()) == "0"
    assert repr(UniPoly({0: -3})) == "-3"
    assert repr(UniPoly({2: 2, 1: -1, 0: Fraction(1, 2)})) == "2*x^2 - x + 1/2"
    assert repr(UniPoly({3: Fraction(-2, 3), 1: 1, 0: -1})) == "-2/3*x^3 + x - 1"
    assert repr(PBWElement(SL2)) == "0"
    elem = PBWElement(SL2, {(1, 1, 0): 1, (0, 0, 2): Fraction(-1, 2), (0, 2, 1): -1, (0, 0, 0): 3})
    assert repr(elem) == "f*h - h^2*e - 1/2*e^2 + 3"
