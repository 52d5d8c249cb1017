"""Exact rational/polynomial layer: algebraic laws checked by evaluation.

The independent oracle for polynomial arithmetic is evaluation at random
rational points (a nonzero polynomial of degree d has at most d roots, so
agreement at many random points over a large height range is decisive), plus
sympy's polynomial gcd as a second implementation where it is available.
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
    x = UniPoly.x()
    assert x.degree == 1 and x(Fraction(7)) == 7
    p = UniPoly({0: 1, 2: "3/2"})
    assert p.coefficient(2) == Fraction(3, 2) and p.coefficient(1) == 0
    assert p.leading_coefficient() == Fraction(3, 2)
    with pytest.raises(ValueError):
        UniPoly({-1: 1})


def test_unipoly_ring_laws_by_evaluation():
    rng = random.Random(RNG_SEED)
    for _ in range(25):
        f, g, h = (_random_poly(rng) for _ in range(3))
        x = _random_fraction(rng, span=100)
        assert (f + g)(x) == f(x) + g(x)
        assert (f - g)(x) == f(x) - g(x)
        assert (f * g)(x) == f(x) * g(x)
        assert ((f + g) * h)(x) == (f * h)(x) + (g * h)(x)
        assert (f ** 3)(x) == f(x) ** 3


def test_unipoly_divmod():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(25):
        f = _random_poly(rng)
        g = _random_poly(rng)
        if g.is_zero():
            continue
        quot, rem = f.divmod(g)
        assert quot * g + rem == f
        assert rem.degree < g.degree or rem.is_zero()
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


def test_poly_gcd_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(RNG_SEED + 3)

    def to_sympy(p: UniPoly):
        return sympy.Poly(
            {d: sympy.Rational(c.numerator, c.denominator) for d, c in p.coeffs.items()},
            x,
            domain="QQ",
        )

    for _ in range(15):
        f, g = _random_poly(rng, 5), _random_poly(rng, 5)
        if f.is_zero() or g.is_zero():
            continue
        ours = poly_gcd(f, g)
        theirs = to_sympy(f).gcd(to_sympy(g)).monic()
        assert to_sympy(ours) == theirs


def test_poly_from_linear_factors():
    p = poly_from_linear_factors([1, "3/2", -2])
    assert p.degree == 3 and p.leading_coefficient() == 1
    for root in (Fraction(1), Fraction(3, 2), Fraction(-2)):
        assert p(root) == 0
    assert p(Fraction(5)) != 0


def test_unipoly_pairs_round_trip():
    p = UniPoly({0: "-1/2", 3: 2})
    pairs = p.to_pairs()
    assert pairs == [(0, "-1/2"), (3, "2")]
    assert UniPoly.from_pairs(pairs) == p
