"""Exact rational arithmetic and sparse polynomials.

Everything downstream (weight enumeration, PBW rewriting, q-series) is exact,
so this module fixes the shared conventions: rationals are `fractions.Fraction`
(always normalized, hashable), polynomials are sparse maps degree ->
coefficient.  Zero coefficients are never stored.  The degree of the zero
polynomial is the sentinel -1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

RatLike = Fraction | int | str


def rat(value: RatLike) -> Fraction:
    """Coerce an int, Fraction or "a/b" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rat_str(value: Fraction) -> str:
    """Serialize a rational as "a/b", or "a" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def signed_sum(terms: Iterable[tuple[Fraction, str]]) -> str:
    """Join (coefficient, monomial text) pairs as "2*x^2 - x + 1/2".

    An empty monomial text is a constant term; no pairs give "0".
    """
    parts = []
    for c, mono in terms:
        if not mono:
            parts.append(rat_str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{rat_str(c)}*{mono}")
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def add_term(dst: dict, key, coeff) -> None:
    """Add a nonzero term to a sparse map, dropping the key if its coefficient cancels.

    The one sparse update of the exact layer: :class:`UniPoly` keys by degree,
    the PBW elements of ``pbw`` by monomial.
    """
    if key not in dst:
        dst[key] = coeff
    elif s := dst[key] + coeff:
        dst[key] = s
    else:
        del dst[key]


class UniPoly:
    """Sparse univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, RatLike] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for deg, c in coeffs.items():
                if deg < 0:
                    raise ValueError(f"negative degree {deg}")
                cf = rat(c)
                if cf:
                    clean[deg] = cf
        self.coeffs = clean

    @classmethod
    def zero(cls) -> UniPoly:
        return cls()

    @classmethod
    def constant(cls, c: RatLike) -> UniPoly:
        return cls({0: rat(c)})

    @property
    def degree(self) -> int:
        """Degree, with -1 as the sentinel for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[max(self.coeffs)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __mul__(self, other: UniPoly) -> UniPoly:
        out: dict[int, Fraction] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                add_term(out, d1 + d2, c1 * c2)
        res = UniPoly.zero()
        res.coeffs = out
        return res

    def scale(self, c: RatLike) -> UniPoly:
        cf = rat(c)
        if not cf:
            return UniPoly.zero()
        return UniPoly({d: cf * v for d, v in self.coeffs.items()})

    def __call__(self, value: RatLike) -> Fraction:
        """Exact Horner evaluation over the sparse degree support."""
        v = rat(value)
        degs = sorted(self.coeffs, reverse=True)
        if not degs:
            return Fraction(0)
        acc = self.coeffs[degs[0]]
        for prev, d in zip(degs, degs[1:]):
            acc = acc * v ** (prev - d) + self.coeffs[d]
        return acc * v ** degs[-1]

    def monic(self) -> UniPoly:
        if self.is_zero():
            return self
        lc = self.leading_coefficient()
        return self.scale(1 / lc)

    def divmod(self, other: UniPoly) -> tuple[UniPoly, UniPoly]:
        """Exact polynomial division: self = q*other + r with deg r < deg other."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q: dict[int, Fraction] = {}
        r = dict(self.coeffs)
        dlead = other.degree
        clead = other.leading_coefficient()
        while r and max(r) >= dlead:
            dr = max(r)
            factor = r[dr] / clead
            q[dr - dlead] = factor
            for d2, c2 in other.coeffs.items():
                add_term(r, dr - dlead + d2, -factor * c2)
        qq = UniPoly.zero()
        qq.coeffs = q
        rr = UniPoly.zero()
        rr.coeffs = r
        return qq, rr

    def __mod__(self, other: UniPoly) -> UniPoly:
        return self.divmod(other)[1]

    def derivative(self) -> UniPoly:
        return UniPoly({d - 1: d * c for d, c in self.coeffs.items() if d >= 1})

    def __repr__(self) -> str:
        return signed_sum(
            (self.coeffs[d], "" if d == 0 else "x" if d == 1 else f"x^{d}")
            for d in sorted(self.coeffs, reverse=True)
        )


def poly_from_linear_factors(roots: Iterable[RatLike]) -> UniPoly:
    """Monic product prod_r (x - r); the empty product is 1."""
    out = UniPoly.constant(1)
    for r in roots:
        out = out * UniPoly({1: 1, 0: -rat(r)})
    return out


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()
