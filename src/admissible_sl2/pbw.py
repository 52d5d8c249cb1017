"""PBW normal ordering in U(g) for three fixed 3-dimensional Lie algebras.

Each algebra carries a fixed generator order (g0, g1, g2); a PBW monomial
(a, b, c) denotes g0^a g1^b g2^c.  The three instances are

  SL2:  (f, h, e)        [e,f] = h,      [h,e] = 2e,     [h,f] = -2f
  L0:   (T+, T0, T-)     [T+,T-] = T0,   [T0,T+] = -2T+, [T0,T-] = 2T-
  HEIS: (eb, hb, fb)     [eb,fb] = hb,   hb central

Each has one quadratic factor X_a = x y - a g1 + sign * a(a+1), and a
lowering and a raising generator that shift its index:
lower^m X_a = X_{a+m} lower^m and raise^m X_a = X_{a-m} raise^m.

  SL2:  H_a    = f e - a h - a(a+1)       lower f,   raise e
  L0:   G_a    = T- T+ - a T0 + a(a+1)    lower T-,  raise T+
  HEIS: Hbar_a = eb fb - a hb             lower fb,  raise eb

All three share the triangular pattern [g1,g0] ~ g0, [g2,g1] ~ g2,
[g2,g0] ~ g1.  One rewriting rule normal-orders a monomial times a
generator: strip the monomial's last generator g_k with k > g, so
m g = (m' g) g_k + m' [g_k, g], along strictly smaller exponents; with no
such g_k the product is a plain append.  Products are memoized per algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import InputError, InvariantError
from .exact import RatLike, add_term, rat, rat_str, signed_sum

Mono = tuple[int, int, int]
Terms = dict[Mono, Fraction]


# eq=False: the bracket dict is unhashable, so algebras compare and hash by identity.
@dataclass(frozen=True, eq=False)
class LieAlgebra:
    """A 3-dimensional Lie algebra with a fixed PBW generator order (g0, g1, g2).

    Its quadratic factor is X_a = x y - a g1 + factor_sign * a(a+1) with
    (x, y) = factor_pair; `factor` names X in identity-check labels.  The
    `lowering` generator moves X_a to X_{a+1} and the `raising` one to
    X_{a-1}: lower X_a = X_{a+1} lower and raise X_a = X_{a-1} raise.
    """

    name: str
    gens: tuple[str, str, str]
    # (i, j) -> (coeff, k) encodes [g_i, g_j] = coeff * g_k for i > j;
    # omitted pairs commute.
    brackets: dict[tuple[int, int], tuple[Fraction, int]]
    factor: str
    lowering: str
    raising: str
    factor_pair: tuple[str, str]
    factor_sign: int


SL2 = LieAlgebra(
    name="sl2",
    gens=("f", "h", "e"),
    brackets={
        (1, 0): (Fraction(-2), 0),  # [h, f] = -2f
        (2, 0): (Fraction(1), 1),   # [e, f] = h
        (2, 1): (Fraction(-2), 2),  # [e, h] = -2e
    },
    factor="H",
    lowering="f",
    raising="e",
    factor_pair=("f", "e"),
    factor_sign=-1,
)

L0 = LieAlgebra(
    name="l0",
    gens=("T+", "T0", "T-"),
    brackets={
        (1, 0): (Fraction(-2), 0),  # [T0, T+] = -2 T+
        (2, 0): (Fraction(-1), 1),  # [T-, T+] = -T0
        (2, 1): (Fraction(-2), 2),  # [T-, T0] = -2 T-
    },
    factor="G",
    lowering="T-",
    raising="T+",
    factor_pair=("T-", "T+"),
    factor_sign=1,
)

HEIS = LieAlgebra(
    name="heis",
    gens=("eb", "hb", "fb"),
    brackets={
        (2, 0): (Fraction(-1), 1),  # [fb, eb] = -hb
    },
    factor="Hbar",
    lowering="fb",
    raising="eb",
    factor_pair=("eb", "fb"),
    factor_sign=0,
)

_GEN_CACHE: dict[tuple[str, Mono, int], tuple[tuple[Mono, Fraction], ...]] = {}


def _mono_times_gen(alg: LieAlgebra, mono: Mono, g: int) -> tuple[tuple[Mono, Fraction], ...]:
    """Normal form of (g0^a g1^b g2^c) * g_g, memoized."""
    key = (alg.name, mono, g)
    hit = _GEN_CACHE.get(key)
    if hit is not None:
        return hit
    a, b, c = mono
    k = 2 if c else 1 if b else 0
    if k <= g:
        frozen = (((a + (g == 0), b + (g == 1), c + (g == 2)), Fraction(1)),)
        _GEN_CACHE[key] = frozen
        return frozen
    # strip the last generator: m g = (m' g) g_k + m' [g_k, g] with m = m' g_k
    rest = (a, b, c - 1) if k == 2 else (a, b - 1, 0)
    out: Terms = {}
    for m2, co in _mono_times_gen(alg, rest, g):
        for m3, co3 in _mono_times_gen(alg, m2, k):
            add_term(out, m3, co * co3)
    br = alg.brackets.get((k, g))
    if br is not None:
        coeff, j = br
        for m2, co in _mono_times_gen(alg, rest, j):
            add_term(out, m2, coeff * co)
    frozen = tuple(out.items())
    _GEN_CACHE[key] = frozen
    return frozen


def _terms_times_gen(alg: LieAlgebra, terms: Terms, g: int) -> Terms:
    out: Terms = {}
    for mono, coeff in terms.items():
        for m2, co in _mono_times_gen(alg, mono, g):
            add_term(out, m2, coeff * co)
    return out


class PBWElement:
    """Element of U(g) in PBW normal form: a sparse map monomial -> coefficient."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: LieAlgebra, terms: Mapping[Mono, RatLike] | None = None):
        self.algebra = algebra
        clean: Terms = {}
        if terms:
            for mono, c in terms.items():
                a, b, cdeg = mono
                if a < 0 or b < 0 or cdeg < 0:
                    raise InputError(f"negative exponent in {mono}")
                cf = rat(c)
                if cf:
                    clean[mono] = cf
        self.terms = clean

    @classmethod
    def unit(cls, algebra: LieAlgebra) -> PBWElement:
        return cls(algebra, {(0, 0, 0): 1})

    @classmethod
    def generator(cls, algebra: LieAlgebra, gen: int | str) -> PBWElement:
        idx = algebra.gens.index(gen) if isinstance(gen, str) else gen
        mono = tuple(1 if i == idx else 0 for i in range(3))
        return cls(algebra, {mono: 1})  # type: ignore[dict-item]

    def is_zero(self) -> bool:
        return not self.terms

    def _check_same(self, other: PBWElement) -> None:
        if self.algebra.name != other.algebra.name:
            raise InputError(
                f"operands lie in {self.algebra.name} and {other.algebra.name}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PBWElement):
            return NotImplemented
        return self.algebra.name == other.algebra.name and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.algebra.name, frozenset(self.terms.items())))

    def __neg__(self) -> PBWElement:
        return PBWElement(self.algebra, {m: -c for m, c in self.terms.items()})

    def __add__(self, other: PBWElement) -> PBWElement:
        self._check_same(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            add_term(out, m, c)
        res = PBWElement(self.algebra)
        res.terms = out
        return res

    def __sub__(self, other: PBWElement) -> PBWElement:
        return self + (-other)

    def scale(self, c: RatLike) -> PBWElement:
        cf = rat(c)
        if not cf:
            return PBWElement(self.algebra)
        return PBWElement(self.algebra, {m: cf * v for m, v in self.terms.items()})

    def __mul__(self, other: PBWElement | RatLike) -> PBWElement:
        if isinstance(other, PBWElement):
            return pbw_product(self, other)
        return self.scale(other)

    def __rmul__(self, other: RatLike) -> PBWElement:
        return self.scale(other)

    def __pow__(self, n: int) -> PBWElement:
        if n < 0:
            raise InputError("negative power")
        out = PBWElement.unit(self.algebra)
        for _ in range(n):
            out = pbw_product(out, self)
        return out

    def single_monomial(self) -> tuple[Mono, Fraction]:
        if len(self.terms) != 1:
            raise InvariantError(f"{len(self.terms)} terms, expected a single monomial")
        return next(iter(self.terms.items()))

    def __repr__(self) -> str:
        return signed_sum(
            (
                self.terms[mono],
                "*".join(
                    name if e == 1 else f"{name}^{e}"
                    for name, e in zip(self.algebra.gens, mono)
                    if e
                ),
            )
            for mono in sorted(self.terms, reverse=True)
        )


def pbw_product(left: PBWElement, right: PBWElement) -> PBWElement:
    """Normal-ordered product: `left` times each monomial g0^a g1^b g2^c of `right`.

    Each monomial is applied one generator at a time, left to right.
    """
    left._check_same(right)
    alg = left.algebra
    acc: Terms = {}
    for mono, coeff in right.terms.items():
        cur = left.terms
        for g, e in enumerate(mono):
            for _ in range(e):
                cur = _terms_times_gen(alg, cur, g)
        for m, co in cur.items():
            add_term(acc, m, co * coeff)
    res = PBWElement(alg)
    res.terms = acc
    return res


def sigma_antihom(elem: PBWElement) -> PBWElement:
    """The anti-automorphism sigma of U(g) with sigma(x) = -x on generators.

    On a PBW monomial: sigma(g0^a g1^b g2^c) = (-1)^(a+b+c) g2^c g1^b g0^a,
    re-normal-ordered.
    """
    alg = elem.algebra
    g0, g1, g2 = (PBWElement.generator(alg, i) for i in range(3))
    out = PBWElement(alg)
    for (a, b, c), coeff in elem.terms.items():
        sign = -1 if (a + b + c) % 2 else 1
        out = out + (g2**c * g1**b * g0**a).scale(sign * coeff)
    return out


def quadratic_factor(alg: LieAlgebra, a: RatLike) -> PBWElement:
    """The quadratic factor X_a = x y - a g1 + sign * a(a+1) of `alg`."""
    a = rat(a)
    x, y = (PBWElement.generator(alg, g) for g in alg.factor_pair)
    g1 = PBWElement.generator(alg, 1)
    return x * y - g1.scale(a) + PBWElement.unit(alg).scale(alg.factor_sign * a * (a + 1))


def factor_product(alg: LieAlgebra, alphas: Iterable[RatLike]) -> PBWElement:
    """Left-to-right product X_{alphas[0]} X_{alphas[1]} ... in `alg`."""
    out = PBWElement.unit(alg)
    for a in alphas:
        out = out * quadratic_factor(alg, a)
    return out


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    params: str
    passed: bool


@dataclass
class IdentityReport:
    n_samples: int
    checks: list[IdentityCheck]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[IdentityCheck]:
        return [c for c in self.checks if not c.passed]


# Seven distinct values per parameter, in increasing order.  The identities
# are polynomial of degree <= 2 in each parameter, so 7 distinct samples per
# parameter (checked on the full grid for the two-parameter identities) prove
# them as polynomial identities.
_ALPHAS = tuple(rat(a) for a in ("-3", "-3/2", "-2/3", "0", "1/2", "4/3", "5/2"))
_BETAS = tuple(rat(b) for b in ("-5/2", "-7/4", "-1/3", "1/2", "5/3", "2", "3"))


def verify_operator_identities(m_max: int = 5) -> IdentityReport:
    """Exact PBW verification of the quadratic-factor calculus.

    Checks, in U(sl2) with H and in U(L0) with G:
      commuting factors, the raising/lowering shift identities
      (raise^m) X_a = X_{a-m} (raise^m) and (lower^m) X_a = X_{a+m} (lower^m),
      the product identities lower^m raise^m = X_0 ... X_{m-1} and
      raise^m lower^m = X_{-1} ... X_{-m}, and in sl2 also
      h^m e^n = e^n (h+2n)^m and h^m f^n = f^n (h-2n)^m.
    """
    checks: list[IdentityCheck] = []

    def record(name: str, params: str, lhs: PBWElement, rhs: PBWElement) -> None:
        checks.append(IdentityCheck(name, params, lhs == rhs))

    for alg in (SL2, L0):
        kind = alg.factor
        fac = lambda a: quadratic_factor(alg, a)  # noqa: E731
        up = PBWElement.generator(alg, alg.raising)
        down = PBWElement.generator(alg, alg.lowering)
        for a in _ALPHAS:
            for b in _BETAS:
                record(
                    f"{kind}_commute",
                    f"alpha={rat_str(a)},beta={rat_str(b)}",
                    fac(a) * fac(b),
                    fac(b) * fac(a),
                )
        for m in range(1, m_max + 1):
            upm = up**m
            downm = down**m
            for a in _ALPHAS:
                record(
                    f"{kind}_raise_shift",
                    f"m={m},alpha={rat_str(a)}",
                    upm * fac(a),
                    fac(a - m) * upm,
                )
                record(
                    f"{kind}_lower_shift",
                    f"m={m},alpha={rat_str(a)}",
                    downm * fac(a),
                    fac(a + m) * downm,
                )
            record(
                f"{kind}_lower_raise_product",
                f"m={m}",
                downm * upm,
                factor_product(alg, range(m)),
            )
            record(
                f"{kind}_raise_lower_product",
                f"m={m}",
                upm * downm,
                factor_product(alg, range(-1, -m - 1, -1)),
            )

    h = PBWElement.generator(SL2, "h")
    e = PBWElement.generator(SL2, SL2.raising)
    f = PBWElement.generator(SL2, SL2.lowering)
    unit = PBWElement.unit(SL2)
    for m in range(1, m_max + 1):
        for n in range(1, m_max + 1):
            record(
                "cartan_raise_shift",
                f"m={m},n={n}",
                (h**m) * (e**n),
                (e**n) * ((h + unit.scale(2 * n)) ** m),
            )
            record(
                "cartan_lower_shift",
                f"m={m},n={n}",
                (h**m) * (f**n),
                (f**n) * ((h - unit.scale(2 * n)) ** m),
            )

    return IdentityReport(n_samples=len(_ALPHAS), checks=checks)
