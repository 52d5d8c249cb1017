"""Singular-vector projections and their representation-theoretic consequences.

The projections of the two singular-vector families are finite products of
the quadratic factors, with a power of the lowering (family 1) or raising
(family 2) generator as tail.  Their consequences are read off as follows:

  * the vacuum annihilation operator, normal-ordered, acts on a
    highest-weight line through a polynomial in j that must be proportional
    to the vacuum polynomial;
  * T_-^d times the projections, mod T_+ U(L0), exposes the Frenkel-Zhu
    bimodule degree by degree: each lands in one T_- degree with a product
    of linear factors in T0 as coefficient (the Harish-Chandra projection),
    and the per-degree gcds are intersections of their root multisets;
  * the same family-2 projection in the Heisenberg algebra, normal-ordered
    mod left multiples of eb and right multiples of fb, reduces to a single
    power of hb, which pins the C2 quotient.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InvariantError
from .exact import UniPoly, poly_from_linear_factors
from .pbw import HEIS, L0, SL2, PBWElement, factor_product
from .weights import Level, vacuum_polynomial

_TARGETS = {"P1": SL2, "P": L0, "P2": HEIS}


def _check_primed(level: Level, n_primed: int, k_primed: int) -> None:
    if not 1 <= n_primed <= level.p - 1:
        raise InputError(f"n'={n_primed} outside 1..{level.p - 1}")
    if not 1 <= k_primed <= level.q:
        raise InputError(f"k'={k_primed} outside 1..{level.q}")


def _family_alphas(level: Level, family: str, n_primed: int, k_primed: int) -> list[Fraction]:
    """Indices a of the quadratic factors X_a in the projection of family F1 or F2."""
    p, q, t = level.p, level.q, level.t
    if family == "F1":
        return [Fraction(r) + s * t for r in range(n_primed) for s in range(1, k_primed)]
    return [
        -Fraction(r) - s * t
        for r in range(1, p - n_primed + 1)
        for s in range(1, q - k_primed + 1)
    ]


def fuchs_projection(
    level: Level,
    family: str,
    n_primed: int,
    k_primed: int,
    target: str,
) -> PBWElement:
    """Projection of a singular-vector family to one of the three algebras.

    Family F1 gives (prod_{r=0}^{n'-1} prod_{s=1}^{k'-1} X_{r+st}) lower^{n'},
    family F2 gives (prod_{r=1}^{p-n'} prod_{s=1}^{q-k'} X_{-r-st}) raise^{p-n'},
    where X and the generators are those of the target's algebra: P1 uses H
    in U(sl2), P uses G in U(L0), P2 uses Hbar in the Heisenberg algebra.
    """
    if target not in _TARGETS:
        raise InputError(f"unknown target {target!r}")
    if family not in ("F1", "F2"):
        raise InputError(f"unknown family {family!r}")
    _check_primed(level, n_primed, k_primed)
    alg = _TARGETS[target]
    if family == "F1":
        tail = PBWElement.generator(alg, alg.lowering) ** n_primed
    else:
        tail = PBWElement.generator(alg, alg.raising) ** (level.p - n_primed)
    return factor_product(alg, _family_alphas(level, family, n_primed, k_primed), tail=tail)


def hw_annihilation_polynomial(level: Level) -> tuple[Fraction, UniPoly]:
    """Eigenvalue polynomial of the vacuum annihilation operator.

    X = (prod_{r=1}^{p-1} prod_{s=1}^{q-1} H_{-p+r+st}) e^{p-1} f^{p-1} has
    weight zero, so every PBW monomial of X has equal f- and e-powers; on a
    highest-weight vector of weight j only the pure h^b monomials act, through
    sum_b coeff(h^b) j^b.  That polynomial must be a nonzero scalar multiple c
    of the vacuum polynomial; returns (c, polynomial).
    """
    p, q, t = level.p, level.q, level.t
    alphas = [
        -p + r + s * t for r in range(1, p) for s in range(1, q)
    ]
    e = PBWElement.generator(SL2, SL2.raising)
    f = PBWElement.generator(SL2, SL2.lowering)
    tail = (e ** (p - 1)) * (f ** (p - 1))
    x = factor_product(SL2, alphas, tail=tail)
    coeffs: dict[int, Fraction] = {}
    for (a, b, c), coeff in x.terms.items():
        if a != c:
            raise InvariantError(
                f"weight-zero operator has monomial f^{a} h^{b} e^{c}"
            )
        if a == 0:
            coeffs[b] = coeff
    poly = UniPoly(coeffs)
    vac = vacuum_polynomial(level)
    c = poly.leading_coefficient()
    if not c or poly != vac.scale(c):
        raise InvariantError(
            f"eigenvalue polynomial {poly!r} is not a scalar multiple of {vac!r}"
        )
    return c, poly


@dataclass
class BimoduleOracle:
    """Per-degree output of the T_+ U(L0) reduction of the projections.

    gcds[i] is the monic gcd of all T0-coefficient polynomials that landed in
    T_- degree i for i < n'; dims[i] = deg gcds[i] is the quotient dimension
    contributed at that degree.  tail_unit records that every inspected degree
    in tail_window (all >= n') had unit gcd, i.e. the quotient is supported in
    degrees < n'.
    """

    level: Level
    n_primed: int
    k_primed: int
    d_max: int
    gcds: list[UniPoly]
    dims: list[int]
    tail_window: tuple[int, int]
    tail_unit: bool

    @property
    def dimension(self) -> int:
        return sum(self.dims)


def bimodule_from_mff(level: Level, n_primed: int, k_primed: int) -> BimoduleOracle:
    """Recover bimodule dimensions from the projections alone.

    Reduce T_-^d P(F1) and T_-^d P(F2) mod T_+ U(L0) for d = 0..d_max, with
    d_max = p + n' + 2 and m = p - n'.  The shift T_-^d G_a = G_{a+d} T_-^d and
    T_-^d T_+^m = G_{d-1} ... G_{d-m} T_-^{d-m} (zero in the quotient for d < m)
    leave a product of G's, which lie in the weight-zero subalgebra, times one
    power of T_-.  On that subalgebra the reduction is the Harish-Chandra
    projection, a ring homomorphism sending G_a to (a+1)(a - T0), so each
    T0-coefficient is a nonzero constant times prod (T0 - root):

      F1: T_- degree d + n', roots alphas(F1) + d;
      F2: T_- degree d - m for d >= m, roots alphas(F2) + d and d-m, ..., d-1.

    A degree's monic gcd is the product over the intersection of its root
    multisets.  gcds[i] for i < n' is the degree-i part of the quotient;
    degrees n'..d_max - m, reached by both families, must have unit gcd.
    """
    _check_primed(level, n_primed, k_primed)
    d_max = level.p + n_primed + 2
    m = level.p - n_primed
    f1 = _family_alphas(level, "F1", n_primed, k_primed)
    f2 = _family_alphas(level, "F2", n_primed, k_primed)
    # No root a is -1, so no constant a + 1 vanishes: the F1 and G roots are
    # >= 0, and an F2 root -r - st + d is never an integer since 0 < s < q and
    # gcd(p, q) = 1.  F2 reaches every degree i < n' at d = m + i <= p - 1.
    landings = [(d + n_primed, [a + d for a in f1]) for d in range(d_max + 1)]
    landings += [
        (d - m, [a + d for a in f2] + list(range(d - m, d))) for d in range(m, d_max + 1)
    ]
    common: dict[int, Counter] = {}
    for i, roots in landings:
        common[i] = common[i] & Counter(roots) if i in common else Counter(roots)

    window_lo, window_hi = n_primed, d_max - m
    gcds = [poly_from_linear_factors(common[i].elements()) for i in range(n_primed)]
    return BimoduleOracle(
        level=level,
        n_primed=n_primed,
        k_primed=k_primed,
        d_max=d_max,
        gcds=gcds,
        dims=[g.degree for g in gcds],
        tail_window=(window_lo, window_hi),
        tail_unit=not any(common[i] for i in range(window_lo, window_hi + 1)),
    )


def c2_heisenberg_reduction(level: Level) -> tuple[Fraction, int]:
    """Reduce fb^{p-1} P2(F2(1,1)) mod (eb U + U fb) in the Heisenberg algebra.

    The remainder must be a single monomial c * hb^((p-1) q); returns (c, exponent).
    """
    p, q = level.p, level.q
    pf2 = fuchs_projection(level, "F2", 1, 1, "P2")
    fb = PBWElement.generator(HEIS, HEIS.lowering)
    y = (fb ** (p - 1)) * pf2
    remainder = PBWElement(
        HEIS,
        {m: c for m, c in y.terms.items() if m[0] == 0 and m[2] == 0},
    )
    mono, coeff = remainder.single_monomial()
    exponent = mono[1]
    if exponent != (p - 1) * q:
        raise InvariantError(
            f"C2 remainder hb^{exponent}, expected hb^{(p - 1) * q}"
        )
    return coeff, exponent
