"""Singular-vector projections and their representation-theoretic consequences.

The projections of the two singular-vector families are finite products of
the quadratic factors, with a power of the lowering (family 1) or raising
(family 2) generator as tail.  Everything downstream is a normal-ordering
computation:

  * the vacuum annihilation operator acts on a highest-weight line through a
    polynomial in j that must be proportional to the vacuum polynomial;
  * reducing T_-^d times the projections mod T_+ U(L0) exposes the Frenkel-Zhu
    bimodule degree by degree (per-degree gcds of T0-coefficient polynomials);
  * the same family-2 projection in the Heisenberg algebra reduces, mod left
    multiples of eb and right multiples of fb, to a single power of hb, which
    pins the C2 quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .errors import InputError, InvariantError
from .exact import UniPoly, poly_gcd
from .pbw import HEIS, L0, SL2, PBWElement, factor_product
from .weights import Level, vacuum_polynomial

_TARGETS = {"P1": SL2, "P": L0, "P2": HEIS}


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
    p, q, t = level.p, level.q, level.t
    if not 1 <= n_primed <= p - 1:
        raise InputError(f"n'={n_primed} outside 1..{p - 1}")
    if not 1 <= k_primed <= q:
        raise InputError(f"k'={k_primed} outside 1..{q}")
    alg = _TARGETS[target]
    if family == "F1":
        alphas = [
            Fraction(r) + s * t
            for r in range(n_primed)
            for s in range(1, k_primed)
        ]
        tail = PBWElement.generator(alg, alg.lowering) ** n_primed
    else:
        alphas = [
            -Fraction(r) - s * t
            for r in range(1, p - n_primed + 1)
            for s in range(1, q - k_primed + 1)
        ]
        tail = PBWElement.generator(alg, alg.raising) ** (p - n_primed)
    return factor_product(alg, alphas, tail=tail)


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

    For d = 0..d_max with d_max = p + n' + 2, normal-order T_-^d P(F1) and
    T_-^d P(F2), discard monomials with positive T_+ power (reduction mod
    T_+ U(L0)) and check the remainder sits in a single T_- degree.
    Collecting the T0-coefficient polynomials per degree and taking monic gcds
    yields the degree-i component of the quotient; degrees >= n' must wash
    out to unit gcd once both families contribute, which requires
    d_max >= p + n'.
    """
    p, q = level.p, level.q
    if not 1 <= n_primed <= p - 1:
        raise InputError(f"n'={n_primed} outside 1..{p - 1}")
    if not 1 <= k_primed <= q:
        raise InputError(f"k'={k_primed} outside 1..{q}")
    d_max = p + n_primed + 2

    tminus = PBWElement.generator(L0, L0.lowering)
    per_degree: dict[int, list[UniPoly]] = {}
    for family in ("F1", "F2"):
        cur = fuchs_projection(level, family, n_primed, k_primed, "P")
        for d in range(d_max + 1):
            if d > 0:
                cur = tminus * cur
            reduced = {
                (b, c): coeff for (a, b, c), coeff in cur.terms.items() if a == 0
            }
            if not reduced:
                continue
            degrees = {c for (_, c) in reduced}
            if len(degrees) != 1:
                raise InvariantError(
                    f"T_-^{d} P({family}) reduces to T_- degrees {sorted(degrees)}"
                )
            i = degrees.pop()
            poly = UniPoly({b: coeff for (b, _), coeff in reduced.items()})
            per_degree.setdefault(i, []).append(poly)

    gcds_all = {
        i: reduce(poly_gcd, polys, UniPoly.zero()) for i, polys in per_degree.items()
    }
    missing = [i for i in range(n_primed) if i not in gcds_all]
    if missing:
        raise InvariantError(
            f"no relations landed in T_- degrees {missing} up to d_max={d_max}"
        )
    window_lo, window_hi = n_primed, d_max - (p - n_primed)
    tail_unit = all(
        gcds_all[i] == UniPoly.constant(1)
        for i in range(window_lo, window_hi + 1)
        if i in gcds_all
    )
    gcds = [gcds_all[i] for i in range(n_primed)]
    return BimoduleOracle(
        level=level,
        n_primed=n_primed,
        k_primed=k_primed,
        d_max=d_max,
        gcds=gcds,
        dims=[g.degree for g in gcds],
        tail_window=(window_lo, window_hi),
        tail_unit=tail_unit,
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
