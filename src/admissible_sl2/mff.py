"""Singular-vector projections and their representation-theoretic consequences.

The projections of the two singular-vector families are finite products of
the quadratic factors, with a power of the lowering (family 1) or raising
(family 2) generator as tail.  Each consequence below that is a product of
linear factors is held as its root multiset, never normal-ordered:

  * the vacuum annihilation operator acts on a highest-weight line through
    the Harish-Chandra image of its factors, a constant times a product of
    linear factors in j;
  * T_-^d times the projections, mod T_+ U(L0), exposes the Frenkel-Zhu
    bimodule degree by degree: each lands in one T_- degree with a product
    of linear factors in T0 as coefficient (the Harish-Chandra projection),
    and the per-degree gcds intersect their multisets of root labels q*r;
  * the same family-2 projection in the Heisenberg algebra, after
    fb^{p-1}, reduces mod left multiples of eb and right multiples of fb to
    a single power of hb, which pins the C2 quotient.  It is normal-ordered
    in PBW factor by factor, and the left multiples of eb, a right ideal,
    are dropped after every product.

These functions return what they compute and judge nothing: the checks in
:mod:`admissible_sl2.verify` compare the annihilation polynomial's root labels
with the vacuum polynomial's, and the C2 exponent with (p-1) q.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .pbw import HEIS, L0, PBWElement, quadratic_factor
from .weights import AdmissibleWeight, Level

_TARGETS = {"P": L0, "P2": HEIS}


def _family_alphas(weight: AdmissibleWeight, family: str) -> list[int]:
    """Labels q*a of the indices a of the quadratic factors X_a in the projection of F1 or F2."""
    p, q = weight.level.p, weight.level.q
    np_, kp = weight.n_primed, weight.k_primed
    if family == "F1":
        return [q * r + s * p for r in range(np_) for s in range(1, kp)]
    return [
        -q * r - s * p
        for r in range(1, p - np_ + 1)
        for s in range(1, q - kp + 1)
    ]


def _projection_factors(weight: AdmissibleWeight, family: str, target: str) -> list[PBWElement]:
    """A projection's factors, left to right: its X_a, then its tail one generator at a time."""
    if target not in _TARGETS:
        raise InputError(f"unknown target {target!r}")
    if family not in ("F1", "F2"):
        raise InputError(f"unknown family {family!r}")
    alg = _TARGETS[target]
    if family == "F1":
        tail = [PBWElement.generator(alg, alg.lowering)] * weight.n_primed
    else:
        tail = [PBWElement.generator(alg, alg.raising)] * (weight.level.p - weight.n_primed)
    alphas = _family_alphas(weight, family)
    return [quadratic_factor(alg, Fraction(a, weight.level.q)) for a in alphas] + tail


def fuchs_projection(weight: AdmissibleWeight, family: str, target: str) -> PBWElement:
    """Projection of a singular-vector family of L(ell, j) to one of the two algebras.

    With n' = n + 1 and k' = k + 1 read off the weight, family F1 gives
    (prod_{r=0}^{n'-1} prod_{s=1}^{k'-1} X_{r+st}) lower^{n'} and family F2
    gives (prod_{r=1}^{p-n'} prod_{s=1}^{q-k'} X_{-r-st}) raise^{p-n'},
    where X and the generators are those of the target's algebra: P uses G
    in U(L0), P2 uses Hbar in the Heisenberg algebra.
    """
    return math.prod(_projection_factors(weight, family, target))


def hw_annihilation_polynomial(level: Level) -> tuple[Fraction, tuple[int, ...]]:
    """Eigenvalue polynomial of the vacuum annihilation operator, as constant and root labels.

    X = (prod_{r=1}^{p-1} prod_{s=1}^{q-1} H_{-p+r+st}) e^{p-1} f^{p-1} has
    weight zero, so on a highest-weight vector v_j it acts by a scalar
    polynomial in j: e^{p-1} f^{p-1} v_j = (p-1)! j (j-1) ... (j-p+2) v_j, and
    H_a = f e - a h - a(a+1) acts as -a (j + a + 1).  So the polynomial is
    c prod (j - root) with c = (p-1)! prod (-a) and roots 0..p-2 together
    with -a-1 over the alphas.  Returns c and the sorted root labels q*root,
    q r and q(p-r-1) - s p; the caller judges whether they are c times the
    vacuum polynomial.
    """
    p, q, t = level.p, level.q, level.t
    minus_alphas = (p - r - s * t for r in range(1, p) for s in range(1, q))
    c = math.prod(minus_alphas, start=Fraction(math.factorial(p - 1)))
    labels = [q * r for r in range(p - 1)]
    labels += [q * (p - r - 1) - s * p for r in range(1, p) for s in range(1, q)]
    return c, tuple(sorted(labels))


@dataclass
class BimoduleOracle:
    """Per-degree output of the T_+ U(L0) reduction of the projections.

    gcds[i] is the sorted tuple of root labels q*r of the monic gcd of all
    T0-coefficient polynomials that landed in T_- degree i for i < n';
    dims[i] = len(gcds[i]) is the quotient dimension contributed at that
    degree.  tail_unit records that every inspected degree in tail_window
    (all >= n') had unit gcd, i.e. the quotient is supported in degrees < n'.
    """

    level: Level
    n_primed: int
    k_primed: int
    d_max: int
    gcds: list[tuple[int, ...]]
    dims: list[int]
    tail_window: tuple[int, int]
    tail_unit: bool

    @property
    def dimension(self) -> int:
        return sum(self.dims)


def bimodule_from_mff(weight: AdmissibleWeight) -> BimoduleOracle:
    """Recover the bimodule dimensions of L(ell, j) from its projections alone.

    With n' = n + 1 read off the weight, reduce T_-^d P(F1) and T_-^d P(F2)
    mod T_+ U(L0) for d = 0..d_max, with d_max = p + n' + 2 and m = p - n'.
    The shift T_-^d G_a = G_{a+d} T_-^d and T_-^d T_+^m = G_{d-1} ... G_{d-m}
    T_-^{d-m} (zero in the quotient for d < m) leave a product of G's, which
    lie in the weight-zero subalgebra, times one power of T_-.  On that
    subalgebra the reduction is the Harish-Chandra projection, a ring
    homomorphism sending G_a to (a+1)(a - T0), so each T0-coefficient is a
    nonzero constant times prod (T0 - root):

      F1: T_- degree d + n', roots alphas(F1) + d;
      F2: T_- degree d - m for d >= m, roots alphas(F2) + d and d-m, ..., d-1.

    A degree's monic gcd is the product over the intersection of its root
    multisets, kept as that sorted multiset of labels q*r.  gcds[i] for i < n'
    is the degree-i part of the quotient; degrees n'..d_max - m, reached by
    both families, must have unit gcd.
    """
    level, n_primed = weight.level, weight.n_primed
    d_max = level.p + n_primed + 2
    m, q = level.p - n_primed, level.q
    f1 = _family_alphas(weight, "F1")
    f2 = _family_alphas(weight, "F2")
    # No label is -q, so no constant a + 1 vanishes: the F1 and G labels are >= 0,
    # and an F2 label q(d - r) - sp is never a multiple of q since 0 < s < q and
    # gcd(p, q) = 1.  F2 reaches every degree i < n' at d = m + i <= p - 1.
    landings = [(d + n_primed, [a + q * d for a in f1]) for d in range(d_max + 1)]
    landings += [
        (d - m, [a + q * d for a in f2] + list(range(q * (d - m), q * d, q)))
        for d in range(m, d_max + 1)
    ]
    common: dict[int, Counter] = {}
    for i, roots in landings:
        common[i] = common[i] & Counter(roots) if i in common else Counter(roots)

    window_lo, window_hi = n_primed, d_max - m
    gcds = [tuple(sorted(common[i].elements())) for i in range(n_primed)]
    return BimoduleOracle(
        level=level,
        n_primed=n_primed,
        k_primed=weight.k_primed,
        d_max=d_max,
        gcds=gcds,
        dims=[len(g) for g in gcds],
        tail_window=(window_lo, window_hi),
        tail_unit=not any(common[i] for i in range(window_lo, window_hi + 1)),
    )


def c2_heisenberg_reduction(level: Level) -> tuple[Fraction, int]:
    """Reduce fb^{p-1} P2(F2(1,1)) mod (eb U + U fb) in the Heisenberg algebra.

    The product is formed left to right: fb^{p-1}, each Hbar factor of the
    projection, then each eb of its tail eb^{p-1}.  After each step the
    terms with a leading eb are dropped.  That is exact: eb U is a right
    ideal, and in the PBW order (eb, hb, fb) it is the span of the monomials
    with a positive eb exponent, so the eb-free part of a product depends
    only on the eb-free part of its left factor.  The fb-free terms of the
    last eb-free part are the remainder, which must be a single monomial
    c * hb^e (otherwise :meth:`PBWElement.single_monomial` raises); returns
    (c, e).  The caller judges e against (p-1) q.
    """
    y = PBWElement.generator(HEIS, HEIS.lowering) ** (level.p - 1)
    for factor in _projection_factors(AdmissibleWeight(level, 0, 0), "F2", "P2"):
        y = PBWElement(HEIS, {m: c for m, c in (y * factor).terms.items() if m[0] == 0})
    remainder = PBWElement(HEIS, {m: c for m, c in y.terms.items() if m[2] == 0})
    mono, coeff = remainder.single_monomial()
    return coeff, mono[1]
