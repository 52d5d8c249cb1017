"""The label routes computed in ``Fraction``s, the way they were before labels.

The package holds every weight and every root r at a level ell = -2 + p/q as
its integer label q*r, and splits a label back into box coordinates by one
modular inverse.  This module keeps the rational versions verbatim, as a
referee for the integer ones:

  * :func:`presentation_roots`, route 2's roots r + i - st of each g_i;
  * :func:`family_alphas`, the indices a of the projections' quadratic
    factors, and :func:`bimodule_from_mff`, route 3's oracle with its gcds
    as sorted ``Fraction`` root multisets;
  * :func:`weight_from_j`, which searches k = 0..q-1 for an integral
    n = j + k t;
  * :func:`kac_kazhdan_witness`, which searches k = 1..q in case I and then
    in case II.

``tests/test_integer_labels.py`` requires ``Fraction(label, q)`` of every
integer label to equal these roots, and the two resolvers to agree.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from admissible_sl2.exact import RatLike, rat
from admissible_sl2.mff import BimoduleOracle
from admissible_sl2.weights import AdmissibleWeight, Level


def presentation_roots(level: Level, weight: AdmissibleWeight) -> tuple[tuple[Fraction, ...], ...]:
    """Route 2: the root tuple r + i - st of g_i, i = 0..n'-1."""
    p, q, t = level.p, level.q, level.t
    np_, kp = weight.n_primed, weight.k_primed
    return tuple(
        tuple(r + i - s * t for r in range(p - np_) for s in range(q - kp + 1))
        for i in range(np_)
    )


def family_alphas(weight: AdmissibleWeight, family: str) -> list[Fraction]:
    """Indices a of the quadratic factors X_a in the projection of family F1 or F2."""
    p, q, t = weight.level.p, weight.level.q, weight.level.t
    n_primed, k_primed = weight.n_primed, weight.k_primed
    if family == "F1":
        return [Fraction(r) + s * t for r in range(n_primed) for s in range(1, k_primed)]
    return [
        -Fraction(r) - s * t
        for r in range(1, p - n_primed + 1)
        for s in range(1, q - k_primed + 1)
    ]


def bimodule_from_mff(weight: AdmissibleWeight) -> BimoduleOracle:
    """Route 3: the per-degree gcds as sorted ``Fraction`` root multisets."""
    level, n_primed = weight.level, weight.n_primed
    d_max = level.p + n_primed + 2
    m = level.p - n_primed
    f1 = family_alphas(weight, "F1")
    f2 = family_alphas(weight, "F2")
    landings = [(d + n_primed, [a + d for a in f1]) for d in range(d_max + 1)]
    landings += [
        (d - m, [a + d for a in f2] + list(range(d - m, d))) for d in range(m, d_max + 1)
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


def weight_from_j(level: Level, j: RatLike) -> AdmissibleWeight | None:
    """Resolve a rational j to its (n, k) box coordinates, or None."""
    jf = rat(j)
    for k in range(level.q):
        n = jf + k * level.t
        if n.denominator == 1 and 0 <= n <= level.p - 2:
            return AdmissibleWeight(level, int(n), k)
    return None


def kac_kazhdan_witness(
    level: Level, j: RatLike
) -> tuple[str, int, int] | None:
    """Reducibility witness for the Verma module of highest weight j.

    Case I looks for positive integers (n, k) with j = n - 1 - (k-1)*t,
    case II for j = -n + k*t.  Integrality of n is periodic in k with period
    q, so k is searched in 1..q and then shifted by multiples of q (which
    raises n by p each time) until n >= 1.  Case I is tried first; None
    means the Verma module is irreducible.
    """
    jf = rat(j)
    t = level.t
    for case, n_of_k in (
        ("I", lambda k: jf + 1 + (k - 1) * t),
        ("II", lambda k: k * t - jf),
    ):
        for k in range(1, level.q + 1):
            n = n_of_k(k)
            if n.denominator != 1:
                continue
            shifts = 0
            if n < 1:
                # ceil((1 - n)/p) many q-shifts push n into the positives
                shifts = -((n - 1) // level.p)
            return case, int(n + shifts * level.p), k + shifts * level.q
    return None
