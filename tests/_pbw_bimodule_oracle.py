"""Independent bimodule oracle: the projections reduced by PBW normal ordering.

This is ``mff.bimodule_from_mff`` computed the direct way.  For d = 0..d_max
with d_max = p + n' + 2 it normal-orders T_-^d P(F1) and T_-^d P(F2) in
U(L0), discards monomials with positive T_+ power (reduction mod T_+ U(L0)),
checks that the remainder sits in a single T_- degree, and takes the monic
``poly_gcd`` of the T0-coefficient polynomials collected per degree.
``bimodule_from_mff`` reads the same gcds off the Harish-Chandra projection
as products of linear factors, so the two must return equal ``gcds``,
``dims``, ``d_max``, ``tail_window`` and ``tail_unit``; ``tests/test_mff.py``
checks that over a box of levels.

The two ``InvariantError`` branches below are the premise of the closed form:
each T_-^d P(F) reduces to one T_- degree, and family 2 reaches every degree
below n'.  Here they are checked, not assumed.
"""

from __future__ import annotations

from functools import reduce

from admissible_sl2.errors import InputError, InvariantError
from admissible_sl2.exact import UniPoly, poly_gcd
from admissible_sl2.mff import BimoduleOracle, fuchs_projection
from admissible_sl2.pbw import L0, PBWElement
from admissible_sl2.weights import Level


def pbw_bimodule_oracle(level: Level, n_primed: int, k_primed: int) -> BimoduleOracle:
    """Per-degree gcds of the T_+ U(L0) reduction of T_-^d P(F1) and T_-^d P(F2)."""
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
