"""Independent theta-series oracle: the exact expansion over Fractions.

This is ``qseries.theta_qseries`` as it was written before it moved to
integer lattice keys.  Every exponent m(j^2 + j z) is built as a
``Fraction`` through ``ThetaSpec.exponent_at`` and every coefficient is
``Fraction(1)``; ``QSeries.from_terms`` puts them on a lattice and adds the
coefficients of repeated exponents.  ``qseries.theta_qseries`` computes the
integer numerators u x^2 + 2m v x over 4mu directly (x = 2m i + n, z = v/u)
and counts repeated keys as ints, so the two must return equal series (same
``denom``, ``terms`` and ``order``); ``tests/test_qseries.py`` checks that on
random inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from admissible_sl2.errors import InputError
from admissible_sl2.exact import rat
from admissible_sl2.qseries import QSeries, ThetaSpec


def theta_qseries(spec: ThetaSpec, order) -> QSeries:
    """Expand theta_{n,m}(tau, z) as an exact QSeries to the given order.

    Sums q^(m(j^2 + j z)) over all lattice points j in Z + n/2m whose exponent
    lies below the order; the exponent is an upward parabola in j, so the set
    is finite and is enumerated outward from the vertex j = -z/2.
    """
    if not spec.has_rational_z:
        raise InputError("exact theta expansion requires a rational z")
    order = rat(order)
    off = spec.offset
    vertex = -spec.z / 2 - off  # real minimiser in the integer coordinate i
    pairs: list[tuple[Fraction, Fraction]] = []
    i = math.ceil(vertex)
    while True:
        e = spec.exponent_at(i + off)
        if e >= order:
            break
        pairs.append((e, Fraction(1)))
        i += 1
    i = math.ceil(vertex) - 1
    while True:
        e = spec.exponent_at(i + off)
        if e >= order:
            break
        pairs.append((e, Fraction(1)))
        i -= 1
    return QSeries.from_terms(pairs, order)
