"""Independent division oracle: plain leading-term elimination over Fractions.

This is the q-series division written the direct way.  Every exponent is
compared as a ``Fraction``, every coefficient is a ``Fraction``, and each step
scans the whole remainder for its lowest key.  ``qseries.qseries_div`` works
on the same lattice with an integer cap, a list of slots or a heap of keys,
and int coefficients where they are exact, so the two must return equal
series (same ``denom``, ``terms`` and ``order``) on every input;
``tests/test_qseries.py`` checks that on random series.

The truncation order is the division rule stated in ``qseries_div``: with
numerator order O_n, denominator order O_d and lowest exponents e_n, e_d,
the quotient is exact below ``min(O_n, O_d + e_n - e_d) - e_d``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from admissible_sl2.errors import InputError
from admissible_sl2.qseries import QSeries


def leading_term_division(num: QSeries, den: QSeries) -> QSeries:
    """num / den by repeatedly cancelling the lowest remainder term."""
    low_d = den.lowest()
    if low_d is None:
        raise InputError(
            f"denominator has no terms below its truncation order {den.order}"
        )
    e_d, c_d = low_d
    low_n = num.lowest()
    e_n = low_n[0] if low_n else num.order
    order = min(num.order, den.order + e_n - e_d) - e_d
    if low_n is None:
        return QSeries.zero(order)

    denom = num.denom * den.denom // math.gcd(num.denom, den.denom)
    denom2 = denom
    for f in (order, e_d):
        denom2 = denom2 * f.denominator // math.gcd(denom2, f.denominator)
    rem = {m * (denom2 // num.denom): c for m, c in num.terms.items()}
    dterms = sorted((m * (denom2 // den.denom), c) for m, c in den.terms.items())
    m_d = dterms[0][0]
    cap = order + e_d  # remainder terms at/above this exponent cannot matter
    quo: dict[int, Fraction] = {}
    while rem:
        m_r = min(rem)
        if Fraction(m_r, denom2) >= cap:
            break
        c = rem[m_r] / c_d
        quo[m_r - m_d] = c
        for m_i, c_i in dterms:
            m = m_r - m_d + m_i
            if Fraction(m, denom2) >= cap:
                break
            v = rem.get(m, Fraction(0)) - c * c_i
            if v:
                rem[m] = v
            elif m in rem:
                del rem[m]
    return QSeries(denom2, quo, order)
