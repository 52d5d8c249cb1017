"""Independent series oracle: the direct per-term evaluator of a q-series.

This is ``numeric.qseries_eval_numeric`` as it was written before the sum
went to an integer fixed-point walk.  Every term calls ``mp.expjpi`` through
``_q_power`` at its own exponent, and the bound is (terms + 16) eps times
the sum of the term moduli, which leaves out the rounding of each term's
argument.  ``numeric.qseries_eval_numeric`` takes one exponential per
distinct gap between sorted exponents; ``tests/test_numeric.py`` holds the
two to each other's bounds on random character series.
"""

from __future__ import annotations

from mpmath import mp

from admissible_sl2.numeric import DEFAULT_PREC, ComplexVal, _as_mpc, _frac_mpf, _q_power
from admissible_sl2.qseries import QSeries


def qseries_eval_numeric(series: QSeries, tau) -> ComplexVal:
    """Evaluate a truncated exact series at q = e^{2 pi i tau}.

    The error bound covers floating-point rounding only; the series'
    truncation tail is the caller's budget (the series is exact below its
    stated order).
    """
    prec = DEFAULT_PREC
    with mp.workprec(prec):
        tau_v = _as_mpc(tau)
        eps = mp.mpf(2) ** (1 - prec)
        total = mp.mpc(0)
        sum_abs = mp.mpf(0)
        pairs = series.prefix()
        for e, c in pairs:
            term = _frac_mpf(c) * _q_power(e, tau_v)
            total += term
            sum_abs += abs(term)
        rounding = sum_abs * (len(pairs) + 16) * eps
        return ComplexVal(total, rounding, prec)
