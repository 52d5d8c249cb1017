"""Independent theta oracle: every step of the certificate in mpf.

This is ``numeric.theta_eval_numeric`` as it was first written.  Every step
calls ``mp.exp`` three times at the working precision: once for the
term-ratio bound e^{-slope}, once for the modulus in the tail test, and once
for the modulus added to the rounding sum.  ``numeric.theta_eval_numeric``
keeps the terms and their sum at the working precision too, and sums the
same terms in the same order, so the two must return bitwise equal values;
its bound, though, is kept in Python floats as logs, each log raised by a
stated margin.  That bound also allows for the rounding of the floats and of
every exponential's argument, which this evaluator leaves out, so it is never
smaller than the one here; ``tests/test_numeric.py`` checks both on random
inputs.
"""

from __future__ import annotations

import mpmath
from mpmath import mp

from admissible_sl2.errors import InputError
from admissible_sl2.numeric import (
    _MAX_TERMS_PER_SIDE,
    DEFAULT_PREC,
    ComplexVal,
    _as_mpc,
    _positive_tol,
    _upper_half_plane,
)
from admissible_sl2.qseries import ThetaSpec


def theta_eval_numeric(spec: ThetaSpec, tau, tol, prec: int = DEFAULT_PREC) -> ComplexVal:
    """Evaluate theta_{n,m}(tau, z) = sum over Z + n/2m of e^{2 pi i m tau (j^2 + j z)}.

    The sum is taken outward from the vertex of the term-modulus parabola on
    each side until the certified geometric tail drops below tol/4; the
    rounding budget accounts for the remaining tol/4.  ``spec.z`` may be
    complex.
    """
    tol = _positive_tol(tol)
    with mp.workprec(prec):
        tau_v = _upper_half_plane(tau, "theta series")
        A = tau_v.imag
        z = _as_mpc(spec.z)
        m = spec.m
        B = mp.im(tau_v * z)
        off = mp.mpf(spec.n) / (2 * m)
        two_pi_m = 2 * mp.pi * m
        eps = mp.mpf(2) ** (1 - prec)
        budget = tol / 4

        def term_at(x):
            return mp.expjpi(2 * m * (x * x + x * z) * tau_v)

        def log_modulus(x):
            return -two_pi_m * (A * x * x + B * x)

        vertex = -B / (2 * A) - off  # integer-coordinate vertex
        total = mp.mpc(0)
        sum_abs = mp.mpf(0)
        count = 0
        tails = mp.mpf(0)

        for direction in (+1, -1):
            i = int(mp.ceil(vertex)) if direction == +1 else int(mp.ceil(vertex)) - 1
            steps = 0
            while True:
                x = i + off
                # Geometric-tail stopping test: the ratio of consecutive term
                # moduli going outward from x is e^{-slope}, valid once the
                # slope is positive (i.e. past the vertex).
                slope = two_pi_m * (A * (2 * direction * x + 1) + direction * B)
                if slope > 0:
                    rho = mp.exp(-slope)
                    tail = mp.exp(log_modulus(x)) / (1 - rho)
                    if tail < budget:
                        tails += tail
                        break
                total += term_at(x)
                sum_abs += mp.exp(log_modulus(x))
                count += 1
                i += direction
                steps += 1
                if steps > _MAX_TERMS_PER_SIDE:
                    raise InputError(
                        "theta tail bound not reached within the term cap; "
                        "tolerance too small for this tau"
                    )

        rounding = sum_abs * (count + 16) * eps
        if rounding > budget:
            raise InputError(
                f"rounding budget {mpmath.nstr(rounding, 5)} exceeds tol/4 at {prec} bits"
            )
        return ComplexVal(total, tails + rounding, prec)
