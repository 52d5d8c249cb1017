"""Certified numeric evaluation of theta functions, characters, and the
S-transformation residuals.

Every routine returns a :class:`ComplexVal`, a value together with a rigorous
error bound: truncation tails are controlled by geometric-series estimates on
the term moduli (a term of theta_{n,m}(tau, z) at lattice point x has modulus
e^{-2 pi m (A x^2 + B x)} with A = Im tau, B = Im(tau z), so past the parabola
vertex consecutive term ratios are certified < 1), and floating-point rounding
is budgeted from the working precision.  The second theta argument may be
complex, which is what the S-transformation needs on its left-hand side,
where the character is evaluated at (-1/tau, tau z).

A theta's terms and their sum are taken at the working precision; its bound
only certifies them, so it is kept in Python floats as natural logs: the log
of each term modulus, evaluated directly, the tail test and the rounding sums,
each raised by a stated relative margin (derivation in
:func:`theta_eval_numeric`).  One ``mp.exp`` turns the final log into the
bound.

Two walks carry their sums in Python-int fixed point, with bounds counted in
whole units of the scale.  An exact q-series is evaluated along its sorted
lattice keys: q^{e_0} once for the lowest exponent, then one q^{g/D} per
distinct gap g, at prec + 8 + bitlength(sum_k (k + 1) |c_k|) fraction bits,
so int coefficients multiply exactly (derivation in
:func:`qseries_eval_numeric`).  ``stransform``'s side pass walks every theta
of one (m, z, tau) at once, over N = 2m x with x on the lattice, by the
ratios t_{N+1}/t_N; its fraction bits come from the tolerance and the top
term modulus (derivation in :func:`_fixed_walk` and :func:`_theta_vector`).

``s_transform_residual`` computes each distinct quantity once per call.
Each side of the law is one pass (``_chibar_side``): one theta vector of the
denominator pair theta_{+-1,2}, which every weight's quotient shares, and one
of every numerator residue b+- of the level at m = a.  Then one e^{i pi N/a}
per phase class of the integer numerators N = b b', the pair (|N| mod a,
binade of |N|/a) on which ``expjpi`` gives the same bits up to a sign set by
the parity of floor(|N|/a) (proof in :func:`s_transform_residual`),
conjugated for N < 0; one S entry, its conjugate (the conjugate-phase
matrix) and its modulus per distinct pair of signed classes, the pair with
both parities flipped taking them negated.  The residual table takes S and
factor times chibar to fixed point once, and each cell is four int products
and one ``math.isqrt``.

Three computations keep mpmath's operator bits: ``theta_eval_numeric`` and
the quotients of ``_chibar_numeric``, so ``character`` and ``verify``
reports stay what they were, and the S build, whose bits ``STRANSFORM_EXACT``
pins.  For speed they call, on the ``_mpf_`` and ``_mpc_`` tuples, the
``mpmath.libmp`` functions the operators call, in the operators' operand
order and rounding to nearest, as every ``mp`` context here does;
``tests/test_libmp_spellings.py`` holds each spelling to its operator.

The bounds that only certify, the theta quotient's and the residual
table's, are kept in Python floats too.  Each mpf that enters is split
exactly into a double and a power of two (``_split``), and a set of them is
shifted onto one power of two (``_aligned``), so no magnitude over- or
underflows a double; a stated relative margin covers the float roundings
(Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 3-4).

This module evaluates what ``characters`` describes: the four thetas of the
quotient come from :func:`~admissible_sl2.characters.chibar_thetas` and the
anomaly exponent from :attr:`~admissible_sl2.characters.CharacterSpec.anomaly`;
every power of q is built by :func:`_q_power`.  Every evaluator checks for a
finite tau with ``Im(tau) > 0`` up front, and those with a tolerance check
``tol > 0``, with one helper each.

Precision is fixed per evaluator (``theta_eval_numeric`` alone takes it as an
argument); there is no ambient global state -- evaluation happens inside
``mp.workprec``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice

import mpmath
from mpmath import mp
from mpmath.libmp import (
    fzero,
    from_float,
    from_int,
    from_man_exp,
    from_rational,
    mpc_abs,
    mpc_add,
    mpc_add_mpf,
    mpc_div,
    mpc_mul,
    mpc_mul_int,
    mpc_mul_mpf,
    mpc_sub,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_mul,
    mpf_neg,
    mpf_shift,
    mpf_sub,
    round_ceiling,
    round_nearest,
    to_fixed,
    to_float,
    to_int,
    to_rational,
)

from .characters import CharacterSpec, chibar_thetas
from .errors import InputError
from .exact import rat
from .qseries import QSeries, ThetaSpec
from .weights import AdmissibleWeight, Level, enumerate_admissible

__all__ = [
    "ComplexVal",
    "STransformReport",
    "character_eval_numeric",
    "qseries_eval_numeric",
    "s_transform_residual",
    "theta_eval_numeric",
]

DEFAULT_PREC = 128
_S_TRANSFORM_PREC = 192

_MAX_TERMS_PER_SIDE = 200_000
_QUOTIENT_RETRIES = 7
# Relative allowance of the float bookkeeping of a bound (theta, quotient and
# residual table): 2^13 times the unit roundoff 2^-53 of a double.
_FLOAT_MARGIN = 2.0**-40
# A split value more than 2^600 below the largest of its set is raised to that:
# floats and their products then stay far inside the normal double range.
_FLOAT_FLOOR = -600
_TERM_CAP = "theta tail bound not reached within the term cap; tolerance too small for this tau"


@dataclass(frozen=True)
class ComplexVal:
    """A complex value with a certified absolute error bound."""

    value: mpmath.mpc
    err: mpmath.mpf
    prec: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ComplexVal({self.value}, err<={mpmath.nstr(self.err, 3)}, prec={self.prec})"


def _as_mpc(x) -> mpmath.mpc:
    if isinstance(x, Fraction):
        return mp.mpc(_frac_mpf(x))
    return mp.mpc(x)


def _frac_mpf(x: Fraction) -> mpmath.mpf:
    return mp.mpf(x.numerator) / x.denominator


def _q_power(e: Fraction, tau) -> mpmath.mpc:
    """q^e = e^{2 pi i e tau} for an exact exponent e."""
    return mp.expjpi(_frac_mpf(2 * e) * tau)


def _positive_tol(tol) -> mpmath.mpf:
    tol = mp.mpf(tol)
    if not tol > 0:  # NaN fails every comparison
        raise InputError(f"tolerance must be positive, got {tol}")
    return tol


def _upper_half_plane(tau, what: str) -> mpmath.mpc:
    """``tau`` at the working precision; ``what`` requires it finite with Im(tau) > 0."""
    tau_v = _as_mpc(tau)
    if not tau_v.imag > 0:
        raise InputError(f"{what} requires Im(tau) > 0, got Im(tau) = {tau_v.imag}")
    if not mp.isfinite(tau_v):
        raise InputError(f"{what} requires a finite tau, got tau = {tau_v}")
    return tau_v


def _up(*logs: float) -> float:
    """The float sum of ``logs``, raised by 2^-40 (1 + sum |v|), past its rounding."""
    return sum(logs) + _FLOAT_MARGIN * (1 + sum(map(abs, logs)))


def _log_sum(logs: list[float]) -> float:
    """An upper bound on log(sum e^v) over a few float logs; -inf for none."""
    if not logs:
        return -math.inf
    top = max(logs)
    return _up(top, math.log(math.fsum(math.exp(v - top) for v in logs)))


def _split(x: tuple) -> tuple[float, int]:
    """(f, k) with 0 <= x < 2^k and f = x 2^-k truncated to a double; (0.0, 0) for 0.

    ``x`` is a raw mpf tuple.  The scaling by 2^-k is exact, so f is within
    2^-52 of x 2^-k, below it, whatever the size of x: 1/2 <= f < 1.
    """
    _, man, exp, bc = x
    if not man:
        return 0.0, 0
    return to_float((0, man, -bc, bc)), exp + bc


def _aligned(pairs: list[tuple[float, int]]) -> tuple[list[float], int]:
    """Values f 2^k as floats f 2^(k - g) over one exponent g, the largest k.

    The shift is exact; a value whose k - g is below -600 is raised to f
    2^-600, which only raises a bound built from it and keeps it nonzero.
    """
    g = max((k for f, k in pairs if f), default=0)
    return [math.ldexp(f, max(k - g, _FLOAT_FLOOR)) for f, k in pairs], g


def _refuse_past_the_cap(a, b, two_pi_m, log_budget, tau_l1, abs_z, abs_off, prec: int) -> float:
    """Y of a walk over one residue (see :func:`theta_eval_numeric`); raises at the term cap.

    An Im(tau) past the double range is refused, then the parabola's reach
    is tested, then whether Y swamps every slope up to the cap.
    ``_theta_vector`` applies all three with ``abs_off`` = 1, above every
    residue's |n/2m|, so it evaluates only where its referee does.
    """
    if a == math.inf:
        raise InputError("theta series requires Im(tau) within the double range")
    reach = (b * b / (4 * a) - log_budget / two_pi_m) / a if a else math.inf
    if reach > (_MAX_TERMS_PER_SIDE + 1) ** 2 * (1 + _FLOAT_MARGIN):
        raise InputError(
            f"{_TERM_CAP} (at least {int(math.sqrt(min(reach, 1e300)))} "
            f"terms per side, cap {_MAX_TERMS_PER_SIDE})"
        )
    q_cap = abs(b) / (2 * a) + abs_off + _MAX_TERMS_PER_SIDE + 2
    y = math.ldexp(9 * two_pi_m * tau_l1 * q_cap * (q_cap + abs_z), 1 - prec)  # Y
    if y + _FLOAT_MARGIN >= 2 * two_pi_m * (a * (2 * q_cap + 1) + abs(b)):
        raise InputError(_TERM_CAP)  # every s_lo up to the cap is negative
    return y


def theta_eval_numeric(spec: ThetaSpec, tau, tol, prec: int = DEFAULT_PREC) -> ComplexVal:
    """Evaluate theta_{n,m}(tau, z) = sum over Z + n/2m of e^{2 pi i m tau (j^2 + j z)}.

    The sum is taken outward from the vertex of the term-modulus parabola on
    each side until the certified geometric tail drops below tol/4; the
    rounding budget accounts for the remaining tol/4.  ``spec.z`` may be
    complex.  This is the direct evaluator of ``character`` and ``verify``,
    and the referee of ``stransform``'s side pass (``_theta_vector``).

    Two precisions.  Each term is a direct ``expjpi`` at the working
    precision, summed there in a fixed order; that is the value.  The bound
    only certifies it, so it is kept in Python floats as natural logs: eps =
    2^(1 - prec), tol/4 and each modulus enter only through their logs, and
    each side's sums of moduli are taken relative to its first modulus, its
    largest, so nothing over- or underflows.  At x = i + n/2m, going outward
    (d = +-1),

        L(x) = -2 pi m (A x^2 + B x),    s(x) = 2 pi m (A (2 d x + 1) + d B),

    A = Im tau, B = Im(tau z), are the log-modulus and the slope: the ratio
    to the next term outward is e^{-s(x)}, and from the first point on s
    grows by 4 pi m A > 0 per step, so the tail past x is at most M(x) / (1 -
    e^{-s(x)}).

    Float rounding.  L and s are evaluated directly at every step from A, B
    and x rounded to doubles: about ten roundings of u = 2^-53 in the
    magnitudes P + |Q| (P = 2 pi m A x^2, Q = 2 pi m B x) and S = 2 pi m (A
    (2|x| + 1) + |B|), far inside the margins 2^-40 (P + |Q| + 1) added to L
    and 2^-40 (S + 1) taken off s.  ``_up`` and ``_log_sum`` raise every
    later float sum of logs by 2^-40 (1 + its addends' magnitudes), again
    past its rounding, and the sums of moduli are raised by 2^-40 count.

    Rounding of the arguments, at the working precision: x, B, n/2m and a
    rational z are rounded.  With X = |x| + |n/2m| and U = 2 pi m |tau| eps,
    that moves L by at most 4 U X (X + |z|) and s by 3 U (X + |z|); a term's
    own argument w = 2m(x^2 + xz) tau is within pi |w' - w| <= 6 U X (X +
    |z|) of exact, so the term is within M y e^y, y = pi |w' - w|.  All of
    this is below Y = 9 U q (q + |z|), q = |B/2A| + |n/2m| + cap + 2 bounding
    every X up to the term cap; |Re| + |Im| stands in for |z| and |tau|.

    So with l = L + 2^-40 (P + |Q| + 1), e^{l + Y} bounds each exact
    modulus, and s_lo = s - 2^-40 (S + 1) - Y each exact slope.  A side
    stops at the first x with s_lo > 0 and

        l + Y - log(-expm1(-s_lo)) < log(tol/4),

    and the rounding term over the summed terms is (count + 16) eps e^Y sum
    e^l + 7 U e^{2Y} sum e^l X (X + |z|).  The bound is one ``mp.exp`` of the
    log of the tails plus the rounding term.

    Before any term is summed, the parabola gives a lower bound on the terms
    per side: every point with M(x) >= tol/4 is summed, and those lie within
    R = sqrt((pi m B^2 / 2A - log(tol/4)) / (2 pi m A)) of the vertex, so
    each side sums at least floor(R) terms.  Past the term cap, by more than
    the float margin, the ``InputError`` is raised at once; so it is when Y +
    2^-40 is at least twice 2 pi m (A (2 q + 1) + |B|), which bounds every
    slope up to the cap (|x| <= q there), as no s_lo can then be positive
    (``_refuse_past_the_cap``).
    """
    tol = _positive_tol(tol)
    n, m = spec.n, spec.m
    with mp.workprec(prec):
        tau = _upper_half_plane(tau, "theta series")
        A = tau.imag
        z = _as_mpc(spec.z)
        B = mp.im(tau * z)
        a, b = float(A), float(B)
        two_pi_m = 2 * math.pi * m
        tau_l1 = abs(float(tau.real)) + a
        abs_z = abs(float(z.real)) + abs(float(z.imag))
        log_eps = (1 - prec) * math.log(2)
        log_budget = float(mp.log(tol)) - math.log(4)
        z, tau_raw, two_m, rnd = z._mpc_, tau._mpc_, from_int(2 * m), round_nearest
        off = mpf_div(from_int(n), two_m, prec, rnd)  # mp.mpf(n) / (2 * m)
        abs_off = abs(to_float(off, rnd=rnd))
        y = _refuse_past_the_cap(a, b, two_pi_m, log_budget, tau_l1, abs_z, abs_off, prec)
        vertex = (-B / (2 * A))._mpf_
        log_c7 = math.log(7 * two_pi_m * tau_l1)  # log(7 U / eps)
        # the integer-coordinate vertex, rounded up
        start = to_int(mpf_sub(vertex, off, prec, rnd), round_ceiling)
        total = (fzero, fzero)
        count = 0
        sides = []  # per side: its first l, sum e^{l - first}, sum e^{l - first} X (X + |z|)
        tails = []

        for direction in (+1, -1):
            i = start if direction == +1 else start - 1
            first = None
            side_abs = side_arg = 0.0
            steps = 0
            while True:
                x = mpf_add(off, from_int(i), prec, rnd)  # i + off
                xf = to_float(x, rnd=rnd)
                p, q = two_pi_m * a * xf * xf, two_pi_m * b * xf  # L = -(p + q)
                log_m = _FLOAT_MARGIN * (p + abs(q) + 1) - p - q
                if first is None:
                    first = log_m
                slope = two_pi_m * (a * (2 * direction * xf + 1) + direction * b)
                slope_size = two_pi_m * (a * (2 * abs(xf) + 1) + abs(b))
                s_lo = slope - _FLOAT_MARGIN * (slope_size + 1) - y
                if s_lo > 0:
                    tail = _up(log_m, y, -math.log(-math.expm1(-s_lo)))
                    if tail < log_budget:
                        tails.append(tail)
                        break
                # 2 * m * (x * x + x * z) * tau
                w = mpc_add_mpf(mpc_mul_mpf(z, x, prec, rnd), mpf_mul(x, x, prec, rnd), prec, rnd)
                w = mpc_mul_int(w, 2 * m, prec, rnd)
                term = mp.expjpi(mp.make_mpc(mpc_mul(w, tau_raw, prec, rnd)))._mpc_
                total = mpc_add(total, term, prec, rnd)
                weight = math.exp(log_m - first)
                size = abs(xf) + abs_off
                side_abs += weight
                side_arg += weight * size * (size + abs_z)
                count += 1
                i += direction
                steps += 1
                if steps > _MAX_TERMS_PER_SIDE:
                    raise InputError(_TERM_CAP)
            sides.append((first, side_abs, side_arg))

        log_n = math.log(count + 16)
        terms = [_up(log_eps, y, l0, log_n, math.log(s)) for l0, s, _ in sides if s]
        terms += [_up(log_eps, 2 * y, l0, log_c7, math.log(s)) for l0, _, s in sides if s]
        log_round = _log_sum(terms) + _FLOAT_MARGIN * count
        if log_round > log_budget:
            budget = mpmath.nstr(mp.exp(log_round), 5)
            raise InputError(f"rounding budget {budget} exceeds tol/4 at {prec} bits")
        err = mp.exp(_log_sum(terms + tails) + _FLOAT_MARGIN * count)
        return ComplexVal(mp.make_mpc(total), err, prec)


def _q_power_error(e: Fraction, tau_l1, eps) -> mpmath.mpf:
    """Relative error r of ``_q_power(e, tau)`` against the exact q^e.

    The argument x tau, x = 2e, is formed with one rounding of x and one of
    each component of the product, so it lies within 2u |x| |tau|_1 (1 + u)
    of exact, |tau|_1 = |Re tau| + Im tau; 9 eps / 8 |x| |tau|_1 covers that
    and the rounding of this bound.  An argument off by dw moves e^{i pi w}
    by at most pi dw e^{pi dw} of its modulus, and the exponential itself is
    within 1 ulp <= eps, so |q^e - computed| <= r |computed| with r = (y e^y
    + eps) (1 + 8 eps), y = pi dw: the factor covers 1/(1 - eps) and the
    roundings of r itself.
    """
    y = mp.pi * (9 * eps / 8) * abs(_frac_mpf(2 * e)) * tau_l1
    return (y * mp.exp(y) + eps) * (1 + 8 * eps)


def qseries_eval_numeric(series: QSeries, tau) -> ComplexVal:
    """Evaluate a truncated exact series at q = e^{2 pi i tau}, Im(tau) > 0.

    The error bound covers rounding only; the series' truncation tail is the
    caller's budget (the series is exact below its stated order).

    The walk.  With sorted keys m_0 < m_1 < ... on the lattice (1/D)Z, the
    value is L * sum_k c_k W_k, L = q^{m_0/D}, W_0 = 1 and W_k = W_{k-1}
    q^{g_k/D}, g_k = m_k - m_{k-1} > 0.  ``_q_power`` runs once for L and once
    per distinct gap; the inner sum is summed in F-bit fixed point, complex
    numbers held as pairs of Python ints in units u = 2^-F:

    - each gap power z is stored as Z = floor of its computed value per
      component, and every walk product is floored per component back to F
      bits, an error t with |t| < 2u;
    - an int coefficient multiplies exactly, and a ``Fraction`` n/d by
      floor division, which loses under 2u per term;
    - F = prec + 8 + bitlength(sum_k (k + 1) ceil|c_k|), so that the units
      below, a few per step and weighted by |c_k|, stay under 2^-prec.

    The bound, all of it counted in whole units, rounded up.  For a gap,
    |z - Z| <= delta = 2u + |computed z| r_g (r_g from ``_q_power_error``),
    and |z| <= min(1, |Z| + delta) since Im(tau) > 0.  The walk's value w_k
    differs from W_k by E_k, where E_0 = 0 and

        E_k <= E_{k-1} |z| + |w_{k-1}| delta + |t|,

    carried as (E_{k-1} Z_abs + |w_{k-1}|_1 Delta) >> F plus 3 units (1 for
    the floor of the shift, 2 for t), Z_abs and Delta the bounds above in
    units.  So the drift is relative where the walk's terms are large and a
    few units where they have decayed; no modulus is ever a float, so
    nothing underflows.  The inner sum S is then within E = sum_k |c_k| E_k
    (plus 2 units per ``Fraction``) of exact.

    The close.  S becomes an ``mpc`` I with one rounding per component, and
    the value is L I with one more, eps |I| each, L being within r_L |L| of
    q^{m_0/D}.  So the error is at most

        |L| (E + r_L (|I| + E) + 4 eps |I|) (1 + 8 eps),

    the last factor covering the roundings of the bound itself and of |I|
    and |L|.  A one-term series with coefficient 1 walks nothing: I is
    exactly 1 and the value is exactly L.
    """
    prec = DEFAULT_PREC
    with mp.workprec(prec):
        tau_v = _upper_half_plane(tau, "series evaluation")
        terms, denom = series.terms, series.denom
        keys = sorted(terms)
        if not keys:
            return ComplexVal(mp.mpc(0), mp.mpf(0), prec)
        eps = mp.mpf(2) ** (1 - prec)
        tau_l1 = abs(tau_v.real) + tau_v.imag
        weight = sum(
            (k + 1) * -(-abs(terms[m].numerator) // terms[m].denominator)
            for k, m in enumerate(keys)
        )
        frac_bits = prec + 8 + weight.bit_length()
        one = 1 << frac_bits

        gaps: dict[int, tuple[int, int, int, int]] = {}

        def gap_step(g: int) -> tuple[int, int, int, int]:
            e = Fraction(g, denom)
            z = _q_power(e, tau_v)
            zr = to_fixed(z.real._mpf_, frac_bits)
            zi = to_fixed(z.imag._mpf_, frac_bits)
            z_abs = math.isqrt(zr * zr + zi * zi) + 1
            delta = int(mp.ceil((z_abs + 2) * _q_power_error(e, tau_l1, eps))) + 3
            return zr, zi, min(one, z_abs + delta), delta

        lead = _q_power(Fraction(keys[0], denom), tau_v)
        wr, wi = one, 0
        sr = si = 0
        drift = 0  # E_k in units
        err_units = 0
        prev = keys[0]
        for m in keys:
            if m != prev:
                g = m - prev
                if g not in gaps:
                    gaps[g] = gap_step(g)
                zr, zi, z_abs, delta = gaps[g]
                drift = ((drift * z_abs + (abs(wr) + abs(wi)) * delta) >> frac_bits) + 3
                wr, wi = (wr * zr - wi * zi) >> frac_bits, (wr * zi + wi * zr) >> frac_bits
                prev = m
            c = terms[m]
            if isinstance(c, int):
                sr += c * wr
                si += c * wi
                err_units += abs(c) * drift
            else:
                n, d = c.numerator, c.denominator
                sr += n * wr // d
                si += n * wi // d
                err_units += -(-abs(n) * drift // d) + 2

        inner = mp.mpc(mp.ldexp(sr, -frac_bits), mp.ldexp(si, -frac_bits))
        walk_err = mp.ldexp(err_units, -frac_bits)
        abs_inner = abs(inner)
        lead_err = _q_power_error(Fraction(keys[0], denom), tau_l1, eps)
        err = abs(lead) * (
            walk_err + lead_err * (abs_inner + walk_err) + 4 * eps * abs_inner
        ) * (1 + 8 * eps)
        return ComplexVal(lead * inner, err, prec)


def _denominator(th_1: ComplexVal, th_m1: ComplexVal, tol: mpmath.mpf, prec: int):
    """What every quotient of one attempt shares: den = th_1 - th_m1, raw, and its bound.

    (den, e_den split, |den| split, rho, the larger theta error), e_den their sum;
    None when e_den >= |den| / 2.  |den| < 10 tol raises before any quotient.
    """
    den = mpc_sub(th_1.value._mpc_, th_m1.value._mpc_, prec, round_nearest)
    e_den = mpf_add(th_1.err._mpf_, th_m1.err._mpf_, prec, round_nearest)
    abs_den = mp.make_mpf(mpc_abs(den, prec, round_nearest))
    if abs_den < 10 * tol:
        raise InputError(f"|theta denominator| = {mpmath.nstr(abs_den, 5)} < 10*tol")
    if mp.make_mpf(e_den) >= abs_den / 2:
        return None
    (f_e, k_e), (f_d, k_d) = _split(e_den), _split(abs_den._mpf_)
    return den, (f_e, k_e), (f_d, k_d), math.ldexp(f_e / f_d, k_e - k_d), max(th_1.err, th_m1.err)


def _quotient(
    th_p: ComplexVal, th_m: ComplexVal, denominator: tuple, tol: mpmath.mpf, prec: int
) -> tuple[ComplexVal, mpmath.mpf] | None:
    """(th_p - th_m) / den with its bound and the largest of the four theta bounds.

    ``denominator`` is ``_denominator``'s for the attempt.  None when the
    quotient's bound misses ``tol``.

    The bound (e_num + |quot| e_den) / (|den| - e_den) + 8 eps |quot|, e_num
    and e_den the sums of the theta errors, is kept in floats.  The retry
    test e_den < |den| / 2 is taken in mpf first, so rho = e_den / |den| <
    1/2 and the bound is at most (X + Y + Z) / (1 - rho), X = e_num / |den|,
    Y = |quot| rho, Z = 8 eps |quot|.  Each of X, Y, Z and rho is a product
    or quotient of split values (``_split``), a double times a power of two;
    X, Y and Z are aligned (``_aligned``) and summed.  The splits' truncation
    (2^-52 each) and a dozen float roundings are far inside the margin
    2^-40, and ``mpf_shift`` scales the result back exactly.
    """
    den, (f_e, k_e), (f_d, k_d), rho, den_err = denominator
    num = mpc_sub(th_p.value._mpc_, th_m.value._mpc_, prec, round_nearest)
    quot = mpc_div(num, den, prec, round_nearest)
    e_num = mpf_add(th_p.err._mpf_, th_m.err._mpf_, prec, round_nearest)
    # (X + Y + Z) / (1 - rho), as the docstring derives
    (f_n, k_n), (f_q, k_q) = _split(e_num), _split(mpc_abs(quot, prec, round_nearest))
    terms, g = _aligned(
        [(f_n / f_d, k_n - k_d), (f_q * f_e / f_d, k_q + k_e - k_d), (f_q, k_q + 4 - prec)]
    )
    e_quot = mpf_shift(from_float(sum(terms) / (1 - rho) * (1 + _FLOAT_MARGIN)), g)
    if mpf_gt(e_quot, tol._mpf_):
        return None
    value = ComplexVal(mp.make_mpc(quot), mp.make_mpf(e_quot), prec)
    return value, max(th_p.err, th_m.err, den_err)


_RETRIES_SPENT = "character quotient bound did not meet the tolerance after retries"


def _chibar_numeric(
    weight: AdmissibleWeight, tau, zval, tol, prec: int
) -> tuple[ComplexVal, mpmath.mpf]:
    """Normalized character as a certified theta quotient; zval may be complex.

    Returns the quotient together with the largest component theta error
    bound (for reporting).  Component tolerances tighten geometrically, tol/8
    and then /16 per retry, until the quotient's bound (``_quotient``) meets
    ``tol``; each attempt evaluates the four thetas of ``chibar_thetas``
    afresh.
    """
    tol = mp.mpf(tol)
    specs = [s for pair in chibar_thetas(weight, zval) for s in pair]
    with mp.workprec(prec):
        ctol = tol / 8
        for _ in range(_QUOTIENT_RETRIES):
            th_p, th_m, th_1, th_m1 = (theta_eval_numeric(spec, tau, ctol, prec) for spec in specs)
            den = _denominator(th_1, th_m1, tol, prec)
            found = den and _quotient(th_p, th_m, den, tol, prec)
            if found:
                return found
            ctol = ctol / 16
        raise InputError(_RETRIES_SPENT)


def _exact(x) -> tuple[Fraction, Fraction]:
    """A rational, or an mpf or mpc at any precision, as its exact parts (Re, Im)."""
    if isinstance(x, Fraction):
        return x, Fraction(0)
    raw = x._mpc_ if isinstance(x, mpmath.mpc) else (x._mpf_, fzero)
    return Fraction(*to_rational(raw[0])), Fraction(*to_rational(raw[1]))


def _tail_log(pi_a: float, pi_b: float, n: int, d: int) -> tuple[float, float]:
    """(t, s): e^t bounds sum_{k >= 0} e^{-f(n + d k)}, f(N) = pi_a N^2 + pi_b N, when s > 0.

    s is a lower bound on the slope f(n + d) - f(n), which grows by 2 pi_a per
    step outward, so the sum is at most e^{-f(n)} / (1 - e^{-s}).  The float
    margins are those of :func:`theta_eval_numeric`: 2^-40 (P + |Q| + 1) on
    -f(n) = -(P + Q), 2^-40 (S + 1) off the slope, S its size, and ``_up``.
    t is inf where s <= 0.
    """
    p, q = pi_a * n * n, pi_b * n
    s = pi_a * (2 * d * n + 1) + d * pi_b
    s -= _FLOAT_MARGIN * (pi_a * (2 * abs(n) + 1) + abs(pi_b) + 1)
    if s <= 0:
        return math.inf, s
    return _up(_FLOAT_MARGIN * (p + abs(q) + 1) - p - q, -math.log(-math.expm1(-s))), s


def _fixed_walk(
    m: int, z: tuple[Fraction, Fraction], tau: mpmath.mpc, n0: int, k_up: int, k_dn: int,
    frac_bits: int, seed_prec: int,
) -> list[tuple[int, int, int]]:
    """Sums of t_N = e^{i pi tau (N^2/2m + N z)} over n0 - k_dn < N < n0 + k_up, by N mod 2m.

    Each sum is (Re, Im, count) in units 2^-F, F = ``frac_bits``: the count
    bounds the sum's distance from the exact sum of its terms.  ``n0`` is
    within 1/2 of the vertex -m B/A of the term moduli (A = Im tau, B = Im(tau
    z)); ``z`` is exact, and ``tau`` is taken as the exact value of its parts.

    The walk.  With c = e^{i pi tau/m}, r_N = t_{N+1}/t_N = e^{i pi tau ((2N +
    1)/2m + z)} and s_N = t_{N-1}/t_N, t_{N+1} = t_N r_N, r_{N+1} = r_N c,
    t_{N-1} = t_N s_N and s_{N-1} = s_N c.  Four seeds, t, r and s at n0 and
    c, are ``expjpi`` of x tau at ``seed_prec`` bits, x exact and rounded
    once per part, as ``_q_power`` forms its argument: so each lies within
    |seed| r of exact, r = ``_q_power_error`` of x/2 for the largest |x| of
    the four, |x| taken as |Re x| + |Im x|, which bounds a complex x's
    argument error as it bounds a real x's (r grows with |x|).  Each seed is
    floored to units, then every step forms two complex products of ints,
    floored back to units: an error under 1 unit per part, so under 2 in
    modulus.  Since |n0 - vertex| <= 1/2, every exact ratio outward has
    modulus at most 1: |r_N| <= 1 for N >= n0, |s_N| <= 1 for N <= n0, and
    |c| < 1.

    The bound, carried per step in whole units.  A seed is within delta =
    ceil(|seed| r 2^F) + 2 of exact.  With the ratio (r or s) of step j
    within D_j of exact and the term within E_j, and |v|_1 = |Re v| + |Im v|
    of a computed value in units, at least its modulus,

        D_{j+1} <= D_j |c| + |ratio_j| delta_c 2^-F + 2
                <= D_j + floor(|ratio_j|_1 delta_c 2^-F) + 3,
        E_{j+1} <= E_j |exact ratio_j| + |t_j| D_j 2^-F + 2
                <= floor((E_j min(|ratio_j|_1 + D_j, 2^F) + |t_j|_1 D_j) 2^-F) + 3,

    the exact ratio's modulus being at most 1 and at most |ratio_j| + D_j
    2^-F, and one unit covering each floor of a shift.  E_0 = delta_t, D_0 =
    delta_r or delta_s.  Each term's E is added to the count of its residue.
    """
    two_m, f, one = 2 * m, frac_bits, 1 << frac_bits
    (zr, zi), tau_raw, rnd = z, tau._mpc_, round_nearest
    with mp.workprec(seed_prec):
        xs = [
            (Fraction(n0 * n0, two_m) + n0 * zr, n0 * zi),  # t
            (Fraction(2 * n0 + 1, two_m) + zr, zi),  # r
            (-Fraction(2 * n0 - 1, two_m) - zr, -zi),  # s
            (Fraction(1, m), Fraction(0)),  # c
        ]
        # r grows with |x|, so the largest |x| of the four serves all
        x_max = max(abs(xr) + abs(xi) for xr, xi in xs)
        r = _q_power_error(x_max / 2, abs(tau.real) + tau.imag, mp.mpf(2) ** (1 - seed_prec))
        seeds = []
        for xr, xi in xs:
            x = tuple(from_rational(v.numerator, v.denominator, seed_prec, rnd) for v in (xr, xi))
            value = mp.expjpi(mp.make_mpc(mpc_mul(x, tau_raw, seed_prec, rnd)))
            delta = int(mp.ceil(mp.ldexp(abs(value) * r, f))) + 2
            seeds.append((to_fixed(value.real._mpf_, f), to_fixed(value.imag._mpf_, f), delta))
    (t_re, t_im, e_0), (r_re, r_im, d_up), (s_re, s_im, d_dn), (c_re, c_im, d_c) = seeds

    sums_re, sums_im, counts = [0] * two_m, [0] * two_m, [0] * two_m
    start = n0 % two_m
    up = list(range(start, two_m)) + list(range(start))
    down = up[:1] + up[:0:-1]
    sides = ((up, k_up, r_re, r_im, d_up), (down, k_dn, s_re, s_im, d_dn))
    for order, count, q_re, q_im, d in sides:
        x_re, x_im, e = t_re, t_im, e_0
        for k in islice(cycle(order), count):
            sums_re[k] += x_re
            sums_im[k] += x_im
            counts[k] += e
            ratio = abs(q_re) + abs(q_im)
            e = ((e * min(ratio + d, one) + (abs(x_re) + abs(x_im)) * d) >> f) + 3
            d += ((ratio * d_c) >> f) + 3
            x_re, x_im = (x_re * q_re - x_im * q_im) >> f, (x_re * q_im + x_im * q_re) >> f
            q_re, q_im = (q_re * c_re - q_im * c_im) >> f, (q_re * c_im + q_im * c_re) >> f
    sums_re[start] -= t_re  # both sides summed the term at n0
    sums_im[start] -= t_im
    counts[start] -= e_0
    return list(zip(sums_re, sums_im, counts))


def _theta_vector(m: int, z, tau: mpmath.mpc, tol: mpmath.mpf, prec: int):
    """Every theta_{n,m}(tau, z), n mod 2m, from one walk over N: (sums, F, tail).

    ``sums[n]`` is (Re, Im, count) of ``_fixed_walk``: theta_{n,m} is (Re + i
    Im) 2^-F within count 2^-F + ``tail`` <= 3 tol/4.  ``tau`` is an mpc with Im(tau)
    > 0 and ``z`` a rational or an mpc, each taken as exact; ``tol`` > 0.
    (Kac-Peterson's theta vector, Adv. Math. 53, 1984: with x = N/2m, every
    term of every residue is one t_N of ``_fixed_walk``.)

    The window.  The term moduli are e^{-f(N)}, f(N) = pi (A N^2/2m + B N),
    largest at the vertex -m B/A, where log |t| = pi m B^2/2A; n0 is the
    integer nearest the vertex, found exactly.  Each side runs outward to the
    first N whose certified tail (``_tail_log``) is below tol/4, so the two
    tails add at most tol/2 to every residue.  The first candidate is where
    the parabola alone reaches tol/4, and each miss moves on by the miss over
    the slope, as the slope only grows outward.  The term-cap refusals are
    those of the per-residue walk (``_refuse_past_the_cap``), and a side
    needing more than 2m cap steps is refused too.

    Fixed point.  With T = the bits of the top modulus, K the longer side and
    F = T + max(0, ceil(-log2(tol/4))) + 3 bitlength(K) + 8, and seeds taken
    at F + T + bitlength(4 X |tau|_1 + 2) + 4 bits (X above every seed's
    |x|), each seed's delta is at most 3.  Then |ratio|_1 delta_c 2^-F adds
    at most 5 units a step, so D < 11K; |t|_1 D 2^-F adds at most 16 K 2^T,
    so E < 17 K^2 2^T; and the count of ``_fixed_walk`` over at most 2K
    terms is under 2^(6 + 3 bitlength(K) + T) units, at most tol/16: F
    comes from tol and the top modulus, so this pass has no rounding budget
    to exceed.  ``tail`` bounds the two tails together.
    """
    (zr, zi), (tr, ti) = _exact(z), _exact(tau)
    big_b = tr * zi + ti * zr
    a, b = float(ti), float(big_b)
    two_pi_m, log_side = 2 * math.pi * m, float(mp.log(tol)) - math.log(4)
    tau_l1, abs_z = abs(float(tr)) + a, abs(float(zr)) + abs(float(zi))
    _refuse_past_the_cap(a, b, two_pi_m, log_side, tau_l1, abs_z, 1.0, prec)

    vertex = -m * big_b / ti
    n0 = math.floor(vertex + Fraction(1, 2))
    pi_a, pi_b, v = math.pi * a / (2 * m), math.pi * b, float(vertex)
    log_top = pi_b * pi_b / (4 * pi_a)
    reach = math.sqrt(max(0.0, (log_top - log_side) / pi_a))
    sides, tails = [], []
    for d in (+1, -1):
        k = max(1.0, d * (v - n0) + reach)
        while True:
            if not k <= 2 * m * _MAX_TERMS_PER_SIDE:
                raise InputError(_TERM_CAP)
            tail, slope = _tail_log(pi_a, pi_b, n0 + d * int(k), d)
            if tail < log_side:
                break
            k = int(k) + (max(1.0, (tail - log_side) / slope) if slope > 0 else k)
        sides.append(int(k))
        tails.append(tail)

    top_bits = int(_up(log_top) / math.log(2)) + 1
    frac_bits = top_bits + max(0, math.ceil(-log_side / math.log(2)))
    frac_bits += 3 * max(sides).bit_length() + 8
    x_max = (abs(n0) + 1) ** 2 / m + (abs(n0) + 1) * abs_z + 1
    seed_prec = frac_bits + top_bits + int(4 * x_max * tau_l1 + 2).bit_length() + 4
    sums = _fixed_walk(m, (zr, zi), tau, n0, *sides, frac_bits, seed_prec)
    with mp.workprec(prec):
        return sums, frac_bits, mp.exp(_log_sum(tails) + _FLOAT_MARGIN)


def _chibar_side(
    weights: list[AdmissibleWeight], tau: mpmath.mpc, zval, tol, prec: int
) -> list[tuple[ComplexVal, mpmath.mpf]]:
    """Each weight's chibar at one (tau, zval) within ``tol``, as ``_chibar_numeric`` bounds it.

    ``tau`` is an mpc with Im(tau) > 0 at ``prec``.  The thetas come from
    ``chibar_thetas``: the numerators share m = a and the argument z/q, the
    denominator pair theta_{+-1,2} is common to all.  So a side is one
    ``_theta_vector`` of the denominators and one of the numerators, and
    each quotient is ``_quotient`` of its residues over ``_denominator``,
    with the largest theta bound it used.

    The denominator is walked first, to tol 2^-20: its bound e_den must be
    below |den|/2 (else it is walked again 2^16 times deeper), and |den| <
    10 tol is refused.  The numerators are then walked once, to tol |den| /
    32, so that e_num / (|den| - e_den) stays below tol/10.  A quotient
    whose bound still misses does so by |quot| e_den: the denominator is
    walked again, to tol |den| / (4 |quot|) over the largest such |quot|
    (at most a sixteenth of the last), and every quotient is formed again
    over it.  After ``_QUOTIENT_RETRIES`` denominator walks the side fails.
    """
    tol = mp.mpf(tol)

    def thetas(walk, specs):
        sums, frac_bits, tail = walk
        for spec in specs:
            re, im, count = (from_man_exp(v, -frac_bits) for v in sums[spec.n % len(sums)])
            err = mpf_add(count, tail._mpf_, prec, round_ceiling)
            yield ComplexVal(mp.make_mpc((re, im)), mp.make_mpf(err), prec)

    with mp.workprec(prec):
        pairs = [chibar_thetas(w, zval) for w in weights]  # a complex z / q rounds at prec
        (num_p, _), (den_p, den_m) = pairs[0]
        dtol, nums = tol * 2.0**-20, None
        for _ in range(_QUOTIENT_RETRIES):
            den_walk = _theta_vector(den_p.m, den_p.z, tau, dtol, prec)
            den = _denominator(*thetas(den_walk, (den_p, den_m)), tol, prec)
            if den is None:
                dtol = dtol / 2**16
                continue
            abs_den = mp.ldexp(den[2][0], den[2][1])  # at most |den|
            if nums is None:
                nums = _theta_vector(num_p.m, num_p.z, tau, tol * abs_den / 32, prec)
            found, missed = [], mp.mpf(1)
            for (num, _) in pairs:
                th_p, th_m = thetas(nums, num)
                found.append(_quotient(th_p, th_m, den, tol, prec))
                if found[-1] is None:
                    missed = max(missed, abs(th_p.value - th_m.value) / abs_den)
            if all(found):
                return found
            dtol = min(dtol / 16, tol * abs_den / (4 * missed))
        raise InputError(_RETRIES_SPENT)


def character_eval_numeric(spec: CharacterSpec, tau, tol, kind: str = "chi") -> ComplexVal:
    """Numeric character value with certified bound; kind selects chi vs chibar.

    chi carries the anomaly prefactor q^(l z^2 / 4) on top of the theta
    quotient.
    """
    shift = spec.shift(kind)
    tol = _positive_tol(tol)
    prec = DEFAULT_PREC
    with mp.workprec(prec):
        tau_v = _upper_half_plane(tau, "character evaluation")
        eps = mp.mpf(2) ** (1 - prec)
        if kind == "chibar":
            val, _ = _chibar_numeric(spec.weight, tau_v, spec.z, tol, prec)
            return val
        pref = _q_power(shift, tau_v)
        abs_pref = abs(pref)
        quot_tol = tol / (2 * max(abs_pref, mp.mpf(1)))
        quot, _ = _chibar_numeric(spec.weight, tau_v, spec.z, quot_tol, prec)
        value = pref * quot.value
        err = abs_pref * quot.err + 8 * eps * abs(value)
        return ComplexVal(value, err, prec)


@dataclass
class STransformReport:
    """Certified residuals of the S-transformation law for one (level, z, tau).

    The fields are the ``stransform`` report's results, in report order.
    ``residual_partial_sums[i][m]`` is |chibar_i(-1/tau, tau z) - factor *
    sum_{j <= m} S[i][j] chibar_j(tau, z)|: partial sums across the row, so
    the last column, ``final_residuals[i]``, holds the residual of the full
    law.  ``alt_final_residuals`` (present for the factor-bearing variant)
    re-tests the full sum under the other plausible reading of the factor's
    exponent, with tau replaced by -1/tau.  ``as_printed_final_residuals``
    re-tests it with the conjugate-phase S-matrix variant (see
    ``s_transform_residual``).
    """

    level: Level
    z: Fraction
    tau: mpmath.mpc
    variant: str
    weights: list[AdmissibleWeight]
    factor: mpmath.mpc
    s_matrix: list[list[mpmath.mpc]]
    chibar: list[ComplexVal]
    lhs: list[ComplexVal]
    residual_partial_sums: list[list[mpmath.mpf]]
    residual_errors: list[list[mpmath.mpf]]
    final_residuals: list[mpmath.mpf]
    theta_error_max: mpmath.mpf
    as_printed_s_matrix: list[list[mpmath.mpc]]
    as_printed_final_residuals: list[mpmath.mpf]
    alt_factor: mpmath.mpc | None
    alt_final_residuals: list[mpmath.mpf] | None


def _phase_class(num: int, a: int) -> tuple[int, int, int]:
    """(|N| mod a, floor(log2(|N|/a)), floor(|N|/a) mod 2), from integers.

    e^{i pi N/a} for N > 0 is alike across the first two, up to the sign
    (-1)^(third); see ``s_transform_residual``.
    """
    n = abs(num)
    e = n.bit_length() - a.bit_length()  # floor(log2(n/a)) is e or e - 1
    if (n << max(-e, 0)) < (a << max(e, 0)):
        e -= 1
    k, r = divmod(n, a)
    return r, e, k & 1


def _s_matrices(
    weights: list[AdmissibleWeight],
) -> tuple[list[list[mpmath.mpc]], list[list[mpmath.mpc]], list[list[float]], mpmath.mpf]:
    """Both S-matrix spellings, |S_ij| as floats, and the largest row sum of |S_ij|.

    One ``expjpi`` per phase class (see ``s_transform_residual``), negated
    for the other parity of floor(|N|/a) and conjugated for N < 0, and one
    entry, conjugate and modulus per distinct pair of signed classes, which
    the pair with both parities flipped takes negated.  The row sums are
    taken in mpf, in column order, on raw tuples by the operators' libmp
    calls.
    """
    a = weights[0].level.a
    prec, rnd = mp.prec, round_nearest
    phases: dict[tuple[int, int], tuple[tuple, int]] = {}

    def phase(num: int, cls: tuple[int, int, int]) -> tuple:
        r, e, odd = cls
        if (r, e) not in phases:
            phases[r, e] = mp.expjpi(mp.mpf(abs(num)) / a)._mpc_, odd
        (re, im), first_odd = phases[r, e]
        if odd != first_odd:
            re, im = mpf_neg(re), mpf_neg(im)
        return (re, mpf_neg(im)) if num < 0 else (re, im)

    # pref = (1/2i) sqrt(2/a) = -i h, its real part fzero: pref d is
    # (h Im d, -(h Re d)), as mpc_mul rounds it
    h = mpf_shift(mp.sqrt(mp.mpf(2) / a)._mpf_, -1)
    b_plus = [w.b_plus for w in weights]
    b_minus = [w.b_minus for w in weights]
    cells: dict[tuple, tuple[mpmath.mpc, mpmath.mpc, tuple, float]] = {}
    s_matrix, printed_matrix, s_abs = [], [], []
    max_row_abs = fzero
    for bi in b_plus:
        row, printed_row, abs_row = [], [], []
        row_abs = fzero
        for bj_p, bj_m in zip(b_plus, b_minus):
            n_pp, n_pm = bi * bj_p, bi * bj_m
            c_pp, c_pm = _phase_class(n_pp, a), _phase_class(n_pm, a)
            pair = (c_pp[:2], n_pp < 0, c_pm[:2], n_pm < 0, c_pp[2] ^ c_pm[2])
            cell = cells.get((pair, c_pp[2]))
            if cell is None:
                twin = cells.get((pair, 1 - c_pp[2]))
                if twin is None:
                    (u_re, u_im), (v_re, v_im) = phase(n_pp, c_pp), phase(n_pm, c_pm)
                    d_re, d_im = mpc_sub((u_re, u_im), (v_re, v_im), prec, rnd)
                    entry = (mpf_mul(h, d_im, prec, rnd), mpf_neg(mpf_mul(h, d_re, prec, rnd)))
                    size = mpc_abs(entry, prec, rnd)
                    size_f = to_float(size, rnd=rnd)
                else:  # both phases negated: the entry negated, bit for bit
                    twin_entry, _, size, size_f = twin
                    entry = tuple(map(mpf_neg, twin_entry._mpc_))
                # conj(entry): pref (conj(e_pm) - conj(e_pp)), bitwise
                printed = (entry[0], mpf_neg(entry[1]))
                cell = (mp.make_mpc(entry), mp.make_mpc(printed), size, size_f)
                cells[pair, c_pp[2]] = cell
            entry, printed, size, size_f = cell
            row.append(entry)
            printed_row.append(printed)
            abs_row.append(size_f)
            row_abs = mpf_add(row_abs, size, prec, rnd)
        s_matrix.append(row)
        printed_matrix.append(printed_row)
        s_abs.append(abs_row)
        if mpf_gt(row_abs, max_row_abs):
            max_row_abs = row_abs
    return s_matrix, printed_matrix, s_abs, mp.make_mpf(max_row_abs)


def s_transform_residual(
    level: Level,
    z,
    tau,
    variant: str = "KW2",
    tol=mp.mpf("1e-10"),
) -> STransformReport:
    """Residuals of chibar_j(-1/tau, tau z) against the S-matrix sum.

    variant KW1 omits, and KW2 includes, the factor q^(l z^2 / 4) -- the
    character's anomaly -- multiplying the right-hand side.  The left side is
    evaluated through the theta quotient at (-1/tau, tau z) -- a genuinely
    complex second argument -- so no series identity is assumed anywhere.

    The primary matrix is S_{jj'} = (1/2i) sqrt(2/a) (e^{i pi b+ b+'/a}
    - e^{i pi b+ b-'/a}), obtained by Poisson summation of the theta
    quotient; with it the KW2 residuals vanish to the certified bounds.  The
    conjugate-phase spelling (1/2i) sqrt(2/a) (e^{-i pi b+ b-'/a}
    - e^{-i pi b+ b+'/a}) is also tabulated (``as_printed_*`` fields): the
    two differ by entrywise conjugation, so they agree exactly on entries
    whose phase e^{i pi k k' p / q} is real -- in particular everywhere when
    q = 1 -- and the conjugate variant's full-sum residuals document how the
    law fails on the complex-phase rows.

    Phase classes.  e^{i pi N/a} is ``expjpi`` of x = N/a rounded to the
    working precision, and mpmath 1.3 (``mpf_cos_sin`` with pi=True, rounding
    to nearest) computes it from the mantissa and exponent of |x| alone: a
    multiple of 1/2 gets its exact value, and otherwise it takes the nearest
    half-integer n/2 off exactly, evaluates cos and sin of pi times the
    remainder, rotates by n mod 4 and negates the sine when x < 0, then
    rounds each part to nearest, which commutes with negation.  Let N' = N +
    ak have the sign of N, with |N|/a and |N'|/a in one binade [2^e,
    2^(e+1)).  The rounding grid there has spacing 2^(e+1-prec), which
    divides 1 (1/a <= |N|/a, both far inside 2^-prec..2^prec, so mpmath's
    path for a tiny |x| is never taken), so |x'| = |x| + |k| exactly; N/a
    is never a rounding tie (it is exact when a is a power of two).  Where
    |x| is not a multiple of 1/2, its exponent is below -1, so adding |k|
    keeps the odd mantissa odd and the exponent, leaves the remainder alone
    and moves n by 2|k|: the rotation turns by k half-turns, which negates
    both parts when k is odd and changes nothing when k is even.  A multiple
    of 1/2 stays one, and e^{i pi (x + k)} = (-1)^k e^{i pi x} exactly.  So
    the class (|N| mod a, e), computed from integers, keys one ``expjpi`` of
    |N|/a; a member whose floor(|N|/a) has the other parity takes its
    negation, and N < 0 takes ``mp.conj``, bit for bit.  An entry depends
    only on its two phases, so it is keyed by their signed classes.

    Entries shared by negation.  Negation is exact and rounding to nearest
    commutes with it, so mpc_sub(-u, -v) = -mpc_sub(u, v) bit for bit.  The
    prefactor is pref = -i h, h = sqrt(2/a)/2, its real part exactly zero,
    so each part of pref d is one rounded product, h Im d or -(h Re d), and
    pref (-d) = -(pref d); |-e| = |e| and conj(-e) = -conj(e).  Two cells
    whose phase classes and signs agree, and whose parities floor(|N|/a)
    mod 2 are both flipped, have both phases negated, so the second entry is
    the first negated.  So an entry is keyed by its pair of signed classes
    and the xor of the two parities, and the cell with the other first
    parity takes the stored entry negated, with its modulus and float.

    The table in fixed point.  Each y_j = factor chibar_j is formed exactly
    and floored to units 2^-gy, each S_ij to units 2^-gs, and each lhs_i to
    units 2^-(gs + gy), gs = prec + 8 and 2^(gs - gy) above every |y_j| and
    |lhs_i|.  With S_ij = (a, b) and y_j = (c, d), the four products p = ac,
    q = bd, r = ad, t = bc give S_ij y_j = (p - q, r + t) and, for the
    conjugate-phase entry (a, -b), (p + q, r - t); the running sums are
    exact, and each partial residual is the floor of the root of an exact
    sum of squares, ``math.isqrt``.  The other factor's final residual is
    |lhs_i - (alt factor / factor) sum_j S_ij y_j|, in mpf.

    The bound.  Cell (i, j) of ``residual_errors`` is

        c_i + sum_{j' <= j} |S_ij'| w_j',
        c_i = err(lhs_i) + count,
        w_j = |factor| ((1 + r_f) err(chibar_j) + r_f |chibar_j|),

    r_f the factor's relative error (``_q_power_error``; 0 for KW1, whose
    factor is 1), so that w_j bounds |factor chibar_j - y_j| against the
    exact factor and quotient.  ``count`` is the rest, in three parts:

    - the S entries.  x = N/a is rounded once (pi u |x| moves the phase,
      u = 2^-prec), ``expjpi`` is within eps of each phase, e1 - e2 and
      sqrt(2/a) round to within 3u of their moduli, and each part of the
      entry once more, so |S_ij - exact| <= h eps (2 X + 8) <= eps (X + 4),
      h = sqrt(2/a)/2 <= 1/2 and X = (|N| + |N'|)/a over the cell's pair;
      with |exact S| <= |S_ij| + that, it adds eps (X + 4) sum_j (|y_j| +
      w_j), X the largest over the table;
    - the floors.  |S_ij| <= 1, each part of S and y floored once, so each
      product is within 2 2^-gs |y_j| + 2 2^-gy of (S_ij y_j), and lhs_i and
      the root add under 3 units of 2^-(gs + gy): over a row at most 2^(1 -
      gs) sum_j |y_j| + (2n + 4) 2^-gy, sum_j |y_j| taken from the ints;
    - nothing else: the sums are exact.

    So count is of order 2^-prec (X + 4) sum |y_j|, far below the quotients'
    own bounds, and ``perfbench/reference.py``, which recomputes err(lhs_i)
    + |factor| sum |S_ij'| err(chibar_j') to within 1e-6, sees only that.
    Each partial residual is within its cell of the exact one.

    Bounds in floats.  The 2n values c_i and w_j are formed in mpf, split and
    aligned onto one 2^g: each is then within 2^-52 of its float (a value
    more than 2^600 below the largest is raised to 2^-600 of it, which only
    raises the bound and keeps it nonzero).  |S_ij| <= 1 is rounded to a
    double, and a nonzero one is far above 2^-400, so every product stays
    normal.  Each row's running bound is a float sum of at most n + 1
    nonnegative products, within gamma_(2n+2) of the exact sum of its
    inputs; with the 2^-52 of each input and the mpf roundings of c_i and
    w_j, all of it is far inside (n + 2) 2^-40, by which each cell is raised
    before ``mp.ldexp`` scales it back, exactly.  The referee in the tests
    encloses every partial residual in intervals and holds each bound to it.
    ``max_row_abs``, which sets the quotients' tolerance, stays a sum of mpf
    moduli in column order.
    """
    if variant not in ("KW1", "KW2"):
        raise InputError(f"variant must be 'KW1' or 'KW2', got {variant!r}")
    z = rat(z)
    weights = enumerate_admissible(level)
    anomaly = CharacterSpec(weights[0], z).anomaly  # validates 0 < z < 1
    tol = _positive_tol(tol)
    n_w = len(weights)
    prec = _S_TRANSFORM_PREC

    with mp.workprec(prec):
        tau_v = _upper_half_plane(tau, "S-transform")
        tau2 = -1 / tau_v
        z2 = tau_v * _frac_mpf(z)
        eps = mp.mpf(2) ** (1 - prec)

        s_matrix, printed_matrix, s_abs, max_row_abs = _s_matrices(weights)

        if variant == "KW2":
            factor = _q_power(anomaly, tau_v)
            alt_factor = _q_power(anomaly, tau2)
        else:
            factor = mp.mpc(1)
            alt_factor = None
        abs_factor = abs(factor)

        rhs_tol = tol / (8 * max(mp.mpf(1), abs_factor) * max(mp.mpf(1), max_row_abs))
        rhs = _chibar_side(weights, tau_v, z, rhs_tol, prec)
        lhs = _chibar_side(weights, tau2, z2, tol / 8, prec)
        chibar_vals = [val for val, _ in rhs]
        lhs_vals = [val for val, _ in lhs]
        theta_err_max = max([mp.mpf(0)] + [terr for _, terr in rhs + lhs])

        # the table in fixed point: S in units 2^-gs, y_j = factor chibar_j (exact)
        # in units 2^-gy, lhs and every sum of products in units 2^-(gs + gy)
        fa, fb = factor._mpc_
        y_raw = [
            (mpf_sub(mpf_mul(fa, c), mpf_mul(fb, d)), mpf_add(mpf_mul(fa, d), mpf_mul(fb, c)))
            for c, d in (v.value._mpc_ for v in chibar_vals)
        ]
        lhs_raw = [v.value._mpc_ for v in lhs_vals]
        top = max(x[2] + x[3] for pair in y_raw + lhs_raw for x in pair)
        gs, gy = prec + 8, prec + 8 - top
        g_all = gs + gy
        ys = [(to_fixed(c, gy), to_fixed(d, gy)) for c, d in y_raw]
        ls = [(to_fixed(c, g_all), to_fixed(d, g_all)) for c, d in lhs_raw]

        # bound (i, j) = c_i + sum_{j' <= j} |S_ij'| w_j' in floats, over one 2^g
        y_units = sum(abs(c) + abs(d) + 2 for c, d in ys)  # at least sum |y_j| 2^gy
        top_n = max(abs(w.b_plus) for w in weights)
        top_n *= max(abs(w.b_plus) + abs(w.b_minus) for w in weights)
        delta_s = eps * (mp.mpf(top_n) / level.a + 4)
        r_f = _q_power_error(anomaly, abs(tau_v.real) + tau_v.imag, eps) if variant == "KW2" else 0
        w_cols = [abs_factor * ((1 + r_f) * v.err + r_f * abs(v.value)) for v in chibar_vals]
        count = delta_s * (mp.ldexp(y_units, -gy) + mp.fsum(w_cols))
        count += mp.ldexp(y_units, 1 - g_all) + mp.ldexp(2 * n_w + 4, -gy)
        scaled, g = _aligned([_split(v._mpf_) for v in [v.err + count for v in lhs_vals] + w_cols])
        c_rows, w_cols = scaled[:n_w], scaled[n_w:]
        up = 1 + _FLOAT_MARGIN * (n_w + 2)
        ratio = None if alt_factor is None else alt_factor / factor
        residuals, residual_errors, printed_residuals, alt_residuals = [], [], [], []
        for i in range(n_w):
            l_re, l_im = ls[i]
            run_re = run_im = printed_re = printed_im = 0
            bound = c_rows[i]
            row_res, row_err = [], []
            for s_ij, s_ij_abs, (c, d), w_j in zip(s_matrix[i], s_abs[i], ys, w_cols):
                a, b = (to_fixed(x, gs) for x in s_ij._mpc_)
                p, q, r, t = a * c, b * d, a * d, b * c
                run_re += p - q
                run_im += r + t
                printed_re += p + q  # conj(S_ij) y_j
                printed_im += r - t
                d_re, d_im = l_re - run_re, l_im - run_im
                row_res.append(from_man_exp(math.isqrt(d_re * d_re + d_im * d_im), -g_all))
                bound += s_ij_abs * w_j
                row_err.append(mpf_shift(from_float(bound * up), g))
            residuals.append(row_res)
            residual_errors.append(row_err)
            d_re, d_im = l_re - printed_re, l_im - printed_im
            printed_residuals.append(from_man_exp(math.isqrt(d_re * d_re + d_im * d_im), -g_all))
            if ratio is not None:
                running = mp.make_mpc((from_man_exp(run_re, -g_all), from_man_exp(run_im, -g_all)))
                alt_residuals.append(abs(lhs_vals[i].value - ratio * running)._mpf_)

        partial_sums = [[mp.make_mpf(v) for v in row] for row in residuals]
        return STransformReport(
            level=level,
            z=z,
            tau=tau_v,
            variant=variant,
            weights=weights,
            factor=factor,
            s_matrix=s_matrix,
            chibar=chibar_vals,
            lhs=lhs_vals,
            residual_partial_sums=partial_sums,
            residual_errors=[[mp.make_mpf(v) for v in row] for row in residual_errors],
            final_residuals=[row[-1] for row in partial_sums],
            theta_error_max=theta_err_max,
            as_printed_s_matrix=printed_matrix,
            as_printed_final_residuals=[mp.make_mpf(v) for v in printed_residuals],
            alt_factor=alt_factor,
            alt_final_residuals=(
                None if alt_factor is None else [mp.make_mpf(v) for v in alt_residuals]
            ),
        )
