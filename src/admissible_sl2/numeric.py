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

``s_transform_residual`` computes each distinct quantity once per call and
returns the ``stransform`` results as a plain mapping, in report order; it
judges nothing, and ``verify.transformation_law_checks`` judges the S-law on
those results.  Each side of the law is one pass (``_chibar_side``): one
theta vector of the denominator pair theta_{+-1,2}, which every weight's
quotient shares, and one of every numerator residue b+- of the level at m =
a, each theta a ``ComplexVal``.  Then one e^{i pi N/a} per phase class of
the integer numerators N = b b', the pair (|N| mod a, binade of |N|/a) on
which ``expjpi`` gives the same bits up to a sign set by the parity of
floor(|N|/a) (proof in :func:`s_transform_residual`), conjugated for N < 0;
one S entry, its conjugate (the conjugate-phase matrix) and its ints (its
parts in fixed point, its modulus bounded by one ``math.isqrt`` of them) per
distinct pair of signed classes, the pair with both parities flipped taking
them negated.  The residual table takes S and factor times chibar to fixed
point once, and each cell is four int products and one ``math.isqrt``.

Three computations keep mpmath's operator bits: ``theta_eval_numeric`` and
the quotients of ``_chibar_numeric``, so ``character`` and ``verify``
reports stay what they were, and the S build, whose bits ``STRANSFORM_EXACT``
pins.  For speed they call, on the ``_mpf_`` and ``_mpc_`` tuples, the
``mpmath.libmp`` functions the operators call, in the operators' operand
order and rounding to nearest, as every ``mp`` context here does;
``tests/test_libmp_spellings.py`` holds each spelling to its operator.

The other bounds are mpf or int, never float: the theta quotient's by
libmp calls at 64 bits, each rounded away from the bound (:func:`_quotient`),
the residual table's in whole units of a power of two, each value floored
and raised (:func:`s_transform_residual`).

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
    from_int,
    from_man_exp,
    from_rational,
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
    mpf_sqrt,
    mpf_sub,
    round_ceiling,
    round_floor,
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
    "character_eval_numeric",
    "qseries_eval_numeric",
    "s_transform_residual",
    "theta_eval_numeric",
]

DEFAULT_PREC = 128
_S_TRANSFORM_PREC = 192

_MAX_TERMS_PER_SIDE = 200_000
_QUOTIENT_RETRIES = 7
# Relative allowance of the float bookkeeping of a theta tail bound: 2^13 times
# the unit roundoff 2^-53 of a double.
_FLOAT_MARGIN = 2.0**-40
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


def _modulus(z: tuple, rnd: str) -> tuple:
    """|z| of a raw mpc at 64 bits, rounded by ``rnd``: exact squares, one directed root."""
    x, y = z
    return mpf_sqrt(mpf_add(mpf_mul(x, x), mpf_mul(y, y)), 64, rnd)


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

    (den, e_den rounded up, |den| rounded down); None when e_den >= |den| /
    2.  |den| < 10 tol raises before any quotient.
    """
    den = mpc_sub(th_1.value._mpc_, th_m1.value._mpc_, prec, round_nearest)
    e_den = mpf_add(th_1.err._mpf_, th_m1.err._mpf_, 64, round_ceiling)
    abs_den = mp.make_mpf(_modulus(den, round_floor))
    if abs_den < 10 * tol:
        raise InputError(f"|theta denominator| = {mpmath.nstr(abs_den, 5)} < 10*tol")
    if mp.make_mpf(e_den) >= abs_den / 2:
        return None
    return den, e_den, abs_den._mpf_


def _quotient(
    th_p: ComplexVal, th_m: ComplexVal, denominator: tuple, tol: mpmath.mpf, prec: int
) -> ComplexVal | None:
    """(th_p - th_m) / den with its bound; None when the bound misses ``tol``.

    ``denominator`` is ``_denominator``'s for the attempt.

    The bound is M + 8 eps (|quot| + M), M = (e_num + |quot| e_den) / (|den|
    - e_den), e_num and e_den the sums of the theta errors: over every N and
    D within them of the exact differences, N/D is within M of num/den (at
    worst den shrinks along itself and num grows along itself).  Rounding
    num, den and the quotient to nearest moves each by eps/2 of its modulus;
    with e_den < |den|/2 that adds under 4 eps (|quot| + M).  Each libmp call
    of the bound, at 64 bits, rounds away from it: up for e_num, e_den,
    |quot|, the numerator and each sum, down for |den| and |den| - e_den.
    """
    den, e_den, abs_den = denominator
    num = mpc_sub(th_p.value._mpc_, th_m.value._mpc_, prec, round_nearest)
    quot = mpc_div(num, den, prec, round_nearest)
    e_num = mpf_add(th_p.err._mpf_, th_m.err._mpf_, 64, round_ceiling)
    abs_quot = _modulus(quot, round_ceiling)
    top = mpf_add(e_num, mpf_mul(abs_quot, e_den, 64, round_ceiling), 64, round_ceiling)
    main = mpf_div(top, mpf_sub(abs_den, e_den, 64, round_floor), 64, round_ceiling)
    slack = mpf_shift(mpf_add(abs_quot, main, 64, round_ceiling), 4 - prec)  # 8 eps (|quot| + M)
    e_quot = mpf_add(main, slack, 64, round_ceiling)
    if mpf_gt(e_quot, tol._mpf_):
        return None
    return ComplexVal(mp.make_mpc(quot), mp.make_mpf(e_quot), prec)


_RETRIES_SPENT = "character quotient bound did not meet the tolerance after retries"


def _chibar_numeric(weight: AdmissibleWeight, tau, zval, tol, prec: int) -> ComplexVal:
    """Normalized character as a certified theta quotient; zval may be complex.

    Component tolerances tighten geometrically, tol/8 and then /16 per retry,
    until the quotient's bound (``_quotient``) meets ``tol``; each attempt
    evaluates the four thetas of ``chibar_thetas`` afresh.  A complex zval is
    divided by q at ``prec``, whatever the caller's precision, as
    ``_chibar_side`` divides it.
    """
    tol = mp.mpf(tol)
    with mp.workprec(prec):
        specs = [s for pair in chibar_thetas(weight, zval) for s in pair]
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


def _theta_vector(m: int, z, tau: mpmath.mpc, tol: mpmath.mpf, prec: int) -> list[ComplexVal]:
    """Every theta_{n,m}(tau, z), n mod 2m, from one walk over N, at index n.

    With (Re, Im, count) the sums of ``_fixed_walk`` at residue n, theta_{n,m}
    is (Re + i Im) 2^-F, exact, within its bound count 2^-F + tail <= 3 tol/4
    (tail below), rounded up at ``prec``.  ``tau`` is an mpc with Im(tau) > 0
    and ``z`` a rational or an mpc, each taken as exact; ``tol`` > 0.
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
    terms is under 2^(6 + 3 bitlength(K) + T) units, at most tol/16.  A
    pass whose T + ceil(log2(4/tol)) exceeds the working precision is
    refused at once, as its referee refuses it on its rounding budget, so F
    stays bounded; where pi^2 B^2 is past the double range, T is formed in an
    order that does not overflow, so the refusal quotes it.  ``tail`` bounds
    the two tails together.
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
    if log_top == math.inf:  # only pi_b^2 overflowed
        log_top = pi_b * (pi_b / (4 * pi_a))
    top, tol_bits = _up(log_top) / math.log(2), math.ceil(-log_side / math.log(2))
    if top + tol_bits >= prec:  # T + tol_bits > prec, T = floor(top) + 1
        raise InputError(f"rounding budget: a top term of 2^{top:.0f} needs "
                         f"{top + tol_bits:.0f} bits for tol/4, over the {prec}-bit precision")
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

    top_bits = int(top) + 1
    frac_bits = top_bits + max(0, tol_bits) + 3 * max(sides).bit_length() + 8
    x_max = (abs(n0) + 1) ** 2 / m + (abs(n0) + 1) * abs_z + 1
    seed_prec = frac_bits + top_bits + int(4 * x_max * tau_l1 + 2).bit_length() + 4
    sums = _fixed_walk(m, (zr, zi), tau, n0, *sides, frac_bits, seed_prec)
    with mp.workprec(prec):
        tail = mp.exp(_log_sum(tails) + _FLOAT_MARGIN)._mpf_
    thetas = []
    for v in sums:
        re, im, count = (from_man_exp(x, -frac_bits) for x in v)
        err = mp.make_mpf(mpf_add(count, tail, prec, round_ceiling))
        thetas.append(ComplexVal(mp.make_mpc((re, im)), err, prec))
    return thetas


def _chibar_side(
    weights: list[AdmissibleWeight], tau: mpmath.mpc, zval, tol, prec: int
) -> tuple[list[ComplexVal], mpmath.mpf]:
    """Each weight's chibar at one (tau, zval) within ``tol``, as ``_chibar_numeric`` bounds it.

    Returns the chibars and the largest bound of the thetas they were formed
    from.  ``tau`` is an mpc with Im(tau) > 0 at ``prec``.  The thetas come
    from ``chibar_thetas``: the numerators share m = a and the argument z/q,
    the denominator pair theta_{+-1,2} is common to all.  So a side is one
    ``_theta_vector`` of the denominators and one of the numerators, and
    each quotient is ``_quotient`` of its residues over ``_denominator``.

    The denominator is walked first, to tol 2^-20: its bound e_den must be
    below |den|/2 (else it is walked again 2^16 times deeper), and |den| <
    10 tol is refused.  The numerators are then walked once, to tol min(1,
    |den| / 32), so that e_num / (|den| - e_den) stays below tol/10 and
    each theta bound below tol.  A quotient whose bound still misses does
    so by |quot| e_den: the denominator is walked again, to tol |den| / (4
    |quot|) over the largest such |quot| (at most a sixteenth of the last),
    and every quotient is formed again over it.  After ``_QUOTIENT_RETRIES`` denominator walks the side fails.
    """
    tol = mp.mpf(tol)
    with mp.workprec(prec):
        pairs = [chibar_thetas(w, zval) for w in weights]  # a complex z / q rounds at prec
        (num_p, _), (den_p, den_m) = pairs[0]
        dtol, nums = tol * 2.0**-20, None
        for _ in range(_QUOTIENT_RETRIES):
            dens = _theta_vector(den_p.m, den_p.z, tau, dtol, prec)
            den_pair = dens[den_p.n % 4], dens[den_m.n % 4]
            den = _denominator(*den_pair, tol, prec)
            if den is None:
                dtol = dtol / 2**16
                continue
            abs_den = mp.make_mpf(den[2])  # at most |den|
            if nums is None:
                vec = _theta_vector(num_p.m, num_p.z, tau, tol * min(1, abs_den / 32), prec)
                two_m = len(vec)
                nums = [(vec[plus.n % two_m], vec[minus.n % two_m]) for (plus, minus), _ in pairs]
            found, missed = [], mp.mpf(1)
            for th_p, th_m in nums:
                found.append(_quotient(th_p, th_m, den, tol, prec))
                if found[-1] is None:
                    missed = max(missed, abs(th_p.value - th_m.value) / abs_den)
            if all(found):
                return found, max(th.err for pair in [den_pair, *nums] for th in pair)
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
            return _chibar_numeric(spec.weight, tau_v, spec.z, tol, prec)
        pref = _q_power(shift, tau_v)
        abs_pref = abs(pref)
        quot_tol = tol / (2 * max(abs_pref, mp.mpf(1)))
        quot = _chibar_numeric(spec.weight, tau_v, spec.z, quot_tol, prec)
        value = pref * quot.value
        err = abs_pref * quot.err + 8 * eps * abs(value)
        return ComplexVal(value, err, prec)


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
) -> tuple[list[list[mpmath.mpc]], list[list[mpmath.mpc]], list[list[tuple]], mpmath.mpf]:
    """Both S-matrix spellings, the table's ints, and a bound on the largest row sum of |S_ij|.

    One ``expjpi`` per phase class (see ``s_transform_residual``), negated
    for the other parity of floor(|N|/a) and conjugated for N < 0, and one
    entry, conjugate and ints per distinct pair of signed classes, which the
    pair with both parities flipped takes negated.  The ints are the parts
    floored to 2^-(prec + 8) and |S_ij| bounded in units 2^-62 (derivation
    in ``s_transform_residual``); the largest row sum of the units bounds
    every row's sum of moduli.
    """
    a = weights[0].level.a
    prec, rnd = mp.prec, round_nearest
    g, cut = prec + 8, prec - 54
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
    cells: dict[tuple, tuple[mpmath.mpc, mpmath.mpc, tuple]] = {}
    s_matrix, printed_matrix, s_fixed = [], [], []
    max_row_units = 0
    for bi in b_plus:
        row, printed_row, fixed_row = [], [], []
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
                else:  # both phases negated: the entry negated, bit for bit
                    entry = tuple(map(mpf_neg, twin[0]._mpc_))
                # conj(entry): pref (conj(e_pm) - conj(e_pp)), bitwise
                printed = (entry[0], mpf_neg(entry[1]))
                re_units, im_units = to_fixed(entry[0], g), to_fixed(entry[1], g)
                root = math.isqrt((abs(re_units) + 1) ** 2 + (abs(im_units) + 1) ** 2)
                fixed = (re_units, im_units, ((root + 1) >> cut) + 1)
                cell = (mp.make_mpc(entry), mp.make_mpc(printed), fixed)
                cells[pair, c_pp[2]] = cell
            entry, printed, fixed = cell
            row.append(entry)
            printed_row.append(printed)
            fixed_row.append(fixed)
        s_matrix.append(row)
        printed_matrix.append(printed_row)
        s_fixed.append(fixed_row)
        max_row_units = max(max_row_units, sum(f[2] for f in fixed_row))
    return s_matrix, printed_matrix, s_fixed, mp.make_mpf(from_man_exp(max_row_units, -62))


def s_transform_residual(
    level: Level,
    z,
    tau,
    variant: str = "KW2",
    tol=mp.mpf("1e-10"),
) -> dict:
    """Residuals of chibar_j(-1/tau, tau z) against the S-matrix sum: the ``stransform`` results.

    The mapping's keys are the report's, in report order.
    ``residual_partial_sums[i][m]`` is |chibar_i(-1/tau, tau z) - factor *
    sum_{j <= m} S[i][j] chibar_j(tau, z)|: partial sums across the row, so
    the last column, ``final_residuals[i]``, holds the residual of the full
    law, and ``residual_errors`` bounds each cell.  ``theta_error_max`` is the
    largest bound of the thetas the quotients ``chibar`` and ``lhs`` were
    formed from.  ``alt_final_residuals`` (None for KW1) re-tests the full
    sum under the other plausible reading of the factor's exponent, with tau
    replaced by -1/tau, and ``as_printed_final_residuals`` with the
    conjugate-phase S-matrix ``as_printed_s_matrix`` (below).  The S-law is
    judged on them by ``verify.transformation_law_checks``.

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
    parity takes the stored entry negated, with its modulus and ints.

    The table in fixed point.  Each y_j = factor chibar_j is formed exactly
    and floored to units 2^-gy, each S_ij to units 2^-gs (``_s_matrices``,
    once per distinct entry), and each lhs_i to units 2^-(gs + gy), gs =
    prec + 8 and 2^(gs - gy) above every |y_j| and |lhs_i|.  With S_ij = (a, b) and y_j = (c, d), the four products p = ac,
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

    Bounds in integers.  The 2n values c_i and w_j, formed in mpf within a
    few roundings 2^-prec of themselves, are floored to units 2^-g, g giving
    the largest 62 bits, and each takes 2 units more, for its floor and its
    roundings, so it bounds its value.  |S_ij| in units 2^-62 comes from the
    entry's parts A and B floored to 2^-gs: each part is below |A| + 1 (|B|
    + 1) units, so |S_ij| 2^gs is below isqrt((|A| + 1)^2 + (|B| + 1)^2) + 1,
    and that shifted down to units 2^-62, plus 1, bounds |S_ij| 2^62 and
    exceeds its floor by at most 2.  Each row's running bound is an exact int
    sum, each cell one exact mpf.  The tests' referee encloses every partial
    residual in intervals and holds each bound to it.  ``max_row_abs``,
    which sets the quotients' tolerance, is the largest row sum of those
    units, so it bounds every row's sum of moduli.
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

        s_matrix, printed_matrix, s_fixed, max_row_abs = _s_matrices(weights)

        if variant == "KW2":
            factor = _q_power(anomaly, tau_v)
            alt_factor = _q_power(anomaly, tau2)
        else:
            factor = mp.mpc(1)
            alt_factor = None
        abs_factor = abs(factor)

        rhs_tol = tol / (8 * max(mp.mpf(1), abs_factor) * max(mp.mpf(1), max_row_abs))
        chibar_vals, rhs_theta_max = _chibar_side(weights, tau_v, z, rhs_tol, prec)
        lhs_vals, lhs_theta_max = _chibar_side(weights, tau2, z2, tol / 8, prec)

        # the table in fixed point: S in units 2^-gs, y_j = factor chibar_j (exact)
        # in units 2^-gy, lhs and every sum of products in units 2^-(gs + gy)
        fa, fb = factor._mpc_
        y_raw = [
            (mpf_sub(mpf_mul(fa, c), mpf_mul(fb, d)), mpf_add(mpf_mul(fa, d), mpf_mul(fb, c)))
            for c, d in (v.value._mpc_ for v in chibar_vals)
        ]
        lhs_raw = [v.value._mpc_ for v in lhs_vals]
        top = max(x[2] + x[3] for pair in y_raw + lhs_raw for x in pair)
        gy, g_all = prec + 8 - top, 2 * (prec + 8) - top
        ys = [(to_fixed(c, gy), to_fixed(d, gy)) for c, d in y_raw]
        ls = [(to_fixed(c, g_all), to_fixed(d, g_all)) for c, d in lhs_raw]

        # bound (i, j) = c_i + sum_{j' <= j} |S_ij'| w_j' in units 2^-(g + 62)
        y_units = sum(abs(c) + abs(d) + 2 for c, d in ys)  # at least sum |y_j| 2^gy
        top_n = max(abs(w.b_plus) for w in weights)
        top_n *= max(abs(w.b_plus) + abs(w.b_minus) for w in weights)
        delta_s = eps * (mp.mpf(top_n) / level.a + 4)
        r_f = _q_power_error(anomaly, abs(tau_v.real) + tau_v.imag, eps) if variant == "KW2" else 0
        w_cols = [abs_factor * ((1 + r_f) * v.err + r_f * abs(v.value)) for v in chibar_vals]
        count = delta_s * (mp.ldexp(y_units, -gy) + mp.fsum(w_cols))
        count += mp.ldexp(y_units, 1 - g_all) + mp.ldexp(2 * n_w + 4, -gy)
        c_rows = [v.err + count for v in lhs_vals]
        g = 62 - max(x[2] + x[3] for x in (v._mpf_ for v in c_rows + w_cols) if x[1])
        c_rows, w_cols = ([to_fixed(v._mpf_, g) + 2 for v in vs] for vs in (c_rows, w_cols))
        ratio = None if alt_factor is None else alt_factor / factor
        residuals, residual_errors, printed_residuals, alt_residuals = [], [], [], []
        for i in range(n_w):
            l_re, l_im = ls[i]
            run_re = run_im = printed_re = printed_im = 0
            bound = c_rows[i] << 62
            row_res, row_err = [], []
            for (a, b, s_units), (c, d), w_j in zip(s_fixed[i], ys, w_cols):
                p, q, r, t = a * c, b * d, a * d, b * c
                run_re += p - q
                run_im += r + t
                printed_re += p + q  # conj(S_ij) y_j
                printed_im += r - t
                d_re, d_im = l_re - run_re, l_im - run_im
                row_res.append(from_man_exp(math.isqrt(d_re * d_re + d_im * d_im), -g_all))
                bound += s_units * w_j
                row_err.append(from_man_exp(bound, -g - 62))
            residuals.append(row_res)
            residual_errors.append(row_err)
            d_re, d_im = l_re - printed_re, l_im - printed_im
            printed_residuals.append(from_man_exp(math.isqrt(d_re * d_re + d_im * d_im), -g_all))
            if ratio is not None:
                running = mp.make_mpc((from_man_exp(run_re, -g_all), from_man_exp(run_im, -g_all)))
                alt_residuals.append(abs(lhs_vals[i].value - ratio * running)._mpf_)

        partial_sums = [[mp.make_mpf(v) for v in row] for row in residuals]
        return {
            "level": level,
            "z": z,
            "tau": tau_v,
            "variant": variant,
            "weights": weights,
            "factor": factor,
            "s_matrix": s_matrix,
            "chibar": chibar_vals,
            "lhs": lhs_vals,
            "residual_partial_sums": partial_sums,
            "residual_errors": [[mp.make_mpf(v) for v in row] for row in residual_errors],
            "final_residuals": [row[-1] for row in partial_sums],
            "theta_error_max": max(rhs_theta_max, lhs_theta_max),
            "as_printed_s_matrix": printed_matrix,
            "as_printed_final_residuals": [mp.make_mpf(v) for v in printed_residuals],
            "alt_factor": alt_factor,
            "alt_final_residuals": (
                None if alt_factor is None else [mp.make_mpf(v) for v in alt_residuals]
            ),
        }
