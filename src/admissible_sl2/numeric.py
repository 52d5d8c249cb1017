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

An exact q-series is evaluated by a walk along its sorted lattice keys:
q^{e_0} once for the lowest exponent, then one q^{g/D} per distinct gap g,
with the inner sum carried in Python-int fixed point at prec + 8 +
bitlength(sum_k (k + 1) |c_k|) fraction bits, so int coefficients multiply
exactly.  Its bound counts, per step, the rounding of each gap power (its
argument included) and of the fixed-point product, in whole units of the
scale (derivation in :func:`qseries_eval_numeric`).

``s_transform_residual`` computes each distinct quantity once per call: one
theta memo per side of the law (every weight's quotient shares the
denominator pair theta_{+-1,2}); one e^{i pi N/a} per phase class of the
integer numerators N = b b', the pair (|N| mod 2a, binade of |N|/a) on which
``expjpi`` gives the same bits (proof in :func:`s_transform_residual`),
conjugated for N < 0; one S entry, its conjugate (the conjugate-phase
matrix) and its modulus per distinct pair of signed classes; and one product
S_ij chibar_j per cell of the residual table.

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

import mpmath
from mpmath import mp
from mpmath.libmp import to_fixed, to_float

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


def _split(x: mpmath.mpf) -> tuple[float, int]:
    """(f, k) with 0 <= x < 2^k and f = x 2^-k truncated to a double; (0.0, 0) for 0.

    The scaling by 2^-k is exact, so f is within 2^-52 of x 2^-k, below it,
    whatever the size of x: 1/2 <= f < 1.
    """
    _, man, exp, bc = x._mpf_
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


def theta_eval_numeric(spec: ThetaSpec, tau, tol, prec: int = DEFAULT_PREC) -> ComplexVal:
    """Evaluate theta_{n,m}(tau, z) = sum over Z + n/2m of e^{2 pi i m tau (j^2 + j z)}.

    The sum is taken outward from the vertex of the term-modulus parabola on
    each side until the certified geometric tail drops below tol/4; the
    rounding budget accounts for the remaining tol/4.  ``spec.z`` may be
    complex.

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
    slope up to the cap (|x| <= q there), as no s_lo can then be positive.
    """
    tol = _positive_tol(tol)
    with mp.workprec(prec):
        tau_v = _upper_half_plane(tau, "theta series")
        A = tau_v.imag
        z = _as_mpc(spec.z)
        m = spec.m
        B = mp.im(tau_v * z)
        off = mp.mpf(spec.n) / (2 * m)
        a, b = float(A), float(B)
        if a == math.inf:
            raise InputError("theta series requires Im(tau) within the double range")
        two_pi_m = 2 * math.pi * m
        tau_l1 = abs(float(tau_v.real)) + a
        abs_off, abs_z = abs(float(off)), abs(float(z.real)) + abs(float(z.imag))
        log_eps = (1 - prec) * math.log(2)
        log_budget = float(mp.log(tol)) - math.log(4)

        def term_at(x):
            return mp.expjpi(2 * m * (x * x + x * z) * tau_v)

        reach = (b * b / (4 * a) - log_budget / two_pi_m) / a if a else math.inf
        if reach > (_MAX_TERMS_PER_SIDE + 1) ** 2 * (1 + _FLOAT_MARGIN):
            raise InputError(
                f"{_TERM_CAP} (at least {int(math.sqrt(min(reach, 1e300)))} "
                f"terms per side, cap {_MAX_TERMS_PER_SIDE})"
            )

        start = int(mp.ceil(-B / (2 * A) - off))  # the integer-coordinate vertex, rounded up
        q_cap = abs(b) / (2 * a) + abs_off + _MAX_TERMS_PER_SIDE + 2
        y = math.ldexp(9 * two_pi_m * tau_l1 * q_cap * (q_cap + abs_z), 1 - prec)  # Y
        if y + _FLOAT_MARGIN >= 2 * two_pi_m * (a * (2 * q_cap + 1) + abs(b)):
            raise InputError(_TERM_CAP)  # every s_lo up to the cap is negative
        log_c7 = math.log(7 * two_pi_m * tau_l1)  # log(7 U / eps)
        total = mp.mpc(0)
        count = 0
        sides = []  # per side: its first l, sum e^{l - first}, sum e^{l - first} X (X + |z|)
        tails = []

        for direction in (+1, -1):
            i = start if direction == +1 else start - 1
            first = None
            side_abs = side_arg = 0.0
            steps = 0
            while True:
                x = i + off
                xf = float(x)
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
                total += term_at(x)
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

        terms = [_up(log_eps, y, l0, math.log(count + 16), math.log(s)) for l0, s, _ in sides if s]
        terms += [_up(log_eps, 2 * y, l0, log_c7, math.log(s)) for l0, _, s in sides if s]
        log_round = _log_sum(terms) + _FLOAT_MARGIN * count
        if log_round > log_budget:
            raise InputError(
                f"rounding budget {mpmath.nstr(mp.exp(log_round), 5)} exceeds tol/4 at {prec} bits"
            )
        err = mp.exp(_log_sum(terms + tails) + _FLOAT_MARGIN * count)
        return ComplexVal(total, err, prec)


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


def _chibar_numeric(
    weight: AdmissibleWeight,
    tau,
    zval,
    tol,
    prec: int,
    thetas: dict[tuple[ThetaSpec, mpmath.mpf], ComplexVal] | None = None,
) -> tuple[ComplexVal, mpmath.mpf]:
    """Normalized character as a certified theta quotient; zval may be complex.

    Returns the quotient together with the largest component theta error
    bound (for reporting).  Component tolerances tighten geometrically until
    the propagated quotient bound meets ``tol``.

    ``thetas``, when given, memoises the theta evaluations by ``(ThetaSpec,
    component tolerance)``; the caller keeps one dict per (tau, prec), so
    quotients at the same tau share their common denominator pair.  A retry
    at a tighter tolerance misses the memo and evaluates afresh.

    The quotient's bound (e_num + |quot| e_den) / (|den| - e_den) + 8 eps
    |quot|, e_num and e_den the sums of the theta errors, is kept in floats.
    The retry test e_den < |den| / 2 is taken in mpf first, so rho = e_den /
    |den| < 1/2 and the bound is at most (X + Y + Z) / (1 - rho), X = e_num /
    |den|, Y = |quot| rho, Z = 8 eps |quot|.  Each of X, Y, Z and rho is a
    product or quotient of split values (``_split``), a double times a power
    of two; X, Y and Z are aligned (``_aligned``) and summed.  The splits'
    truncation (2^-52 each) and a dozen float roundings are far inside the
    margin 2^-40, and ``mp.ldexp`` scales the result back exactly.
    """
    tol = mp.mpf(tol)
    (num_p, num_m), (den_p, den_m) = chibar_thetas(weight, zval)
    with mp.workprec(prec):
        ctol = tol / 8
        theta_err = mp.mpf(0)

        def theta(spec):
            if thetas is None:
                return theta_eval_numeric(spec, tau, ctol, prec)
            key = (spec, ctol)
            if key not in thetas:
                thetas[key] = theta_eval_numeric(spec, tau, ctol, prec)
            return thetas[key]

        for _ in range(_QUOTIENT_RETRIES):
            th_p, th_m, th_1, th_m1 = map(theta, (num_p, num_m, den_p, den_m))
            theta_err = max(th_p.err, th_m.err, th_1.err, th_m1.err)
            num = th_p.value - th_m.value
            den = th_1.value - th_m1.value
            e_num = th_p.err + th_m.err
            e_den = th_1.err + th_m1.err
            abs_den = abs(den)
            if abs_den < 10 * tol:
                raise InputError(
                    f"|theta denominator| = {mpmath.nstr(abs_den, 5)} < 10*tol"
                )
            if e_den >= abs_den / 2:
                ctol = ctol / 16
                continue
            quot = num / den
            # (X + Y + Z) / (1 - rho), as the docstring derives
            (f_n, k_n), (f_e, k_e), (f_d, k_d), (f_q, k_q) = map(
                _split, (e_num, e_den, abs_den, abs(quot))
            )
            terms, g = _aligned(
                [(f_n / f_d, k_n - k_d), (f_q * f_e / f_d, k_q + k_e - k_d), (f_q, k_q + 4 - prec)]
            )
            rho = math.ldexp(f_e / f_d, k_e - k_d)
            e_quot = mp.ldexp(sum(terms) / (1 - rho) * (1 + _FLOAT_MARGIN), g)
            if e_quot <= tol:
                return ComplexVal(quot, e_quot, prec), theta_err
            ctol = ctol / 16
        raise InputError(
            "character quotient bound did not meet the tolerance after retries"
        )


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


def _phase_class(num: int, a: int) -> tuple[int, int]:
    """(|N| mod 2a, floor(log2(|N|/a))), from integers; e^{i pi N/a} is alike across a class."""
    n = abs(num)
    e = n.bit_length() - a.bit_length()  # floor(log2(n/a)) is e or e - 1
    if (n << max(-e, 0)) < (a << max(e, 0)):
        e -= 1
    return n % (2 * a), e


def _s_matrices(
    weights: list[AdmissibleWeight],
) -> tuple[list[list[mpmath.mpc]], list[list[mpmath.mpc]], list[list[float]], mpmath.mpf]:
    """Both S-matrix spellings, |S_ij| as floats, and the largest row sum of |S_ij|.

    One ``expjpi`` per phase class (see ``s_transform_residual``), conjugated
    for N < 0, and one entry, conjugate and modulus per distinct pair of
    signed classes.  The row sums are taken in mpf, in column order.
    """
    a = weights[0].level.a
    phases: dict[tuple[int, int], mpmath.mpc] = {}

    def phase(num: int) -> mpmath.mpc:
        key = _phase_class(num, a)
        if key not in phases:
            phases[key] = mp.expjpi(mp.mpf(abs(num)) / a)
        return mp.conj(phases[key]) if num < 0 else phases[key]

    pref = mp.mpc(0, -mp.mpf(1) / 2) * mp.sqrt(mp.mpf(2) / a)
    entries: dict[tuple, tuple[mpmath.mpc, mpmath.mpc, mpmath.mpf, float]] = {}
    s_matrix, printed_matrix, s_abs = [], [], []
    max_row_abs = mp.mpf(0)
    for wi in weights:
        row, printed_row, abs_row = [], [], []
        row_abs = mp.mpf(0)
        for wj in weights:
            n_pp, n_pm = wi.b_plus * wj.b_plus, wi.b_plus * wj.b_minus
            key = (_phase_class(n_pp, a), n_pp < 0, _phase_class(n_pm, a), n_pm < 0)
            if key not in entries:
                entry = pref * (phase(n_pp) - phase(n_pm))
                # pref (conj(e_pm) - conj(e_pp)), bitwise: pref is -i times a positive real
                size = abs(entry)
                entries[key] = (entry, mp.conj(entry), size, float(size))
            entry, printed, size, size_f = entries[key]
            row.append(entry)
            printed_row.append(printed)
            abs_row.append(size_f)
            row_abs += size
        s_matrix.append(row)
        printed_matrix.append(printed_row)
        s_abs.append(abs_row)
        max_row_abs = max(max_row_abs, row_abs)
    return s_matrix, printed_matrix, s_abs, max_row_abs


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
    working precision, and mpmath 1.3 (``mpf_cos_sin`` with pi=True)
    computes it from the mantissa and exponent of |x| alone: it takes the
    nearest half-integer n/2 off exactly, evaluates cos and sin of pi times
    the remainder, rotates by n mod 4, and negates the sine when x < 0.  Let
    N' = N + 2ak have the sign of N, with |N|/a and |N'|/a in one binade
    [2^e, 2^(e+1)).  The rounding grid there has spacing 2^(e+1-prec), which
    divides 2 (|N|/a is far below 2^prec), so |x'| = |x| + 2k exactly; N/a
    is never a rounding tie (it is exact when a is a power of two).  Where
    |x| is not a multiple of 1/2, its exponent is below -1, so adding 2k
    keeps the odd mantissa odd and the exponent, leaves the remainder alone
    and moves n by 4k; a multiple of 1/2 stays one, with the same parity
    and the same exact value.  So the class (|N| mod 2a, e), computed from
    integers, keys one ``expjpi`` of |N|/a, and N < 0 takes ``mp.conj`` of
    it, bit for bit.  An entry depends only on its two phases, so it is
    keyed by their signed classes.

    Bounds in floats.  The bound on cell (i, j) of ``residual_errors`` is

        c_i + sum_{j' <= j} |S_ij'| w_j',
        c_i = err(lhs_i) + 16 eps |lhs_i|,
        w_j = |factor| (err(chibar_j) + 16 eps |chibar_j|),

    the left side's error, the propagated quotient errors and the rounding
    allowance 16 eps (|lhs_i| + |factor| sum |S_ij'| |chibar_j'|), eps =
    2^(1 - prec).  The 2n values c_i and w_j are formed in mpf, split and
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

        theta_err_max = mp.mpf(0)
        rhs_tol = tol / (8 * max(mp.mpf(1), abs_factor) * max(mp.mpf(1), max_row_abs))
        # one theta memo per side: the denominator pair is shared by every weight
        rhs_thetas: dict = {}
        chibar_vals: list[ComplexVal] = []
        for w in weights:
            val, terr = _chibar_numeric(w, tau_v, z, rhs_tol, prec, rhs_thetas)
            chibar_vals.append(val)
            theta_err_max = max(theta_err_max, terr)

        lhs_thetas: dict = {}
        lhs_vals: list[ComplexVal] = []
        for w in weights:
            val, terr = _chibar_numeric(w, tau2, z2, tol / 8, prec, lhs_thetas)
            lhs_vals.append(val)
            theta_err_max = max(theta_err_max, terr)

        # bound (i, j) = c_i + sum_{j' <= j} |S_ij'| w_j' in floats, over one 2^g
        c_w = [v.err + 16 * eps * abs(v.value) for v in lhs_vals]
        c_w += [abs_factor * (v.err + 16 * eps * abs(v.value)) for v in chibar_vals]
        scaled, g = _aligned([_split(v) for v in c_w])
        c_rows, w_cols = scaled[:n_w], scaled[n_w:]
        up = 1 + _FLOAT_MARGIN * (n_w + 2)
        chi = [v.value for v in chibar_vals]

        residuals: list[list[mpmath.mpf]] = []
        residual_errors: list[list[mpmath.mpf]] = []
        printed_residuals: list[mpmath.mpf] = []
        alt_residuals: list[mpmath.mpf] | None = [] if variant == "KW2" else None
        for i in range(n_w):
            lhs = lhs_vals[i].value
            running = mp.mpc(0)
            bound = c_rows[i]
            row_res = []
            row_err = []
            for s_ij, s_ij_abs, chi_j, w_j in zip(s_matrix[i], s_abs[i], chi, w_cols):
                running += s_ij * chi_j
                bound += s_ij_abs * w_j
                row_res.append(abs(lhs - factor * running))
                row_err.append(mp.ldexp(bound * up, g))
            residuals.append(row_res)
            residual_errors.append(row_err)
            if alt_residuals is not None:
                alt_residuals.append(abs(lhs - alt_factor * running))
            printed_sum = mp.fsum([p_ij * chi_j for p_ij, chi_j in zip(printed_matrix[i], chi)])
            printed_residuals.append(abs(lhs - factor * printed_sum))

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
            residual_partial_sums=residuals,
            residual_errors=residual_errors,
            final_residuals=[row[-1] for row in residuals],
            theta_error_max=theta_err_max,
            as_printed_s_matrix=printed_matrix,
            as_printed_final_residuals=printed_residuals,
            alt_factor=alt_factor,
            alt_final_residuals=alt_residuals,
        )
