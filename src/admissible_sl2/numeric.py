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
:func:`_theta_walk`).  One ``mp.exp`` turns the final log into the
bound.

An exact q-series is evaluated by a walk along its sorted lattice keys:
q^{e_0} once for the lowest exponent, then one q^{g/D} per distinct gap g,
with the inner sum carried in Python-int fixed point at prec + 8 +
bitlength(sum_k (k + 1) |c_k|) fraction bits, so int coefficients multiply
exactly.  Its bound counts, per step, the rounding of each gap power (its
argument included) and of the fixed-point product, in whole units of the
scale (derivation in :func:`qseries_eval_numeric`).

``s_transform_residual`` computes each distinct quantity once per call.
Each side of the law is one pass (``_chibar_side``): per component
tolerance, one walk (``_theta_walk``) over every numerator residue b+- of the
level at m = a, and one over the denominator pair theta_{+-1,2}, which every
weight's quotient shares.  Then one e^{i pi N/a} per phase class of the
integer numerators N = b b', the pair (|N| mod a, binade of |N|/a) on which
``expjpi`` gives the same bits up to a sign set by the parity of floor(|N|/a)
(proof in :func:`s_transform_residual`), conjugated for N < 0; one S entry,
its conjugate (the conjugate-phase matrix) and its modulus per distinct pair
of signed classes, the pair with both parities flipped taking them negated;
and one product S_ij chibar_j per cell of the residual table.

The arithmetic repeated most -- each theta term's argument and the walk's
running sum, each side's quotients, and ``stransform``'s S entries, their
moduli and its residual table -- is done on the ``_mpf_`` and ``_mpc_`` tuples
at the working precision with round-to-nearest, the rounding every ``mp``
context here keeps, by kernels on ``int.bit_length`` (``_round``,
``_add``/``_sub``, ``_mul``/``_xmul``, ``_abs``).  Each forms the exact result
on just the branches where ``mpf_add``, ``mpf_mul`` and ``mpf_sqrt`` form it
and round it to nearest, and a value rounded half to even has one canonical
tuple, so every value keeps the operators' bits; the objects a report needs
are made at the end.  Left to mpmath: zero operands, sums whose exponents
differ by more than 100 (``mpf_add`` adds a perturbed mantissa), x^2 + y^2 in
a modulus (``mpf_hypot`` rounds it down), ``mpc_div`` and the transcendental
calls on ``mp``.  Spellings follow the operators' dispatch: ``i + off`` adds
``from_int(i)`` to ``off``, by ``__radd__``, and ``to_float`` is given
``round_nearest``, as ``float()`` passes it.
``tests/test_libmp_spellings.py`` holds each spelling to its operator and each
kernel to its libmp call, by name.

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
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp
from mpmath.libmp import (
    fzero,
    from_float,
    from_int,
    mpc_abs,
    mpc_div,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_mul,
    mpf_neg,
    mpf_shift,
    mpf_sum,
    round_ceiling,
    round_nearest,
    to_fixed,
    to_float,
    to_int,
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


def _round(sign: int, man: int, exp: int, prec: int) -> tuple:
    """The raw mpf (-1)^sign man 2^exp, man > 0, rounded half to even at ``prec`` bits.

    mpmath's ``normalize`` with ``round_nearest``: a rounded value has one canonical
    tuple (odd mantissa, exact bit count), so this is mpmath's for any exact value.
    """
    n = man.bit_length() - prec
    if n > 0:
        half = man >> (n - 1)
        # up when the first dropped bit is set, and the kept part is odd or a later bit is set
        if half & 1 and (half & 2 or (man & -man).bit_length() < n):
            man = (half >> 1) + 1
        else:
            man = half >> 1
        exp += n
    if man & 1:
        return sign, man, exp, man.bit_length()
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return sign, man, exp + zeros, man.bit_length()


def _add(s: tuple, t: tuple, prec: int, neg: int = 0) -> tuple:
    """``mpf_add(s, t, prec, round_nearest)``; s - t with ``neg`` = 1.

    For nonzero operands whose exponents differ by at most 100, mpmath adds the
    shifted mantissas exactly and rounds to nearest, as this does.  Past that it
    may add a perturbed mantissa: a wider offset, and a zero, go to ``mpf_add``.
    """
    ssign, sman, sexp, _ = s
    tsign, tman, texp, _ = t
    offset = sexp - texp
    if not (sman and tman and -100 <= offset <= 100):
        return mpf_add(s, t, prec, round_nearest, neg)
    if offset > 0:
        sman, exp = sman << offset, texp
    else:
        tman, exp = tman << -offset, sexp
    if ssign == tsign ^ neg:
        return _round(ssign, sman + tman, exp, prec)
    man = sman - tman
    if man > 0:
        return _round(ssign, man, exp, prec)
    return _round(ssign ^ 1, -man, exp, prec) if man else fzero


def _sub(s: tuple, t: tuple, prec: int) -> tuple:
    """``mpf_sub(s, t, prec, round_nearest)``, which is ``mpf_add`` with t negated."""
    return _add(s, t, prec, 1)


def _mul(s: tuple, t: tuple, prec: int) -> tuple:
    """``mpf_mul(s, t, prec, round_nearest)``: the exact product of the mantissas, rounded."""
    man = s[1] * t[1]
    if not man:
        return mpf_mul(s, t, prec, round_nearest)
    return _round(s[0] ^ t[0], man, s[2] + t[2], prec)


def _xmul(s: tuple, t: tuple) -> tuple:
    """``mpf_mul(s, t)``, the exact product; a product of odd mantissas is odd."""
    man = s[1] * t[1]
    if not man:
        return mpf_mul(s, t)
    return s[0] ^ t[0], man, s[2] + t[2], man.bit_length()


def _cmul(z: tuple, w: tuple, prec: int) -> tuple:
    """``mpc_mul(z, w, prec, round_nearest)``: four exact products, then two roundings."""
    (a, b), (c, d) = z, w
    return _sub(_xmul(a, c), _xmul(b, d), prec), _add(_xmul(a, d), _xmul(b, c), prec)


def _abs(z: tuple, prec: int) -> tuple:
    """``mpc_abs(z, prec, round_nearest)``; a zero part goes to ``mpc_abs``.

    x^2 + y^2 is ``mpf_hypot``'s, ``mpf_add`` at prec + 4 bits rounding down; the
    root is ``mpf_sqrt``'s nearest branch, a low bit set for a nonzero remainder.
    """
    x, y = z
    if not (x[1] and y[1]):
        return mpc_abs(z, prec, round_nearest)
    _, man, exp, bc = mpf_add(_xmul(x, x), _xmul(y, y), prec + 4)
    if exp & 1:
        exp, man, bc = exp - 1, man << 1, bc + 1
    shift = max(4, 2 * prec - bc + 4)
    shift += shift & 1
    man <<= shift
    root = math.isqrt(man)
    if root * root != man:
        root, shift = (root << 1) + 1, shift + 2
    return _round(0, root, (exp - shift) // 2, prec)


def theta_eval_numeric(spec: ThetaSpec, tau, tol, prec: int = DEFAULT_PREC) -> ComplexVal:
    """Evaluate theta_{n,m}(tau, z) = sum over Z + n/2m of e^{2 pi i m tau (j^2 + j z)}.

    The sum is taken outward from the vertex of the term-modulus parabola on
    each side until the certified geometric tail drops below tol/4; the
    rounding budget accounts for the remaining tol/4.  ``spec.z`` may be
    complex.  This checks ``tol > 0`` and tau, then walks the one residue
    ``spec.n`` (derivation in :func:`_theta_walk`).
    """
    tol = _positive_tol(tol)
    with mp.workprec(prec):
        tau_v = _upper_half_plane(tau, "theta series")
        return _theta_walk([spec.n], spec.m, spec.z, tau_v, tol, prec)[0]


def _theta_walk(
    ns: list[int], m: int, z, tau: mpmath.mpc, tol: mpmath.mpf, prec: int
) -> list[ComplexVal]:
    """theta_{n,m}(tau, z) for each n of ``ns``, at one (m, z, tau, tol, prec).

    ``tau`` is an mpc with Im(tau) > 0 and ``tol`` a positive mpf, both
    checked by the caller.  What depends only on (m, z, tau, tol, prec) is
    set up once: z, B, the float copies, log(tol/4), the reach test, the
    vertex -B/2A and log(7 U / eps).  Each residue then keeps its own offset
    n/2m, start point, Y, two-sided walk, stop test, terms, summation order
    and bound, so its value and bound are those of a walk over it alone.

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
    The residues are walked in order, and the first that fails raises.
    """
    with mp.workprec(prec):
        A = tau.imag
        z = _as_mpc(z)
        B = mp.im(tau * z)
        a, b = float(A), float(B)
        if a == math.inf:
            raise InputError("theta series requires Im(tau) within the double range")
        two_pi_m = 2 * math.pi * m
        tau_l1 = abs(float(tau.real)) + a
        abs_z = abs(float(z.real)) + abs(float(z.imag))
        log_eps = (1 - prec) * math.log(2)
        log_budget = float(mp.log(tol)) - math.log(4)

        reach = (b * b / (4 * a) - log_budget / two_pi_m) / a if a else math.inf
        if reach > (_MAX_TERMS_PER_SIDE + 1) ** 2 * (1 + _FLOAT_MARGIN):
            raise InputError(
                f"{_TERM_CAP} (at least {int(math.sqrt(min(reach, 1e300)))} "
                f"terms per side, cap {_MAX_TERMS_PER_SIDE})"
            )
        vertex = (-B / (2 * A))._mpf_
        log_c7 = math.log(7 * two_pi_m * tau_l1)  # log(7 U / eps)
        (z_re, z_im), tau_raw, two_m, rnd = z._mpc_, tau._mpc_, from_int(2 * m), round_nearest
        out = []
        for n in ns:
            off = mpf_div(from_int(n), two_m, prec, rnd)  # mp.mpf(n) / (2 * m)
            abs_off = abs(to_float(off, rnd=rnd))
            # the integer-coordinate vertex, rounded up
            start = to_int(_sub(vertex, off, prec), round_ceiling)
            q_cap = abs(b) / (2 * a) + abs_off + _MAX_TERMS_PER_SIDE + 2
            y = math.ldexp(9 * two_pi_m * tau_l1 * q_cap * (q_cap + abs_z), 1 - prec)  # Y
            if y + _FLOAT_MARGIN >= 2 * two_pi_m * (a * (2 * q_cap + 1) + abs(b)):
                raise InputError(_TERM_CAP)  # every s_lo up to the cap is negative
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
                    x = _add(off, from_int(i), prec)  # i + off
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
                    w_re = _mul(_add(_mul(z_re, x, prec), _mul(x, x, prec), prec), two_m, prec)
                    w = _cmul((w_re, _mul(_mul(z_im, x, prec), two_m, prec)), tau_raw, prec)
                    term_re, term_im = mp.expjpi(mp.make_mpc(w))._mpc_
                    total = (_add(total[0], term_re, prec), _add(total[1], term_im, prec))
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
            out.append(ComplexVal(mp.make_mpc(total), err, prec))
        return out


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


def _component_tolerances(tol: mpmath.mpf) -> Iterator[mpmath.mpf]:
    """The component tolerance of each attempt at a quotient: tol/8, then /16 per retry."""
    ctol = tol / 8
    for _ in range(_QUOTIENT_RETRIES):
        yield ctol
        ctol = ctol / 16


def _denominator(th_1: ComplexVal, th_m1: ComplexVal, tol: mpmath.mpf, prec: int):
    """What every quotient of one attempt shares: den = th_1 - th_m1, raw, and its bound.

    (den, e_den split, |den| split, rho, the larger theta error), e_den their sum;
    None when e_den >= |den| / 2.  |den| < 10 tol raises before any quotient.
    """
    (a, b), (c, d) = th_1.value._mpc_, th_m1.value._mpc_
    den = (_sub(a, c, prec), _sub(b, d, prec))
    e_den = _add(th_1.err._mpf_, th_m1.err._mpf_, prec)
    abs_den = mp.make_mpf(_abs(den, prec))
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
    (a, b), (c, d) = th_p.value._mpc_, th_m.value._mpc_
    quot = mpc_div((_sub(a, c, prec), _sub(b, d, prec)), den, prec, round_nearest)
    e_num = _add(th_p.err._mpf_, th_m.err._mpf_, prec)
    # (X + Y + Z) / (1 - rho), as the docstring derives
    (f_n, k_n), (f_q, k_q) = _split(e_num), _split(_abs(quot, prec))
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
    bound (for reporting).  Component tolerances tighten geometrically
    (``_component_tolerances``) until the quotient's bound (``_quotient``)
    meets ``tol``; each attempt evaluates the four thetas of
    ``chibar_thetas`` afresh.
    """
    tol = mp.mpf(tol)
    specs = [s for pair in chibar_thetas(weight, zval) for s in pair]
    with mp.workprec(prec):
        for ctol in _component_tolerances(tol):
            th_p, th_m, th_1, th_m1 = (theta_eval_numeric(spec, tau, ctol, prec) for spec in specs)
            den = _denominator(th_1, th_m1, tol, prec)
            found = den and _quotient(th_p, th_m, den, tol, prec)
            if found:
                return found
        raise InputError(_RETRIES_SPENT)


def _chibar_side(
    weights: list[AdmissibleWeight], tau: mpmath.mpc, zval, tol, prec: int
) -> list[tuple[ComplexVal, mpmath.mpf]]:
    """``_chibar_numeric`` of every weight at one (tau, zval, tol), bit for bit.

    ``tau`` is an mpc with Im(tau) > 0 at ``prec``.  The thetas of every
    weight come from ``chibar_thetas``: the numerators share m = a and the
    second argument z/q, the denominator pair is common to all.  So each
    attempt makes one ``_theta_walk`` over the numerator residues of the
    weights still pending and one over the denominator pair; a theta's value
    and bound depend only on its residue and the walk's (m, z, tau, tol,
    prec), so each weight's quotient is the one its own attempts give.  A
    weight whose bound misses goes on to the next tolerance.
    """
    tol = mp.mpf(tol)
    pairs = [chibar_thetas(w, zval) for w in weights]
    (num_p, _), (den_p, den_m) = pairs[0]
    out: list = [None] * len(weights)
    with mp.workprec(prec):
        pending = range(len(weights))
        for ctol in _component_tolerances(tol):
            residues = [spec.n for i in pending for spec in pairs[i][0]]
            nums = _theta_walk(residues, num_p.m, num_p.z, tau, ctol, prec)
            dens = _theta_walk([den_p.n, den_m.n], den_p.m, den_p.z, tau, ctol, prec)
            den = _denominator(*dens, tol, prec)
            retry = []
            for i, th_p, th_m in zip(pending, nums[::2], nums[1::2]):
                found = den and _quotient(th_p, th_m, den, tol, prec)
                if found:
                    out[i] = found
                else:
                    retry.append(i)
            if not retry:
                return out
            pending = retry
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


def _residual(lhs: tuple, factor: tuple, v: tuple, prec: int) -> tuple:
    """``abs(lhs - factor * v)`` on raw mpc tuples, rounded as the operators round it."""
    f_re, f_im = _cmul(factor, v, prec)
    return _abs((_sub(lhs[0], f_re, prec), _sub(lhs[1], f_im, prec)), prec)


def _s_matrices(
    weights: list[AdmissibleWeight],
) -> tuple[list[list[mpmath.mpc]], list[list[mpmath.mpc]], list[list[float]], mpmath.mpf]:
    """Both S-matrix spellings, |S_ij| as floats, and the largest row sum of |S_ij|.

    One ``expjpi`` per phase class (see ``s_transform_residual``), negated
    for the other parity of floor(|N|/a) and conjugated for N < 0, and one
    entry, conjugate and modulus per distinct pair of signed classes, which
    the pair with both parities flipped takes negated.  The row sums are
    taken in mpf, in column order.  The arithmetic is on raw tuples, by the
    kernels the module docstring describes.
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
                    d_re, d_im = _sub(u_re, v_re, prec), _sub(u_im, v_im, prec)
                    entry = (_mul(h, d_im, prec), mpf_neg(_mul(h, d_re, prec)))
                    size = _abs(entry, prec)
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
            row_abs = _add(row_abs, size, prec)
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

    One set of products per cell.  ``mpc_mul`` forms S_ij chibar_j = (a +
    bi)(c + di) from the exact products p = ac, q = bd, r = ad, s = bc as
    (p - q, r + s), each part rounded once.  The conjugate-phase entry is
    (a, -b) bit for bit, and negating an operand negates its exact product,
    so its product is (p + q, r - s): four exact products serve both.

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

        rhs_tol = tol / (8 * max(mp.mpf(1), abs_factor) * max(mp.mpf(1), max_row_abs))
        rhs = _chibar_side(weights, tau_v, z, rhs_tol, prec)
        lhs = _chibar_side(weights, tau2, z2, tol / 8, prec)
        chibar_vals = [val for val, _ in rhs]
        lhs_vals = [val for val, _ in lhs]
        theta_err_max = max([mp.mpf(0)] + [terr for _, terr in rhs + lhs])

        # bound (i, j) = c_i + sum_{j' <= j} |S_ij'| w_j' in floats, over one 2^g
        eps16 = (16 * eps)._mpf_
        c_w = [_add(v.err._mpf_, _mul(eps16, _abs(v.value._mpc_, prec), prec), prec)
               for v in lhs_vals + chibar_vals]
        c_w[n_w:] = [_mul(abs_factor._mpf_, v, prec) for v in c_w[n_w:]]
        scaled, g = _aligned([_split(v) for v in c_w])
        c_rows, w_cols = scaled[:n_w], scaled[n_w:]
        up = 1 + _FLOAT_MARGIN * (n_w + 2)
        # the table on raw tuples, rounded as the operators round it (see the docstring)
        rnd = round_nearest
        chi = [v.value._mpc_ for v in chibar_vals]
        f = factor._mpc_
        residuals, residual_errors, printed_residuals, alt_residuals = [], [], [], []
        for i in range(n_w):
            lhs = lhs_vals[i].value._mpc_
            run_re = run_im = fzero
            bound = c_rows[i]
            row_res, row_err, printed = [], [], []
            for s_ij, s_ij_abs, (c, d), w_j in zip(s_matrix[i], s_abs[i], chi, w_cols):
                a, b = s_ij._mpc_
                p, q, r, t = _xmul(a, c), _xmul(b, d), _xmul(a, d), _xmul(b, c)
                run_re = _add(run_re, _sub(p, q, prec), prec)
                run_im = _add(run_im, _add(r, t, prec), prec)
                printed.append((_add(p, q, prec), _sub(r, t, prec)))
                bound += s_ij_abs * w_j
                row_res.append(_residual(lhs, f, (run_re, run_im), prec))
                row_err.append(mpf_shift(from_float(bound * up), g))
            residuals.append(row_res)
            residual_errors.append(row_err)
            if alt_factor is not None:
                alt_residuals.append(_residual(lhs, alt_factor._mpc_, (run_re, run_im), prec))
            # mp.fsum of the mpc products: one mpf_sum of the real, one of the imaginary parts
            printed_sum = tuple(mpf_sum(part, prec, rnd) for part in zip(*printed))
            printed_residuals.append(_residual(lhs, f, printed_sum, prec))

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
