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

This module evaluates what ``characters`` describes: the four thetas of the
quotient come from :func:`~admissible_sl2.characters.chibar_thetas` and the
anomaly exponent from :attr:`~admissible_sl2.characters.CharacterSpec.anomaly`;
every power of q is built by :func:`_q_power`.  The theta, character and
S-transform evaluators check ``tol > 0`` and ``Im(tau) > 0`` up front, with
one helper each.

Precision is fixed per evaluator (``theta_eval_numeric`` alone takes it as an
argument); there is no ambient global state -- evaluation happens inside
``mp.workprec``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp

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


@dataclass(frozen=True)
class ComplexVal:
    """A complex value with a certified absolute error bound."""

    value: mpmath.mpc
    err: mpmath.mpf
    prec: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ComplexVal({self.value}, err<={mpmath.nstr(self.err, 3)}, prec={self.prec})"


def _as_mpc(x) -> mpmath.mpc:
    if isinstance(x, ComplexVal):
        return x.value
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
    if tol <= 0:
        raise InputError("tolerance must be positive")
    return tol


def _upper_half_plane(tau, what: str) -> mpmath.mpc:
    """``tau`` at the working precision; ``what`` requires Im(tau) > 0."""
    tau_v = _as_mpc(tau)
    if tau_v.imag <= 0:
        raise InputError(f"{what} requires Im(tau) > 0, got Im(tau) = {tau_v.imag}")
    return tau_v


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


def _chibar_numeric(
    level: Level,
    weight: AdmissibleWeight,
    tau,
    zval,
    tol,
    prec: int,
) -> tuple[ComplexVal, mpmath.mpf]:
    """Normalized character as a certified theta quotient; zval may be complex.

    Returns the quotient together with the largest component theta error
    bound (for reporting).  Component tolerances tighten geometrically until
    the propagated quotient bound meets ``tol``.
    """
    tol = mp.mpf(tol)
    (num_p, num_m), (den_p, den_m) = chibar_thetas(level, weight, zval)
    with mp.workprec(prec):
        eps = mp.mpf(2) ** (1 - prec)
        ctol = tol / 8
        theta_err = mp.mpf(0)
        for _ in range(_QUOTIENT_RETRIES):
            th_p = theta_eval_numeric(num_p, tau, ctol, prec)
            th_m = theta_eval_numeric(num_m, tau, ctol, prec)
            th_1 = theta_eval_numeric(den_p, tau, ctol, prec)
            th_m1 = theta_eval_numeric(den_m, tau, ctol, prec)
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
            e_quot = (e_num + abs(quot) * e_den) / (abs_den - e_den) + 8 * eps * abs(quot)
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
            val, _ = _chibar_numeric(spec.level, spec.weight, tau_v, spec.z, tol, prec)
            return val
        pref = _q_power(shift, tau_v)
        abs_pref = abs(pref)
        quot_tol = tol / (2 * max(abs_pref, mp.mpf(1)))
        quot, _ = _chibar_numeric(spec.level, spec.weight, tau_v, spec.z, quot_tol, prec)
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
    """
    if variant not in ("KW1", "KW2"):
        raise InputError(f"variant must be 'KW1' or 'KW2', got {variant!r}")
    z = rat(z)
    weights = enumerate_admissible(level)
    specs = [CharacterSpec(w, z) for w in weights]  # validates 0 < z < 1
    a = level.p * level.q
    tol = _positive_tol(tol)
    n_w = len(weights)
    prec = _S_TRANSFORM_PREC

    with mp.workprec(prec):
        tau_v = _upper_half_plane(tau, "S-transform")
        tau2 = -1 / tau_v
        z2 = tau_v * _frac_mpf(z)
        eps = mp.mpf(2) ** (1 - prec)

        pref = mp.mpc(0, -mp.mpf(1) / 2) * mp.sqrt(mp.mpf(2) / a)
        s_matrix: list[list[mpmath.mpc]] = []
        printed_matrix: list[list[mpmath.mpc]] = []
        max_row_abs = mp.mpf(0)
        for si in specs:
            row = []
            printed_row = []
            row_abs = mp.mpf(0)
            for sj in specs:
                x_pp = _frac_mpf(Fraction(si.b_plus * sj.b_plus, a))
                x_pm = _frac_mpf(Fraction(si.b_plus * sj.b_minus, a))
                entry = pref * (mp.expjpi(x_pp) - mp.expjpi(x_pm))
                printed_row.append(pref * (mp.expjpi(-x_pm) - mp.expjpi(-x_pp)))
                row.append(entry)
                row_abs += abs(entry)
            s_matrix.append(row)
            printed_matrix.append(printed_row)
            max_row_abs = max(max_row_abs, row_abs)

        if variant == "KW2":
            anomaly = specs[0].anomaly  # the same for every weight
            factor = _q_power(anomaly, tau_v)
            alt_factor = _q_power(anomaly, tau2)
        else:
            factor = mp.mpc(1)
            alt_factor = None
        abs_factor = abs(factor)

        theta_err_max = mp.mpf(0)
        rhs_tol = tol / (8 * max(mp.mpf(1), abs_factor) * max(mp.mpf(1), max_row_abs))
        chibar_vals: list[ComplexVal] = []
        for w in weights:
            val, terr = _chibar_numeric(level, w, tau_v, z, rhs_tol, prec)
            chibar_vals.append(val)
            theta_err_max = max(theta_err_max, terr)

        lhs_vals: list[ComplexVal] = []
        for w in weights:
            val, terr = _chibar_numeric(level, w, tau2, z2, tol / 8, prec)
            lhs_vals.append(val)
            theta_err_max = max(theta_err_max, terr)

        residuals: list[list[mpmath.mpf]] = []
        residual_errors: list[list[mpmath.mpf]] = []
        printed_residuals: list[mpmath.mpf] = []
        alt_residuals: list[mpmath.mpf] | None = [] if variant == "KW2" else None
        for i in range(n_w):
            running = mp.mpc(0)
            running_err = mp.mpf(0)
            running_abs = mp.mpf(0)
            row_res = []
            row_err = []
            for j in range(n_w):
                running += s_matrix[i][j] * chibar_vals[j].value
                running_err += abs(s_matrix[i][j]) * chibar_vals[j].err
                running_abs += abs(s_matrix[i][j] * chibar_vals[j].value)
                res = abs(lhs_vals[i].value - factor * running)
                slop = 16 * eps * (abs(lhs_vals[i].value) + abs_factor * running_abs)
                row_res.append(res)
                row_err.append(lhs_vals[i].err + abs_factor * running_err + slop)
            residuals.append(row_res)
            residual_errors.append(row_err)
            if alt_residuals is not None:
                alt_residuals.append(abs(lhs_vals[i].value - alt_factor * running))
            printed_sum = mp.fsum(
                [printed_matrix[i][j] * chibar_vals[j].value for j in range(n_w)]
            )
            printed_residuals.append(abs(lhs_vals[i].value - factor * printed_sum))

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
