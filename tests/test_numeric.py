"""Certified numerics: theta evaluation, character quotients, S-transform.

The theta oracle here is a direct high-precision lattice sum written against
the definition (no shared code with the adaptive evaluator), plus the
classical theta constant theta_3(e^{-pi}) = pi^{1/4} / Gamma(3/4) as an
external fixed point.  Error bounds are tested for honesty by comparing
evaluations at different working precisions.

The theta evaluator, whose bound is kept in Python floats as logs, is checked
against the all-mpf per-term evaluator kept in ``tests/_theta_oracle.py``:
equal values bit for bit, and error bounds no smaller than the oracle's, which
leaves out the rounding of each term's argument.  The interval enclosure of
``tests/_interval_theta.py`` referees the bound itself: |value - center| +
radius <= err on every draw, at edges of the double range too.  It referees
the quotient bound of ``_chibar_numeric`` the same way, on quotients at tau
with a rational z and at the law's left side (-1/tau, tau z), the chi of
``character_eval_numeric``, q^shift times the quotient (whose bound is also
held, at one op where q^shift's own error passes the product's rounding, to
count that error), and the ``residual_errors`` of ``s_transform_residual``:
each partial residual, enclosed from the quotient boxes and exact S entries,
lies within its bound.
``stransform``'s sharing of thetas (one walk of the denominators and one of
the numerators per side, and on a retry only the denominators again) is
checked by its walks and against per-weight quotients within both bounds,
its S-matrix phase classes and entries against the direct phase formula, bit
for bit (the table's integer parts and moduli and the largest row sum too),
and its integer-unit table bounds against their error sums past the double
range.  The quotient bound is also held to the worst point of its four
error disks, with errors up to half of |den|, where the interval referees'
real thetas leave it slack.  ``tests/test_side_pass.py`` referees the side
pass and the residual table further.

The fixed-point walk of ``qseries_eval_numeric`` is refereed on random
character series by a 600-bit per-term sum and by the per-term evaluator kept
in ``tests/_series_eval_oracle.py``: every value lies within its bound of
both, and its bound stays within 16 times the per-term one.
"""

from __future__ import annotations

import math
import re
import time
from fractions import Fraction

import _interval_theta
import _series_eval_oracle
import _theta_oracle
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from test_libmp_spellings import MPMATH

from admissible_sl2 import numeric
from admissible_sl2.characters import (
    CharacterSpec,
    character_qseries,
    chibar_lowest_exponent,
)
from admissible_sl2.errors import InputError
from admissible_sl2.numeric import (
    DEFAULT_PREC,
    ComplexVal,
    character_eval_numeric,
    modular_data,
    qseries_eval_numeric,
    s_transform_residual,
    theta_eval_numeric,
)
from admissible_sl2.qseries import QSeries, ThetaSpec
from admissible_sl2.weights import AdmissibleWeight, Level, enumerate_admissible

LEVELS_TO_8_5 = [(p, q) for p in range(2, 9) for q in range(1, 6) if math.gcd(p, q) == 1]


def _brute_theta(spec: ThetaSpec, tau, prec=320, window=120):
    """Definition-level lattice sum over a fixed symmetric window."""
    with mp.workprec(prec):
        tau_v = mp.mpc(tau)
        z = spec.z
        if isinstance(z, Fraction):
            z = mp.mpf(z.numerator) / z.denominator
        z = mp.mpc(z)
        off = mp.mpf(spec.n) / (2 * spec.m)
        total = mp.mpc(0)
        for i in range(-window, window + 1):
            j = i + off
            total += mp.expjpi(2 * spec.m * (j * j + j * z) * tau_v)
        return total


THETA_CASES = [
    (ThetaSpec(0, 1, Fraction(0)), mp.mpc(0, 1)),
    (ThetaSpec(1, 2, Fraction(1, 2)), mp.mpc(0, 1)),
    (ThetaSpec(-1, 2, Fraction(1, 2)), mp.mpc("0.25", "1.5")),
    (ThetaSpec(5, 6, Fraction(1, 3)), mp.mpc("-0.4", "0.7")),
    (ThetaSpec(2, 6, mp.mpc("0.3", "0.2")), mp.mpc(0, 2)),
]


@pytest.mark.parametrize("spec,tau", THETA_CASES)
def test_theta_eval_matches_brute_force(spec, tau):
    val = theta_eval_numeric(spec, tau, tol=mp.mpf("1e-30"), prec=256)
    oracle = _brute_theta(spec, tau)
    with mp.workprec(320):
        assert abs(val.value - oracle) <= val.err + mp.mpf("1e-60")


def test_theta_constant_fixed_point():
    # theta_{0,1}(tau=i/2) = sum e^{-pi j^2} = pi^{1/4} / Gamma(3/4)
    val = theta_eval_numeric(
        ThetaSpec(0, 1, Fraction(0)), mp.mpc(0, "0.5"), tol=mp.mpf("1e-35"), prec=192
    )
    with mp.workprec(192):
        classical = mp.pi ** mp.mpf("0.25") / mp.gamma(mp.mpf(3) / 4)
        assert abs(val.value - classical) <= val.err + mp.mpf("1e-40")
        assert abs(mp.im(val.value)) <= val.err


def test_theta_error_bound_honesty_across_precisions():
    spec = ThetaSpec(3, 4, Fraction(2, 5))
    tau = mp.mpc("0.125", "0.75")
    lo = theta_eval_numeric(spec, tau, tol=mp.mpf("1e-20"), prec=96)
    hi = theta_eval_numeric(spec, tau, tol=mp.mpf("1e-40"), prec=256)
    with mp.workprec(256):
        assert abs(lo.value - hi.value) <= lo.err + hi.err
    assert lo.err < mp.mpf("1e-20")
    assert hi.err < mp.mpf("1e-40")


def test_theta_eval_guards():
    spec = ThetaSpec(0, 1, Fraction(0))
    with pytest.raises(InputError, match="requires Im"):
        theta_eval_numeric(spec, mp.mpc(1, 0), tol=mp.mpf("1e-10"))
    with pytest.raises(InputError, match="requires Im"):
        theta_eval_numeric(spec, mp.mpc(0, -1), tol=mp.mpf("1e-10"))
    with pytest.raises(InputError, match="tolerance must be positive"):
        theta_eval_numeric(spec, mp.mpc(0, 1), tol=0)
    with pytest.raises(InputError, match="double range"):
        theta_eval_numeric(spec, mp.mpc(0, "1e400"), tol=mp.mpf("1e-10"))
    with pytest.raises(InputError, match="rounding budget"):
        # 53-bit rounding floor sits far above the requested 1e-40
        theta_eval_numeric(spec, mp.mpc(0, 1), tol=mp.mpf("1e-40"), prec=53)


def test_theta_term_cap_raises_before_summing():
    # R ~ 7.5e5 terms per side would be needed; the cap is 2e5
    start = time.process_time()
    with pytest.raises(InputError, match="term cap.*at least [0-9]+ terms per side"):
        theta_eval_numeric(
            ThetaSpec(1, 2, Fraction(1, 3)), mp.mpc(0, "1e-11"), tol=mp.mpf("1e-30"), prec=192
        )
    assert time.process_time() - start < 1


# -- the float bookkeeping against the all-mpf per-term evaluator --------------

_complex_z = st.builds(
    lambda re, im: mp.mpc(re, im),
    st.floats(min_value=-1, max_value=1),
    st.floats(min_value=-1, max_value=1),
)
_rational_z = st.fractions(min_value=-2, max_value=2, max_denominator=12)
_THETA_DRAWS = dict(
    m=st.integers(min_value=1, max_value=40),
    n=st.integers(min_value=-40, max_value=40),
    z=st.one_of(_rational_z, _complex_z),
    re_tau=st.fractions(min_value=-3 / 2, max_value=3 / 2, max_denominator=1000),
    im_tau=st.fractions(min_value=Fraction(1, 20), max_value=3, max_denominator=1000),
    tol_exp=st.integers(min_value=10, max_value=40),
    prec=st.sampled_from([128, 192]),
)


def _tau_from(re_tau: Fraction, im_tau: Fraction, prec: int):
    with mp.workprec(prec):
        return mp.mpc(re_tau.numerator, 0) / re_tau.denominator + mp.mpc(
            0, im_tau.numerator
        ) / im_tau.denominator


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(**_THETA_DRAWS)
def test_theta_recurrence_matches_direct_evaluator(m, n, z, re_tau, im_tau, tol_exp, prec):
    spec = ThetaSpec(n, m, z)
    tol = mp.mpf(10) ** -tol_exp
    tau = _tau_from(re_tau, im_tau, prec)
    try:
        oracle = _theta_oracle.theta_eval_numeric(spec, tau, tol, prec)
    except InputError:
        # the rounding floor (count + 16) eps sum|term| is above tol/4 at this prec
        with pytest.raises(InputError, match="rounding budget"):
            theta_eval_numeric(spec, tau, tol, prec)
        return
    try:
        val = theta_eval_numeric(spec, tau, tol, prec)
    except InputError as exc:
        # the argument-rounding allowance alone lifts the budget past tol/4
        assert "rounding budget" in str(exc)
        event("only the float-bookkeeping evaluator exceeds the rounding budget")
        return
    assert val.value == oracle.value
    assert val.prec == oracle.prec
    with mp.workprec(320):
        assert val.err >= oracle.err
        assert abs(val.value - _brute_theta(spec, tau)) <= val.err


def test_theta_bound_covers_term_argument_rounding():
    # tails are ~1e-62 here, so the rounding term is the whole bound; without
    # the rounding of each term's argument the brute-force sum sat ~7x outside it
    spec = ThetaSpec(-13, 40, Fraction(-5, 7))
    with mp.workprec(192):
        tau = mp.mpc(-3, 0) / 2 + mp.mpc(0, 1) / 2
    val = theta_eval_numeric(spec, tau, tol=mp.mpf(10) ** -10, prec=192)
    with mp.workprec(400):
        assert abs(val.value - _brute_theta(spec, tau, prec=400, window=150)) <= val.err


# the left side of the law at (5,3), z = 2/7, tau = 0.3 + 0.8i: (-1/tau, tau z)
_LHS_Z = mp.mpc("0.3", "0.8") * 2 / 7


# about a fifth of the draws ask for a tol below the rounding floor at their
# precision, so 640 leave over 500 checked
@settings(max_examples=640, derandomize=True, database=None, deadline=None)
@given(**_THETA_DRAWS)
@example(m=16, n=22, z=Fraction(0), re_tau=Fraction(0), im_tau=Fraction(163, 60),
         tol_exp=10, prec=128)  # every term is in the tail
@example(m=15, n=3, z=_LHS_Z, re_tau=Fraction(-30, 73), im_tau=Fraction(80, 73),
         tol_exp=20, prec=192)
def test_theta_bound_encloses_interval_referee(m, n, z, re_tau, im_tau, tol_exp, prec):
    spec = ThetaSpec(n, m, z)
    tau = _tau_from(re_tau, im_tau, prec)
    try:
        val = theta_eval_numeric(spec, tau, mp.mpf(10) ** -tol_exp, prec)
    except InputError as exc:
        assert "rounding budget" in str(exc)
        event("rounding budget above tol/4")
        return
    center, radius = _interval_theta.theta_enclosure(spec, tau, prec)
    with mp.workprec(prec + 64):
        assert abs(val.value - center) + radius <= val.err


_LEVELS_TO_7_4 = [(p, q) for p in range(2, 8) for q in range(1, 5) if math.gcd(p, q) == 1]


@st.composite
def _weights_to_7_4(draw):
    p, q = draw(st.sampled_from(_LEVELS_TO_7_4))
    return AdmissibleWeight(Level(p, q), draw(st.integers(0, p - 2)), draw(st.integers(0, q - 1)))


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(
    weight=_weights_to_7_4(),
    z=st.integers(2, 7).flatmap(lambda u: st.integers(1, u - 1).map(lambda v: Fraction(v, u))),
    lhs=st.booleans(),
    re_tau=st.fractions(min_value=-3 / 2, max_value=3 / 2, max_denominator=1000),
    im_tau=st.fractions(min_value=Fraction(1, 5), max_value=2, max_denominator=1000),
    tol_exp=st.integers(min_value=10, max_value=30),
    prec=st.sampled_from([128, 192]),
)
def test_quotient_bound_encloses_interval_referee(weight, z, lhs, re_tau, im_tau, tol_exp, prec):
    # lhs: the law's left side, at (-1/tau, tau z) with a complex z
    tau = _tau_from(re_tau, im_tau, prec)
    with mp.workprec(prec):
        if lhs:
            tau, z = -1 / tau, tau * mp.mpf(z.numerator) / z.denominator
        try:
            val = numeric._chibar_numeric(weight, tau, z, mp.mpf(10) ** -tol_exp, prec)
        except InputError as exc:
            assert "rounding budget" in str(exc)
            event("rounding budget above tol/4")
            return
        center, radius = _interval_theta.quotient_enclosure(weight, tau, z, prec)
    with mp.workprec(prec + 64):
        assert abs(val.value - center) + radius <= val.err


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    weight=_weights_to_7_4(),
    z=st.integers(2, 7).flatmap(lambda u: st.integers(1, u - 1).map(lambda v: Fraction(v, u))),
    re_tau=st.fractions(min_value=-3 / 2, max_value=3 / 2, max_denominator=1000),
    im_tau=st.fractions(min_value=Fraction(1, 5), max_value=2, max_denominator=1000),
    tol_exp=st.integers(min_value=10, max_value=30),
)
def test_chi_bound_encloses_interval_referee(weight, z, re_tau, im_tau, tol_exp):
    # chi = q^shift times the quotient: the bound must cover the prefactor's
    # error and the product's rounding as well as the quotient's
    spec = CharacterSpec(weight, z)
    tau = _tau_from(re_tau, im_tau, DEFAULT_PREC)
    try:
        val = character_eval_numeric(spec, tau, tol=mp.mpf(10) ** -tol_exp, kind="chi")
    except InputError as exc:
        assert "rounding budget" in str(exc)
        event("rounding budget above tol/4")
        return
    center, radius = _interval_theta.chi_enclosure(spec, tau, DEFAULT_PREC)
    with mp.workprec(DEFAULT_PREC + 64):
        assert abs(val.value - center) + radius <= val.err


def test_chi_bound_counts_its_prefactors_error():
    # character --p 8 --q 1 --n 3 --k 0 --z 9/10 --tau=1.4,0.6 --tol 1e-26:
    # there |shift| |tau|_1 is past 0.7, and q^shift's relative error r,
    # about 18 eps, is more than the 8 eps of the product's rounding, so the
    # bound must count |pref| r (|quot| + err(quot)) besides |pref| err(quot)
    spec = CharacterSpec(AdmissibleWeight(Level(8, 1), 3, 0), Fraction(9, 10))
    tol = mp.mpf("1e-26") / 100  # as verify.series_numeric_agreement asks it
    val = character_eval_numeric(spec, _cli_tau("1.4,0.6"), tol=tol, kind="chi")
    shift = spec.shift("chi")
    with mp.workprec(DEFAULT_PREC):
        tau = mp.mpc(_cli_tau("1.4,0.6"))
        eps = mp.mpf(2) ** (1 - DEFAULT_PREC)
        pref = numeric._q_power(shift, tau)
        r = numeric._q_power_error(shift, tau)
        quot_tol = tol / (2 * max(abs(pref), 1))
        quot = numeric._chibar_numeric(spec.weight, tau, spec.z, quot_tol, DEFAULT_PREC)
        assert 18 * eps < r < 19 * eps
        assert val.err >= abs(pref) * (quot.err + r * (abs(quot.value) + quot.err))


@settings(max_examples=24, derandomize=True, database=None, deadline=None)
@given(
    level=st.sampled_from(_LEVELS_TO_7_4),
    z=st.integers(2, 7).flatmap(lambda u: st.integers(1, u - 1).map(lambda v: Fraction(v, u))),
    re_tau=st.fractions(min_value=-1, max_value=1, max_denominator=1000),
    im_tau=st.fractions(min_value=Fraction(2, 5), max_value=2, max_denominator=1000),
    tol_exp=st.integers(min_value=10, max_value=30),
)
def test_residual_errors_enclose_interval_referee(level, z, re_tau, im_tau, tol_exp):
    # the law is a theorem, so each final residual is within its bound of 0;
    # each partial residual lies within its bound of the exact one
    report = s_transform_residual(
        modular_data(Level(*level)), z, _tau_from(re_tau, im_tau, 192), tol=mp.mpf(10) ** -tol_exp
    )
    enclosures = _interval_theta.residual_enclosures(report)
    with mp.workprec(256):
        for i, row in enumerate(enclosures):
            assert report["final_residuals"][i] <= report["residual_errors"][i][-1]
            for m, (lo, hi) in enumerate(row):
                res, err = report["residual_partial_sums"][i][m], report["residual_errors"][i][m]
                assert res - err <= lo and hi <= res + err, (i, m)


@pytest.mark.parametrize(
    "rhs_shift, lhs_shift, errs_only",
    [
        (-1200, -1200, False),  # every |chibar|, |lhs| and err below the double range
        (1300, 1300, False),  # every one above it
        (-1100, 0, False),  # the chibar side below it, the left side in it
        (0, 1300, False),  # the left side above it
        (-1200, -1200, True),  # the errs alone below it
    ],
)
def test_residual_bound_outside_the_double_range(monkeypatch, rhs_shift, lhs_shift, errs_only):
    # each quotient scaled by a power of two past the double range: every
    # bound stays at least the mpf sum it stands for, and within 1e-9 of it
    direct = numeric._chibar_side
    scaled_sides = []

    def scaled(weights, tau, zval, tol):
        shift = rhs_shift if isinstance(zval, Fraction) else lhs_shift
        scaled_sides.append("rhs" if isinstance(zval, Fraction) else "lhs")
        vals, theta_max = direct(weights, tau, zval, tol)
        out = []
        for val in vals:
            value = val.value if errs_only else val.value * mp.mpf(2) ** shift
            out.append(ComplexVal(value, val.err * mp.mpf(2) ** shift, val.prec))
        return out, theta_max

    monkeypatch.setattr(numeric, "_chibar_side", scaled)
    report = s_transform_residual(
        modular_data(Level(5, 3)), Fraction(2, 7), mp.mpc("0.3", "0.8"), tol=mp.mpf("1e-20")
    )
    assert scaled_sides == ["rhs", "lhs"]  # both sides' quotients went through the scaling
    # the rounding count above the error sum is of order 2^-185 of the largest
    # |lhs_i| or |factor chibar_j|, and no more
    with mp.workprec(400):
        f = abs(report["factor"])
        top = max([abs(v.value) for v in report["lhs"]] + [f * abs(v.value) for v in report["chibar"]])
        count = top * len(report["weights"]) * mp.mpf(2) ** -170
        for lhs, s_row, err_row in zip(report["lhs"], report["s_matrix"], report["residual_errors"]):
            r_err = mp.mpf(0)
            for chi, s_ij, got in zip(report["chibar"], s_row, err_row):
                r_err += abs(s_ij) * chi.err
                want = lhs.err + f * r_err
                assert want <= got <= want * (1 + mp.mpf("1e-9")) + count


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    parts=st.lists(st.integers(-(2**40), 2**40), min_size=8, max_size=8),
    rho=st.floats(min_value=0.05, max_value=0.49),
    share=st.floats(min_value=0, max_value=0.3),
    den_split=st.floats(min_value=0, max_value=1),
    num_split=st.floats(min_value=0, max_value=1),
    scale=st.integers(-600, 600),
    prec=st.sampled_from([128, 192]),
)
def test_quotient_bound_covers_the_worst_point_of_the_error_disks(
    parts, rho, share, den_split, num_split, scale, prec
):
    # the interval referees see real thetas, whose errors are tiny beside
    # |den|; here e_den is up to half of |den| and e_num up to 0.3 |num|.  At
    # the worst point den shrinks along itself by e_den and num grows along
    # itself by e_num, so N/D moves along the quotient by exactly M
    with mp.workprec(prec):
        th_p, th_m, th_1, th_m1 = (
            mp.mpc(mp.ldexp(re_part, scale - 40), mp.ldexp(im_part, scale - 40))
            for re_part, im_part in zip(parts[::2], parts[1::2])
        )
    with mp.workprec(prec + 64):  # every difference is exact
        num, den = th_p - th_m, th_1 - th_m1
        assume(num != 0 and den != 0)
        e_den, e_num = rho * abs(den), share * abs(num)
        errs = [e_num * num_split, e_num * (1 - num_split), e_den * den_split, e_den * (1 - den_split)]
    with mp.workprec(prec):
        thetas = [ComplexVal(v, +e, prec) for v, e in zip((th_p, th_m, th_1, th_m1), errs)]
        denominator = numeric._denominator(*thetas[2:], mp.mpf(0))
        got = numeric._quotient(*thetas[:2], denominator, mp.inf)
    with mp.workprec(prec + 64):
        e_num, e_den = thetas[0].err + thetas[1].err, thetas[2].err + thetas[3].err
        worst = num * (1 + e_num / abs(num)) / (den * (1 - e_den / abs(den)))
        assert abs(got.value - worst) <= got.err


def test_quotient_bound_below_the_double_range():
    # the theta errs are near 1e-332, below the smallest double
    weight = AdmissibleWeight(Level(3, 2), 1, 1)
    tau = mp.mpc("0.125", "0.75")
    tol = mp.mpf("1e-320")
    val = numeric._chibar_numeric(weight, tau, Fraction(1, 3), tol, 1200)
    assert 0 < val.err <= tol
    center, radius = _interval_theta.quotient_enclosure(weight, tau, Fraction(1, 3), 1200)
    with mp.workprec(1264):
        assert abs(val.value - center) + radius <= val.err


def test_a_complex_z_is_divided_at_the_quotients_own_precision():
    # the law's left side at (5,3): z = tau/3 is divided by q = 3 at the
    # quotient's 192 bits whatever the caller's precision, so the ambient 53
    # bits and workprec(192) give the same value and bound, bit for bit
    weight = enumerate_admissible(Level(5, 3))[4]
    with mp.workprec(192):
        tau = mp.mpc("0.3", "0.8")
        tau2, z2 = -1 / tau, tau * (mp.mpf(1) / 3)
    tol = mp.mpf("1e-25")
    ambient = numeric._chibar_numeric(weight, tau2, z2, tol, 192)
    with mp.workprec(192):
        at_prec = numeric._chibar_numeric(weight, tau2, z2, tol, 192)
    assert (ambient.value._mpc_, ambient.err._mpf_) == (at_prec.value._mpc_, at_prec.err._mpf_)


def test_theta_bound_below_the_double_range():
    # 2^(1 - prec) and tol/4 both underflow a double here
    spec = ThetaSpec(3, 4, Fraction(2, 5))
    tau = mp.mpc("0.125", "0.75")
    tol = mp.mpf("1e-320")
    val = theta_eval_numeric(spec, tau, tol, prec=1200)
    assert 0 < val.err < tol
    center, radius = _interval_theta.theta_enclosure(spec, tau, 1200)
    with mp.workprec(1300):
        assert abs(val.value - _brute_theta(spec, tau, prec=1300, window=40)) <= val.err
        assert abs(val.value - center) + radius <= val.err


def test_theta_bound_above_the_double_range():
    # the largest term is about e^1885, past the largest double
    spec = ThetaSpec(-400, 400, Fraction(1))
    tau = mp.mpc(0, 3)
    with pytest.raises(InputError, match="rounding budget"):
        theta_eval_numeric(spec, tau, mp.mpf("1e-30"))
    val = theta_eval_numeric(spec, tau, mp.mpf("1e800"))
    with mp.workprec(400):
        brute = _brute_theta(spec, tau, prec=400, window=20)
        assert abs(brute) > mp.mpf("1e818")
        assert abs(val.value - brute) <= val.err < mp.mpf("1e800")


def test_theta_takes_one_exp_and_one_log_per_call(monkeypatch):
    class CountingMp:
        """``mp`` for one module, counting its ``exp``, ``log`` and ``expjpi`` calls."""

        def __init__(self):
            self.calls = {"exp": 0, "log": 0, "expjpi": 0}

        def __getattr__(self, name):
            attr = getattr(mp, name)
            if name not in self.calls:
                return attr

            def counted(*args):
                self.calls[name] += 1
                return attr(*args)

            return counted

    cases = [
        (ThetaSpec(22, 16, Fraction(0)), mp.mpc(0, 1) * 163 / 60, 10, 128),  # no term
        (ThetaSpec(1, 2, Fraction(1, 2)), mp.mpc(0, 1), 30, 128),
        (ThetaSpec(2, 6, mp.mpc("0.3", "0.2")), mp.mpc(0, 2), 40, 192),
        (ThetaSpec(1, 1, Fraction(1, 3)), mp.mpc("0.4", "0.05"), 30, 192),  # dozens of terms
    ]
    summed = []
    for spec, tau, tol_exp, prec in cases:
        ours, oracle = CountingMp(), CountingMp()
        monkeypatch.setattr(numeric, "mp", ours)
        monkeypatch.setattr(_theta_oracle, "mp", oracle)
        val = theta_eval_numeric(spec, tau, mp.mpf(10) ** -tol_exp, prec)
        ref = _theta_oracle.theta_eval_numeric(spec, tau, mp.mpf(10) ** -tol_exp, prec)
        monkeypatch.undo()
        assert val.value == ref.value
        assert ours.calls["exp"] <= 1 and ours.calls["log"] <= 1
        # the oracle takes one expjpi per summed term, on the same terms
        assert ours.calls["expjpi"] == oracle.calls["expjpi"]
        summed.append(ours.calls["expjpi"])
    assert summed[0] == 0 and summed[-1] > 20


def test_qseries_eval_hand_value():
    series = QSeries.from_terms(
        [(Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(-3))], Fraction(10)
    )
    val = qseries_eval_numeric(series, mp.mpc(0, 1))
    with mp.workprec(128):
        expected = 1 - 3 * mp.exp(-mp.pi)
        assert abs(val.value - expected) <= val.err + mp.mpf("1e-35")


def _ref_series(series: QSeries, tau, prec=600):
    """Per-term sum at ``prec`` bits and a bound on its own rounding.

    Term m is c_m e^{i pi m x} with x = 2 tau / D.  Its argument m x takes
    two roundings, so it is within |m| |x| eps of exact, and the term is
    within (1 + pi |m| |x|) eps of its modulus (the exponential and its
    argument, to first order); the sum adds one rounding per term.  The
    factors 2 and 16 leave room for the higher orders, and |Re| + |Im| stands
    in for every modulus.
    """
    with mp.workprec(prec):
        eps = mp.mpf(2) ** (1 - prec)
        x = 2 * tau / series.denom
        sum_abs = weighted = mp.mpf(0)
        total = mp.mpc(0)
        for m, c in series.terms.items():
            term = mp.mpf(c.numerator) / c.denominator * mp.expjpi(m * x)
            total += term
            size = abs(term.real) + abs(term.imag)
            sum_abs += size
            weighted += size * abs(m)
        x_l1 = abs(x.real) + abs(x.imag)
        n = len(series.terms)
        return total, ((n + 16) * sum_abs + 2 * mp.pi * x_l1 * weighted) * eps


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    level_at=st.sampled_from(LEVELS_TO_8_5),
    pick=st.integers(min_value=0, max_value=10**6),
    u=st.integers(min_value=2, max_value=7),
    v_pick=st.integers(min_value=0, max_value=10**6),
    trunc=st.integers(min_value=1, max_value=160),
    kind=st.sampled_from(["chi", "chibar"]),
    scale=st.one_of(
        st.just(Fraction(1)), st.fractions(min_value=-50, max_value=50, max_denominator=97)
    ),
    shift=st.one_of(
        st.just(Fraction(0)), st.fractions(min_value=-5, max_value=0, max_denominator=12)
    ),
    re_tau=st.fractions(min_value=-3 / 2, max_value=3 / 2, max_denominator=1000),
    im_tau=st.fractions(min_value=Fraction(1, 40), max_value=3, max_denominator=1000),
)
def test_series_walk_within_bounds_of_reference_and_per_term_sum(
    level_at, pick, u, v_pick, trunc, kind, scale, shift, re_tau, im_tau
):
    level = Level(*level_at)
    weights = enumerate_admissible(level)
    vs = [v for v in range(1, u) if math.gcd(v, u) == 1]
    spec = CharacterSpec(weights[pick % len(weights)], Fraction(vs[v_pick % len(vs)], u))
    # the order must pass the lowest exponent, as ``character --trunc`` requires
    order = max(Fraction(trunc), chibar_lowest_exponent(spec) + spec.shift(kind) + 1)
    series = character_qseries(spec, order, kind=kind)
    if scale:
        terms = {m: scale * c for m, c in series.terms.items()}
        series = QSeries(series.denom, terms, series.order)
    series = series.shift_exponents(shift)
    low = series.lowest()
    if low is None:
        event("empty series")
    else:
        event(f"lowest exponent {'< 0' if low[0] < 0 else '>= 0'}")
        event("Fraction coefficients" if low[1].denominator > 1 else "int coefficients")
    with mp.workprec(128):
        tau = mp.mpc(re_tau.numerator, 0) / re_tau.denominator + mp.mpc(
            0, im_tau.numerator
        ) / im_tau.denominator
    new = qseries_eval_numeric(series, tau)
    old = _series_eval_oracle.qseries_eval_numeric(series, tau)
    ref, ref_err = _ref_series(series, tau)
    with mp.workprec(600):
        assert abs(new.value - ref) <= new.err + ref_err
        assert abs(new.value - old.value) <= new.err + old.err
        assert new.err <= 16 * old.err


def test_series_walk_takes_one_exponential_per_gap(monkeypatch):
    calls = []
    direct = numeric._q_power

    def counting(e, tau):
        calls.append(e)
        return direct(e, tau)

    monkeypatch.setattr(numeric, "_q_power", counting)
    spec = CharacterSpec(enumerate_admissible(Level(5, 3))[3], Fraction(2, 7))
    series = character_qseries(spec, Fraction(30), kind="chi")
    keys = sorted(series.terms)
    gaps = {b - a for a, b in zip(keys, keys[1:])}
    assert len(keys) > 2 * len(gaps) + 2  # the walk does reuse its gaps
    qseries_eval_numeric(series, mp.mpc("0.3", "0.5"))
    assert len(calls) == 1 + len(gaps)

    # the (2,1) vacuum is exactly 1: no step and no rounding
    vacuum = CharacterSpec(AdmissibleWeight(Level(2, 1), 0, 0), Fraction(1, 2))
    calls.clear()
    series = character_qseries(vacuum, Fraction(30), kind="chibar")
    val = qseries_eval_numeric(series, mp.mpc(0, 1))
    assert val.value == mp.mpc(1)
    assert len(calls) == 1


def test_character_eval_guards():
    spec = CharacterSpec(AdmissibleWeight(Level(3, 2), 1, 0), Fraction(1, 2))
    with pytest.raises(InputError, match="kind must be"):
        character_eval_numeric(spec, mp.mpc(0, 1), tol=mp.mpf("1e-8"), kind="nope")
    with pytest.raises(InputError, match="tolerance must be positive"):
        character_eval_numeric(spec, mp.mpc(0, 1), tol=-1)
    with pytest.raises(InputError, match="requires Im"):
        character_eval_numeric(spec, mp.mpc(0, -2), tol=mp.mpf("1e-8"))
    with pytest.raises(InputError, match="theta denominator"):
        # |theta_1 - theta_{-1}| at tau = i is about 2, below the 10*tol guard
        character_eval_numeric(spec, mp.mpc(0, 1), tol=1)


def test_trivial_theory_character_is_one():
    # (p, q) = (2, 1) vacuum: the normalized character is identically 1
    spec = CharacterSpec(AdmissibleWeight(Level(2, 1), 0, 0), Fraction(1, 2))
    for tau in (mp.mpc(0, 1), mp.mpc("0.3333", "1.5")):
        val = character_eval_numeric(spec, tau, tol=mp.mpf("1e-20"), kind="chibar")
        assert abs(val.value - 1) <= val.err + mp.mpf("1e-20")


@pytest.mark.parametrize("p,q", [(3, 2), (5, 3)])
def test_series_agrees_with_certified_evaluation(p, q):
    # two independent routes: exact q-expansion vs adaptive theta quotient
    level = Level(p, q)
    bound = mp.mpf("1e-8")
    for w in enumerate_admissible(level):
        spec = CharacterSpec(w, Fraction(1, 2))
        for kind in ("chi", "chibar"):
            series = character_qseries(spec, Fraction(30), kind=kind)
            for tau in (mp.mpc(0, 1), mp.mpc(0, 2)):
                direct = character_eval_numeric(spec, tau, tol=bound / 100, kind=kind)
                via_series = qseries_eval_numeric(series, tau)
                diff = abs(direct.value - via_series.value)
                assert diff <= bound + direct.err + via_series.err, (w.j, kind, tau)


def test_s_transform_variant_guards():
    data = modular_data(Level(2, 1))
    with pytest.raises(InputError, match="variant must be"):
        s_transform_residual(data, Fraction(1, 2), mp.mpc(0, 1), variant="KW3")
    with pytest.raises(InputError, match="tolerance must be positive"):
        s_transform_residual(data, Fraction(1, 2), mp.mpc(0, 1), tol=0)
    with pytest.raises(InputError, match="requires Im"):
        s_transform_residual(data, Fraction(1, 2), mp.mpc(0, -1))


@pytest.mark.parametrize("tau", [0, mp.mpf(2), mp.mpc(-1, 0)], ids=["0", "2", "-1"])
def test_real_tau_is_rejected_up_front(tau):
    # at tau = 0 the S-transform's -1/tau would otherwise divide by zero
    level = Level(3, 2)
    spec = CharacterSpec(AdmissibleWeight(level, 1, 0), Fraction(1, 2))
    with pytest.raises(InputError, match="requires Im"):
        theta_eval_numeric(ThetaSpec(1, 2, Fraction(1, 2)), tau, tol=mp.mpf("1e-10"))
    with pytest.raises(InputError, match="requires Im"):
        character_eval_numeric(spec, tau, tol=mp.mpf("1e-10"))
    with pytest.raises(InputError, match="requires Im"):
        qseries_eval_numeric(character_qseries(spec, Fraction(10)), tau)
    with pytest.raises(InputError, match="requires Im"):
        s_transform_residual(modular_data(level), Fraction(1, 2), tau)


@pytest.mark.parametrize("bad", ["tol", "im_tau", "re_tau=nan", "re_tau=inf", "re_tau=-inf"])
def test_nan_input_is_refused_at_once(bad):
    # NaN fails every comparison, so a guard written as `tol <= 0` or
    # `Im(tau) <= 0` lets it through to the term cap or to an int conversion;
    # a non-finite Re(tau) passes `Im(tau) > 0` and must be refused as tau
    level = Level(3, 2)
    spec = CharacterSpec(AdmissibleWeight(level, 1, 0), Fraction(1, 2))
    nan = mp.mpf("nan")
    tol, tau, named = mp.mpf("1e-10"), mp.mpc(0, 1), "nan"
    if bad == "tol":
        tol = nan
    elif bad == "im_tau":
        tau = mp.mpc(0, nan)
    else:
        value = bad.split("=")[1]
        tau, named = mp.mpc(value, 1), re.escape(f"finite tau, got tau = ({mp.mpf(value)}")
    series = character_qseries(spec, Fraction(10))
    evaluators = {
        "theta": lambda: theta_eval_numeric(ThetaSpec(1, 2, Fraction(1, 2)), tau, tol=tol),
        "character": lambda: character_eval_numeric(spec, tau, tol=tol),
        "stransform": lambda: s_transform_residual(modular_data(level), Fraction(1, 2), tau, tol=tol),
    }
    if bad != "tol":  # the series walk takes no tolerance
        evaluators["series"] = lambda: qseries_eval_numeric(series, tau)
    for name, evaluate in evaluators.items():
        start = time.process_time()
        with pytest.raises(InputError, match=named):
            evaluate()
        assert time.process_time() - start < 0.5, name


def test_s_transform_residual_takes_the_levels_value_and_builds_no_s(monkeypatch):
    # the level's part is built once by modular_data; each (tau, z) after it
    # enumerates no weight and forms no phase class, and its results hold
    # the value's own lists
    data = modular_data(Level(5, 3))

    def refuse(*args):
        raise AssertionError("s_transform_residual rebuilt what modular_data holds")

    monkeypatch.setattr(numeric, "_phase_class", refuse)
    monkeypatch.setattr(numeric, "enumerate_admissible", refuse)
    for tau, z in ((mp.mpc("0.3", "0.8"), Fraction(2, 7)), (mp.mpc(0, "1.5"), Fraction(1, 3))):
        for variant in ("KW1", "KW2"):
            results = s_transform_residual(data, z, tau, variant=variant, tol=mp.mpf("1e-12"))
            assert results["s_matrix"] is data.s_matrix
            assert results["as_printed_s_matrix"] is data.printed_matrix
            assert results["weights"] is data.weights


def test_s_transform_trivial_theory():
    # one weight; S = (1), factor = 1 at ell = 0 ... ell = -1/2 here, so the
    # factor is a genuine phase yet the single residual still vanishes
    report = s_transform_residual(
        modular_data(Level(2, 1)), Fraction(1, 2), mp.mpc(0, 1), variant="KW2"
    )
    assert len(report["weights"]) == 1
    with mp.workprec(192):
        assert abs(report["s_matrix"][0][0] - 1) < mp.mpf("1e-40")
        assert (
            report["residual_partial_sums"][0][-1]
            <= mp.mpf("1e-10") + report["residual_errors"][0][-1]
        )


def test_s_transform_classical_matrix_at_q_1():
    # q = 1 reduces to the su(2)_k matrix sqrt(2/p) sin(pi (n+1)(n'+1) / p)
    level = Level(4, 1)
    report = s_transform_residual(modular_data(level), Fraction(1, 2), mp.mpc(0, 1), variant="KW2")
    with mp.workprec(192):
        for i, wi in enumerate(report["weights"]):
            for j, wj in enumerate(report["weights"]):
                classical = mp.sqrt(mp.mpf(2) / 4) * mp.sin(
                    mp.pi * (wi.n + 1) * (wj.n + 1) / 4
                )
                assert abs(report["s_matrix"][i][j] - classical) < mp.mpf("1e-40")
        for i in range(3):
            assert (
                report["residual_partial_sums"][i][-1]
                <= mp.mpf("1e-10") + report["residual_errors"][i][-1]
            )
        # conjugation is invisible at q = 1: both spellings give the same law
        for r in report["as_printed_final_residuals"]:
            assert r <= mp.mpf("1e-9")


def test_s_transform_fixture_3_2():
    data = modular_data(Level(3, 2))
    tau = mp.mpc(0, "1.5")
    tol = mp.mpf("1e-10")
    report = s_transform_residual(data, Fraction(1, 2), tau, variant="KW2", tol=tol)
    n_w = len(report["weights"])
    assert n_w == 4
    assert report["theta_error_max"] <= mp.mpf("1e-9")
    with mp.workprec(192):
        # the law holds with the Poisson-summation matrix and the tau factor
        for i in range(n_w):
            assert report["residual_partial_sums"][i][-1] <= tol + report["residual_errors"][i][-1], i
        # S is symmetric
        for i in range(n_w):
            for j in range(n_w):
                assert abs(report["s_matrix"][i][j] - report["s_matrix"][j][i]) < mp.mpf("1e-30")
        # rows with k = 0 have real phases: conjugation changes nothing there
        for i, w in enumerate(report["weights"]):
            if w.k == 0:
                assert report["as_printed_final_residuals"][i] <= tol + report["residual_errors"][i][-1]
            else:
                # conjugate-phase spelling breaks the law on k != 0 rows
                assert report["as_printed_final_residuals"][i] > mp.mpf("0.5")
        # moving the factor to -1/tau breaks the law outright
        assert report["alt_factor"] is not None
        assert max(report["alt_final_residuals"]) > mp.mpf("0.05")

    kw1 = s_transform_residual(data, Fraction(1, 2), tau, variant="KW1", tol=tol)
    assert kw1["alt_final_residuals"] is None
    with mp.workprec(192):
        # without the factor the law fails on every row with nonvanishing lhs
        finals = [kw1["residual_partial_sums"][i][-1] for i in range(n_w)]
        assert finals[0] > mp.mpf("0.2") and finals[0] < mp.mpf("0.22")
        assert finals[1] > mp.mpf("0.17") and finals[1] < mp.mpf("0.19")


def _record(monkeypatch, name, calls):
    """Patch ``numeric.<name>`` to append its arguments to ``calls`` before it runs."""
    direct = getattr(numeric, name)

    def recording(*args):
        calls.append(args)
        return direct(*args)

    monkeypatch.setattr(numeric, name, recording)


def _assert_within_direct_bounds(report, side_calls):
    """Each chibar and lhs of ``report`` is ``_chibar_numeric``'s within the sum of both bounds."""
    direct = [
        numeric._chibar_numeric(w, tau, zval, tol, numeric._S_TRANSFORM_PREC)
        for weights, tau, zval, tol in side_calls
        for w in weights
    ]
    assert len(direct) == 2 * len(report["weights"])
    with mp.workprec(256):
        for val, ref in zip(report["chibar"] + report["lhs"], direct):
            assert abs(val.value - ref.value) <= val.err + ref.err


def test_stransform_shares_thetas_and_phases(monkeypatch):
    level = Level(5, 3)
    n_w = len(enumerate_admissible(level))
    walks, sides, theta_calls = [], [], []

    class PhaseCountingMp:
        """``mp`` for ``numeric``, recording each real argument of ``expjpi``."""

        def __getattr__(self, name):
            return getattr(mp, name)

        def expjpi(self, x):
            if isinstance(x, mp.mpf):
                phase_args.append(x)
            return mp.expjpi(x)

    phase_args = []
    _record(monkeypatch, "_theta_vector", walks)
    _record(monkeypatch, "_chibar_side", sides)
    _record(monkeypatch, "theta_eval_numeric", theta_calls)
    monkeypatch.setattr(numeric, "mp", PhaseCountingMp())
    tol = mp.mpf("1e-20")
    report = s_transform_residual(modular_data(level), Fraction(2, 7), mp.mpc("0.3", "0.8"), tol=tol)
    monkeypatch.undo()
    # no quotient retried: per side, one walk of the shared denominator pair
    # (m = 2), then one of every numerator residue (m = a)
    a = level.p * level.q
    assert theta_calls == []
    assert [w[0] for w in walks] == [2, a] * 2
    assert [len(side[0]) for side in sides] == [n_w, n_w]

    # each quotient against the direct evaluator, per weight and without
    # sharing: within the sum of the two bounds
    _assert_within_direct_bounds(report, sides)
    assert 0 < report["theta_error_max"] <= tol

    # both S-matrix spellings against the direct phase formula
    weights = report["weights"]
    with mp.workprec(192):
        pref = mp.mpc(0, -mp.mpf(1) / 2) * mp.sqrt(mp.mpf(2) / a)

        def x(b1, b2):
            f = Fraction(b1 * b2, a)
            return mp.mpf(f.numerator) / f.denominator

        s_matrix = [
            [pref * (mp.expjpi(x(wi.b_plus, wj.b_plus)) - mp.expjpi(x(wi.b_plus, wj.b_minus)))
             for wj in weights]
            for wi in weights
        ]
        printed = [
            [pref * (mp.expjpi(-x(wi.b_plus, wj.b_minus)) - mp.expjpi(-x(wi.b_plus, wj.b_plus)))
             for wj in weights]
            for wi in weights
        ]
    assert report["s_matrix"] == s_matrix
    assert report["as_printed_s_matrix"] == printed

    # one expjpi per class (|N| mod a, floor(log2(|N|/a))) of the products
    # N = b+_i b+-_j, shared by both spellings, at |N|/a for one N of the class
    def phase_class(n):
        e = 0
        while Fraction(abs(n), a) >= 2 ** (e + 1):
            e += 1
        while Fraction(abs(n), a) < Fraction(2) ** e:
            e -= 1
        return abs(n) % a, e

    products = {
        wi.b_plus * b for wi in weights for wj in weights for b in (wj.b_plus, wj.b_minus)
    }
    with mp.workprec(192):
        numerators = [int(mp.nint(x * a)) for x in phase_args]
        assert phase_args == [mp.mpf(n) / a for n in numerators]
    assert all(n > 0 for n in numerators)
    assert sorted(map(phase_class, numerators)) == sorted({phase_class(n) for n in products})
    assert (len(products), len(phase_args)) == (165, 61)  # 83 classes of (|N| mod 2a, binade)


def test_a_retried_quotient_walks_only_the_denominator_again(monkeypatch):
    # at tau = -0.03 + 0.05i quotients miss their bound over the first
    # denominator walk; the denominator is walked once more, to the depth the
    # largest missed |quot| asks, and the numerators are not walked again
    events = []
    _record(monkeypatch, "_theta_vector", events)
    _record(monkeypatch, "_chibar_side", events)
    with mp.workprec(256):  # as the CLI reads --tau=-0.03,0.05
        tau = mp.mpc(mp.mpf(-3) / 100, mp.mpf(5) / 100)
    report = s_transform_residual(modular_data(Level(5, 3)), Fraction(1, 3), tau, tol=mp.mpf("1e-11"))
    monkeypatch.undo()
    sides = [i for i, args in enumerate(events) if isinstance(args[0], list)]
    assert len(sides) == 2
    right = [args[0] for args in events[sides[0] + 1:sides[1]]]
    left = [args[0] for args in events[sides[1] + 1:]]
    assert right == [2, 15, 2]
    assert left.count(15) == 1 and 1 <= left.count(2) <= 2 and left[:2] == [2, 15]
    _assert_within_direct_bounds(report, [events[i] for i in sides])


_LEVELS_TO_12_8 = [(p, q) for p in range(2, 13) for q in range(1, 9) if math.gcd(p, q) == 1]


def test_phase_classes_give_the_direct_s_matrices_bit_for_bit():
    # e^{i pi N/a} is taken once per (|N| mod 2a, binade of |N|/a) class and
    # conjugated for N < 0, and an entry once per pair of signed classes; the
    # direct formula takes expjpi of every N/a, and the table's ints (the
    # parts A, B floored to 2^-200, |S_ij| in units 2^-62 from one isqrt of
    # the parts) come from the direct entries.  The units bound |S_ij| 2^62,
    # exceed its floor by at most 2, and their largest row sum is
    # max_row_abs, at least each row's sum of moduli.  The phase classes rest
    # on mpmath 1.3's expjpi, so a failure names the mpmath that ran.
    for p, q in _LEVELS_TO_12_8:
        data = numeric.modular_data(Level(p, q))
        weights, s_fixed, max_row_abs = data.weights, data.s_fixed, data.max_row_abs
        where = (p, q, MPMATH)
        assert weights == enumerate_admissible(Level(p, q)), where
        a = p * q
        with mp.workprec(192):
            s_matrix, printed = data.s_matrix, data.printed_matrix
            pref = mp.mpc(0, -mp.mpf(1) / 2) * mp.sqrt(mp.mpf(2) / a)
            direct: dict[Fraction, mp.mpc] = {}

            def phase(x: Fraction):
                if x not in direct:
                    direct[x] = mp.expjpi(mp.mpf(x.numerator) / x.denominator)
                return direct[x]

            row_sums, row_units = [], []
            for wi, s_row, printed_row, fixed_row in zip(weights, s_matrix, printed, s_fixed):
                row_sum, units_sum = mp.mpf(0), 0
                for wj, s_ij, printed_ij, fixed_ij in zip(weights, s_row, printed_row, fixed_row):
                    x_pp = Fraction(wi.b_plus * wj.b_plus, a)
                    x_pm = Fraction(wi.b_plus * wj.b_minus, a)
                    entry = pref * (phase(x_pp) - phase(x_pm))
                    assert s_ij == entry, where
                    assert printed_ij == pref * (phase(-x_pm) - phase(-x_pp)), where
                    assert abs(x_pp * a) + abs(x_pm * a) <= data.phase_reach, where
                    parts = [int(mp.floor(mp.ldexp(x, 200))) for x in (entry.real, entry.imag)]
                    root = math.isqrt((abs(parts[0]) + 1) ** 2 + (abs(parts[1]) + 1) ** 2)
                    units = (root >> 138) + 1
                    assert fixed_ij == (*parts, units), where
                    with mp.workprec(400):
                        scaled = mp.ldexp(abs(entry), 62)
                    assert scaled <= units <= int(mp.floor(scaled)) + 2, where
                    row_sum += abs(entry)
                    units_sum += units
                row_sums.append(row_sum)
                row_units.append(units_sum)
            assert max_row_abs == mp.ldexp(max(row_units), -62), where
            assert all(max_row_abs >= row_sum for row_sum in row_sums), where


# The first modular-queries catalogue op of each of its 24 levels: p, q, z, tau, tol.
_CATALOGUE_OPS = [
    (2, 1, "1/4", "0.283,1.230", "1e-20"),
    (2, 3, "1/2", "-1.143,1.976", "1e-13"),
    (2, 5, "1/2", "1.486,1.061", "1e-29"),
    (3, 1, "2/5", "-0.652,0.762", "1e-18"),
    (3, 2, "3/4", "0.262,1.217", "1e-26"),
    (3, 4, "1/6", "-0.228,1.687", "1e-15"),
    (3, 5, "1/4", "-0.443,2.296", "1e-28"),
    (4, 1, "2/5", "-0.192,1.914", "1e-29"),
    (4, 3, "5/6", "1.353,1.162", "1e-28"),
    (4, 5, "1/2", "-0.533,0.206", "1e-19"),
    (5, 1, "1/6", "-0.055,2.389", "1e-26"),
    (5, 2, "1/3", "0.509,2.661", "1e-21"),
    (5, 3, "2/3", "-0.269,2.352", "1e-10"),
    (5, 4, "5/7", "-0.242,0.404", "1e-14"),
    (6, 1, "1/5", "0.435,0.198", "1e-19"),
    (6, 5, "1/4", "-1.330,2.435", "1e-21"),
    (7, 1, "1/3", "-0.297,2.756", "1e-10"),
    (7, 2, "3/5", "-1.424,2.148", "1e-30"),
    (7, 3, "5/6", "0.516,1.868", "1e-22"),
    (7, 4, "2/5", "-0.982,2.691", "1e-13"),
    (7, 5, "5/6", "-0.857,1.403", "1e-21"),
    (8, 1, "1/5", "0.953,2.287", "1e-25"),
    (8, 3, "1/3", "-0.357,1.086", "1e-20"),
    (8, 5, "1/6", "0.342,1.783", "1e-30"),
]


def _cli_tau(text: str) -> mp.mpc:
    """tau as the CLI reads ``--tau=re,im``: each part a rational, divided at 256 bits."""
    re_part, im_part = (Fraction(part) for part in text.split(","))
    with mp.workprec(256):
        return mp.mpc(
            mp.mpf(re_part.numerator) / re_part.denominator,
            mp.mpf(im_part.numerator) / im_part.denominator,
        )
