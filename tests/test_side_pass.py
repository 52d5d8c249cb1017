"""``stransform``'s side pass and residual table, refereed.

The side pass (``numeric._chibar_side``) walks every theta of one (m, z, tau)
at once in Python-int fixed point (``numeric._theta_vector`` and
``numeric._fixed_walk``).  Its referees here:

- the fixed-point walk against a brute-force sum of the same window at twice
  its fraction bits, on every residue, within the walk's own rounding count,
  with fraction bits and seed precisions below the ones the pass picks, so
  that the per-step drift and the seeds' errors are what the count must
  cover;
- the float tail bound (``numeric._tail_log``) against the exact geometric
  bound it stands for, evaluated at 200 bits;
- every side-pass quotient against the direct evaluator
  (``numeric._chibar_numeric``, whose four thetas are walked one residue at a
  time, term by term): within the sum of the two bounds, on derandomized
  draws over levels up to (8,5), both sides of the law, tau across the
  catalogue box and tol from 1e-10 to 1e-30.

The residual table, in fixed point since it left the operators' bits, is
held to exact arithmetic: with the quotients' errors set to 0, each partial
residual lies within its bound of the one formed from exact S entries and an
exact factor at 600 bits, so the bound is the derived rounding count alone;
with the real errors, each bound stays within 1e-9 of the error sum that
``perfbench/reference.py`` recomputes to within 1e-6.  At (7,5) and (8,5),
rows of 30 and 35 products, the interval referee of
``tests/_interval_theta.py`` encloses every partial residual.
"""

from __future__ import annotations

import math
from fractions import Fraction

import _interval_theta
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from test_numeric import _CATALOGUE_OPS, LEVELS_TO_8_5, _cli_tau, _tau_from

from admissible_sl2 import numeric
from admissible_sl2.errors import InputError
from admissible_sl2.numeric import ComplexVal, s_transform_residual
from admissible_sl2.weights import Level, enumerate_admissible

_Z = st.integers(2, 7).flatmap(lambda u: st.integers(1, u - 1).map(lambda v: Fraction(v, u)))
# the catalogue's tau box
_RE_TAU = st.fractions(min_value=Fraction(-3, 2), max_value=Fraction(3, 2), max_denominator=1000)
_IM_TAU = st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=1000)


def _side_args(z: Fraction, lhs: bool, re_tau: Fraction, im_tau: Fraction):
    """(tau, zval) of one side of the law as ``s_transform_residual`` forms them at 192 bits."""
    tau = _tau_from(re_tau, im_tau, 192)
    if not lhs:
        return tau, z
    with mp.workprec(192):
        return -1 / tau, tau * (mp.mpf(z.numerator) / z.denominator)


# -- the fixed-point walk ---------------------------------------------------


def _walk_plan(m: int, z, tau) -> tuple[int, int]:
    """(n0, top bits) of ``_fixed_walk``: the integer nearest the exact vertex, and the
    bits of the largest modulus e^{pi m B^2 / 2A}, from exact A and B."""
    (zr, zi), (tr, ti) = numeric._exact(z), numeric._exact(tau)
    big_b = tr * zi + ti * zr
    n0 = math.floor(-m * big_b / ti + Fraction(1, 2))
    log_top = math.pi * m * float(big_b) ** 2 / (2 * float(ti))
    return n0, int(log_top / math.log(2) * 1.01) + 2


def _brute_walk(m: int, z, tau, n0: int, k_up: int, k_dn: int, prec: int) -> list:
    """sum of e^{i pi tau (N^2/2m + N z)} over n0 - k_dn < N < n0 + k_up, by N mod 2m."""
    (zr, zi), (tr, ti) = numeric._exact(z), numeric._exact(tau)
    with mp.workprec(prec):
        z_v = mp.mpc(mp.mpf(zr.numerator) / zr.denominator, mp.mpf(zi.numerator) / zi.denominator)
        tau_v = mp.mpc(mp.mpf(tr.numerator) / tr.denominator, mp.mpf(ti.numerator) / ti.denominator)
        sums = [mp.mpc(0)] * (2 * m)
        for n in range(n0 - k_dn + 1, n0 + k_up):
            sums[n % (2 * m)] += mp.expjpi(tau_v * (mp.mpf(n * n) / (2 * m) + n * z_v))
        return sums


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(
    m=st.integers(1, 40),
    z=_Z,
    lhs=st.booleans(),
    re_tau=_RE_TAU,
    im_tau=_IM_TAU,
    k_up=st.integers(1, 60),
    k_dn=st.integers(1, 60),
    spare=st.sampled_from([0, 16, 60]),
    seeds_low=st.booleans(),
)
# slow decay, the fewest fraction bits the walk's premises allow: the
# per-step drift of the ratios is most of the count
@example(m=40, z=Fraction(1, 2), lhs=True, re_tau=Fraction(-3, 2), im_tau=Fraction(1, 6),
         k_up=60, k_dn=60, spare=0, seeds_low=False)
# seeds 28 bits short: their errors are most of the count
@example(m=40, z=Fraction(1, 2), lhs=True, re_tau=Fraction(-3, 2), im_tau=Fraction(1, 6),
         k_up=60, k_dn=60, spare=60, seeds_low=True)
def test_fixed_walk_is_the_brute_force_sum_within_its_count(
    m, z, lhs, re_tau, im_tau, k_up, k_dn, spare, seeds_low
):
    tau, zval = _side_args(z, lhs, re_tau, im_tau)
    n0, top = _walk_plan(m, zval, tau)
    frac_bits = top + 3 * max(k_up, k_dn).bit_length() + 8 + spare
    # as _theta_vector picks it, with |z| <= 5 and |tau| <= 9 over these draws
    x_max = (abs(n0) + 1) ** 2 / m + (abs(n0) + 1) * 5 + 1
    seed_prec = frac_bits + top + int(4 * x_max * 9 + 2).bit_length() + 4
    if seeds_low:
        seed_prec -= spare // 2 - 2
    z_exact = numeric._exact(zval)
    sums = numeric._fixed_walk(m, z_exact, tau, n0, k_up, k_dn, frac_bits, seed_prec)
    brute = _brute_walk(m, zval, tau, n0, k_up, k_dn, 2 * frac_bits + 64)
    with mp.workprec(2 * frac_bits + 64):
        for (s_re, s_im, count), exact in zip(sums, brute):
            got = mp.mpc(mp.ldexp(s_re, -frac_bits), mp.ldexp(s_im, -frac_bits))
            assert abs(got - exact) <= mp.ldexp(count, -frac_bits)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(
    m=st.integers(1, 40),
    a=st.fractions(min_value=Fraction(1, 100), max_value=3, max_denominator=10**6),
    b=st.fractions(min_value=-3, max_value=3, max_denominator=10**6),
    offset=st.integers(-3, 300),
    d=st.sampled_from([1, -1]),
    mirror=st.booleans(),
)
def test_tail_log_bounds_the_exact_geometric_tail(m, a, b, offset, d, mirror):
    # f(N) = pi (A N^2/2m + B N); from N = n outward the tail is at most
    # e^{-f(n)} / (1 - e^{-(f(n + d) - f(n))}): the float bound must not fall
    # below it.  A mirrored draw takes n near 2 v, where f(n) is near 0 and
    # its two parts cancel
    vertex = -m * b / a
    n = math.floor(vertex) + d * offset if not mirror else math.floor(2 * vertex) + d * offset
    if d * (n - vertex) < Fraction(1, 2):
        return
    pi_a, pi_b = math.pi * float(a) / (2 * m), math.pi * float(b)
    tail, slope = numeric._tail_log(pi_a, pi_b, n, d)
    with mp.workprec(200):
        big_a, big_b = mp.mpf(a.numerator) / a.denominator, mp.mpf(b.numerator) / b.denominator

        def f(k):
            return mp.pi * (big_a * k * k / (2 * m) + big_b * k)

        exact_slope = f(n + d) - f(n)
        assert slope <= exact_slope
        if slope > 0:
            assert tail >= -f(n) - mp.log(1 - mp.exp(-exact_slope))


# -- the side pass against the direct evaluator --------------------------------


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    level=st.sampled_from(LEVELS_TO_8_5),
    z=_Z,
    lhs=st.booleans(),
    re_tau=_RE_TAU,
    im_tau=_IM_TAU,
    tol_exp=st.integers(10, 30),
)
@example(level=(8, 5), z=Fraction(1, 6), lhs=False, re_tau=Fraction(342, 1000),
         im_tau=Fraction(1783, 1000), tol_exp=30)
@example(level=(8, 5), z=Fraction(1, 6), lhs=True, re_tau=Fraction(342, 1000),
         im_tau=Fraction(1783, 1000), tol_exp=30)
def test_each_side_pass_quotient_is_the_direct_one_within_both_bounds(
    level, z, lhs, re_tau, im_tau, tol_exp
):
    weights = enumerate_admissible(Level(*level))
    tau, zval = _side_args(z, lhs, re_tau, im_tau)
    tol = mp.mpf(10) ** -tol_exp
    side = numeric._chibar_side(weights, tau, zval, tol, 192)
    assert len(side) == len(weights)
    for weight, (val, theta_err) in zip(weights, side):
        assert 0 < val.err <= tol and 0 < theta_err <= tol
        with mp.workprec(192):  # a complex z is divided by q at the caller's precision
            try:
                direct, _ = numeric._chibar_numeric(weight, tau, zval, tol, 192)
            except InputError as exc:
                assert "rounding budget" in str(exc)
                event("the direct evaluator's rounding budget is above tol/4")
                continue
        with mp.workprec(256):
            assert abs(val.value - direct.value) <= val.err + direct.err


# -- the residual table ---------------------------------------------------------


def _table_cases():
    cases = [
        (Level(p, q), Fraction(z), _cli_tau(tau), mp.mpf(tol), "KW2")
        for p, q, z, tau, tol in _CATALOGUE_OPS
    ]
    cases.append((Level(5, 3), Fraction(1, 3), _cli_tau("-0.03,0.05"), mp.mpf("1e-11"), "KW2"))
    cases.append((Level(5, 3), Fraction(2, 7), _cli_tau("0.3,0.8"), mp.mpf("1e-20"), "KW1"))
    cases.append((Level(8, 5), Fraction(3, 7), _cli_tau("1.2,0.2"), mp.mpf("1e-30"), "KW1"))
    return cases


def _exact_residuals(report, prec=600):
    """Each partial residual, the as-printed and the alternative finals, from the report's
    quotients, with S entries and factors exact at ``prec`` bits."""
    weights, a = report.weights, report.level.a
    with mp.workprec(prec):
        pref = mp.mpc(0, -1) * mp.sqrt(mp.mpf(2) / a) / 2

        def phase(num):
            return mp.expjpi(mp.mpf(num) / a)

        anomaly = numeric.CharacterSpec(weights[0], report.z).anomaly
        tau = mp.mpc(report.tau)
        if report.variant == "KW2":
            factor = mp.expjpi(2 * mp.mpf(anomaly.numerator) / anomaly.denominator * tau)
            alt = mp.expjpi(2 * mp.mpf(anomaly.numerator) / anomaly.denominator * (-1 / tau))
        else:
            factor, alt = mp.mpc(1), None
        chi = [v.value for v in report.chibar]
        rows, printed, alts = [], [], []
        for wi, lhs in zip(weights, report.lhs):
            running, printed_sum, row = mp.mpc(0), mp.mpc(0), []
            for wj, chi_j in zip(weights, chi):
                p_pp, p_pm = phase(wi.b_plus * wj.b_plus), phase(wi.b_plus * wj.b_minus)
                running += pref * (p_pp - p_pm) * chi_j
                printed_sum += pref * (mp.conj(p_pm) - mp.conj(p_pp)) * chi_j
                row.append(abs(lhs.value - factor * running))
            rows.append(row)
            printed.append(abs(lhs.value - factor * printed_sum))
            alts.append(None if alt is None else abs(lhs.value - alt * running))
        return rows, printed, alts


def test_the_residual_table_is_exact_arithmetic_within_its_count(monkeypatch):
    # the quotients' errors set to 0: every bound is the table's own rounding
    # count (with the factor's relative error), and each partial residual must
    # lie within it of exact arithmetic on the same quotients
    direct = numeric._chibar_side

    def exact_inputs(weights, tau, zval, tol, prec):
        return [(ComplexVal(v.value, mp.mpf(0), v.prec), t)
                for v, t in direct(weights, tau, zval, tol, prec)]

    monkeypatch.setattr(numeric, "_chibar_side", exact_inputs)
    for level, z, tau, tol, variant in _table_cases():
        report = s_transform_residual(level, z, tau, variant=variant, tol=tol)
        rows, printed, alts = _exact_residuals(report)
        case = (level.p, level.q, variant)
        with mp.workprec(600):
            for got_row, err_row, want_row in zip(
                report.residual_partial_sums, report.residual_errors, rows
            ):
                for got, err, want in zip(got_row, err_row, want_row):
                    assert abs(got - want) <= err, case
            scale = max(abs(v.value) for v in report.lhs + report.chibar) * 2 ** -150
            for got, want in zip(report.as_printed_final_residuals, printed):
                assert abs(got - want) <= scale, case
            if variant == "KW1":
                assert report.alt_final_residuals is None
                continue
            for got, want in zip(report.alt_final_residuals, alts):
                assert abs(got - want) <= scale * max(1, abs(report.alt_factor)), case


def test_each_table_bound_is_the_error_sum_the_benchmark_recomputes():
    # c_i + sum |S_ij'| w_j' against err(lhs_i) + |factor| sum |S_ij'|
    # err(chibar_j'): never below it, and above it by the rounding count and
    # the float margin only, far inside the 1e-6 that perfbench/reference.py
    # allows
    for level, z, tau, tol, variant in _table_cases():
        report = s_transform_residual(level, z, tau, variant=variant, tol=tol)
        with mp.workprec(256):
            f = abs(report.factor)
            for lhs, s_row, err_row in zip(report.lhs, report.s_matrix, report.residual_errors):
                acc = mp.mpf(0)
                for chi, s_ij, got in zip(report.chibar, s_row, err_row):
                    acc += abs(s_ij) * chi.err
                    want = lhs.err + f * acc
                    assert want <= got <= want * (1 + mp.mpf("1e-9")), (level.p, level.q)


@pytest.mark.parametrize("level", [(7, 5), (8, 5)])
def test_rows_past_28_products_enclose_the_interval_referee(level):
    # n = 30 and 35: the rounding count is derived for any row length
    report = s_transform_residual(
        Level(*level), Fraction(2, 7), _tau_from(Fraction(3, 10), Fraction(4, 5), 192),
        tol=mp.mpf("1e-25"),
    )
    assert len(report.weights) > 28
    enclosures = _interval_theta.residual_enclosures(report)
    with mp.workprec(256):
        for i, row in enumerate(enclosures):
            assert report.final_residuals[i] <= report.residual_errors[i][-1]
            for m, (lo, hi) in enumerate(row):
                res, err = report.residual_partial_sums[i][m], report.residual_errors[i][m]
                assert res - err <= lo and hi <= res + err, (i, m)
