"""Certified numerics: theta evaluation, character quotients, S-transform.

The theta oracle here is a direct high-precision lattice sum written against
the definition (no shared code with the adaptive evaluator), plus the
classical theta constant theta_3(e^{-pi}) = pi^{1/4} / Gamma(3/4) as an
external fixed point.  Error bounds are tested for honesty by comparing
evaluations at different working precisions.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from mpmath import mp

from admissible_sl2.characters import CharacterSpec, character_qseries
from admissible_sl2.errors import InputError
from admissible_sl2.numeric import (
    character_eval_numeric,
    qseries_eval_numeric,
    s_transform_residual,
    theta_eval_numeric,
)
from admissible_sl2.qseries import QSeries, ThetaSpec
from admissible_sl2.weights import AdmissibleWeight, enumerate_admissible, level_from_pq


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
    with pytest.raises(InputError, match="rounding budget"):
        # 53-bit rounding floor sits far above the requested 1e-40
        theta_eval_numeric(spec, mp.mpc(0, 1), tol=mp.mpf("1e-40"), prec=53)


def test_qseries_eval_hand_value():
    series = QSeries.from_terms(
        [(Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(-3))], Fraction(10)
    )
    val = qseries_eval_numeric(series, mp.mpc(0, 1))
    with mp.workprec(128):
        expected = 1 - 3 * mp.exp(-mp.pi)
        assert abs(val.value - expected) <= val.err + mp.mpf("1e-35")


def test_character_eval_guards():
    spec = CharacterSpec(AdmissibleWeight(level_from_pq(3, 2), 1, 0), Fraction(1, 2))
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
    spec = CharacterSpec(AdmissibleWeight(level_from_pq(2, 1), 0, 0), Fraction(1, 2))
    for tau in (mp.mpc(0, 1), mp.mpc("0.3333", "1.5")):
        val = character_eval_numeric(spec, tau, tol=mp.mpf("1e-20"), kind="chibar")
        assert abs(val.value - 1) <= val.err + mp.mpf("1e-20")


@pytest.mark.parametrize("p,q", [(3, 2), (5, 3)])
def test_series_agrees_with_certified_evaluation(p, q):
    # two independent routes: exact q-expansion vs adaptive theta quotient
    level = level_from_pq(p, q)
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
    level = level_from_pq(2, 1)
    with pytest.raises(InputError, match="variant must be"):
        s_transform_residual(level, Fraction(1, 2), mp.mpc(0, 1), variant="KW3")
    with pytest.raises(InputError, match="tolerance must be positive"):
        s_transform_residual(level, Fraction(1, 2), mp.mpc(0, 1), tol=0)
    with pytest.raises(InputError, match="requires Im"):
        s_transform_residual(level, Fraction(1, 2), mp.mpc(0, -1))


@pytest.mark.parametrize("tau", [0, mp.mpf(2), mp.mpc(-1, 0)], ids=["0", "2", "-1"])
def test_real_tau_is_rejected_up_front(tau):
    # at tau = 0 the S-transform's -1/tau would otherwise divide by zero
    level = level_from_pq(3, 2)
    spec = CharacterSpec(AdmissibleWeight(level, 1, 0), Fraction(1, 2))
    with pytest.raises(InputError, match="requires Im"):
        theta_eval_numeric(ThetaSpec(1, 2, Fraction(1, 2)), tau, tol=mp.mpf("1e-10"))
    with pytest.raises(InputError, match="requires Im"):
        character_eval_numeric(spec, tau, tol=mp.mpf("1e-10"))
    with pytest.raises(InputError, match="requires Im"):
        s_transform_residual(level, Fraction(1, 2), tau)


def test_s_transform_trivial_theory():
    # one weight; S = (1), factor = 1 at ell = 0 ... ell = -1/2 here, so the
    # factor is a genuine phase yet the single residual still vanishes
    report = s_transform_residual(
        level_from_pq(2, 1), Fraction(1, 2), mp.mpc(0, 1), variant="KW2"
    )
    assert len(report.weights) == 1
    with mp.workprec(192):
        assert abs(report.s_matrix[0][0] - 1) < mp.mpf("1e-40")
        assert (
            report.residual_partial_sums[0][-1]
            <= mp.mpf("1e-10") + report.residual_errors[0][-1]
        )


def test_s_transform_classical_matrix_at_q_1():
    # q = 1 reduces to the su(2)_k matrix sqrt(2/p) sin(pi (n+1)(n'+1) / p)
    level = level_from_pq(4, 1)
    report = s_transform_residual(level, Fraction(1, 2), mp.mpc(0, 1), variant="KW2")
    with mp.workprec(192):
        for i, wi in enumerate(report.weights):
            for j, wj in enumerate(report.weights):
                classical = mp.sqrt(mp.mpf(2) / 4) * mp.sin(
                    mp.pi * (wi.n + 1) * (wj.n + 1) / 4
                )
                assert abs(report.s_matrix[i][j] - classical) < mp.mpf("1e-40")
        for i in range(3):
            assert (
                report.residual_partial_sums[i][-1]
                <= mp.mpf("1e-10") + report.residual_errors[i][-1]
            )
        # conjugation is invisible at q = 1: both spellings give the same law
        for r in report.as_printed_final_residuals:
            assert r <= mp.mpf("1e-9")


def test_s_transform_fixture_3_2():
    level = level_from_pq(3, 2)
    tau = mp.mpc(0, "1.5")
    tol = mp.mpf("1e-10")
    report = s_transform_residual(level, Fraction(1, 2), tau, variant="KW2", tol=tol)
    n_w = len(report.weights)
    assert n_w == 4
    assert report.theta_error_max <= mp.mpf("1e-9")
    with mp.workprec(192):
        # the law holds with the Poisson-summation matrix and the tau factor
        for i in range(n_w):
            assert report.residual_partial_sums[i][-1] <= tol + report.residual_errors[i][-1], i
        # S is symmetric
        for i in range(n_w):
            for j in range(n_w):
                assert abs(report.s_matrix[i][j] - report.s_matrix[j][i]) < mp.mpf("1e-30")
        # rows with k = 0 have real phases: conjugation changes nothing there
        for i, w in enumerate(report.weights):
            if w.k == 0:
                assert report.as_printed_final_residuals[i] <= tol + report.residual_errors[i][-1]
            else:
                # conjugate-phase spelling breaks the law on k != 0 rows
                assert report.as_printed_final_residuals[i] > mp.mpf("0.5")
        # moving the factor to -1/tau breaks the law outright
        assert report.alt_factor is not None
        assert max(report.alt_final_residuals) > mp.mpf("0.05")

    kw1 = s_transform_residual(level, Fraction(1, 2), tau, variant="KW1", tol=tol)
    assert kw1.alt_final_residuals is None
    with mp.workprec(192):
        # without the factor the law fails on every row with nonvanishing lhs
        finals = [kw1.residual_partial_sums[i][-1] for i in range(n_w)]
        assert finals[0] > mp.mpf("0.2") and finals[0] < mp.mpf("0.22")
        assert finals[1] > mp.mpf("0.17") and finals[1] < mp.mpf("0.19")
