"""Self-verification suites: bounds, the c2 constant closed form, small runs."""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

import mpmath as mp
import pytest

from admissible_sl2 import characters, verify
from admissible_sl2.characters import CharacterSpec, character_qseries
from admissible_sl2.cli import main
from admissible_sl2.errors import InputError, InvariantError
from admissible_sl2.exact import UniPoly
from admissible_sl2.numeric import s_transform_residual
from admissible_sl2.verify import (
    SUITES,
    c2_expected_constant,
    characters_suite,
    coprime_levels,
    run_suites,
    series_numeric_agreement,
    transformation_law_checks,
)
from admissible_sl2.weights import AdmissibleWeight, Level, enumerate_admissible


def test_suite_names():
    assert SUITES == ("fusion", "mff", "characters")


def test_coprime_levels():
    levels = coprime_levels(4, 3)
    pairs = [(lv.p, lv.q) for lv in levels]
    assert pairs == [(2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (4, 3)]


def test_c2_expected_constant_fixtures():
    assert c2_expected_constant(Level(2, 1)) == Fraction(-1)
    assert c2_expected_constant(Level(3, 1)) == Fraction(2)
    assert c2_expected_constant(Level(3, 2)) == Fraction(3, 2)
    for p in range(2, 7):
        for q in range(1, 6):
            from math import gcd

            if gcd(p, q) == 1:
                assert c2_expected_constant(Level(p, q)) != 0


def test_run_suites_guards():
    with pytest.raises(InputError, match="pmax=9 outside"):
        run_suites("all", 9, 2)
    with pytest.raises(InputError, match="pmax=1 outside"):
        run_suites("all", 1, 2)
    with pytest.raises(InputError, match="qmax=0 outside"):
        run_suites("all", 3, 0)
    with pytest.raises(InputError, match="qmax=7 outside"):
        run_suites("all", 3, 7)
    with pytest.raises(InputError, match="unknown suite"):
        run_suites("bogus", 3, 2)


def test_run_suites_small_all_pass():
    results, checks = run_suites("all", 3, 2)
    assert results["checks_total"] == len(checks) > 0
    assert results["checks_failed"] == 0
    assert all(c["status"] == "pass" for c in checks)
    names = {c["name"] for c in checks}
    # every suite contributes its check families
    assert any(n.startswith("fusion_three_way") for n in names)
    assert any(n.startswith("classical_limit") for n in names)
    assert any(n.startswith("operator_identities") for n in names)
    assert any(n.startswith("c2_reduction") for n in names)
    assert any(n.startswith("theta_ratio") for n in names)
    assert any(n.startswith("series_numeric") for n in names)


def test_run_single_suite():
    results, checks = run_suites("mff", 3, 1)
    assert list(results["suites"]) == ["mff"]
    families = {"operator_identities", "annihilation", "bimodule_dims", "c2_reduction"}
    assert all(any(c["name"].startswith(f) for f in families) for c in checks)
    assert results["checks_failed"] == 0


@pytest.mark.parametrize("suite, builds", [("fusion", 1), ("mff", 1), ("all", 2)])
def test_each_suite_builds_each_oracle_once(monkeypatch, suite, builds):
    calls = Counter()
    real = verify.bimodule_from_mff

    def counting(weight):
        calls[(weight.level.p, weight.level.q, weight.n_primed, weight.k_primed)] += 1
        return real(weight)

    monkeypatch.setattr(verify, "bimodule_from_mff", counting)
    run_suites(suite, 4, 3)
    expected = {
        (lv.p, lv.q, w.n_primed, w.k_primed)
        for lv in coprime_levels(4, 3)
        for w in enumerate_admissible(lv)
    }
    assert set(calls) == expected
    assert set(calls.values()) == {builds}


def test_failed_oracle_build_fails_both_suites_alike(monkeypatch):
    real = verify.bimodule_from_mff

    def failing(weight):
        if (weight.level.p, weight.level.q) == (3, 2):
            raise InvariantError("stubbed")
        return real(weight)

    monkeypatch.setattr(verify, "bimodule_from_mff", failing)
    results, checks = run_suites("all", 3, 2)
    failed = {c["name"]: c["detail"] for c in checks if c["status"] != "pass"}
    assert failed == {
        "fusion_three_way_p3_q2": "raised InvariantError: stubbed",
        "bimodule_dims_p3_q2": "raised InvariantError: stubbed",
    }
    assert results["checks_failed"] == 2
    monkeypatch.undo()
    assert [c["name"] for c in checks] == [c["name"] for c in run_suites("all", 3, 2)[1]]


def test_characters_suite_divides_each_character_twice(monkeypatch):
    # one chibar division per (weight, z) serves all three checks, and the
    # theta-ratio check divides only its right-hand side: 2 x 38 at (6, 4)
    real = characters.qseries_div
    calls = Counter()

    def counted(num, den):
        calls["div"] += 1
        return real(num, den)

    monkeypatch.setattr(characters, "qseries_div", counted)
    results, checks = characters_suite(6, 4)
    pairs = sum(row["weights"] for row in results["fixtures"])
    assert pairs == 38 and all(c["status"] == "pass" for c in checks)
    assert calls["div"] == 2 * pairs


def test_mff_suite_builds_no_polynomial(monkeypatch):
    # the annihilation check compares root labels, and the C2 reduction and
    # the bimodule oracles never leave PBW terms and root labels
    def refuse(self, coeffs=None):
        raise AssertionError("UniPoly built")

    monkeypatch.setattr(UniPoly, "__init__", refuse)
    results, checks = run_suites("mff", 4, 3)
    assert results["checks_total"] == len(checks) == 1 + 3 * 6
    assert results["checks_failed"] == 0


def test_all_suites_concatenate_the_single_suites():
    _, checks = run_suites("all", 4, 3)
    singles = [c for name in SUITES for c in run_suites(name, 4, 3)[1]]
    assert checks == singles


# -- a raise fails its own check ------------------------------------------------

_AT_P3_Q2 = {
    "FusionRing.build": ["fusion_axioms_p3_q2"],
    "classical_su2_fusion": ["classical_limit_ell2"],
    "verify_operator_identities": ["operator_identities_m5"],
    "hw_annihilation_polynomial": ["annihilation_p3_q2"],
    "c2_heisenberg_reduction": ["c2_reduction_p3_q2"],
    "bimodule_from_mff": ["fusion_three_way_p3_q2", "bimodule_dims_p3_q2"],
    "theta_ratio_identity_check": ["theta_ratio_p3_q2_z1_3", "theta_ratio_p3_q2_z1_2"],
    "character_qseries": [
        f"{family}_p3_q2_{z}"
        for z in ("z1_3", "z1_2")
        for family in ("theta_ratio", "character_coefficients", "series_numeric")
    ],
    "series_numeric_agreement": ["series_numeric_p3_q2_z1_3", "series_numeric_p3_q2_z1_2"],
}


def _raising_at_p3_q2(real):
    """``real``, raising instead at level (3, 2), at ell = 2, or when given no argument."""

    def stubbed(*args, **kwargs):
        head = getattr(args[0], "weight", args[0]) if args else None  # a CharacterSpec's
        head = getattr(head, "level", head)
        if head is None or head == 2 or (getattr(head, "p", 0), getattr(head, "q", 0)) == (3, 2):
            raise InvariantError("stubbed")
        return real(*args, **kwargs)

    return stubbed


@pytest.fixture(scope="module")
def small_sweep_names():
    return [c["name"] for c in run_suites("all", 4, 3)[1]]


@pytest.mark.parametrize("target", list(_AT_P3_Q2))
def test_every_check_family_survives_a_raise(monkeypatch, capsys, small_sweep_names, target):
    if target == "FusionRing.build":
        stub = staticmethod(_raising_at_p3_q2(verify.FusionRing.build))
        monkeypatch.setattr(verify.FusionRing, "build", stub)
    else:
        monkeypatch.setattr(verify, target, _raising_at_p3_q2(getattr(verify, target)))
    results, checks = run_suites("all", 4, 3)
    assert [c["name"] for c in checks] == small_sweep_names
    failed = {c["name"]: c["detail"] for c in checks if c["status"] != "pass"}
    assert failed == dict.fromkeys(_AT_P3_Q2[target], "raised InvariantError: stubbed")
    assert results["checks_failed"] == len(failed)
    code = main(["verify", "--suite", "all", "--pmax", "4", "--qmax", "3", "--format", "json"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["checks"] == checks


def test_series_numeric_difference_is_taken_at_the_evaluators_precision():
    # ``character --tau`` prints the difference to 30 digits, so it is taken
    # at the 128 bits of the two values, not at the ambient 53
    spec = CharacterSpec(AdmissibleWeight(Level(5, 3), 1, 1), Fraction(1, 3))
    series = character_qseries(spec, Fraction(30), kind="chibar")
    with mp.workprec(256):  # tau as ``--tau 0.1,1.2`` parses it
        tau = mp.mpc(mp.mpf(1) / 10, mp.mpf(12) / 10)
    numeric, series_value, diff, agree = series_numeric_agreement(
        spec, series, tau, mp.mpf("1e-8"), kind="chibar"
    )
    assert agree and numeric.prec == series_value.prec == 128
    with mp.workprec(128):
        assert diff == abs(numeric.value - series_value.value)
        assert mp.nstr(diff, 30) == "9.33422610726173402116657831539e-14"


def test_the_s_law_fails_when_the_conjugate_phase_s_is_taken_as_the_primary():
    # the S-law predicate that ``stransform`` reports, fed the conjugate-phase
    # spelling's finals in place of the primary's: at q > 1 the complex-phase
    # rows (k != 0) read 1.6 against bounds near 1e-14, so the law fails; at
    # q = 1 every phase is real, the two spellings agree and it passes
    tol = mp.mpf("1e-10")
    with mp.workprec(256):  # tau as ``--tau=-0.5,0.8`` parses it
        tau = mp.mpc(mp.mpf(-5) / 10, mp.mpf(8) / 10)

    def statuses(results):
        return {c["name"]: c["status"] for c in transformation_law_checks(results, tol, "1e-10")}

    passing = {"theta_error_bounds": "pass", "transformation_law": "pass"}
    for (p, q), conjugate_law in (((3, 2), "fail"), ((5, 1), "pass")):
        results = s_transform_residual(Level(p, q), Fraction(1, 3), tau, tol=tol)
        assert statuses(results) == passing, (p, q)
        printed = results["as_printed_final_residuals"]
        swapped = dict(results, final_residuals=printed)
        assert statuses(swapped) == dict(passing, transformation_law=conjugate_law), (p, q)
        if q > 1:
            bounds = [row[-1] for row in results["residual_errors"]]
            assert [r > 1 for r in printed] == [w.k != 0 for w in results["weights"]]
            assert max(bounds) < mp.mpf("1e-13")
