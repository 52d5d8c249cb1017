"""Self-verification suites: bounds, the c2 constant closed form, small runs."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from admissible_sl2 import verify
from admissible_sl2.errors import DegreeNotConcentratedError, ParamOutOfRangeError
from admissible_sl2.verify import (
    SUITES,
    c2_expected_constant,
    coprime_levels,
    run_suites,
)
from admissible_sl2.weights import enumerate_admissible, level_from_pq


def test_suite_names():
    assert SUITES == ("fusion", "mff", "characters")


def test_coprime_levels():
    levels = coprime_levels(4, 3)
    pairs = [(lv.p, lv.q) for lv in levels]
    assert pairs == [(2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (4, 3)]


def test_c2_expected_constant_fixtures():
    assert c2_expected_constant(level_from_pq(2, 1)) == Fraction(-1)
    assert c2_expected_constant(level_from_pq(3, 1)) == Fraction(2)
    assert c2_expected_constant(level_from_pq(3, 2)) == Fraction(3, 2)
    for p in range(2, 7):
        for q in range(1, 6):
            from math import gcd

            if gcd(p, q) == 1:
                assert c2_expected_constant(level_from_pq(p, q)) != 0


def test_run_suites_guards():
    with pytest.raises(ParamOutOfRangeError):
        run_suites("all", 9, 2)
    with pytest.raises(ParamOutOfRangeError):
        run_suites("all", 1, 2)
    with pytest.raises(ParamOutOfRangeError):
        run_suites("all", 3, 0)
    with pytest.raises(ParamOutOfRangeError):
        run_suites("all", 3, 7)
    with pytest.raises(ParamOutOfRangeError):
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

    def counting(level, n_primed, k_primed, *rest):
        calls[(level.p, level.q, n_primed, k_primed)] += 1
        return real(level, n_primed, k_primed, *rest)

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

    def failing(level, n_primed, k_primed, *rest):
        if (level.p, level.q) == (3, 2):
            raise DegreeNotConcentratedError("stubbed")
        return real(level, n_primed, k_primed, *rest)

    monkeypatch.setattr(verify, "bimodule_from_mff", failing)
    results, checks = run_suites("all", 3, 2)
    failed = {c["name"]: c["detail"] for c in checks if c["status"] != "pass"}
    assert failed == {
        "fusion_three_way_p3_q2": "raised DegreeNotConcentratedError: stubbed",
        "bimodule_dims_p3_q2": "raised DegreeNotConcentratedError: stubbed",
    }
    assert results["checks_failed"] == 2
    monkeypatch.undo()
    assert [c["name"] for c in checks] == [c["name"] for c in run_suites("all", 3, 2)[1]]


def test_all_suites_concatenate_the_single_suites():
    _, checks = run_suites("all", 4, 3)
    singles = [c for name in SUITES for c in run_suites(name, 4, 3)[1]]
    assert checks == singles
