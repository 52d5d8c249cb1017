"""Command-line interface: exit codes, document structure, determinism."""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from admissible_sl2 import cli, mff, verify
from admissible_sl2 import fusion as fusion_module
from admissible_sl2.cli import main
from admissible_sl2.errors import InputError, InvariantError
from admissible_sl2.exact import rat
from admissible_sl2.pbw import HEIS, PBWElement
from admissible_sl2.weights import vacuum_labels


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


# ---------------------------------------------------------------- exit codes


def test_invalid_level_exits_2(capsys):
    code, out, err = run_cli(capsys, "weights", "--p", "4", "--q", "2")
    assert code == 2
    assert out == ""
    assert "coprime" in err.lower() or "NotCoprime" in err


def test_bad_p_range_exits_2(capsys):
    assert run_cli(capsys, "weights", "--p", "1", "--q", "1")[0] == 2


def test_verify_pmax_guard_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--pmax", "9", "--qmax", "2")
    assert code == 2
    assert "pmax" in err


def test_mff_verify_mmax_guard_exits_2(capsys):
    assert run_cli(capsys, "mff-verify", "--mmax", "9")[0] == 2


def test_character_bad_z_exits_2(capsys):
    code, _, _ = run_cli(
        capsys, "character", "--p", "3", "--q", "2", "--j", "1", "--z", "0"
    )
    assert code == 2


def test_weight_flag_conflicts_exit_2(capsys):
    base = ["weights", "--p", "3", "--q", "2"]
    assert run_cli(capsys, "zhu", "--p", "3", "--q", "2")[0] == 0
    # --n/--k and --j are mutually exclusive ways to pick a weight
    code, _, err = run_cli(
        capsys, "character", "--p", "3", "--q", "2", "--n", "1", "--k", "0",
        "--j", "1", "--z", "1/2",
    )
    assert code == 2
    # --n without --k is incomplete
    assert run_cli(
        capsys, "character", "--p", "3", "--q", "2", "--n", "1", "--z", "1/2"
    )[0] == 2
    del base


@pytest.mark.parametrize("trunc", ["--trunc=-5", "--trunc=0"])
def test_character_trunc_not_above_lowest_exponent_exits_2(capsys, trunc):
    # the predicted lowest exponent of chi at (3,2), j=1, z=1/2 is 25/96
    code, out, err = run_cli(
        capsys, "character", "--p", "3", "--q", "2", "--j", "1", "--z", "1/2", trunc
    )
    assert code == 2
    assert out == ""
    assert "--trunc" in err and "25/96" in err


def test_bad_tau_exits_2(capsys):
    code, _, _ = run_cli(
        capsys, "stransform", "--p", "2", "--q", "1", "--z", "1/2", "--tau", "0,-1"
    )
    assert code == 2
    code, _, _ = run_cli(
        capsys, "character", "--p", "3", "--q", "2", "--j", "1", "--z", "1/2",
        "--tau", "i",
    )
    assert code == 2


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--z", ("character", "--p", "3", "--q", "2", "--j", "1", "--z", "1/0")),
        ("--j", ("character", "--p", "3", "--q", "2", "--j", "1/0", "--z", "1/2")),
        ("--j1", ("fusion", "--p", "3", "--q", "2", "--j1", "1/0", "--j2", "0,0")),
        ("--trunc", ("character", "--p", "3", "--q", "2", "--j", "1", "--z", "1/2",
                     "--trunc", "1/0")),
        ("--tau", ("stransform", "--p", "3", "--q", "2", "--z", "1/2", "--tau", "1/0,1")),
    ],
    ids=["z", "j", "j1", "trunc", "tau"],
)
def test_zero_denominator_names_the_flag_and_the_fault(capsys, flag, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag}: zero denominator in '1/0'\n"


# a negative value given as its own argument, and the same value joined by "="
NEGATIVE_VALUES = {
    "j": ("bimodule", "--p", "3", "--q", "2", "--j", "-3/2"),
    "j1": ("fusion", "--p", "3", "--q", "2", "--j1", "-3/2", "--j2", "0,0"),
    "j2": ("fusion", "--p", "3", "--q", "2", "--j1", "1,0", "--j2", "-1/2"),
    "z": ("character", "--p", "3", "--q", "2", "--j", "1", "--z", "-1/2"),
    "trunc": ("character", "--p", "3", "--q", "2", "--n", "1", "--k", "1", "--z", "1/3",
              "--trunc", "-1/100"),
    "tau": ("stransform", "--p", "3", "--q", "2", "--z", "1/2", "--tau", "-1/2,1"),
    "tol": ("stransform", "--p", "3", "--q", "2", "--z", "1/2", "--tau", "0,1",
            "--tol", "-1e-8"),
}


@pytest.mark.parametrize("argv", NEGATIVE_VALUES.values(), ids=NEGATIVE_VALUES)
def test_a_negative_value_parses_beside_its_flag(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    joined = [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
    assert (code, out, err) == run_cli(capsys, *joined)
    # -1/2 is no z in (0, 1) and -1e-8 no tolerance; every other value is good
    if argv[-2] in ("--z", "--tol"):
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert (code, err) == (0, "")


def test_help_and_the_end_of_flags_take_no_negative_value(capsys):
    assert run_cli(capsys, "weights", "--help", "-3")[0] == 0
    code, _, err = run_cli(capsys, "weights", "--p", "3", "--q", "2", "--", "-3")
    assert code == 2 and "unrecognized arguments: -- -3" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("stransform", "--p", "3", "--q", "2", "--z", "1/3", "--tau=1e1000000,1"),
        ("character", "--p", "3", "--q", "2", "--n", "0", "--k", "0", "--z", "1/3",
         "--trunc=1e-3000000"),
        ("character", "--p", "3", "--q", "2", "--n", "0", "--k", "0", "--z", "1e-10000000"),
        ("bimodule", "--p", "3", "--q", "2", "--j", "1E+1_000_000"),
    ],
    ids=["tau", "trunc", "z", "j"],
)
def test_an_exponent_past_the_digit_limit_exits_2_unexpanded(capsys, argv):
    start = time.process_time()
    code, out, err = run_cli(capsys, *argv)
    assert time.process_time() - start < 0.5
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(f"is past the {sys.get_int_max_str_digits()}-digit limit\n")


def test_the_exponent_limit_is_the_integer_digit_limit():
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert cli._rational("1e-640", "--z") == Fraction(1, 10**640)
        with pytest.raises(InputError, match="exponent of .1e-641. is past the 640-digit limit"):
            cli._rational("1e-641", "--z")
        sys.set_int_max_str_digits(0)
        assert cli._rational("1e5000", "--z") == 10**5000
    finally:
        sys.set_int_max_str_digits(limit)


def test_theta_term_cap_exits_2_before_summing(capsys):
    # Im(tau) = 1e-11 needs ~7.7e5 theta terms per side at 1e-30; the cap is 2e5
    start = time.process_time()
    code, out, err = run_cli(
        capsys, "stransform", "--p", "2", "--q", "1", "--z", "1/2",
        "--tau", "0,1/100000000000", "--tol", "1e-30",
    )
    assert code == 2
    assert out == ""
    assert "term cap" in err
    assert time.process_time() - start < 1
    # the argument-rounding term Y swamps every slope up to the cap: a huge
    # Re(tau), or Im(tau) so small that a huge tolerance passes the parabola
    for argv in (
        ["character", "--p", "3", "--q", "2", "--n", "0", "--k", "0", "--z", "1/3",
         "--kind", "chibar", "--trunc", "3", "--tau=1e36,1"],
        ["stransform", "--p", "5", "--q", "2", "--z", "2/3", "--tau=1e308,1",
         "--tol", "1e-30", "--variant", "KW1"],
        ["stransform", "--p", "7", "--q", "4", "--z", "3/7", "--tau=0,1e-300", "--tol", "1e400"],
    ):
        start = time.process_time()
        assert run_cli(capsys, *argv) == (2, "", (
            "error: theta tail bound not reached within the term cap; "
            "tolerance too small for this tau\n"
        ))
        assert time.process_time() - start < 0.5, argv


def test_a_theta_denominator_below_ten_tol_exits_2(capsys):
    # the side pass refuses before any quotient, for the whole level at once
    assert run_cli(
        capsys, "stransform", "--p", "3", "--q", "2", "--z", "1/2", "--tau=0,1", "--tol", "10"
    ) == (2, "", "error: |theta denominator| = 2.0037 < 10*tol\n")


@pytest.mark.parametrize("im_tau", ["1e5", "1e6", "1e10", "1e16", "1e20", "1e30", "2e154"])
def test_a_top_term_past_the_working_precision_exits_2_at_once(capsys, im_tau):
    # the side pass's fraction bits grow with the top term 2^T; past T +
    # log2(4/tol) > 192 the direct evaluator refuses on its rounding budget,
    # and so does the pass, before any seed.  At 2e154, (pi B)^2 is past the
    # double range while T is not, and the message still quotes T
    start = time.process_time()
    code, out, err = run_cli(
        capsys, "stransform", "--p", "3", "--q", "2", "--z", "1/3", f"--tau=0,{im_tau}"
    )
    assert (code, out) == (2, "")
    assert re.fullmatch(
        r"error: rounding budget: a top term of 2\^\d+ needs \d+ bits for tol/4, "
        r"over the 192-bit precision\n", err
    ), err
    assert time.process_time() - start < 1, im_tau


@pytest.mark.parametrize("z", ["3/2", "0", "1"])
def test_a_z_outside_the_unit_interval_exits_2_before_the_s_build(capsys, z):
    # the (20,19) S build alone takes most of a second of CPU; z's (0, 1)
    # refusal comes ahead of it
    start = time.process_time()
    argv = ("stransform", "--p", "20", "--q", "19", "--z", z, "--tau=0,1")
    code, out, err = run_cli(capsys, *argv)
    assert time.process_time() - start < 0.5, z
    assert (code, out, err) == (2, "", f"error: z must satisfy 0 < z < 1, got {Fraction(z)}\n")


def test_each_theta_bound_meets_tol_where_the_denominator_is_large(capsys):
    # at Im(tau) = 100 the right side's |den| is far above 32, and the
    # numerators are walked to tol, not to tol |den| / 32
    code, doc, _ = run_json(capsys, "stransform", "--p", "3", "--q", "2", "--z", "1/3",
                            "--tau=0,100")
    assert code == 0
    assert {c["name"]: c["status"] for c in doc["checks"]} == {
        "transformation_law": "pass", "theta_error_bounds": "pass",
    }


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_failing_check_exits_1_with_report(capsys):
    # KW1 omits the anomaly factor, so the transformation-law check fails
    code, doc, _ = run_json(
        capsys, "stransform", "--p", "3", "--q", "2", "--z", "1/2",
        "--tau", "0,3/2", "--variant", "KW1",
    )
    assert code == 1
    statuses = {c["name"]: c["status"] for c in doc["checks"]}
    assert statuses["transformation_law"] == "fail"
    assert statuses["theta_error_bounds"] == "pass"


def _break_oracle_build(monkeypatch):
    def failing(*args, **kwargs):
        raise InvariantError("stubbed")

    monkeypatch.setattr(cli, "bimodule_from_mff", failing)


@pytest.mark.parametrize(
    "argv, breakage",
    [
        (["bimodule", "--p", "3", "--q", "2", "--n", "1", "--k", "0"], _break_oracle_build),
    ],
    ids=["bimodule"],
)
def test_broken_invariant_exits_1_with_one_failed_check(capsys, monkeypatch, argv, breakage):
    breakage(monkeypatch)
    code, doc, err = run_json(capsys, *argv)
    assert code == 1
    assert err == ""
    assert doc["command"]["subcommand"] == argv[0]
    [check] = doc["checks"]
    assert check["name"] == argv[0] and check["status"] == "fail"
    assert check["detail"].startswith("raised InvariantError:")


def test_non_admissible_fusion_output_is_a_failed_check(capsys, monkeypatch):
    # at (3,2), w1 = w2 = (1,0) keeps degree 1; degree 3 would give j = -4
    real = fusion_module.fusion_degrees
    monkeypatch.setattr(fusion_module, "fusion_degrees", lambda *args: real(*args) + [3])
    code, doc, err = run_json(
        capsys, "fusion", "--p", "3", "--q", "2", "--j1", "1,0", "--j2", "1,0",
        "--oracle", "closed",
    )
    assert code == 1
    assert err == ""
    [check] = doc["checks"]
    assert check["name"] == "fusion" and check["status"] == "fail"
    assert check["detail"].startswith("raised InvariantError: fusion output j=-4")


def _failed_checks(doc) -> dict[str, str]:
    return {c["name"]: c["detail"] for c in doc["checks"] if c["status"] != "pass"}


def test_wrong_vacuum_polynomial_fails_the_annihilation_checks_by_name(capsys, monkeypatch):
    # one vacuum root moved by 1: same degree, one label off
    def moved(level):
        *rest, last = vacuum_labels(level)
        return (*rest, last + level.q)

    monkeypatch.setattr(verify, "vacuum_labels", moved)
    code, doc, _ = run_json(capsys, "zhu", "--p", "3", "--q", "2")
    assert code == 1
    assert _failed_checks(doc) == {"annihilation_proportional": "constant -1/2"}
    code, doc, _ = run_json(capsys, "verify", "--suite", "mff", "--pmax", "3", "--qmax", "2")
    assert code == 1
    assert _failed_checks(doc) == {
        "annihilation_p2_q1": "constant 1, degree 1",
        "annihilation_p3_q1": "constant 2, degree 2",
        "annihilation_p3_q2": "constant -1/2, degree 4",
    }


def test_ring_build_off_the_basis_fails_every_axioms_check(capsys, monkeypatch):
    # degree 3 sends every pair of the (3,2) box off the basis; the ring build
    # raises the resolver's error, which fails each axioms check by name
    real = fusion_module.fusion_degrees
    monkeypatch.setattr(fusion_module, "fusion_degrees", lambda *args: real(*args) + [3])
    code, doc, err = run_json(capsys, "verify", "--suite", "fusion", "--pmax", "3", "--qmax", "2")
    assert code == 1
    assert err == ""
    # verify binds its own fusion_degrees, so the three-way and classical checks pass
    failed = _failed_checks(doc)
    assert sorted(failed) == ["fusion_axioms_p2_q1", "fusion_axioms_p3_q1", "fusion_axioms_p3_q2"]
    assert all(
        detail.startswith("raised InvariantError: fusion output j=") for detail in failed.values()
    )
    code, doc, err = run_json(capsys, "fusion-table", "--p", "3", "--q", "2")
    assert code == 1
    assert err == ""
    [check] = doc["checks"]
    assert check["name"] == "fusion-table" and check["status"] == "fail"
    assert check["detail"].startswith("raised InvariantError: fusion output j=")


def test_wrong_c2_exponent_fails_c2_reduction_with_the_exponent(capsys, monkeypatch):
    # an extra central hb factor raises every exponent of the C2 remainder by one
    real = mff._projection_factors
    hb = PBWElement.generator(HEIS, "hb")
    monkeypatch.setattr(mff, "_projection_factors", lambda *args: real(*args) + [hb])
    code, doc, _ = run_json(capsys, "verify", "--suite", "mff", "--pmax", "3", "--qmax", "2")
    assert code == 1
    assert _failed_checks(doc) == {
        "c2_reduction_p2_q1": "hb^2, constant -1",
        "c2_reduction_p3_q1": "hb^3, constant 2",
        "c2_reduction_p3_q2": "hb^5, constant 3/2",
    }


def _lose_first_root(monkeypatch, *modules):
    """Bind in ``modules`` a presentation whose g_0 lacks its first root, j = 0."""
    real = fusion_module.bimodule_presentation

    def losing(weight):
        pres = real(weight)
        roots, *rest = pres.generators
        return dataclasses.replace(pres, generators=(roots[1:], *rest))

    for module in modules:
        monkeypatch.setattr(module, "bimodule_presentation", losing)


def test_presentation_that_loses_a_root_fails_dimension_formula(capsys, monkeypatch):
    _lose_first_root(monkeypatch, cli, verify)
    code, doc, _ = run_json(capsys, "bimodule", "--p", "5", "--q", "3", "--n", "1", "--k", "1")
    assert code == 1
    assert _failed_checks(doc) == {
        "dimension_formula": "n'(p-n')(q-k'+1) = 12",
        "mff_dimension_agrees": "projection oracle gives 12",
    }
    _, checks = verify.run_suites("mff", 4, 3)
    failed = {c["name"] for c in checks if c["status"] != "pass"}
    levels = [(2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (4, 3)]
    assert failed == {f"bimodule_dims_p{p}_q{q}" for p, q in levels}


def test_presentation_that_loses_a_vacuum_root_fails_the_three_way_check(capsys, monkeypatch):
    # every (w1, vacuum) pair loses degree 0
    _lose_first_root(monkeypatch, fusion_module, cli, verify)
    _, checks = verify.run_suites("fusion", 4, 3)
    levels = [(2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (4, 3)]
    assert {c["name"]: c["detail"] for c in checks if c["status"] != "pass"} == {
        f"fusion_three_way_p{p}_q{q}": f"{((p - 1) * q) ** 2} ordered pairs" for p, q in levels
    }
    code, doc, _ = run_json(
        capsys, "fusion", "--p", "3", "--q", "2", "--j1", "1,0", "--j2", "0,0",
        "--oracle", "all",
    )
    assert code == 1
    assert _failed_checks(doc) == {
        "oracles_agree": "closed form, bimodule presentation, projection oracle"
    }


# ------------------------------------------------------------ spec behavior


def test_weights_3_2(capsys):
    code, doc, _ = run_json(capsys, "weights", "--p", "3", "--q", "2")
    assert code == 0
    assert doc["schema_version"] == "1"
    assert doc["command"]["subcommand"] == "weights"
    assert doc["results"]["count"] == 4
    js = [w["j"] for w in doc["results"]["weights"]]
    assert js == ["0", "-3/2", "1", "-1/2"]
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_zhu_3_2(capsys):
    code, doc, _ = run_json(capsys, "zhu", "--p", "3", "--q", "2")
    assert code == 0
    assert doc["results"]["dimension"] == 4
    rel = doc["results"]["relation"]
    assert rel[-1] == [4, "1"]  # monic of degree (p-1)q = 4


def test_bimodule_3_2(capsys):
    code, doc, _ = run_json(
        capsys, "bimodule", "--p", "3", "--q", "2", "--n", "1", "--k", "1"
    )
    assert code == 0
    assert doc["results"]["dimension"] == 2  # n'(p-n')(q-k'+1) = 2*1*1
    assert {c["name"] for c in doc["checks"]} >= {
        "dimension_formula",
        "mff_dimension_agrees",
        "mff_tail_unit",
    }


def test_fusion_all_oracles(capsys):
    code, doc, _ = run_json(
        capsys, "fusion", "--p", "3", "--q", "2", "--j1", "1,0", "--j2", "1,1",
        "--oracle", "all",
    )
    assert code == 0
    assert doc["results"]["outputs"] == {"-3/2": 1}
    assert any(
        c["name"] == "oracles_agree" and c["status"] == "pass" for c in doc["checks"]
    )


def test_fusion_rational_weight_addressing(capsys):
    # --j accepts the weight's rational label; negative needs the = form
    code, doc, _ = run_json(
        capsys, "fusion", "--p", "3", "--q", "2", "--j1=-1/2", "--j2=-1/2"
    )
    assert code == 0
    assert doc["results"]["outputs"] == {}


@pytest.mark.parametrize("oracle", ["closed", "all"])
def test_fusion_table_3_2(capsys, oracle):
    code, doc, _ = run_json(
        capsys, "fusion-table", "--p", "3", "--q", "2", "--oracle", oracle
    )
    assert code == 0
    table = {(row["j1"], row["j2"]): row["outputs"] for row in doc["results"]["table"]}
    assert table[("1", "1")] == {"0": 1}
    assert table[("-1/2", "-1/2")] == {}
    assert table[("-3/2", "1")] == {"-1/2": 1}
    names = {c["name"]: c["status"] for c in doc["checks"]}
    assert names["unit"] == "pass"
    assert names["commutativity"] == "pass"
    assert names["associativity"] == "pass"
    assert names.get("oracles_agree") == ("pass" if oracle == "all" else None)


def test_mff_verify_document(capsys):
    code, doc, _ = run_json(capsys, "mff-verify", "--mmax", "2")
    assert code == 0
    by_id = doc["results"]["by_identity"]
    assert by_id  # nonempty
    for rec in by_id.values():
        assert rec["passed"] == rec["total"] > 0
    assert doc["results"]["failures"] == []


def test_character_fixture_3_2(capsys):
    code, doc, _ = run_json(
        capsys, "character", "--p", "3", "--q", "2", "--j", "1", "--z", "1/2",
        "--trunc", "2",
    )
    assert code == 0
    series = doc["results"]["series"]
    assert rat(doc["results"]["predicted_lowest_exponent"]) == Fraction(25, 96)
    assert series["D"] == 96
    assert series["terms"][0] == [25, "1"]
    assert series["terms"][1] == [73, "2"]


def test_character_chibar_with_numeric_check(capsys):
    code, doc, _ = run_json(
        capsys, "character", "--p", "3", "--q", "2", "--j", "1", "--z", "1/2",
        "--kind", "chibar", "--tau", "0,1",
    )
    assert code == 0
    assert rat(doc["results"]["predicted_lowest_exponent"]) == Fraction(7, 24)
    names = {c["name"]: c["status"] for c in doc["checks"]}
    assert names["series_numeric_agreement"] == "pass"


def test_stransform_kw2_document(capsys):
    code, doc, _ = run_json(
        capsys, "stransform", "--p", "3", "--q", "2", "--z", "1/2", "--tau", "0,3/2"
    )
    assert code == 0
    res = doc["results"]
    assert len(res["s_matrix"]) == 4 and len(res["s_matrix"][0]) == 4
    assert len(res["final_residuals"]) == 4
    names = {c["name"]: c["status"] for c in doc["checks"]}
    assert names["theta_error_bounds"] == "pass"
    assert names["transformation_law"] == "pass"


def test_verify_small(capsys):
    code, doc, _ = run_json(
        capsys, "verify", "--suite", "mff", "--pmax", "3", "--qmax", "2"
    )
    assert code == 0
    assert doc["results"]["checks_failed"] == 0


# ------------------------------------------------------------- determinism


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_repeated_runs_byte_identical(capsys, fmt):
    argv = [
        "character", "--p", "3", "--q", "2", "--j", "1", "--z", "1/2",
        "--tau", "0,1", "--format", fmt,
    ]
    outs = []
    for _ in range(3):
        code = main(list(argv))
        outs.append(capsys.readouterr().out)
        assert code == 0
    assert outs[0] == outs[1] == outs[2]


def test_module_entry_point_matches_in_process(capsys):
    argv = ["weights", "--p", "5", "--q", "3", "--format", "json"]
    code = main(list(argv))
    in_process = capsys.readouterr().out
    assert code == 0
    proc = subprocess.run(
        [sys.executable, "-m", "admissible_sl2", *argv],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == in_process


def test_text_format_renders_checks(capsys):
    code, out, _ = run_cli(capsys, "weights", "--p", "3", "--q", "2")
    assert code == 0
    assert out.startswith("weights (p=3, q=2")
    assert "checks: " in out and "[pass]" in out


# ------------------------------------------------------------------ parser
#
# ``main`` parses every argv with one parser, built at import.
# ``usage_golden.json`` holds what it printed for these argv, recorded under
# the Python it names at COLUMNS=80 (argparse wraps to the terminal width, and
# its wording moves between Python versions).

USAGE_GOLDEN = json.loads((Path(__file__).resolve().parent / "usage_golden.json").read_text())


def test_usage_and_errors_are_unchanged(capsys, monkeypatch):
    python = "%d.%d" % sys.version_info[:2]
    if python != USAGE_GOLDEN["python"]:
        pytest.skip(f"argparse text recorded under Python {USAGE_GOLDEN['python']}, not {python}")
    monkeypatch.setenv("COLUMNS", str(USAGE_GOLDEN["columns"]))
    for case in USAGE_GOLDEN["cases"]:
        code, out, err = run_cli(capsys, *case["argv"])
        assert (code, out, err) == (case["code"], case["out"], case["err"]), case["argv"]


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an ArgumentParser was built")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert run_cli(capsys, "weights", "--p", "3", "--q", "2")[0] == 0


def test_help_wraps_to_the_columns_of_each_call(capsys, monkeypatch):
    widest = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        widest.append(max(map(len, run_cli(capsys, "character", "--help")[1].splitlines())))
    assert widest[0] < widest[1]
