"""Command-line interface: exit codes, document structure, determinism."""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from admissible_sl2.cli import main
from admissible_sl2.report import parse_rational


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
    assert parse_rational(doc["results"]["predicted_lowest_exponent"]) == Fraction(25, 96)
    assert series["D"] == 96
    assert series["terms"][0] == [25, "1"]
    assert series["terms"][1] == [73, "2"]


def test_character_chibar_with_numeric_check(capsys):
    code, doc, _ = run_json(
        capsys, "character", "--p", "3", "--q", "2", "--j", "1", "--z", "1/2",
        "--kind", "chibar", "--tau", "0,1",
    )
    assert code == 0
    assert parse_rational(doc["results"]["predicted_lowest_exponent"]) == Fraction(7, 24)
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
