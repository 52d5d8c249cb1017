"""Tests of the benchmark itself: op generation, self time, tracing, the reference check."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# A box small enough for the tests; verify-sweep itself runs (6, 4).
SMALL_VERIFY_BOX = (4, 3)


@pytest.mark.parametrize("workload", ["series-queries", "modular-queries"])
def test_same_seed_same_ops_other_seed_other_ops(workload):
    a = workloads.ops_for(workload, 7, 10)
    assert a == workloads.ops_for(workload, 7, 10)
    assert a != workloads.ops_for(workload, 8, 10)
    assert len(a) == len(workloads.LEVELS) * workloads.rounds_for(workload, 10)


@pytest.mark.parametrize("workload", ["series-queries", "modular-queries"])
def test_every_seed_runs_the_whole_catalogue_at_ten_seconds(workload):
    whole = sorted(op for cands in workloads.catalogue(workload).values() for op in cands)
    assert sorted(workloads.ops_for(workload, 3, 10)) == whole
    assert sorted(workloads.ops_for(workload, 4, 10)) == whole


def test_verify_sweep_ignores_seed():
    assert workloads.ops_for("verify-sweep", 1, 10) == workloads.ops_for("verify-sweep", 2, 30)


@pytest.mark.parametrize("workload", ["series-queries", "modular-queries"])
def test_every_selectable_op_has_a_reference(workload):
    refs = reference.load(workload)
    ops = [op for cands in workloads.catalogue(workload).values() for op in cands]
    assert {workloads.op_key(op) for op in ops} <= refs.keys()


def test_stratified_draws_one_per_stratum():
    import random

    xs = sorted(workloads.stratified(random.Random(0), 60, 160, 8))
    assert all(60 + i * 101 / 8 <= x < 60 + (i + 1) * 101 / 8 for i, x in enumerate(xs))


def test_self_time_on_synthetic_span_tree():
    spans = [
        ["op", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a", 2.0, 3.0, 1],  # recursive call of "a"
        ["b", 3.5, 6.0, 0],  # overlaps its sibling from 3.5 to 4
        ["c", 9.0, 12.0, 0],  # runs past its parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 5 - 1, 2, 1, 2.5, 3])
    totals = tracing.span_totals(spans)
    assert totals["a"] == pytest.approx({"calls": 2, "s": 3.0, "self_s": 3.0})
    assert totals["op"] == pytest.approx({"calls": 1, "s": 10.0, "self_s": 4.0})
    assert tracing.count_under(spans, "a", "a") == 1


def test_install_wraps_every_binding_and_restore_undoes_it(capsys):
    import admissible_sl2
    import admissible_sl2.cli as cli

    modules = [m for k, m in sys.modules.items() if k.startswith("admissible_sl2")]
    originals = {}
    for mod_name, attr, _ in tracing.TRACED:
        if "." not in attr:
            originals[attr] = getattr(sys.modules[f"admissible_sl2.{mod_name}"], attr)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for attr, fn in originals.items():
            assert not [m for m in modules if any(v is fn for v in vars(m).values())], attr
        with tracer.span("op"):
            assert cli.main(["zhu", "--p", "3", "--q", "2", "--format", "json"]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    names = [s[0] for s in tracer.spans]
    assert names.count("op") == 1
    assert "exact.poly_gcd" in names and "mff.annihilation" in names
    assert admissible_sl2.poly_gcd is originals["poly_gcd"]
    assert sys.modules["admissible_sl2.cli"].poly_gcd is originals["poly_gcd"]


def _traced_verify_run() -> dict:
    job = {"ops": [workloads.verify_op(*SMALL_VERIFY_BOX)], "trace": True}
    proc = subprocess.run(
        [sys.executable, run.WORKER], input=json.dumps(job), cwd=ROOT,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_verify_pair():
    return _traced_verify_run(), _traced_verify_run()


def test_traced_verify_runs_repeat_their_counts(traced_verify_pair):
    first, second = traced_verify_pair
    for out in (first, second):
        assert out["outputs"][0]["rc"] == 0 and not out["outputs"][0]["checks_failed"]

    def counts(layers):
        return {k: v for k, v in layers.items() if not k.endswith("_s")}

    assert counts(first["layers"]) == counts(second["layers"])
    layers = first["layers"]
    # Both the fusion and the mff suite build every oracle of the box once.
    pmax, qmax = SMALL_VERIFY_BOX
    weights = sum((p - 1) * q for p in range(2, pmax + 1) for q in range(1, qmax + 1)
                  if math.gcd(p, q) == 1)
    assert layers["mff.oracle_calls"] == 2 * weights
    assert layers["mff.oracle_unique_ratio"] == 0.5
    assert layers["numeric.theta_evals_per_quotient"] == 4
    assert layers["characters.div_per_series"] == 1


def test_benchmark_json_names_every_emitted_metric(traced_verify_pair):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    emitted = run.trace_values({"wall_s": 1.0}, traced_verify_pair[0])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: run.layer_unit(k) for k in emitted
    }


def test_certified_values_agree_within_err_bounds():
    ref = ["1.5", "-0.25", "1.0e-12"]
    assert reference.values_agree(["1.5000000000015", "-0.25", "1.0e-12"], ref)
    assert not reference.values_agree(["1.500000000003", "-0.25", "1.0e-12"], ref)


def test_failure_reasons():
    ok = {"rc": 0, "error": None, "checks_failed": [], "digest": "d", "values": [["1", "0", "1e-9"]]}
    assert reference.failure(ok, {"digest": "d", "values": [["1", "0", "1e-9"]]}) is None
    assert "differ" in reference.failure(ok, {"digest": "e", "values": ok["values"]})
    assert "err bounds" in reference.failure(ok, {"digest": "d", "values": [["2", "0", "1e-9"]]})
    assert "no reference" in reference.failure(ok, None)
    assert "exit status 1" in reference.failure({"rc": 1, "error": None}, None)


STRANSFORM_OP = ["stransform", "--p", "3", "--q", "2", "--z", "1/3", "--tau=-0.5,0.8",
                 "--tol", "1e-12", "--format", "json"]


@pytest.fixture(scope="module")
def stransform_report():
    import contextlib
    import io

    import admissible_sl2.cli as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(STRANSFORM_OP)) == 0
    return json.loads(out.getvalue())


def _nudge(text: str) -> str:
    """The rendered value times 1 + 1e-10, a change far outside its 30-digit rendering."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 60
        return str(Decimal(text) * (1 + Decimal("1e-10")))


@pytest.mark.parametrize(
    "path, why",
    [
        (("results", "as_printed_s_matrix", 0, 1, 1), "exact results differ"),
        (("results", "alt_factor", 0), "alt_final_residuals"),
        (("results", "alt_final_residuals", 2), "alt_final_residuals"),
        (("results", "as_printed_final_residuals", 1), "as_printed_final_residuals"),
        (("results", "residual_partial_sums", 1, 0), "residual_partial_sums"),
        (("results", "final_residuals", 3), "final_residuals"),
        (("results", "theta_error_max"), "theta_error_max"),
    ],
)
def test_stransform_gate_catches_a_changed_uncertified_field(stransform_report, path, why):
    rec = reference.extract(STRANSFORM_OP, 0, json.dumps(stransform_report), None)
    ref = reference.reference_entry(rec)
    assert reference.failure(rec, ref) is None
    doc = json.loads(json.dumps(stransform_report))
    *head, last = path
    owner = doc
    for key in head:
        owner = owner[key]
    owner[last] = "2e-12" if last == "theta_error_max" else _nudge(owner[last])
    bad = reference.extract(STRANSFORM_OP, 0, json.dumps(doc), None)
    assert why in reference.failure(bad, ref)


@pytest.mark.parametrize("drop", [("checks",), ("results",), ("results", "alt_final_residuals")])
def test_report_missing_a_field_is_a_failed_op(stransform_report, drop):
    doc = json.loads(json.dumps(stransform_report))
    owner = doc if len(drop) == 1 else doc[drop[0]]
    del owner[drop[-1]]
    rec = reference.extract(STRANSFORM_OP, 0, json.dumps(doc), None)
    assert "lacks or garbles" in reference.failure(rec, None)


def test_report_with_a_garbled_value_is_a_failed_op(stransform_report):
    doc = json.loads(json.dumps(stransform_report))
    doc["results"]["chibar"][0]["value"][0] = "not a number"
    rec = reference.extract(STRANSFORM_OP, 0, json.dumps(doc), None)
    assert "lacks or garbles" in reference.failure(rec, None)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "series-queries", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
