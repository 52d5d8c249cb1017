"""Report bytes pinned across commits: the exit status and SHA-256 of stdout.

``golden_reports.json`` holds, for each argv below in ``--format json`` and in
``--format text``, what ``admsl2`` printed and returned when the file was
made.  A refactor that is meant to leave every report unchanged must keep
every entry.  Regenerate the file only at a commit whose reports are known to
be right::

    PYTHONPATH=src python tests/test_golden_reports.py

Regeneration prints each argv whose exit status or stdout hash differs from
the file it replaces, with the fields that moved, so a change can show that
only the entries it meant to move did.

Each ``stransform`` report among them in ``--format json`` is also held to
the benchmark's own check of its derived fields,
``perfbench/reference.py``'s ``stransform_derived_failures``, imported by
path and unchanged: every residual, error bound and final follows from the
report's own quotients, factors and S matrices.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from admissible_sl2.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"

AT_5_3 = ("--p", "5", "--q", "3")
AT_8_5 = ("--p", "8", "--q", "5")
STRANSFORM = ("stransform", "--p", "3", "--q", "2", "--z", "1/3", "--tau=-0.5,0.8")
ARGVS = [
    ("weights", *AT_5_3),
    ("zhu", *AT_5_3),
    ("bimodule", *AT_5_3, "--n", "1", "--k", "1"),
    ("fusion", *AT_5_3, "--j1", "1,0", "--j2", "2,1", "--oracle", "all"),
    ("fusion", *AT_5_3, "--j1", "1,0", "--j2", "2,1", "--oracle", "bimodule"),
    ("fusion", *AT_5_3, "--j1", "1,0", "--j2", "2,1", "--oracle", "mff"),
    ("fusion-table", *AT_5_3, "--oracle", "all"),
    ("fusion-table", *AT_5_3),
    ("mff-verify",),
    ("character", *AT_5_3, "--n", "1", "--k", "1", "--z", "1/3"),
    ("character", *AT_5_3, "--n", "1", "--k", "1", "--z", "1/3",
     "--kind", "chibar", "--tau", "0.1,1.2"),
    ("character", *AT_8_5, "--n", "6", "--k", "4", "--z", "3/7", "--trunc", "160"),
    ("character", *AT_8_5, "--n", "6", "--k", "4", "--z", "3/7",
     "--kind", "chibar", "--trunc", "301/2"),
    STRANSFORM,
    (*STRANSFORM, "--variant", "KW1"),
    (*STRANSFORM, "--tol", "0"),
    ("verify", "--suite", "characters", "--pmax", "6", "--qmax", "4"),
    ("verify", "--suite", "mff", "--pmax", "4", "--qmax", "3"),
    ("verify", "--suite", "fusion", "--pmax", "4", "--qmax", "3"),
    ("verify", "--suite", "all", "--pmax", "6", "--qmax", "4"),
    ("bimodule", *AT_8_5, "--n", "3", "--k", "2"),
    ("stransform", *AT_8_5, "--z", "3/7", "--tau=1.2,0.2", "--tol", "1e-30"),
]
# A quotient that misses its bound at the first component tolerance and retries
RETRY = ("stransform", *AT_5_3, "--z", "1/3", "--tau=-0.03,0.05", "--tol", "1e-11")
CASES = [(*argv, "--format", fmt) for argv in ARGVS for fmt in ("json", "text")]
CASES.append((*RETRY, "--format", "json"))


def _stdout(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _run(argv) -> dict:
    code, out = _stdout(argv)
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_report_bytes_match_golden(argv):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _run(argv) == golden[" ".join(argv)]


def _benchmark_reference():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the stransform reports among the cases; --tol 0 is refused, so it has none
STRANSFORM_REPORTS = [
    argv for argv in CASES
    if argv[0] == "stransform" and argv[-1] == "json" and "0" not in argv
]


@pytest.mark.parametrize("argv", STRANSFORM_REPORTS, ids=" ".join)
def test_stransform_reports_pass_the_benchmarks_derived_field_check(argv):
    code, out = _stdout(argv)
    if "--tol" not in argv:
        argv = (*argv, "--tol", "1e-10")  # the CLI's default, as the check reads it
    failures = _benchmark_reference().stransform_derived_failures(list(argv), json.loads(out)["results"])
    # KW1 omits the factor, so its law fails by design (exit 1); every derived
    # field still follows from the report's own values
    assert (code, failures) == ((1, ["transformation_law"]) if "KW1" in argv else (0, []))


if __name__ == "__main__":
    previous = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    table = {" ".join(argv): _run(argv) for argv in CASES}
    for key, entry in table.items():
        old = previous.get(key, {})
        moved = [field for field, value in entry.items() if old.get(field) != value]
        if moved:
            print(f"{key}: {', '.join(moved)}")
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
