"""The exit-status contract of ``admsl2`` under a derandomized argv fuzz.

The grammar covers all nine subcommands with flags that argparse accepts,
so every argv reaches a handler.  Each value is joined to its flag by ``=``
or given as the next argument, as likely, so a negative value stands beside
its flag about half the time.  Its values come from small ranges that hold
the bad values beside the good ones: non-coprime or out-of-range (p, q),
n or k outside the box, z outside (0, 1), zero denominators, Im tau <= 0,
tol <= 0, a ``--trunc`` at or below the lowest exponent, and exponents past
the integer digit limit (``1e-99999``, ``1e99999``).  For every argv:

- no exception escapes :func:`~admissible_sl2.cli.main`, and it returns 0, 1 or 2;
- exit 2 leaves stdout empty and writes one stderr line starting ``error: ``,
  within 0.5 s of CPU;
- exit 1 prints a report with at least one failed check;
- the same argv twice gives the same exit status and the same bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from admissible_sl2.cli import main


def _mostly(good: list, bad: list):
    """One of ``good`` or ``bad``, each good value four times as likely as each bad one."""
    return st.sampled_from(good * 4 + bad)


_LEVELS = _mostly(
    [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 2), (5, 3)],
    [(4, 2), (6, 4), (3, 3), (1, 3), (0, 1), (3, 0), (2, -1)],
)
_BAD_NUMBERS = ["1/0", "-3/0", "1/2", "-7/3", "5", "-1"]
_HUGE = ["1e-99999", "1e99999"]
_Z = _mostly(["1/2", "1/3", "2/5", "3/7", "2/3"], ["0", "1", "-1/2", "3/2", "1/0", *_HUGE])
_TAU = st.builds(
    "{},{}".format,
    _mostly(["0", "-1/2", "1/3", "1", "0.25"], ["1/0", *_HUGE]),
    _mostly(["1", "3/2", "1/2", "2"], ["0", "-1", "-1/3", "1/0", *_HUGE]),
)
_TOL = _mostly(["1e-8", "1e-12", "1e-20"], ["0", "-1e-8", "nan"])
_TRUNC = _mostly(["1", "3", "6", "5/2"], ["-1", "0", "-1/4", "1/0", *_HUGE])
_FORMAT = st.lists(st.sampled_from(["json", "text"]), max_size=1).map(
    lambda f: ["--format", *f] if f else []
)


@st.composite
def _flag(draw, name: str, value) -> list[str]:
    """``--name=value`` or ``--name value``, each as likely."""
    return [f"--{name}={value}"] if draw(st.booleans()) else [f"--{name}", str(value)]


@st.composite
def _box(draw, p: int, q: int) -> tuple[int, int, str]:
    """(n, k) in the box of (p, q) or one step outside it, and its rational n - k p/q."""
    inside = draw(_mostly([True], [False]))
    n = draw(st.integers(0, max(p - 2, 0)) if inside else st.sampled_from([-1, max(p - 1, 0)]))
    k = draw(st.integers(0, max(q - 1, 0)) if inside else st.sampled_from([-1, max(q, 0)]))
    return n, k, f"{n * q - k * p}/{q}"


@st.composite
def _weight(draw, p: int, q: int) -> list[str]:
    """``--n/--k`` of a box point, or ``--j`` as its rational or as a bad string."""
    n, k, j = draw(_box(p, q))
    form = draw(_mostly(["nk", "j"], ["bad"]))
    if form == "nk":
        return draw(_flag("n", n)) + draw(_flag("k", k))
    return draw(_flag("j", j if form == "j" else draw(st.sampled_from(_BAD_NUMBERS))))


@st.composite
def _pair(draw, p: int, q: int) -> str:
    """A ``--j1``/``--j2`` value: "n,k" of a box point, its rational, or a bad string."""
    n, k, j = draw(_box(p, q))
    return draw(_mostly([f"{n},{k}", j], [draw(st.sampled_from(_BAD_NUMBERS + ["1,2,3", "a,b"]))]))


@st.composite
def _argv(draw) -> list[str]:
    name = draw(st.sampled_from([
        "weights", "zhu", "bimodule", "fusion", "fusion-table", "mff-verify",
        "character", "stransform", "verify",
    ]))
    argv = [name]
    p, q = draw(_LEVELS)
    if name not in ("mff-verify", "verify"):
        argv += draw(_flag("p", p)) + draw(_flag("q", q))
    if name == "bimodule":
        argv += draw(_weight(p, q))
    elif name == "fusion":
        argv += draw(_flag("j1", draw(_pair(p, q)))) + draw(_flag("j2", draw(_pair(p, q))))
        argv += ["--oracle", draw(st.sampled_from(["closed", "bimodule", "mff", "all"]))]
    elif name == "fusion-table":
        argv += ["--oracle", draw(st.sampled_from(["closed", "all"]))]
    elif name == "mff-verify":
        argv += draw(_flag("mmax", draw(_mostly([1, 2, 3], [0, 9]))))
    elif name == "character":
        argv += draw(_weight(p, q)) + draw(_flag("z", draw(_Z)))
        argv += draw(_flag("trunc", draw(_TRUNC)))
        argv += ["--kind", draw(st.sampled_from(["chi", "chibar"]))]
        if draw(st.booleans()):
            argv += draw(_flag("tau", draw(_TAU))) + draw(_flag("tol", draw(_TOL)))
    elif name == "stransform":
        argv += draw(_flag("z", draw(_Z))) + draw(_flag("tau", draw(_TAU)))
        argv += draw(_flag("tol", draw(_TOL)))
        argv += ["--variant", draw(st.sampled_from(["KW1", "KW2"]))]
    elif name == "verify":
        argv += ["--suite", draw(st.sampled_from(["all", "fusion", "mff", "characters"]))]
        argv += draw(_flag("pmax", draw(_mostly([2, 3, 4], [1, 9]))))
        argv += draw(_flag("qmax", draw(_mostly([1, 2], [0, 7]))))
    return argv + draw(_FORMAT)


def _run(argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue(), time.process_time() - start


def _failed_checks(out: str, json_format: bool) -> int:
    if json_format:
        return sum(c["status"] != "pass" for c in json.loads(out)["checks"])
    return sum(line.startswith("  [FAIL] ") for line in out.splitlines())


@settings(max_examples=160, derandomize=True, database=None, deadline=None)
@given(_argv())
def test_every_argv_keeps_the_exit_contract(argv):
    code, out, err, cpu = _run(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), argv
        assert cpu < 0.5, (argv, cpu)
    else:
        assert err == "", argv
        failed = _failed_checks(out, "json" in argv)
        assert (failed > 0) == (code == 1), (argv, failed)
    assert _run(argv)[:3] == (code, out, err), argv
