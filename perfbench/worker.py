"""Run one op stream in a fresh process: one client, closed loop, no threads.

Usage (from the root of a checkout; ``run.py`` does this)::

    echo '{"ops": [["weights", "--p", "3", "--q", "2", "--format", "json"]], "trace": false}' \
        | python3 perfbench/worker.py

The package is imported from ``src/`` of the current directory.  Each op is
one ``admissible_sl2.cli.main(argv)`` call with its stdout and stderr
captured; its latency covers that call only.  The worker prints one JSON
object: the latencies, peak RSS, what ``reference.extract`` keeps of each
op, the software versions, and with ``"trace": true`` the per-layer metrics
(the spans themselves go to ``"spans_path"`` when the job names one).
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import resource
import sys
import time

import reference
import tracing


def import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import admissible_sl2.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"admissible_sl2 imported from {cli.__file__}, not from {src}")
    return cli


def versions() -> dict:
    import mpmath
    import numpy

    return {
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
    }


def layer_metrics(tracer: tracing.Tracer) -> dict[str, float]:
    """Per-layer values from the spans and counts of one traced run."""
    spans = tracer.spans
    totals = tracing.span_totals(spans)
    out: dict[str, float] = {}
    for name in tracing.SPAN_NAMES + ("op",):
        row = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        label = "cli.op" if name == "op" else name
        if name != "op":
            out[f"{label}_calls"] = row["calls"]
            out[f"{label}_s"] = row["s"]
        out[f"{label}_self_s"] = row["self_s"]
    counts = tracer.counts
    for key in ("pbw.terms_out", "mff.projection_terms", "qseries.div_terms_out", "report.bytes_out"):
        out[key] = counts[key]
    pbw = sys.modules["admissible_sl2.pbw"]
    out["pbw.gen_cache_entries"] = len(pbw._GEN_CACHE)
    oracles = out["mff.oracle_calls"]
    out["mff.oracle_unique_ratio"] = len(tracer.oracle_keys) / oracles if oracles else 0.0
    series = out["characters.series_calls"]
    divs = tracing.count_under(spans, "qseries.div", "characters.series")
    out["characters.div_per_series"] = divs / series if series else 0.0
    quotients = out["numeric.quotient_calls"]
    evals = tracing.count_under(spans, "numeric.theta_eval", "numeric.quotient")
    out["numeric.theta_evals_per_quotient"] = evals / quotients if quotients else 0.0
    out["trace.spans"] = len(spans)
    return out


def run(job: dict, root: str) -> dict:
    cli = import_package(root)
    tracer = tracing.Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    latencies = []
    outputs = []
    for argv in job["ops"]:
        out, err = io.StringIO(), io.StringIO()
        error = None
        rc = None
        span = tracer.span("op") if tracer is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            error = f"raised {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        outputs.append(reference.extract(argv, rc, out.getvalue(), error))
    result = {
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs": outputs,
        "versions": versions(),
    }
    if tracer is not None:
        tracer.restore()
        result["layers"] = layer_metrics(tracer)
        if job.get("spans_path"):
            with gzip.open(job["spans_path"], "wt", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    return result


def main() -> int:
    job = json.load(sys.stdin)
    result = run(job, os.getcwd())
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
