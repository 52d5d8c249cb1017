"""Spans and counts recorded around the package's public layer functions.

The tracer wraps functions from outside: every module of the package that
binds a traced function (``bimodule_from_mff`` is bound in ``mff``,
``fusion``, ``verify``, ``cli`` and the package itself) gets the same
wrapper, so no call goes uncounted.  Calls made through a module's globals
(``PBWElement.__mul__`` -> ``pbw_product``, ``_chibar_numeric`` ->
``theta_eval_numeric``) are caught the same way.  The private
``_mono_times_gen``/``_terms_times_gen`` stay unwrapped: they run millions of
times and a wrapper there would dominate what it measures.

A span is ``[name, start, end, parent]``, with ``parent`` the index of the
enclosing span (-1 for none).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "admissible_sl2"

# (module, attribute, span name).  A dotted attribute is a classmethod.
TRACED = (
    ("pbw", "pbw_product", "pbw.product"),
    ("pbw", "verify_operator_identities", "pbw.identities"),
    ("mff", "bimodule_from_mff", "mff.oracle"),
    ("mff", "fuchs_projection", "mff.projection"),
    ("mff", "hw_annihilation_polynomial", "mff.annihilation"),
    ("mff", "c2_heisenberg_reduction", "mff.c2"),
    ("exact", "poly_gcd", "exact.poly_gcd"),
    ("fusion", "fusion", "fusion.fusion"),
    ("fusion", "FusionRing.build", "fusion.ring_build"),
    ("verify", "fusion_suite", "verify.fusion_suite"),
    ("verify", "mff_suite", "verify.mff_suite"),
    ("verify", "characters_suite", "verify.characters_suite"),
    ("qseries", "theta_qseries", "qseries.theta"),
    ("qseries", "qseries_div", "qseries.div"),
    ("characters", "character_qseries", "characters.series"),
    ("numeric", "theta_eval_numeric", "numeric.theta_eval"),
    ("numeric", "_chibar_numeric", "numeric.quotient"),
    ("numeric", "s_transform_residual", "numeric.stransform"),
    ("report", "document", "report.encode"),
    ("report", "dumps", "report.dumps"),
)
SPAN_NAMES = tuple(name for _, _, name in TRACED)


def _terms(counter: str):
    def after(tracer, args, kwargs, out):
        tracer.counts[counter] += len(out.terms)
    return after


def _oracle_key(tracer, args, kwargs, out):
    tracer.oracle_keys.add((out.level.p, out.level.q, out.n_primed, out.k_primed, out.d_max))


def _bytes_out(tracer, args, kwargs, out):
    tracer.counts["report.bytes_out"] += len(out.encode("utf-8"))


AFTER = {
    "pbw.product": _terms("pbw.terms_out"),
    "mff.projection": _terms("mff.projection_terms"),
    "qseries.div": _terms("qseries.div_terms_out"),
    "mff.oracle": _oracle_key,
    "report.dumps": _bytes_out,
}


class Tracer:
    """Records spans and counts; ``install`` wraps the package, ``restore`` undoes it."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.oracle_keys: set = set()
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one op."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str):
        after = AFTER.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every binding of every traced function in the loaded package modules."""
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))
        ]
        for mod_name, attr, name in TRACED:
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                self._set(cls, meth, classmethod(self.wrap(original.__func__, name)))
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(original, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def restore(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of its interval its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans, i: int, name: str) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive time and self time.

    Inclusive time counts only the outermost span of a name, so a recursive
    call is not counted twice.
    """
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += selfs[i]
        if not _has_ancestor(spans, i, name):
            row["s"] += end - start
    return dict(out)


def count_under(spans, name: str, ancestor: str) -> int:
    """Number of spans called ``name`` that run inside a span called ``ancestor``."""
    return sum(1 for i, s in enumerate(spans) if s[0] == name and _has_ancestor(spans, i, ancestor))
