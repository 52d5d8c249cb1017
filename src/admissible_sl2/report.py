"""Deterministic JSON/text report documents for the command-line front end.

Every subcommand assembles one document::

    {"schema_version": "1",
     "command": {"subcommand": ..., "parameters": {...}},
     "results": <subcommand payload>,
     "checks": [{"name": ..., "status": "pass"|"fail", "detail": ...}, ...]}

``encode`` maps the package's exact and certified-numeric values onto JSON
primitives: rationals become "a/b" strings (integers render as "a"),
polynomials become sorted [degree, "a/b"] pairs, q-series become
{"D", "terms", "order"}, weights and levels become small integer/rational
objects, and certified complex values become {"value": ["re", "im"],
"err": ...} with decimal strings.  The text format is produced by walking
the same encoded document, never by a second rendering path, and the JSON
is emitted with stable insertion ordering so identical inputs are
byte-identical.

``dumps`` writes the indented JSON itself: ``json.dumps`` with an indent
falls back to the standard library's pure-Python encoder, which took longer
than the rest of a short report.  Its output is held to be exactly
``json.dumps(doc, indent=2, ensure_ascii=False)`` plus a newline; the tests
compare the two on random documents and on every golden report.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring
from typing import Any, Mapping

import mpmath as mp
from mpmath.libmp import to_str

from .exact import UniPoly, rat_str
from .numeric import ComplexVal
from .qseries import QSeries
from .weights import AdmissibleWeight, Level

__all__ = [
    "SCHEMA_VERSION",
    "check",
    "failed",
    "document",
    "encode",
    "dumps",
    "render_text",
    "all_checks_pass",
]

SCHEMA_VERSION = "1"

_VALUE_DIGITS = 30
_ERR_DIGITS = 8


def _real_str(x, digits: int = _VALUE_DIGITS) -> str:
    """Decimal string of an mpmath real, deterministic for a given value.

    The value is formatted as-is (no re-rounding to the ambient working
    precision, which would truncate high-precision certified bounds).
    """
    xf = x if isinstance(x, mp.mpf) else mp.mpf(x)
    return to_str(xf._mpf_, digits, strip_zeros=True)


def _complex_pair(x) -> list[str]:
    xc = x if isinstance(x, (mp.mpf, mp.mpc)) else mp.mpc(x)
    return [_real_str(xc.real), _real_str(xc.imag)]


def encode(value: Any) -> Any:
    """Rewrite ``value`` into JSON primitives; a float, which has no error bound, raises."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, UniPoly):
        return [[deg, rat_str(c)] for deg, c in sorted(value.coeffs.items())]
    if isinstance(value, QSeries):
        return {
            "D": value.denom,
            "terms": [[m, rat_str(c)] for m, c in sorted(value.terms.items())],
            "order": rat_str(value.order),
        }
    if isinstance(value, Level):
        return {
            "p": value.p,
            "q": value.q,
            "ell": rat_str(value.ell),
            "t": rat_str(value.t),
        }
    if isinstance(value, AdmissibleWeight):
        return {"n": value.n, "k": value.k, "j": rat_str(value.j)}
    if isinstance(value, ComplexVal):
        return {
            "value": _complex_pair(value.value),
            "err": _real_str(value.err, _ERR_DIGITS),
        }
    if isinstance(value, mp.mpc):
        return _complex_pair(value)
    if isinstance(value, mp.mpf):
        return _real_str(value)
    if isinstance(value, Mapping):
        return {_key_str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    raise TypeError(f"cannot encode {type(value).__name__} into a report")


def _key_str(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, Fraction):
        return rat_str(key)
    if isinstance(key, int):
        return str(key)
    raise TypeError(f"cannot encode mapping key {key!r}")


def check(name: str, ok: bool, detail: str = "") -> dict:
    """One entry of the ``checks`` list."""
    return {"name": name, "status": "pass" if ok else "fail", "detail": detail}


def failed(name: str, exc: Exception) -> dict:
    """The failed check of a computation that raised ``exc`` instead of completing."""
    return check(name, False, f"raised {type(exc).__name__}: {exc}")


def document(
    subcommand: str,
    parameters: Mapping[str, Any],
    results: Any,
    checks: list[dict],
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": {"subcommand": subcommand, "parameters": encode(dict(parameters))},
        "results": encode(results),
        "checks": encode(checks),
    }


def all_checks_pass(checks: list[dict]) -> bool:
    return all(c["status"] == "pass" for c in checks)


def dumps(doc: Mapping[str, Any]) -> str:
    """``json.dumps(doc, indent=2, ensure_ascii=False) + "\\n"``, written directly.

    The standard library takes its pure-Python encoder whenever an indent is
    given; this writer emits the same bytes for the primitives ``encode``
    produces (dicts with ``str`` keys, lists, ``str``, ``int``, ``bool`` and
    ``None``), with strings escaped by the C ``encode_basestring`` that
    ``json.dumps`` itself uses.  Anything else, a ``float`` or a non-``str``
    key included, raises ``TypeError``.
    """
    out: list[str] = []
    _write(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(value: Any, out: list[str], pad: str) -> None:
    """Append the indent-2 JSON of ``value``; ``pad`` is a newline and its indent."""
    if isinstance(value, str):
        out.append(encode_basestring(value))
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, got {type(key).__name__}")
            out.append(sep + encode_basestring(key) + ": ")
            _write(item, out, inner)
            sep = "," + inner
        out.append(pad + "}")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"cannot write {type(value).__name__} as report JSON")


# -- text rendering ----------------------------------------------------------


def _inline(value: Any) -> str | None:
    """Single-line rendering of a scalar or a flat/paired list, else None."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        parts = [_inline(v) for v in value]
        if all(p is not None for p in parts):
            return "[" + ", ".join(parts) + "]"  # type: ignore[arg-type]
    return None


def _render(value: Any, lines: list[str], depth: int) -> None:
    pad = "  " * depth
    if isinstance(value, dict):
        for key, sub in value.items():
            flat = _inline(sub)
            if flat is not None:
                lines.append(f"{pad}{key}: {flat}")
            else:
                lines.append(f"{pad}{key}:")
                _render(sub, lines, depth + 1)
    elif isinstance(value, list):
        for item in value:
            flat = _inline(item)
            if flat is not None:
                lines.append(f"{pad}- {flat}")
            else:
                lines.append(f"{pad}-")
                _render(item, lines, depth + 1)
    else:
        lines.append(f"{pad}{_inline(value)}")


def render_text(doc: Mapping[str, Any]) -> str:
    """Human-readable walk of the encoded document (same payload as JSON)."""
    cmd = doc["command"]
    params = ", ".join(
        f"{k}={_inline(v)}" for k, v in cmd["parameters"].items() if v is not None
    )
    lines = [f"{cmd['subcommand']} ({params})", ""]
    lines.append("results:")
    _render(doc["results"], lines, 1)
    lines.append("")
    n_pass = sum(1 for c in doc["checks"] if c["status"] == "pass")
    lines.append(f"checks: {n_pass}/{len(doc['checks'])} passed")
    for c in doc["checks"]:
        mark = "pass" if c["status"] == "pass" else "FAIL"
        detail = f": {c['detail']}" if c.get("detail") else ""
        lines.append(f"  [{mark}] {c['name']}{detail}")
    return "\n".join(lines) + "\n"
