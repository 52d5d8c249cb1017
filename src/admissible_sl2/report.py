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

``document`` formats each distinct unsigned value once per digit count: it
passes ``encode`` one dict of decimal strings for the whole document, and
``mpmath``'s ``to_str`` formats |x| and then prefixes "-", so a negation,
the conjugate-phase S-matrix and every repeated entry cost a lookup.  The
dict lives for that one call; no state outlives it.  ``_decimal`` makes each
string by ``to_str``'s own steps on the value's ints (``to_str`` past 2^3500).

``dumps`` writes the indented JSON itself: ``json.dumps`` with an indent
falls back to the standard library's pure-Python encoder, which took longer
than the rest of a short report.  A table row of strings, a complex value and
a q-series term are each written in one append.  Its output is held to be exactly
``json.dumps(doc, indent=2, ensure_ascii=False)`` plus a newline; the tests
compare the two on random documents and on every golden report.
"""

from __future__ import annotations

import math
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
_LOG2_10 = math.log(10, 2)


def _real_str(raw: tuple, digits: int, strings: dict) -> str:
    """Decimal string of a raw mpmath real (``x._mpf_``), deterministic for a given value.

    The value is formatted as-is (no re-rounding to the ambient working
    precision, which would truncate high-precision certified bounds).
    ``strings`` holds one string per unsigned value and digit count:
    ``to_str`` formats |x| and prefixes "-", so x and -x share an entry.
    Zero, the infinities and NaN are keyed whole, as their strings carry
    their own sign.  ``_decimal`` formats the others within 2^3500 of 1.
    """
    sign, man, exp, bc = raw
    if man:
        raw, key = (0, man, exp, bc), (man, exp, digits)
    else:
        sign, key = 0, (raw, digits)
    text = strings.get(key)
    if text is None:
        near_one = man and abs(exp + bc) <= 3500
        text = strings[key] = _decimal(man, exp, bc, digits) if near_one else to_str(raw, digits)
    return "-" + text if sign else text


def _decimal(man: int, exp: int, bc: int, dps: int) -> str:
    """``to_str((0, man, exp, bc), dps)`` for dps >= 1 and |exp + bc| <= 3500.

    mpmath 1.3's steps on the ints: ``to_digits_exp`` at dps + 3 digits (the
    value floored to 2^-fixprec, times 10^fixdps, floored, ``str``), then
    ``to_str``'s half-up carry at digit dps and its layout.
    """
    fixprec = max(int((dps + 3) * _LOG2_10) + 10 - exp - bc, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = exp + fixprec
    text = str(((man << shift) if shift >= 0 else (man >> -shift)) * 10**fixdps >> fixprec)
    point = len(text) - fixdps - 1  # the exponent of the leading digit
    if len(text) > dps and text[dps] in "56789":
        text = str(int(text[:dps]) + 1)
        if len(text) > dps:  # 9...9 carried to the next power of ten
            text, point = text[:dps], point + 1
    else:
        text = text[:dps]
    if min(-(dps // 3), -5) < point < dps:  # to_str's fixed-point window
        text, split, suffix = "0" * -point + text, max(point, 0) + 1, ""
    else:
        split, suffix = 1, f"e{point:+d}"
    return text[:split] + "." + (text[split:].rstrip("0") or "0") + suffix


def _complex_pair(x: mp.mpc, strings: dict) -> list[str]:
    re, im = x._mpc_
    return [_real_str(re, _VALUE_DIGITS, strings), _real_str(im, _VALUE_DIGITS, strings)]


def encode(value: Any, strings: dict | None = None) -> Any:
    """Rewrite ``value`` into JSON primitives; a float, which has no error bound, raises.

    ``strings`` memoises decimal strings (see ``_real_str``); ``document``
    passes one dict for its whole document, and a call without one starts
    afresh.  The numeric values come first, and a list or tuple of only
    ``mpc`` or only ``mpf`` values (a row of a report's tables) is encoded in
    one step.
    """
    if strings is None:
        strings = {}
    if isinstance(value, mp.mpc):
        return _complex_pair(value, strings)
    if isinstance(value, mp.mpf):
        return _real_str(value._mpf_, _VALUE_DIGITS, strings)
    if isinstance(value, (list, tuple)):
        if value and all(isinstance(v, mp.mpc) for v in value):
            return [_complex_pair(v, strings) for v in value]
        if value and all(isinstance(v, mp.mpf) for v in value):
            return [_real_str(v._mpf_, _VALUE_DIGITS, strings) for v in value]
        return [encode(v, strings) for v in value]
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
            "value": _complex_pair(value.value, strings),
            "err": _real_str(value.err._mpf_, _ERR_DIGITS, strings),
        }
    if isinstance(value, Mapping):
        return {_key_str(k): encode(v, strings) for k, v in value.items()}
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
    strings: dict = {}
    return {
        "schema_version": SCHEMA_VERSION,
        "command": {"subcommand": subcommand, "parameters": encode(dict(parameters), strings)},
        "results": encode(results, strings),
        "checks": encode(checks, strings),
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
        if len(value) == 2:  # a complex value ["re", "im"] or a q-series term [m, "c"]
            first, second = value
            if type(second) is str and type(first) in (str, int):
                first = encode_basestring(first) if type(first) is str else int.__repr__(first)
                out.append(f"[{inner}{first},{inner}{encode_basestring(second)}{pad}]")
                return
        if all(type(v) is str for v in value):  # a table row of decimal strings
            out.append(f"[{inner}{(',' + inner).join(map(encode_basestring, value))}{pad}]")
            return
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
