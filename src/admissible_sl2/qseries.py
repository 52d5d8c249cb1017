"""Exact q-series with rational exponents on a common integer lattice.

A :class:`QSeries` stores finitely many terms ``c * q^(m/D)`` together with a
rational truncation order: the series is exact for all exponents strictly
below the order, and silent about everything above it.  All arithmetic tracks
truncation orders pessimistically so a reported coefficient is never
contaminated by an unseen tail term.

Exponents are compared on the lattice itself: an order O on the lattice
(1/D)Z becomes the integer key cap ceil(O D), and a term m/D is kept exactly
when m < cap, so no per-term ``Fraction`` is built to decide truncation.

The module also provides the theta-function expansions

    theta_{n,m}(tau, z) = sum over j in Z + n/2m of q^(m(j^2 + j z)),

with ``q = e^(2 pi i tau)``; at ``z = 0`` this is the one-variable series
``Theta_{n,m}``.  The expansion works on integer keys as well: with
j = x/2m and z = v/u, every exponent is an integer over 4mu, so the points
below the order are counted without building a ``Fraction``.  One helper,
``_theta_lattice``, gives that lattice and the point at its vertex, for both
the expansion and the exact lowest exponent.  Division of
series (needed for characters written as theta ratios) eliminates leading
terms on the integer lattice, over a list of lattice slots when the quotient
can fill it and over a heap of keys when it cannot, with integral
coefficients held as Python ints.  The characters' denominator
theta_{1,2} - theta_{-1,2} (the affine A1 Weyl-Kac denominator) has leading
coefficient +-1 and integral numerators over it, so their division runs on
ints alone.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable

from .errors import InputError
from .exact import rat

__all__ = [
    "QSeries",
    "ThetaSpec",
    "qseries_div",
    "theta_min_exponent",
    "theta_qseries",
]


def _key_cap(order: Fraction, denom: int) -> int:
    """The least integer key at or above ``order * denom``.

    A lattice key m lies below the order, m / denom < order, exactly when
    m < _key_cap(order, denom).
    """
    return -(-order.numerator * denom // order.denominator)


class QSeries:
    """Truncated series ``sum c_m q^(m/denom)`` exact below ``order``.

    ``terms`` maps integer numerators ``m`` to nonzero exact coefficients,
    each an ``int`` or a ``Fraction``, stored as given; the represented
    exponent is ``m / denom``.  ``order`` is the truncation order:
    constructing the series drops any term with exponent >= order, and the
    lattice denominator is reduced to the smallest one that carries all
    remaining exponents.
    """

    __slots__ = ("denom", "terms", "order")

    def __init__(self, denom: int, terms: dict[int, int | Fraction], order) -> None:
        if denom < 1:
            raise InputError(f"lattice denominator must be >= 1, got {denom}")
        order = rat(order)
        cap = _key_cap(order, denom)
        kept = {m: c for m, c in terms.items() if c and m < cap}
        if kept:
            g = math.gcd(denom, *kept)
            if g > 1:
                kept = {m // g: c for m, c in kept.items()}
                denom //= g
        else:
            denom = 1
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "terms", kept)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("QSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order) -> "QSeries":
        return cls(1, {}, order)

    @classmethod
    def from_terms(cls, pairs: Iterable[tuple[Fraction, Fraction]], order) -> "QSeries":
        """Build from (exponent, coefficient) pairs; exponents may repeat."""
        pairs = [(rat(e), rat(c)) for e, c in pairs]
        denom = math.lcm(*(e.denominator for e, _ in pairs))
        terms: dict[int, Fraction] = {}
        for e, c in pairs:
            m = e.numerator * (denom // e.denominator)
            terms[m] = terms.get(m, Fraction(0)) + c
        return cls(denom, terms, order)

    # -- inspection --------------------------------------------------------

    def lowest(self) -> tuple[Fraction, Fraction] | None:
        """(exponent, coefficient) of the lowest stored term, or None."""
        if not self.terms:
            return None
        m = min(self.terms)
        return Fraction(m, self.denom), self.terms[m]

    def prefix(self, order=None) -> list[tuple[Fraction, Fraction]]:
        """Sorted (exponent, coefficient) pairs with exponent < order."""
        cap = self.order if order is None else min(self.order, rat(order))
        cap = _key_cap(cap, self.denom)
        return [
            (Fraction(m, self.denom), self.terms[m])
            for m in sorted(self.terms)
            if m < cap
        ]

    # -- arithmetic --------------------------------------------------------

    def _aligned(self, other: "QSeries") -> tuple[int, dict[int, Fraction], dict[int, Fraction]]:
        denom = math.lcm(self.denom, other.denom)
        sa, sb = denom // self.denom, denom // other.denom
        return (
            denom,
            {m * sa: c for m, c in self.terms.items()},
            {m * sb: c for m, c in other.terms.items()},
        )

    def __add__(self, other: "QSeries") -> "QSeries":
        denom, a, b = self._aligned(other)
        for m, c in b.items():
            a[m] = a.get(m, 0) + c
        return QSeries(denom, a, min(self.order, other.order))

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __neg__(self) -> "QSeries":
        return QSeries(self.denom, {m: -c for m, c in self.terms.items()}, self.order)

    def __mul__(self, other: "QSeries") -> "QSeries":
        low_a = self.lowest()
        low_b = other.lowest()
        ea = low_a[0] if low_a else self.order
        eb = low_b[0] if low_b else other.order
        order = min(self.order + eb, other.order + ea)
        denom, a, b = self._aligned(other)
        cap = _key_cap(order, denom)
        out: dict[int, Fraction] = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = ma + mb
                if m < cap:
                    out[m] = out.get(m, 0) + ca * cb
        return QSeries(denom, out, order)

    def shift_exponents(self, delta) -> "QSeries":
        """Multiply by q^delta: exponents and order all shift by delta."""
        delta = rat(delta)
        denom = math.lcm(self.denom, delta.denominator)
        s = denom // self.denom
        d = delta.numerator * (denom // delta.denominator)
        return QSeries(
            denom, {m * s + d: c for m, c in self.terms.items()}, self.order + delta
        )

    def scale_exponents(self, factor) -> "QSeries":
        """Substitute q -> q^factor (factor > 0): exponents and order scale."""
        factor = rat(factor)
        if factor <= 0:
            raise InputError(f"exponent scale factor must be positive, got {factor}")
        terms = {m * factor.numerator: c for m, c in self.terms.items()}
        return QSeries(self.denom * factor.denominator, terms, self.order * factor)

    def truncate(self, order) -> "QSeries":
        order = rat(order)
        return QSeries(self.denom, dict(self.terms), min(self.order, order))

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.denom == other.denom
            and self.terms == other.terms
            and self.order == other.order
        )

    def __repr__(self) -> str:
        if not self.terms:
            return f"QSeries(0 + O(q^{self.order}))"
        bits = []
        for m in sorted(self.terms):
            e = Fraction(m, self.denom)
            bits.append(f"{self.terms[m]}*q^({e})")
        return f"QSeries({' + '.join(bits)} + O(q^{self.order}))"


@dataclass(frozen=True)
class ThetaSpec:
    """Indexes theta_{n,m}(tau, z) with lattice Z + n/2m; z = 0 gives Theta.

    An int, ``Fraction`` or "a/b" string ``z`` is normalized to a Fraction,
    and a string that is not a rational is refused; any other ``z`` (a float
    or a complex value) is stored as given and is accepted only by the
    numeric evaluator, not by the exact series expansion.
    """

    n: int
    m: int
    z: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if not isinstance(self.n, int):
            raise InputError(f"theta index n must be an integer, got {self.n}")
        if not isinstance(self.m, int) or self.m < 1:
            raise InputError(f"theta index m must be a positive integer, got {self.m}")
        if isinstance(self.z, (int, str, Fraction)):
            try:
                object.__setattr__(self, "z", rat(self.z))
            except (ValueError, ZeroDivisionError):
                raise InputError(f"theta argument z must be a rational, got {self.z!r}") from None

    @property
    def has_rational_z(self) -> bool:
        return isinstance(self.z, Fraction)


def _theta_lattice(spec: ThetaSpec) -> tuple[int, int, Callable[[int], int], int]:
    """The integer lattice of theta_{n,m}(tau, z): ``(4mu, 2m, key, x0)``.

    A point j in Z + n/2m is j = x/2m with x in 2mZ + n; with z = v/u in
    lowest terms its exponent m(j^2 + j z) is key(x) / 4mu, where
    key(x) = x (u x + 2m v).  The key is an upward parabola in x with vertex
    -mv/u, and x0 is the lattice point at the ceiling of that vertex, so x0
    and x0 - 2m are the two points nearest it.
    """
    if not spec.has_rational_z:
        raise InputError("exact theta expansion requires a rational z")
    n, m = spec.n, spec.m
    v, u = spec.z.numerator, spec.z.denominator
    step, lin = 2 * m, 2 * m * v
    x0 = step * -((m * v + n * u) // (2 * m * u)) + n  # x = 2m i + n, i = ceil of the vertex
    return 4 * m * u, step, lambda x: x * (u * x + lin), x0


def theta_qseries(spec: ThetaSpec, order) -> QSeries:
    """Expand theta_{n,m}(tau, z) as an exact QSeries to the given order.

    Sums q^(m(j^2 + j z)) over all lattice points j in Z + n/2m whose exponent
    lies below the order: each point contributes the integer key of
    :func:`_theta_lattice` on the lattice (1/4mu)Z, kept when it lies below
    the order's key cap.  The key is an upward parabola, so the points are
    enumerated outward from its vertex.  Two points j and -z - j share a key,
    so the keys count their points.
    """
    denom, step, key, x0 = _theta_lattice(spec)
    order = rat(order)
    cap = _key_cap(order, denom)
    counts: dict[int, int] = {}
    for x, dx in ((x0, step), (x0 - step, -step)):
        while (k := key(x)) < cap:
            counts[k] = counts.get(k, 0) + 1
            x += dx
    return QSeries(denom, counts, order)


def theta_min_exponent(spec: ThetaSpec) -> Fraction:
    """Exact lowest exponent of theta_{n,m}(tau, z): the smaller key of the two
    lattice points nearest the vertex of :func:`_theta_lattice`, over 4mu."""
    denom, step, key, x0 = _theta_lattice(spec)
    return Fraction(min(key(x0), key(x0 - step)), denom)


def qseries_div(num: QSeries, den: QSeries) -> QSeries:
    """Divide truncated series by leading-term elimination on the lattice.

    With numerator order O_n, denominator order O_d and lowest exponents e_n,
    e_d, the quotient is exact below ``min(O_n, O_d + e_n - e_d) - e_d``: the
    first unseen numerator term enters at O_n - e_d, and the first unseen
    denominator term corrupts the quotient at (O_d - e_d) + (e_n - e_d).

    Both series are put on one lattice (1/D)Z whose D also carries the
    denominators of that order and of e_d, so the remainder cutoff
    ``cap = (order + e_d) D`` is an exact integer key: a remainder term at or
    above it cannot reach the quotient.  The remainder's keys lie on the
    lattice that the numerator keys and the denominator offsets span, and L
    of its points run from the lowest numerator key up to the cap.  A dense
    quotient fills most of them (over the benchmark's character catalogue, L
    is at most 6% above the term count for every quotient with more than one
    term), so when L is at most ``_SLOTS_PER_PRODUCT_TERM`` times the size of
    the numerator-denominator product the remainder is a list of L slots,
    eliminated in one upward pass that skips the zero ones: O(L + terms x
    tail) work and O(L) memory.  A sparse quotient can leave nearly every
    slot empty, because L grows with the denominator u of a theta function's
    z = v/u and not with the number of terms: at level (2,1) the quotient is
    exactly 1 whatever u is.  Past the bound the remainder's keys sit in a
    heap, so each step takes its lowest term without a scan and an empty
    lattice point costs nothing.  Coefficients enter as given, and 1/c_d is
    an int when the leading denominator coefficient c_d is +-1, so int
    series over such a denominator divide without building a Fraction;
    otherwise 1/c_d is the exact ``Fraction(1, c_d)``.  Mixed int/Fraction
    arithmetic is exact, so the same loops serve rational inputs.
    """
    low_d = den.lowest()
    if low_d is None:
        raise InputError(
            f"denominator has no terms below its truncation order {den.order}"
        )
    e_d, c_d = low_d
    low_n = num.lowest()
    e_n = low_n[0] if low_n else num.order
    order = min(num.order, den.order + e_n - e_d) - e_d
    if low_n is None:
        return QSeries.zero(order)

    denom, a, b = num._aligned(den)
    # Bring the order and e_d onto the lattice so all keys stay integral.
    denom2 = math.lcm(denom, order.denominator, e_d.denominator)
    s = denom2 // denom
    cap = _key_cap(order + e_d, denom2)
    m_d = min(b) * s
    rem = {m * s: c for m, c in a.items()}
    # Denominator terms after the leading one, as ascending offsets from it.
    tail = sorted((m * s - m_d, c) for m, c in b.items() if m * s != m_d)
    inv = c_d.numerator if c_d in (1, -1) else Fraction(1, c_d)
    # Slot i of the remainder's lattice holds key base + g i; keys at or above
    # the cap lie in slots n and up.
    base = min(rem)
    g = math.gcd(*(m - base for m in rem), *(off for off, _ in tail)) or 1
    n = -((base - cap) // g)
    slots = {(m - base) // g: c for m, c in rem.items()}
    steps = [(off // g, c_i) for off, c_i in tail]
    if n <= _SLOTS_PER_PRODUCT_TERM * len(rem) * (len(tail) + 1):
        found = _eliminate_list(slots, steps, inv, n)
    else:
        found = _eliminate_heap(slots, steps, inv, n)
    lo = base - m_d
    quo = {lo + g * i: c for i, c in found}
    return QSeries(denom2, quo, order)


# The list elimination allocates one slot per lattice point below the cap;
# past this many slots per term of the numerator-denominator product, the
# heap takes over.  The benchmark's character catalogue stays below 4.4.
_SLOTS_PER_PRODUCT_TERM = 8


def _eliminate_list(
    slots: dict[int, Any], steps: list[tuple[int, Any]], inv: Any, n: int
) -> list[tuple[int, Any]]:
    """Quotient slots and coefficients, by one upward pass over a list of n slots."""
    r = [0] * n
    for i, c in slots.items():
        if i < n:
            r[i] = c
    found = []
    for i in range(n):
        v = r[i]
        if not v:
            continue
        c = v * inv
        found.append((i, c))
        for o, c_i in steps:
            j = i + o
            if j >= n:
                break
            r[j] -= c * c_i
    return found


def _eliminate_heap(
    slots: dict[int, Any], steps: list[tuple[int, Any]], inv: Any, n: int
) -> list[tuple[int, Any]]:
    """Quotient slots and coefficients, popping the lowest live slot below n."""
    heap = list(slots)
    heapq.heapify(heap)
    found = []
    while heap:
        i = heapq.heappop(heap)
        if i >= n:
            break
        v = slots.pop(i, 0)
        if not v:  # stale: the slot cancelled or was eliminated since its push
            continue
        c = v * inv
        found.append((i, c))
        for o, c_i in steps:
            j = i + o
            if j >= n:
                break
            w = slots.get(j)
            if w is None:
                slots[j] = -c * c_i
                heapq.heappush(heap, j)
            else:
                w -= c * c_i
                if w:
                    slots[j] = w
                else:
                    del slots[j]
    return found
