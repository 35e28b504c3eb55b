"""Exact finite-set arithmetic over the rationals.

Sum sets, product sets, iterated and restricted versions, dilations,
subset-sum/product closures, and bounded-coefficient box sums, computed on
integers over one common denominator; no floating point enters at any stage.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, repeat
from math import gcd, lcm, prod
from struct import iter_unpack
from typing import Iterable, Iterator, Literal

from .limits import SetParseError, check_size, size_cap

Rat = Fraction

Op = Literal["sum", "product"]

_TOKEN_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def _parse_pair(token: str) -> tuple[int, int]:
    """One rational literal as a (numerator, denominator > 0) int pair, as
    written: 4/6 gives (4, 6)."""
    if token.isdecimal():  # digits only, each one that \d matches
        return int(token), 1
    if not _TOKEN_RE.match(token):
        if re.match(r"^[+-]?\d+/(?:0\d*|[+-].*)?$", token):
            raise SetParseError(f"bad denominator in {token!r}")
        raise SetParseError(f"not a rational literal: {token!r}")
    num, _, den = token.partition("/")
    return int(num), int(den or 1)


def parse_token(token: str) -> Fraction:
    """One rational literal: an integer or numerator/denominator pair.

    The sign, if any, sits on the numerator.  A zero or signed denominator
    is rejected outright rather than normalized.
    """
    return Fraction(*_parse_pair(token))


class FinSet:
    """Immutable finite set of rationals, kept sorted ascending.

    Stored as `_scale`, the least common denominator, and `_ints`, the sorted
    integers element * scale; equality and hashing follow that pair, and the
    elements are Fractions derived on access.
    """

    __slots__ = ("_scale", "_ints")

    def __init__(self, elements: Iterable[Fraction | int]) -> None:
        values = set()
        for e in elements:
            if isinstance(e, float):
                raise TypeError("floats are not exact; pass Fraction or int")
            values.add(e if isinstance(e, (int, Fraction)) else Fraction(e))
        scale = lcm(*(v.denominator for v in values))
        ints = tuple(sorted(v.numerator * (scale // v.denominator) for v in values))
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_ints", ints)

    @property
    def elements(self) -> tuple[Fraction, ...]:
        return tuple(self)

    @property
    def size(self) -> int:
        return len(self._ints)

    @property
    def is_positive(self) -> bool:
        return not self._ints or self._ints[0] > 0

    @property
    def is_integer(self) -> bool:
        return self._scale == 1

    def __len__(self) -> int:
        return len(self._ints)

    def __iter__(self) -> Iterator[Fraction]:
        return map(Fraction, self._ints, repeat(self._scale))

    def __contains__(self, value: object) -> bool:
        try:
            v = Fraction(value) * self._scale  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False
        if v.denominator != 1:
            return False
        i = bisect_left(self._ints, v.numerator)
        return i < len(self._ints) and self._ints[i] == v.numerator

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinSet):
            return NotImplemented
        return self._scale == other._scale and self._ints == other._ints

    def __hash__(self) -> int:
        return hash((self._scale, self._ints))

    def __repr__(self) -> str:
        return f"FinSet({{{', '.join(self._strings())}}})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("FinSet is immutable")

    def min(self) -> Fraction:
        if not self._ints:
            raise ValueError("empty set has no minimum")
        return Fraction(self._ints[0], self._scale)

    def max(self) -> Fraction:
        if not self._ints:
            raise ValueError("empty set has no maximum")
        return Fraction(self._ints[-1], self._scale)

    def to_lines(self) -> str:
        """One element per line, the same format parse_set accepts."""
        return "\n".join(self._strings())

    def _strings(self) -> Iterator[str]:
        """The elements as printed, each as str(Fraction) does, formatted from
        the ints: v / scale in lowest terms, without a denominator of 1."""
        scale = self._scale
        if scale == 1:
            return map(str, self._ints)
        return map(_ratio_str, self._ints, repeat(scale))


def _ratio_str(v: int, scale: int) -> str:
    g = gcd(v, scale)
    return str(v // g) if g == scale else f"{v // g}/{scale // g}"


def _from_ints(values: Iterable[int], scale: int) -> FinSet:
    """The set of v / scale for distinct ints v, with gcd(scale, *v) divided out."""
    ints = sorted(values)
    g = gcd(scale, *ints) if scale > 1 else 1
    fs = object.__new__(FinSet)
    object.__setattr__(fs, "_scale", scale // g)
    object.__setattr__(fs, "_ints", tuple(ints) if g == 1 else tuple(v // g for v in ints))
    return fs


def parse_set(text: str) -> tuple[FinSet, int]:
    """Parse the one-element-per-line set format.

    Blank lines and lines starting with '#' are skipped.  Each token is read
    straight to an int pair and the set is built on their common
    denominator, with no Fraction in between; equal values written
    differently (4/6 and 2/3) meet as one int there.  Returns the set and
    the number of duplicate tokens that were dropped.
    """
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            pairs.append(_parse_pair(line))
        except SetParseError as exc:
            raise SetParseError(f"line {lineno}: {exc}") from None
    scale = lcm(*(d for _, d in pairs))
    ints = {n * (scale // d) for n, d in pairs}
    return _from_ints(ints, scale), len(pairs) - len(ints)


def _check_op(op: str) -> None:
    if op not in ("sum", "product"):
        raise ValueError(f"op must be 'sum' or 'product', got {op!r}")


def _require_nonzero(*sets: FinSet) -> None:
    for s in sets:
        if 0 in s:
            raise ValueError("product operation needs every element nonzero")


def _require_positive_integers(a: FinSet, who: str) -> None:
    if not (a.is_integer and a.is_positive):
        raise ValueError(f"{who} needs a set of positive integers")


def combine(a: FinSet, b: FinSet, op: Op) -> FinSet:
    """Pairwise sum set or product set of two sets."""
    _check_op(op)
    if op == "sum":
        return _sumset([a, b], "combine result")
    _require_nonzero(a, b)
    values = {x * y for x in a._ints for y in b._ints}
    check_size(len(values), "combine result")
    return _from_ints(values, a._scale * b._scale)


def iterate(a: FinSet, h: int, op: Op) -> FinSet:
    """h-fold sum set or product set (h = 1 gives the set itself)."""
    _check_op(op)
    if h < 1:
        raise ValueError(f"fold count must be >= 1, got {h}")
    if op == "product":
        _require_nonzero(a)
    elif h > 1:  # h = 1 returns a itself, never checked against the cap
        return _sumset([a] * h, "combine result")
    current = a
    for _ in range(h - 1):
        current = combine(current, a, op)
    return current


def dilate(q: Fraction | int, a: FinSet) -> FinSet:
    """The set q*a for a nonzero rational q.  Always |q*A| = |A|."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("dilation factor must be nonzero")
    return _from_ints((v * q.numerator for v in a._ints), a._scale * q.denominator)


_FULL_WORD = (1 << 64) - 1


def _bit_positions(bits: int, start: int = 0) -> Iterator[int]:
    """start + the index of each set bit, ascending, in one pass over the
    nonzero 64-bit words; an all-ones word gives its 64 positions as one range."""
    raw = bits.to_bytes(8 * ((bits.bit_length() + 63) // 64), sys.byteorder)
    words = memoryview(raw).cast("Q")
    for base, word in compress(zip(count(start, 64), words), words):
        if word == _FULL_WORD:
            yield from range(base, base + 64)
            continue
        while word:
            low = word & -word
            yield base + low.bit_length() - 1
            word ^= low


def _packs(cost: int, values: int) -> bool:
    """Whether big-int work of `cost` bits, or word products, is at most 64 per
    value that a result can hold, or per value the cap allows if that is fewer."""
    return cost <= 64 * min(values, size_cap())


def _convolve(factors: list[dict[int, int]], what: str) -> dict[int, int]:
    """The product of polynomials given as {exponent: positive count}.

    Packed by Kronecker substitution, each factor one big int with a 1, 2, 4 or
    8 byte little-endian slot per exponent, when `_packs` passes the cost of
    multiplying them; else convolved as dicts.  The cap bounds the nonzero
    coefficients of the product, and of each partial product of the dicts.
    """
    if not all(factors):
        return {}
    lows = [min(f) for f in factors]
    slots = 1 + sum(max(f) - low for f, low in zip(factors, lows))
    # 2**k bytes per slot hold the largest count, at most max(f_j) * other totals
    totals = [sum(f.values()) for f in factors]
    top = min((max(f.values()) * prod(totals) // t for f, t in zip(factors, totals)), default=1)
    k = ((top.bit_length() - 1) // 8).bit_length()
    size = 1 << k
    # Karatsuba triples the word products each time it halves a product
    cost = 3 ** (slots * size // 8).bit_length()
    if k > 3 or not _packs(cost, prod(map(len, factors))):
        result = {0: 1}
        for f in factors:
            out: dict[int, int] = {}
            for u, cu in result.items():
                for v, cv in f.items():
                    out[u + v] = out.get(u + v, 0) + cu * cv
            result = out
            check_size(len(result), what)
        return result
    packed = 1
    for f, low in zip(factors, lows):
        buf = bytearray(size * (max(f) - low + 1))
        for e, c in f.items():
            buf[size * (e - low) : size * (e - low + 1)] = c.to_bytes(size, "little")
        packed *= int.from_bytes(buf, "little")
    slot_values = iter_unpack("<" + "BHIQ"[k], packed.to_bytes(size * slots, "little"))
    result = {sum(lows) + i: c for i, (c,) in enumerate(slot_values) if c}
    check_size(len(result), what)
    return result


def _sumset(sets: list[FinSet], what: str) -> FinSet:
    """All x_1 + ... + x_m with each x_i in sets[i]; no sets give {0}."""
    scale = lcm(*(s._scale for s in sets))
    factors = [dict.fromkeys((v * (scale // s._scale) for v in s._ints), 1) for s in sets]
    return _from_ints(_convolve(factors, what), scale)


def _box_sums(a: FinSet, h: int, what: str) -> FinSet:
    """All sums of c_i * a_i with every c_i in 0..h, on integers.

    The set's ints v over its scale are summed, and a negative v enters as
    h*v + c*|v|, leaving an offset plus sums of non-negative steps.  These
    are kept as a big-int bitmask (bit s set iff offset + s is reachable)
    when it needs at most 64 bits per value the coefficients and the cap
    allow, else as a set of ints.  The cap is checked after every element.
    """
    offset = h * sum(v for v in a._ints if v < 0)
    steps = [abs(v) for v in a._ints]
    # (h+1)^k > cap once k reaches cap's bit length, so k stays small
    if _packs(h * sum(steps), (h + 1) ** min(len(steps), size_cap().bit_length())):
        bits = 1
        for step in steps:
            # {0..left} = {0..left-take} + {0, take}: O(log h) shifts
            left = h
            while left:
                take = (left + 1) // 2
                bits |= bits << take * step
                left -= take
            check_size(bits.bit_count(), what)
        sums: Iterable[int] = _bit_positions(bits, offset)
    else:
        sums = {offset}
        for step in steps:
            sums = {s + j * step for s in sums for j in range(h + 1)}
            check_size(len(sums), what)
    return _from_ints(sums, a._scale)


def simple_closure(a: FinSet, op: Op) -> FinSet:
    """All subset sums (or products) of a, the empty subset included.

    0 is always in the sum closure and 1 in the product closure.  The
    result can reach 2^|a| values, so the size cap applies.
    """
    _check_op(op)
    if op == "sum":
        return _box_sums(a, 1, "simple sum closure")
    _require_nonzero(a)
    # a left-out element contributes the scale: all products are over scale^|a|
    scale = a._scale
    frontier = {1}
    for v in a._ints:
        frontier = {u * t for u in frontier for t in (scale, v)}
        check_size(len(frontier), "simple closure")
    return _from_ints(frontier, scale ** a.size)


def box_sum(a: FinSet, h: int) -> FinSet:
    """Sums with per-element coefficients drawn from {0, 1, ..., h}."""
    if h < 0:
        raise ValueError(f"coefficient bound must be >= 0, got {h}")
    return _box_sums(a, h, "box sum")


def sum_diff(n: FinSet, h: int, l: int) -> FinSet:
    """Signed sumset: h-fold sums of n minus l-fold sums of n.

    h = 0 or l = 0 contributes the empty sum, i.e. the value 0.
    """
    if h < 0 or l < 0:
        raise ValueError("fold counts must be >= 0")
    return _sumset([n] * h + [dilate(-1, n)] * l, "signed sumset")


@dataclass(frozen=True)
class PairGraph:
    """A set of index pairs over a ground set, for restricted operations.

    Pairs are (i, j) positions into ground.elements; they are ordered, so
    (0, 1) and (1, 0) are distinct edges.
    """

    ground: FinSet
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        n = self.ground.size
        for p in self.pairs:
            if (
                not isinstance(p, tuple)
                or len(p) != 2
                or not all(isinstance(i, int) and 0 <= i < n for i in p)
            ):
                raise ValueError(f"pair {p!r} is not a valid index pair into the ground set")

    @property
    def size(self) -> int:
        return len(self.pairs)

    @classmethod
    def full(cls, ground: FinSet) -> "PairGraph":
        n = ground.size
        return cls(ground, frozenset((i, j) for i in range(n) for j in range(n)))

    @classmethod
    def diagonal(cls, ground: FinSet) -> "PairGraph":
        return cls(ground, frozenset((i, i) for i in range(ground.size)))

    @classmethod
    def from_value_pairs(
        cls, ground: FinSet, value_pairs: Iterable[tuple[Fraction | int, Fraction | int]]
    ) -> "PairGraph":
        index = {v: i for i, v in enumerate(ground._ints)}
        pairs = set()
        for x, y in value_pairs:
            fx, fy = Fraction(x), Fraction(y)
            ix, iy = index.get(fx * ground._scale), index.get(fy * ground._scale)
            if ix is None or iy is None:
                raise SetParseError(f"pair ({fx}, {fy}) uses values outside the ground set")
            pairs.add((ix, iy))
        return cls(ground, frozenset(pairs))


def restricted_combine(a: FinSet, graph: PairGraph, op: Op) -> FinSet:
    """Sums or products a_i + a_j (resp. a_i * a_j) over the graph's pairs."""
    _check_op(op)
    if graph.ground != a:
        raise ValueError("graph ground set differs from the operand set")
    ints, scale = a._ints, a._scale
    if op == "product":
        _require_nonzero(a)
        values = {ints[i] * ints[j] for i, j in graph.pairs}
        scale *= scale
    else:
        values = {ints[i] + ints[j] for i, j in graph.pairs}
    check_size(len(values), "restricted combine")
    return _from_ints(values, scale)
