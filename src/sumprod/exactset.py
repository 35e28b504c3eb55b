"""Exact finite-set arithmetic over the rationals.

Sum sets, product sets, iterated and restricted versions, dilations,
subset-sum/product closures, and bounded-coefficient box sums.  Every value
is a `fractions.Fraction`; no floating point enters at any stage.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Literal

from .limits import CapExceeded, SetParseError, check_size

Rat = Fraction

Op = Literal["sum", "product"]

_TOKEN_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def parse_token(token: str) -> Fraction:
    """One rational literal: an integer or numerator/denominator pair.

    The sign, if any, sits on the numerator.  A zero or signed denominator
    is rejected outright rather than normalized.
    """
    if not _TOKEN_RE.match(token):
        if re.match(r"^[+-]?\d+/(?:0\d*|[+-].*)?$", token):
            raise SetParseError(f"bad denominator in {token!r}")
        raise SetParseError(f"not a rational literal: {token!r}")
    if "/" in token:
        num, den = token.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(token))


class FinSet:
    """Immutable finite set of rationals, kept sorted ascending.

    Construction deduplicates.  Equality and hashing follow the element
    tuple, so two FinSets built from the same values in any order compare
    equal.
    """

    __slots__ = ("_elements",)

    def __init__(self, elements: Iterable[Fraction | int]) -> None:
        collected = set()
        for e in elements:
            if isinstance(e, float):
                raise TypeError("floats are not exact; pass Fraction or int")
            collected.add(Fraction(e))
        object.__setattr__(self, "_elements", tuple(sorted(collected)))

    @property
    def elements(self) -> tuple[Fraction, ...]:
        return self._elements

    @property
    def size(self) -> int:
        return len(self._elements)

    @property
    def is_positive(self) -> bool:
        return all(e > 0 for e in self._elements)

    @property
    def is_integer(self) -> bool:
        return all(e.denominator == 1 for e in self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._elements)

    def __contains__(self, value: object) -> bool:
        try:
            return Fraction(value) in self._elements  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinSet):
            return NotImplemented
        return self._elements == other._elements

    def __hash__(self) -> int:
        return hash(self._elements)

    def __repr__(self) -> str:
        inner = ", ".join(str(e) for e in self._elements)
        return f"FinSet({{{inner}}})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("FinSet is immutable")

    def min(self) -> Fraction:
        if not self._elements:
            raise ValueError("empty set has no minimum")
        return self._elements[0]

    def max(self) -> Fraction:
        if not self._elements:
            raise ValueError("empty set has no maximum")
        return self._elements[-1]

    def to_lines(self) -> str:
        """One element per line, the same format parse_set accepts."""
        return "\n".join(str(e) for e in self._elements)


def parse_set(text: str) -> tuple[FinSet, int]:
    """Parse the one-element-per-line set format.

    Blank lines and lines starting with '#' are skipped.  Returns the set
    and the number of duplicate tokens that were dropped.
    """
    values: list[Fraction] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(parse_token(line))
        except SetParseError as exc:
            raise SetParseError(f"line {lineno}: {exc}") from None
    fs = FinSet(values)
    return fs, len(values) - fs.size


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
    if op == "product":
        _require_nonzero(a, b)
        values = {x * y for x in a for y in b}
    else:
        values = {x + y for x in a for y in b}
    check_size(len(values), "combine result")
    return FinSet(values)


def iterate(a: FinSet, h: int, op: Op) -> FinSet:
    """h-fold sum set or product set (h = 1 gives the set itself)."""
    _check_op(op)
    if h < 1:
        raise ValueError(f"fold count must be >= 1, got {h}")
    if op == "product":
        _require_nonzero(a)
    current = a
    for _ in range(h - 1):
        current = combine(current, a, op)
    return current


def dilate(q: Fraction | int, a: FinSet) -> FinSet:
    """The set q*a for a nonzero rational q.  Always |q*A| = |A|."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("dilation factor must be nonzero")
    return FinSet(q * x for x in a)


def _bits_to_finset(bits: int, scale: int = 1) -> FinSet:
    values = []
    index = 0
    while bits:
        low = bits & 0xFFFFFFFFFFFFFFFF
        while low:
            lsb = low & -low
            values.append((index + lsb.bit_length() - 1) * scale)
            low ^= lsb
        bits >>= 64
        index += 64
    return FinSet(values)


def simple_closure(a: FinSet, op: Op) -> FinSet:
    """All subset sums (or products) of a, the empty subset included.

    0 is always in the sum closure and 1 in the product closure.  The
    result can reach 2^|a| values, so the size cap applies.
    """
    _check_op(op)
    if op == "sum" and a.is_integer and (not a.elements or a.min() >= 0):
        # subset sums of nonnegative integers: one big-int bitmask, bit v
        # set iff v is reachable
        bits = 1
        for e in a:
            bits |= bits << int(e)
        check_size(bits.bit_count(), "simple sum closure")
        return _bits_to_finset(bits)
    if op == "product":
        _require_nonzero(a)
        frontier = {Fraction(1)}
    else:
        frontier = {Fraction(0)}
    for e in a:
        if op == "product":
            frontier |= {v * e for v in frontier}
        else:
            frontier |= {v + e for v in frontier}
        check_size(len(frontier), "simple closure")
    return FinSet(frontier)


def box_sum(a: FinSet, h: int) -> FinSet:
    """Sums with per-element coefficients drawn from {0, 1, ..., h}."""
    if h < 0:
        raise ValueError(f"coefficient bound must be >= 0, got {h}")
    if a.is_integer and (not a.elements or a.min() >= 0):
        bits = 1
        for e in a:
            step = int(e)
            acc = bits
            for _ in range(h):
                acc <<= step
                bits |= acc
            check_size(bits.bit_count(), "box sum")
        return _bits_to_finset(bits)
    frontier = {Fraction(0)}
    for e in a:
        frontier = {v + j * e for v in frontier for j in range(h + 1)}
        check_size(len(frontier), "box sum")
    return FinSet(frontier)


def sum_diff(n: FinSet, h: int, l: int) -> FinSet:
    """Signed sumset: h-fold sums of n minus l-fold sums of n.

    h = 0 or l = 0 contributes the empty sum, i.e. the value 0.
    """
    if h < 0 or l < 0:
        raise ValueError("fold counts must be >= 0")
    if h == 0 and l == 0:
        return FinSet([0])
    plus = iterate(n, h, "sum") if h > 0 else FinSet([0])
    minus = iterate(n, l, "sum") if l > 0 else FinSet([0])
    values = {p - m for p in plus for m in minus}
    check_size(len(values), "signed sumset")
    return FinSet(values)


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
        index = {e: i for i, e in enumerate(ground.elements)}
        pairs = set()
        for x, y in value_pairs:
            fx, fy = Fraction(x), Fraction(y)
            if fx not in index or fy not in index:
                raise SetParseError(f"pair ({fx}, {fy}) uses values outside the ground set")
            pairs.add((index[fx], index[fy]))
        return cls(ground, frozenset(pairs))


def restricted_combine(a: FinSet, graph: PairGraph, op: Op) -> FinSet:
    """Sums or products a_i + a_j (resp. a_i * a_j) over the graph's pairs."""
    _check_op(op)
    if graph.ground != a:
        raise ValueError("graph ground set differs from the operand set")
    elems = a.elements
    if op == "product":
        _require_nonzero(a)
        values = {elems[i] * elems[j] for i, j in graph.pairs}
    else:
        values = {elems[i] + elems[j] for i, j in graph.pairs}
    check_size(len(values), "restricted combine")
    return FinSet(values)
