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
from functools import reduce
from itertools import chain, compress, count, repeat
from math import gcd, lcm, prod
from operator import add, floordiv, mul, or_
from typing import Collection, Iterable, Iterator, Literal, Sequence

from .limits import SetParseError, check_size, over_cap, size_cap

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
        values = set(map(_exact, elements))
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
        return self._index(value) is not None

    def _index(self, value: object) -> int | None:
        """The position of value in _ints, or None when it is not a member
        (including values that are not finite numbers)."""
        try:
            v = Fraction(value)  # type: ignore[arg-type]
        except (TypeError, ValueError, OverflowError):
            return None
        return self._locate(v.numerator, v.denominator)

    def _locate(self, num: int, den: int) -> int | None:
        """The position of num / den (den > 0, any common factor) in _ints, or
        None: scaled to an int over _scale, then found by bisection."""
        n, r = divmod(num * self._scale, den)
        if r:
            return None
        i = bisect_left(self._ints, n)
        return i if i < len(self._ints) and self._ints[i] == n else None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinSet):
            return NotImplemented
        return self._scale == other._scale and self._ints == other._ints

    def __hash__(self) -> int:
        return hash((self._scale, self._ints))

    def __repr__(self) -> str:
        return f"FinSet({{{', '.join(self._text().split())}}})"

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
        return self._text()[:-1]

    def _text(self) -> str:
        """The set's text: every element as str(Fraction) prints it, each on
        a line of its own ended by a newline, ascending.

        The whole text comes from one % call, with no Python frame per
        element: an integer set's ints as they are; any other set's
        v / scale in lowest terms, with the gcds, numerators and
        denominators taken by map.  A denominator of 1 is then dropped:
        a numerator holds no '/', so "/1\n" matches exactly those.
        """
        ints, scale = self._ints, self._scale
        if scale == 1:
            return ("%d\n" * len(ints)) % ints
        gs = list(map(gcd, ints, repeat(scale)))
        pairs = zip(map(floordiv, ints, gs), map(floordiv, repeat(scale), gs))
        return (("%d/%d\n" * len(ints)) % tuple(chain.from_iterable(pairs))).replace("/1\n", "\n")


def _exact(e: Fraction | int) -> Fraction | int:
    """e as an exact number; a float is refused, never rounded."""
    if isinstance(e, float):
        raise TypeError("floats are not exact; pass Fraction or int")
    return e if isinstance(e, (int, Fraction)) else Fraction(e)


def _from_ints(
    values: Iterable[int], scale: int, *, ascending: bool = False, g: int | None = None
) -> FinSet:
    """The set of v / scale for distinct ints v, with g = gcd(scale, *v) divided out.

    A kernel whose values already come ascending, in a sequence, says so and
    skips the sort; one that already knows g passes it and skips the gcd.
    """
    ints = values if ascending else sorted(values)
    if g is None:
        g = gcd(scale, *ints) if scale > 1 else 1
    fs = object.__new__(FinSet)
    object.__setattr__(fs, "_scale", scale // g)
    object.__setattr__(fs, "_ints", tuple(ints) if g == 1 else tuple(map(g.__rfloordiv__, ints)))
    return fs


def parse_set(text: str) -> tuple[FinSet, int]:
    """Parse the one-element-per-line set format.

    Blank lines and lines starting with '#' are skipped.  Each token is read
    straight to an int pair and the set is built on their common
    denominator, with no Fraction in between; equal values written
    differently (4/6 and 2/3) meet as one int there.  Returns the set and
    the number of duplicate tokens that were dropped.

    A file whose every line is plain decimal digits (str.isdecimal, the
    first branch of _parse_pair) is read in one pass, as one set of ints;
    any other file goes line by line, so each error names its line.
    """
    lines = text.splitlines()
    if all(map(str.isdecimal, lines)):
        ints = set(map(int, lines))
        return _from_ints(ints, 1), len(lines) - len(ints)
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(lines, start=1):
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


def _require_nonempty(a: FinSet, who: str) -> None:
    if a.size == 0:
        raise ValueError(f"{who} needs a nonempty set")


def _require_positive(a: FinSet, who: str) -> None:
    if not a.is_positive:
        raise ValueError(f"{who} needs a set of strictly positive elements")


def _require_positive_integers(a: FinSet, who: str) -> None:
    if not (a.is_integer and a.is_positive):
        raise ValueError(f"{who} needs a set of positive integers")


def _require_fold(h: int) -> None:
    if h < 1:
        raise ValueError(f"fold count must be >= 1, got {h}")


def combine(a: FinSet, b: FinSet, op: Op) -> FinSet:
    """Pairwise sum set or product set of two sets."""
    _check_op(op)
    if op == "sum":
        scale = lcm(a._scale, b._scale)
        factors = [
            s._ints if s._scale == scale else tuple(map((scale // s._scale).__mul__, s._ints))
            for s in (a, b)
        ]
        return _sumset(factors, scale, "combine result")
    _require_nonzero(a, b)
    return _productset([a, b], "combine result")


def iterate(a: FinSet, h: int, op: Op) -> FinSet:
    """h-fold sum set or product set (h = 1 gives the set itself)."""
    _check_op(op)
    _require_fold(h)
    if op == "product":
        _require_nonzero(a)
    if h == 1:  # a itself, never checked against the cap
        return a
    if op == "sum":
        return _sumset([a._ints] * h, a._scale, "combine result")
    return _productset([a] * h, "combine result")


def dilate(q: Fraction | int, a: FinSet) -> FinSet:
    """The set q*a for a nonzero rational q.  Always |q*A| = |A|."""
    q = Fraction(_exact(q))
    if q == 0:
        raise ValueError("dilation factor must be nonzero")
    return _from_ints((v * q.numerator for v in a._ints), a._scale * q.denominator)


_WINDOW = 1 << 12  # bytes of a mask expanded to one byte per bit at a time
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bit_positions(bits: int, start: int = 0) -> Iterator[int]:
    """start + the index of each set bit of bits >= 0, ascending.

    The mask's bytes are read in windows of _WINDOW bytes.  Each window is
    written out by bin, least significant bit first, translated to one 0 or
    1 byte per bit, and compress picks its positions from a counter; chain
    runs the windows one after another.  So no Python frame runs per bit or
    per position, and only one window is expanded at a time, however wide
    the mask.
    """
    raw = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    return chain.from_iterable(
        compress(count(start + 8 * i), _bit_flags(raw[i : i + _WINDOW]))
        for i in range(0, len(raw), _WINDOW)
    )


def _bit_flags(window: bytes) -> bytes:
    """One 0 or 1 byte per bit of a little-endian window, low bit first, up
    to its highest set bit."""
    return bin(int.from_bytes(window, "little"))[:1:-1].encode("ascii").translate(_BIT_BYTES)


def _packs(cost: int, values: int, cap: int) -> bool:
    """Whether big-int work of `cost` words is at most 64 per step that the
    dict path would take, `values`, or per value the cap allows if fewer."""
    return cost <= 64 * min(values, cap)


def _slot_width(factors: list[dict[int, int]], cap: int) -> int | None:
    """k such that 2**k-byte slots hold every count of the product of the
    nonempty polynomials `factors`, when k <= 3 and `_packs` passes the cost
    of multiplying them packed; None otherwise."""
    slots = 1 + sum(max(f) - min(f) for f in factors)
    # the largest count is at most max(f_j) * the other factors' totals
    totals = [sum(f.values()) for f in factors]
    whole = prod(totals)
    top = min((max(f.values()) * whole // t for f, t in zip(factors, totals)), default=1)
    k = ((top.bit_length() - 1) // 8).bit_length()
    # Karatsuba triples the word products each time it halves a product
    cost = 3 ** ((slots << k) // 8).bit_length()
    return k if k <= 3 and _packs(cost, prod(map(len, factors)), cap) else None


def _packed_counts(factors: list[dict[int, int]], k: int) -> tuple[int, memoryview]:
    """The product of one or more nonempty polynomials `factors` by Kronecker
    substitution, as (low, slots): slots[i] is the count of exponent low + i.

    Each factor is one big int with a native 2**k-byte slot per exponent, and
    each count goes in with one store through a memoryview cast to that slot
    format; a factor that repeats the one before it reuses its int, so A * A
    is a square.  The product comes back as one buffer cast the same way.
    """
    fmt = "BHIQ"[k]
    packed = last = None
    for f in factors:
        if f is not last:
            low = min(f)
            buf = bytearray((max(f) - low + 1) << k)
            with memoryview(buf).cast(fmt) as view:
                for e, c in f.items():
                    view[e - low] = c
            piece, last = int.from_bytes(buf, sys.byteorder), f
        packed = piece if packed is None else packed * piece
    low = sum(map(min, factors))
    slots = 1 + sum(max(f) for f in factors) - low
    return low, memoryview(packed.to_bytes(slots << k, sys.byteorder)).cast(fmt)


def _convolve(factors: list[dict[int, int]], what: str) -> tuple[Collection[int], Collection[int]]:
    """The product of polynomials given as {exponent: positive count}, for the
    callers that need the counts (energy, rep_counts, weighted_energy); a sum
    set needs only their support and takes _sumset.

    Returned as (exponents, counts), two aligned collections that hold every
    nonzero count and possibly zeros, which a sum of squares reads as they
    are.  Packed by `_packed_counts` when `_slot_width` passes: the
    exponents are a range and the counts its slots as a list, with no
    Python frame per slot.  Else convolved as dicts, whose keys and values
    are returned.  The cap bounds the nonzero coefficients of the product,
    and of each partial product of the dicts, checked after each term u of
    the running product is spread over a factor.
    """
    if not all(factors):
        return (), ()
    cap = size_cap()
    k = _slot_width(factors, cap)
    if k is None:
        result = {0: 1}
        for f in factors:
            out: dict[int, int] = {}
            for u, cu in result.items():
                for v, cv in f.items():
                    out[u + v] = out.get(u + v, 0) + cu * cv
                if len(out) > cap:
                    raise over_cap(len(out), what, cap)
            result = out
        return result.keys(), result.values()
    low, slots = _packed_counts(factors, k)
    counts = slots.tolist()
    nonzero = len(counts) - counts.count(0)
    if nonzero > cap:
        raise over_cap(nonzero, what, cap)
    return range(low, low + len(counts)), counts


def _rows(factors: list[Sequence[int]], pair, what: str) -> dict[int, None]:
    """All x_1 o ... o x_m with each x_i in factors[i], o the `pair` operation
    (operator.add or operator.mul on ints), as the keys of a dict.

    The first factor's values, then one row per element y of each later
    factor: y o every value built so far.  o commutes, so when the first two
    factors are equal, row i of the second pairs its y = a_i only with a_j,
    j >= i, and each unordered pair is formed once.  A row's values enter an
    insertion-ordered dict, so the caller's sort meets one ascending run per
    row rather than hash order.  The cap is checked on the first factor's
    length, before it is built, and after every row.
    """
    cap = size_cap()
    first = factors[0] if factors else (1 if pair is mul else 0,)
    if len(first) > cap:
        raise over_cap(len(first), what, cap)
    built = dict.fromkeys(first)
    triangle = len(factors) > 1 and factors[1] == first
    for ys in factors[1:]:
        prev, built = built, {}
        for i, y in enumerate(ys):
            built.update(zip(map(pair, repeat(y), first[i:] if triangle else prev), repeat(None)))
            if len(built) > cap:
                raise over_cap(len(built), what, cap)
        triangle = False
    return built


def _sums(factors: list[Sequence[int]], what: str) -> tuple[int, int | dict[int, None]]:
    """All x_1 + ... + x_m with each x_i in factors[i], an ascending sequence
    of distinct ints; no factors give {0}.  Returned as (offset, sums): a
    bitmask with bit s set iff offset + s is a sum, or `_rows`' dict of the
    sums with offset 0.  Factors go longest first: there are at least as many
    sums as any factor has values, so `_rows` refuses one past the cap unbuilt.

    The mask adds a `range` {r, r + v, ..., r + hv} by O(log h) halvings,
    {0..h} = {0..h - take} + {0, take}, and any other factor by one shift per
    value, streamed into one OR.  It is taken when it spans at most 64 bits
    per value the cap allows and `_packs` passes its shift words against the
    inserts `_rows` would make: each factor's length times the sums before
    it, at most their span plus 1 and the product of comb(n + r - 1, r) over
    the runs of r equal factors of n values; the cap is checked per factor.
    """
    if not all(factors):  # an empty factor has no sums
        return 0, {}
    factors = sorted(factors, key=len, reverse=True)
    words = inserts = width = run = 0
    bound = built = 1
    for i, f in enumerate(factors):
        run = run + 1 if i and f == factors[i - 1] else 1
        bound = bound * (len(f) + run - 1) // run  # exact: a binomial times the runs before
        width += f[-1] - f[0]
        words += (width // 64 + 1) * ((len(f) - 1).bit_length() if type(f) is range else len(f))
        inserts += len(f) * built
        built = bound if bound <= width else width + 1
    cap = size_cap()
    # `_rows` can stop at the cap early only when the sums can pass it
    if width > 64 * cap or not _packs(words, inserts, cap if built > cap else inserts):
        return 0, _rows(factors, add, what)
    bits = 1
    for f in factors:
        if type(f) is range:
            left = len(f) - 1
            while left:
                take = (left + 1) // 2
                bits |= bits << take * f.step
                left -= take
        else:
            bits = reduce(or_, map(bits.__lshift__, map(f[0].__rsub__, f)))
        if bits.bit_count() > cap:
            raise over_cap(bits.bit_count(), what, cap)
    return sum(f[0] for f in factors), bits


def _sumset(factors: list[Sequence[int]], scale: int, what: str) -> FinSet:
    """The set of v / scale for the sums v of `_sums` over factors."""
    offset, sums = _sums(factors, what)
    if isinstance(sums, int):
        return _from_ints(tuple(_bit_positions(sums, offset)), scale, ascending=True)
    return _from_ints(sums, scale)


def _productset(sets: list[FinSet], what: str) -> FinSet:
    """All x_1 * ... * x_m with each x_i in sets[i]; no sets give {1}.

    Built by `_rows` on the ints over the product of the scales.  The common
    factor of the result is gcd(product of the scales, product of the gcds
    of each factor's ints): for a fixed y the products y * x, x in X, have
    gcd |y| * gcd(X), so the gcd of all products is the product of the
    factors' gcds, and no gcd runs over the products themselves.
    """
    scale = prod(s._scale for s in sets)
    g = gcd(scale, prod(gcd(*s._ints) for s in sets)) if scale > 1 else 1
    return _from_ints(_rows([s._ints for s in sets], mul, what), scale, g=g)


def _box_factors(ints: Sequence[int], h: int) -> list[range]:
    """One ascending range {0, v, ..., hv} per v, so {hv, ..., v, 0} for v < 0:
    their sums are the sums of c_i * v_i with every c_i in 0..h."""
    return [range(h * v, 1, -v) if v < 0 else range(0, h * v + 1, v or 1) for v in ints]


def _box_size(ints: Sequence[int], what: str) -> int:
    """The number of subset sums of ints, the empty sum included, by `_sums`
    over the box factors with h = 1; the sums are counted, not built."""
    _, sums = _sums(_box_factors(ints, 1), what)
    return sums.bit_count() if isinstance(sums, int) else len(sums)


def _box_hits(ints: Sequence[int], values: Iterable[int], what: str) -> int:
    """How many of values (repeats counted) are subset sums of ints, looked up
    in `_sums` over the box factors with h = 1: in a mask's bytes, or a dict."""
    offset, mask = _sums(_box_factors(ints, 1), what)
    wanted = [v - offset for v in values]
    if isinstance(mask, int):
        width = mask.bit_length()
        raw = mask.to_bytes((width + 7) // 8, "little")
        return sum(0 <= s < width and raw[s >> 3] >> (s & 7) & 1 for s in wanted)
    return sum(s in mask for s in wanted)


def simple_closure(a: FinSet, op: Op) -> FinSet:
    """All subset sums (or products) of a, the empty subset included.

    0 is always in the sum closure and 1 in the product closure.  The
    result can reach 2^|a| values, so the size cap applies.
    """
    _check_op(op)
    if op == "sum":
        return _sumset(_box_factors(a._ints, 1), a._scale, "simple sum closure")
    _require_nonzero(a)
    # one factor {1, v} per element v: a left-out element contributes 1
    scale = a._scale
    return _productset([_from_ints({scale, v}, scale) for v in a._ints], "simple closure")


def box_sum(a: FinSet, h: int) -> FinSet:
    """Sums with per-element coefficients drawn from {0, 1, ..., h}."""
    if h < 0:
        raise ValueError(f"coefficient bound must be >= 0, got {h}")
    return _sumset(_box_factors(a._ints, h), a._scale, "box sum")


def sum_diff(n: FinSet, h: int, l: int) -> FinSet:
    """Signed sumset: h-fold sums of n minus l-fold sums of n.

    h = 0 or l = 0 contributes the empty sum, i.e. the value 0.
    """
    if h < 0 or l < 0:
        raise ValueError("fold counts must be >= 0")
    return _sumset([n._ints] * h + [dilate(-1, n)._ints] * l, n._scale, "signed sumset")


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
        check_size(n * n, "full pair graph")
        return cls(ground, frozenset((i, j) for i in range(n) for j in range(n)))

    @classmethod
    def diagonal(cls, ground: FinSet) -> "PairGraph":
        return cls(ground, frozenset((i, i) for i in range(ground.size)))


def restricted_combine(a: FinSet, graph: PairGraph, op: Op) -> FinSet:
    """Sums or products a_i + a_j (resp. a_i * a_j) over the graph's pairs."""
    _check_op(op)
    if graph.ground != a:
        raise ValueError("graph ground set differs from the operand set")
    ints, cap, product = a._ints, size_cap(), op == "product"
    if product:
        _require_nonzero(a)
    pair_op, values = (mul if product else add), set()
    for i, j in graph.pairs:  # refused at the first pair that passes the cap
        values.add(pair_op(ints[i], ints[j]))
        if len(values) > cap:
            raise over_cap(len(values), "restricted combine", cap)
    return _from_ints(values, a._scale**2 if product else a._scale)
