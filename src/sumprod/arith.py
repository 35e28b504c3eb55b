"""Integer factorization, prime-exponent vectors, and multiplicative dimension.

factor_int(n) spends a fixed effort, the module constants _TRIAL_BOUND and
_RHO_BUDGET, so its cache is keyed on n alone.  Its trial division runs
through _SMALL_PRIMES, the primes below 2**10 sieved once at import, and
then through the 6k +- 1 wheel from 1025 up to _TRIAL_BOUND: a table that
far would hold 78,498 primes.

The multiplicative dimension of a set of positive rationals is the affine
rank of its prime-exponent vectors: the dimension of the span of the
differences from any fixed member.  Each element is factored as its own
numerator over its own denominator; an integer set's elements are factored
as they are, with no gcd and no denominator.  mult_dim inserts each
element's homogeneous row (f_i, 1) instead of its difference f_i - f_0,
which would carry the base's columns into every row: f_i - f_0 is in the
span of the earlier differences exactly when (f_i, 1) is in the span of
the earlier rows, and the pivots of the differences are those of the rows
less the largest lead of a row with a nonzero 1-column.  A prime that every
element has is shifted by the base's exponent first, so a column constant
over the set is left out.  Rank is computed by Echelon, the package's one
exact eliminator: a sparse, fraction-free row echelon form on {column: int}
rows, exact for arbitrarily large exponents, which refuses a row without
reducing it when its pivot rows already span every row on its columns (on
an interval, each composite), and which reduces each pivot row by the later
pivots in its own columns before applying it, and keeps the result.
Progression membership (progressions.contains) runs on the same
eliminator.  Subset products are counted over a pairwise coprime base found
by gcds alone, with no factoring (vector_simple_sum_count).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from math import gcd, isqrt, prod
from typing import Iterable

from .exactset import FinSet, _box_size, _require_nonempty, _require_positive
from .limits import FactorizationBudgetExceeded

_TRIAL_BOUND = 10**6
_RHO_BUDGET = 2_000_000
_TABLE_BOUND = 1 << 10  # trial division by a table of the primes below this
_WHEEL_START = _TABLE_BOUND + 1  # then by d, d + 2 for d = 5 mod 6 from here on

# Witness bases making Miller-Rabin deterministic below this threshold.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _primes_below(limit: int) -> tuple[int, ...]:
    """The primes below limit >= 2, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return tuple(compress(range(limit), sieve))


_SMALL_PRIMES = _primes_below(_TABLE_BOUND)


def _valuation(n: int, b: int) -> tuple[int, int]:
    """(e, n // b**e) for the largest e with b**e dividing n >= 1, b > 1.

    By repeated squaring: the valuation of n / b at b^2 (then b^4, ...) gives
    all but at most one factor b, so e costs O(log e) divisions, not e.
    """
    if n % b:
        return 0, n
    e, n = _valuation(n // b, b * b)
    q, r = divmod(n, b)
    return (2 * e + 1, n) if r else (2 * e + 2, q)


def is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases, deterministic below
    about 3.3e24.  A composite answer is always a proof; a probable prime
    at or above that bound raises FactorizationBudgetExceeded.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    r, d = _valuation(n - 1, 2)
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise FactorizationBudgetExceeded(
            f"{n} is a probable prime outside the deterministic witness range"
        )
    return True


def _brent_step(n: int, c: int, budget: int) -> tuple[int | None, int]:
    """One Brent-cycle attempt at splitting composite n.

    Returns (factor, iterations used); factor is None if the budget ran out
    or the attempt degenerated.
    """
    y, r, q, g = 2, 1, 1, 1
    used = 0
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        used += r
        k = 0
        while k < r and g == 1:
            ys = y
            block = min(128, r - k)
            for _ in range(block):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = gcd(q, n)
            k += block
            used += block
        r *= 2
        if used > budget:
            return None, used
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            used += 1
            g = gcd(abs(x - ys), n)
            if used > budget:
                return None, used
    return (g if g != n else None), used


@lru_cache(maxsize=65536)
def factor_int(n: int) -> tuple[tuple[int, int], ...]:
    """Factor a positive integer into ((prime, exponent), ...) ascending.

    Trial division by d up to _TRIAL_BOUND, then Brent cycles sharing
    _RHO_BUDGET iterations.  The divisors d are the primes of _SMALL_PRIMES,
    all those below 2**10, and past the table the wheel's d and d + 2 for d
    = 5 mod 6, from _WHEEL_START = 1025 on.  Trial division that stops at
    d * d > n leaves a cofactor 1 < n < d * d with no prime factor below d,
    so a prime, recorded without a primality test: every n below about
    10**12 ends so.
    If a cofactor survives both, the call fails with
    FactorizationBudgetExceeded rather than guessing.
    """
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    factors: dict[int, int] = {}
    for d in _SMALL_PRIMES:
        if d * d > n:
            break
        if n % d == 0:
            factors[d], n = _valuation(n, d)
    else:  # the table ran out with d * d <= n: the wheel goes on
        d = _WHEEL_START
        while d <= _TRIAL_BOUND and d * d <= n:
            for p in (d, d + 2):
                if n % p == 0:
                    factors[p], n = _valuation(n, p)
            d += 6
    if 1 < n < d * d:  # no prime below d divides n, so n is prime
        factors[n] = 1
    elif n > 1:
        remaining = _RHO_BUDGET
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                factors[m] = factors.get(m, 0) + 1
                continue
            root = isqrt(m)
            if root * root == m:
                stack += [root, root]
                continue
            split = None
            for c in range(1, 64):
                split, used = _brent_step(m, c, remaining)
                remaining -= used
                if split is not None or remaining <= 0:
                    break
            if split is None:
                raise FactorizationBudgetExceeded(
                    f"could not split {m} within the iteration budget"
                )
            stack += [split, m // split]
    return tuple(sorted(factors.items()))


def factor_fraction(q: Fraction) -> dict[int, int]:
    """Signed prime exponents of a positive rational."""
    if q <= 0:
        raise ValueError(f"need a positive rational, got {q}")
    return _quotient_exponents(q.numerator, q.denominator)


def _quotient_exponents(n: int, d: int) -> dict[int, int]:
    """Signed prime exponents of n / d for coprime positive ints n and d."""
    exps = dict(factor_int(n))
    if d != 1:
        exps.update((p, -e) for p, e in factor_int(d))
    return exps


@dataclass(frozen=True)
class ExponentMatrix:
    """Rows of prime exponents, one row per element of source (ascending)."""

    primes: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    source: FinSet

    def row_for(self, value: Fraction) -> tuple[int, ...]:
        i = self.source._index(value)
        if i is None:
            raise ValueError(f"{value} is not in the source set")
        return self.rows[i]


@dataclass(frozen=True)
class MultDim:
    """Affine rank of a set's exponent vectors, with supporting data.

    primes are the ascending primes occurring in the set; basis holds
    difference vectors over them (relative to the smallest element's row)
    spanning the direction space; projection lists the coordinates, as
    indices into primes, on which the exponent vectors are already
    injective.
    """

    dimension: int
    basepoint: Fraction
    primes: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]
    projection: tuple[int, ...]


def _reduced(a: FinSet) -> list[tuple[int, int]]:
    """Each element of a positive set as its (numerator, denominator) in
    lowest terms."""
    _require_positive(a, "prime factorization")
    if a._scale == 1:
        return list(zip(a._ints, repeat(1)))
    return [(v // g, a._scale // g) for v in a._ints for g in (gcd(v, a._scale),)]


def _factored(a: FinSet) -> tuple[tuple[int, ...], list[dict[int, int]]]:
    """The ascending primes occurring in a, and each element's exponents."""
    # Each element's own numerator and denominator, never the scale (the lcm of
    # the denominators), which can be a product of primes too large to split.
    factored = [dict(factor_int(n)) if d == 1 else _quotient_exponents(n, d) for n, d in _reduced(a)]
    return tuple(sorted(set().union(*factored))), factored


def exponent_matrix(a: FinSet) -> ExponentMatrix:
    """Exponent vectors for a set of positive rationals.

    Column order follows the ascending primes that occur in any element.
    """
    primes, factored = _factored(a)
    rows = tuple(tuple(f.get(p, 0) for p in primes) for f in factored)
    return ExponentMatrix(primes=primes, rows=rows, source=a)


class Echelon:
    """Sparse fraction-free row echelon form over the integers.

    Rows are {column: int} dicts.  Each pivot row is stored with content 1
    and a positive leading entry, keyed by its leading (smallest) column,
    so the keys are the pivot columns of the row space for the ascending
    column order.  Elimination is fraction-free in the spirit of Bareiss:
    it cross-multiplies by gcd-reduced leading entries, so every value
    stays an integer, and only columns that hold a pivot are visited.

    A pivot row is clean when its lead is its only pivot column: applying
    it then brings no other pivot column into the row it reduces.  A new
    pivot row is clean, and stays so until a later row takes one of its
    other columns as a lead; stale records that this has happened.  Before
    reduce applies a dirty pivot row, it reduces that row by the later
    pivots in its own columns and stores the result, which keeps the lead
    and the row space, so a chain of pivot rows is walked once, not once
    per row reduced.  Rows reached that way are cleaned from a stack, not
    by recursion.

    free holds the columns that some pivot row uses but that are not pivot
    columns (and any that cleaning cancelled from every row).  While it is
    empty, the r pivot rows are r independent vectors (their leads differ)
    supported on exactly the r pivot columns, so they span every vector on
    those columns: add then refuses a row whose columns are all pivot
    columns as dependent without reducing it.  That is the same answer
    reduce would reach, so the shortcut is exact.
    """

    def __init__(self) -> None:
        self.pivots: dict[int, dict[int, int]] = {}
        self.free: set[int] = set()
        self.stale = False

    def reduce(self, row: dict[int, int]) -> tuple[int, dict[int, int]]:
        """(scale, residual): residual = scale * row minus a rational
        combination of the pivot rows, zero in every pivot column; scale > 0.
        The dirty pivot rows it needs are cleaned first, and stay clean.
        """
        pivots = self.pivots
        residual = dict(row)
        if 0 in residual.values():
            residual = {c: v for c, v in row.items() if v}
        cols = residual.keys() & pivots.keys()
        if not cols:
            return 1, residual
        if self.stale:
            dirty = [c for c in cols if len(pivots[c].keys() & pivots.keys()) > 1]
            if dirty:
                self._clean(dirty)
        return self._eliminate(residual, cols), residual

    def _clean(self, todo: list[int]) -> None:
        """Clean the dirty pivot rows of the columns todo, each once every
        pivot row of its other pivot columns is clean.  Those have larger
        leads, so the rows wait on a stack, not in recursive calls.
        """
        pivots = self.pivots
        keys = pivots.keys()
        while todo:
            col = todo[-1]
            later = pivots[col].keys() & keys
            later.discard(col)
            waiting = [c for c in later if len(pivots[c].keys() & keys) > 1]
            if waiting:
                todo += waiting
                continue
            todo.pop()
            if later:
                row = dict(pivots[col])
                self._eliminate(row, later)
                g = gcd(*row.values())
                pivots[col] = {c: v // g for c, v in row.items()} if g != 1 else row

    def _eliminate(self, residual: dict[int, int], cols: Iterable[int]) -> int:
        """Clear the pivot columns cols of residual, in place, by their clean
        pivot rows; return the positive factor residual was scaled by.  A
        clean row changes no other pivot column, so any order will do.
        """
        pivots = self.pivots
        scale = 1
        for col in cols:
            pivot = pivots[col]
            mult, entry = pivot[col], residual[col]
            if mult != 1:
                g = gcd(mult, entry)
                mult, entry = mult // g, entry // g
                if mult != 1:
                    scale *= mult
                    for c in residual:
                        residual[c] *= mult
            for c, v in pivot.items():
                w = residual.get(c, 0) - entry * v
                if w:
                    residual[c] = w
                else:
                    del residual[c]
        return scale

    def add(self, row: dict[int, int]) -> int | None:
        """Insert a row; its new leading column, or None if it is dependent."""
        pivots = self.pivots
        if not pivots:
            residual = {c: v for c, v in row.items() if v}
        elif not self.free and row.keys() <= pivots.keys():
            return None
        else:
            _, residual = self.reduce(row)
        if not residual:
            return None
        lead = min(residual)
        g = gcd(*residual.values())
        if residual[lead] < 0:
            g = -g
        if g != 1:
            residual = {c: v // g for c, v in residual.items()}
        pivots[lead] = residual
        self.stale = self.stale or lead in self.free
        # the residual is zero in every old pivot column, so only its own
        # columns can become free, and only its lead stops being free
        self.free.update(residual)
        self.free.discard(lead)
        return lead


def mult_dim(a: FinSet) -> MultDim:
    """Multiplicative dimension of a set of positive rationals.

    Zero for singletons; in general the rank of the differences f_i - f_0
    of the exponent rows from the smallest element's row.  Each element's
    homogeneous row (f_i, 1), with the 1 in a column past every prime, is
    inserted in ascending element order: f_i - f_0 lies in the span of the
    earlier differences exactly when (f_i, 1) lies in the span of the
    earlier rows, so the basis keeps the differences of the rows the
    echelon accepts, built for those rows only.  The pivots of the
    differences are the pivots of the rows less one, the largest lead of a
    stored row with a nonzero 1-column (the same for every echelon basis of
    the rows, so the rows as first stored give it).  Both hold for any
    fixed shift of the rows, so a prime that every element has is shifted
    by the base's exponent: a column constant over the set is left out, and
    c * A costs what A does.  The projection onto the pivots is injective
    on the set.
    """
    _require_nonempty(a, "multiplicative dimension")
    primes, factored = _factored(a)
    base = factored[0]
    common = base.keys()
    for f in factored:
        if not common:
            break
        common &= f.keys()
    one = primes[-1] + 1 if primes else 1
    echelon = Echelon()
    pivots = echelon.pivots
    kept = []
    last = 0
    for f in factored:
        row = {**f, one: 1}
        for p in common:
            v = row[p] - base[p]
            if v:
                row[p] = v
            else:
                del row[p]
        lead = echelon.add(row)
        if lead is not None:
            kept.append(f)
            if lead > last and one in pivots[lead]:
                last = lead
    column = {p: i for i, p in enumerate(primes)}
    start = [0] * len(primes)
    for p, e in base.items():
        start[column[p]] = -e
    basis = []
    for f in kept[1:]:
        diff = start.copy()
        for p, e in f.items():
            diff[column[p]] += e
        basis.append(tuple(diff))
    return MultDim(
        dimension=len(basis),
        basepoint=a.min(),
        primes=primes,
        basis=tuple(basis),
        projection=tuple(i for i, p in enumerate(primes) if p in pivots and p != last),
    )


def _coprime_base(values: Iterable[int]) -> tuple[int, ...]:
    """A pairwise coprime base for positive ints, ascending, by factor
    refinement (Bach, Driscoll and Shallit, J. Algorithms 1993).

    Every value is a product of powers of the base elements, all > 1.  No
    factoring: a value sharing g = gcd > 1 with a base element b is replaced,
    with b, by g and by b and value stripped of every power of g, which
    divides the product of the pending parts by g or more, so it ends.
    """
    base: list[int] = []
    todo = list(set(values))
    while todo:
        x = todo.pop()
        if x == 1:
            continue
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                base[i] = base[-1]
                base.pop()
                todo += (g, _valuation(b, g)[1], _valuation(x, g)[1])
                break
        else:
            base.append(x)
    return tuple(sorted(base))


def _coprime_exponents(a: FinSet) -> tuple[tuple[int, ...], list[dict[int, int]]]:
    """A pairwise coprime base for a's reduced numerators and denominators,
    and each element's signed exponents over it.

    Each base element has a prime that no other one has, so every element
    has exactly one exponent vector over the base, found by _valuation.
    """
    parts = _reduced(a)
    base = _coprime_base(n for pair in parts for n in pair)
    exponents = []
    for pair in parts:
        exps: dict[int, int] = {}
        for n, sign in zip(pair, (1, -1)):
            for b in base:
                if n == 1:
                    break
                if n % b == 0:
                    e, n = _valuation(n, b)
                    exps[b] = sign * e
        exponents.append(exps)
    return base, exponents


def vector_simple_sum_count(a: FinSet) -> int:
    """Number of distinct subset products of a positive set, the empty
    product included, counted as subset sums of exponent vectors.

    The vectors are over a coprime base (_coprime_exponents), so nothing is
    factored.  Each is encoded as one int in mixed radix, the radix of a
    column being 1 plus the sum of its absolute entries, which maps subset
    sums of vectors one-to-one onto subset sums of the codes.  Those are
    counted, not built, by exactset._box_size on the sum kernel of sum sets.
    """
    base, exponents = _coprime_exponents(a)
    codes = [0] * len(exponents)
    weight = 1
    for b in base:
        column = [exps.get(b, 0) for exps in exponents]
        for i, e in enumerate(column):
            codes[i] += e * weight
        weight *= 1 + sum(map(abs, column))
    return _box_size(codes, "simple product closure")


def first_primes(count: int) -> tuple[int, ...]:
    """The first `count` primes, by a growing sieve."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return ()
    limit = max(16, count * 2)
    while True:
        primes = _primes_below(limit + 1)
        if len(primes) >= count:
            return primes[:count]
        limit *= 2


def radical(n: int) -> int:
    """Product of the distinct primes dividing n."""
    return prod(p for p, _ in factor_int(n))
