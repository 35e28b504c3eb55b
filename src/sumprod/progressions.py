"""Generalized geometric progressions and membership testing.

A progression is a base point times products of ratio powers with bounded
exponents: base * r_1^j_1 * ... * r_s^j_s, 0 <= j_i < J_i.  Membership is
decided exactly on prime-exponent rows by arith.Echelon, the same sparse
fraction-free eliminator behind mult_dim, with a bounded grid enumeration
as fallback when the ratios are multiplicatively dependent and the linear
system alone cannot pin down the exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from typing import NamedTuple

from .exactset import FinSet, _productset, parse_token
from .limits import SetParseError, check_size
from .arith import Echelon, _factored, factor_fraction, mult_dim
from .verdicts import Verdict, compare, unmet


@dataclass(frozen=True)
class ProgressionDesc:
    """base * prod(ratios[i] ** j_i) with 0 <= j_i < lengths[i]."""

    base: Fraction
    ratios: tuple[Fraction, ...]
    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", Fraction(self.base))
        object.__setattr__(
            self, "ratios", tuple(Fraction(r) for r in self.ratios)
        )
        object.__setattr__(self, "lengths", tuple(int(j) for j in self.lengths))
        if self.base <= 0:
            raise ValueError(f"base must be positive, got {self.base}")
        if len(self.ratios) != len(self.lengths):
            raise ValueError("one length per ratio is required")
        for r in self.ratios:
            if r <= 0:
                raise ValueError(f"ratios must be positive, got {r}")
        for j in self.lengths:
            if j < 1:
                raise ValueError(f"lengths must be >= 1, got {j}")

    @property
    def rank(self) -> int:
        return len(self.ratios)

    @property
    def nominal_size(self) -> int:
        return prod(self.lengths)

    def value_at(self, exponents: tuple[int, ...]) -> Fraction:
        v = self.base
        for r, j in zip(self.ratios, exponents):
            v *= r**j
        return v


class ContainsResult(NamedTuple):
    contained: bool
    witnesses: tuple[tuple[int, ...] | None, ...]


def parse_progression(text: str) -> ProgressionDesc:
    """First data line: the base.  Each further line: 'ratio length'."""
    base: Fraction | None = None
    ratios: list[Fraction] = []
    lengths: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if base is None:
                base = parse_token(line)
                ProgressionDesc(base, (), ())
                continue
            parts = line.split()
            if len(parts) != 2:
                raise SetParseError("expected 'ratio length'")
            r = parse_token(parts[0])
            if not parts[1].isdecimal():
                raise SetParseError(f"length must be a positive integer, got {parts[1]!r}")
            length = int(parts[1])
            ProgressionDesc(1, (r,), (length,))
            ratios.append(r)
            lengths.append(length)
        except ValueError as exc:
            raise SetParseError(f"line {lineno}: {exc}") from None
    if base is None:
        raise SetParseError("progression file has no base line")
    return ProgressionDesc(base=base, ratios=tuple(ratios), lengths=tuple(lengths))


def enumerate_progression(p: ProgressionDesc) -> FinSet:
    """All progression values as a set (collisions collapse): the product
    set of {base} and each {r^0, ..., r^(J-1)}."""
    check_size(p.nominal_size, "progression enumeration")
    powers = (FinSet(r**e for e in range(j)) for r, j in zip(p.ratios, p.lengths))
    return _productset([FinSet([p.base]), *powers], "progression enumeration")


def is_proper(p: ProgressionDesc) -> bool:
    """True when all nominal_size exponent tuples give distinct values."""
    return enumerate_progression(p).size == p.nominal_size


def contains(p: ProgressionDesc, a: FinSet) -> ContainsResult:
    """Whether every element of a is hit by some in-range exponent tuple.

    witnesses[i] is one exponent tuple producing a's i-th element, or None.
    The rows of the ratios of length >= 2 are eliminated once, each with a
    tag column after the prime columns recording its combination.  An
    element whose exponent difference from the base leaves a residual in a
    prime column is outside the progression.  Otherwise, with independent
    ratios, each tag column of the residual over its scale must be an
    in-range integer exponent; with dependent ratios a capped enumeration
    of the exponent grid finds the lexicographically first witness.
    """
    if a.size == 0:
        return ContainsResult(True, ())
    primes, factored = _factored(a)
    base = factor_fraction(p.base)
    # A ratio of length 1 always has exponent 0, so it is never factored.
    moving = [i for i, j in enumerate(p.lengths) if j >= 2]
    rows = [factor_fraction(p.ratios[i]) for i in moving]
    tag = 1 + max((*primes, *base, *(q for f in rows for q in f)), default=1)
    echelon = Echelon()
    independent = True
    for t, row in enumerate(rows):
        lead = echelon.add({**row, tag + t: 1})
        independent = independent and lead < tag
    grid: dict[Fraction, tuple[int, ...]] | None = None
    witnesses: list[tuple[int, ...] | None] = []
    for elem, f in zip(a.elements, factored):
        target = {q: f.get(q, 0) - base.get(q, 0) for q in f.keys() | base.keys()}
        scale, residual = echelon.reduce(target)
        found: tuple[int, ...] | None = None
        if any(c < tag for c in residual):
            pass  # the exponent difference is outside the ratios' span
        elif independent:
            exponents = [0] * p.rank
            for t, i in enumerate(moving):
                exponents[i], r = divmod(-residual.get(tag + t, 0), scale)
                if r or not 0 <= exponents[i] < p.lengths[i]:
                    break
            else:
                found = tuple(exponents)
        else:
            if grid is None:
                check_size(p.nominal_size, "progression membership fallback")
                grid = {}
                for tup in product(*(range(j) for j in p.lengths)):
                    grid.setdefault(p.value_at(tup), tup)
            found = grid.get(elem)
        witnesses.append(found)
    return ContainsResult(None not in witnesses, tuple(witnesses))


def dim_chain_check(p: ProgressionDesc, a: FinSet) -> Verdict:
    """Check dim(a) <= dim(progression values) <= rank, given containment.

    Containment of a in the progression is the hypothesis; without it the
    verdict is 'hypothesis-not-met'.  The progression's dimension is
    mult_dim of 1 and its ratios with length >= 2: the affine rank of
    {0, v_i} is the rank of their exponent rows v_i, so no value is
    enumerated.
    """
    return _dim_chain(p, a, contains(p, a))


def _dim_chain(p: ProgressionDesc, a: FinSet, inside: ContainsResult) -> Verdict:
    """dim_chain_check on the result of contains(p, a), already at hand."""
    m_p = mult_dim(FinSet([1, *(r for r, j in zip(p.ratios, p.lengths) if j >= 2)])).dimension
    s = p.rank
    if not inside.contained:
        missing = tuple(
            e for e, w in zip(a.elements, inside.witnesses) if w is None
        )
        return unmet(
            "progression.dim_chain",
            None,
            s,
            {"missing": missing, "progression_dim": m_p},
        )
    m_a = mult_dim(a).dimension
    # m_p counts independent rows among at most s ratio rows, so m_p <= s
    # always holds and the chain m_a <= m_p <= s is exactly m_a <= m_p.
    witness = {"set_dim": m_a, "progression_dim": m_p, "rank": s}
    return Verdict("progression.dim_chain", m_a, s, compare(m_a, m_p, "<="), witness)
