"""Generalized geometric progressions: parsing, membership, dimension chain."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sumprod.arith import mult_dim
from sumprod.exactset import FinSet
from sumprod.limits import SetParseError
from sumprod.progressions import (
    ProgressionDesc,
    contains,
    dim_chain_check,
    enumerate_progression,
    is_proper,
    parse_progression,
)

F = Fraction


def fs(*values) -> FinSet:
    return FinSet(F(v) for v in values)


def desc(base, ratios, lengths) -> ProgressionDesc:
    return ProgressionDesc(
        base=F(base), ratios=tuple(F(r) for r in ratios), lengths=tuple(lengths)
    )


# --- construction and parsing ----------------------------------------------------


def test_desc_validation():
    with pytest.raises(ValueError):
        desc(0, (2,), (3,))
    with pytest.raises(ValueError):
        desc(1, (-2,), (3,))
    with pytest.raises(ValueError):
        desc(1, (2,), (0,))
    with pytest.raises(ValueError):
        desc(1, (2, 3), (2,))  # ragged


def test_desc_rank_and_nominal_size():
    p = desc(1, (2, 3), (2, 3))
    assert p.rank == 2
    assert p.nominal_size == 6
    assert p.value_at((1, 2)) == F(18)


def test_parse_progression():
    p = parse_progression("# demo\n3/2\n2 4\n5 2\n")
    assert p == desc(F(3, 2), (2, 5), (4, 2))


@pytest.mark.parametrize(
    "bad",
    ["", "1\n2\n", "1\n2 0\n", "1\nx 3\n", "1\n2 3 4\n"],
)
def test_parse_progression_rejects(bad):
    with pytest.raises(SetParseError):
        parse_progression(bad)


# --- enumeration and properness ---------------------------------------------------


def test_enumerate_powers():
    p = desc(1, (2,), (3,))
    assert enumerate_progression(p) == fs(1, 2, 4)
    assert is_proper(p)


def test_enumerate_two_ratios():
    p = desc(1, (2, 3), (2, 2))
    assert enumerate_progression(p) == fs(1, 2, 3, 6)
    assert is_proper(p)


_RATIONAL = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9)


@st.composite
def rational_progression(draw):
    # each ratio is a fresh positive rational or a repeat of an earlier one
    ratios: list[Fraction] = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        fresh = not ratios or draw(st.booleans())
        ratios.append(draw(_RATIONAL) if fresh else draw(st.sampled_from(ratios)))
    lengths = [draw(st.integers(min_value=1, max_value=4)) for _ in ratios]
    return desc(draw(_RATIONAL), ratios, lengths)


@given(rational_progression())
@settings(max_examples=200, deadline=None)
def test_enumerate_matches_brute_force(p):
    want = oracles.o_progression(p.base, p.ratios, p.lengths)
    assert enumerate_progression(p) == FinSet(want)
    assert is_proper(p) == (len(want) == p.nominal_size)


def test_improper_when_ratios_collide():
    p = desc(1, (2, 4), (3, 2))
    # 4 = 2^2 so exponent grids overlap: 8 nominal cells, fewer values
    assert p.nominal_size == 6
    assert enumerate_progression(p).size == 5
    assert not is_proper(p)


# --- membership -------------------------------------------------------------------


def test_contains_full_enumeration_roundtrip():
    p = desc(F(3), (2, 5), (3, 2))
    values = enumerate_progression(p)
    res = contains(p, values)
    assert res.contained
    # witnesses align positionally with the sorted elements
    assert len(res.witnesses) == values.size
    for elem, expo in zip(values.elements, res.witnesses):
        assert p.value_at(expo) == elem
        assert all(0 <= e < l for e, l in zip(expo, p.lengths))


def test_contains_detects_outsiders():
    p = desc(1, (2,), (4,))
    res = contains(p, fs(1, 2, 3))
    assert not res.contained
    by_elem = dict(zip(fs(1, 2, 3).elements, res.witnesses))
    assert by_elem[F(3)] is None
    assert by_elem[F(2)] == (1,)


def test_contains_independent_ratios_unique_solution():
    p = desc(1, (2, 3), (3, 3))
    res = contains(p, fs(12))
    assert res.contained
    assert res.witnesses == ((2, 1),)


def test_contains_dependent_ratios_grid_fallback():
    # 4 = 2^2 makes the exponent system underdetermined; membership must
    # still be decided, with a lexicographically first witness
    p = desc(1, (2, 4), (3, 2))
    res = contains(p, fs(16))
    assert res.contained
    assert res.witnesses == ((2, 1),)


def test_contains_dependent_ratios_negative_case():
    p = desc(1, (2, 4), (2, 2))
    res = contains(p, fs(32))
    assert not res.contained  # max value is 2*4 = 8


def test_contains_all_ones_witness_has_one_exponent_per_ratio():
    # no prime occurs anywhere, so the exponent system has no rows at all;
    # the witness must still carry one exponent for the ratio
    p = desc(1, (1,), (3,))
    res = contains(p, fs(1))
    assert res.contained
    assert res.witnesses == ((0,),)


# a pool with repeated primes and the ratio 1, so that dependent ratio sets
# and the all-ones case come up often
_POOL = [F(1), F(2), F(3), F(4), F(6), F(9), F(1, 2), F(3, 2), F(2, 3), F(9, 4), F(5)]


@st.composite
def progression_and_set(draw):
    rank = draw(st.integers(min_value=0, max_value=3))
    ratios = tuple(draw(st.sampled_from(_POOL)) for _ in range(rank))
    lengths = tuple(draw(st.integers(min_value=1, max_value=4)) for _ in range(rank))
    base = draw(st.sampled_from(_POOL))
    values = set()
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        if draw(st.booleans()):
            # on the grid, or one step past its end
            v = base
            for r, j in zip(ratios, lengths):
                v *= r ** draw(st.integers(min_value=0, max_value=j))
        else:
            v = draw(st.sampled_from(_POOL)) * draw(st.sampled_from(_POOL))
        values.add(v)
    return desc(base, ratios, lengths), fs(*values)


@given(progression_and_set())
@settings(max_examples=200, deadline=None)
def test_contains_matches_grid_oracle(case):
    p, a = case
    res = contains(p, a)
    want = oracles.o_contains(p.base, p.ratios, p.lengths, a.elements)
    assert list(res.witnesses) == want
    assert res.contained == (None not in want)


def test_contains_rational_base_and_ratio():
    p = desc(F(1, 2), (F(3, 2),), (3,))
    values = enumerate_progression(p)
    assert values == fs(F(1, 2), F(3, 4), F(9, 8))
    assert contains(p, values).contained


def test_contains_never_factors_a_ratio_of_length_one():
    # 2**89 - 1 is a prime past the factoring budget; its exponent is always 0
    p = desc(3, (2, 2**89 - 1), (4, 1))
    a = fs(3, 6, 24)
    res = contains(p, a)
    assert res.contained
    assert res.witnesses == ((0, 0), (1, 0), (3, 0))
    assert dim_chain_check(p, a).holds == "true"


# --- dimension chain ----------------------------------------------------------------


def test_dim_chain_holds_inside_progression():
    p = desc(1, (2, 3), (3, 3))
    a = fs(1, 2, 3, 6)
    v = dim_chain_check(p, a)
    assert v.name == "progression.dim_chain"
    assert v.holds == "true"
    assert v.witness["set_dim"] == 2
    assert v.witness["progression_dim"] == 2
    assert v.witness["rank"] == 2
    assert v.lhs == 2 and v.rhs == 2


def test_dim_chain_unmet_when_not_contained():
    p = desc(1, (2,), (3,))
    v = dim_chain_check(p, fs(1, 2, 5))
    assert v.holds == "hypothesis-not-met"
    assert F(5) in v.witness["missing"]


def test_dim_chain_degenerate_progression():
    # a rank-2 box whose values all lie on one ray
    p = desc(1, (2, 4), (2, 2))
    a = fs(1, 2, 8)
    v = dim_chain_check(p, a)
    assert v.holds == "true"
    assert v.witness["set_dim"] == 1
    assert v.witness["progression_dim"] == 1
    assert v.witness["rank"] == 2


@given(progression_and_set())
@settings(max_examples=100, deadline=None)
def test_dim_chain_progression_dim_matches_enumeration(case):
    p, a = case
    v = dim_chain_check(p, a)
    assert v.witness["progression_dim"] == mult_dim(enumerate_progression(p)).dimension


def test_dim_chain_does_not_enumerate_the_progression():
    # 30^4 nominal values; the ratio rows alone give the dimension
    p = desc(7, (2, 3, F(5, 2), 7), (30,) * 4)
    start = time.perf_counter()
    v = dim_chain_check(p, fs(7, 14))
    assert time.perf_counter() - start < 1
    assert v.holds == "true"
    assert (v.witness["set_dim"], v.witness["progression_dim"], v.witness["rank"]) == (1, 4, 4)
