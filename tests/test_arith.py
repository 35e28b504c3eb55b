"""Factorization, exponent matrices, and multiplicative dimension."""

import math
import random
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sumprod import arith
from sumprod.arith import (
    Echelon,
    exponent_matrix,
    factor_fraction,
    factor_int,
    first_primes,
    is_prime,
    mult_dim,
    radical,
    vector_simple_sum_count,
)
from sumprod.exactset import FinSet, dilate, simple_closure
from sumprod.limits import CapExceeded, FactorizationBudgetExceeded


def fs(*values) -> FinSet:
    return FinSet(Fraction(v) for v in values)


# --- primality ----------------------------------------------------------------


def test_is_prime_small_range():
    for n in range(-3, 2000):
        assert is_prime(n) == sympy.isprime(n)


def test_is_prime_strong_pseudoprime():
    # composite that fools single-base Miller-Rabin tests
    n = 3215031751
    assert not is_prime(n)
    assert sympy.factorint(n) == {151: 1, 751: 1, 28351: 1}


def test_is_prime_large_prime_and_carmichael():
    assert is_prime(2**61 - 1)
    assert not is_prime(561)


def test_is_prime_refuses_beyond_deterministic_range():
    with pytest.raises(FactorizationBudgetExceeded):
        is_prime(3_317_044_064_679_887_385_961_981)


# --- integer factorization ------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 12, 97, 360, 2**20, 10**6 + 3])
def test_factor_int_matches_sympy(n):
    assert dict(factor_int(n)) == sympy.factorint(n)


def test_factor_int_needs_rho():
    # both primes above the trial division bound
    p, q = 1_000_003, 1_000_033
    assert factor_int(p * q) == ((p, 1), (q, 1))


def test_factor_int_perfect_square_semiprime():
    p = 1_000_003
    assert factor_int(p * p) == ((p, 2),)


def test_factor_int_budget_exhaustion(monkeypatch):
    p, q = 32_416_190_071, 32_416_190_039
    monkeypatch.setattr(arith, "_RHO_BUDGET", 3)
    factor_int.cache_clear()
    try:
        with pytest.raises(FactorizationBudgetExceeded):
            factor_int(p * q)
    finally:
        factor_int.cache_clear()


@pytest.mark.parametrize("n, factor", [(77, 7), (6, None)])
def test_brent_step_backtracks_when_a_block_overshoots(monkeypatch, n, factor):
    """A block of products can reach gcd n; the step then walks back one
    iteration at a time, which splits 77 and degenerates on 6."""
    seen = []

    def spy(a, b):
        seen.append(g := math.gcd(a, b))
        return g

    monkeypatch.setattr(arith, "gcd", spy)
    assert arith._brent_step(n, 1, 10**6)[0] == factor
    assert n in seen  # a block's gcd was n itself, so the step walked back


def test_factor_int_splits_composites_beyond_deterministic_range():
    # the product, near 2^92 > 3.3e24, is shown composite by a Miller-Rabin
    # witness and split by rho
    assert factor_int((2**61 - 1) * (2**31 - 1)) == ((2147483647, 1), (2305843009213693951, 1))
    # a probable prime beyond the range is still refused
    with pytest.raises(FactorizationBudgetExceeded):
        factor_int(2**89 - 1)


def test_factor_int_rejects_nonpositive():
    with pytest.raises(ValueError):
        factor_int(0)
    with pytest.raises(ValueError):
        factor_int(-6)


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=60)
def test_factor_int_roundtrip(n):
    prod = 1
    prev = 0
    for p, e in factor_int(n):
        assert p > prev and e >= 1 and is_prime(p)
        prev = p
        prod *= p**e
    assert prod == n


# the primes on either side of the trial bound 10**6, and the largest prime below 10**12
_BELOW, _ABOVE, _TOP = 999_983, 1_000_003, 999_999_999_989
_NEAR_TABLE_END = list(sympy.primerange(900, 1200))


@pytest.mark.parametrize(
    "n",
    [
        1,
        _BELOW,
        _ABOVE,
        _BELOW * _ABOVE,  # trial division ends on the cofactor _ABOVE
        _ABOVE**2,  # beyond the trial bound: a perfect square for rho
        _BELOW**2 * _ABOVE,
        _TOP,
        2**7 * 3 * _TOP,
        _TOP * _ABOVE,  # beyond the trial bound: a semiprime for rho
        1_000_000_000_039,  # the first prime above 10**12, still below d * d
        # the prime table's edges: 1021 is its last prime, the wheel starts at 1025
        997,
        1009,
        1021,
        1031,
        997**2,
        997 * 1009,
        1009**2,
        1021**2,
        1021 * 1031,
        1031**2,
        1023,
        1025,
        1027,
        2**10 * 1031**3,
    ]
    + [sympy.prevprime(10**k) for k in range(7, 13)]
    + [sympy.nextprime(x) for x in random.Random(12).sample(range(10**6, 10**12), 8)]
    + random.Random(26).sample(range(2, 10**12), 12)
    # products of two primes on either side of the table's end
    + [p * q for p, q in zip(*(random.Random(k).sample(_NEAR_TABLE_END, 6) for k in (1, 2)))],
)
def test_factor_int_matches_sympy_at_the_trial_bound(n):
    factor_int.cache_clear()
    assert factor_int(n) == tuple(sorted(sympy.factorint(n).items()))


def test_factor_int_trusts_a_cofactor_that_ends_trial_division(monkeypatch):
    # below 10**12 trial division always stops at d * d > n, and what is left
    # is recorded as prime without a Miller-Rabin test
    tested = []
    monkeypatch.setattr(arith, "is_prime", lambda m: tested.append(m) or is_prime(m))
    factor_int.cache_clear()
    try:
        for n in (97, 2 * 999_983, _BELOW * _ABOVE, _TOP, 6 * _TOP, 10**12 - 1):
            assert dict(factor_int(n)) == sympy.factorint(n)
        assert tested == []
        # a cofactor past the trial bound still goes through the primality test
        assert factor_int(_TOP * _ABOVE) == ((_ABOVE, 1), (_TOP, 1))
        assert tested
    finally:
        factor_int.cache_clear()


def test_factor_fraction_signed_exponents():
    assert factor_fraction(Fraction(8, 9)) == {2: 3, 3: -2}
    assert factor_fraction(Fraction(1)) == {}
    with pytest.raises(ValueError):
        factor_fraction(Fraction(-2))


# --- exponent matrix --------------------------------------------------------------


def test_exponent_matrix_example():
    m = exponent_matrix(fs(2, 3, 6))
    assert m.primes == (2, 3)
    assert m.rows == ((1, 0), (0, 1), (1, 1))
    assert m.row_for(Fraction(6)) == (1, 1)
    for missing in (Fraction(5), Fraction(7), Fraction(3, 2), float("inf"), float("nan")):
        with pytest.raises(ValueError, match="is not in the source set"):
            m.row_for(missing)
    q = exponent_matrix(fs(Fraction(1, 2), Fraction(3, 4), 5))
    assert q.row_for(Fraction(3, 4)) == (-2, 1, 0)
    assert q.row_for(5) == (0, 0, 1)


def test_exponent_matrix_rational_entries():
    m = exponent_matrix(fs(Fraction(4, 9)))
    assert m.primes == (2, 3)
    assert m.rows == ((2, -2),)


P15, Q15 = 1000000000000037, 1000000000001063  # primes near 10**15


def test_exponent_matrix_factors_each_elements_own_numerator_and_denominator(monkeypatch):
    # The scaled ints q * P15 and the common scale P15 * Q15 are semiprimes
    # beyond the trial bound and the Brent budget; no element needs them.
    for values, basis in (
        ((Fraction(1, P15), Q15), ((1, 1),)),
        ((Fraction(1, P15), Fraction(1, Q15)), ((-1, 1),)),
    ):
        md = mult_dim(fs(*values))
        assert (md.dimension, md.primes, md.basis) == (1, (P15, Q15), basis)
    asked = []
    monkeypatch.setattr(arith, "factor_int", lambda n, *bounds: asked.append(n) or factor_int(n))
    exponent_matrix(fs(Fraction(1, P15), Fraction(3, 2), 5))
    # a denominator of 1 is never looked up; the numerator 1 of 1/P15 is
    assert sorted(asked) == [1, 2, 3, 5, P15]


def test_exponent_matrix_of_ones():
    m = exponent_matrix(fs(1))
    assert m.primes == () and m.rows == ((),)


def test_exponent_matrix_requires_positive():
    with pytest.raises(ValueError):
        exponent_matrix(fs(-2, 3))


@given(st.sets(st.integers(min_value=1, max_value=500), min_size=1, max_size=5))
@settings(max_examples=50)
def test_exponent_matrix_reconstructs_elements(values):
    a = FinSet(Fraction(v) for v in values)
    m = exponent_matrix(a)
    for elem, row in zip(a.elements, m.rows):
        rebuilt = Fraction(1)
        for p, e in zip(m.primes, row):
            rebuilt *= Fraction(p) ** e
        assert rebuilt == elem


# --- multiplicative dimension -------------------------------------------------------


def test_mult_dim_examples():
    assert mult_dim(fs(1)).dimension == 0
    assert mult_dim(fs(7)).dimension == 0
    assert mult_dim(fs(2, 4, 8)).dimension == 1
    assert mult_dim(fs(2, 3, 6)).dimension == 2
    assert mult_dim(fs(1, 2, 3, 6)).dimension == 2
    assert mult_dim(fs(2, 3, 5)).dimension == 2


def test_mult_dim_empty_rejected():
    with pytest.raises(ValueError):
        mult_dim(FinSet([]))


def test_mult_dim_projection_is_injective():
    a = fs(2, 3, 5, 30, 36)
    md = mult_dim(a)
    m = exponent_matrix(a)
    projected = {
        tuple(row[c] for c in md.projection) for row in m.rows
    }
    assert len(projected) == len(a)
    assert len(md.projection) == md.dimension or md.dimension == 0
    assert md.primes == m.primes


def test_mult_dim_basis_spans_differences():
    a = fs(2, 6, 18)  # ratios are powers of 3
    md = mult_dim(a)
    assert md.dimension == 1
    assert md.basepoint == Fraction(2)
    assert len(md.basis) == 1


@given(st.sets(st.integers(min_value=1, max_value=120), min_size=1, max_size=5))
@settings(max_examples=60)
def test_mult_dim_matches_sympy_rank(values):
    a = FinSet(Fraction(v) for v in values)
    assert mult_dim(a).dimension == oracles.o_mult_dim(a.elements)


@given(
    st.sets(st.integers(min_value=1, max_value=60), min_size=1, max_size=4),
    st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6),
)
@settings(max_examples=40)
def test_mult_dim_dilation_invariant(values, q):
    a = FinSet(Fraction(v) for v in values)
    assert mult_dim(a).dimension == mult_dim(dilate(q, a)).dimension


@given(st.sets(st.integers(min_value=2, max_value=200), min_size=1, max_size=5))
@settings(max_examples=50)
def test_mult_dim_upper_bounds(values):
    a = FinSet(Fraction(v) for v in values)
    md = mult_dim(a)
    primes = exponent_matrix(a).primes
    assert md.dimension <= min(len(a) - 1, len(primes)) if primes else True


@given(
    st.sets(
        st.one_of(
            st.integers(min_value=1, max_value=300),
            st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=12),
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=60, deadline=None)
def test_mult_dim_basis_is_earliest_independent_differences(values):
    a = FinSet(Fraction(v) for v in values)
    md = mult_dim(a)
    assert list(md.basis) == oracles.o_mult_basis(a.elements)
    assert md.dimension == len(md.basis)


def test_mult_dim_interval_to_3000_is_prime_count():
    # every prime up to 3000 appears alone in its own difference row
    assert mult_dim(FinSet(range(1, 3001))).dimension == 430


_PRIMES_BELOW_200 = first_primes(46)
_PRIMES_BELOW_400 = first_primes(78)

mult_dim_sets = st.builds(
    lambda values, c, one: {c * Fraction(v) for v in values} | ({Fraction(1)} if one else set()),
    st.one_of(
        st.sets(st.integers(min_value=1, max_value=400), min_size=1, max_size=10),
        # every element has two prime factors, so no element is 1
        st.sets(
            st.lists(st.sampled_from(_PRIMES_BELOW_200), min_size=2, max_size=2, unique=True).map(math.prod),
            min_size=1,
            max_size=10,
        ),
        st.sets(
            st.fractions(min_value=Fraction(1, 40), max_value=40, max_denominator=40), min_size=1, max_size=10
        ),
        st.integers(min_value=1, max_value=10**6).map(lambda v: {v}),
    ),
    st.sampled_from([1, 2, 6, 30, Fraction(1, 12)]),
    st.booleans(),
)


@given(mult_dim_sets)
@example({Fraction(6 * k) for k in range(1, 13)})
@example({Fraction(k, 12) for k in range(1, 13)})
@example({Fraction(30 * p * q) for p, q in combinations(_PRIMES_BELOW_200[:6], 2)})
@example({Fraction(1), Fraction(3, 4), Fraction(9, 2)})
@example({Fraction(1)})
@example({Fraction(1, 12)})
@settings(max_examples=120, deadline=None)
def test_mult_dim_matches_the_oracles(values):
    """Common factors c*A, sets of products of two primes, sets holding 1,
    singletons and rationals: dimension, basis and projection are sympy's."""
    a = FinSet(values)
    md = mult_dim(a)
    assert md.dimension == oracles.o_mult_dim(a.elements)
    assert list(md.basis) == oracles.o_mult_basis(a.elements)
    assert md.projection == oracles.o_mult_projection(a.elements)


def test_mult_dim_reduce_calls_match_the_difference_rows(monkeypatch):
    # the free-column shortcut refuses as many rows without reducing them as
    # it did when mult_dim inserted the differences from the base row
    calls = []
    reduce = Echelon.reduce
    monkeypatch.setattr(Echelon, "reduce", lambda self, row: calls.append(row) or reduce(self, row))
    semiprimes = sorted(p * q for p, q in combinations(_PRIMES_BELOW_400, 2))[:300]
    for values, count in (
        (range(13, 513), 97),
        ([6 * k for k in range(1, 201)], 46),
        ([Fraction(k, 12) for k in range(1, 201)], 46),
        (semiprimes, 299),
    ):
        calls.clear()
        mult_dim(FinSet(values))
        assert len(calls) == count, values


def test_mult_dim_of_prime_chains_under_the_default_recursion_limit():
    # consecutive products chain every prime to the next one; the second
    # chain ties each pair to a third prime from the far end as well
    p = first_primes(2101)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert mult_dim(FinSet(p[i] * p[i + 1] for i in range(2000))).dimension == 1999
        assert mult_dim(FinSet(p[i] * p[i + 1] * p[2100 - i] for i in range(2000))).dimension == 1999
    finally:
        sys.setrecursionlimit(limit)


# --- the sparse echelon ---------------------------------------------------------------


rows_strategy = st.lists(
    st.dictionaries(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=-6, max_value=6),
        max_size=5,
    ),
    max_size=8,
)


def _dense(row, ncols=8):
    return [row.get(c, 0) for c in range(ncols)]


@given(rows_strategy)
@settings(max_examples=80, deadline=None)
def test_echelon_rank_and_pivot_columns_match_sympy(rows):
    echelon = Echelon()
    leads = [echelon.add(row) for row in rows]
    independent = [lead is not None for lead in leads]
    matrix = sympy.Matrix([_dense(r) for r in rows]) if rows else sympy.zeros(0, 8)
    assert sum(independent) == matrix.rank()
    assert sorted(echelon.pivots) == sorted(l for l in leads if l is not None)
    if rows:
        assert tuple(sorted(echelon.pivots)) == matrix.rref()[1]
    for lead, pivot in echelon.pivots.items():
        assert min(pivot) == lead and pivot[lead] > 0
        assert sympy.gcd(list(pivot.values())) == 1


@given(rows_strategy, st.dictionaries(
    st.integers(min_value=0, max_value=7), st.integers(min_value=-6, max_value=6), max_size=6
))
@settings(max_examples=80, deadline=None)
def test_echelon_reduce_stays_in_the_row_space(rows, row):
    echelon = Echelon()
    for r in rows:
        echelon.add(r)
    scale, residual = echelon.reduce(row)
    assert scale > 0
    assert not set(residual) & set(echelon.pivots)
    assert all(residual.values())
    # scale * row - residual is a combination of the inserted rows
    span = [_dense(r) for r in rows]
    moved = [scale * v - w for v, w in zip(_dense(row), _dense(residual))]
    base_rank = sympy.Matrix(span).rank() if span else 0
    assert sympy.Matrix(span + [moved]).rank() == base_rank
    # and the residual is zero exactly when the row was in the span
    assert (not residual) == (sympy.Matrix(span + [_dense(row)]).rank() == base_rank)


@given(st.lists(
    st.dictionaries(st.integers(0, 3), st.integers(-3, 3), max_size=4), max_size=8
))
@settings(max_examples=150, deadline=None)
def test_echelon_on_four_columns_matches_sympy_row_by_row(rows):
    """Four columns fill up after a few rows, so add often refuses a row
    without reducing it: each answer must still be sympy's."""
    echelon = Echelon()
    for i, row in enumerate(rows):
        lead = echelon.add(row)
        before = sympy.Matrix([_dense(r, 4) for r in rows[:i]]) if i else sympy.zeros(0, 4)
        grown = sympy.Matrix([_dense(r, 4) for r in rows[: i + 1]])
        assert (lead is None) == (grown.rank() == before.rank())
    if rows:
        matrix = sympy.Matrix([_dense(r, 4) for r in rows])
        assert len(echelon.pivots) == matrix.rank()
        assert tuple(sorted(echelon.pivots)) == matrix.rref()[1]


@given(st.lists(
    st.tuples(
        st.booleans(),
        st.dictionaries(st.integers(0, 5), st.integers(-4, 4), max_size=5),
    ),
    max_size=12,
))
@settings(max_examples=150, deadline=None)
def test_echelon_pivot_rows_stay_primitive_and_span_the_added_rows(ops):
    """reduce stores the pivot rows it cleans: after any mix of add and
    reduce calls, each is keyed by its smallest column, with a positive lead
    and content 1, and the stored rows span the rows that were added."""
    echelon = Echelon()
    added = []
    for is_add, row in ops:
        if is_add:
            echelon.add(row)
            added.append(_dense(row, 6))
        else:
            echelon.reduce(row)
        for lead, pivot in echelon.pivots.items():
            assert min(pivot) == lead and pivot[lead] > 0 and all(pivot.values())
            assert math.gcd(*pivot.values()) == 1
    rank = sympy.Matrix(added).rank() if added else 0
    stored = [_dense(r, 6) for r in echelon.pivots.values()]
    assert len(stored) == rank
    if stored:
        assert sympy.Matrix(added + stored).rank() == rank


def test_echelon_reduces_a_row_on_pivot_columns_while_a_column_is_free():
    # {0: 1} lies on the pivot column 0, but the pivot row also uses column 2,
    # which no pivot holds, so the row is independent with lead 2
    echelon = Echelon()
    assert echelon.add({0: 1, 2: 1}) == 0
    assert echelon.add({0: 1}) == 2
    assert echelon.pivots == {0: {0: 1, 2: 1}, 2: {2: 1}}
    assert echelon.add({0: 5, 2: -3}) is None


def test_mult_dim_of_an_interval_reduces_one_row_per_prime(monkeypatch):
    # each prime p <= 500 brings a new pivot; every composite's row lies on
    # the pivot columns of its smaller prime factors, all single-entry rows
    calls = []
    reduce = Echelon.reduce
    monkeypatch.setattr(Echelon, "reduce", lambda self, row: calls.append(row) or reduce(self, row))
    assert mult_dim(FinSet(range(1, 501))).dimension == 95
    assert len(calls) == sympy.primepi(500) == 95


# --- simple sums of exponent vectors ---------------------------------------------


def test_vector_simple_sum_count_identity_sample():
    # counting distinct subset sums of exponent vectors equals counting
    # distinct subset products of the elements themselves
    universe = [2, 3, 5, 6, 10, 15, 30]
    for tup in oracles.subsets(universe, 3):
        a = FinSet(Fraction(v) for v in tup)
        assert vector_simple_sum_count(a) == simple_closure(a, "product").size


def test_vector_simple_sum_count_examples():
    assert vector_simple_sum_count(fs(1, 2, 3, 6)) == 7
    assert vector_simple_sum_count(fs(2)) == 2
    assert vector_simple_sum_count(fs(1)) == 1
    assert vector_simple_sum_count(fs()) == 1


# composites sharing prime factors, so the coprime base has to split them
SHARED = (4, 6, 10, 12, 15, 18, 35, Fraction(4, 9), Fraction(12, 35), Fraction(9, 10), Fraction(5, 6))
P89, Q61 = 2**89 - 1, 2**61 - 1


@given(st.lists(st.integers(1, 60) | st.sampled_from([v for v in SHARED if v == int(v)]), max_size=9))
@settings(max_examples=150, deadline=None)
def test_vector_simple_sum_count_matches_oracle_on_integers(values):
    a = fs(*values)
    assert vector_simple_sum_count(a) == len(oracles.o_simple(a.elements, "product"))


@given(
    st.lists(
        st.builds(Fraction, st.integers(1, 40), st.integers(1, 40)) | st.sampled_from(SHARED),
        max_size=9,
    )
)
@settings(max_examples=150, deadline=None)
def test_vector_simple_sum_count_matches_oracle_on_rationals(values):
    a = fs(*values)
    assert vector_simple_sum_count(a) == len(oracles.o_simple(a.elements, "product"))


@pytest.mark.parametrize(
    "values, want",
    [
        ((P89, P89**2), 4),
        ((P89 * Q61, P89 * Q61**2, Q61), 7),
        ((Fraction(P89, Q61), Fraction(Q61**3, P89), 6), 8),
    ],
)
def test_vector_simple_sum_count_factors_nothing(monkeypatch, values, want):
    # p = 2^89 - 1 is a probable prime above the deterministic Miller-Rabin
    # range, and pq resists rho within the budget: no factoring is asked for
    def refuse(*args, **kwargs):
        raise AssertionError("factor_int was called")

    monkeypatch.setattr(arith, "factor_int", refuse)
    assert vector_simple_sum_count(fs(*values)) == want


@pytest.mark.parametrize(
    "values",
    [(1, 2, 3, 6), (2**1000, 3**1000, 6)],  # counted in a bitmask; in a set of ints
)
def test_vector_simple_sum_count_raises_exactly_above_the_cap(monkeypatch, values):
    a = fs(*values)
    want = len(oracles.o_simple(a.elements, "product"))
    monkeypatch.setenv("SUMPROD_BUDGET", str(want - 1))
    with pytest.raises(CapExceeded):
        vector_simple_sum_count(a)
    monkeypatch.setenv("SUMPROD_BUDGET", str(want))
    assert vector_simple_sum_count(a) == want


@pytest.mark.parametrize(
    "values, want",
    [((2**32000, 2), 4), ((3**32000 * 5, 15, 5**16000), 8)],
)
def test_vector_simple_sum_count_strips_high_powers_at_once(values, want):
    # a power b^e is stripped in O(log e) divisions, not in e of them
    start = time.perf_counter()
    assert vector_simple_sum_count(fs(*values)) == want
    assert time.perf_counter() - start < 0.2


def _plain_valuation(n, b):
    e = 0
    while n % b == 0:
        n //= b
        e += 1
    return e, n


@given(
    st.integers(2, 60) | st.sampled_from([4, 6, 12, 36, 210, 2**61 - 2]),
    st.integers(0, 10**4),
    st.integers(1, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_valuation_matches_the_plain_loop(b, e, m):
    n = b**e * m
    assert arith._valuation(n, b) == _plain_valuation(n, b)
    assert arith._valuation(1, b) == (0, 1)


def test_vector_simple_sum_count_raises_at_the_cap_at_once(monkeypatch):
    # 2^60 subset products; the cap is checked after every element
    monkeypatch.setenv("SUMPROD_BUDGET", "100")
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="needs 128 values, cap is 100"):
        vector_simple_sum_count(FinSet(first_primes(60)))
    assert time.perf_counter() - start < 1


# products of atoms that share factors, including ones that no budget factors
_atom_products = st.lists(
    st.sampled_from([2, 3, 6, 10, 15, 49, 2**40, 3**30, 6**20, P89, Q61, P89 * Q61]), max_size=4
).map(math.prod)


@given(st.lists(st.builds(Fraction, _atom_products, _atom_products) | st.integers(1, 10**6), max_size=10))
@settings(max_examples=150, deadline=None)
def test_coprime_base_is_pairwise_coprime_and_rebuilds_every_element(values):
    a = fs(*values)
    base, exponents = arith._coprime_exponents(a)
    assert list(base) == sorted(set(base))
    assert all(b > 1 for b in base)
    assert all(math.gcd(b, c) == 1 for b, c in combinations(base, 2))
    assert len(exponents) == a.size
    for value, exps in zip(a, exponents):
        assert set(exps) <= set(base) and all(exps.values())
        assert math.prod(Fraction(b) ** e for b, e in exps.items()) == value


def test_coprime_base_splits_shared_factors():
    assert arith._coprime_base([6, 10, 15]) == (2, 3, 5)
    assert arith._coprime_base([P89 * Q61, P89 * Q61**2, Q61]) == (Q61, P89)
    assert arith._coprime_base([12, 18]) == (2, 3)
    assert arith._coprime_base([1, 1]) == ()


# --- helpers ------------------------------------------------------------------------


def test_first_primes():
    assert first_primes(0) == ()
    assert first_primes(5) == (2, 3, 5, 7, 11)
    assert len(first_primes(100)) == 100
    assert first_primes(100)[-1] == 541


def test_radical():
    assert radical(1) == 1
    assert radical(12) == 6
    assert radical(2**10) == 2
    with pytest.raises(ValueError):
        radical(0)


# --- dimension vs near-extremal product sets ------------------------------------------


def test_small_product_set_forces_small_dimension():
    # whenever |A*A|/|A| squared stays below |A|, the dimension is at most that ratio
    universe = [Fraction(n) for n in range(1, 25)]
    checked = 0
    for tup in oracles.subsets(universe, 5, min_size=2):
        a = FinSet(tup)
        prods = {x * y for x in tup for y in tup}
        alpha = Fraction(len(prods), len(a))
        if alpha * alpha < len(a):
            checked += 1
            assert mult_dim(a).dimension <= alpha
    assert checked >= 10  # the hypothesis is actually exercised
