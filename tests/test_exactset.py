"""Set parsing, combination, closures, and restricted operations."""

import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sumprod.energy import WeightVector, energy, rep_counts, weighted_energy
from sumprod.exactset import (
    FinSet,
    PairGraph,
    _bit_positions,
    box_sum,
    combine,
    dilate,
    iterate,
    parse_set,
    parse_token,
    restricted_combine,
    simple_closure,
    sum_diff,
)
from sumprod.limits import CapExceeded, SetParseError


def fs(*values) -> FinSet:
    return FinSet(Fraction(v) for v in values)


# --- parsing ---------------------------------------------------------------


def test_parse_token_integers_and_fractions():
    assert parse_token("42") == Fraction(42)
    assert parse_token("-7") == Fraction(-7)
    assert parse_token("3/4") == Fraction(3, 4)
    assert parse_token("-10/6") == Fraction(-5, 3)
    assert parse_token("-0") == 0 and parse_token("+5") == 5 and parse_token("٣") == 3
    assert type(parse_token("4/6")) is Fraction


@pytest.mark.parametrize("bad", ["", "1.5", "3/0", "3/-2", "a", "1/2/3", "+ 1"])
def test_parse_token_rejects(bad):
    with pytest.raises(SetParseError):
        parse_token(bad)


def test_parse_set_skips_blanks_and_comments():
    text = "# header\n1\n\n2\n  # trailing comment\n3\n"
    s, dups = parse_set(text)
    assert s == fs(1, 2, 3)
    assert dups == 0


def test_parse_set_counts_duplicates():
    s, dups = parse_set("2\n4/2\n1\n")
    assert s == fs(1, 2)
    assert dups == 1
    s, dups = parse_set("-0\r\n+5\r\n\r\n# x\r\n4/6\r\n2/3\r\n0\r\n5/1\r\n")
    assert s == fs(0, Fraction(2, 3), 5)
    assert dups == 3


def test_parse_set_error_carries_line_number():
    with pytest.raises(SetParseError, match="line 3"):
        parse_set("1\n2\nx\n")


def test_round_trip_through_lines():
    s = fs(-3, Fraction(1, 2), 7)
    again, dups = parse_set(s.to_lines())
    assert again == s and dups == 0


def reference_parse(text):
    """parse_set through one Fraction per token: the set and the dropped count."""
    tokens = [t for t in map(str.strip, text.splitlines()) if t and not t.startswith("#")]
    values = [Fraction(t) for t in tokens]
    return FinSet(values), len(values) - len(set(values))


# small numerators and denominators, so that 4/6 and 2/3 or -0 and 0 collide
literals = st.builds(
    lambda sign, zeros, num, den: f"{sign}{'0' * zeros}{num}{f'/{den}' if den else ''}",
    st.sampled_from(["", "+", "-"]),
    st.integers(0, 2),
    st.one_of(st.integers(0, 12), st.integers(0, 10**30)),
    st.one_of(st.none(), st.integers(1, 12), st.integers(1, 10**20)),
)
set_file_lines = st.one_of(
    st.tuples(st.sampled_from(["", " ", "\t"]), literals, st.sampled_from(["", "  "])).map("".join),
    st.sampled_from(["", "   ", "# comment", "  # 1/0 in a comment"]),
)


@given(st.lists(set_file_lines, max_size=30), st.sampled_from(["\n", "\r\n"]))
@example(["-0", "+5", "# c", "4/6", "", " 2/3 ", "0", "10/15"], "\r\n")
def test_parse_set_matches_a_fraction_reference(lines, newline):
    text = newline.join(lines)
    assert parse_set(text) == reference_parse(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1\n2\nx\n", "line 3: not a rational literal: 'x'"),
        ("1\r\n\r\n3/0\r\n", "line 3: bad denominator in '3/0'"),
        ("# c\n1/-2\n", "line 2: bad denominator in '1/-2'"),
        ("  +1/02x\n", "line 1: not a rational literal: '+1/02x'"),
        ("3/", "line 1: bad denominator in '3/'"),
        ("2\n\n0/0", "line 3: bad denominator in '0/0'"),
        ("5\n1.5", "line 2: not a rational literal: '1.5'"),
        ("--1", "line 1: not a rational literal: '--1'"),
        ("+ 1", "line 1: not a rational literal: '+ 1'"),
        ("٣\n+٣/٤\n", "line 2: not a rational literal: '+٣/٤'"),
    ],
)
def test_parse_set_error_text_is_exact(text, message):
    with pytest.raises(SetParseError) as caught:
        parse_set(text)
    assert str(caught.value) == message


@given(
    st.sets(
        st.one_of(
            st.integers(-(10**30), 10**30),
            st.fractions(max_denominator=10**6),
            st.fractions(min_value=-3, max_value=3, max_denominator=12),
        ),
        max_size=20,
    )
)
def test_printed_elements_are_fraction_strings(values):
    a = FinSet(values)
    assert list(a._strings()) == [str(e) for e in a.elements]
    assert a.to_lines() == "\n".join(str(v) for v in sorted(values))
    assert parse_set(a.to_lines()) == (a, 0)


FULL_WORD = (1 << 64) - 1


def naive_positions(bits, start):
    return [start + i for i in range(bits.bit_length()) if bits >> i & 1]


@pytest.mark.parametrize(
    "bits",
    [
        0,
        1,
        FULL_WORD,
        (1 << 128) - 1,
        FULL_WORD - 1,
        FULL_WORD << 1,
        FULL_WORD << 64,
        (FULL_WORD << 64) | 1,
        ((1 << 128) - 1) ^ (1 << 64),
        (1 << 63) | (1 << 64) | (1 << 127) | (1 << 128),
        ((1 << 129) - 1) ^ (1 << 63),
        int("5" * 40, 16),
    ],
)
@pytest.mark.parametrize("start", [0, 7, -200])
def test_bit_positions_match_a_naive_scan(bits, start):
    assert list(_bit_positions(bits, start)) == naive_positions(bits, start)


@given(
    st.lists(
        st.one_of(st.sampled_from([0, FULL_WORD, 1, 1 << 63, FULL_WORD - 1]), st.integers(0, FULL_WORD)),
        max_size=6,
    ),
    st.integers(-100, 100),
)
def test_bit_positions_over_mixed_words(words, start):
    bits = sum(w << 64 * i for i, w in enumerate(words))
    assert list(_bit_positions(bits, start)) == naive_positions(bits, start)


# --- FinSet basics ---------------------------------------------------------


def test_finset_dedups_and_sorts():
    s = FinSet([Fraction(3), Fraction(1), Fraction(3)])
    assert s.elements == (Fraction(1), Fraction(3))
    assert len(s) == 2


def test_finset_coerces_ints_rejects_floats():
    assert FinSet([1, 2]) == fs(1, 2)
    with pytest.raises(TypeError):
        FinSet([0.5])


def test_finset_immutable():
    s = fs(1)
    with pytest.raises(AttributeError):
        s._ints = ()


def test_finset_membership_and_minmax():
    s = fs(5, -2, 3)
    assert Fraction(5) in s and Fraction(4) not in s
    assert s.min() == -2 and s.max() == 5


@given(
    st.sets(st.fractions(min_value=-10, max_value=10, max_denominator=8), max_size=8),
    st.one_of(
        st.integers(-12, 12),
        st.fractions(min_value=-10, max_value=10, max_denominator=16),
        st.floats(min_value=-10, max_value=10),
        st.sampled_from([0.5, -2.0, 0.125]),
    ),
)
def test_membership_matches_a_python_set(values, value):
    a = FinSet(values)
    assert (value in a) == (value in set(a.elements))


def test_membership_of_strings_and_other_objects():
    a = fs(0, Fraction(1, 2), 3)
    assert "1/2" in a and " 3 " in a and 0.5 in a
    for other in ("x", "1/3", None, [], b"3", 1j, float("nan")):
        assert other not in a


def test_finset_flags():
    assert fs(1, 2).is_positive and fs(1, 2).is_integer
    assert not fs(0, 1).is_positive
    assert not fs(Fraction(1, 2), 1).is_integer


# --- combine / iterate / dilate ---------------------------------------------


def test_combine_examples():
    assert combine(fs(1, 2), fs(10), "sum") == fs(11, 12)
    assert combine(fs(1, 2, 3), fs(1, 2, 3), "product") == fs(1, 2, 3, 4, 6, 9)


def test_combine_product_rejects_zero():
    with pytest.raises(ValueError):
        combine(fs(0, 1), fs(2), "product")


def test_iterate_matches_oracle_small():
    a = fs(1, 2, 5)
    for h in (1, 2, 3):
        for op in ("sum", "product"):
            got = set(iterate(a, h, op).elements)
            assert got == oracles.o_iterate(a.elements, h, op)


def test_iterate_h_must_be_positive():
    with pytest.raises(ValueError):
        iterate(fs(1), 0, "sum")


def test_dilate():
    assert dilate(Fraction(3), fs(1, 2)) == fs(3, 6)
    assert dilate(Fraction(-1, 2), fs(2, 4)) == fs(-2, -1)
    with pytest.raises(ValueError):
        dilate(Fraction(0), fs(1))


# --- closures ----------------------------------------------------------------


def test_simple_closure_examples():
    # all subset sums of {1,2,3,6}, empty subset included
    assert simple_closure(fs(1, 2, 3, 6), "sum").size == 13
    assert simple_closure(fs(1, 2, 3, 6), "product").size == 7
    assert simple_closure(fs(1), "sum") == fs(0, 1)
    assert simple_closure(fs(1), "product") == fs(1)


def test_simple_closure_matches_oracle_with_rationals():
    a = fs(Fraction(1, 2), 3, -2)
    for op in ("sum", "product"):
        got = set(simple_closure(a, op).elements)
        assert got == oracles.o_simple(a.elements, op)


def test_box_sum_examples():
    assert box_sum(fs(1), 2) == fs(0, 1, 2)
    got = set(box_sum(fs(1, 10), 2).elements)
    assert got == oracles.o_box((Fraction(1), Fraction(10)), 2)


def test_sum_diff_examples():
    assert sum_diff(fs(1, 2), 1, 1) == fs(-1, 0, 1)
    assert sum_diff(fs(1, 2), 2, 0) == fs(2, 3, 4)
    assert sum_diff(fs(3), 0, 0) == fs(0)


# --- sweep against oracles ----------------------------------------------------


def test_small_universe_sweep_all_ops():
    # negatives, rationals and wide spans, so that subset and box sums run
    # both as a bitmask and as a set of ints
    universe = [Fraction(n) for n in (-7, -1, 1, 2, 3, 9, 10**6, -(10**12))]
    universe += [Fraction(1, 3), Fraction(-5, 2)]
    for tup in oracles.subsets(universe, 3):
        a = FinSet(tup)
        assert set(combine(a, a, "sum").elements) == oracles.o_combine(tup, tup, "sum")
        assert set(combine(a, a, "product").elements) == oracles.o_combine(
            tup, tup, "product"
        )
        assert set(simple_closure(a, "sum").elements) == oracles.o_simple(tup, "sum")
        for h in range(4):
            assert set(box_sum(a, h).elements) == oracles.o_box(tup, h)
        assert set(sum_diff(a, 2, 1).elements) == oracles.o_sumdiff(tup, 2, 1)
        # spans up to 10^12 send the convolution to dicts, the rest packs it
        weights = [Fraction(j + 1, 3 - j % 2) for j in range(a.size)]
        by_elem = dict(zip(a.elements, weights))
        for h in range(1, 4):
            assert set(iterate(a, h, "sum").elements) == oracles.o_iterate(tup, h, "sum")
            assert rep_counts(a, h).as_dict() == oracles.o_rep_counts(tup, h)
            assert energy(a, h) == oracles.o_energy(tup, h)
            assert weighted_energy(a, WeightVector(weights), h) == (
                oracles.o_weighted_energy(tup, by_elem, h)
            )


# --- caps ---------------------------------------------------------------------


def test_env_budget_enforced(monkeypatch):
    monkeypatch.setenv("SUMPROD_BUDGET", "5")
    with pytest.raises(CapExceeded):
        combine(fs(1, 2, 3), fs(10, 20, 30), "sum")


def test_env_budget_invalid(monkeypatch):
    monkeypatch.setenv("SUMPROD_BUDGET", "zero")
    with pytest.raises(ValueError):
        combine(fs(1), fs(2), "sum")


# --- restricted operations -----------------------------------------------------


def test_pair_graph_constructors():
    a = fs(1, 2, 3)
    assert len(PairGraph.full(a).pairs) == 9
    assert len(PairGraph.diagonal(a).pairs) == 3
    g = PairGraph.from_value_pairs(a, [(Fraction(1), Fraction(3))])
    assert g.pairs == frozenset({(0, 2)})


def test_pair_graph_rejects_outside_values():
    a = fs(1, 2)
    with pytest.raises(SetParseError):
        PairGraph.from_value_pairs(a, [(Fraction(1), Fraction(5))])
    b = fs(Fraction(1, 2), Fraction(2, 3), 2)
    assert PairGraph.from_value_pairs(b, [(2, Fraction(1, 2))]).pairs == frozenset({(2, 0)})
    with pytest.raises(SetParseError, match=r"pair \(1/3, 2\)"):
        PairGraph.from_value_pairs(b, [(Fraction(1, 3), 2)])


def test_pair_graph_rejects_bad_indices():
    with pytest.raises(ValueError):
        PairGraph(ground=fs(1, 2), pairs=frozenset({(0, 2)}))


def test_restricted_combine_full_equals_combine():
    a = fs(2, 3, 5)
    full = PairGraph.full(a)
    assert restricted_combine(a, full, "sum") == combine(a, a, "sum")
    assert restricted_combine(a, full, "product") == combine(a, a, "product")


def test_restricted_combine_subgraph():
    a = fs(1, 2, 4)
    g = PairGraph(ground=a, pairs=frozenset({(0, 1), (2, 2)}))
    assert restricted_combine(a, g, "sum") == fs(3, 8)
    got = set(restricted_combine(a, g, "product").elements)
    assert got == oracles.o_restricted(a.elements, g.pairs, "product")


def test_restricted_combine_requires_same_ground():
    a, b = fs(1, 2), fs(1, 3)
    with pytest.raises(ValueError):
        restricted_combine(b, PairGraph.full(a), "sum")


# --- properties -----------------------------------------------------------------


rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
).filter(lambda q: q != 0)

small_sets = st.sets(rationals, min_size=1, max_size=5).map(FinSet)


@given(small_sets, small_sets)
def test_sumset_commutes(a, b):
    assert combine(a, b, "sum") == combine(b, a, "sum")


@given(small_sets, small_sets)
def test_product_set_commutes(a, b):
    assert combine(a, b, "product") == combine(b, a, "product")


@given(small_sets, small_sets)
def test_combine_size_bounds(a, b):
    s = combine(a, b, "sum")
    assert max(len(a), len(b)) <= len(s) <= len(a) * len(b)


@given(small_sets, rationals)
def test_dilation_equivariance(a, q):
    # q(A+A) == qA + qA, and likewise scaling one product factor
    qa = dilate(q, a)
    assert dilate(q, combine(a, a, "sum")) == combine(qa, qa, "sum")
    assert dilate(q, combine(a, a, "product")) == combine(qa, a, "product")


@given(small_sets)
@settings(max_examples=40)
def test_simple_sum_closure_contains_box_levels(a):
    closure = simple_closure(a, "sum")
    assert Fraction(0) in closure
    for e in a:
        assert e in closure


mixed_values = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.integers(min_value=-(10**12), max_value=10**12),
)


@given(st.sets(mixed_values, max_size=6), st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_subset_and_box_sums_match_oracle(values, h):
    a = FinSet(values)
    assert set(simple_closure(a, "sum").elements) == oracles.o_simple(a.elements, "sum")
    assert set(box_sum(a, h).elements) == oracles.o_box(a.elements, h)


def assert_canonical(result, want):
    """result holds exactly the values in want, in the form FinSet gives them."""
    again = FinSet(result.elements)
    assert result == again and hash(result) == hash(again)
    assert result.is_integer == all(e.denominator == 1 for e in result.elements)
    assert set(result.elements) == want and result.size == len(want)


signed_values = st.fractions(min_value=-6, max_value=6, max_denominator=6)
index_pairs = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=6)


def modular_graph(a, pairs):
    """A graph over a with the given index pairs taken modulo |a|."""
    n = a.size
    return PairGraph(a, frozenset((i % n, j % n) for i, j in pairs) if n else frozenset())


@given(
    st.sets(signed_values, max_size=4),
    st.sets(signed_values, max_size=3),
    signed_values.filter(bool),
    st.integers(min_value=1, max_value=3),
    index_pairs,
)
# {1/2, 3/2} + {1/2} = {1, 2} and 2 * {1/2, 3/2} = {1, 3} cancel the scale
@example({Fraction(1, 2), Fraction(3, 2)}, {Fraction(1, 2)}, Fraction(2), 1, [(0, 1), (1, 0)])
@settings(max_examples=60, deadline=None)
def test_every_set_result_is_canonical(values, other, q, h, pairs):
    a, b = FinSet(values), FinSet(other)
    e, f = a.elements, b.elements
    graph = modular_graph(a, pairs)
    text = "\n".join(f"{3 * x.numerator}/{3 * x.denominator}" for x in values)
    # products need nonzero elements
    na, nb = FinSet(x for x in values if x), FinSet(x for x in other if x)
    ne, nf = na.elements, nb.elements
    n_graph = modular_graph(na, pairs)
    results = [
        (combine(a, b, "sum"), oracles.o_combine(e, f, "sum")),
        (combine(na, nb, "product"), oracles.o_combine(ne, nf, "product")),
        (iterate(a, h, "sum"), oracles.o_iterate(e, h, "sum")),
        (iterate(na, h, "product"), oracles.o_iterate(ne, h, "product")),
        (simple_closure(a, "sum"), oracles.o_simple(e, "sum")),
        (simple_closure(na, "product"), oracles.o_simple(ne, "product")),
        (box_sum(a, h), oracles.o_box(e, h)),
        (box_sum(a, 0), {Fraction(0)}),
        (sum_diff(a, h, 1), oracles.o_sumdiff(e, h, 1)),
        (dilate(q, a), {q * x for x in e}),
        (restricted_combine(a, graph, "sum"), oracles.o_restricted(e, graph.pairs, "sum")),
        (
            restricted_combine(na, n_graph, "product"),
            oracles.o_restricted(ne, n_graph.pairs, "product"),
        ),
        (parse_set(text)[0], set(values)),
    ]
    for result, want in results:
        assert_canonical(result, want)


def test_subset_sums_of_a_wide_span_are_fast():
    start = time.perf_counter()
    assert simple_closure(fs(1, 10**7), "sum") == fs(0, 1, 10**7, 10**7 + 1)
    assert box_sum(fs(1, 10**12), 2).size == 9
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "values, h",
    [
        ((1, 2, 4, 8), 1),  # 16 sums in a 16-bit mask
        ((-3, Fraction(1, 2), 5), 2),  # a narrow mask after scaling and folding
        ((1, 10**6, 10**12), 1),  # too wide for a mask: a set of ints
        ((Fraction(1, 7), -(10**9)), 3),  # wide after scaling: a set of ints
        ((-(10**400), 1, 3), 2),  # a span no float can hold
    ],
)
def test_sum_kernels_raise_exactly_above_the_cap(monkeypatch, values, h):
    a = fs(*values)
    e = a.elements
    # iterate is asked for h + 1 >= 2 folds: one fold returns the set unchecked
    kernels = [
        (lambda: box_sum(a, h).size, oracles.o_box(e, h)),
        (lambda: combine(a, a, "sum").size, oracles.o_combine(e, e, "sum")),
        (lambda: iterate(a, h + 1, "sum").size, oracles.o_iterate(e, h + 1, "sum")),
        (lambda: sum_diff(a, h, 1).size, oracles.o_sumdiff(e, h, 1)),
        (lambda: len(rep_counts(a, h + 1).counts), oracles.o_iterate(e, h + 1, "sum")),
    ]
    if h == 1:
        kernels.append((lambda: simple_closure(a, "sum").size, oracles.o_simple(e, "sum")))
    for kernel, want in kernels:
        for budget, raises in ((len(want) - 1, True), (len(want), False)):
            monkeypatch.setenv("SUMPROD_BUDGET", str(budget))
            if raises:
                with pytest.raises(CapExceeded):
                    kernel()
            else:
                assert kernel() == len(want)
