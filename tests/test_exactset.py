"""Set parsing, combination, closures, and restricted operations."""

import random
import time
import tracemalloc
from collections import deque
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sumprod import exactset
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
from sumprod.extremal import f_value
from sumprod.limits import CapExceeded, SetParseError, check_size, set_size_cap_override, size_cap


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


# plain decimal lines: leading zeros, repeats from a small range, and
# non-ASCII decimal digits (Arabic-Indic three, fullwidth seven)
decimal_lines = st.one_of(
    st.builds(lambda zeros, v: "0" * zeros + str(v), st.integers(0, 2), st.integers(0, 12)),
    st.integers(0, 10**30).map(str),
    st.sampled_from(["٣", "７", "0٣"]),
)


def parse_line_by_line(text):
    """parse_set on the per-line path: a trailing comment line leaves the
    elements alone but is not decimal."""
    return parse_set(text + "\n# per line")


@given(st.lists(decimal_lines, max_size=30), st.sampled_from(["\n", "\r\n"]), st.booleans())
@example(["3", "1", "2", "3", "03", "٣"], "\r\n", True)
def test_parse_set_decimal_files_take_one_pass(lines, newline, trailing):
    text = newline.join(lines) + (newline if trailing and lines else "")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactset, "_parse_pair", None)  # the one-pass path reads no token alone
        fast = parse_set(text)
    assert fast == parse_line_by_line(text) == reference_parse(text)
    assert fast[0].is_integer


@given(
    st.lists(decimal_lines, max_size=12),
    st.sampled_from([" 5", "+5", "5 6", "1/2", "#x", ""]),
    st.integers(0, 12),
    st.sampled_from(["\n", "\r\n"]),
)
def test_parse_set_one_odd_line_goes_line_by_line(lines, odd, at, newline):
    at = min(at, len(lines))
    text = newline.join(lines[:at] + [odd] + lines[at:])
    if odd == "5 6":
        with pytest.raises(SetParseError) as caught:
            parse_set(text)
        assert str(caught.value) == f"line {at + 1}: not a rational literal: '5 6'"
    else:
        assert parse_set(text) == parse_line_by_line(text) == reference_parse(text)


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
    assert a._text() == "".join(f"{e}\n" for e in a.elements)
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


WINDOW_BITS = 8 * exactset._WINDOW


@pytest.mark.parametrize(
    "bits",
    [
        1 << WINDOW_BITS - 1,  # the last bit of the first window
        1 << WINDOW_BITS,  # the first bit of the second
        3 << WINDOW_BITS - 1,  # one bit on each side of the boundary
        (1 << WINDOW_BITS) - 1,  # one whole window of ones
        (1 << WINDOW_BITS + 64) - 1,  # a window of ones and one word more
        FULL_WORD << WINDOW_BITS - 32,  # an all-ones word across the boundary
        (1 << 3 * WINDOW_BITS + 5) | (1 << WINDOW_BITS // 2),  # an all-zero window between bits
        int("9" * 4000),  # over 1.6 windows of mixed bits
    ],
    ids=["last-of-first", "first-of-second", "both-sides", "full-window", "full-window+word",
         "ones-across", "zero-window-between", "mixed-wide"],
)
@pytest.mark.parametrize("start", [0, -5, -(10**20)])
def test_bit_positions_across_window_boundaries(bits, start):
    assert list(_bit_positions(bits, start)) == naive_positions(bits, start)


def test_bit_positions_expand_one_window_at_a_time():
    # a sparse mask of 64 KiB, 16 windows: all of it expanded to one byte per
    # bit would take 512 KiB, and the bin string as much again
    raw = bytearray(1 << 16)
    for s in random.Random(3).sample(range(1 << 19), 3000):
        raw[s >> 3] |= 1 << (s & 7)
    raw[-1] = 0x80
    bits = int.from_bytes(raw, "little")
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        deque(_bit_positions(bits), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the mask's own bytes once, and a quarter of its whole expansion at most
    assert peak < (1 << 16) + (1 << 17), peak


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
    for other in ("x", "1/3", None, [], b"3", 1j, float("nan"), float("inf"), float("-inf")):
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


def test_dilate_refuses_floats_as_finset_does():
    with pytest.raises(TypeError, match="floats are not exact") as refused:
        dilate(0.1, fs(1, 2, 3))
    with pytest.raises(TypeError) as finset_refused:
        FinSet([0.1])
    assert str(refused.value) == str(finset_refused.value)


# --- the row kernel ----------------------------------------------------------


ROW_SETS = [
    (5,),
    (0,),
    (Fraction(-3, 4),),
    (-7, -1, 0, 2, 10**12),
    (-(10**15), 3, 10**15),
    (Fraction(1, 3), Fraction(-5, 2), 7, 10**13),
    (1, 2, 4, 8, 10**9 + 7),
    (0, 1, Fraction(1, 2), -(10**9)),
    tuple(range(-3, 9)),
]


@pytest.mark.parametrize("left", ROW_SETS, ids=str)
@pytest.mark.parametrize("right", ROW_SETS[:6], ids=str)
def test_row_kernel_matches_the_oracle_on_equal_and_unequal_factors(left, right):
    """Sums and products of two sets, the same set twice (the triangle of
    rows) and two different sets (full rows), on both sides of the packed
    sum path: spans up to 10^15 leave the sums to the rows."""
    a, b = fs(*left), fs(*right)
    for x, y in ((a, a), (a, b), (b, a), (a, fs(*left))):
        ex, ey = x.elements, y.elements
        assert set(combine(x, y, "sum").elements) == oracles.o_combine(ex, ey, "sum")
        if 0 not in x and 0 not in y:
            got = combine(x, y, "product")
            assert set(got.elements) == oracles.o_combine(ex, ey, "product")
            assert got == FinSet(got.elements)  # canonical: sorted, lowest scale
    for h in (2, 3):
        assert set(iterate(a, h, "sum").elements) == oracles.o_iterate(a.elements, h, "sum")
        if 0 not in a:
            got = iterate(a, h, "product")
            assert set(got.elements) == oracles.o_iterate(a.elements, h, "product")


@given(
    st.sets(
        st.one_of(
            st.integers(-50, 50),
            st.integers(-(10**14), 10**14),
            st.fractions(min_value=-30, max_value=30, max_denominator=9),
        ),
        min_size=1,
        max_size=7,
    ),
    st.integers(0, 3),
)
@settings(max_examples=150, deadline=None)
def test_row_kernel_property_against_the_oracle(values, tail):
    a = FinSet(values)
    b = FinSet(list(values)[:tail] or [Fraction(1, 7)])
    e = a.elements
    assert set(combine(a, a, "sum").elements) == oracles.o_combine(e, e, "sum")
    assert set(combine(a, b, "sum").elements) == oracles.o_combine(e, b.elements, "sum")
    assert set(sum_diff(a, 2, 1).elements) == oracles.o_sumdiff(e, 2, 1)
    if 0 not in a:
        assert set(combine(a, a, "product").elements) == oracles.o_combine(e, e, "product")
        assert set(combine(a, b, "product").elements) == oracles.o_combine(e, b.elements, "product")
    if a.is_integer and a.is_positive:
        both = oracles.o_combine(e, e, "sum") | oracles.o_combine(e, e, "product")
        assert f_value(a) == len(both)


def _triangle_refusal(values, op, cap):
    """The size at which rows i = 0, 1, ... of a_i o a_j, j >= i, first pass
    the cap, by a plain loop; None when they never do."""
    seen = set()
    for i, x in enumerate(values):
        seen.update(x + y if op == "sum" else x * y for y in values[i:])
        if len(seen) > cap:
            return len(seen)
    return None


@pytest.mark.parametrize("op", ["sum", "product"])
def test_combine_of_a_set_with_itself_is_refused_within_one_row_of_the_cap(monkeypatch, op):
    values = sorted(random.Random(11).sample(range(1, 10**9), 300))
    a = FinSet(values)
    for cap in (299, 300, 1000, 4321):
        monkeypatch.setenv("SUMPROD_BUDGET", str(cap))
        count = _refused_count(lambda: combine(a, a, op))
        # each unordered pair once, so row i adds at most 300 - i values
        assert cap < count <= cap + 300
        assert count == _triangle_refusal(values, op, cap)
    want = oracles.o_combine(values, values, op)
    monkeypatch.setenv("SUMPROD_BUDGET", str(len(want)))
    assert set(combine(a, a, op).elements) == want


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


# --- the packed convolution --------------------------------------------------


def naive_convolution(factors):
    out = {0: 1}
    for f in factors:
        grown = {}
        for u, cu in out.items():
            for v, cv in f.items():
                grown[u + v] = grown.get(u + v, 0) + cu * cv
        out = grown
    return out


def convolved(factors):
    """exactset._convolve's nonzero terms as a dict; it may also return zeros."""
    exponents, counts = exactset._convolve(factors, "test")
    return {e: c for e, c in zip(exponents, counts) if c}


@pytest.mark.parametrize(
    "weights, h, width",
    [
        ((1, 1, 1, 1), 2, 0),
        ((255,), 1, 0),  # the largest count one byte holds
        ((256,), 1, 1),
        ((255, 1), 2, 1),  # 255 * 256 needs a second byte
        ((256, 3), 2, 2),
        ((256, 255, 1), 3, 2),
        ((65536, 7), 1, 2),
        ((65536, 65535, 1), 3, 3),
        ((2**40, 1), 1, 3),
        ((2**40, 1), 2, None),  # past 8 bytes: the dict path
    ],
)
def test_packed_counts_unpack_at_every_slot_width(weights, h, width):
    """Every slot width, 1, 2, 4 and 8 bytes, packed and read back, against
    a plain dict convolution and the oracles; the weights sit at and past
    the largest count of each width (255, 256, 65,536 and more).  The width
    is sized from max(f) * total**(h - 1), a bound on the largest count."""
    values = [-4, 0, 3, 17, 40][: len(weights)]
    a = FinSet(values)
    factor = dict(zip(a._ints, weights))
    assert exactset._slot_width([factor] * h, size_cap()) == width
    assert convolved([factor] * h) == naive_convolution([factor] * h)
    by_elem = {Fraction(v): Fraction(w) for v, w in zip(values, weights)}
    got = weighted_energy(a, WeightVector(tuple(by_elem[x] for x in a.elements)), h)
    assert got == oracles.o_weighted_energy(a.elements, by_elem, h)


def slot_width_reference(factors, cap):
    """_slot_width as first written, with prod(totals) taken once per factor."""
    slots = 1 + sum(max(f) - min(f) for f in factors)
    totals = [sum(f.values()) for f in factors]
    top = min((max(f.values()) * prod(totals) // t for f, t in zip(factors, totals)), default=1)
    k = ((top.bit_length() - 1) // 8).bit_length()
    cost = 3 ** ((slots << k) // 8).bit_length()
    return k if k <= 3 and exactset._packs(cost, prod(map(len, factors)), cap) else None


def test_slot_width_matches_its_reference_on_repeated_and_mixed_factors():
    """Every width and the dict path, on one factor repeated up to 80 times
    (past 8 bytes) and on mixed weighted factors, under the default cap and a
    small one."""
    rng = random.Random(26)
    pool = [
        {0: 1, 1: 1},
        dict.fromkeys(range(-3, 40, 3), 1),
        {-4: 255, 0: 1, 17: 3},
        {5: 2**20, 6: 7},
        dict.fromkeys(rng.sample(range(10**6), 30), 1),
    ]
    seen = set()
    for cap in (size_cap(), 50):
        assert exactset._slot_width([], cap) == slot_width_reference([], cap)
        for f in pool:
            for h in (1, 2, 3, 7, 17, 34, 80):
                want = slot_width_reference([f] * h, cap)
                assert exactset._slot_width([f] * h, cap) == want, (f, h, cap)
                seen.add(want)
        for _ in range(200):
            factors = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
            want = slot_width_reference(factors, cap)
            assert exactset._slot_width(factors, cap) == want, (factors, cap)
            seen.add(want)
    assert seen == {0, 1, 2, 3, None}


_small_fractions = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@given(st.lists(st.lists(_small_fractions, max_size=6), min_size=3, max_size=3),
       st.lists(st.integers(min_value=0, max_value=2), max_size=3))
@settings(max_examples=300, deadline=None)
@example([[0, Fraction(-3, 2)], [Fraction(4, 9), 6], []], [0, 1])
@example([[Fraction(2, 3), Fraction(4, 3)], [Fraction(-6, 5)], []], [0, 0, 1])
@example([[Fraction(1, 2), Fraction(3, 2)], [2, 4], []], [0, 1, 2])
@example([[Fraction(1, 2), Fraction(3, 2)], [2, 4], []], [])
def test_productset_takes_its_common_factor_from_the_factors(pool, picks):
    """_productset's scale and ints equal those that a gcd over every product
    gives, with 0, negatives, an empty factor, repeated factors and 0 to 3
    factors."""
    sets = [FinSet(pool[i]) for i in picks]
    got = exactset._productset(sets, "test")
    scale = prod(s._scale for s in sets)
    products = {prod(t) for t in product(*(s._ints for s in sets))}
    g = gcd(scale, *products)
    assert got._scale == scale // g
    assert got._ints == tuple(sorted(v // g for v in products))
    assert set(got) == {prod(t, start=Fraction(1)) for t in product(*sets)}


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_packed_representation_counts_match_the_oracle(h):
    # 1..12 for h = 4 has counts above 256, so the slots take two bytes
    a = FinSet(range(1, 13))
    counts = rep_counts(a, h).as_dict()
    assert counts == oracles.o_rep_counts(a.elements, h)
    assert energy(a, h) == oracles.o_energy(a.elements, h)


# --- caps ---------------------------------------------------------------------


def test_env_budget_enforced(monkeypatch):
    monkeypatch.setenv("SUMPROD_BUDGET", "5")
    with pytest.raises(CapExceeded):
        combine(fs(1, 2, 3), fs(10, 20, 30), "sum")


def test_cap_message_names_any_count(monkeypatch):
    monkeypatch.setenv("SUMPROD_BUDGET", "1000")
    printable = 10**4299  # 4300 digits, the most Python prints by default
    with pytest.raises(CapExceeded) as refused:
        check_size(printable, "test")
    assert str(refused.value) == f"test needs {printable} values, cap is 1000"
    with pytest.raises(CapExceeded) as refused:
        check_size(10**5000, "test")
    assert str(refused.value) == "test needs at least 2^16609 values, cap is 1000"


def test_full_pair_graph_checks_the_cap_first(monkeypatch):
    monkeypatch.setenv("SUMPROD_BUDGET", "1000")
    with pytest.raises(CapExceeded, match="full pair graph needs 10000 values, cap is 1000"):
        PairGraph.full(FinSet(range(1, 101)))


def _refused_count(call) -> int:
    with pytest.raises(CapExceeded) as refused:
        call()
    return int(str(refused.value).split(" needs ")[1].split()[0])


def test_product_and_restricted_sets_refuse_as_they_grow(monkeypatch):
    # 200 distinct ints have about 20,100 distinct pairwise sums and products;
    # the refusal comes at the first row (or pair) past the cap, not at the
    # end, so its count stays below the cap plus one row of 200
    a = FinSet(random.Random(7).sample(range(1, 10**9), 200))
    full = PairGraph.full(a)
    monkeypatch.setenv("SUMPROD_BUDGET", "1000")
    assert _refused_count(lambda: combine(a, a, "product")) < 1200
    assert _refused_count(lambda: iterate(a, 2, "product")) < 1200
    assert _refused_count(lambda: combine(a, a, "sum")) < 1200
    assert _refused_count(lambda: sum_diff(a, 1, 1)) < 1200
    assert _refused_count(lambda: energy(a, 2)) < 1200
    assert _refused_count(lambda: f_value(a)) < 1200
    assert _refused_count(lambda: restricted_combine(a, full, "product")) == 1001
    assert _refused_count(lambda: restricted_combine(a, full, "sum")) == 1001
    # a sparse box sum goes by rows: the first factor's 601 values, then a
    # row of 601 sums at a time
    assert _refused_count(lambda: box_sum(FinSet([10**12, 3 * 10**12 + 7]), 600)) < 2000


def test_product_set_refuses_a_first_factor_past_the_cap_with_its_size(monkeypatch):
    a, b = FinSet(range(1, 201)), fs(1, 3)
    monkeypatch.setenv("SUMPROD_BUDGET", "100")
    assert _refused_count(lambda: combine(a, b, "product")) == 200
    # a later factor still grows row by row, here two values a row
    assert _refused_count(lambda: combine(b, a, "product")) == 102


def test_env_budget_invalid(monkeypatch):
    monkeypatch.setenv("SUMPROD_BUDGET", "zero")
    with pytest.raises(ValueError):
        combine(fs(1), fs(2), "sum")


# --- restricted operations -----------------------------------------------------


def test_pair_graph_constructors():
    a = fs(1, 2, 3)
    assert len(PairGraph.full(a).pairs) == 9
    assert len(PairGraph.diagonal(a).pairs) == 3


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


# --- the sum kernel ----------------------------------------------------------


def folded(values, h):
    """The h-fold sums of values, {0} for h = 0, by o_combine one fold at a
    time: o_iterate's |A|^h tuples are too many at h = 20."""
    return reduce(lambda sums, _: oracles.o_combine(sums, values, "sum"), range(h), {Fraction(0)})


def box_oracle(values, h):
    """Sums of c_i * v_i with every c_i in 0..h, by o_combine over one set
    {0, v, ..., hv} per v: o_box's (h + 1)^|A| tuples are too many at h = 20."""
    factors = [{c * v for c in range(h + 1)} for v in values]
    return reduce(lambda sums, f: oracles.o_combine(sums, f, "sum"), factors, {Fraction(0)})


@given(
    st.sets(mixed_values, max_size=3),
    st.sets(mixed_values, max_size=4),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=2),
    st.sampled_from([1, 2, 7, 60, 500, 10**7]),
)
# 12 values at h = 20: the count bound 12^19 is past 2^64, which 8-byte count
# slots, the widest that sum sets once took, cannot hold
@example(set(range(12)), {-1, Fraction(1, 2)}, 20, 2, 10**7)
@example(set(range(-6, 6)), set(), 13, 1, 150)
@example({0, 1}, set(), 20, 2, 10**7)
@example({-(10**12), 0, Fraction(7, 3)}, {1}, 20, 2, 60)
@settings(max_examples=150, deadline=None)
def test_sum_kernels_match_the_oracles_or_refuse_past_the_cap(values, other, h, l, cap):
    """combine, iterate, sum_diff, simple_closure and box_sum against the
    oracles, with h up to 20, negatives, 0, rationals and wide spans, under
    caps from 1 up.  Adding a nonempty set never shrinks a sum set, so a
    kernel refuses exactly when the oracle's set passes the cap; a sum with
    an empty set is empty, and never refused."""
    a, b = FinSet(values), FinSet(other)
    e, f, negated = a.elements, b.elements, [-x for x in a]
    fold = max(h, 2)  # one fold returns the set itself, never checked
    kernels = [
        (lambda: combine(a, b, "sum"), oracles.o_combine(e, f, "sum")),
        (lambda: iterate(a, fold, "sum"), folded(e, fold)),
        (lambda: sum_diff(a, h, l), oracles.o_combine(folded(e, h), folded(negated, l), "sum")),
        (lambda: simple_closure(a, "sum"), oracles.o_simple(e, "sum")),
        (lambda: box_sum(a, h), box_oracle(e, h)),
    ]
    set_size_cap_override(cap)
    try:
        for kernel, want in kernels:
            if len(want) > cap:
                with pytest.raises(CapExceeded):
                    kernel()
            else:
                assert_canonical(kernel(), want)
    finally:
        set_size_cap_override(None)


class _RowsCalled(Exception):
    pass


def _takes_the_mask(monkeypatch, factors) -> bool:
    """Whether exactset._sums builds the sums of factors as a bitmask; the
    rows are never built, since _rows is replaced by a stub that raises."""

    def rows(*args):
        raise _RowsCalled

    monkeypatch.setattr(exactset, "_rows", rows)
    try:
        return isinstance(exactset._sums(factors, "test")[1], int)
    except _RowsCalled:
        return False


def test_sum_kernel_takes_the_mask_for_dense_sets(monkeypatch):
    rng = random.Random(30)
    assert _takes_the_mask(monkeypatch, [tuple(range(1, 501))] * 2)
    assert _takes_the_mask(monkeypatch, [tuple(sorted(rng.sample(range(1000), 50)))] * 100)
    assert _takes_the_mask(monkeypatch, [(0, 1)] * 10**4)
    assert _takes_the_mask(monkeypatch, exactset._box_factors(range(-40, 41), 3))
    # 20,000 values below 10^6 make 4 * 10^8 row inserts, past the cap, but at
    # most 2 * 10^6 + 1 sums, so _rows could not stop early at the cap
    assert _takes_the_mask(monkeypatch, [tuple(sorted(rng.sample(range(10**6), 20000)))] * 2)


def test_sum_kernel_takes_the_rows_for_sparse_sets(monkeypatch):
    rng = random.Random(31)
    # 30 equal factors of 2 values have 31 sums, not a 3 * 10^8-bit span
    assert not _takes_the_mask(monkeypatch, [(1, 10**7)] * 30)
    assert not _takes_the_mask(monkeypatch, [tuple(sorted(rng.sample(range(10**7), 2000)))] * 2)
    assert not _takes_the_mask(monkeypatch, exactset._box_factors((1, 10**12), 10**8))
    # 30 halvings of a 10^9-bit mask pass no row count, but the mask would
    # span more than 64 bits per value the cap allows
    assert not _takes_the_mask(monkeypatch, exactset._box_factors((1,), 10**9))


def test_iterate_of_50_ints_at_h_100_is_fast():
    a = FinSet(random.Random(32).sample(range(1000), 50))
    start = time.perf_counter()
    got = iterate(a, 100, "sum")
    assert time.perf_counter() - start < 3
    assert got == combine(iterate(a, 60, "sum"), iterate(a, 40, "sum"), "sum")
    assert got.min() == 100 * a.min() and got.max() == 100 * a.max()


def test_iterate_of_0_and_1_at_h_10000_is_fast():
    start = time.perf_counter()
    got = iterate(fs(0, 1), 10**4, "sum")
    assert time.perf_counter() - start < 3
    assert got == FinSet(range(10**4 + 1))


def test_sparse_box_sum_with_a_huge_h_refuses_at_once():
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="^box sum needs 100000001 values, cap is 10000000$"):
        box_sum(FinSet([1, 10**12]), 10**8)
    # 0's factor {0} is the shortest, and the rows start from the longest
    with pytest.raises(CapExceeded, match="^box sum needs 100000001 values, cap is 10000000$"):
        box_sum(FinSet([0, 1, 10**12]), 10**8)
    assert time.perf_counter() - start < 3
