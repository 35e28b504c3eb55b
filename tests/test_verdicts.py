"""Interval enclosures, endpoint comparison, and verdict serialization."""

import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import MPContext

from sumprod import verdicts
from sumprod.verdicts import (
    Enclosure,
    RationalPower,
    Verdict,
    compare,
    exp_of,
    format_fraction_30,
    format_value,
    format_verdict_line,
    log_of,
    power_of,
    unmet,
    value_to_json,
    verdict_from_compare,
    verdict_to_json,
)

F = Fraction


# --- Enclosure arithmetic -----------------------------------------------------


def test_enclosure_basic():
    e = Enclosure(F(1, 3), F(1, 2))
    assert e.lo == F(1, 3) and e.hi == F(1, 2)
    assert e.mid == F(5, 12)
    assert e.width == F(1, 6)


def test_enclosure_rejects_inverted():
    with pytest.raises(ValueError):
        Enclosure(F(2), F(1))


def test_enclosure_add_sub():
    a = Enclosure(F(1), F(2))
    b = Enclosure(F(-1), F(3))
    assert (a + b).lo == F(0) and (a + b).hi == F(5)
    assert (a - b).lo == F(-2) and (a - b).hi == F(3)
    assert (5 + a).lo == F(6)
    assert (-a).lo == F(-2) and (-a).hi == F(-1)


def test_enclosure_mul_corner_hull():
    a = Enclosure(F(-2), F(3))
    b = Enclosure(F(-1), F(4))
    prod = a * b
    corners = [F(-2) * F(-1), F(-2) * F(4), F(3) * F(-1), F(3) * F(4)]
    assert prod.lo == min(corners) and prod.hi == max(corners)


def test_enclosure_division():
    a = Enclosure(F(1), F(2))
    b = Enclosure(F(2), F(4))
    q = a / b
    assert q.lo == F(1, 4) and q.hi == F(1)
    with pytest.raises(ZeroDivisionError):
        a / Enclosure(F(-1), F(1))
    assert (1 / b).lo == F(1, 4)


rats = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@given(rats, rats, rats, rats)
@settings(max_examples=60)
def test_enclosure_contains_pointwise_products(a, b, c, d):
    x = Enclosure(min(a, b), max(a, b))
    y = Enclosure(min(c, d), max(c, d))
    # any representatives of the two intervals have their product inside the hull
    prod = x * y
    for u in (x.lo, x.hi):
        for v in (y.lo, y.hi):
            assert prod.lo <= u * v <= prod.hi


# --- transcendental enclosures ---------------------------------------------------


def test_log_exp_enclose_known_points():
    l2 = log_of(F(2))
    assert F(6931471, 10**7) < l2.lo and l2.hi < F(6931472, 10**7)
    assert l2.width < F(1, 10**50)
    e1 = exp_of(F(1))
    assert F(27182818, 10**7) < e1.lo and e1.hi < F(27182819, 10**7)
    assert log_of(F(1)).lo <= 0 <= log_of(F(1)).hi


def test_log_requires_positive():
    with pytest.raises(ValueError):
        log_of(F(0))
    with pytest.raises(ValueError):
        log_of(F(-3))


def test_log_of_enclosure_monotone_hull():
    e = log_of(Enclosure(F(2), F(8)))
    assert e.lo < log_of(F(2)).hi and e.hi > log_of(F(8)).lo
    assert e.lo <= log_of(F(3)).lo and log_of(F(3)).hi <= e.hi


_MP600 = MPContext()
_MP600.prec = 600


def _mp600(fn_name, q):
    """fn(q), for an exact rational q, at 600 bits in an mpmath context of the
    test's own, as an exact fraction."""
    y = getattr(_MP600, fn_name)(_MP600.mpf(q.numerator) / q.denominator)
    sign, man, exp, _ = y._mpf_
    return (-1) ** sign * F(man) * F(2) ** exp


def _assert_certified(got, fn_name, q):
    """got contains the 600-bit value of fn(q) and is at most 2**-190 wide, relatively."""
    value = _mp600(fn_name, q)
    assert got.lo <= value <= got.hi, (fn_name, q)
    assert got.width <= abs(value) / 2**190, (fn_name, q)


def test_log_exp_of_enclosure_is_hull_of_point_enclosures():
    rng = random.Random(2004)
    for _ in range(300):
        lo = F(rng.randint(1, 10 ** rng.randint(1, 25)), rng.randint(1, 10**25))
        hi = lo + F(rng.randint(0, 10**6), rng.randint(1, 10 ** rng.randint(1, 30)))
        got = log_of(Enclosure(lo, hi))
        assert (got.lo, got.hi) == (log_of(lo).lo, log_of(hi).hi)
        for q in (lo, hi):
            _assert_certified(log_of(q), "log", q)
        lo = F(rng.randint(-300 * 10**6, 300 * 10**6), 10**6)
        hi = lo + F(rng.randint(0, 10**3), rng.randint(1, 10 ** rng.randint(1, 20)))
        got = exp_of(Enclosure(lo, hi))
        assert (got.lo, got.hi) == (exp_of(lo).lo, exp_of(hi).hi)
        for q in (lo, hi):
            _assert_certified(exp_of(q), "exp", q)


_TINY = F(1, 10**30)


@pytest.mark.parametrize(
    "q",
    [F(2, 3), F(2, 3) - _TINY, F(2, 3) + _TINY, F(4, 3), F(4, 3) - _TINY, F(4, 3) + _TINY,
     F(2) ** 1000, F(2) ** -1000, 1 + F(1, 2**300), 1 - F(1, 2**300), F(1), F(3, 2**40)],
    ids=["2/3", "2/3-", "2/3+", "4/3", "4/3-", "4/3+", "2^1000", "2^-1000",
         "1+2^-300", "1-2^-300", "1", "3/2^40"],
)
def test_log_of_worst_arguments(q):
    """The ends of the reduction to [2/3, 4/3], extreme exponents, and arguments
    next to 1, where ln q is tiny and only relative precision counts (ln 1 is
    the point 0)."""
    _assert_certified(log_of(q), "log", q)


_LN2 = _mp600("log", F(2))


@pytest.mark.parametrize(
    "x",
    [_LN2 / 2, -_LN2 / 2, _LN2, -_LN2, 3 * _LN2, F(200), F(-200), F(1, 10**40), F(0)],
    ids=["ln2/2", "-ln2/2", "ln2", "-ln2", "3ln2", "200", "-200", "1e-40", "0"],
)
def test_exp_of_worst_arguments(x):
    """Arguments at and next to the multiples of ln 2 that the reduction splits
    at, large ones of both signs (exp(-200) must keep its relative precision),
    and one next to 0."""
    _assert_certified(exp_of(x), "exp", x)


_WIDE_ARGUMENTS = [
    F(2**100000),
    F(3**200000, 2**317000 - 1),  # 317k bits over 317k bits, ln about -5.2
    F(1, 2**100000 + 7),
    F(5**60000 + 1, 2**139316),  # about 0.81, over a power of two
]


@pytest.mark.parametrize(
    "q", _WIDE_ARGUMENTS, ids=["2^100000", "3^200000/(2^317000-1)", "2^-100000", "5^60000/2^139316"]
)
def test_log_of_huge_operands_is_fast_and_certified(q, monkeypatch):
    """Operands far wider than the working precision are rounded by shifts
    before they meet the decimal module, whose conversion of them would be
    quadratic: every int handed to decimal is within _WIDE * (bits + 64)
    bits, and the enclosure contains ln q."""
    operands = _decimal_operands(monkeypatch)
    got = log_of(q)
    _assert_narrow_operands(operands)
    _assert_certified(got, "log", q)


@pytest.mark.parametrize(
    "x", [F(2**100000 + 1, 2**100001), F(3**200000, 2**317000 - 1), -F(3**200000, 2**316990 - 1)]
)
def test_exp_of_huge_operands_is_fast_and_certified(x, monkeypatch):
    operands = _decimal_operands(monkeypatch)
    got = exp_of(x)
    _assert_narrow_operands(operands)
    _assert_certified(got, "exp", x)


def _decimal_operands(monkeypatch):
    """A list that records, for each int handed to verdicts.Decimal, its bit
    length and _WIDE * (bits + 64) for the bits of the _bound call that
    handed it over.  A work measure, not a clock, so host load cannot fail it."""
    operands, bits_in_use = [], []
    bound, decimal = verdicts._bound, verdicts.Decimal

    def counting_bound(fn, x, up, bits):
        bits_in_use.append(bits)
        try:
            return bound(fn, x, up, bits)
        finally:
            bits_in_use.pop()

    def counting_decimal(value):
        operands.append((abs(value).bit_length(), verdicts._WIDE * (bits_in_use[-1] + 64)))
        return decimal(value)

    monkeypatch.setattr(verdicts, "_bound", counting_bound)
    monkeypatch.setattr(verdicts, "Decimal", counting_decimal)
    return operands


def _assert_narrow_operands(operands):
    assert operands
    assert all(width <= limit for width, limit in operands), operands


def _mp600_log1p(u, d):
    """ln(1 + u/d) at 600 bits, as an exact fraction."""
    y = _MP600.log1p(_MP600.mpf(u) / d)
    sign, man, exp, _ = y._mpf_
    return (-1) ** sign * F(man) * F(2) ** exp


@pytest.mark.parametrize("u", [1, -1], ids=["above", "below"])
def test_log_next_to_one_of_a_huge_argument_is_fast_and_certified(u):
    """(3**200000 + u) / 3**200000: ln q is about u * 3**-200000, and decimal
    would work to 317,000 more bits for it; the series bounds it at once,
    within the module docstring's 2**-(prec + 13), relatively."""
    d = 3**200000
    start = time.perf_counter()
    got = log_of(F(d + u, d))
    assert time.perf_counter() - start < 0.05
    value = _mp600_log1p(u, d)
    assert got.lo <= value <= got.hi
    assert got.width <= abs(value) / 2 ** (verdicts._PREC + 13)


def test_ln_next_to_one_by_its_series_meets_the_stated_bound():
    """The series kernel on both sides of 1, at precisions from below 0 to
    past the default, with each bound rounded toward its own side.  Over a
    power of two every term is a whole number of units, so no rounding
    slack hides a term too few or a missing tail."""
    rng = random.Random(25)
    cases = []
    for _ in range(300):
        prec = rng.choice([-18, 0, 13, 40, 200, 390])
        u = rng.choice([1, -1]) * rng.randint(1, 2**rng.randint(1, 40))
        extra = rng.choice([rng.randint(2, 30), rng.randint(2, 2000)])
        cases.append((u, rng.getrandbits(u.bit_length() + max(prec, 200) + extra) | 1, prec))
    for prec in (-18, 200, 390):
        for a in range(max(prec, 200) + 2, max(prec, 200) + 30):
            cases += [(u, 2**a, prec) for u in (1, -1, 3, -3)]
    for u, d, prec in cases:
        if d // abs(u) < 2 ** max(prec, 200):
            continue
        lo, hi = verdicts._ln_near_one(u, d, False, prec), verdicts._ln_near_one(u, d, True, prec)
        value = _mp600_log1p(u, d)
        assert lo <= value <= hi, (u, d, prec)
        assert hi - lo <= abs(value) / F(2) ** (prec + 13), (u, d, prec)


def test_huge_operands_keep_their_bounds_at_a_few_working_bits():
    """Rounding by shifts stays on the bound's side at low precision too."""
    rng = random.Random(23)
    for _ in range(40):
        n, d = (rng.getrandbits(rng.randint(3000, 9000)) + 1 for _ in range(2))
        q = F(n, d)
        prec = rng.randint(-18, 8)
        value = _mp600("log", q)
        assert verdicts._ln(q, False, prec) <= value <= verdicts._ln(q, True, prec), (q, prec)
        x = q - q.numerator // q.denominator  # in [0, 1), as _exp reduces it
        value = _mp600("exp", x)
        assert verdicts._exp(x, False, prec) <= value <= verdicts._exp(x, True, prec), (x, prec)


@pytest.mark.parametrize("prec", [0, 8, 40])
def test_ln_exp_kernels_meet_the_stated_bound_at_low_precision(prec):
    """The private kernels at low precision, where a bound rounded the wrong
    way or a missing guard bit shows: every bound holds, and each width stays
    within the verdicts docstring's 2**-(prec + 9) for ln and 2**-(prec + 12)
    for exp."""
    rng = random.Random(prec)
    for _ in range(150):
        q = F(rng.randint(1, 10 ** rng.randint(1, 30)), rng.randint(1, 10 ** rng.randint(1, 30)))
        x = F(rng.randint(-5 * 10**4, 5 * 10**4), rng.randint(1, 10))
        for fn, kernel, arg, margin in (("log", verdicts._ln, q, 9), ("exp", verdicts._exp, x, 12)):
            lo, hi = kernel(arg, False, prec), kernel(arg, True, prec)
            value = _mp600(fn, arg)
            assert lo <= value <= hi, (fn, arg)
            assert hi - lo <= abs(value) / 2 ** (prec + margin), (fn, arg)


def test_atanh_and_exp_kernels_bound_at_a_few_working_bits():
    """With one to four digits the slack of the other roundings no longer
    hides one step rounded the wrong way or a missing outward step."""
    rng = random.Random(1)
    for _ in range(3000):
        q, prec = F(rng.randint(1, 3000), rng.randint(1, 1000)), rng.randint(-18, 0)
        value = _mp600("log", q)
        assert verdicts._ln(q, False, prec) <= value <= verdicts._ln(q, True, prec), (q, prec)
    for _ in range(3000):
        x, prec = F(rng.randint(-3000, 3000), rng.randint(1, 1000)), rng.randint(-18, 0)
        value = _mp600("exp", x)
        assert verdicts._exp(x, False, prec) <= value <= verdicts._exp(x, True, prec), (x, prec)


@pytest.mark.parametrize(
    "x, prec",
    [(F(-5513, 3), 33), (F(-11833, 6), -17), (F(390205, 248), 13), (F(-840551, 454), 23),
     (F(30257, 263), -17), (F(-415024, 243), 13), (F(4447, 292), -17), (F(-952158, 493), 13)],
)
def test_exp_bounds_ln2_on_the_side_of_each_endpoint(x, prec):
    """Arguments at which ln 2 bounded on the wrong side of an endpoint (above
    it for the upper endpoint when k > 0) would leave exp x outside the bounds."""
    value = _mp600("exp", x)
    assert verdicts._exp(x, False, prec) <= value <= verdicts._exp(x, True, prec)


def test_exp_of_enclosure_spanning_zero():
    lo, hi = F(-1, 3), F(1, 2)
    got = exp_of(Enclosure(lo, hi))
    assert (got.lo, got.hi) == (exp_of(lo).lo, exp_of(hi).hi)
    assert got.lo < 1 < got.hi
    for x in (lo, hi):
        _assert_certified(exp_of(x), "exp", x)


def test_power_integer_exponent_exact():
    p = power_of(F(3, 2), 3)
    assert p.lo == p.hi == F(27, 8)
    p = power_of(F(2), -2)
    assert p.lo == p.hi == F(1, 4)


def test_power_integral_fraction_exponent_exact_bool_refused():
    for exponent in (F(6, 2), 3):
        assert power_of(F(2, 3), exponent) == Enclosure(F(8, 27), F(8, 27))
    for base, exponent in ((2, True), (True, 2), (F(2), False)):
        with pytest.raises(TypeError):
            power_of(base, exponent)


def test_power_fractional_exponent_encloses_root():
    p = power_of(2, F(1, 2))
    # contains sqrt(2)
    assert p.lo * p.lo <= F(2) <= p.hi * p.hi
    assert p.width < F(1, 10**40)


def test_power_of_an_enclosure_to_an_integer_takes_endpoint_powers(monkeypatch):
    def refuse(x):
        raise AssertionError("no exp or log for an integer power")

    monkeypatch.setattr(verdicts, "exp_of", refuse)
    monkeypatch.setattr(verdicts, "log_of", refuse)
    base = Enclosure(F(3, 2), F(5, 3))
    assert power_of(base, 4) == Enclosure(F(3, 2) ** 4, F(5, 3) ** 4)
    assert power_of(base, F(-3)) == Enclosure(F(3, 5) ** 3, F(2, 3) ** 3)
    assert power_of(base, -3) == Enclosure(F(3, 5) ** 3, F(2, 3) ** 3)


def test_power_of_an_enclosure_reaching_zero_is_refused():
    for base in (Enclosure(F(0), F(2)), Enclosure(F(-1), F(2))):
        with pytest.raises(ValueError):
            power_of(base, 2)


def test_power_zero_base():
    assert power_of(0, 3).lo == 0
    with pytest.raises(ValueError):
        power_of(0, F(1, 2))


@given(st.fractions(min_value=F(1, 8), max_value=40, max_denominator=10))
@settings(max_examples=40, deadline=None)
def test_exp_log_roundtrip(q):
    back = exp_of(log_of(q))
    assert back.lo <= q <= back.hi
    assert back.width / q < F(1, 10**40)


# --- comparison ------------------------------------------------------------------


def test_compare_exact_operands():
    assert compare(F(1), F(2), "<") == "true"
    assert compare(F(2), F(2), "<") == "false"
    assert compare(F(2), F(2), "<=") == "true"
    assert compare(3, 3, "==") == "true"
    assert compare(3, 4, ">=") == "false"


def test_compare_enclosures_clear_margin():
    lo = Enclosure(F(1), F(1) + F(1, 10**12))
    hi = Enclosure(F(2), F(2) + F(1, 10**12))
    assert compare(lo, hi, "<") == "true"
    assert compare(hi, lo, "<") == "false"
    assert compare(hi, lo, ">") == "true"


def test_compare_decides_a_margin_below_1e9():
    # ln(2^30 + 1) - ln(2^30) is about 9.3e-10; the enclosures still separate
    assert compare(log_of(2**30 + 1), log_of(2**30), ">") == "true"
    assert compare(log_of(2**30 + 1), log_of(2**30), "<=") == "false"


def test_compare_close_but_distinct_values_are_not_equal():
    assert compare(log_of(2**30 + 1), log_of(2**30), "==") == "false"
    assert compare(log_of(3) + F(1, 10**10), log_of(3), "==") == "false"


def test_compare_rejects_unknown_relation():
    with pytest.raises(ValueError):
        compare(F(1), F(2), "!=")
    # the relation is checked before either operand is converted
    for relation in ("<>", "=", "lt", ""):
        for lhs, rhs in ((F(1), F(2)), (None, "x"), (Enclosure(F(0), F(1)), 2.5)):
            with pytest.raises(ValueError, match="unknown relation"):
                compare(lhs, rhs, relation)


# The decision table compare must follow, written out case by case.
RELATIONS = ("<", "<=", ">", ">=", "==")
SWAPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}

# exact pairs: the status of "lhs REL rhs" by the sign of lhs - rhs
EXACT_TABLE = {
    "<": {-1: "true", 0: "false", 1: "false"},
    "<=": {-1: "true", 0: "true", 1: "false"},
    ">": {-1: "false", 0: "false", 1: "true"},
    ">=": {-1: "false", 0: "true", 1: "true"},
    "==": {-1: "false", 0: "true", 1: "false"},
}

# enclosures: the status of "lo REL hi" for an interval hi that starts at or
# beyond the end of the interval lo ("apart" or "touching"), or inside it
# ("overlapping"), and by whether both sides are points
ENDPOINT_TABLE = {
    ("apart", False): {"<": "true", "<=": "true", ">": "false", ">=": "false", "==": "false"},
    ("apart", True): {"<": "true", "<=": "true", ">": "false", ">=": "false", "==": "false"},
    ("touching", False): {"<": "inconclusive", "<=": "true", ">": "false",
                          ">=": "inconclusive", "==": "inconclusive"},
    ("touching", True): {"<": "false", "<=": "true", ">": "false", ">=": "true", "==": "true"},
    ("overlapping", False): dict.fromkeys(RELATIONS, "inconclusive"),
}

exact_values = st.one_of(
    st.integers(-10**6, 10**6), st.fractions(min_value=-50, max_value=50, max_denominator=60)
)
widths = st.fractions(min_value=F(1, 10**6), max_value=2, max_denominator=10**6)


@given(exact_values, exact_values, st.sampled_from(RELATIONS))
@settings(max_examples=300, deadline=None)
def test_compare_exact_pairs_follow_the_table(x, y, relation):
    sign = (x > y) - (x < y)
    assert compare(x, y, relation) == EXACT_TABLE[relation][sign]


@given(
    st.fractions(min_value=-100, max_value=100, max_denominator=1000),
    st.sampled_from(["apart", "touching", "overlapping"]),
    st.booleans(),
    widths,
    widths,
    widths,
    st.sampled_from(["above", "below"]),
    st.sampled_from([None, "lhs", "rhs"]),
    st.sampled_from(RELATIONS),
)
@settings(max_examples=400, deadline=None)
def test_compare_enclosures_follow_the_table(
    start, gap_kind, points, w_low, w_high, gap, side, exact_side, relation
):
    points = points and gap_kind != "overlapping"  # overlapping intervals have width
    if points:
        w_low = w_high = F(0)
    low = Enclosure(start, start + w_low)
    begin = {"apart": low.hi + gap, "touching": low.hi, "overlapping": low.hi - w_low / 2}
    high = Enclosure(begin[gap_kind], begin[gap_kind] + w_high)
    lhs, rhs = (low, high) if side == "above" else (high, low)
    if points and exact_side == "lhs":
        lhs = lhs.lo
    elif points and exact_side == "rhs":
        rhs = rhs.lo
    table = ENDPOINT_TABLE[gap_kind, points]
    want = table[relation] if side == "above" else table[SWAPPED[relation]]
    assert compare(lhs, rhs, relation) == want


HOLDS = {
    "<": lambda u, v: u < v,
    "<=": lambda u, v: u <= v,
    ">": lambda u, v: u > v,
    ">=": lambda u, v: u >= v,
    "==": lambda u, v: u == v,
}
grid = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def operands(draw):
    """An enclosure on a coarse grid, so that sides often touch or meet; a
    point is sometimes passed as its exact value."""
    lo, hi = sorted((draw(grid), draw(grid)))
    if lo == hi and draw(st.booleans()):
        return lo
    return Enclosure(lo, hi)


@given(operands(), operands(), st.sampled_from(RELATIONS))
@settings(max_examples=500, deadline=None)
def test_compare_status_is_a_proof(lhs, rhs, relation):
    """A true (false) status holds (fails) for every choice of values in the
    two intervals: at the four endpoint corner pairs, and at a common point
    when the intervals meet."""
    status = compare(lhs, rhs, relation)
    l, r = (x if isinstance(x, Enclosure) else Enclosure(x, x) for x in (lhs, rhs))
    pairs = [(u, v) for u in (l.lo, l.hi) for v in (r.lo, r.hi)]
    meet = max(l.lo, r.lo)
    if meet <= min(l.hi, r.hi):
        pairs.append((meet, meet))
    if status == "true":
        assert all(HOLDS[relation](u, v) for u, v in pairs)
    elif status == "false":
        assert not any(HOLDS[relation](u, v) for u, v in pairs)


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    widths,
    st.one_of(exact_values, operands()),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_compare_equality_with_a_wide_enclosure_is_never_true(start, width, other, wide_lhs):
    wide = Enclosure(start, start + width)
    lhs, rhs = (wide, other) if wide_lhs else (other, wide)
    assert compare(lhs, rhs, "==") != "true"


@pytest.mark.parametrize("bad", [True, False, 1.0, float("nan"), None, "1", "x"])
@pytest.mark.parametrize("relation", RELATIONS)
def test_compare_rejects_non_numbers(bad, relation):
    unit = Enclosure(F(0), F(1))
    for lhs, rhs in ((bad, 1), (1, bad), (bad, unit), (unit, bad)):
        with pytest.raises(TypeError):
            compare(lhs, rhs, relation)


# --- exact rational powers -----------------------------------------------------------


def _eager(coef, base, exponent):
    """The enclosure of coef * base**exponent, built as the enclosure path builds it."""
    return exp_of(log_of(base) * exponent) * coef


def test_power_fractional_exponent_is_exact_and_scales_exactly():
    p = power_of(36, F(-5, 3))
    assert isinstance(p, RationalPower) and isinstance(p, Enclosure)
    scaled = 4 * (p * 9) * F(1, 2)
    assert isinstance(scaled, RationalPower)
    assert (scaled.coef, scaled.base, scaled.exp) == (18, 36, F(-5, 3))
    # anything else reads it as an enclosure
    for other in (-2, 0, Enclosure(F(1), F(2))):
        assert not isinstance(p * other, RationalPower)
        assert p * other == _eager(1, 36, F(-5, 3)) * other


@pytest.mark.parametrize(
    "x, coef, base, exponent",
    [
        (32, 1, 16, F(5, 4)),
        (8, 1, 4, F(3, 2)),
        (F(8, 27), 1, F(4, 9), F(3, 2)),
        (4, 9, F(27, 8), F(-2, 3)),  # 9 * (8/27)^(2/3) = 9 * 4/9
        (F(1, 8), 1, 2, F(-12, 4)),  # an integral exponent gives a point
    ],
)
def test_compare_decides_exact_equality_of_a_rational_power(x, coef, base, exponent):
    v = power_of(base, exponent) * coef
    for lhs, rhs in ((x, v), (v, x)):
        assert compare(lhs, rhs, "==") == "true"
        assert compare(lhs, rhs, ">=") == "true"
        assert compare(lhs, rhs, "<=") == "true"
        assert compare(lhs, rhs, ">") == "false"
        assert compare(lhs, rhs, "<") == "false"
    # one unit in the last place either way is decided, and not equal
    for off in (F(1, 10**40), -F(1, 10**40)):
        assert compare(x + off, v, "==") == "false"
        assert compare(x + off, v, ">") == ("true" if off > 0 else "false")


def test_compare_decides_exact_operands_without_enclosures(monkeypatch):
    v = power_of(36, F(-7, 3)) * 100

    def refuse(*args):
        raise AssertionError("an enclosure was built")

    for name in ("_as_enclosure", "exp_of", "log_of"):
        monkeypatch.setattr(verdicts, name, refuse)
    assert compare(3, F(7, 2), "<") == "true"
    assert compare(F(7, 2), F(7, 2), "==") == "true"
    assert compare(1, v, ">") == "true" and compare(v, 1, ">=") == "false"


def test_compare_decides_what_the_enclosure_leaves_inconclusive():
    v = power_of(16, F(5, 4))
    assert compare(32, _eager(1, 16, F(5, 4)), ">=") == "inconclusive"
    assert compare(32, v, ">=") == "true"


def test_compare_falls_back_to_the_enclosure_past_the_bit_bound():
    v = power_of(15, F(10**7 + 1, 3))  # about 1.3e7 bits before the cube
    start = time.perf_counter()
    assert v._sign_below(10**6) is None
    assert compare(10**6, v, "<") == "true"
    assert compare(v, 10**6, "<=") == "false"
    assert time.perf_counter() - start < 5


def test_power_of_a_non_positive_base_with_a_fractional_exponent():
    for base in (0, -4, F(-1, 2)):
        with pytest.raises(ValueError):
            power_of(base, F(1, 2))


def test_rational_power_prints_as_its_enclosure():
    for coef, base, exponent in ((1, 36, F(-3, 2)), (1000**2, 36, F(-248083, 1000)), (7, F(5, 3), F(1, 7))):
        lazy, eager = power_of(base, exponent) * coef, _eager(coef, base, exponent)
        assert format_value(lazy) == format_value(eager)
        assert value_to_json(lazy) == value_to_json(eager)
        assert (lazy.lo, lazy.hi, lazy.mid, lazy.width) == (eager.lo, eager.hi, eager.mid, eager.width)
        assert 3 / lazy == 3 / eager and lazy + 1 == eager + 1


positive_rationals = st.one_of(
    st.integers(1, 400), st.fractions(min_value=F(1, 40), max_value=50, max_denominator=40)
)
fractional_exponents = st.fractions(min_value=-6, max_value=6, max_denominator=12).filter(
    lambda e: e.denominator > 1
)


@st.composite
def power_and_exact(draw):
    """A RationalPower and an exact value: near the power's enclosure, far from
    it, non-positive, or an exact power m**p of a base m**q."""
    coef, exponent = draw(positive_rationals), draw(fractional_exponents)
    kind = draw(st.sampled_from(["near", "far", "nonpositive", "equal"]))
    if kind == "equal":
        m = draw(st.integers(1, 9))
        base, p, q = m**exponent.denominator, exponent.numerator, exponent.denominator
        return coef, base, exponent, coef * F(m) ** p
    base = draw(positive_rationals)
    eager = _eager(coef, base, exponent)
    if kind == "near":
        return coef, base, exponent, eager.mid.limit_denominator(draw(st.integers(1, 10**6)))
    if kind == "far":
        return coef, base, exponent, eager.mid * draw(st.sampled_from([F(1, 3), F(3)]))
    return coef, base, exponent, -draw(st.fractions(min_value=0, max_value=5))


@given(power_and_exact(), st.booleans(), st.sampled_from(RELATIONS))
@settings(max_examples=400, deadline=None)
def test_exact_power_path_agrees_with_the_enclosure_path(case, exact_left, relation):
    """Wherever the enclosure path decides, the integer-power path gives the
    same status; it decides every case, == only for equal values."""
    coef, base, exponent, x = case
    lazy, eager = power_of(base, exponent) * coef, _eager(coef, base, exponent)
    assert isinstance(lazy, RationalPower)
    pair = (lambda v: (x, v)) if exact_left else (lambda v: (v, x))
    exact = compare(*pair(lazy), relation)
    enclosed = compare(*pair(eager), relation)
    assert exact in ("true", "false")
    if enclosed != "inconclusive":
        assert exact == enclosed


# --- Verdict objects ---------------------------------------------------------------


def test_verdict_status_consistency():
    for holds, met in (
        ("true", True),
        ("false", True),
        ("inconclusive", True),
        ("hypothesis-not-met", False),
    ):
        assert Verdict(name="x", lhs=F(1), rhs=F(2), holds=holds).hypothesis_met is met
    with pytest.raises(ValueError):
        Verdict(name="x", lhs=F(1), rhs=F(2), holds="maybe", witness={})


def test_verdict_from_compare_and_unmet():
    v = verdict_from_compare("demo", F(1), F(2), "<", {"k": 1})
    assert v.holds == "true" and v.hypothesis_met
    u = unmet("demo", None, F(2), {"reason": "empty"})
    assert u.holds == "hypothesis-not-met" and not u.hypothesis_met


# --- formatting and JSON --------------------------------------------------------------


def test_format_fraction_30_deterministic():
    s = format_fraction_30(F(1, 3))
    assert s.startswith("0.3333333333")
    assert len(s.split(".")[1]) <= 30
    assert format_fraction_30(F(2)) == "2"


def test_format_verdict_line_shape():
    v = verdict_from_compare("demo.check", 3, 4, "<", {"b": 2, "a": 1})
    line = format_verdict_line(v)
    assert line.startswith("demo.check true 3 4 ")
    # witness keys appear sorted
    assert line.index("a=1") < line.index("b=2")


def test_verdict_json_roundtrip_exact_values():
    v = verdict_from_compare(
        "demo.exact",
        F(1, 3),
        Enclosure(F(1), F(2)),
        "<",
        {"count": 7, "ratio": F(22, 7)},
    )
    blob = json.loads(json.dumps(verdict_to_json(v)))
    assert blob["name"] == "demo.exact"
    assert blob["holds"] == "true"
    assert blob["lhs"] == {"kind": "rat", "num": "1", "den": "3"}
    assert blob["rhs"]["kind"] == "real"
    assert blob["witness"]["ratio"] == {"kind": "rat", "num": "22", "den": "7"}
    assert blob["witness"]["count"] == {"kind": "int", "value": "7"}


def test_verdict_json_witness_key_order():
    v = verdict_from_compare("demo", 1, 2, "<", {"z": 1, "a": 2})
    keys = list(verdict_to_json(v)["witness"].keys())
    assert keys == sorted(keys)
