"""Representation counts, additive energy, and layer decompositions."""

import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sumprod.energy import (
    WeightVector,
    energy,
    layer_inequality_check,
    layer_partition,
    quadrature_energy,
    rep_counts,
    tail_monotonicity_check,
    weighted_energy,
)
from sumprod import exactset
from sumprod.exactset import FinSet, dilate
from sumprod.limits import CapExceeded, size_cap


def fs(*values) -> FinSet:
    return FinSet(Fraction(v) for v in values)


int_sets = st.sets(
    st.integers(min_value=1, max_value=24), min_size=1, max_size=4
).map(lambda vs: FinSet(Fraction(v) for v in vs))


# --- representation counts -----------------------------------------------------


def test_rep_counts_example():
    rc = rep_counts(fs(1, 2, 3), 2)
    assert rc.as_dict() == {
        Fraction(2): 1,
        Fraction(3): 2,
        Fraction(4): 3,
        Fraction(5): 2,
        Fraction(6): 1,
    }
    assert rc.total() == 9
    assert rc.energy() == 19


def test_rep_counts_matches_oracle():
    a = fs(1, 2, 5, 11)
    for h in (1, 2, 3):
        got = rep_counts(a, h).as_dict()
        want = oracles.o_rep_counts(a.elements, h)
        assert got == {Fraction(k): v for k, v in want.items()}


# --- energy ---------------------------------------------------------------------


def test_energy_frozen_values():
    assert energy(fs(1, 2, 3), 2) == 19
    assert energy(fs(1, 2, 3, 6), 2) == 32
    assert energy(fs(2, 4, 8), 2) == 15
    for h in (1, 2, 3):
        assert energy(fs(), h) == oracles.o_energy((), h) == 0
        assert rep_counts(fs(), h).counts == ()
        assert weighted_energy(fs(), WeightVector(()), h) == 0


def test_energy_paths_agree_with_oracle():
    a = fs(1, 3, 4, 9)
    for h in (2, 3):
        assert energy(a, h) == oracles.o_energy(a.elements, h)


def test_energy_rational_elements():
    a = fs(Fraction(1, 2), Fraction(3, 2), 2)
    assert energy(a, 2) == oracles.o_energy(a.elements, 2)


def test_counts_past_64_bits():
    # every count of (X + X^2)^70 is a binomial coefficient, the middle one > 2^64
    assert energy(fs(1, 2), 70) == comb(140, 70)
    row = rep_counts(fs(0, 1), 70).as_dict()
    assert row == {Fraction(k): comb(70, k) for k in range(71)}


@pytest.mark.parametrize("n", [255, 256])
def test_counts_at_the_byte_boundary(n):
    # the largest count of {0..n-1} at h = 2 is n: one byte holds 255, not 256
    a = FinSet(range(n))
    counts = rep_counts(a, 2).as_dict()
    assert max(counts.values()) == n
    assert counts == oracles.o_rep_counts(a.elements, 2)
    assert energy(a, 2) == oracles.o_energy(a.elements, 2)


@pytest.mark.parametrize(
    "values, h, width",
    [
        ((1, 2, 5, 9), 2, 0),
        (tuple(range(1, 13)), 4, 1),  # counts past 255
        ((0, 1), 17, 2),  # the count bound is 2**16
        ((0, 1), 34, 3),  # the count bound is 2**33
        ((0, 1), 70, None),  # past 8 bytes: the dict path
        ((1, 10**9, 10**12), 3, None),  # a sparse span: the dict path
        ((-7, 0, Fraction(1, 3), 4), 3, 0),
    ],
)
def test_energy_matches_the_oracle_at_every_slot_width(values, h, width):
    """energy sums the squares of the packed slots, zeros included, or of the
    dict's counts.  {0, 1} at h = 34 and 70 is past what the oracle can
    enumerate, and there its rep counts are binomial: E_h = C(2h, h)."""
    a = FinSet(values)
    assert exactset._slot_width([dict.fromkeys(a._ints, 1)] * h, size_cap()) == width
    want = comb(2 * h, h) if h > 20 else oracles.o_energy(a.elements, h)
    assert energy(a, h) == want


@pytest.mark.parametrize(
    "values, h, cap, needs",
    [
        # packed: the 52 nonzero slots of 123, one per distinct sum
        ((0, 1, 3, 7, 12, 20, 30, 44, 60, 61), 2, 40, 52),
        # the dict path refuses a partial product
        (tuple(random.Random(4).sample(range(1, 10**12), 60)), 2, 1000, 1010),
        ((1, 10**9, 10**12), 3, 5, 6),
    ],
)
def test_energy_refuses_on_the_count_of_nonzero_coefficients(monkeypatch, values, h, cap, needs):
    monkeypatch.setenv("SUMPROD_BUDGET", str(cap))
    with pytest.raises(CapExceeded) as refused:
        energy(FinSet(values), h)
    assert str(refused.value) == f"energy convolution needs {needs} values, cap is {cap}"


def test_energy_of_a_wide_set_fails_fast_over_the_cap(monkeypatch):
    monkeypatch.setenv("SUMPROD_BUDGET", "1000")
    a = FinSet(random.Random(4).sample(range(1, 10**12), 3000))
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        energy(a, 2)
    assert time.perf_counter() - start < 1


def test_quadrature_fails_fast_over_the_cap(monkeypatch):
    # {1000} at h = 2 needs 2*2*1000 + 1 = 4001 nodes
    monkeypatch.setenv("SUMPROD_BUDGET", "1000")
    with pytest.raises(CapExceeded, match="quadrature nodes needs 4001 values"):
        quadrature_energy(fs(1000), 2)
    monkeypatch.setenv("SUMPROD_BUDGET", "4001")
    assert quadrature_energy(fs(1000), 2) == pytest.approx(1)


def test_quadrature_refuses_a_node_count_too_long_to_print(monkeypatch):
    monkeypatch.delenv("SUMPROD_BUDGET", raising=False)
    with pytest.raises(CapExceeded, match=r"quadrature nodes needs at least 2\^\d+ values"):
        quadrature_energy(FinSet([10**5000]), 2)


def test_energy_rejects_bad_arguments():
    with pytest.raises(ValueError):
        energy(fs(1), 0)


@given(int_sets, st.integers(min_value=1, max_value=3))
@settings(max_examples=50, deadline=None)
def test_energy_bounds(a, h):
    e = energy(a, h)
    n = len(a)
    # diagonal tuples alone give n^h; the total count squared gives the cap
    assert n**h <= e <= n ** (2 * h - 1)


@given(int_sets)
@settings(max_examples=40, deadline=None)
def test_energy_translation_dilation_invariant(a):
    shifted = FinSet(x + 100 for x in a.elements)
    assert energy(a, 2) == energy(shifted, 2)
    assert energy(a, 2) == energy(dilate(Fraction(3), a), 2)


# --- weighted energy --------------------------------------------------------------


def test_weighted_energy_ones_matches_energy():
    a = fs(1, 2, 3, 6)
    w = WeightVector.ones(len(a))
    assert weighted_energy(a, w, 2) == energy(a, 2)


def test_weighted_energy_example():
    a = fs(2, 3)
    w = WeightVector((Fraction(1), Fraction(2)))
    assert weighted_energy(a, w, 2) == 33


def test_weighted_energy_indicator_weights_give_subset_energy():
    a = fs(1, 2, 3, 6)
    w = WeightVector((Fraction(1), Fraction(0), Fraction(1), Fraction(1)))
    sub = fs(1, 3, 6)
    assert weighted_energy(a, w, 2) == energy(sub, 2)


def test_weighted_energy_matches_oracle():
    a = fs(1, 2, 4)
    w = WeightVector((Fraction(1, 2), Fraction(3), Fraction(2)))
    by_elem = dict(zip(a.elements, w.weights))
    assert weighted_energy(a, w, 2) == oracles.o_weighted_energy(a.elements, by_elem, 2)


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector((Fraction(-1),))
    with pytest.raises(ValueError):
        weighted_energy(fs(1, 2), WeightVector.ones(3), 2)


# --- quadrature -------------------------------------------------------------------


def test_quadrature_matches_exact():
    for a in (fs(1, 2, 3), fs(1, 2, 3, 6), fs(2, 4, 8)):
        for h in (2, 3):
            exact = energy(a, h)
            approx = quadrature_energy(a, h)
            assert abs(approx - exact) <= 1e-9 * exact


def test_quadrature_weighted():
    a = fs(2, 3)
    d = WeightVector((Fraction(1, 2), Fraction(2)))
    want = float(
        oracles.o_weighted_energy(
            a.elements,
            {Fraction(2): Fraction(1, 2), Fraction(3): Fraction(2)},
            2,
        )
    )
    got = quadrature_energy(a, 2, d=d)
    assert abs(got - want) <= 1e-9 * want


def test_quadrature_requires_positive_integers():
    with pytest.raises(ValueError):
        quadrature_energy(fs(0, 1), 2)
    with pytest.raises(ValueError):
        quadrature_energy(fs(Fraction(1, 2), 1), 2)


# --- layer decomposition -----------------------------------------------------------


def test_layer_partition_structure():
    a = fs(2, 3, 4, 6, 9, 12)
    dec = layer_partition(a, (2, 3))
    assert dec.primes == (2, 3)
    rebuilt = set()
    for vals, layer in dec.layers:
        assert len(vals) == 2
        for x in layer:
            rebuilt.add(x)
            # each element sits in the layer of its own valuations
            n = int(x)
            for p, v in zip(dec.primes, vals):
                assert n % p**v == 0 and n % p ** (v + 1) != 0
    assert rebuilt == set(a.elements)


def test_layer_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        layer_partition(fs(1, 2), (4,))  # 4 is not prime
    with pytest.raises(ValueError):
        layer_partition(fs(Fraction(1, 2)), (2,))


def test_layer_inequality_fixed_examples():
    for a, primes, h in (
        (fs(1, 2, 3, 6), (2, 3), 2),
        (fs(2, 4, 8, 16), (2,), 2),
        (fs(1, 5, 25, 7, 35), (5, 7), 3),
    ):
        v = layer_inequality_check(a, primes, h)
        assert v.name == "energy.layer_bound"
        assert v.holds == "true"


@given(int_sets, st.sampled_from([(2,), (3,), (2, 3)]))
@settings(max_examples=30, deadline=None)
def test_layer_inequality_never_false(a, primes):
    # the bound is a theorem; interval slack may leave it inconclusive
    # but it must never certify a violation
    v = layer_inequality_check(a, primes, 2)
    assert v.holds in ("true", "inconclusive")


def test_layer_inequality_witness_contents():
    v = layer_inequality_check(fs(1, 2, 3, 6), (2,), 2)
    assert v.witness["h"] == 2
    assert v.witness["c_h"] == 6
    assert v.witness["layer_count"] == 2
    assert v.witness["energy"] == 32


# --- tail monotonicity ---------------------------------------------------------------


def test_tail_monotonicity_exact():
    a = fs(1, 2, 4, 8, 3, 12)
    for j in (0, 1, 2):
        v = tail_monotonicity_check(a, 2, j, 2)
        assert v.holds == "true"
        assert isinstance(v.lhs, (int, Fraction))


def test_tail_monotonicity_empty_tail():
    v = tail_monotonicity_check(fs(1, 3), 2, 5, 2)
    # no elements with valuation >= 5: the tail energy is zero
    assert v.holds == "true"
    assert v.rhs == 0
