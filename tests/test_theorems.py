"""Growth, dimension, and restricted-graph verdicts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sumprod.exactset import FinSet, PairGraph
from sumprod.theorems import (
    beta,
    dim_budget_diagnostic,
    fold_constant,
    verify_intro_suite,
    verify_lemma3,
    verify_prop9,
    verify_prop10,
    verify_prop11,
    verify_prop13,
    verify_ruzsa,
    verify_theorem1,
    verify_theorem3_chain,
)
from sumprod.energy import WeightVector, energy
from sumprod.extremal import f_value

F = Fraction


def fs(*values) -> FinSet:
    return FinSet(F(v) for v in values)


int_sets = st.sets(
    st.integers(min_value=1, max_value=16), min_size=1, max_size=4
).map(lambda vs: FinSet(F(v) for v in vs))


def test_fold_constant():
    assert fold_constant(1) == 1
    assert fold_constant(2) == 6
    assert fold_constant(3) == 15


# --- energy vs h-fold sumset size ---------------------------------------------


def test_lemma3_examples():
    v = verify_lemma3(fs(1, 2, 3), 2)
    assert v.holds == "true"
    assert v.witness["hsum_size"] == 5
    assert v.witness["energy"] == 19
    assert verify_lemma3(fs(1, 2, 4, 8), 3).holds == "true"


@given(int_sets, st.integers(min_value=1, max_value=3))
@settings(max_examples=50, deadline=None)
def test_lemma3_always_true(a, h):
    # Cauchy-Schwarz: |hA| * E_h(A) >= |A|^(2h), with no exceptions
    assert verify_lemma3(a, h).holds == "true"


# --- doubling vs product growth --------------------------------------------------


def test_theorem1_powers_of_two():
    a = fs(1, 2, 4, 8)
    pair = verify_theorem1(a, 2)
    assert [v.name for v in pair] == ["theorem1.doubling", "theorem1.hfold"]
    assert all(v.holds == "true" for v in pair)
    assert pair[0].witness["alpha"] == F(7, 4)


def test_theorem1_interval_set():
    a = FinSet(F(n) for n in range(1, 9))
    pair = verify_theorem1(a, 2)
    assert pair[0].witness["alpha"] == F(15, 4)
    assert all(v.holds == "true" for v in pair)


def test_theorem1_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_theorem1(fs(0, 1), 2)
    with pytest.raises(ValueError):
        verify_theorem1(fs(1, 2), 1)


# --- dimension forces h-fold growth ------------------------------------------------


def test_prop10_examples():
    assert verify_prop10(fs(2, 3), 2).holds == "true"
    assert verify_prop10(fs(2, 3, 5), 2).holds == "true"
    # singleton: dimension 0, |hA| = 1, and 1 < 1 fails
    assert verify_prop10(fs(7), 3).holds == "false"


def test_prop10_witness():
    v = verify_prop10(fs(2, 3, 5), 2)
    assert v.witness["dim"] == 2
    assert v.witness["fold_constant"] == 6
    assert v.lhs == energy(fs(2, 3, 5), 2)
    assert v.rhs == 6 ** (2 * 2) * 3**2


# --- weighted energy bound ----------------------------------------------------------


def test_prop9_examples():
    v = verify_prop9(fs(2, 3), WeightVector((F(1), F(2))), 2)
    assert v.holds == "true"
    assert v.lhs == 33
    assert v.rhs == 900

    # single element: both sides collapse to the same power
    v = verify_prop9(fs(2), WeightVector((F(3),)), 2)
    assert v.holds == "true"
    assert v.lhs == v.rhs == 81


def test_prop9_weight_square_sum_in_witness():
    v = verify_prop9(fs(2, 3), WeightVector((F(1), F(2))), 2)
    assert v.witness["weight_square_sum"] == 5


# --- small product set forces small dimension -----------------------------------------


def test_prop11_met_case():
    a = fs(2, 4, 8, 16, 32)
    v = verify_prop11(a)
    assert v.hypothesis_met
    assert v.holds == "true"
    assert v.witness["dim"] == 1


def test_prop11_unmet_case():
    a = fs(2, 3, 5)  # products spread out, alpha^2 >= |A|
    v = verify_prop11(a)
    assert v.holds == "hypothesis-not-met"
    assert v.lhs is None
    assert "alpha" in v.witness


def test_prop11_hypothesis_reading_recorded():
    v = verify_prop11(fs(2, 4, 8))
    assert "alpha" in v.witness["hypothesis_reading"]


@given(
    st.sets(st.integers(min_value=1, max_value=24), min_size=2, max_size=5)
)
@settings(max_examples=60, deadline=None)
def test_prop11_never_false(values):
    a = FinSet(F(v) for v in values)
    v = verify_prop11(a)
    assert v.holds in ("true", "hypothesis-not-met")


# --- simple sums meet h-fold sums ------------------------------------------------------


def test_prop13_tiny_example():
    v = verify_prop13(fs(1, 2), 2)
    assert v.holds == "true"
    assert v.lhs == 2
    assert v.rhs == F(1, 324)


def test_prop13_variant_recorded():
    v = verify_prop13(fs(1, 2), 2)
    assert "variant_rhs" in v.witness and "variant_holds" in v.witness


def test_prop13_geometric_set():
    v = verify_prop13(fs(1, 2, 4, 8), 2)
    assert v.holds == "true"


@given(
    st.lists(st.builds(F, st.integers(1, 30), st.integers(1, 6)), min_size=1, max_size=7, unique=True),
    st.integers(1, 3),
)
@settings(max_examples=100, deadline=None)
def test_prop13_counts_the_intersection(values, h1):
    b = fs(*values)
    h1 = min(h1, b.size)
    want = oracles.o_iterate(b.elements, h1, "sum") & oracles.o_simple(b.elements, "sum")
    assert verify_prop13(b, h1).lhs == len(want)


def test_prop13_counts_the_intersection_in_a_set_of_ints():
    # too wide for a bitmask: the simple sums are held as a set of ints
    b = fs(1, 10**6, 10**12, 10**12 + 1)
    want = oracles.o_iterate(b.elements, 2, "sum") & oracles.o_simple(b.elements, "sum")
    assert verify_prop13(b, 2).lhs == len(want) == 7


# --- sum-difference iteration ------------------------------------------------------------


def test_ruzsa_examples():
    m = fs(1, 2, 3)
    n = fs(1, 2)
    v = verify_ruzsa(m, n, 2, 1)
    assert v.holds == "true"
    assert v.witness["rho"] == F(4, 3)

    v = verify_ruzsa(fs(1, 2, 4), fs(1, 2, 4), 2, 2)
    assert v.holds == "true"


def test_ruzsa_translated_copy():
    m = fs(10, 11, 12, 13)
    v = verify_ruzsa(m, m, 1, 1)
    assert v.holds == "true"
    assert v.witness["rho"] == F(7, 4)


# --- sum or product must grow -------------------------------------------------------------


def test_intro_suite_names_and_examples():
    vs = verify_intro_suite(fs(1, 2, 3))
    names = [v.name for v in vs]
    assert names == [
        "intro.union_bound",
        "intro.small_sumset_products",
        "intro.tradeoff_bound",
        "intro.small_doubling_products",
    ]
    by = {v.name: v for v in vs}
    assert by["intro.union_bound"].holds == "true"
    # |2A| = 5 <= 3*3 - 4: the arithmetic-progression hypothesis is met
    assert by["intro.small_sumset_products"].hypothesis_met


def test_intro_union_bound_interval_small_set():
    a = fs(1, 5)
    vs = verify_intro_suite(a)
    by = {v.name: v for v in vs}
    assert by["intro.union_bound"].holds == "true"
    assert by["intro.union_bound"].witness["coefficient"] == 1


def test_intro_non_progression_hypothesis_unmet():
    a = fs(1, 2, 4, 8, 16)
    vs = verify_intro_suite(a)
    by = {v.name: v for v in vs}
    # |2A| = 15 > 3*5 - 4 = 11
    assert by["intro.small_sumset_products"].holds == "hypothesis-not-met"


@given(
    st.sets(st.integers(min_value=1, max_value=16), min_size=2, max_size=4).map(
        lambda vs: FinSet(F(v) for v in vs)
    )
)
@settings(max_examples=40, deadline=None)
def test_intro_union_bound_never_false(a):
    vs = verify_intro_suite(a)
    by = {v.name: v for v in vs}
    # f(A) > |A|^(5/4) is decided by integer powers, and it holds
    assert by["intro.union_bound"].holds == "true"


# --- balanced quadruple count ----------------------------------------------------------


def test_beta_equals_energy():
    for a in (fs(1, 2, 4), fs(1, 2, 3), fs(3, 5, 7, 11)):
        assert beta(a) == oracles.o_beta(a.elements)
        assert beta(a) == energy(a, 2)


def test_beta_frozen_value():
    assert beta(fs(1, 2, 4)) == 15


# --- restricted sums along a graph ------------------------------------------------------


def test_theorem3_full_graph():
    a = fs(1, 2, 3)
    g = PairGraph.full(a)
    v = verify_theorem3_chain(a, g)
    assert v.holds == "true"
    assert v.witness["edge_count"] == 9
    assert v.witness["beta"] == beta(a)


def test_theorem3_diagonal_graph():
    a = fs(1, 2, 4)
    v = verify_theorem3_chain(a, PairGraph.diagonal(a))
    assert v.holds == "true"
    assert v.witness["edge_count"] == 3


def test_theorem3_empty_graph_unmet():
    a = fs(1, 2)
    g = PairGraph(ground=a, pairs=frozenset())
    v = verify_theorem3_chain(a, g)
    assert v.holds == "hypothesis-not-met"


def test_theorem3_empty_graph_on_another_ground_refused():
    g = PairGraph(ground=fs(1, 3), pairs=frozenset())
    with pytest.raises(ValueError, match="^graph ground set differs from the operand set$"):
        verify_theorem3_chain(fs(1, 2), g)


def test_theorem3_zero_in_set_skips_product_witness():
    a = fs(0, 1, 2)
    v = verify_theorem3_chain(a, PairGraph.full(a))
    assert v.witness["restricted_prod_size"] is None
    assert v.holds == "true"


def test_theorem3_exhaustive_tiny():
    # every graph over a fixed 2-element ground set
    a = fs(1, 2)
    idx = [(i, j) for i in range(2) for j in range(2)]
    for mask in range(1, 16):
        pairs = frozenset(p for b, p in enumerate(idx) if mask >> b & 1)
        g = PairGraph(ground=a, pairs=pairs)
        v = verify_theorem3_chain(a, g)
        assert v.holds == "true", (mask, v)


def test_f_union_size():
    # |2A u A*A|, the size the intro suite bounds, now read from extremal.f_value
    assert f_value(fs(1, 2, 3)) == 7
    assert f_value(fs(2, 4, 8)) == 8
    assert f_value(fs(1)) == 2
    assert f_value(fs(2)) == 1


# --- dimension budget diagnostic ----------------------------------------------------------


def test_dim_budget_diagnostic_shape():
    out = dim_budget_diagnostic(100, F(1, 10), 3)
    assert set(out) == {
        "dim_side",
        "dim_budget",
        "dim_condition",
        "growth_floor",
        "growth_exponent",
    }
    assert out["dim_condition"] in ("true", "false", "inconclusive")


def test_dim_budget_conditions_frozen():
    # first letters of dim_condition for m = 0..5, per (k, eps1)
    got = [
        "".join(dim_budget_diagnostic(k, e, m)["dim_condition"][0] for m in range(6))
        for k in (3, 10, 100, 10**6, 10**30, 10**300)
        for e in (F(1, 100), F(1, 4), F(1, 2))
    ]
    assert " ".join(got) == (
        "ttffff tfffff ffffff ffffff ffffff ffffff ffffff ffffff ffffff "
        "tfffff ffffff ffffff tttfff ttffff ffffff tttttt tttttt ffffff"
    )


def test_dim_budget_diagnostic_monotone_in_m():
    # the budget side depends only on k and eps1, the dim side only on m
    lo = dim_budget_diagnostic(1000, F(1, 10), 2)
    hi = dim_budget_diagnostic(1000, F(1, 10), 8)
    assert hi["dim_side"] == 9 and lo["dim_side"] == 3
    assert lo["dim_budget"].mid == hi["dim_budget"].mid
    assert lo["dim_condition"] == "false"  # 3 already exceeds the tiny budget


def test_dim_budget_diagnostic_validation():
    with pytest.raises(ValueError):
        dim_budget_diagnostic(1, F(1, 10), 2)
    with pytest.raises(ValueError):
        dim_budget_diagnostic(100, F(0), 2)
