"""Every input contract refuses with text that names it.

One row per refusal: the entry point, the input outside its contract, the
exception and a pattern for its text.  The rows cover each raise that the
rest of the suite never reaches, and each check a checker leaves to the
first kernel it calls.
"""

from fractions import Fraction as F

import pytest

from sumprod.arith import first_primes
from sumprod.energy import (
    WeightVector,
    layer_partition,
    quadrature_energy,
    tail_monotonicity_check,
)
from sumprod.exactset import FinSet, PairGraph, box_sum, combine, sum_diff
from sumprod.limits import set_size_cap_override, size_cap
from sumprod.theorems import (
    dim_budget_diagnostic,
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

EMPTY = FinSet([])
HALF = FinSet([F(1, 2), 1])
SIGNED = FinSet([-1, 2])
WITH_ZERO = FinSet([0, 3])
PAIR = FinSet([1, 2])

NONEMPTY = "needs a nonempty set$"
POSITIVE = "needs a set of strictly positive elements$"
POSITIVE_INTEGERS = "needs a set of positive integers$"
FOLD = "^fold count must be >= 1, got 0$"


def _size_cap_with_env(raw: str) -> int:
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SUMPROD_BUDGET", raw)
        return size_cap()


REFUSALS = [
    # theorems: each checker's hypothesis on A
    (verify_lemma3, (EMPTY, 2), ValueError, "^lemma3 " + NONEMPTY),
    (verify_lemma3, (PAIR, 0), ValueError, FOLD),
    (verify_theorem1, (EMPTY, 2), ValueError, "^theorem1 " + NONEMPTY),
    (verify_theorem1, (HALF, 2), ValueError, "^theorem1 " + POSITIVE_INTEGERS),
    (verify_prop10, (EMPTY, 2), ValueError, "^multiplicative dimension " + NONEMPTY),
    (verify_prop10, (SIGNED, 2), ValueError, "^prime factorization " + POSITIVE),
    (verify_prop10, (PAIR, 0), ValueError, FOLD),
    (
        verify_prop9,
        (EMPTY, WeightVector(()), 2),
        ValueError,
        "^multiplicative dimension " + NONEMPTY,
    ),
    (
        verify_prop9,
        (WITH_ZERO, WeightVector.ones(2), 2),
        ValueError,
        "^prime factorization " + POSITIVE,
    ),
    (
        verify_prop9,
        (FinSet([1, 2, 3]), WeightVector.ones(2), 2),
        ValueError,
        "^2 weights for a set of size 3$",
    ),
    (verify_prop11, (EMPTY,), ValueError, "^prop11 " + NONEMPTY),
    (verify_prop11, (WITH_ZERO,), ValueError, "^prop11 " + POSITIVE),
    (verify_prop13, (SIGNED, 1), ValueError, "^prop13 " + POSITIVE),
    (verify_prop13, (PAIR, 3), ValueError, "^fold count 3 exceeds the set size 2$"),
    (verify_prop13, (PAIR, 0), ValueError, FOLD),
    (
        verify_ruzsa,
        (PAIR, PAIR, 0, 0),
        ValueError,
        "^need nonnegative fold counts with h \\+ l >= 1$",
    ),
    (verify_ruzsa, (EMPTY, PAIR, 1, 1), ValueError, "^the comparison set must be nonempty$"),
    (verify_intro_suite, (FinSet([5]),), ValueError, "^need at least two elements$"),
    (verify_intro_suite, (HALF,), ValueError, "^this suite " + POSITIVE_INTEGERS),
    (
        verify_theorem3_chain,
        (PAIR, PairGraph.full(FinSet([1, 3]))),
        ValueError,
        "^graph ground set differs from the operand set$",
    ),
    (dim_budget_diagnostic, (100, F(1, 10), -1), ValueError, "^dimension must be >= 0$"),
    # energy
    (WeightVector, ((0, 0),), ValueError, "^at least one weight must be positive$"),
    (
        quadrature_energy,
        (PAIR, 2, WeightVector.ones(3)),
        ValueError,
        "^3 weights for a set of size 2$",
    ),
    (quadrature_energy, (HALF, 2), ValueError, "^quadrature energy " + POSITIVE_INTEGERS),
    (layer_partition, (WITH_ZERO, (2,)), ValueError, "^layer partition " + POSITIVE_INTEGERS),
    (layer_partition, (PAIR, (2, 2)), ValueError, "^primes must be distinct$"),
    (
        tail_monotonicity_check,
        (PAIR, 2, -1, 2),
        ValueError,
        "^valuation threshold must be >= 0, got -1$",
    ),
    (tail_monotonicity_check, (PAIR, 4, 1, 2), ValueError, "^4 is not prime$"),
    (
        tail_monotonicity_check,
        (HALF, 2, 1, 2),
        ValueError,
        "^tail monotonicity check " + POSITIVE_INTEGERS,
    ),
    (tail_monotonicity_check, (PAIR, 2, 1, 0), ValueError, FOLD),
    # exactset
    (FinSet.min, (EMPTY,), ValueError, "^empty set has no minimum$"),
    (FinSet.max, (EMPTY,), ValueError, "^empty set has no maximum$"),
    (
        combine,
        (PAIR, PAIR, "difference"),
        ValueError,
        "^op must be 'sum' or 'product', got 'difference'$",
    ),
    (box_sum, (PAIR, -1), ValueError, "^coefficient bound must be >= 0, got -1$"),
    (sum_diff, (PAIR, 1, -1), ValueError, "^fold counts must be >= 0$"),
    # limits and arith
    (set_size_cap_override, (0,), ValueError, "^size cap must be positive, got 0$"),
    (_size_cap_with_env, ("0",), ValueError, "^SUMPROD_BUDGET must be positive, got 0$"),
    (first_primes, (-1,), ValueError, "^count must be >= 0$"),
]


@pytest.mark.parametrize(
    "entry, bad, exception, pattern",
    REFUSALS,
    ids=[f"{entry.__name__}-{i}" for i, (entry, *_) in enumerate(REFUSALS)],
)
def test_refusal_names_the_contract(entry, bad, exception, pattern):
    with pytest.raises(exception, match=pattern):
        entry(*bad)
