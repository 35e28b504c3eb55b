"""Inequality checkers over concrete finite sets.

Each function evaluates both sides of one inequality exactly where possible
and returns a Verdict (or a list of them).  Exact integer and rational
comparisons never touch floating point.  A count against a rational power of
an integer times a rational (theorem 1's bounds, the union bound) is decided
exactly, by integer powers, unless those powers pass a fixed size.  Bounds
involving logs are enclosed at 200-bit precision, and a claim their
endpoints neither prove nor refute is left inconclusive.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct

from .exactset import (
    FinSet,
    PairGraph,
    _box_hits,
    _require_fold,
    _require_nonempty,
    _require_positive,
    _require_positive_integers,
    combine,
    iterate,
    restricted_combine,
    sum_diff,
)
from .limits import check_size
from .arith import mult_dim
from .energy import WeightVector, _require_weights, energy, fold_constant, weighted_energy
from .extremal import f_value
from .verdicts import Verdict, compare, log_of, power_of, unmet, verdict_from_compare


def verify_lemma3(a: FinSet, h: int) -> Verdict:
    """|hA| * E_h(A) >= |A|^(2h): the Cauchy-Schwarz lower bound, exact."""
    _require_nonempty(a, "lemma3")
    hsum = iterate(a, h, "sum")
    e = energy(a, h)
    lhs = hsum.size * e
    rhs = a.size ** (2 * h)
    witness = {"h": h, "hsum_size": hsum.size, "energy": e, "size": a.size}
    return verdict_from_compare("lemma3", lhs, rhs, ">=", witness)


def verify_theorem1(a: FinSet, h: int) -> list[Verdict]:
    """Doubling and h-fold lower bounds driven by alpha = |A*A|/|A|.

    Two verdicts: |2A| > 36^(-alpha) |A|^2 and
    |hA| > (2h^2-h)^(-h*alpha) |A|^h.
    """
    _require_positive_integers(a, "theorem1")
    _require_nonempty(a, "theorem1")
    if h < 2:
        raise ValueError(f"fold count must be >= 2, got {h}")
    k = a.size
    prod_size = combine(a, a, "product").size
    alpha = Fraction(prod_size, k)
    double = iterate(a, 2, "sum").size
    hsum = iterate(a, h, "sum").size
    base_witness = {"alpha": alpha, "prod_size": prod_size, "size": k}
    rhs2 = power_of(36, -alpha) * k**2
    v_double = verdict_from_compare(
        "theorem1.doubling", double, rhs2, ">", dict(base_witness)
    )
    c = fold_constant(h)
    rhs_h = power_of(c, -h * alpha) * k**h
    wit_h = dict(base_witness)
    wit_h["h"] = h
    wit_h["fold_constant"] = c
    v_h = verdict_from_compare("theorem1.hfold", hsum, rhs_h, ">", wit_h)
    return [v_double, v_h]


def verify_prop10(a: FinSet, h: int) -> Verdict:
    """E_h(A) < (2h^2-h)^(m*h) * |A|^h with m the multiplicative dimension.

    Exact integers; the strict inequality fails (by design) exactly at
    singletons, where both sides are 1.
    """
    _require_fold(h)
    m = mult_dim(a).dimension
    c = fold_constant(h)
    lhs = energy(a, h)
    rhs = c ** (m * h) * a.size**h
    witness = {"h": h, "dim": m, "fold_constant": c, "size": a.size}
    return verdict_from_compare("prop10", lhs, rhs, "<", witness)


def verify_prop9(a: FinSet, d: WeightVector, h: int) -> Verdict:
    """Weighted energy against (2h^2-h)^(m*h) (sum of d^2)^h, exact."""
    _require_fold(h)
    _require_weights(a, d)
    m = mult_dim(a).dimension
    c = fold_constant(h)
    lhs = weighted_energy(a, d, h)
    square_sum = sum((w * w for w in d.weights), Fraction(0))
    rhs = Fraction(c) ** (m * h) * square_sum**h
    witness = {
        "h": h,
        "dim": m,
        "fold_constant": c,
        "weight_square_sum": square_sum,
    }
    return verdict_from_compare("prop9", lhs, rhs, "<=", witness)


def verify_prop11(a: FinSet) -> Verdict:
    """mult_dim(A) <= alpha, under the hypothesis alpha < sqrt(|A|).

    alpha = |A*A|/|A|.  The hypothesis test alpha < sqrt(|A|) is done as
    the exact rational comparison alpha^2 < |A|.  The hypothesis is read
    on the product set size; the witness records that reading.
    """
    _require_positive(a, "prop11")
    _require_nonempty(a, "prop11")
    prod_size = combine(a, a, "product").size
    alpha = Fraction(prod_size, a.size)
    witness = {
        "alpha": alpha,
        "prod_size": prod_size,
        "size": a.size,
        "hypothesis_reading": "alpha = |A*A|/|A| with alpha^2 < |A|",
    }
    if alpha * alpha >= a.size:
        return unmet("prop11", None, alpha, witness)
    m = mult_dim(a).dimension
    witness["dim"] = m
    return verdict_from_compare("prop11", m, alpha, "<=", witness)


def verify_prop13(b: FinSet, h1: int) -> Verdict:
    """|h1*B restricted to simple sums| >= (|B| / (2h1^2-h1)^(m+1))^h1.

    The left side is computed as |iterate(B,h1,sum) vs simple-sum closure
    intersection|.  The witness also carries the variant bound with
    denominator (2h1^2-h1)^m * h1^2.
    """
    _require_positive(b, "prop13")
    if h1 > b.size:
        raise ValueError(f"fold count {h1} exceeds the set size {b.size}")
    hsum = iterate(b, h1, "sum")
    # each value of hB over b's scale, looked up in b's unbuilt simple sums
    up = b._scale // hsum._scale
    lhs = _box_hits(b._ints, (v * up for v in hsum._ints), "simple sum closure")
    m = mult_dim(b).dimension
    c = fold_constant(h1)
    rhs = (Fraction(b.size) / c ** (m + 1)) ** h1
    variant_rhs = (Fraction(b.size) / (c**m * h1 * h1)) ** h1
    witness = {
        "h1": h1,
        "dim": m,
        "fold_constant": c,
        "hsum_size": hsum.size,
        "variant_rhs": variant_rhs,
        "variant_holds": lhs >= variant_rhs,
    }
    return verdict_from_compare("prop13", lhs, rhs, ">=", witness)


def verify_ruzsa(m_set: FinSet, n_set: FinSet, h: int, l: int) -> Verdict:
    """|hN - lN| <= rho^(h+l) |M| with rho = |M+N|/|M|, exact rationals."""
    if h < 0 or l < 0 or h + l < 1:
        raise ValueError("need nonnegative fold counts with h + l >= 1")
    if m_set.size == 0:
        raise ValueError("the comparison set must be nonempty")
    sum_size = combine(m_set, n_set, "sum").size
    rho = Fraction(sum_size, m_set.size)
    lhs = sum_diff(n_set, h, l).size
    rhs = rho ** (h + l) * m_set.size
    witness = {"h": h, "l": l, "rho": rho, "sum_size": sum_size}
    return verdict_from_compare("ruzsa", lhs, rhs, "<=", witness)


def verify_intro_suite(a: FinSet) -> list[Verdict]:
    """The four benchmark inequalities on sum and product set sizes.

    1. union bound: |2A u A*A| > |A|^(5/4), coefficient one, with the
       tightness ratio in the witness;
    2. conditional product bound: if |2A| <= 3|A| - 4 then
       |A*A| >= (|A|/ln|A|)^2;
    3. tradeoff bound: |A+A|^4 |AA| ln|A| > |A|^6;
    4. small-doubling product bound: with c instantiated tightly as
       |2A|/|A| (hypothesis |2A| <= c|A| then holds with equality),
       |A*A| >= |A|^2 / (c' ln|A|) at c' = 1.
    """
    _require_positive_integers(a, "this suite")
    if a.size < 2:
        raise ValueError("need at least two elements")
    k = a.size
    double = iterate(a, 2, "sum").size
    prod_size = combine(a, a, "product").size
    union_size = f_value(a)
    ln_k = log_of(k)
    out: list[Verdict] = []

    rhs_union = power_of(k, Fraction(5, 4))
    tightness = union_size / rhs_union
    out.append(
        verdict_from_compare(
            "intro.union_bound",
            union_size,
            rhs_union,
            ">",
            {"coefficient": 1, "tightness_ratio": tightness},
        )
    )

    nt_name = "intro.small_sumset_products"
    nt_wit = {"double_size": double, "threshold": 3 * k - 4}
    if double <= 3 * k - 4:
        rhs_nt = (k / ln_k) * (k / ln_k)
        out.append(
            verdict_from_compare(nt_name, prod_size, rhs_nt, ">=", nt_wit)
        )
    else:
        out.append(unmet(nt_name, prod_size, None, nt_wit))

    lhs_trade = double**4 * prod_size * ln_k
    out.append(
        verdict_from_compare(
            "intro.tradeoff_bound",
            lhs_trade,
            k**6,
            ">",
            {"double_size": double, "prod_size": prod_size},
        )
    )

    c = Fraction(double, k)
    rhs_sd = k**2 / ln_k
    out.append(
        verdict_from_compare(
            "intro.small_doubling_products",
            prod_size,
            rhs_sd,
            ">=",
            {"c": c, "c_prime": 1, "note": "c instantiated tightly from the data"},
        )
    )
    return out


def beta(a: FinSet) -> int:
    """Number of quadruples (n1,n2,n3,n4) with n1 - n2 + n3 - n4 = 0.

    Counted by direct enumeration, independently of the energy engine;
    always equals energy(a, 2).
    """
    if a.size:
        check_size(a.size**4, "quadruple count")
    count = 0
    elems = a.elements
    for n1, n2, n3, n4 in iproduct(elems, repeat=4):
        if n1 - n2 + n3 - n4 == 0:
            count += 1
    return count


def verify_theorem3_chain(a: FinSet, g: PairGraph) -> Verdict:
    """|A +_G A| >= |G|^2 / beta(A): the Cauchy-Schwarz restricted-sum core.

    Needs a nonempty graph; the witness reports the restricted product set
    size and the density delta = |G|/|A|^2.
    """
    restricted_sum = restricted_combine(a, g, "sum").size  # checks the graph's ground set
    if g.size == 0:
        return unmet("theorem3", None, None, {"edge_count": 0})
    b = beta(a)
    restricted_prod = (
        restricted_combine(a, g, "product").size if 0 not in a else None
    )
    rhs = Fraction(g.size**2, b)
    delta = Fraction(g.size, a.size**2)
    witness = {
        "edge_count": g.size,
        "beta": b,
        "restricted_prod_size": restricted_prod,
        "delta": delta,
    }
    return verdict_from_compare("theorem3", restricted_sum, rhs, ">=", witness)


def dim_budget_diagnostic(k: int, eps1: Fraction, m: int) -> dict:
    """Evaluate the two sides of the dimension-budget conditions.

    For user-supplied (k, eps1, m): side one compares m + 1 against
    (1/4 - eps1/2) ln k / ln ln k; side two reports the growth floor
    k^(eps1 * floor(ln k / sqrt(2))).  Purely informational: these
    thresholds only bind for astronomically large k, so nothing is
    asserted.
    """
    if k < 3:
        raise ValueError("need k >= 3 so that ln ln k is positive")
    if m < 0:
        raise ValueError("dimension must be >= 0")
    eps1 = Fraction(eps1)
    if eps1 <= 0:
        raise ValueError("eps1 must be positive")
    ln_k = log_of(k)
    ln_ln_k = log_of(ln_k)
    budget = (Fraction(1, 4) - eps1 / 2) * (ln_k / ln_ln_k)
    sqrt2 = power_of(2, Fraction(1, 2))
    ratio = ln_k / sqrt2
    floor_lo = ratio.lo.__floor__()
    floor_hi = ratio.hi.__floor__()
    if floor_lo != floor_hi:
        raise ArithmeticError("floor of ln k / sqrt 2 is not determined by the enclosure")
    exponent = eps1 * floor_lo
    growth_floor = power_of(k, exponent)
    return {
        "dim_side": m + 1,
        "dim_budget": budget,
        "dim_condition": compare(budget, m + 1, ">"),
        "growth_floor": growth_floor,
        "growth_exponent": exponent,
    }
