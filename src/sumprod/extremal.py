"""Grid examples, the f/g objectives, exhaustive minimizer search, and the
growth-rate verdict battery for the prime-grid construction.

es_example(j) builds the grid on the first j primes itself, after a cap check.

f(A) = |2A u A*A| and g(A) = |A[1]| + |A{1}| (simple sums plus simple
products).  search_min minimizes either objective exactly over all
k-subsets of {1,...,N} by one depth-first walk in the calling process, with
an optional resumable checkpoint.  OBJECTIVES holds one entry per objective:
its whole-set value, f_value or g_value, and its walk state.  The whole-set
value counts in closed form (for g, the subset-sum bitmask and the
coprime-base exponent codes) and shares no code with the walk's states; it
scores the starting incumbent, each certificate of a resumed checkpoint, and
the CLI's plain-loop oracle.  The walk keeps one incumbent for the whole
search, starting at the value of (1,...,k), which no minimizer exceeds, and
lowered to each better leaf.  The children of a prefix are scored in one call
from their parent's state, without a set of their own: by their completion
bounds, lower bounds on the value of every k-subset that extends them, or at a
leaf by their values.  A child scored strictly above the incumbent is
dropped, so every tied minimizer is kept; a scorer may drop one without its
exact score, and the walk counts the dropped ones in bulk.  Only a child
that survives gets a state, its parent's sums and products extended by its
one new element.  Each child of a scored prefix is one node, and a node
budget caps the nodes, so it bounds the work.  When the budget runs out,
at most the rest of one range per open level was scored beyond it; `nodes`,
the cursor and the checkpoint are those of a walk that scores one child at a
time.
"""

from __future__ import annotations

import os
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from itertools import product as iproduct
from math import prod
from typing import TYPE_CHECKING, Callable, NamedTuple

from .exactset import FinSet, _box_size, _productset, _require_positive_integers, _sumset
from .limits import check_size, over_cap, size_cap
from .arith import first_primes, mult_dim, vector_simple_sum_count

if TYPE_CHECKING:
    from .verdicts import Verdict

CHECKPOINT_HEADER = "sumprod search checkpoint v2"
CHECKPOINT_FIELDS = ("objective", "k", "universe", "cursor", "nodes", "minimum")


def es_example(j: int) -> FinSet:
    """The grid set {p1^e1 * ... * pj^ej : 0 <= e_i < j} on the first j
    primes, size j^j.  The size is checked before any prime is found.  From
    j = max(cap bit length, Python's int digit limit, 10) on, j is refused
    from j alone, named as j^j, before j^j is formed."""
    if j < 1:
        raise ValueError(f"grid parameter must be >= 1, got {j}")
    cap = size_cap()
    # past all three, j^j >= 2^j > cap and j^j >= 10^j has too many digits to print
    if j >= max(cap.bit_length(), sys.get_int_max_str_digits(), 10):
        raise over_cap(f"{j}^{j}", "grid example", cap)
    check_size(j**j, "grid example")
    primes = first_primes(j)
    return FinSet(
        prod(p**e for p, e in zip(primes, exps)) for exps in iproduct(range(j), repeat=j)
    )


def f_value(a: FinSet) -> int:
    """|2A u A*A| exactly, from the sum set and the product set kernels."""
    _require_positive_integers(a, "the f objective")
    sums = _sumset([a._ints] * 2, 1, "f objective")
    return len({*sums._ints, *_productset([a, a], "f objective")._ints})


def g_value(a: FinSet) -> int:
    """|A[1]| + |A{1}| exactly: subset sums plus subset products.

    Both are counted, and neither closure is built: the sums by
    exactset._box_size, the products by vector_simple_sum_count.
    """
    _require_positive_integers(a, "the g objective")
    return _box_size(a._ints, "simple sum closure") + vector_simple_sum_count(a)


# Incremental states for the search walk, extended one element x at a time,
# each x above every element already in.  An f state is the prefix P and the
# frozenset u = 2P u P*P; a g state is the subset-sum bitmask and the subset
# products, as a frozenset and as a sorted tuple.  scores(state, xs, missing,
# best) is read off the parent's state.


def _f_grow(state, x: int):
    prefix, u = state
    prefix += (x,)
    return prefix, u.union([x + p for p in prefix], [x * p for p in prefix])


def _f_scores(state, xs: range, missing: int, best: int) -> list[tuple[int, int]]:
    # x adds the sums x+q and the products x*q (q in P or x), distinct but for
    # x+x = x*2, so the product with q = 2 is not counted; x*x, and for each
    # later element y, y*y and y*x (y + 1 when x = 1), lie above every value so
    # far.
    prefix, u = state
    base = len(u) + 2 * missing
    out = []
    for x in xs:
        count = base + (x + x not in u) + (x != 2)
        for q in prefix:
            count += (x + q not in u) + (q != 2 and x * q not in u)
        if count <= best:
            out.append((x, count))
    return out


def _g_grow(state, x: int):
    bits, prods, ordered = state
    new = [w for v in ordered if (w := v * x) not in prods]
    return bits | bits << x, prods.union(new), tuple(sorted([*ordered, *new]))


def _g_scores(state, xs: range, missing: int, best: int) -> list[tuple[int, int]]:
    # subset sums pair up as s <-> total - s, so a later y adds at least
    # #{s < y} sums above the old largest; subset products pair up as
    # w <-> product / w, so y adds at least #{w < y} products likewise.  Below
    # y lie the sums and products at most x of the prefix plus x (the product
    # x is new unless x is in prods) and, for the i-th y added, the i - 1
    # added before it, each both a sum and a product.
    #
    # x adds the sums s + x and the products v*x that are not yet in.  At most
    # #{s >= x} of the sums can be old (an old s + x is a sum at least x), and
    # only the products with v <= top // x, as the rest exceed every product
    # so far.  Counting all of these as old gives a score that never decreases
    # with x, so once it exceeds the incumbent every later child is dropped;
    # otherwise the old sums are counted by one mask, then the old products
    # looked up, each only while the score stays at or below the incumbent.
    bits, prods, ordered = state
    top = ordered[-1]
    nsums = bits.bit_count()
    base = nsums + 2 * len(ordered) + missing * missing
    out = []
    for x in xs:
        below = (bits & ((1 << x) - 1)).bit_count()  # #{s < x}
        j = bisect_right(ordered, top // x)
        count = base + below - j + missing * (below + bisect_right(ordered, x))
        if count > best:
            break
        count += nsums - below - (bits & bits >> x).bit_count() + missing * (x not in prods)
        if count <= best:
            count += j - len(prods.intersection(map(x.__mul__, islice(ordered, j))))
            if count <= best:
                out.append((x, count))
    return out


class _Objective(NamedTuple):
    """A search objective.  value(a) is its value on a whole set; the rest is
    its walk state: `empty` is the state of the empty prefix, grow(state, x)
    the state of the prefix plus x, and scores(state, xs, missing, best)
    scores all the children of the prefix in the range xs in one call.  A
    child's bound is a lower bound on the value of every set made by adding x
    and then `missing` elements above x to the prefix, read off the prefix's
    state without building the child's; with missing = 0 it is the value of
    the prefix plus x.  scores returns, in ascending order, (x, bound) for
    each child whose bound is at most `best`, and drops the others, possibly
    without computing their bound exactly."""

    value: Callable[[FinSet], int]
    empty: tuple
    grow: Callable
    scores: Callable


OBJECTIVES = {
    "f": _Objective(f_value, ((), frozenset()), _f_grow, _f_scores),
    "g": _Objective(g_value, (1, frozenset({1}), (1,)), _g_grow, _g_scores),
}


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exhaustive k-subset minimization over [1, universe].

    minimum/certificates describe the explored region only when complete is
    False; nodes counts the children of the prefixes scored, one each, whether
    scored exactly or dropped in bulk; cursor is the last smallest element
    whose subtree was finished (resume point).
    """

    objective: str
    k: int
    universe: int
    minimum: int | None
    certificates: tuple[tuple[int, ...], ...]
    nodes: int
    complete: bool
    cursor: int | None


def _write_checkpoint(path: str, certs: list[tuple[int, ...]], **fields) -> None:
    """Atomically write CHECKPOINT_FIELDS, each given by keyword, then the certificates."""
    lines = [CHECKPOINT_HEADER]
    lines += [f"{key} {fields[key]}" for key in CHECKPOINT_FIELDS]
    lines += ["cert " + " ".join(str(v) for v in c) for c in sorted(certs)]
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def _load_checkpoint(path: str, objective: str, k: int, universe: int):
    """(cursor, nodes, minimum, certificates) from a checkpoint file, which comes
    from outside the program: every field is checked, every certificate re-evaluated,
    and a repeated field or an unknown key is refused with its line number."""

    def bad(why: str) -> ValueError:
        return ValueError(f"checkpoint {path}: {why}")

    def integer(what: str, text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise bad(f"{what} {text!r} is not an integer") from None

    try:
        with open(path, encoding="ascii") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError as exc:
        raise bad(f"byte {exc.object[exc.start]:#04x} is not ASCII") from None
    if not lines or lines[0] != CHECKPOINT_HEADER:
        raise bad("not a recognized checkpoint file: "
                  f"the first line is not {CHECKPOINT_HEADER!r}")
    fields: dict[str, str] = {}
    certs: list[tuple[int, ...]] = []
    for number, ln in enumerate(lines[1:], start=2):
        key, _, rest = ln.partition(" ")
        if key == "cert":
            certs.append(tuple(integer("certificate value", v) for v in rest.split()))
        elif key in fields:
            raise bad(f"line {number}: repeated {key} field")
        elif key in CHECKPOINT_FIELDS:
            fields[key] = rest
        elif ln:
            raise bad(f"line {number}: unknown key {key!r}")
    expect = {"objective": objective, "k": str(k), "universe": str(universe)}
    for key in CHECKPOINT_FIELDS:
        if key not in fields:
            raise bad(f"no {key} field")
        if key in expect and fields[key] != expect[key]:
            raise bad(f"written for {key} {fields[key]!r}, not {expect[key]!r}")
    cursor, nodes = integer("cursor", fields["cursor"]), integer("nodes", fields["nodes"])
    minimum = None if fields["minimum"] == "-" else integer("minimum", fields["minimum"])
    if not 1 <= cursor <= universe - k + 1 or nodes < 0:
        raise bad(f"cursor {cursor} is outside 1..{universe - k + 1} "
                  f"or node count {nodes} is negative")
    if minimum is None or not certs:  # the first subtree always holds (1, ..., k)
        raise bad("a minimum needs certificates, and vice versa")
    for cert in certs:
        if len(cert) != k or list(cert) != sorted(set(cert)) or not (
            1 <= cert[0] <= cursor and cert[-1] <= universe
        ):
            raise bad(f"certificate {cert} is not an increasing {k}-subset of 1..{universe} "
                      "starting at or before the cursor")
        if (value := OBJECTIVES[objective].value(FinSet(cert))) != minimum:
            raise bad(f"certificate {cert} has {objective} value {value}, "
                      f"not the minimum {minimum}")
    return cursor, nodes, minimum, certs


def search_min(
    objective: str,
    k: int,
    universe: int,
    *,
    threads: int = 1,
    node_budget: int | None = None,
    checkpoint_path: str | None = None,
) -> SearchResult:
    """Exact minimum of f or g over all k-subsets of {1,...,universe}.

    Finds every minimizing set by one depth-first walk in ascending order,
    with one incumbent for the whole search: the value of (1,...,k), which no
    minimizer exceeds, or a resumed checkpoint's minimum, lowered to each
    better leaf.  Each child of a prefix is one node.  The children are scored
    from their parent's state in one call, by their completion bounds or, at a
    leaf, their values, and a child is dropped when its score exceeds the
    incumbent, so every tied minimizer is kept.  The node budget caps nodes,
    as if checked before each child: the dropped children between two
    survivors are counted at once, and a budget that runs out among them
    stops the walk with nodes equal to the budget.  Without a budget the size
    cap is the budget.  A spent budget yields complete=False with the partial
    minimum, never a silent answer.  The root's children are stepped one at
    a time, and the cursor and the checkpoint advance after each, so a resumed
    run walks exactly as an uninterrupted one.  threads must be >= 1 and does
    not change the walk or its result.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be 'f' or 'g', got {objective!r}")
    if k < 1:
        raise ValueError(f"subset size must be >= 1, got {k}")
    if universe < k:
        raise ValueError(f"universe bound {universe} is below the subset size {k}")
    if threads < 1:
        raise ValueError(f"thread count must be >= 1, got {threads}")
    if node_budget is not None and node_budget < 0:
        raise ValueError("node budget must be >= 0")

    value, empty, grow, scores = OBJECTIVES[objective]
    cap = size_cap() if node_budget is None else node_budget
    cursor = nodes = 0
    best = value(FinSet(range(1, k + 1)))
    certs: list[tuple[int, ...]] = []
    if checkpoint_path and os.path.exists(checkpoint_path):
        cursor, nodes, best, certs = _load_checkpoint(checkpoint_path, objective, k, universe)

    def walk(state, prefix: tuple[int, ...], xs: range) -> bool:
        """Score the children prefix + (x,), x in xs, in one call, then grow or
        record each survivor still at or below the incumbent.  The dropped
        children are counted in bulk, as if the budget were checked before
        each child; False once it stops the walk."""
        nonlocal best, certs, nodes
        missing = k - len(prefix) - 1
        done = xs.start  # the children before it are counted
        for x, score in scores(state, xs, missing, best):
            if nodes + x + 1 - done > cap:  # the budget runs out at or before x
                nodes = max(nodes, cap)  # a resumed count may be past it already
                return False
            nodes += x + 1 - done  # the dropped children before x, then x
            done = x + 1
            if score > best:  # the incumbent fell since the call
                continue
            if missing:
                # each grandchild leaves room for the rest
                if not walk(grow(state, x), prefix + (x,), range(x + 1, universe - missing + 2)):
                    return False
            elif score < best:
                best, certs = score, [prefix + (x,)]
            else:
                certs.append(prefix + (x,))
        if nodes + xs.stop - done > cap:
            nodes = max(nodes, cap)
            return False
        nodes += xs.stop - done
        return True

    # the root's children one at a time: the cursor and the checkpoint advance after each
    complete = True
    for x in range(cursor + 1, universe - k + 2):
        if not walk(empty, (), range(x, x + 1)):
            complete = False
            break
        cursor = x
        if checkpoint_path:
            _write_checkpoint(checkpoint_path, certs, objective=objective, k=k,
                              universe=universe, cursor=cursor, nodes=nodes, minimum=best)
    return SearchResult(
        objective=objective,
        k=k,
        universe=universe,
        minimum=best if certs else None,
        certificates=tuple(sorted(set(certs))),
        nodes=nodes,
        complete=complete,
        cursor=cursor or None,
    )


def _gated(name: str, gate_met: bool, lhs, rhs, relation: str, witness: dict) -> Verdict:
    """A verdict on the gate; the comparison is kept in the witness as raw."""
    from .verdicts import HYPOTHESIS_NOT_MET, Verdict, compare

    raw = compare(lhs, rhs, relation)
    return Verdict(name, lhs, rhs, raw if gate_met else HYPOTHESIS_NOT_MET, dict(witness, raw=raw))


def verify_section3(j: int, eps3: Fraction | int = Fraction(1, 10)) -> list[Verdict]:
    """Growth-rate battery for the grid example at parameter j.

    Two log identities are decided unconditionally, on their exact preimage
    k = |A| = j^j.  The remaining bounds are gated on ln j / ln ln j > 1/eps3,
    reported hypothesis-not-met when the gate fails (always at small j), with
    the raw comparison kept in the witness.  Exact closure sizes are counted,
    and neither closure is built: |A[1]| by exactset._box_size and |A{1}| by
    vector_simple_sum_count.  Logs are 200-bit enclosures.
    """
    # a search never decides a verdict, so it does not load the verdicts layer
    from .verdicts import TRUE, Verdict, compare, log_of, power_of, verdict_from_compare

    if j < 2:
        raise ValueError(f"need j >= 2, got {j}")
    eps3 = Fraction(eps3)
    if eps3 <= 0:
        raise ValueError(f"eps3 must be positive, got {eps3}")
    a = es_example(j)
    k = a.size
    ln_j = log_of(j)
    ln_ln_j = log_of(ln_j)
    ln_k = log_of(k)
    ln_ln_k = log_of(ln_k)
    gate_lhs = ln_j / ln_ln_j
    gate_rhs = 1 / eps3
    base_wit = {"j": j, "k": k, "eps3": eps3}
    gate = verdict_from_compare("section3.gate", gate_lhs, gate_rhs, ">", dict(base_wit))
    gate_met = gate.holds == TRUE

    out = [gate]
    # ln is injective, so ln k = j ln j and its log, ln ln k = ln j + ln ln j,
    # each hold exactly when k = j^j; the enclosures are only printed.
    identity = compare(k, j**j, "==")
    out.append(Verdict("section3.logk_identity", ln_k, j * ln_j, identity, dict(base_wit)))
    out.append(
        Verdict(
            "section3.loglogk_identity", ln_ln_k, ln_j + ln_ln_j, identity, dict(base_wit)
        )
    )
    out.append(
        _gated(
            "section3.loglogk_bound",
            gate_met,
            ln_ln_k,
            (1 + eps3) * ln_j,
            "<",
            base_wit,
        )
    )
    ratio = ln_k / ln_ln_k
    out.append(
        _gated("section3.j_bound", gate_met, j, (1 + eps3) * ratio, "<", base_wit)
    )
    eps_prime = 2 * eps3 + eps3 * eps3
    out.append(
        _gated(
            "section3.j_squared_bound",
            gate_met,
            j * j,
            (1 + eps_prime) * ratio * ratio,
            "<",
            dict(base_wit, eps_prime=eps_prime),
        )
    )
    max_elem = int(a.max())
    log_pow = power_of(ln_k, j * j)
    out.append(
        _gated(
            "section3.max_element_bound",
            gate_met,
            max_elem,
            log_pow,
            "<",
            base_wit,
        )
    )
    simple_sums = _box_size(a._ints, "simple sum closure")
    out.append(
        _gated(
            "section3.simple_sum_bound",
            gate_met,
            simple_sums,
            k * log_pow,
            "<",
            base_wit,
        )
    )
    simple_prods = vector_simple_sum_count(a)
    out.append(
        _gated(
            "section3.simple_product_bound",
            gate_met,
            simple_prods,
            (k * j) ** j,
            "<",
            base_wit,
        )
    )
    eps = 3 * eps3 + eps3 * eps3
    growth_rhs = 2 * power_of(k, (1 + eps) * ratio)
    out.append(
        _gated(
            "section3.growth_bound",
            gate_met,
            simple_sums + simple_prods,
            growth_rhs,
            "<",
            dict(base_wit, eps=eps, dim=mult_dim(a).dimension),
        )
    )
    return out
