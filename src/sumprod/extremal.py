"""Grid examples, the f/g objectives, exhaustive minimizer search, and the
growth-rate verdict battery for the prime-grid construction.

f(A) = |2A u A*A| and g(A) = |A[1]| + |A{1}| (simple sums plus simple
products).  search_min minimizes either objective exactly over all
k-subsets of {1,...,N} with pruning that preserves every minimizer, a
deterministic result regardless of thread count, and an optional resumable
checkpoint.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import comb, prod

from .exactset import FinSet, _require_positive_integers, simple_closure
from .limits import CapExceeded, check_size, size_cap
from .arith import first_primes, mult_dim
from .verdicts import (
    Verdict,
    compare,
    log_of,
    power_of,
    unmet,
    verdict_from_compare,
)

CHECKPOINT_HEADER = "sumprod search checkpoint v1"


@dataclass(frozen=True)
class ExampleSpec:
    """Parameters of the prime-grid construction: first j primes, exponents
    0..j-1, giving j^j elements."""

    j: int
    k: int
    primes: tuple[int, ...]

    @classmethod
    def for_j(cls, j: int) -> "ExampleSpec":
        if j < 1:
            raise ValueError(f"grid parameter must be >= 1, got {j}")
        return cls(j=j, k=j**j, primes=tuple(first_primes(j)))


def es_example(j: int) -> FinSet:
    """The grid set {p1^e1 * ... * pj^ej : 0 <= e_i < j}, size j^j."""
    spec = ExampleSpec.for_j(j)
    check_size(spec.k, "grid example")
    values = [
        prod(p**e for p, e in zip(spec.primes, exps))
        for exps in iproduct(range(spec.j), repeat=spec.j)
    ]
    return FinSet(values)


def f_value(a: FinSet) -> int:
    """|2A u A*A| exactly."""
    _require_positive_integers(a, "the f objective")
    return _f_tuple(a._ints)


def g_value(a: FinSet) -> int:
    """|A[1]| + |A{1}| exactly: subset sums plus subset products."""
    _require_positive_integers(a, "the g objective")
    return simple_closure(a, "sum").size + simple_closure(a, "product").size


def _f_tuple(elems: tuple[int, ...]) -> int:
    """|2A u A*A| for a tuple of distinct positive ints."""
    sums = {x + y for x in elems for y in elems}
    prods = {x * y for x in elems for y in elems}
    return len(sums | prods)


def _g_tuple(elems: tuple[int, ...]) -> int:
    bits = 1
    for e in elems:
        bits |= bits << e
    frontier = {1}
    for e in elems:
        frontier |= {v * e for v in frontier}
    return bits.bit_count() + len(frontier)


# The objectives on ascending tuples of distinct positive ints, by name.
OBJECTIVES = {"f": _f_tuple, "g": _g_tuple}


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exhaustive k-subset minimization over [1, universe].

    minimum/certificates describe the explored region only when complete is
    False; nodes counts evaluated leaves; cursor is the last first element
    whose subtree was fully merged (resume point).
    """

    objective: str
    k: int
    universe: int
    minimum: int | None
    certificates: tuple[tuple[int, ...], ...]
    nodes: int
    complete: bool
    cursor: int | None


def _explore_first(obj_fn, k: int, n: int, first: int, leaf_cap: int | None):
    """Exhaust all k-subsets starting at `first`, smallest element fixed.

    Pruning drops a branch only when the prefix value strictly exceeds the
    subtree's best, which keeps every tied minimizer.  Returns
    (best, certificates, leaves evaluated, truncated flag).
    """
    best: int | None = None
    certs: list[tuple[int, ...]] = []
    leaves = 0
    truncated = False

    def rec(prefix: tuple[int, ...], start: int) -> bool:
        nonlocal best, certs, leaves, truncated
        if len(prefix) == k:
            if leaf_cap is not None and leaves >= leaf_cap:
                truncated = True
                return False
            leaves += 1
            v = obj_fn(prefix)
            if best is None or v < best:
                best, certs = v, [prefix]
            elif v == best:
                certs.append(prefix)
            return True
        if best is not None and obj_fn(prefix) > best:
            return True
        for x in range(start, n - (k - len(prefix)) + 2):
            if not rec(prefix + (x,), x + 1):
                return False
        return True

    rec((first,), first + 1)
    return best, certs, leaves, truncated


def _checkpoint_lines(
    objective: str, k: int, universe: int, cursor: int, nodes: int,
    minimum: int | None, certs: list[tuple[int, ...]],
) -> str:
    lines = [
        CHECKPOINT_HEADER,
        f"objective {objective}",
        f"k {k}",
        f"universe {universe}",
        f"cursor {cursor}",
        f"nodes {nodes}",
        f"minimum {'-' if minimum is None else minimum}",
    ]
    lines += ["cert " + " ".join(str(v) for v in c) for c in sorted(certs)]
    return "\n".join(lines) + "\n"


def _write_checkpoint(path: str, content: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(content)
    os.replace(tmp, path)


def _load_checkpoint(path: str, objective: str, k: int, universe: int):
    with open(path, encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != CHECKPOINT_HEADER:
        raise ValueError(f"{path} is not a recognized checkpoint file")
    fields: dict[str, str] = {}
    certs: list[tuple[int, ...]] = []
    for ln in lines[1:]:
        if not ln:
            continue
        key, _, rest = ln.partition(" ")
        if key == "cert":
            certs.append(tuple(int(v) for v in rest.split()))
        else:
            fields[key] = rest
    expect = {"objective": objective, "k": str(k), "universe": str(universe)}
    for key, want in expect.items():
        if fields.get(key) != want:
            raise ValueError(
                f"checkpoint {path} was written for "
                f"{fields.get(key)!r}, not {want!r} ({key})"
            )
    minimum = None if fields["minimum"] == "-" else int(fields["minimum"])
    return int(fields["cursor"]), int(fields["nodes"]), minimum, certs


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

    Finds every minimizing set.  Work splits into one subtree per smallest
    element; each subtree is explored with subtree-local pruning only, so
    its outcome never depends on scheduling, and the merge walks subtrees
    in order.  The leaf budget is therefore enforced at subtree
    granularity: results are identical for any thread count.  A breached
    budget yields complete=False with the partial minimum, never a silent
    answer.
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
    if node_budget is None and comb(universe, k) > size_cap():
        raise CapExceeded(
            f"search space C({universe},{k}) exceeds the size cap; pass a node budget"
        )
    obj_fn = OBJECTIVES[objective]

    start_first = 1
    nodes = 0
    best: int | None = None
    certs: list[tuple[int, ...]] = []
    if checkpoint_path and os.path.exists(checkpoint_path):
        cursor, nodes, best, certs = _load_checkpoint(
            checkpoint_path, objective, k, universe
        )
        start_first = cursor + 1

    firsts = list(range(start_first, universe - k + 2))
    complete = True
    last_cursor: int | None = start_first - 1 if start_first > 1 else None

    def merge(first: int, result) -> bool:
        """Fold one subtree into the running answer; False stops the walk."""
        nonlocal nodes, best, certs, complete, last_cursor
        sub_best, sub_certs, sub_leaves, truncated = result
        if node_budget is not None and nodes >= node_budget:
            complete = False
            return False
        nodes += sub_leaves
        if sub_best is not None:
            if best is None or sub_best < best:
                best, certs = sub_best, list(sub_certs)
            elif sub_best == best:
                certs.extend(sub_certs)
        if truncated:
            complete = False
            return False
        last_cursor = first
        if checkpoint_path:
            _write_checkpoint(
                checkpoint_path,
                _checkpoint_lines(
                    objective, k, universe, first, nodes, best, certs
                ),
            )
        return True

    if threads == 1:
        for first in firsts:
            if node_budget is not None and nodes >= node_budget:
                complete = False
                break
            result = _explore_first(obj_fn, k, universe, first, node_budget)
            if not merge(first, result):
                break
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_explore_first, obj_fn, k, universe, first, node_budget)
                for first in firsts
            ]
            try:
                for first, fut in zip(firsts, futures):
                    if not merge(first, fut.result()):
                        break
            finally:
                for fut in futures:
                    fut.cancel()

    return SearchResult(
        objective=objective,
        k=k,
        universe=universe,
        minimum=best,
        certificates=tuple(sorted(set(certs))),
        nodes=nodes,
        complete=complete,
        cursor=last_cursor,
    )


def _gated(name: str, gate_met: bool, lhs, rhs, relation: str, witness: dict) -> Verdict:
    """A verdict on the gate; the comparison is kept in the witness as raw."""
    witness = dict(witness, raw=compare(lhs, rhs, relation))
    if gate_met:
        return verdict_from_compare(name, lhs, rhs, relation, witness)
    return unmet(name, lhs, rhs, witness)


def verify_section3(j: int, eps3: Fraction | int = Fraction(1, 10)) -> list[Verdict]:
    """Growth-rate battery for the grid example at parameter j.

    Two log identities are checked unconditionally; the remaining bounds
    are gated on ln j / ln ln j > 1/eps3, reported hypothesis-not-met when
    the gate fails (always at small j), with the raw comparison kept in the
    witness.  Exact set sizes come from the closure engines; logs are
    200-bit enclosures.
    """
    if j < 2:
        raise ValueError(f"need j >= 2, got {j}")
    eps3 = Fraction(eps3)
    if eps3 <= 0:
        raise ValueError(f"eps3 must be positive, got {eps3}")
    a = es_example(j)
    k = j**j
    ln_j = log_of(j)
    ln_ln_j = log_of(ln_j)
    ln_k = log_of(k)
    ln_ln_k = log_of(ln_k)
    gate_lhs = ln_j / ln_ln_j
    gate_rhs = 1 / eps3
    gate_status = compare(gate_lhs, gate_rhs, ">")
    gate_met = gate_status == "true"

    out: list[Verdict] = []
    base_wit = {"j": j, "k": k, "eps3": eps3}
    out.append(
        verdict_from_compare(
            "section3.gate", gate_lhs, gate_rhs, ">", dict(base_wit)
        )
    )
    out.append(
        verdict_from_compare(
            "section3.logk_identity", ln_k, j * ln_j, "==", dict(base_wit)
        )
    )
    out.append(
        verdict_from_compare(
            "section3.loglogk_identity",
            ln_ln_k,
            ln_j + ln_ln_j,
            "==",
            dict(base_wit),
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
    simple_sums = simple_closure(a, "sum").size
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
    simple_prods = simple_closure(a, "product").size
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
