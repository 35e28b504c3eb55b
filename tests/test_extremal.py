"""Extremal example grids, objective search, and the log-scale verdict battery."""

import os
import subprocess
import sys
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import inf, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sumprod import exactset, extremal
from sumprod.arith import first_primes, mult_dim
from sumprod.exactset import FinSet, simple_closure
from sumprod.extremal import (
    es_example,
    f_value,
    g_value,
    search_min,
    verify_section3,
)
from sumprod.limits import CapExceeded

F = Fraction


def fs(*values) -> FinSet:
    return FinSet(F(v) for v in values)


# --- the k = J^J grids -----------------------------------------------------------


def test_example_spec():
    assert es_example(3).size == 27
    assert first_primes(3) == (2, 3, 5)


def test_es_example_j1():
    assert es_example(1) == fs(1)


def test_es_example_j2():
    a = es_example(2)
    assert a.size == 4
    assert a == fs(1, 2, 3, 6)
    assert mult_dim(a).dimension == 2


def test_es_example_j3():
    a = es_example(3)
    assert a.size == 27
    assert a.min() == 1 and a.max() == 900
    assert mult_dim(a).dimension == 3
    # closure sizes frozen from direct enumeration
    assert simple_closure(a, "sum").size == 2822
    assert simple_closure(a, "product").size == 7570


def test_es_example_rejects_bad_j():
    with pytest.raises(ValueError):
        es_example(0)


# --- objectives -------------------------------------------------------------------


def test_f_value_examples():
    assert f_value(fs(1, 2, 3)) == 7
    assert f_value(fs(2, 4, 8)) == 8
    assert f_value(fs(1)) == 2
    assert f_value(fs(2)) == 1  # 2+2 = 2*2 collapses the union


def test_f_value_matches_oracle():
    for tup in oracles.subsets(range(1, 9), 3):
        a = FinSet(F(v) for v in tup)
        assert f_value(a) == oracles.o_f(tup)


def test_g_value_examples():
    assert g_value(fs(1, 2, 3, 6)) == 13 + 7
    assert g_value(fs(1)) == 3  # {0,1} sums plus {1} products
    assert g_value(fs(1, 2, 3)) == 11


def test_g_value_matches_oracle():
    for tup in oracles.subsets(range(1, 9), 3):
        a = FinSet(F(v) for v in tup)
        assert g_value(a) == oracles.o_g([F(v) for v in tup])


def test_g_value_on_j3_grid_agrees_with_closures():
    a = es_example(3)
    want = simple_closure(a, "sum").size + simple_closure(a, "product").size
    assert g_value(a) == want == 10392


def test_closure_sizes_build_no_closure(monkeypatch):
    # every closure set is made by exactset._from_ints; the sizes are counted
    def refuse(*args, **kwargs):
        raise AssertionError("a closure was built for its size")

    a = es_example(3)
    monkeypatch.setattr(exactset, "_from_ints", refuse)
    assert g_value(a) == 10392
    assert [v.lhs for v in verify_section3(3)][-3:] == [2822, 7570, 10392]


# --- exhaustive search ----------------------------------------------------------------


def test_search_f_3_of_20():
    res = search_min("f", 3, 20)
    assert res.complete
    assert res.minimum == 7
    assert res.certificates == ((1, 2, 3),)
    want_min, want_certs = oracles.o_search(oracles.o_f, 3, 20)
    assert res.minimum == want_min
    assert list(res.certificates) == want_certs


def test_search_g_3_of_20():
    res = search_min("g", 3, 20)
    want_min, want_certs = oracles.o_search(lambda t: oracles.o_g([F(v) for v in t]), 3, 20)
    assert res.minimum == want_min == 11
    assert list(res.certificates) == want_certs
    assert len(res.certificates) == 18


def test_search_singleton_universe():
    res = search_min("f", 1, 5)
    assert res.minimum == 1
    assert res.certificates == ((2,),)


def test_search_thread_counts_agree():
    results = [search_min("f", 3, 12, threads=t) for t in (1, 2, 8)]
    first = results[0]
    for other in results[1:]:
        assert other.minimum == first.minimum
        assert other.certificates == first.certificates
        assert other.nodes == first.nodes
        assert other.complete


def test_search_invalid_arguments():
    with pytest.raises(ValueError):
        search_min("h", 2, 5)
    with pytest.raises(ValueError):
        search_min("f", 0, 5)
    with pytest.raises(ValueError):
        search_min("f", 6, 5)
    with pytest.raises(ValueError, match="thread count must be >= 1, got 0"):
        search_min("f", 3, 12, threads=0)
    with pytest.raises(ValueError, match="node budget must be >= 0"):
        search_min("f", 3, 12, node_budget=-1)


def test_search_cap_without_budget(monkeypatch):
    """Without a node budget the size cap is the budget, on nodes, not on C(N, k)."""
    monkeypatch.setenv("SUMPROD_BUDGET", "1000")
    res = search_min("f", 3, 20)  # C(20, 3) = 1140 subsets
    assert (res.complete, res.nodes, res.minimum) == (True, 396, 7)
    monkeypatch.setenv("SUMPROD_BUDGET", "10")
    res = search_min("f", 3, 20)
    assert (res.complete, res.nodes) == (False, 10)


def test_search_budget_yields_incomplete():
    res = search_min("f", 3, 20, node_budget=50)
    assert not res.complete
    assert res.nodes == 50
    # partial minimum is an upper bound for the true minimum
    assert res.minimum is None or res.minimum >= 7


def test_search_checkpoint_resume(tmp_path):
    cp = tmp_path / "state.txt"
    partial = search_min("f", 3, 12, node_budget=60, checkpoint_path=str(cp))
    assert not partial.complete
    assert cp.exists()
    resumed = search_min("f", 3, 12, checkpoint_path=str(cp))
    assert resumed.complete
    fresh = search_min("f", 3, 12)
    assert resumed.minimum == fresh.minimum
    assert resumed.certificates == fresh.certificates


def test_search_checkpoint_mismatch_rejected(tmp_path):
    cp = tmp_path / "state.txt"
    search_min("f", 3, 12, node_budget=60, checkpoint_path=str(cp))
    with pytest.raises(ValueError):
        search_min("g", 3, 12, checkpoint_path=str(cp))
    with pytest.raises(ValueError):
        search_min("f", 2, 12, checkpoint_path=str(cp))


def test_search_checkpoint_garbage_rejected(tmp_path):
    cp = tmp_path / "state.txt"
    cp.write_text("not a checkpoint\n")
    with pytest.raises(ValueError):
        search_min("f", 3, 12, checkpoint_path=str(cp))


CHECKPOINT_F_3_12 = (
    "sumprod search checkpoint v2\n"
    "objective f\nk 3\nuniverse 12\ncursor 1\nnodes 21\nminimum 7\ncert 1 2 3\n"
)


def test_search_checkpoint_fixture_is_what_a_budgeted_run_writes(tmp_path):
    cp = tmp_path / "state.txt"
    search_min("f", 3, 12, node_budget=60, checkpoint_path=str(cp))
    assert cp.read_text() == CHECKPOINT_F_3_12
    resumed = search_min("f", 3, 12, checkpoint_path=str(cp))
    assert resumed == search_min("f", 3, 12)


def test_search_checkpoint_writer_needs_every_field(tmp_path):
    cp = tmp_path / "state.txt"
    fields = dict(objective="f", k=3, universe=12, cursor=1, nodes=21)
    with pytest.raises(KeyError, match="minimum"):
        extremal._write_checkpoint(str(cp), [(1, 2, 3)], **fields)
    assert not cp.exists() and not (tmp_path / "state.txt.tmp").exists()
    extremal._write_checkpoint(str(cp), [(1, 2, 3)], **fields, minimum=7)
    assert cp.read_text() == CHECKPOINT_F_3_12


def _resume_edited(tmp_path, old, new):
    cp = tmp_path / "state.txt"
    assert old in CHECKPOINT_F_3_12
    cp.write_text(CHECKPOINT_F_3_12.replace(old, new))
    return search_min("f", 3, 12, checkpoint_path=str(cp))


@pytest.mark.parametrize("field", ["objective", "k", "universe", "cursor", "nodes", "minimum"])
def test_search_checkpoint_missing_field_rejected(tmp_path, field):
    line = next(ln for ln in CHECKPOINT_F_3_12.splitlines() if ln.startswith(field + " "))
    with pytest.raises(ValueError, match=f"no {field} field"):
        _resume_edited(tmp_path, line + "\n", "")


@pytest.mark.parametrize("cursor", ["0", "-1", "11", "99"])
def test_search_checkpoint_cursor_out_of_range_rejected(tmp_path, cursor):
    with pytest.raises(ValueError, match="outside 1..10"):
        _resume_edited(tmp_path, "cursor 1\n", f"cursor {cursor}\n")


def test_search_checkpoint_negative_node_count_rejected(tmp_path):
    with pytest.raises(ValueError, match="node count -1 is negative"):
        _resume_edited(tmp_path, "nodes 21\n", "nodes -1\n")


@pytest.mark.parametrize(
    "old, new, why",
    [
        ("cursor 1\n", "cursor x\n", "cursor 'x' is not an integer"),
        ("nodes 21\n", "nodes 2.5\n", "nodes '2.5' is not an integer"),
        ("minimum 7\n", "minimum seven\n", "minimum 'seven' is not an integer"),
        ("cert 1 2 3\n", "cert 1 2 z\n", "certificate value 'z' is not an integer"),
    ],
    ids=["cursor", "nodes", "minimum", "cert"],
)
def test_search_checkpoint_non_integer_rejected_by_name(tmp_path, old, new, why):
    with pytest.raises(ValueError, match=f"^checkpoint .*state.txt: {why}$"):
        _resume_edited(tmp_path, old, new)


def test_search_checkpoint_non_ascii_rejected_by_name(tmp_path):
    cp = tmp_path / "state.txt"
    cp.write_bytes(CHECKPOINT_F_3_12.replace("cert 1 2 3", "cert 1 2 3\xe9").encode("latin-1"))
    with pytest.raises(ValueError, match="^checkpoint .*state.txt: byte 0xe9 is not ASCII$"):
        search_min("f", 3, 12, checkpoint_path=str(cp))


@pytest.mark.parametrize(
    "old, new, why",
    [
        ("cursor 1\n", "cursor 1\ncursor 5\n", "line 6: repeated cursor field"),
        ("minimum 7\n", "minimum 7\nminimum 6\n", "line 8: repeated minimum field"),
        ("k 3\n", "k 3\nk 3\n", "line 4: repeated k field"),
        ("cert 1 2 3\n", "cert 1 2 3\nbogus line\n", "line 9: unknown key 'bogus'"),
        ("nodes 21\n", "nodes 21\n cursor 5\n", "line 7: unknown key ''"),
    ],
    ids=["cursor", "minimum", "same-value", "unknown", "indented"],
)
def test_search_checkpoint_repeated_or_unknown_key_rejected_by_line(tmp_path, old, new, why):
    with pytest.raises(ValueError, match=f"^checkpoint .*state.txt: {why}$"):
        _resume_edited(tmp_path, old, new)


def test_search_checkpoint_edited_cursor_cannot_skip_subtrees(tmp_path):
    """A second cursor line once won, so a resume skipped subtrees 1..4 and
    still reported a complete search.  Blank lines stay allowed."""
    with pytest.raises(ValueError, match="line 6: repeated cursor field"):
        _resume_edited(tmp_path, "cursor 1\n", "cursor 1\ncursor 5\nbogus line\n")
    assert _resume_edited(tmp_path, "cursor 1\n", "\ncursor 1\n\n") == search_min("f", 3, 12)


def test_search_checkpoint_minimum_without_certificates_rejected(tmp_path):
    with pytest.raises(ValueError, match="a minimum needs certificates"):
        _resume_edited(tmp_path, "cert 1 2 3\n", "")


def test_search_checkpoint_certificates_without_minimum_rejected(tmp_path):
    with pytest.raises(ValueError, match="a minimum needs certificates"):
        _resume_edited(tmp_path, "minimum 7\n", "minimum -\n")


@pytest.mark.parametrize(
    "cert", ["1 3 2", "1 2", "1 2 3 4", "0 1 2", "1 2 13", "3 4 5", "1 1 2", ""]
)
def test_search_checkpoint_malformed_certificate_rejected(tmp_path, cert):
    with pytest.raises(ValueError, match="not an increasing 3-subset of 1..12"):
        _resume_edited(tmp_path, "cert 1 2 3\n", f"cert {cert}\n")


def test_search_checkpoint_certificate_off_the_minimum_rejected(tmp_path):
    with pytest.raises(ValueError, match="f value 8, not the minimum 7"):
        _resume_edited(tmp_path, "cert 1 2 3\n", "cert 1 2 3\ncert 1 2 4\n")
    with pytest.raises(ValueError, match="f value 7, not the minimum 6"):
        _resume_edited(tmp_path, "minimum 7\n", "minimum 6\n")


# --- the subtree walk: incremental states against whole-tuple objectives --------------------

ORACLE_OBJECTIVES = {"f": oracles.o_f, "g": oracles.o_g}
ORACLE_LOWER = {"f": oracles.o_f_lower, "g": oracles.o_g_lower}


def _score(inc, state, x: int, missing: int) -> int:
    """The bound of the one child x, scored alone against an incumbent no score exceeds."""
    ((child, score),) = inc.scores(state, range(x, x + 1), missing, inf)
    assert child == x
    return score


@pytest.mark.parametrize("objective", ["f", "g"])
@given(
    tup=st.lists(st.integers(1, 30), max_size=6, unique=True).map(sorted).map(tuple),
    far=st.integers(1, 10**9),
)
# the f count skips the product x*2, which equals the sum x+x: x = 2, a prefix
# holding 2 (with 2x = 12 = 3*4 already in 2P u P*P), and x = 1
@example(tup=(2,), far=1)
@example(tup=(1, 2), far=2)
@example(tup=(2, 3, 4, 6), far=1)
@example(tup=(), far=1)
@settings(max_examples=60, deadline=None)
def test_incremental_state_matches_whole_tuple_objective(objective, tup, far):
    inc = extremal.OBJECTIVES[objective]
    oracle = ORACLE_OBJECTIVES[objective]
    state = inc.empty
    for i, x in enumerate(tup):
        child = tup[: i + 1]
        assert _score(inc, state, x, 0) == inc.value(FinSet(child)) == oracle(child), child
        state = inc.grow(state, x)
    top = tup[-1] if tup else 0
    for x in [*range(top + 1, top * top + 2), top + far]:
        assert _score(inc, state, x, 0) == inc.value(FinSet(tup + (x,))), x
    far_child = tup + (top + far,)
    assert inc.value(FinSet(far_child)) == oracle(far_child)


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("objective", ["f", "g"])
def test_search_matches_oracle_walk_at_every_budget(objective, k):
    obj = cache(ORACLE_OBJECTIVES[objective])
    lower = cache(ORACLE_LOWER[objective])
    for n in range(k, 15):
        total = oracles.o_search_walk(obj, lower, k, n, None)[2]
        for budget in range(total + 2):
            res = search_min(objective, k, n, node_budget=budget)
            got = (res.minimum, list(res.certificates), res.nodes, res.complete, res.cursor)
            want = oracles.o_search_walk(obj, lower, k, n, budget)
            assert got == want, (n, budget)


@pytest.mark.parametrize("objective", ["f", "g"])
def test_completion_bounds_never_exceed_a_completion(objective):
    inc = extremal.OBJECTIVES[objective]
    obj = cache(ORACLE_OBJECTIVES[objective])
    lower = cache(ORACLE_LOWER[objective])
    for k in range(2, 7):
        for tup in combinations(range(1, 14), k):
            state = inc.empty
            for d, x in enumerate(tup[:-1], start=1):
                bound = _score(inc, state, x, k - d)  # from the parent's state
                assert bound == lower(tup[:d], k - d), (tup, d)
                assert bound <= obj(tup), (tup, d)
                state = inc.grow(state, x)


@pytest.mark.parametrize("objective", ["f", "g"])
@given(
    prefix=st.lists(st.integers(1, 12), max_size=4, unique=True).map(sorted).map(tuple),
    missing=st.integers(0, 3),
    edge=st.integers(0, 4),
    offset=st.integers(-8, 8),
    length=st.integers(0, 60),
    incumbent=st.sampled_from(["on", "below", "any"]),
    pick=st.integers(0, 10**6),
)
# x = 2, whose product x*x is its sum x+x
@example(prefix=(1,), missing=0, edge=0, offset=0, length=3, incumbent="any", pick=10)
@example(prefix=(), missing=1, edge=0, offset=0, length=3, incumbent="on", pick=1)
@example(prefix=(1,), missing=2, edge=0, offset=0, length=40, incumbent="below", pick=0)
# x = 8, whose sum x+x is the product 4*4 of its parent (4,)
@example(prefix=(4,), missing=0, edge=0, offset=0, length=20, incumbent="on", pick=3)
@settings(max_examples=150, deadline=None)
def test_scores_keep_exactly_the_children_at_or_below_the_incumbent(
    objective, prefix, missing, edge, offset, length, incumbent, pick
):
    """scores against the oracle bounds, child by child: on random prefixes,
    on ranges next to the prefix and around its largest sums and products
    (past them a child adds only new values), and at incumbents equal to a
    child's bound and just below it."""
    inc = extremal.OBJECTIVES[objective]
    obj, lower = ORACLE_OBJECTIVES[objective], ORACLE_LOWER[objective]
    state = inc.empty
    for x in prefix:
        state = inc.grow(state, x)
    low = prefix[-1] + 1 if prefix else 1
    start = max(low, [low, 2 * low, low * low, sum(prefix), prod(prefix)][edge] + offset)
    xs = range(start, start + length)
    want = [(x, lower(prefix + (x,), missing) if missing else obj(prefix + (x,))) for x in xs]
    bounds = [b for _, b in want] or [0]
    on = bounds[pick % len(bounds)]
    best = {"on": on, "below": on - 1, "any": pick % (2 * max(bounds) + 1)}[incumbent]
    assert inc.scores(state, xs, missing, best) == [(x, b) for x, b in want if b <= best]


# (prefix, xs, missing, best, scores): the f count skips the product x*2,
# which is the sum x+x, and a child stops counting once it passes the room
# best leaves, so these pin x = 2, prefixes holding 2, an unbounded
# incumbent, an incumbent below the base len(u) + 2*missing, and children
# kept with a score equal to the incumbent.
F_SCORES = [
    ((), range(1, 4), 0, 1, [(2, 1)]),
    ((1,), range(2, 6), 0, inf, [(2, 4), (3, 6), (4, 6), (5, 6)]),
    ((1, 2), range(3, 8), 0, inf, [(3, 7), (4, 8), (5, 9), (6, 9), (7, 9)]),
    ((2, 3), range(4, 9), 0, 9, [(4, 8), (5, 9), (6, 8), (7, 8), (8, 9)]),
    ((2, 3), range(4, 9), 0, 8, [(4, 8), (6, 8), (7, 8)]),
    ((1, 2, 3), range(4, 12), 1, 8, []),
    ((1, 2, 3), range(4, 12), 0, 11, [(4, 11)]),
]


@pytest.mark.parametrize("prefix, xs, missing, best, want", F_SCORES)
def test_f_scores_pinned(prefix, xs, missing, best, want):
    inc = extremal.OBJECTIVES["f"]
    state = inc.empty
    for x in prefix:
        state = inc.grow(state, x)
    assert inc.scores(state, xs, missing, best) == want


@pytest.mark.parametrize("objective", ["f", "g"])
def test_pruned_search_matches_plain_loop(objective):
    obj = cache(ORACLE_OBJECTIVES[objective])
    for k in range(1, 6):
        for n in range(k, 17):
            res = search_min(objective, k, n)
            assert res.complete
            assert (res.minimum, list(res.certificates)) == oracles.o_search(obj, k, n), (k, n)
        assert {search_min(objective, k, 16, threads=t) for t in (2, 8)} == {res}


# The benchmark's four search points, then two past the oracle walk's n < 15;
# a walk that drifts changes nodes first.
SEARCH_POINTS = {
    ("g", 4, 32): (19, ((1, 2, 3, 4),), 928),
    ("g", 5, 24): (30, ((1, 2, 3, 4, 6),), 2100),
    ("f", 5, 28): (15, ((1, 2, 3, 4, 5), (1, 2, 3, 4, 6)), 9099),
    ("f", 4, 40): (11, ((1, 2, 3, 4),), 19105),
    ("g", 6, 30): (47, ((1, 2, 3, 4, 6, 8),), 24123),
    ("f", 5, 40): (15, ((1, 2, 3, 4, 5), (1, 2, 3, 4, 6)), 28246),
}


@pytest.mark.parametrize("point", SEARCH_POINTS)
def test_search_benchmark_points_are_pinned(point):
    res = search_min(*point)
    assert res.complete
    assert (res.minimum, res.certificates, res.nodes) == SEARCH_POINTS[point]


def test_import_loads_no_process_pool():
    """Neither importing the package nor searching at any thread count, with
    or without a budget, loads a process pool."""
    src = Path(extremal.__file__).resolve().parents[1]
    code = (
        "import sys, sumprod\n"
        "from sumprod.extremal import search_min\n"
        "assert search_min('f', 3, 12, threads=8).complete\n"
        "assert not search_min('f', 3, 12, threads=8, node_budget=60).complete\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr


# --- the subtree walk: budgets, checkpoints and thread counts ------------------------------


def test_search_budget_and_checkpoint_agree_across_worker_counts(tmp_path):
    outcomes = []
    for threads in (1, 2):
        cp = tmp_path / f"state-{threads}.txt"
        partial = search_min(
            "f", 3, 12, threads=threads, node_budget=60, checkpoint_path=str(cp)
        )
        written = cp.read_bytes()
        resumed = search_min("f", 3, 12, threads=threads, checkpoint_path=str(cp))
        outcomes.append((partial, written, resumed, cp.read_bytes()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0].cursor == 1 and not outcomes[0][0].complete


def test_search_spent_budget_builds_no_pool(tmp_path):
    """A spent budget stops the search before its first leaf, at any thread count."""
    res = search_min("f", 3, 12, threads=4, node_budget=0)
    assert (res.complete, res.nodes, res.minimum, res.cursor) == (False, 0, None, None)
    cp = tmp_path / "state.txt"
    cp.write_text(CHECKPOINT_F_3_12)  # nodes 21
    for budget in (21, 5):  # a resumed count at or past the budget is kept
        res = search_min("f", 3, 12, threads=4, node_budget=budget, checkpoint_path=str(cp))
        assert (res.complete, res.nodes, res.cursor) == (False, 21, 1), budget


def test_search_budget_caps_nodes_for_every_worker_count():
    total = search_min("f", 3, 12).nodes
    for budget in range(total + 2):
        one, eight = (search_min("f", 3, 12, threads=t, node_budget=budget) for t in (1, 8))
        assert one == eight
        assert (one.nodes, one.complete) == (min(budget, total), budget >= total), budget


@pytest.mark.parametrize("objective", ["f", "g"])
def test_search_resumed_at_every_budget_equals_a_fresh_run(objective, tmp_path):
    fresh = search_min(objective, 4, 12)
    for budget in range(fresh.nodes):
        cp = tmp_path / f"state-{budget}.txt"
        partial = search_min(objective, 4, 12, node_budget=budget, checkpoint_path=str(cp))
        assert not partial.complete and partial.nodes == budget
        assert search_min(objective, 4, 12, checkpoint_path=str(cp)) == fresh, budget


def test_search_in_process_walks_each_subtree_once(monkeypatch):
    """Each prefix's children are scored in one call, the root's one at a
    time, and a budget stops the walk at exactly its count, with at most one
    call made once the count reached it."""
    calls = []
    inc = extremal.OBJECTIVES["f"]

    def counted(state, xs, *args):
        calls.append((state[0], xs))  # an f state starts with its prefix
        return inc.scores(state, xs, *args)

    monkeypatch.setitem(extremal.OBJECTIVES, "f", inc._replace(scores=counted))
    for budget in (0, 60, 5000):
        calls.clear()
        res = search_min("f", 4, 40, node_budget=budget)
        assert res.nodes == budget
        assert not res.complete
        roots = [xs for prefix, xs in calls if not prefix]
        assert roots == [range(x, x + 1) for x in range(1, len(roots) + 1)]
        scored = Counter(prefix for prefix, _ in calls if prefix)
        assert set(scored.values()) <= {1}
        # children are counted depth first, so when a prefix is scored the
        # count is that of the children scored at or before it in tuple order
        children = sorted(prefix + (x,) for prefix, xs in calls for x in xs)
        late = [prefix for prefix, _ in calls if bisect_right(children, prefix) >= budget]
        assert late in ([], [calls[-1][0]]), budget


def test_f_scores_stop_counting_a_child_once_it_cannot_survive(monkeypatch):
    """A timing-free pin on the f scorer's work: the membership tests in the
    prefix's sums and products over whole searches, against 102,545 and
    54,671 when every child was counted in full."""
    lookups = [0]

    class Counted(frozenset):
        def __contains__(self, value):
            lookups[0] += 1
            return frozenset.__contains__(self, value)

    inc = extremal.OBJECTIVES["f"]

    def counted(state, *args):
        prefix, u = state
        return inc.scores((prefix, Counted(u)), *args)

    monkeypatch.setitem(extremal.OBJECTIVES, "f", inc._replace(scores=counted))
    for point, full, want in [((4, 40), 102_545, 53_738), ((5, 28), 54_671, 36_907)]:
        lookups[0] = 0
        assert search_min("f", *point).nodes == SEARCH_POINTS[("f", *point)][2]
        assert lookups[0] == want < full, point


# --- log-scale identity battery ----------------------------------------------------------


def test_section3_j2_names_and_gate():
    vs = verify_section3(2, F(1, 10))
    names = [v.name for v in vs]
    assert names == [
        "section3.gate",
        "section3.logk_identity",
        "section3.loglogk_identity",
        "section3.loglogk_bound",
        "section3.j_bound",
        "section3.j_squared_bound",
        "section3.max_element_bound",
        "section3.simple_sum_bound",
        "section3.simple_product_bound",
        "section3.growth_bound",
    ]
    by = {v.name: v for v in vs}
    # ln 4 / ln ln 4 is below 10, so the gate fails at J = 2
    assert by["section3.gate"].holds == "false"
    # identities hold regardless of the gate
    assert by["section3.logk_identity"].holds == "true"
    assert by["section3.loglogk_identity"].holds == "true"


def test_section3_j2_gated_checks_report_raw():
    vs = verify_section3(2, F(1, 10))
    by = {v.name: v for v in vs}
    gated = by["section3.j_bound"]
    assert gated.holds == "hypothesis-not-met"
    assert gated.witness["raw"] in ("true", "false", "inconclusive")
    # the raw inequality values for J = 2 were checked by hand:
    # max element 6 exceeds (ln 4)^4 ~ 3.69, everything else clears
    assert by["section3.max_element_bound"].witness["raw"] == "false"
    assert by["section3.loglogk_bound"].witness["raw"] == "true"
    assert by["section3.simple_sum_bound"].witness["raw"] == "true"
    assert by["section3.simple_product_bound"].witness["raw"] == "true"


def test_section3_j3_all_gated_true():
    vs = verify_section3(3, F(1, 10))
    by = {v.name: v for v in vs}
    assert by["section3.gate"].holds == "true"
    for name, v in by.items():
        if name in ("section3.gate", "section3.logk_identity", "section3.loglogk_identity"):
            continue
        assert v.holds == "true", (name, v)
    assert by["section3.growth_bound"].witness["dim"] == 3


def test_section3_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_section3(0)
    with pytest.raises(ValueError):
        verify_section3(2, F(0))


def test_section3_j4_exceeds_default_cap():
    with pytest.raises(CapExceeded):
        verify_section3(4)
