"""Acceptance gate: one test per shipping criterion, with wall-clock budgets.

Each test is self-contained and checks the library against either an
independent oracle (tests/oracles.py), a frozen hand-checked constant, or
an exact integer restatement of the inequality under test.  The conftest
hook prints one ACCEPTANCE line per criterion at the end of the run.
"""

import time
from fractions import Fraction
from itertools import combinations

import oracles
from sumprod import cli
from sumprod.arith import mult_dim, vector_simple_sum_count
from sumprod.energy import energy, quadrature_energy
from sumprod.exactset import FinSet, PairGraph, simple_closure, sum_diff
from sumprod.extremal import es_example, g_value, search_min
from sumprod.theorems import (
    verify_lemma3,
    verify_prop10,
    verify_ruzsa,
    verify_theorem1,
    verify_theorem3_chain,
)

F = Fraction


def small_sets(top, max_size, min_size=1):
    universe = range(1, top + 1)
    for r in range(min_size, max_size + 1):
        for tup in combinations(universe, r):
            yield tup, FinSet(F(v) for v in tup)


def test_criterion_01_energy_path_agreement():
    """The enumerating oracle, convolve, and quadrature agree on every small set."""
    start = time.perf_counter()
    checked = 0
    for tup, a in small_sets(12, 4):
        for h in (2, 3):
            exact = energy(a, h)
            assert oracles.o_energy(tup, h) == exact
            approx = quadrature_energy(a, h)
            assert abs(approx - exact) <= 1e-9 * exact
            checked += 1
    assert checked == 793 * 2
    assert time.perf_counter() - start < 30


def test_criterion_02_energy_oracle_values():
    """Frozen energies match the ordered-tuple oracle."""
    a = FinSet(F(v) for v in (1, 2, 3))
    b = FinSet(F(v) for v in (1, 2, 3, 6))
    assert energy(a, 2) == 19 == oracles.o_energy(a.elements, 2)
    assert energy(b, 2) == 32 == oracles.o_energy(b.elements, 2)


def test_criterion_03_energy_sumset_tradeoff():
    """|hA| * E_h(A) >= |A|^2h across the whole small-set sweep."""
    start = time.perf_counter()
    for _, a in small_sets(12, 4):
        for h in (2, 3):
            assert verify_lemma3(a, h).holds == "true"
    assert time.perf_counter() - start < 30


def test_criterion_04_dimension_energy_sweep():
    """Energy stays below the dimension bound on every subset of 1..30."""
    start = time.perf_counter()
    count = 0
    for _, a in small_sets(30, 5, min_size=2):
        for h in (2, 3):
            assert verify_prop10(a, h).holds == "true"
            count += 1
    assert count == 174406 * 2
    assert time.perf_counter() - start < 300


def test_criterion_05_vector_count_identity():
    """Counting exponent-vector subset sums equals counting subset products."""
    start = time.perf_counter()
    universe = [2, 3, 5, 6, 10, 15, 30]
    seen = 0
    for tup in oracles.subsets(universe, 7):
        a = FinSet(F(v) for v in tup)
        assert vector_simple_sum_count(a) == simple_closure(a, "product").size
        seen += 1
    assert seen == 127
    assert time.perf_counter() - start < 10


def test_criterion_06_grid_examples():
    """The prime-grid examples have the frozen sizes and dimensions."""
    start = time.perf_counter()
    a2 = es_example(2)
    assert a2 == FinSet(F(v) for v in (1, 2, 3, 6))
    assert simple_closure(a2, "sum").size == 13
    assert simple_closure(a2, "product").size == 7
    assert g_value(a2) == 20
    assert mult_dim(a2).dimension == 2

    a3 = es_example(3)
    assert a3.size == 27
    assert mult_dim(a3).dimension == 3
    direct = simple_closure(a3, "sum").size + simple_closure(a3, "product").size
    assert g_value(a3) == direct
    assert time.perf_counter() - start < 60


def test_criterion_07_geometric_growth():
    """Both doubling and h-fold growth verdicts hold for power-of-two sets."""
    start = time.perf_counter()
    for k in range(4, 11):
        a = FinSet(F(2) ** i for i in range(k))
        for h in (2, 3):
            for v in verify_theorem1(a, h):
                assert v.holds == "true", (k, h, v.name)
    assert time.perf_counter() - start < 10


def test_criterion_08_iterated_sumset_bound():
    """|hN - lN| <= rho^(h+l) |M| over every small (M, N) pair.

    The bulk sweep checks the equivalent cross-multiplied integer
    inequality; every thousandth instance goes through the verdict
    builder so the harness and the library stay bound together.
    """
    start = time.perf_counter()
    pool = list(small_sets(12, 4))
    combos = ((1, 1), (2, 1), (2, 2))

    # |hN - lN| depends only on N
    diff_sizes = []
    for _, n_set in pool:
        diff_sizes.append(
            tuple(sum_diff(n_set, h, l).size for h, l in combos)
        )
    # bitmask per N for fast |M + N|
    n_masks = [sum(1 << v for v in tup) for tup, _ in pool]

    instance = 0
    for mi, (m_tup, m_set) in enumerate(pool):
        m_size = len(m_tup)
        for ni in range(len(pool)):
            mask = 0
            n_mask = n_masks[ni]
            for v in m_tup:
                mask |= n_mask << v
            sum_size = bin(mask).count("1")
            for ci, (h, l) in enumerate(combos):
                q = h + l
                # |hN-lN| * |M|^(q-1) <= |M+N|^q  <=>  |hN-lN| <= rho^q |M|
                assert diff_sizes[ni][ci] * m_size ** (q - 1) <= sum_size**q
                if instance % 1000 == 0:
                    v = verify_ruzsa(m_set, pool[ni][1], h, l)
                    assert v.holds == "true"
                instance += 1
    assert instance == 793 * 793 * 3
    assert time.perf_counter() - start < 120


def test_criterion_09_restricted_graph_chain():
    """The restricted-sum lower bound holds for every graph on every tiny set."""
    start = time.perf_counter()
    for _, a in small_sets(8, 3):
        n = a.size
        idx = [(i, j) for i in range(n) for j in range(n)]
        for graph_bits in range(2 ** (n * n)):
            pairs = frozenset(
                p for b, p in enumerate(idx) if graph_bits >> b & 1
            )
            g = PairGraph(ground=a, pairs=pairs)
            v = verify_theorem3_chain(a, g)
            if pairs:
                assert v.holds == "true", (a, pairs)
            else:
                # empty graph: hypothesis fails, inequality degenerates to 0 >= 0
                assert v.holds == "hypothesis-not-met"
    assert time.perf_counter() - start < 120


def test_criterion_10_search_matches_oracle():
    """Subtree search equals the plain loop at every thread count."""
    start = time.perf_counter()
    want_f = oracles.o_search(oracles.o_f, 3, 20)
    want_g = oracles.o_search(lambda t: oracles.o_g([F(v) for v in t]), 3, 20)
    for objective, (want_min, want_certs) in (("f", want_f), ("g", want_g)):
        for threads in (1, 2, 8):
            res = search_min(objective, 3, 20, threads=threads)
            assert res.complete
            assert res.minimum == want_min
            assert list(res.certificates) == want_certs
    assert time.perf_counter() - start < 60


def _report_battery(tmp_path, tag):
    """Run a fixed set of report-writing commands; return all report bytes."""
    set_a = tmp_path / f"a-{tag}.txt"
    set_a.write_text("1\n2\n3\n6\n")
    set_m = tmp_path / f"m-{tag}.txt"
    set_m.write_text("1\n2\n3\n")
    set_n = tmp_path / f"n-{tag}.txt"
    set_n.write_text("1\n2\n")
    runs = [
        ["verify", "theorem1", "--set", str(set_a)],
        ["verify", "lemma3", "--set", str(set_a), "--h", "2"],
        ["verify", "prop10", "--set", str(set_a), "--h", "3"],
        ["verify", "prop11", "--set", str(set_a)],
        ["verify", "prop13", "--set", str(set_a), "--h1", "2"],
        ["verify", "ruzsa", "--m", str(set_m), "--n", str(set_n), "--h", "2", "--l", "1"],
        ["verify", "intro", "--set", str(set_a)],
        ["verify", "theorem3", "--set", str(set_a), "--full"],
        ["section3", "--J", "3"],
        ["search", "--objective", "f", "--k", "3", "--max", "12", "--threads", "1"],
        ["search", "--objective", "f", "--k", "3", "--max", "12", "--threads", "8"],
    ]
    blobs = []
    for i, argv in enumerate(runs):
        report = tmp_path / f"report-{tag}-{i}.jsonl"
        rc = cli.main(argv + ["--report", str(report)])
        assert rc == 0, argv
        blobs.append(report.read_bytes())
    return blobs


def test_criterion_11_verdict_determinism(tmp_path):
    """Two full report batteries are byte-identical."""
    first = _report_battery(tmp_path, "one")
    second = _report_battery(tmp_path, "two")
    assert first == second
    # the two search thread counts inside one battery also agree
    assert first[-1] == first[-2]
