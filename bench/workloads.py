"""The benchmark's workloads: seeded item lists and the code that runs one item.

Every workload is a closed loop with one client: the runner starts an item
only when the previous one has returned.  An item is a plain JSON-able dict,
so a fresh interpreter (probe.py) can run the same item for the set-up
measurement.  Item sizes are fixed; the seed only picks the values, so every
seed costs about the same.
"""

from __future__ import annotations

import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("sweep", "bulk", "search")

SWEEP_SETS = 1000


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def make_items(workload: str, seed: int, workdir: Path) -> list[dict]:
    """The fixed item list of a workload; the first item is the warm-up item."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        return _sweep_items(rng)
    if workload == "bulk":
        return _bulk_items(rng, workdir)
    if workload == "search":
        return _search_items()
    raise ValueError(f"unknown workload {workload!r}")


def _sweep_items(rng: random.Random) -> list[dict]:
    """Small sets from {1..60}, the same number of each size from 2 to 6 in a
    seeded order, each with a random graph on half of its ordered pairs."""
    sizes = [k for k in range(2, 7) for _ in range(SWEEP_SETS // 5)]
    rng.shuffle(sizes)
    items = []
    for i, k in enumerate(sizes):
        values = sorted(rng.sample(range(1, 61), k))
        pairs = rng.sample([[x, y] for x in range(k) for y in range(k)], (k * k + 1) // 2)
        items.append({"id": f"set{i:04d}", "kind": "sweep", "set": values, "pairs": pairs})
    return items


def _bulk_items(rng: random.Random, workdir: Path) -> list[dict]:
    """One CLI job per item, on set files written before timing starts."""

    def put(name: str, values) -> str:
        path = workdir / f"{name}.txt"
        path.write_text("".join(f"{v}\n" for v in values), encoding="utf-8")
        return str(path)

    def cli(item_id: str, argv: list[str], **extra) -> dict:
        return {"id": item_id, "kind": "cli", "argv": argv, **extra}

    # a small shift: the primes below the interval's top set multdim's cost
    shift = rng.randrange(20)
    dense = {n: put(f"dense{n}", range(shift + 1, shift + n + 1)) for n in (250, 500)}
    sparse = put("sparse", rng.sample(range(1, 10**9), 200))
    fractions: set[Fraction] = set()
    while len(fractions) < 140:
        fractions.add(Fraction(rng.randint(1, 60), rng.randint(1, 60)))
    rational = put("rational", sorted(fractions))
    small_span = put("simple", rng.sample(range(1, 1001), 80))
    box = put("box", rng.sample(range(1, 401), 40))
    sumdiff = put("sumdiff", rng.sample(range(1, 401), 80))
    energy = {n: put(f"energy{n}", rng.sample(range(1, n + n // 4 + 1), n)) for n in (1200, 2400)}
    multdim_random = put("multdim_random", rng.sample(range(2, 10**6 + 1), 150))
    prog_file, prog_set = _progression(rng, put)
    prop13 = put("prop13", rng.sample(range(1, 121), 14))
    report = str(workdir / "prop13.report.jsonl")

    return [
        cli("combine-dense-250", ["combine", "--op", "sum", "--a", dense[250], "--b", dense[250]],
            scaling=["exactset.combine", 250]),
        cli("combine-dense-500", ["combine", "--op", "sum", "--a", dense[500], "--b", dense[500]],
            scaling=["exactset.combine", 500]),
        cli("combine-sparse", ["combine", "--op", "sum", "--a", sparse, "--b", sparse]),
        cli("combine-rational", ["combine", "--op", "product", "--a", rational, "--b", rational]),
        cli("simple-sum", ["simple", "--op", "sum", "--set", small_span]),
        cli("boxsum", ["boxsum", "--h", "3", "--set", box]),
        cli("sumdiff", ["sumdiff", "--h", "2", "--l", "1", "--set", sumdiff]),
        cli("energy-1200", ["energy", "--h", "2", "--set", energy[1200]],
            scaling=["energy.energy", 1200]),
        cli("energy-2400", ["energy", "--h", "2", "--set", energy[2400]],
            scaling=["energy.energy", 2400]),
        cli("multdim-dense-250", ["multdim", "--set", dense[250]], scaling=["arith.mult_dim", 250]),
        cli("multdim-dense-500", ["multdim", "--set", dense[500]], scaling=["arith.mult_dim", 500]),
        cli("multdim-random", ["multdim", "--set", multdim_random]),
        cli("progression", ["progression", "--file", prog_file, "--set", prog_set]),
        cli("section3", ["section3", "--J", "3"], fixed=True),
        cli("verify-prop13", ["verify", "prop13", "--set", prop13, "--h1", "2", "--report", report],
            report=report),
    ]


def _progression(rng: random.Random, put) -> tuple[str, str]:
    """A rank-3 progression with independent ratios, and 60 of its members."""
    p1, p2, p3 = rng.sample((2, 3, 5, 7, 11, 13), 3)
    base = rng.randint(1, 30)
    ratios = (Fraction(p1), Fraction(p2), Fraction(p3, p1))
    length = 6
    members: set[Fraction] = set()
    while len(members) < 60:
        v = Fraction(base)
        for r in ratios:
            v *= r ** rng.randrange(length)
        members.add(v)
    path = Path(put("progression_set", sorted(members)))
    desc = path.with_name("progression.txt")
    desc.write_text(f"{base}\n" + "".join(f"{r} {length}\n" for r in ratios), encoding="utf-8")
    return str(desc), str(path)


def _search_items() -> list[dict]:
    """f and g searches at four (k, N) points, single-threaded and at nproc.

    The points take 0.25 to 0.55 s each, so that a run makes many passes
    and the median item is not one search's time alone.  The inputs are
    fixed by definition; the seed does not change them.
    """
    items = []
    for objective, k, n in (("g", 4, 32), ("g", 5, 24), ("f", 5, 28), ("f", 4, 40)):
        for tag, threads in (("t1", 1), ("tN", nproc())):
            items.append({
                "id": f"{objective}-{k}-{n}-{tag}", "kind": "search", "objective": objective,
                "k": k, "n": n, "threads": threads, "fixed": True,
            })
    return items


@dataclass
class CliResult:
    rc: int
    stdout: str
    stderr: str


def run_item(item: dict, sumprod):
    """Run one item against the imported `sumprod` package and return its result."""
    kind = item["kind"]
    if kind == "sweep":
        a = sumprod.FinSet(item["set"])
        graph = sumprod.PairGraph(a, frozenset(tuple(p) for p in item["pairs"]))
        return [
            sumprod.verify_prop10(a, 2),
            sumprod.verify_prop10(a, 3),
            sumprod.verify_lemma3(a, 2),
            *sumprod.verify_theorem1(a, 3),
            sumprod.verify_theorem3_chain(a, graph),
        ]
    if kind == "cli":
        from sumprod import cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(item["argv"]))
        return CliResult(rc, out.getvalue(), err.getvalue())
    if kind == "search":
        return sumprod.search_min(
            item["objective"], item["k"], item["n"], threads=item["threads"]
        )
    raise ValueError(f"unknown item kind {kind!r}")
