"""Correctness gate: every timed result is checked before a number is posted.

Three checks, all outside the timed region:

* structure, on every execution: exit code 0, a complete search, every
  sweep verdict "true" (the checked inequalities are theorems, with wide
  margins on these sets), and a multdim basis as long as its dimension;
* digests: each result is reduced to its exact content (enclosures masked,
  formatting-only lines dropped) and hashed.  Every pass must reproduce the
  first pass, and at the default seed, and for items whose inputs do not
  depend on the seed, the digest must equal the frozen one in digests.json;
* oracles: a seeded sample of items is recomputed with the brute-force
  references in tests/oracles.py, which share no code with the library.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

DEFAULT_SEED = 1
DIGESTS = Path(__file__).with_name("digests.json")
SWEEP_ORACLE_SAMPLE = 40

# Items a timed run leaves to the digests, because their oracle takes
# seconds: the g searches, the second copies of the f searches and the
# larger energy.  freeze.py checks them all.
ORACLE_SKIP = {
    "g-4-32-t1", "g-4-32-tN", "g-5-24-t1", "g-5-24-tN", "f-5-28-tN", "f-4-40-tN",
    "energy-2400",
}

# The sympy rank behind the multdim oracle takes from one to tens of seconds
# on 150 random integers, depending on the seed.  A timed run checks a larger
# set on its first MULTDIM_ORACLE_SIZE elements and bounds the whole set's
# dimension by a rank modulo RANK_PRIME; freeze.py checks it whole.
MULTDIM_ORACLE_SIZE = 75
RANK_PRIME = 2**61 - 1


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def frozen_digests(workload: str, seed: int) -> tuple[dict[str, str], bool]:
    """The frozen digests that apply to this run, and whether every item
    needs one (at the default seed) or only the seed-independent items."""
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    out = dict(table["fixed"].get(workload, {}))
    if seed == DEFAULT_SEED:
        out.update(table["seeded"].get(workload, {}))
    return out, seed == DEFAULT_SEED


def _exact(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, Fraction)):
        return str(x)
    if x is None:
        return "-"
    return "~"


def _mask(token: str) -> str:
    return "~" if token.startswith("~") else token


def _verdict_line(line: str) -> str:
    """name status lhs rhs of a printed verdict line; the witness is dropped."""
    return " ".join(_mask(t) for t in line.split()[:4])


def _json_exact(value: dict) -> str:
    kind = value.get("kind")
    if kind == "rat":
        return str(Fraction(int(value["num"]), int(value["den"])))
    if kind in ("int", "str"):
        return value["value"]
    if kind == "bool":
        return "true" if value["value"] else "false"
    if kind == "none":
        return "-"
    return "~"


def canonical(item: dict, result) -> str:
    """The exact content of a result, as text."""
    kind = item["kind"]
    if kind == "sweep":
        return "\n".join(
            f"{v.name} {v.hypothesis_met} {v.holds} {_exact(v.lhs)} {_exact(v.rhs)}"
            for v in result
        )
    if kind == "search":
        certs = ";".join(" ".join(map(str, c)) for c in result.certificates)
        return f"{result.objective} {result.k} {result.universe} {result.minimum} {result.complete} {certs}"
    sub = item["argv"][0]
    lines = [ln for ln in result.stdout.splitlines() if not ln.startswith("#")]
    if sub in ("section3", "verify"):
        lines = [_verdict_line(ln) for ln in lines]
    elif sub == "progression":
        lines = [ln if ln.split()[0] in ("contained", "witness") else _verdict_line(ln) for ln in lines]
    elif sub == "multdim":
        lines = [ln for ln in lines if ln.split()[0] in ("dimension", "basepoint", "primes")]
    parts = [f"rc {result.rc}", *lines]
    if "report" in item:
        for raw in Path(item["report"]).read_text(encoding="utf-8").splitlines():
            obj = json.loads(raw)
            parts.append(
                f"report {obj['name']} {obj['hypothesis_met']} {obj['holds']} "
                f"{_json_exact(obj['lhs'])} {_json_exact(obj['rhs'])}"
            )
    return "\n".join(parts)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def structure_error(item: dict, result) -> str | None:
    kind = item["kind"]
    if kind == "sweep":
        bad = [v.name for v in result if v.holds != "true"]
        return f"verdicts not true: {bad}" if bad else None
    if kind == "search":
        return None if result.complete else "search incomplete"
    if result.rc != 0:
        return f"exit code {result.rc}: {result.stderr.strip()[:200]}"
    if item["argv"][0] == "multdim":
        fields = {ln.split()[0]: ln.split()[1:] for ln in result.stdout.splitlines() if ln}
        dim = int(fields["dimension"][0])
        basis = sum(1 for ln in result.stdout.splitlines() if ln.startswith("basis"))
        if not basis == dim == len(fields["projection"]):
            return f"dimension {dim}, {basis} basis rows, {len(fields['projection'])} projection indices"
    return None


def oracle_sample(items: list[dict], seed: int) -> set[str]:
    """Ids of the items whose results are recomputed by the oracles."""
    checkable = [it["id"] for it in items if checker(it) is not None and it["id"] not in ORACLE_SKIP]
    if items[0]["kind"] == "sweep":
        return set(random.Random(f"oracle:{seed}").sample(checkable, SWEEP_ORACLE_SAMPLE))
    return set(checkable)


def oracle_error(item: dict, result, oracles, sumprod, whole: bool = False) -> str | None:
    check = checker(item)
    if check is _check_multdim and not whole:
        check = _check_multdim_prefix
    return check(item, result, oracles, sumprod)


def checker(item: dict):
    if item["kind"] == "sweep":
        return _check_sweep
    if item["kind"] == "search":
        return _check_search
    return _CLI_CHECKERS.get(item["argv"][0])


def _read_set(path: str) -> list:
    values = [Fraction(ln) for ln in Path(path).read_text(encoding="utf-8").split()]
    if all(v.denominator == 1 for v in values):
        return [int(v) for v in values]
    return values


def _arg(item: dict, flag: str) -> str:
    argv = item["argv"]
    return argv[argv.index(flag) + 1]


def _printed_set(stdout: str) -> list[Fraction]:
    return [Fraction(ln) for ln in stdout.splitlines() if ln and not ln.startswith("#")]


def _same_set(printed: list[Fraction], expected) -> str | None:
    want = {Fraction(v) for v in expected}
    if len(printed) != len(set(printed)) or set(printed) != want:
        return f"printed {len(printed)} values, oracle has {len(want)}, sets differ"
    return None


def _encloses(enclosure, value: float) -> bool:
    """A tight rational interval containing a float reference value."""
    lo, hi = enclosure.lo, enclosure.hi
    return (
        float(lo) <= value * (1 + 1e-12)
        and float(hi) >= value * (1 - 1e-12)
        and hi - lo <= abs(hi) * Fraction(1, 10**30)
    )


def _check_sweep(item, verdicts, o, sumprod) -> str | None:
    a = item["set"]
    k = len(a)
    p2, p3, l3, t1d, t1h, t3 = verdicts
    dim = o.o_mult_dim(a)
    for v, h in ((p2, 2), (p3, 3)):
        c = 2 * h * h - h
        lhs, rhs = o.o_energy(a, h), c ** (dim * h) * k**h
        if (v.lhs, v.rhs) != (lhs, rhs) or lhs >= rhs:
            return f"prop10 h={h}: got {v.lhs} < {v.rhs}, oracle {lhs} < {rhs}"
    lhs = len(o.o_iterate(a, 2, "sum")) * o.o_energy(a, 2)
    if (l3.lhs, l3.rhs) != (lhs, k**4):
        return f"lemma3: got {l3.lhs} >= {l3.rhs}, oracle {lhs} >= {k**4}"
    alpha = len(o.o_combine(a, a, "product")) / k
    # |2A| > 36^-alpha |A|^2 and |3A| > 15^(-3 alpha) |A|^3
    for v, h, bound in ((t1d, 2, 36**-alpha * k**2), (t1h, 3, 15 ** (-3 * alpha) * k**3)):
        size = len(o.o_iterate(a, h, "sum"))
        if v.lhs != size or not _encloses(v.rhs, bound) or not size > bound:
            return f"{v.name}: got {v.lhs} > {v.rhs}, oracle {size} > {bound}"
    pairs = [tuple(p) for p in item["pairs"]]
    lhs = len(o.o_restricted(a, pairs, "sum"))
    rhs = Fraction(len(set(pairs)) ** 2, o.o_beta(a))
    if (t3.lhs, t3.rhs) != (lhs, rhs) or lhs < rhs:
        return f"theorem3: got {t3.lhs} >= {t3.rhs}, oracle {lhs} >= {rhs}"
    return None


def _check_search(item, result, o, sumprod) -> str | None:
    if item["objective"] == "f":
        objective = o.o_f
    else:
        objective = lambda t: o.o_g([Fraction(v) for v in t])  # noqa: E731
    best, certs = o.o_search(objective, item["k"], item["n"])
    if result.minimum != best or list(result.certificates) != certs:
        return f"search: got {result.minimum} {list(result.certificates)}, oracle {best} {certs}"
    return None


def _check_combine(item, result, o, sumprod):
    a, b = _read_set(_arg(item, "--a")), _read_set(_arg(item, "--b"))
    return _same_set(_printed_set(result.stdout), o.o_combine(a, b, _arg(item, "--op")))


def _check_sumdiff(item, result, o, sumprod):
    n = _read_set(_arg(item, "--set"))
    h, l = int(_arg(item, "--h")), int(_arg(item, "--l"))
    return _same_set(_printed_set(result.stdout), o.o_sumdiff(n, h, l))


def _symmetric_error(printed: list[Fraction], top: int) -> str | None:
    values = set(printed)
    if min(values) != 0 or max(values) != top or any(top - v not in values for v in values):
        return "closure is not the symmetric set from 0 to its maximum"
    return None


def _check_simple(item, result, o, sumprod):
    """The full closure is far past the oracle's 2^n, so the timed output is
    checked for its symmetry and extremes, and the same kernel is checked
    against the oracle on the first twelve elements."""
    a = _read_set(_arg(item, "--set"))
    err = _symmetric_error(_printed_set(result.stdout), sum(a))
    if err:
        return err
    small = sumprod.simple_closure(sumprod.FinSet(a[:12]), "sum").elements
    return _same_set(list(small), o.o_simple(a[:12], "sum"))


def _check_boxsum(item, result, o, sumprod):
    """As for simple sums: extremes and symmetry on the timed output, the
    oracle on the first six elements."""
    a, h = _read_set(_arg(item, "--set")), int(_arg(item, "--h"))
    err = _symmetric_error(_printed_set(result.stdout), h * sum(a))
    if err:
        return err
    small = sumprod.box_sum(sumprod.FinSet(a[:6]), h).elements
    return _same_set(list(small), o.o_box(a[:6], h))


def _check_energy(item, result, o, sumprod):
    want = o.o_energy(_read_set(_arg(item, "--set")), int(_arg(item, "--h")))
    got = int(result.stdout.split()[0])
    return None if got == want else f"energy {got}, oracle {want}"


def _check_multdim(item, result, o, sumprod):
    want = o.o_mult_dim(_read_set(_arg(item, "--set")))
    got = int(result.stdout.split()[1])
    return None if got == want else f"dimension {got}, oracle {want}"


def _check_multdim_prefix(item, result, o, sumprod):
    """The kernel against the oracle on the set's first elements, and the
    printed dimension at most |A| - 1 and at least both that dimension
    (adding elements cannot lower it) and the rank modulo RANK_PRIME (a
    rank over Q is never below one modulo a prime).  When the lower bound
    reaches |A| - 1, as for most random integers, the check is exact."""
    a = _read_set(_arg(item, "--set"))
    if len(a) <= MULTDIM_ORACLE_SIZE:
        return _check_multdim(item, result, o, sumprod)
    head = a[:MULTDIM_ORACLE_SIZE]
    want = o.o_mult_dim(head)
    small = sumprod.mult_dim(sumprod.FinSet(head)).dimension
    if small != want:
        return f"dimension {small} on the first {len(head)} elements, oracle {want}"
    lower = max(want, _exponent_rank_mod_p(a))
    got = int(result.stdout.split()[1])
    if not lower <= got <= len(a) - 1:
        return f"dimension {got} outside [{lower}, {len(a) - 1}]"
    return None


def _exponent_rank_mod_p(a) -> int:
    """Rank modulo RANK_PRIME of the prime-exponent rows' differences from
    the first row, factored by sympy as in the oracle."""
    import sympy

    rows = []
    for v in map(Fraction, a):
        exps = sympy.factorint(v.numerator)
        exps.update((q, -k) for q, k in sympy.factorint(v.denominator).items())
        rows.append(exps)
    primes = sorted(set().union(*rows))
    matrix = [[(r.get(q, 0) - rows[0].get(q, 0)) % RANK_PRIME for q in primes] for r in rows[1:]]
    rank = 0
    for col in range(len(primes)):
        pivot = next((i for i in range(rank, len(matrix)) if matrix[i][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = pow(matrix[rank][col], -1, RANK_PRIME)
        top = [x * inv % RANK_PRIME for x in matrix[rank]]
        matrix[rank] = top
        for i in range(rank + 1, len(matrix)):
            if matrix[i][col]:
                f = matrix[i][col]
                matrix[i] = [(x - f * t) % RANK_PRIME for x, t in zip(matrix[i], top)]
        rank += 1
    return rank


def _check_progression(item, result, o, sumprod):
    """Membership by enumerating the exponent grid, and the set's dimension."""
    lines = Path(_arg(item, "--file")).read_text(encoding="utf-8").split("\n")
    base = Fraction(lines[0])
    ratios = [(Fraction(r), int(j)) for r, j in (ln.split() for ln in lines[1:] if ln)]
    members = _read_set(_arg(item, "--set"))
    grid = set()
    for exps in product(*(range(j) for _, j in ratios)):
        v = base
        for (r, _), e in zip(ratios, exps):
            v *= r**e
        grid.add(v)
    out = result.stdout.splitlines()
    if out[0] != f"contained {'true' if all(m in grid for m in members) else 'false'}":
        return f"progression: {out[0]!r} disagrees with the grid"
    for ln in out[1:-1]:
        _, elem, *exps = ln.split()
        v = base
        for (r, j), e in zip(ratios, map(int, exps)):
            if not 0 <= e < j:
                return f"progression: witness {ln!r} out of range"
            v *= r**e
        if v != Fraction(elem):
            return f"progression: witness {ln!r} gives {v}"
    name, status, lhs, rhs = out[-1].split()[:4]
    if (status, int(lhs), int(rhs)) != ("true", o.o_mult_dim(members), len(ratios)):
        return f"progression: chain verdict {out[-1]!r}"
    return None


def _check_prop13(item, result, o, sumprod):
    b = _read_set(_arg(item, "--set"))
    h1 = int(_arg(item, "--h1"))
    lhs = len(o.o_iterate(b, h1, "sum") & o.o_simple(b, "sum"))
    c = 2 * h1 * h1 - h1
    rhs = (Fraction(len(b)) / c ** (o.o_mult_dim(b) + 1)) ** h1
    want = f"report prop13 True {'true' if lhs >= rhs else 'false'} {lhs} {rhs}"
    got = canonical(item, result).splitlines()[-1]
    return None if got == want else f"prop13: {got!r}, oracle {want!r}"


_CLI_CHECKERS = {
    "combine": _check_combine,
    "sumdiff": _check_sumdiff,
    "simple": _check_simple,
    "boxsum": _check_boxsum,
    "energy": _check_energy,
    "multdim": _check_multdim,
    "progression": _check_progression,
    "verify": _check_prop13,
}
