"""Command-line surface.

Set files are one rational per line ('#' comments and blank lines ignored);
'-' means standard input.  Printed sets re-parse to the same set.  Verdict
lines read `name status lhs rhs key=value...`; --report writes the same
data as deterministic JSON lines with exact numerator/denominator strings.

Exit codes: 0 success, 1 usage or input error, 2 failed --assert or oracle
mismatch, 3 cap or budget exhaustion (including an incomplete search).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from itertools import combinations, compress
from pathlib import Path

from .limits import (
    CapExceeded,
    FactorizationBudgetExceeded,
    SetParseError,
    set_size_cap_override,
)
from .exactset import FinSet, PairGraph, parse_set, parse_token
from . import exactset
from .arith import mult_dim
from .energy import energy as energy_fn
from .progressions import _dim_chain, contains, enumerate_progression, parse_progression
from .theorems import (
    verify_intro_suite,
    verify_lemma3,
    verify_prop10,
    verify_prop11,
    verify_prop13,
    verify_ruzsa,
    verify_theorem1,
    verify_theorem3_chain,
)
from .extremal import (
    OBJECTIVES,
    es_example,
    search_min,
    verify_section3,
)
from .verdicts import (
    FALSE,
    INCONCLUSIVE,
    TRUE,
    Verdict,
    format_value,
    format_verdict_line,
    verdict_to_json,
)

class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


# each flag that names a file, with the kind of text the file holds
_FILE_KINDS = {"a": "set", "b": "set", "set": "set", "m": "set", "n": "set",
               "pairs": "pair", "file": "progression"}


def _check_stdin(args) -> None:
    """Standard input is read once per command, so every flag that names '-'
    must name a set, and those flags share that one set."""
    named = [flag for flag in _FILE_KINDS if getattr(args, flag, None) == "-"]
    if len({_FILE_KINDS[flag] for flag in named}) > 1:
        flags = " and ".join(f"--{flag}" for flag in named)
        raise ValueError(f"{flags} cannot share standard input")


def _load_set(args, flag: str) -> FinSet:
    """The set in the file that --flag names.  Each path is read and parsed
    once per command, however many operands name it, and each operand gets
    its own duplicate warning."""
    path = getattr(args, flag)
    if path not in args.sets:
        args.sets[path] = parse_set(_read_text(path))
    fs, dropped = args.sets[path]
    if dropped:
        print(
            f"# warning: {dropped} duplicate value(s) dropped from {path}",
            file=sys.stderr,
        )
    return fs


def _load_pairs(path: str, ground: FinSet) -> PairGraph:
    """Each line's two values, read as int pairs and located in the ground
    set as they are read; any error names its line."""
    pairs = set()
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if len(parts) != 2:
                raise SetParseError("expected two values per pair line")
            ix, iy = (ground._locate(*exactset._parse_pair(t)) for t in parts)
            if ix is None or iy is None:
                x, y = parts
                raise SetParseError(f"pair ({x}, {y}) uses values outside the ground set")
            pairs.add((ix, iy))
        except SetParseError as exc:
            raise SetParseError(f"line {lineno}: {exc}") from None
    return PairGraph(ground, frozenset(pairs))


def _graph_from_args(args, ground: FinSet) -> PairGraph:
    if getattr(args, "pairs", None):
        return _load_pairs(args.pairs, ground)
    if getattr(args, "diagonal", False):
        return PairGraph.diagonal(ground)
    return PairGraph.full(ground)


def _write_report(path: str, objects: list[dict]) -> None:
    content = "".join(
        json.dumps(o, sort_keys=True, separators=(",", ":")) + "\n" for o in objects
    )
    Path(path).write_text(content, encoding="utf-8")


def _emit_set(args, fs: FinSet, fields: str, **extra) -> int:
    """The set under a `# <command> <fields> size=<n>` line, one element per
    line; a --report object's kind is the command.  The text is built before
    anything is printed, so a value too long to print leaves stdout empty."""
    text = fs._text()
    print(f"# {args.subcommand} {fields} size={fs.size}")
    sys.stdout.write(text)
    if args.report:
        # no printed element holds whitespace, so the lines split back exactly
        obj = {"kind": args.subcommand, "size": fs.size, "elements": text.split(), **extra}
        _write_report(args.report, [obj])
    return 0


def _emit_verdicts(args, verdicts: list[Verdict], prelude: list[str] = ()) -> int:
    for line in prelude:
        print(line)
    for v in verdicts:
        print(format_verdict_line(v))
    if args.report:
        _write_report(args.report, [verdict_to_json(v) for v in verdicts])
    if getattr(args, "assert_", False) and any(
        v.holds in (FALSE, INCONCLUSIVE) for v in verdicts
    ):
        return 2
    return 0


def _cmd_combine(args) -> int:
    a, b = _load_set(args, "a"), _load_set(args, "b")
    fs = exactset.combine(a, b, args.op)
    return _emit_set(args, fs, f"op={args.op} left={a.size} right={b.size}", op=args.op)


def _cmd_iterate(args) -> int:
    fs = exactset.iterate(_load_set(args, "set"), args.h, args.op)
    return _emit_set(args, fs, f"op={args.op} h={args.h}", op=args.op, h=args.h)


def _cmd_simple(args) -> int:
    fs = exactset.simple_closure(_load_set(args, "set"), args.op)
    return _emit_set(args, fs, f"op={args.op}", op=args.op)


def _cmd_boxsum(args) -> int:
    fs = exactset.box_sum(_load_set(args, "set"), args.h)
    return _emit_set(args, fs, f"h={args.h}", h=args.h)


def _cmd_sumdiff(args) -> int:
    fs = exactset.sum_diff(_load_set(args, "set"), args.h, args.l)
    return _emit_set(args, fs, f"h={args.h} l={args.l}", h=args.h, l=args.l)


def _cmd_restricted(args) -> int:
    a = _load_set(args, "set")
    graph = _graph_from_args(args, a)
    fs = exactset.restricted_combine(a, graph, args.op)
    return _emit_set(args, fs, f"op={args.op} edges={graph.size}", op=args.op, edges=graph.size)


def _cmd_energy(args) -> int:
    a = _load_set(args, "set")
    value = energy_fn(a, args.h)
    print(value)
    if args.report:
        # "path" is kept constant so that energy reports keep their bytes
        _write_report(
            args.report,
            [{"kind": "energy", "h": args.h, "path": "convolve", "value": str(value)}],
        )
    return 0


def _cmd_multdim(args) -> int:
    a = _load_set(args, "set")
    md = mult_dim(a)
    print(f"dimension {md.dimension}")
    print(f"basepoint {md.basepoint}")
    print("primes " + " ".join(map(str, md.primes)))
    print("projection " + " ".join(map(str, md.projection)))
    # a basis row has one int per prime, mostly 0: each line is cut from one
    # line of zeros, and only the entries that compress finds nonzero are formatted
    cols, zeros = range(len(md.primes)), " 0" * len(md.primes)
    out = []
    for row in md.basis:
        out.append("basis")
        at = 0
        for c in compress(cols, row):
            out += (zeros[at : 2 * c], " %d" % row[c])
            at = 2 * c + 2
        out.append(zeros[at:] + "\n")
    sys.stdout.write("".join(out))
    if args.report:
        _write_report(
            args.report,
            [
                {
                    "kind": "multdim",
                    "dimension": md.dimension,
                    "basepoint": str(md.basepoint),
                    "primes": list(md.primes),
                    "projection": list(md.projection),
                    "basis": [list(row) for row in md.basis],
                }
            ],
        )
    return 0


def _cmd_progression(args) -> int:
    desc = parse_progression(_read_text(args.file))
    if not args.set:
        fs = enumerate_progression(desc)
        proper = fs.size == desc.nominal_size
        fields = (f"rank={desc.rank} nominal={desc.nominal_size} "
                  f"proper={'true' if proper else 'false'}")
        return _emit_set(args, fs, fields, rank=desc.rank, proper=proper)
    a = _load_set(args, "set")
    result = contains(desc, a)
    print(f"contained {'true' if result.contained else 'false'}")
    for elem, wit in zip(a.elements, result.witnesses):
        tail = "-" if wit is None else " ".join(str(j) for j in wit)
        print(f"witness {elem} {tail}")
    chain = _dim_chain(desc, a, result)
    print(format_verdict_line(chain))
    if args.report:
        objects = [
            {
                "kind": "contains",
                "contained": result.contained,
                "witnesses": [
                    {"element": str(e), "exponents": None if w is None else list(w)}
                    for e, w in zip(a.elements, result.witnesses)
                ],
            },
            verdict_to_json(chain),
        ]
        _write_report(args.report, objects)
    if args.assert_ and (not result.contained or chain.holds != TRUE):
        return 2
    return 0


def _cmd_example(args) -> int:
    return _emit_set(args, es_example(args.j), f"J={args.j}", j=args.j)


def _section3(args) -> list[Verdict]:
    return verify_section3(args.j, parse_token(args.eps3))


def _theorem3(args) -> list[Verdict]:
    a = _load_set(args, "set")
    return [verify_theorem3_chain(a, _graph_from_args(args, a))]


# suite -> (flags it needs, verdict builder); the order is the CLI's choices
_VERIFY = {
    "theorem1": (("set",), lambda args: verify_theorem1(_load_set(args, "set"), args.h)),
    "lemma3": (("set",), lambda args: [verify_lemma3(_load_set(args, "set"), args.h)]),
    "prop10": (("set",), lambda args: [verify_prop10(_load_set(args, "set"), args.h)]),
    "prop11": (("set",), lambda args: [verify_prop11(_load_set(args, "set"))]),
    "prop13": (("set",), lambda args: [verify_prop13(_load_set(args, "set"), args.h1)]),
    "ruzsa": (
        ("m", "n"),
        lambda args: [verify_ruzsa(_load_set(args, "m"), _load_set(args, "n"), args.h, args.l)],
    ),
    "intro": (("set",), lambda args: verify_intro_suite(_load_set(args, "set"))),
    "theorem3": (("set",), _theorem3),
    "section3": ((), _section3),
}
VERIFY_SUITES = tuple(_VERIFY)


def _cmd_verify(args) -> int:
    flags, build = _VERIFY[args.suite]
    for attr in flags:
        if getattr(args, attr, None) is None:
            raise ValueError(f"suite {args.suite!r} needs --{attr}")
    verdicts = build(args)
    prelude: list[str] = []
    if args.suite == "theorem1":
        prelude.append(f"# alpha {format_value(verdicts[0].witness['alpha'])}")
    return _emit_verdicts(args, verdicts, prelude)


def _oracle_search(objective: str, k: int, universe: int):
    value = OBJECTIVES[objective].value
    best = None
    certs: list[tuple[int, ...]] = []
    for tup in combinations(range(1, universe + 1), k):
        v = value(FinSet(tup))
        if best is None or v < best:
            best, certs = v, [tup]
        elif v == best:
            certs.append(tup)
    return best, sorted(certs)


def _cmd_search(args) -> int:
    result = search_min(
        args.objective,
        args.k,
        args.max,
        threads=args.threads,
        node_budget=args.node_budget,
        checkpoint_path=args.checkpoint,
    )
    print(
        f"# search objective={result.objective} k={result.k} "
        f"universe={result.universe} nodes={result.nodes} "
        f"complete={'true' if result.complete else 'false'}"
    )
    print(f"minimum {'-' if result.minimum is None else result.minimum}")
    for cert in result.certificates:
        print("certificate " + " ".join(str(v) for v in cert))
    if args.report:
        _write_report(args.report, [{"kind": "search", **asdict(result)}])
    if not result.complete:
        spent = ("--node-budget" if args.node_budget is not None
                 else "the size cap: --budget or SUMPROD_BUDGET")
        print(f"warning: node budget exhausted ({spent}), partial result", file=sys.stderr)
        return 3
    if args.assert_oracle:
        want_min, want_certs = _oracle_search(args.objective, args.k, args.max)
        got_certs = [list(c) for c in result.certificates]
        if result.minimum != want_min or got_certs != [list(c) for c in want_certs]:
            print(
                f"oracle mismatch: min {result.minimum} vs {want_min}, "
                f"{len(got_certs)} vs {len(want_certs)} certificates",
                file=sys.stderr,
            )
            return 2
        print("# oracle agreement confirmed", file=sys.stderr)
    return 0


def _add_common(p: argparse.ArgumentParser, *, assertable: bool = False) -> None:
    p.add_argument("--report", metavar="PATH", help="write a JSON-lines report")
    p.add_argument(
        "--budget",
        type=int,
        metavar="N",
        help="override the size cap for this invocation",
    )
    if assertable:
        p.add_argument(
            "--assert",
            dest="assert_",
            action="store_true",
            help="exit 2 if any verdict is false or inconclusive",
        )


def _add_graph_flags(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--pairs", metavar="PATH", help="pair file: two values per line")
    grp.add_argument("--full", action="store_true", help="all ordered pairs (default)")
    grp.add_argument("--diagonal", action="store_true", help="pairs (a, a) only")


# the flags that several subcommands share, each required; a subcommand whose
# flag differs (progression's --set, verify's defaults) adds its own
_SHARED_FLAGS = {
    "a": {"metavar": "PATH"},
    "b": {"metavar": "PATH"},
    "set": {"metavar": "PATH"},
    "h": {"type": int},
    "l": {"type": int},
    "op": {"choices": ("sum", "product")},
    "J": {"dest": "j", "type": int},
}


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on first use and then shared by every call."""
    parser = _Parser(prog="sumprod", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def command(name: str, summary: str, fn, *shared: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        for flag in shared:
            p.add_argument(f"--{flag}", required=True, **_SHARED_FLAGS[flag])
        p.set_defaults(fn=fn)
        return p

    _add_common(command("combine", "pairwise sum or product of two sets", _cmd_combine,
                        "a", "b", "op"))
    _add_common(command("iterate", "h-fold sum or product set", _cmd_iterate, "set", "h", "op"))
    _add_common(command("simple", "subset sums or subset products", _cmd_simple, "set", "op"))
    _add_common(command("boxsum", "sums with coefficients in 0..h", _cmd_boxsum, "set", "h"))
    _add_common(command("sumdiff", "h-fold sums minus l-fold sums", _cmd_sumdiff,
                        "set", "h", "l"))
    p = command("restricted", "sums or products over a pair graph", _cmd_restricted, "set", "op")
    _add_graph_flags(p)
    _add_common(p)
    _add_common(command("energy", "h-fold additive energy", _cmd_energy, "set", "h"))
    _add_common(command("multdim", "multiplicative dimension", _cmd_multdim, "set"))

    p = command("progression", "enumerate or test a progression", _cmd_progression)
    p.add_argument("--file", required=True, metavar="PATH")
    p.add_argument("--set", metavar="PATH", help="test membership of this set")
    _add_common(p, assertable=True)

    _add_common(command("example", "prime-grid example set", _cmd_example, "J"))

    p = command("section3", "growth-rate verdicts for the grid example", _cmd_verify, "J")
    p.add_argument("--eps3", default="1/10", metavar="RAT")
    _add_common(p, assertable=True)
    p.set_defaults(suite="section3")

    p = command("verify", "named verdict suites", _cmd_verify)
    p.add_argument("suite", choices=VERIFY_SUITES)
    p.add_argument("--set", metavar="PATH")
    p.add_argument("--m", metavar="PATH")
    p.add_argument("--n", metavar="PATH")
    p.add_argument("--h", type=int, default=2)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--h1", type=int, default=2)
    p.add_argument("--J", dest="j", type=int, default=2)
    p.add_argument("--eps3", default="1/10", metavar="RAT")
    _add_graph_flags(p)
    _add_common(p, assertable=True)

    p = command("search", "exhaustive k-subset minimization", _cmd_search)
    p.add_argument("--objective", choices=("f", "g"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max", type=int, required=True, metavar="N")
    p.add_argument(
        "--threads", type=int, default=1, metavar="N",
        help="must be >= 1; every N runs the same in-process walk, with the same results",
    )
    p.add_argument(
        "--node-budget", type=int, default=None, metavar="NODES",
        help="stop after scoring NODES subsets and prefixes, one per completion bound "
        "or leaf value (default: the size cap)",
    )
    p.add_argument("--checkpoint", metavar="PATH")
    p.add_argument(
        "--assert-oracle",
        action="store_true",
        help="exit 2 unless the result matches a plain-loop oracle",
    )
    _add_common(p)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    if getattr(args, "budget", None) is not None:
        if args.budget <= 0:
            print("error: --budget must be positive", file=sys.stderr)
            return 1
        set_size_cap_override(args.budget)
    try:
        _check_stdin(args)
        args.sets = {}  # path -> (set, duplicates dropped), for _load_set
        return args.fn(args)
    except SetParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CapExceeded, FactorizationBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        set_size_cap_override(None)


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


def entry() -> None:  # pragma: no cover - thin script wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover - python -m sumprod.cli
    entry()
