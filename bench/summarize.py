"""Summarize result files: each metric's median and quartiles per workload.

    python3 bench/summarize.py bench/results/*.json

Prints one table for the end-to-end metrics of untraced runs and one per
layer for traced runs, each with one row per workload.  A cell reads
`median [q1, q3] spread%`, the quartiles as statistics.quantiles(n=4)
gives them and the spread their distance as a share of the median.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def _cell(values: list[float]) -> str:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = f"{100 * (q3 - q1) / med:.1f}%" if med else "-"
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] {spread}"


def _table(title: str, rows: dict[str, dict[str, list[float]]], names: list[str]) -> None:
    print(f"\n{title}")
    print("\t".join(["workload", "runs", *names]))
    for workload, by_name in rows.items():
        runs = max(len(v) for v in by_name.values())
        print("\t".join([workload, str(runs), *(_cell(by_name[n]) if by_name.get(n) else "-" for n in names)]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path)
    args = parser.parse_args(argv)
    runs = [json.loads(p.read_text(encoding="utf-8")) for p in args.files]
    if not runs:
        return 1
    tables: dict[tuple[int, str], dict] = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    order: dict[tuple[int, str], list[str]] = defaultdict(list)
    for r in sorted(runs, key=lambda r: r["workload"]):
        for name, m in r["metrics"].items():
            key = (r["trace"], "end to end" if not r["trace"] else name.split(".")[0])
            tables[key][r["workload"]][name].append(m["value"])
            if name not in order[key]:
                order[key].append(name)
    for key in sorted(tables):
        _table(f"{key[1]} ({'traced' if key[0] else 'untraced'})", tables[key], order[key])
    return 0


if __name__ == "__main__":
    sys.exit(main())
