"""Rewrite digests.json from the current library, after checking every result.

    python3 bench/freeze.py

Runs one pass of every workload at the default seed, checks each result's
structure and every item that has an oracle, including the slow ones a
timed run leaves out, and only then writes the digests.  Run it only when a workload's items change on purpose.
"""

import json
import shutil
import sys

import gate
import hostspeed
import run
import workloads


def main() -> int:
    sumprod = run.load_sumprod()
    if sumprod is None:
        return 1
    oracles = gate.load_oracles(run.ROOT)
    table = {"seeded": {}, "fixed": {}}
    bad = 0
    for workload in workloads.WORKLOADS:
        workdir = run.BENCH / "results" / f"freeze-{workload}"
        workdir.mkdir(parents=True, exist_ok=True)
        items = workloads.make_items(workload, gate.DEFAULT_SEED, workdir)
        everything = {it["id"] for it in items}
        kept: dict = {}
        p = run.run_pass(
            items, sumprod, sumprod.arith.factor_int, hostspeed.HostSpeed(), everything, kept
        )
        for item, rec in zip(items, p["records"]):
            result = kept.get(item["id"])
            error = rec["error"]
            if error is None and gate.checker(item) is not None:
                error = gate.oracle_error(item, result, oracles, sumprod, whole=True)
            if error is not None:
                bad += 1
                print(f"{workload} {item['id']}: {error}", file=sys.stderr)
            group = "fixed" if item.get("fixed") else "seeded"
            table[group].setdefault(workload, {})[item["id"]] = rec.get("digest")
        shutil.rmtree(workdir)
    if bad:
        print(f"{bad} results failed; digests.json left unchanged", file=sys.stderr)
        return 2
    gate.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {gate.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
