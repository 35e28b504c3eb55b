"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's src/ and the oracles from tests/oracles.py.  With --trace 0 the
run measures the end-to-end metrics of BENCHMARK.json: set-up time in fresh
interpreters, then as many passes over the workload's fixed item list as fit
in --seconds.  With --trace 1 it spends 40% of the window on untraced passes
and the rest on traced passes, and reports the per-layer metrics and the
tracing overhead.  Every result goes through the correctness gate (gate.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record, with the machine facts,
every pass, the per-function trace table and any failures, is written to
bench/results/.  The exit status is 0 when every result was correct, 2 when
the gate rejected a result (the metrics are then left out of the last line)
and 1 when the run could not start.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

import gate
import hostspeed
import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 9
MIN_PASSES = 2
UNTRACED_SHARE = 0.4


def _machine_facts(seed: int) -> dict:
    import mpmath

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sumprod").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": workloads.nproc(),
        "cpu_model": model,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "git_commit": _git_commit(),
        "source_sha256": sources.hexdigest(),
        "seed": seed,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read without git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _measure_setup(item: dict, host: hostspeed.HostSpeed) -> list[tuple[float, float]]:
    """(start, wall time) of fresh interpreters that import sumprod and run
    one item, each bracketed by calibration slices."""
    probes = []
    host.sample(force=True)
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), json.dumps(item)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
        )
        probes.append((start, perf_counter() - start))
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up probe exited {proc.returncode}: {proc.stderr.decode()[-500:]}"
            )
        host.sample(force=True)
    return probes


def run_pass(items, sumprod, factor_int, host, keep: set[str], kept: dict, trace=None) -> dict:
    """One closed-loop pass over the item list.

    Only the item call is timed.  Checking and digesting the result, and
    sampling the host's speed, happen between items; the pass ends with a
    sample, so that every item has one on each side.  The factor cache
    starts empty, as in a fresh process.
    """
    factor_int.cache_clear()
    gc.collect()
    records = []
    for item in items:
        if trace is not None:
            trace.item = item["id"]
        host.sample()
        start = perf_counter_ns()
        try:
            result = workloads.run_item(item, sumprod)
        except Exception:
            result, error = None, traceback.format_exc(limit=3)
        else:
            error = None
        rec = {"id": item["id"], "start_ns": start, "ns": perf_counter_ns() - start}
        if error is None:
            try:
                error = gate.structure_error(item, result)
                rec["digest"] = gate.digest(gate.canonical(item, result))
            except Exception:
                error = traceback.format_exc(limit=3)
            if item["kind"] == "cli":
                rec["bytes_out"] = len(result.stdout.encode("utf-8"))
            elif item["kind"] == "search":
                rec["leaves"] = result.nodes
            if item["id"] in keep:
                kept.setdefault(item["id"], result)
        rec["error"] = error
        records.append(rec)
    host.sample(force=True)
    return {"records": records, "cache": factor_int.cache_info()}


def _passes(budget_s: float, minimum: int, run_one) -> list[dict]:
    """At least `minimum` passes, then more until the next would overrun the budget."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_one())
        elapsed = perf_counter() - start
        if len(passes) >= minimum and elapsed * (len(passes) + 1) / len(passes) > budget_s:
            return passes


def _wall_s(p: dict, host: hostspeed.HostSpeed | None = None) -> float:
    return sum(_record_s(r, host) for r in p["records"])


def _grade(items, passes, frozen, require_all, kept, oracles, sumprod) -> list[str]:
    """Mark failed executions in place; return the failure messages."""
    problems = []
    first = {r["id"]: r.get("digest") for r in passes[0]["records"]}
    by_id = {it["id"]: it for it in items}
    for p in passes:
        for r in p["records"]:
            if r["error"] is None:
                if r["digest"] != first[r["id"]]:
                    r["error"] = "result differs from the first pass"
                elif (require_all or by_id[r["id"]].get("fixed")) and r["id"] not in frozen:
                    r["error"] = "no frozen digest for this item"
                elif r["id"] in frozen and r["digest"] != frozen[r["id"]]:
                    r["error"] = f"digest {r['digest']} differs from the frozen {frozen[r['id']]}"
            if r["error"] is not None:
                problems.append(f"{r['id']}: {r['error']}")
    first_records = {r["id"]: r for r in passes[0]["records"]}
    for item_id, result in kept.items():
        try:
            error = gate.oracle_error(by_id[item_id], result, oracles, sumprod)
        except Exception:
            error = traceback.format_exc(limit=3)
        if error is not None:
            problems.append(f"{item_id}: oracle: {error}")
            if first_records[item_id]["error"] is None:
                first_records[item_id]["error"] = f"oracle: {error}"
    return problems


def _scaled(host: hostspeed.HostSpeed | None, start_s: float, elapsed_s: float) -> float:
    """A time scaled by its own host-speed factor; unchanged without `host`."""
    if host is None:
        return elapsed_s
    return elapsed_s * host.factor_between(start_s, start_s + elapsed_s)


def _record_s(rec: dict, host: hostspeed.HostSpeed | None) -> float:
    return _scaled(host, rec["start_ns"] / 1e9, rec["ns"] / 1e9)


def _item_ms(passes: list[dict], host: hostspeed.HostSpeed | None = None) -> list[float]:
    """Each item's median time over the passes, in item order."""
    return [
        1e3 * statistics.median(_record_s(p["records"][i], host) for p in passes)
        for i in range(len(passes[0]["records"]))
    ]


def _end_to_end(untraced: list[dict], setup: list[tuple[float, float]], rss_mb: float,
                host: hostspeed.HostSpeed | None) -> dict:
    """Each item's time is its median over the passes, so that a burst of
    host load during one pass does not decide an item's time; the list's
    time and the percentiles are taken over these.  With `host`, every
    execution and set-up probe is first scaled by its own host-speed
    factor; without it the times are raw."""
    item_ms = _item_ms(untraced, host)
    return {
        "wall_s": sum(item_ms) / 1e3,
        "item_p50_ms": statistics.median(item_ms),
        "item_p99_ms": statistics.quantiles(item_ms, n=100, method="inclusive")[98],
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(_scaled(host, start, t) for start, t in setup),
    }


def load_sumprod():
    """Import sumprod from the checkout's src/, or return None if it is not there."""
    if not (ROOT / "src" / "sumprod" / "__init__.py").is_file() or not (
        ROOT / "tests" / "oracles.py"
    ).is_file():
        print(f"error: no sumprod sources and oracles under {ROOT}", file=sys.stderr)
        return None
    sys.path.insert(0, str(ROOT / "src"))
    import sumprod
    import sumprod.cli  # noqa: F401 - the bulk items and the tracer need it loaded

    if not Path(sumprod.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported sumprod from {sumprod.__file__}, not the checkout", file=sys.stderr)
        return None
    return sumprod


def run(args) -> int:
    sumprod = load_sumprod()
    if sumprod is None:
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    factor_int = sumprod.arith.factor_int
    oracles = gate.load_oracles(ROOT)
    facts = _machine_facts(args.seed)

    (BENCH / "results").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=BENCH / "results"))
    try:
        items = workloads.make_items(args.workload, args.seed, workdir)
        frozen, require_all = gate.frozen_digests(args.workload, args.seed)
        keep = gate.oracle_sample(items, args.seed)
        kept: dict = {}
        host = hostspeed.HostSpeed()
        setup = [] if args.trace else _measure_setup(items[0], host)
        workloads.run_item(items[0], sumprod)  # untimed warm-up item

        def untraced_pass():
            return run_pass(items, sumprod, factor_int, host, keep, kept)

        if not args.trace:
            untraced = _passes(args.seconds, MIN_PASSES, untraced_pass)
            traced = []
        else:
            untraced = _passes(args.seconds * UNTRACED_SHARE, 1, untraced_pass)
            tracer = tracing.Tracer()
            tracer.install()
            traced, folded = [], []
            try:
                def traced_pass():
                    p = run_pass(items, sumprod, factor_int, host, keep, kept, tracer)
                    folded.append(tracer.take_pass())
                    return p

                traced = _passes(args.seconds * (1 - UNTRACED_SHARE), 1, traced_pass)
            finally:
                tracer.uninstall()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        problems = _grade(items, untraced + traced, frozen, require_all, kept, oracles, sumprod)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    executions = [r for p in untraced + traced for r in p["records"]]
    attempted = len(executions)
    failed = sum(1 for r in executions if r["error"] is not None)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": facts,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "problems": problems[:50],
        "oracle_checked": sorted(kept),
        "setup_probes_s": [t for _, t in setup],
        "host_factor": host.factor(),
        "host_samples": len(host.samples_ms),
        "untraced_pass_s": [_wall_s(p) for p in untraced],
        "traced_pass_s": [_wall_s(p) for p in traced],
        "item_ms": dict(zip((it["id"] for it in items), _item_ms(untraced))),
    }
    if not args.trace:
        record["raw_metrics"] = _end_to_end(untraced, setup, rss_mb, None)
        values = record["end_to_end"] = _end_to_end(untraced, setup, rss_mb, host)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    else:
        names = [m["name"] for m in spec["per_layer"]]
        per_pass = [
            tracing.pass_metrics(names, f, items, p["records"], p["cache"])
            for f, p in zip(folded, traced)
        ]
        values = tracing.median_metrics(per_pass)
        untraced_s = statistics.median(_wall_s(p, host) for p in untraced)
        overhead = statistics.median(_wall_s(p, host) for p in traced) - untraced_s
        values["trace.overhead_s"] = overhead
        values["trace.overhead_ratio"] = overhead / untraced_s
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
        record["trace_table"] = folded[len(folded) // 2].table()
    record["metrics"] = metrics

    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    out = BENCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in problems[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    correct = failed == 0
    posted = metrics if correct else {}  # a wrong result posts no number
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": posted}))
    return 0 if correct else 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
