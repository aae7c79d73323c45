"""One workload process, started by run.py.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Set-up is imports, input generation and one warm-up item per context.  The
worker then takes a fresh-process reference probe (refspeed.py) and, with
``--setup-only``, prints ``{"ready": <time.monotonic() at the end of set-up>,
"probe_ready": <the probe>}`` and exits; otherwise it runs
``workloads.cycle_count(WORKLOAD, SECONDS)`` whole cycles, closed loop, with
a probe before the first item and after every item, and prints its records
as one JSON line.  The
number of cycles never depends on how fast the items run.

With TRACE=1 every item of the timed cycles runs with the library wrapped
(spans.py) and then again unwrapped; the difference in item time is the
tracing overhead.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
from collections import Counter
from typing import Dict, List

import refspeed
import spans as sp
import workloads as wl


def run_one(item: wl.Item, golden: Dict[str, str], tracer=None) -> dict:
    """Time the item's library work, then check its digest off the clock."""
    t0 = time.perf_counter()
    try:
        out = item.run()
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.paused[0] = True
        try:
            got = wl.digest(item.canon(out))
        finally:
            if tracer is not None:
                tracer.paused[0] = False
        err = None if got == golden.get(item.id) else "digest mismatch"
    except Exception as e:  # an item that raises is a failed item, not a crash
        dt = time.perf_counter() - t0
        got, err = None, "%s: %s" % (type(e).__name__, e)
        out = None
    # Only a CLI result is kept (for its spans file); other outputs are
    # dropped here so they do not pile up in the process's peak memory.
    keep = out if isinstance(out, wl.CliResult) else None
    return {"id": item.id, "s": dt, "ok": err is None, "digest": got, "error": err, "out": keep}


def timed_cycles(workload: str, seed: int, n_cycles: int, golden) -> List[dict]:
    """The timed items, each between two reference probes; ``ref_s`` is the
    item's time at the reference speed.  A cli_cold item starts a process,
    so it is scaled by the fresh-process probe."""
    probe = refspeed.FRESH_PROCESS if workload == "cli_cold" else refspeed.IN_PROCESS
    gen = wl.cycles(workload, seed)
    records = []
    before = probe.run()
    for _ in range(n_cycles):
        for item in next(gen):
            rec = run_one(item, golden)
            after = probe.run()
            rec["ref_s"] = probe.scale(rec["s"], before, after)
            records.append(rec)
            before = after
    return records


def _cli_trace_stats(records: List[dict]):
    """Merge the spans each traced CLI child wrote."""
    stats: Dict[str, Counter] = {}
    counters: Counter = Counter()
    import_s = unattributed = 0.0
    missing: set = set()
    for rec in records:
        res = rec["out"]
        if res is None or res.spans_file is None or not res.spans_file.exists():
            continue
        with open(res.spans_file) as fh:
            data = json.load(fh)
        res.spans_file.unlink()
        sp.merge_stats(stats, sp.span_stats(data["spans"]))
        counters.update(data["counters"])
        import_s += data["import_s"]
        missing.update(data["missing"])
        unattributed += rec["s"] - data["import_s"] - sp.top_level_seconds(data["spans"])
    return stats, counters, import_s, unattributed, sorted(missing)


def item_seconds(records: List[dict]) -> float:
    return sum(r["s"] for r in records)


def traced_run(workload: str, seed: int, n_cycles: int, golden) -> dict:
    """Each item runs wrapped and then unwrapped, back to back, so that both
    runs of an item see the same machine speed; the difference between the
    two is the tracing overhead."""
    wl.WORK.mkdir(exist_ok=True)
    cli = workload == "cli_cold"
    tracer = None if cli else sp.Tracer()
    traced_gen, plain_gen = wl.cycles(workload, seed, wl.WORK if cli else None), wl.cycles(workload, seed)
    recs: List[dict] = []
    ref: List[dict] = []
    for _ in range(n_cycles):
        for item, twin in zip(next(traced_gen), next(plain_gen)):
            if tracer is not None:
                tracer.install()
            try:
                recs.append(run_one(item, golden, tracer))
            finally:
                if tracer is not None:
                    tracer.uninstall()
            ref.append(run_one(twin, golden))
    if cli:
        stats, counters, import_s, unattributed, missing = _cli_trace_stats(recs)
        extra = {"cli.import_s": import_s, "cli.process_s": item_seconds(recs)}
    else:
        tracer.dump(wl.WORK / ("spans-%s.json" % workload))
        stats, counters, missing = sp.span_stats(tracer.spans), tracer.counters, tracer.missing
        unattributed = item_seconds(recs) - sp.top_level_seconds(tracer.spans)
        extra = {"cli.import_s": 0.0, "cli.process_s": 0.0}
    layers = sp.per_layer_metrics(stats, counters, missing)
    layers.update(extra)
    layers["trace.items"] = len(recs)
    layers["trace.overhead_frac"] = (item_seconds(recs) - item_seconds(ref)) / item_seconds(ref)
    layers["trace.unattributed_frac"] = unattributed / item_seconds(recs)
    totals = {name: st["total_s"] for name, st in stats.items()}
    return {
        "records": recs + ref,
        "layers": layers,
        "traced_s": item_seconds(recs),
        "span_totals": totals,
        "untraced": missing,
    }


def main() -> None:
    # SIGTERM from run.py unwinds through subprocess.run, which kills a CLI child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    workload, seed, seconds, trace = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1"
    wl.import_library()
    golden = wl.load_golden()[workload]
    warm = [run_one(item, golden) for item in wl.warmup_items(workload)]
    ready = time.monotonic()
    result: dict = {"ready": ready, "probe_ready": refspeed.FRESH_PROCESS.run(), "warmup": warm}
    if "--setup-only" not in sys.argv:
        n_cycles = wl.cycle_count(workload, seconds)
        if trace:
            result.update(traced_run(workload, seed, n_cycles, golden))
        else:
            result["records"] = timed_cycles(workload, seed, n_cycles, golden)
        who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
        result["rss_kb"] = resource.getrusage(who).ru_maxrss
    for rec in result.get("warmup", []) + result.get("records", []):
        rec.pop("out", None)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
