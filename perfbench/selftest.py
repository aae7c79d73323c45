"""Self-test of the benchmark harness at a tiny size (about half a minute).

Usage (from the repository root): python3 perfbench/selftest.py

For each workload it runs one tiny cycle untraced and traced through the
worker's own functions, checks every item against its golden digest, and
checks that run.py's summary prints exactly the end-to-end and per-layer
metrics named in BENCHMARK.json, with their units, and that every traced
library function still exists.  The (7,2) genus items
(about 5 s each) are left out of the tiny cycles.  Finally it checks that
run.py refuses a directory holding only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import refspeed
import run
import worker
import workloads as wl


def tiny_cycles(workload: str, seed: int, trace_dir=None):
    """Stands in for workloads.cycles: one pool entry per item kind (one
    tuple length per genus context)."""
    while True:
        if workload == "genus_sweep":
            yield [wl._genus_item(p, n, k, 1) for (p, n), k in (((5, 2), 1), ((3, 2), 2), ((2, 3), 3))]
        elif workload == "slim_sampler":
            yield [wl._slim_item(p, n, 1) for p, n in wl.SLIM_CONTEXTS] + [wl._lattice_item()]
        else:
            yield [wl.cli_item(c, trace_dir) for c in ("class-table --p 3 --n 2", "verify --suite lemma5.3")]


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit("selftest FAILED: " + what)
    print("ok  " + what)


def main() -> None:
    with open(wl.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    want_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    want_layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check({w["name"] for w in bench["workloads"]} == set(wl.WORKLOADS), "BENCHMARK.json names every workload")

    wl.import_library()
    wl.cycles = tiny_cycles  # the worker draws its cycles through this name
    for name in wl.WORKLOADS:
        golden = wl.load_golden()[name]
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=0, seconds=1.0, trace=trace)
            res = {"ready": 0.0, "probe_ready": refspeed.FRESH_PROCESS.ref_s, "warmup": [], "rss_kb": 1024}
            if trace:
                res.update(worker.traced_run(name, 0, 1, golden))
            else:
                res["records"] = worker.timed_cycles(name, 0, 1, golden)
            for rec in res["records"]:
                rec.pop("out", None)
            report, result = run.summarize(args, run.environment(), [(0.0, refspeed.FRESH_PROCESS.ref_s, res)], res)
            json.dumps(result)
            check(result["correct"] and not result["failed"], "%s trace=%d: digests match %s" % (name, trace, report["errors"]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == (want_layers if trace else want_e2e), "%s trace=%d: every metric printed with its unit" % (name, trace))
            if trace:
                layers = res["layers"]
                check(not res["untraced"], "%s: every traced function exists %s" % (name, res["untraced"]))
                check(layers["genus.direct_check.skipped"] == 0, "%s: no direct check skipped" % name)
                if name == "slim_sampler":
                    check(
                        layers["groups.enumerate_group.calls_level_ge2"] == 1,
                        "slim_sampler: the only level>=2 enumeration is the SL2(Z/9Z) universe",
                    )

    empty = wl.WORK / "empty"
    shutil.rmtree(empty, ignore_errors=True)
    empty.mkdir(parents=True)
    shutil.copy(wl.ROOT / "BENCHMARK.json", empty)
    shutil.copytree(wl.ROOT / "perfbench", empty / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        bench["command"] + ["--workload", "genus_sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=str(empty),
        capture_output=True,
        timeout=60,
    )
    shutil.rmtree(empty)
    check(proc.returncode != 0 and not proc.stdout.strip(), "run.py refuses a checkout without src/")


if __name__ == "__main__":
    sys.exit(main())
