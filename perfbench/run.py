"""sl2genus benchmark: one command, one workload, metrics as JSON.

Usage (from the repository root):

    python3 perfbench/run.py --workload genus_sweep --seed 1 --seconds 24 --trace 0

Workloads are ``genus_sweep``, ``slim_sampler`` and ``cli_cold`` (see
perfbench/README.md).  The load is a closed loop: one caller, one item at a
time, one process at a time.  A run is a fixed number of whole cycles, set by
``--seconds`` alone (``workloads.cycle_count``), never by measured speed.
Every item's output is checked against its golden digest.

``--trace 0`` prints the end-to-end metrics.  Set-up is measured three
times, in three fresh worker processes, and reported as the median; the last
of them then runs the timed cycles.  Every time is scaled to the reference
speed of refspeed.py, from probes of fixed work taken around it, because
this host's own speed swings far more than the bounds.  ``--trace 1`` runs
one worker with the library wrapped and prints the per-layer metrics.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is a report with the environment, the digests, the
tail percentile and the timings as measured, before scaling.  Exit status is 2 when the checkout has no ``src/sl2genus``
or no golden digests, and 1 when a worker dies.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refspeed
import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = wl.ROOT
SETUP_REPEATS = 3
DEADLINE_S = 175.0

END_TO_END = (
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "loadavg_start": os.getloadavg(),
    }


def tail(times_ms: list) -> tuple:
    """The highest percentile with at least ten samples beyond it, by nearest
    rank; the median when there are ten samples or fewer."""
    n = len(times_ms)
    if n <= 10:
        return 50.0, statistics.median(times_ms)
    return 100.0 * (n - 10) / n, sorted(times_ms)[n - 11]


def timing_metrics(item_s: list, setup_s: list) -> dict:
    """The timing metrics from item and set-up times in seconds."""
    times_ms = [s * 1000.0 for s in item_s]
    return {
        "items_per_s": len(times_ms) / (sum(times_ms) / 1000.0),
        "item_p50_ms": statistics.median(times_ms),
        "item_tail_ms": tail(times_ms)[1],
        "setup_s": statistics.median(setup_s),
    }


def spawn(args: argparse.Namespace, deadline: float, setup_only: bool) -> tuple:
    """Run one worker to completion; return (spawn time, the reference probe
    taken just before it, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed), str(args.seconds), str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = wl.child_env()
    probe_spawn = refspeed.FRESH_PROCESS.run()
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=str(ROOT), env=env, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.terminate()  # the worker stops its CLI child, if any, on SIGTERM
        try:
            proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        sys.exit("perfbench: worker exceeded the %.0f s deadline" % DEADLINE_S)
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: worker exited with status %d" % proc.returncode)
    return t_spawn, probe_spawn, json.loads(lines[-1])


def summarize(args: argparse.Namespace, env: dict, setups: list, main_res: dict) -> tuple:
    """The report line and the result line from the workers' JSON.

    ``setups`` holds (spawn time, probe, worker result) for every worker,
    the measuring one last.  Times are scaled to the reference speed
    (refspeed.py); the report line also gives them as measured."""
    golden = wl.load_golden()[args.workload]
    records = main_res["records"]
    checked = [r for _t, _p, res in setups for r in res["warmup"]] + records
    failed = [r for r in checked if not r["ok"]]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "cycles": wl.cycle_count(args.workload, args.seconds),
        "trace": args.trace,
        "env": env,
        "golden_sha256": wl.table_digest(golden),
        "run_sha256": wl.digest([r["digest"] for r in records]),
        "failed_frac": len(failed) / len(checked),
        "errors": sorted({"%s: %s" % (r["id"], r["error"]) for r in failed})[:5],
    }
    if args.trace:
        layers, wall = main_res["layers"], main_res["traced_s"]
        report["shares_self"] = {
            k[: -len(".self_s")]: round(v / wall, 4) for k, v in layers.items() if k.endswith(".self_s") and v
        }
        report["shares_total"] = {k: round(v / wall, 4) for k, v in main_res["span_totals"].items()}
        report["untraced"] = main_res["untraced"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in spans.PER_LAYER}
    else:
        setup_raw = [res["ready"] - t for t, _p, res in setups]
        setup_ref = [
            refspeed.FRESH_PROCESS.scale(s, p, res["probe_ready"]) for s, (_t, p, res) in zip(setup_raw, setups)
        ]
        values = timing_metrics([r["ref_s"] for r in records], setup_ref)
        values["peak_rss_mb"] = main_res["rss_kb"] / 1024.0
        report.update(
            samples=len(records),
            tail_percentile=round(tail([r["s"] for r in records])[0], 2),
            setup_samples=setup_ref,
            as_measured=timing_metrics([r["s"] for r in records], setup_raw),
            as_measured_setup_samples=setup_raw,
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": not failed, "attempted": len(checked), "failed": len(failed), "metrics": metrics}
    return report, result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    for need in (ROOT / "src" / "sl2genus" / "__init__.py", wl.GOLDEN):
        if not need.is_file():
            print("perfbench: %s is missing" % need, file=sys.stderr)
            sys.exit(2)
    env = environment()
    # One CPU for this process, its workers and their CLI children (they
    # inherit it), so that every probe times the CPU the work it scales ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    setups = []
    for _ in range(SETUP_REPEATS - 1 if not args.trace else 0):
        setups.append(spawn(args, deadline, setup_only=True))
    setups.append(spawn(args, deadline, setup_only=False))
    main_res = setups[-1][2]
    env["loadavg_end"] = os.getloadavg()

    report, result = summarize(args, env, setups, main_res)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
