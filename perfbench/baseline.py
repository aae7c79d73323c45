"""Record a baseline: ten seeds per workload, five repeats of one seed, and
one traced run each.

Usage (from the repository root): python3 perfbench/baseline.py [WORKLOAD ...]

Runs ``run.py`` once per seed 1..10 and five more times with seed 1, with
BENCHMARK.json's run_seconds, one process at a time, and writes
perfbench/baseline.json: every run's metrics and set-up samples, and per
metric the median and the quartile spread (the distance between the first
and third quartile of ``statistics.quantiles(values, n=4)`` as a share of
the median) of the ten seeds and of the five repeats.  The repeats time the
same items, so their spread is the machine's alone; the ten seeds add the
spread of the inputs.  ``as_measured.*`` are the timings before scaling to
the reference speed (refspeed.py).  ``setup_first`` is the spread of the
first set-up sample alone, against ``setup_s``, the median of three.  It
takes about half an hour.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import workloads as wl

SEEDS = range(1, 11)
REPEATS = 5
OUT = wl.GOLDEN.parent / "baseline.json"


def run(bench: dict, workload: str, seed: int, trace: int) -> tuple:
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=str(wl.ROOT), capture_output=True, text=True, timeout=200, check=True)
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return report, result


def spread(values: list) -> dict:
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "spread": (q[2] - q[0]) / med}


def run_set(bench: dict, workload: str, seeds) -> tuple:
    runs, values = [], {}
    for seed in seeds:
        report, result = run(bench, workload, seed, 0)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": seed, "correct": result["correct"], "samples": report["samples"],
                     "tail_percentile": report["tail_percentile"], "setup_samples": report["setup_samples"],
                     "metrics": metrics, "as_measured": report["as_measured"], "env": report["env"]})
        for k, v in metrics.items():
            values.setdefault(k, []).append(v)
        for k, v in report["as_measured"].items():
            values.setdefault("as_measured." + k, []).append(v)
        values.setdefault("setup_first", []).append(report["setup_samples"][0])
        print(workload, seed, result["correct"], {k: round(v, 4) for k, v in metrics.items()}, file=sys.stderr)
    return runs, {k: spread(v) for k, v in values.items()}


def main() -> None:
    with open(wl.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = sys.argv[1:] or list(wl.WORKLOADS)
    out = {}
    if OUT.exists():
        with open(OUT) as fh:
            out = json.load(fh)
    for workload in names:
        runs, summary = run_set(bench, workload, SEEDS)
        repeat_runs, repeat_summary = run_set(bench, workload, [SEEDS[0]] * REPEATS)
        report, result = run(bench, workload, SEEDS[0], 1)
        out[workload] = {
            "summary": summary,
            "runs": runs,
            "repeat_summary": repeat_summary,
            "repeat_runs": repeat_runs,
            "traced": {
                "seed": SEEDS[0],
                "correct": result["correct"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "shares_self": report["shares_self"],
                "shares_total": report["shares_total"],
                "untraced": report["untraced"],
            },
        }
        with open(OUT, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
