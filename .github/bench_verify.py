"""The perf trajectory of sl2genus, one record per change.  Standard library only.

    python .github/bench_verify.py verify [--src CHECKOUT] [--parent CHECKOUT] [--note TEXT]
    python .github/bench_verify.py pairs --parent CHECKOUT --workload NAME --seed 1009 --pairs 5 [--note TEXT]

`verify` times fresh `python -m sl2genus.cli` processes: every verify suite,
`verify --suite all`, every part of the main-theorem desk, and the five
commands that .github/workflows/tier1.yml pins.  Each run of a row has its
own measuring parent, a fresh interpreter that starts the command, waits for
it and reads getrusage(RUSAGE_CHILDREN).ru_maxrss: that is the largest child
waited for so far, so a parent shared by two rows would report the larger.
Each run is bracketed by two runs of perfbench/refspeed.py as a script, the
fresh-process probe of the benchmark, timed by measuring parents of their
own; the run's scaled time is its wall time times the probe's reference
time (refspeed.FRESH_PROCESS.ref_s) over the mean of the two probes, the
time the run would have taken on the reference machine at a steady speed.
The probe is a fresh interpreter, so whatever slows every interpreter start
and not the machine (an empty PYTHONPYCACHEPREFIX, say) is divided out as if
it were machine speed, and a scaled time then reads too fast; compare scaled
times of records made with the same environment alone.  A row records the
median raw wall time, the median scaled time and the median peak RSS of
REPEATS runs; one untimed import writes the bytecode first, so every timed
run reads it.  The record (commit, whether the tree differs from it, Python
version, host, note, rows) is appended to BENCH_verify.json in this checkout.  A change is
measured before it is committed, so its record names the parent commit; its
src_diff_sha256, the SHA-256 of `git diff HEAD -- src`, names the measured
code: `git diff COMMIT~1 COMMIT -- src | sha256sum` gives the same digest at
the commit that holds it (files under src/ that git does not track are not in it).

`verify --parent CHECKOUT` also times the parent's src/, with the same
commands (the change's list): both checkouts are compiled first, by the
listing import of each, and for each command the two sides' runs alternate,
pair i starting with the parent when i is even, as in `pairs`.  The record
then holds the parent's stamp, and each row the parent's medians, every run
of both sides and the verdict of `judge` below on wall time and peak RSS,
with the bounds BENCHMARK.json gives item_p50_ms and peak_rss_mb.  Raw wall
times are judged: alternation, not the probe, cancels the host's drift.

`pairs` runs both checkouts without bytecode, as a fresh checkout runs: it
removes the __pycache__ directories under src/ and perfbench/ of each, and
every process it starts has PYTHONDONTWRITEBYTECODE=1 and no
PYTHONPYCACHEPREFIX, so each fresh interpreter compiles those modules from
source while the standard library reads its installed bytecode; each side's
record says so (src_compiled: false).  An empty PYTHONPYCACHEPREFIX would
hide the standard library's bytecode too (a bare `python -c pass` then takes
0.29 s, not 0.06 s, on 2 vCPUs).  It then runs perfbench/run.py --trace 0
alternately in --parent and in this checkout, --pairs times each, for the
run_seconds of BENCHMARK.json, and appends the five end-to-end metrics of
each side to BENCH_<workload>.json: their medians, and each run's values in
the order run, so that a record shows their spread as well.  It then judges
each metric by its `better` and `bound` in BENCHMARK.json, prints the verdict
and records it under "judged".

`judged` maps each metric to {"wins", "pairs", "parent_iqr", "change_iqr",
"verdict", "gain"}: how many pairs the change won (pair i sets the i-th run of
each side against each other; a tie counts for neither side), the
interquartile spread of each side's runs (inclusive quartiles), one of three
verdicts and the claim test.  "not worse" when every change run beats every
parent run; else "unresolved" when either side's IQR is wider than the bound
times that side's median, as the runs then cannot tell a change of the bound
from the host's spread; else "worse" when the change's median is worse than
the parent's by more than the bound, a fraction of the parent's median, and
"not worse" otherwise.  "gain" is "resolved" when the change won at least nine
tenths of the pairs (9 of 10) and its median moved past the parent's by more
than the parent's IQR, both in the metric's better direction, and "not
resolved" otherwise: a claimed gain counts only when resolved.  Every verdict
and gain is printed, under its row's command in `verify`, and recorded.
(Records before this schema hold "worse_than_bound", true or false, in place
of the IQR of the change and the verdict, and records before the claim test
hold no "gain".)  Either mode exits non-zero when a
command fails, and then appends nothing.  Each BENCH_*.json file is a JSON
list with one record per line.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
PROBE = HERE / "perfbench" / "refspeed.py"
PINNED = (
    "verify --suite all --seed 0 --output json",
    "verify --suite main-theorem-desk --seed 0 --output json",
    "verify --suite section7 --seed 0 --output json",
    "genus --p 2 --n 11 --subgroup preimage:B@1 --output json",
    "genus --p 7 --n 2 --subgroup full --output json",
)
MEASURE = """import resource, subprocess, sys, time
t = time.perf_counter()
code = subprocess.call(sys.argv[1:], stdout=subprocess.DEVNULL)
print(code, time.perf_counter() - t, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""
REPEATS = 5
ROW_KEYS = ("wall_s", "scaled_s", "peak_rss_mb")
ROW_BOUNDS = (("wall_s", "item_p50_ms"), ("peak_rss_mb", "peak_rss_mb"))  # (row key, BENCHMARK.json metric whose bound it takes)
END_TO_END = ("items_per_s", "item_p50_ms", "item_tail_ms", "peak_rss_mb", "setup_s")


def run(argv, cwd=None, env=None, text=True):
    """The stdout of argv; exits with its stderr when it fails."""
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=text)
    if done.returncode:
        sys.exit("%s exited %d:\n%s" % (" ".join(argv), done.returncode, done.stderr))
    return done.stdout


def stamp(checkout, note):
    """What a record says about the code and the machine it was measured on."""
    commit = run(["git", "rev-parse", "HEAD"], cwd=checkout).strip()
    dirty = bool(run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=checkout).strip())
    src_diff = hashlib.sha256(run(["git", "diff", "HEAD", "--", "src"], cwd=checkout, text=False)).hexdigest()
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo") if line.startswith("model name")), "?")
    host = "%s, %d CPUs, %s" % (cpu, os.cpu_count(), platform.system())
    return {"commit": commit, "dirty": dirty, "src_diff_sha256": src_diff, "python": platform.python_version(), "host": host, "note": note}


def write(path, records):
    """records as a JSON list, one record per line."""
    path.write_text("[\n%s\n]\n" % ",\n".join(json.dumps(r, sort_keys=True) for r in records))


def append(path, record):
    write(path, (json.loads(path.read_text()) if path.exists() else []) + [record])
    print("appended a record to %s" % path.name)


def probe_ref_s():
    """The fresh-process probe's reference time, read from perfbench/refspeed.py without writing its bytecode."""
    sys.dont_write_bytecode, was = True, sys.dont_write_bytecode
    sys.path.insert(0, str(PROBE.parent))
    try:
        import refspeed

        return refspeed.FRESH_PROCESS.ref_s
    finally:
        sys.path.remove(str(PROBE.parent))
        sys.dont_write_bytecode = was


def measured(argv, env):
    """(exit code, wall seconds, peak RSS in MB) of argv, run by a fresh measuring parent."""
    code, wall, kb = run([sys.executable, "-c", MEASURE] + argv, env=env).split()
    return code, float(wall), int(kb) / 1024


def cli_env(checkout):
    """The environment of a timed CLI run of checkout's src/, which reads and writes bytecode."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def verify_commands(env):
    """The rows' commands; the listing imports every module, so it also writes their bytecode."""
    listing = "import sl2genus.cli, sl2genus.suites as s; print(*s.suite_names()); print(*s.DESK_DEFAULT_PARTS)"
    suites, parts = (line.split() for line in run([sys.executable, "-c", listing], env=env).splitlines())
    commands = ["verify --suite %s --seed 0 --output json" % name for name in suites + ["all"]]
    commands += ["verify --suite main-theorem-desk --case %s --seed 0 --output json" % part for part in parts]
    return commands + [c for c in PINNED if c not in commands]


def timed(command, env, ref_s):
    """{wall_s, scaled_s, peak_rss_mb} of one run of the CLI command, bracketed by the probe."""
    before = measured([sys.executable, str(PROBE)], env)[1]
    code, wall, mb = measured([sys.executable, "-m", "sl2genus.cli"] + command.split(), env)
    after = measured([sys.executable, str(PROBE)], env)[1]
    if code != "0":
        sys.exit("%s exited %s" % (command, code))
    return {"wall_s": wall, "scaled_s": wall * ref_s * 2 / (before + after), "peak_rss_mb": mb}


def medians(runs):
    return {k: round(statistics.median(r[k] for r in runs), 3 if k != "peak_rss_mb" else 1) for k in ROW_KEYS}


def verify_rows(checkout, parent=None):
    """One row per command: the medians of REPEATS runs of checkout; with a parent
    checkout, runs of the two alternate, and each row also holds the parent's
    medians, both sides' runs and the verdict on wall time and peak RSS."""
    sides = {"parent": cli_env(parent)} if parent else {}
    sides["change"] = cli_env(checkout)
    listed = {name: verify_commands(env) for name, env in sides.items()}  # also compiles each side
    commands = listed["change"]
    bench = json.loads((HERE / "BENCHMARK.json").read_text())["end_to_end"]
    metrics = [dict(m, name=key) for key, name in ROW_BOUNDS for m in bench if m["name"] == name]
    ref_s, rows = probe_ref_s(), []
    for command in commands:
        runs = {name: [] for name in sides}
        for i in range(REPEATS):
            for name in list(sides) if i % 2 == 0 else reversed(list(sides)):
                runs[name].append(timed(command, sides[name], ref_s))
        row = dict(command=command, **medians(runs["change"]))
        print("%-70s %7.2f s raw %7.2f s scaled %6.1f MB" % (command, row["wall_s"], row["scaled_s"], row["peak_rss_mb"]))
        if parent:
            row.update(parent=medians(runs["parent"]), runs=runs, judged=judge(runs["parent"], runs["change"], metrics))
        rows.append(row)
    return rows


def without_bytecode(checkout):
    """The environment of a run that reads no bytecode of the checkout's own
    modules and writes none, once their __pycache__ directories are removed."""
    for part in ("src", "perfbench"):
        for cache in sorted(Path(checkout, part).rglob("__pycache__")):
            shutil.rmtree(cache)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def perfbench_metrics(checkout, workload, seed, seconds):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = run(argv, cwd=checkout, env=without_bytecode(checkout))
    result = json.loads(out.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("perfbench %s in %s: correct %s, %d failed" % (workload, checkout, result["correct"], result["failed"]))
    return {k: result["metrics"][k]["value"] for k in END_TO_END}


def iqr(values):
    """The interquartile spread of values (inclusive quartiles), 0 for one value."""
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3
    return q[2] - q[0]


def judge(parent, change, metrics):
    """{metric: judged} for the runs of each side, paired in the order run (see
    the module docstring for the fields and the three verdicts)."""
    out = {}
    for m in metrics:
        name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
        a, b = [r[name] for r in parent], [r[name] for r in change]
        wins = sum(y > x if higher else y < x for x, y in zip(a, b))
        base, got, spread = statistics.median(a), statistics.median(b), (iqr(a), iqr(b))
        beats_every_run = min(b) > max(a) if higher else max(b) < min(a)
        worse = got < base * (1 - bound) if higher else got > base * (1 + bound)
        if beats_every_run:
            verdict = "not worse"
        elif spread[0] > bound * base or spread[1] > bound * got:
            verdict = "unresolved"
        else:
            verdict = "worse" if worse else "not worse"
        moved = got - base if higher else base - got
        gain = "resolved" if 10 * wins >= 9 * len(a) and moved > spread[0] else "not resolved"
        out[name] = dict(wins=wins, pairs=len(a), parent_iqr=spread[0], change_iqr=spread[1], verdict=verdict, gain=gain)
        print("%-13s change won %d of %d pairs; medians %g -> %g; IQR %g parent, %g change; bound %g: %s; gain %s"
              % (name, wins, len(a), base, got, spread[0], spread[1], bound, verdict, gain))
    return out


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    v = sub.add_parser("verify")
    v.add_argument("--src", default=str(HERE), help="the checkout whose src/ runs (this one by default)")
    v.add_argument("--parent", help="a checkout of the parent commit, run alternately with this one and judged against it")
    v.add_argument("--note", default="")
    p = sub.add_parser("pairs")
    p.add_argument("--parent", required=True, help="a checkout of the parent commit")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--note", default="")
    args = ap.parse_args(argv)
    if args.mode == "verify":
        record = dict(stamp(args.src, args.note), repeat=REPEATS)
        if args.parent:
            record["parent"] = stamp(args.parent, args.note)
        record["rows"] = verify_rows(args.src, args.parent)
        append(HERE / "BENCH_verify.json", record)
        return
    bench = json.loads((HERE / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    sides = {"parent": (args.parent, []), "change": (str(HERE), [])}
    for i in range(args.pairs):
        for name, (checkout, runs) in sides.items() if i % 2 == 0 else reversed(sides.items()):
            runs.append(perfbench_metrics(checkout, args.workload, args.seed, seconds))
            print("pair %d %s: %s" % (i + 1, name, json.dumps(runs[-1])))
    record = {"seed": args.seed, "seconds": seconds, "pairs": args.pairs}
    for name, (checkout, runs) in sides.items():
        record[name] = dict(stamp(checkout, args.note), src_compiled=False, median={k: statistics.median(r[k] for r in runs) for k in END_TO_END}, runs=runs)
    record["judged"] = judge(sides["parent"][1], sides["change"][1], bench["end_to_end"])
    append(HERE / ("BENCH_%s.json" % args.workload), record)


if __name__ == "__main__":
    main(sys.argv[1:])
