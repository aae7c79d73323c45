"""The three benchmark workloads: inputs, items, canonical outputs.

An item is one unit of closed-loop work.  Its library calls are timed; its
output is then reduced to canonical JSON and hashed, and the hash must equal
the golden digest recorded in ``golden.json`` at the seed commit.

Inputs come from fixed pools so that every item has a golden digest.  The
workload seed only chooses which pool entries a run uses and in what order,
so no program change can change the inputs:

* ``genus_sweep``: generator tuples made by ``gen_tuple`` from a stdlib
  ``random.Random`` with a fixed string seed per (context, tuple length)
  (it never calls the library's own samplers);
* ``slim_sampler``: the ``random.Random`` seed string handed to
  ``sample_slim_subgroups``;
* ``cli_cold``: a fixed list of CLI calls.

Pool entry 0 of each context is the warm-up item, the same for every seed.
A run is a fixed number of whole cycles, and the seed shuffles the items of
each cycle, so every item kind is spread over the whole run.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("genus_sweep", "slim_sampler", "cli_cold")

# genus_sweep follows Tier-1 criterion 7: equal counts at (2,3), (3,2) and
# (5,2), each H generated by k uniform elements with k drawn from (1, 2, 2, 3)
# as in ``sample_subgroups``.  Here k is stratified rather than drawn: the j-th
# item of a context over the run has k = GENUS_K[j % 4], so every run has the
# same mix of tuple lengths.  One (7,2) item per cycle adds the largest order
# under genus.DIRECT_CHECK_CAP (the coset cross-check runs on every item); it
# costs about ten (5,2) items, because every genus_report enumerates G.
# Items mostly sort by cost as (2,3) < (3,2) < (5,2) < (7,2), so with three
# cycles (75 items) the median falls among the (3,2) items and the tail (the
# 11th largest) among the (5,2) items.  For p >= 5 most k >= 2 tuples
# generate all of G; the k = 1 items carry the large coset spaces.
GENUS_CYCLE: Tuple[Tuple[Tuple[int, int], int], ...] = (((7, 2), 1), ((5, 2), 8), ((3, 2), 8), ((2, 3), 8))
GENUS_K = (1, 2, 2, 3)
# Pool entries per (context, k); entry 0 of k = 2 is the warm-up item.
GENUS_POOL = {(7, 2): {1: 4, 2: 4, 3: 4}}
GENUS_POOL.update({pn: {1: 17, 2: 33, 3: 17} for pn in ((5, 2), (3, 2), (2, 3))})

# slim_sampler: a cycle is 15 sampler items at each context plus the
# SL2(Z/9Z) lattice item.  Items mostly sort by cost as (2,4) < (3,3) < (5,2) <
# lattice, so with two cycles the median falls among the (3,3) items and the
# tail among the (5,2) items.
SLIM_CONTEXTS = ((5, 2), (3, 3), (2, 4))
SLIM_PER_CYCLE = 15
SLIM_COUNT = 20
SLIM_POOL = 65

# cli_cold: the README's CLI calls plus the suites only the CLI reaches.  By
# cost at the reference speed the calls fall into four groups: about 170 ms
# (section7, class-table, count, bounds), 220 ms (genus at (13,1), lemma5.3),
# 370 ms (lemma5.8-5.16, genus at (5,2)) and 1900 ms (cor6.5, genus at
# (7,2)).  With the eight calls of the first list the median fell between the
# second and third group, the mean of two extremes 40% apart.  ``count`` and
# ``bounds``, two more README calls that reach subcommands no other call
# does, fill the first group to four calls, so that with four cycles (40
# calls) the median falls in the middle of the second group and the tail (the
# 11th largest) inside the third.
CLI_CALLS: Tuple[str, ...] = (
    "genus --p 7 --n 2 --subgroup preimage:B@1",
    "genus --p 5 --n 2 --subgroup preimage:D@1",
    "genus --p 13 --n 1 --subgroup B",
    "count --p 13 --n 1 --subgroup B --class u",
    "bounds --kind a_sigma_p --p 5 --n 3",
    "class-table --p 3 --n 2",
    "verify --suite section7",
    "verify --suite lemma5.3",
    "verify --suite lemma5.8-5.16",
    "verify --suite cor6.5",
)

# A run is round(seconds / CYCLE_SECONDS) whole cycles, at least one: at
# --seconds 18, three, two and four cycles, which keep a whole run, its three
# set-ups included, within about 50 s on the reference machine.  The count
# depends only on --seconds, never on measured speed, so a given seed times
# the same items at the same ranks on every commit.
CYCLE_SECONDS = {"genus_sweep": 6.0, "slim_sampler": 9.0, "cli_cold": 4.5}


def cycle_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


def lib(name: str):
    """A loaded ``sl2genus`` module, resolved through sys.modules because the
    package attribute ``sl2genus.genus`` is a function."""
    return sys.modules["sl2genus." + name]


def import_library():
    """Import sl2genus from this checkout's src/ and refuse any other copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sl2genus

    where = Path(sl2genus.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit("perfbench: sl2genus imported from %s, not from %s" % (where, SRC))
    import sl2genus.cli  # noqa: F401  (cli and suites are not imported by the package)
    import sl2genus.suites  # noqa: F401

    return sl2genus


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


# -------------------- inputs --------------------


def gen_tuple(rng: random.Random, m: int) -> Tuple[int, int, int, int]:
    """A uniform element of SL2(Z/mZ) with a unit top-left entry: random
    a, b, c with d = (1 + bc) / a, so ad - bc = 1 mod m."""
    while True:
        a = rng.randrange(m)
        try:
            ai = pow(a, -1, m)
        except ValueError:
            continue
        b, c = rng.randrange(m), rng.randrange(m)
        return (a, b, c, (1 + b * c) * ai % m)


def genus_pool(p: int, n: int, k: int) -> List[Tuple[Tuple[int, ...], ...]]:
    rng = random.Random("perfbench-genus-%d-%d-k%d" % (p, n, k))
    m = p**n
    return [tuple(gen_tuple(rng, m) for _ in range(k)) for _ in range(GENUS_POOL[(p, n)][k])]


def _draw(rng: random.Random, size: int) -> Callable[[], int]:
    """Endless draws from pool entries 1..size-1, each pass a fresh shuffle."""
    order: List[int] = []

    def nxt() -> int:
        if not order:
            order.extend(range(1, size))
            rng.shuffle(order)
        return order.pop()

    return nxt


class Item(NamedTuple):
    """One closed-loop unit: ``run()`` does the timed library work and returns
    a value that ``canon()`` turns into canonical JSON outside the clock."""

    id: str
    run: Callable
    canon: Callable


def _genus_item(p: int, n: int, k: int, idx: int) -> Item:
    gens = genus_pool(p, n, k)[idx]

    def run():
        S, G = lib("subgroups"), lib("genus")
        ctx = lib("core").make_ctx(p, n)
        h = S.Subgroup(ctx, gens)
        return G.genus_report(h), G.genus_report(S.adjoin_minus_one(h))

    def canon(out):
        return {"h": out[0].to_json_dict(), "h_pm": out[1].to_json_dict()}

    return Item("genus/%d,%d/k%d/%d" % (p, n, k, idx), run, canon)


def _slim_refs(ctx):
    GR = lib("groups")
    refs = [GR.ConjClassRef(ctx, "sigma"), GR.ConjClassRef(ctx, "tau")]
    return refs + [GR.u_power_ref(ctx, r) for r in range(ctx.n - 1)]


def _bound_reports(h, refs):
    """slim_bound_report on every (h, class) pair it applies to."""
    B, core = lib("bounds"), lib("core")
    out = []
    for ref in refs:
        try:
            out.append((ref, B.slim_bound_report(h, ref)))
        except core.PreconditionError:  # no closed-form bound at this level
            out.append((ref, None))
    return out


def _canon_subgroup(h, reports) -> list:
    return [
        sorted(h.mats()),
        [[ref.kind, ref.r, None if rep is None else [list(c) for c in rep.checks]] for ref, rep in reports],
    ]


def _slim_item(p: int, n: int, idx: int) -> Item:
    def run():
        S = lib("subgroups")
        ctx = lib("core").make_ctx(p, n)
        rng = random.Random("perfbench-slim-%d-%d-%d" % (p, n, idx))
        refs = _slim_refs(ctx)
        return [(h, _bound_reports(h, refs)) for h in S.sample_slim_subgroups(ctx, SLIM_COUNT, rng)]

    def canon(out):
        return sorted(_canon_subgroup(h, reps) for h, reps in out)

    return Item("slim/%d,%d/%d" % (p, n, idx), run, canon)


def _lattice_item() -> Item:
    def run():
        S, GR, core = lib("subgroups"), lib("groups"), lib("core")
        ctx = core.make_ctx(3, 2)
        refs = [GR.ConjClassRef(ctx, "sigma"), GR.ConjClassRef(ctx, "tau"), GR.u_power_ref(ctx, 0)]
        universe = GR.enumerate_group(ctx)
        out = []
        for codes in S.all_subgroups(universe, conjugacy_gens=[core.upper_u(ctx), core.lower_u(ctx)]):
            h = S.Subgroup.from_codes(ctx, codes)
            slim = S.is_slim(h)
            out.append((h, slim, _bound_reports(h, refs) if slim else []))
        return out

    def canon(out):
        return sorted(_canon_subgroup(h, reps) + [slim] for h, slim, reps in out)

    return Item("lattice/3,2", run, canon)


def strip_elapsed(obj):
    """CLI JSON without its wall-clock ``elapsed_ms`` fields."""
    if isinstance(obj, dict):
        return {k: strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj


class CliResult(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes
    spans_file: Optional[Path]


def cli_item(call: str, trace_dir=None) -> Item:
    """One fresh interpreter running ``sl2genus.cli`` through cli_child.py."""

    def run():
        cmd = [sys.executable, str(Path(__file__).resolve().parent / "cli_child.py")]
        spans_file = None
        if trace_dir is not None:
            spans_file = Path(trace_dir) / ("spans-%d-%d.json" % (os.getpid(), time.monotonic_ns()))
            cmd += ["--spans", str(spans_file)]
        cmd += ["--"] + call.split() + ["--output", "json"]
        proc = subprocess.run(cmd, cwd=str(ROOT), env=child_env(), capture_output=True, timeout=170)
        return CliResult(proc.returncode, proc.stdout, proc.stderr, spans_file)

    def canon(out: CliResult):
        if out.code != 0:
            raise RuntimeError("exit %d: %s" % (out.code, out.stderr.decode(errors="replace")[-500:]))
        return strip_elapsed(json.loads(out.stdout))

    return Item("cli/" + call, run, canon)


# -------------------- plans --------------------


def warmup_items(workload: str) -> List[Item]:
    """One item per context, pool entry 0; fills the lazy class caches."""
    if workload == "genus_sweep":
        return [_genus_item(p, n, 2, 0) for (p, n), _c in GENUS_CYCLE]
    if workload == "slim_sampler":
        return [_slim_item(p, n, 0) for p, n in SLIM_CONTEXTS] + [_lattice_item()]
    return []


def _genus_cycles(rng: random.Random):
    draws = {(pn, k): _draw(rng, size) for pn, sizes in GENUS_POOL.items() for k, size in sizes.items()}
    j = {pn: 0 for pn, _c in GENUS_CYCLE}
    while True:
        out = []
        for (p, n), count in GENUS_CYCLE:
            for _ in range(count):
                k = GENUS_K[j[(p, n)] % len(GENUS_K)]
                j[(p, n)] += 1
                out.append(_genus_item(p, n, k, draws[((p, n), k)]()))
        yield out


def _slim_cycles(rng: random.Random):
    draws = {pn: _draw(rng, SLIM_POOL) for pn in SLIM_CONTEXTS}
    while True:
        out = [_slim_item(p, n, draws[(p, n)]()) for p, n in SLIM_CONTEXTS for _ in range(SLIM_PER_CYCLE)]
        yield out + [_lattice_item()]


def _cli_cycles(trace_dir):
    while True:
        yield [cli_item(c, trace_dir) for c in CLI_CALLS]


def cycles(workload: str, seed: int, trace_dir=None):
    """Endless sequence of cycles (lists of items) for a seed, each cycle's
    items in a seeded shuffled order."""
    rng = random.Random("perfbench-%s-%d" % (workload, seed))
    if workload == "genus_sweep":
        gen = _genus_cycles(rng)
    elif workload == "slim_sampler":
        gen = _slim_cycles(rng)
    elif workload == "cli_cold":
        gen = _cli_cycles(trace_dir)
    else:
        raise ValueError("unknown workload %r" % workload)
    for cycle in gen:
        rng.shuffle(cycle)
        yield cycle


def all_pool_items(workload: str) -> List[Item]:
    """Every item that has a golden digest (used to write golden.json)."""
    if workload == "genus_sweep":
        return [
            _genus_item(p, n, k, i) for (p, n), sizes in GENUS_POOL.items() for k, size in sizes.items() for i in range(size)
        ]
    if workload == "slim_sampler":
        return [_slim_item(p, n, i) for p, n in SLIM_CONTEXTS for i in range(SLIM_POOL)] + [_lattice_item()]
    return [cli_item(c) for c in CLI_CALLS]


# -------------------- digests --------------------


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_golden() -> Dict[str, Dict[str, str]]:
    with open(GOLDEN) as fh:
        return json.load(fh)


def table_digest(table: Dict[str, str]) -> str:
    """The per-workload SHA-256: over every (item, digest) of its pool."""
    return digest(sorted(table.items()))
