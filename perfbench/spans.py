"""Layer tracing from outside the library.

Each traced function is wrapped by a closure that records a span
``[name, start, end, parent, aborted, count]`` in memory.  The wrapper
replaces every binding of the original function object across the loaded
``sl2genus`` modules, because ``genus``, ``bounds``, ``cli`` and ``suites``
bind names with ``from .groups import ...``.  Modules are resolved through
``sys.modules``: the package attribute ``sl2genus.genus`` is the function,
not the module.

``core`` is deliberately not wrapped.  ``_mul`` and the encoders run about
10^7 times per run, so a wrapper would time itself; their cost shows up as
kernel self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, count hook).  The hook maps (args, result) to the
# span's count: elements materialized, cosets built, results returned.
# Hooks run with recording paused, so calls they make leave no spans.
TRACED: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("sl2genus.groups", "enumerate_group", lambda a, r: len(r)),
    ("sl2genus.groups", "class_codes", None),
    ("sl2genus.groups", "conj_class_brute", lambda a, r: len(r)),
    ("sl2genus.subgroups", "closure", lambda a, r: len(r.codes())),
    ("sl2genus.subgroups", "Subgroup.codes", None),
    ("sl2genus.subgroups", "sample_slim_subgroups", lambda a, r: len(r)),
    ("sl2genus.subgroups", "all_subgroups", lambda a, r: len(r)),
    ("sl2genus.subgroups", "preimage", None),
    ("sl2genus.subgroups", "adjoin_minus_one", None),
    ("sl2genus.subgroups", "is_slim", None),
    ("sl2genus.subgroups", "filtration_level", None),
    ("sl2genus.genus", "coset_space", lambda a, r: len(r[0])),
    ("sl2genus.genus", "fix_points", None),
    ("sl2genus.genus", "cusp_orbit_ratio", None),
    ("sl2genus.genus", "delta", None),
    ("sl2genus.genus", "genus_report", None),
    ("sl2genus.fibers", "commutator_fiber_codes", None),
    ("sl2genus.fibers", "fiber_group", None),
    ("sl2genus.fibers", "verify_orthogonality", None),
    ("sl2genus.fibers", "recovery_count_brute", None),
    ("sl2genus.bounds", "slim_bound_report", None),
    ("sl2genus.bounds", "fiber_count_bound_check", None),
    ("sl2genus.bounds", "verify_section7", None),
    ("sl2genus.cli", "run", None),
)

# Suites reached through ``suites.SUITES`` and timed as a whole (wall_s).
SUITE_NAMES = ("lemma5.3", "lemma5.8-5.16", "cor6.5")

NAME, START, END, PARENT, ABORTED, COUNT = range(6)


class Tracer:
    """In-memory spans plus a few predicate counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counters: Counter = Counter()
        self.paused = [False]
        self.missing: List[str] = []
        self._restore: List[Tuple[object, str, object, bool]] = []

    # ---------- recording ----------

    def wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        spans, stack, counters, paused = self.spans, self.stack, self.counters, self.paused
        clock = time.perf_counter
        extra = _PREDICATES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False, 0]
            stack.append(len(spans))
            spans.append(span)
            if extra is not None:
                key = extra(args)
                if key:
                    counters[key] += 1
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[ABORTED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                paused[0] = True
                try:
                    span[COUNT] = count(args, out)
                finally:
                    paused[0] = False
            return out

        return traced

    # ---------- installing ----------

    def install(self) -> None:
        """Wrap every function in TRACED and the suites in SUITE_NAMES.

        A function the library no longer has is listed in ``self.missing``
        (its metrics then read null) instead of stopping the run."""
        self.missing.clear()
        mods = {k: v for k, v in sys.modules.items() if k == "sl2genus" or k.startswith("sl2genus.")}
        for modname, attr, count in TRACED:
            name = "%s.%s" % (modname.split(".", 1)[1], attr)
            mod = mods.get(modname)
            cls_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, cls_name, None) if cls_name else mod
            orig = vars(owner).get(meth) if owner is not None else None
            if orig is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, orig, count)
            if cls_name:  # a method has one binding, on its class
                self._set(owner, meth, wrapped, orig, True)
                continue
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapped, orig, True)
        suites = mods.get("sl2genus.suites")
        for name in SUITE_NAMES:
            orig = getattr(suites, "SUITES", {}).get(name)
            if orig is None:
                self.missing.append("suites.%s" % name)
                continue
            self._set(suites.SUITES, name, self.wrap("suites.%s" % name, orig, None), orig, False)

    def _set(self, target, key: str, value, orig, attr: bool) -> None:
        self._restore.append((target, key, orig, attr))
        if attr:
            setattr(target, key, value)
        else:
            target[key] = value

    def uninstall(self) -> None:
        for target, key, orig, attr in reversed(self._restore):
            if attr:
                setattr(target, key, orig)
            else:
                target[key] = orig
        self._restore.clear()

    def dump(self, path, **extra) -> None:
        """Write the spans and counters (plus any extra fields) as JSON."""
        with open(path, "w") as fh:
            json.dump(dict(extra, spans=self.spans, counters=dict(self.counters), missing=self.missing), fh)


def _direct_check_skipped(args) -> Optional[str]:
    genus_mod = sys.modules["sl2genus.genus"]
    if args and args[0].ctx.order > genus_mod.DIRECT_CHECK_CAP:
        return "genus.direct_check.skipped"
    return None


def _level_ge2(args) -> Optional[str]:
    if args and args[0].n >= 2:
        return "groups.enumerate_group.calls_level_ge2"
    return None


_PREDICATES: Dict[str, Callable] = {
    "genus.fix_points": _direct_check_skipped,
    "genus.cusp_orbit_ratio": _direct_check_skipped,
    "groups.enumerate_group": _level_ge2,
}


# -------------------- aggregation into per-layer metrics --------------------

# Every per-layer metric the benchmark reports, with its unit.  Metrics of a
# layer a workload never reaches read 0; metrics of a traced function the
# library no longer has read None (null), so a rename cannot pass for a gain.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("groups.enumerate_group.calls", "count"),
    ("groups.enumerate_group.calls_level_ge2", "count"),
    ("groups.enumerate_group.self_s", "s"),
    ("groups.enumerate_group.elements", "count"),
    ("groups.class_codes.calls", "count"),
    ("groups.class_codes.miss_ratio", "ratio"),
    ("groups.conj_class_brute.calls", "count"),
    ("groups.conj_class_brute.self_s", "s"),
    ("groups.conj_class_brute.elements", "count"),
    ("subgroups.closure.calls", "count"),
    ("subgroups.closure.self_s", "s"),
    ("subgroups.closure.elements", "count"),
    ("subgroups.closure.aborted", "count"),
    ("subgroups.Subgroup.codes.self_s", "s"),
    ("subgroups.sample_slim_subgroups.calls", "count"),
    ("subgroups.sample_slim_subgroups.self_s", "s"),
    ("subgroups.sample_slim_subgroups.accept_ratio", "ratio"),
    ("subgroups.all_subgroups.calls", "count"),
    ("subgroups.all_subgroups.self_s", "s"),
    ("subgroups.all_subgroups.results", "count"),
    ("subgroups.preimage.self_s", "s"),
    ("subgroups.adjoin_minus_one.self_s", "s"),
    ("subgroups.is_slim.self_s", "s"),
    ("subgroups.filtration_level.self_s", "s"),
    ("genus.coset_space.calls", "count"),
    ("genus.coset_space.self_s", "s"),
    ("genus.coset_space.cosets", "count"),
    ("genus.fix_points.self_s", "s"),
    ("genus.cusp_orbit_ratio.self_s", "s"),
    ("genus.delta.self_s", "s"),
    ("genus.genus_report.self_s", "s"),
    ("genus.direct_check.skipped", "count"),
    ("fibers.commutator_fiber_codes.calls", "count"),
    ("fibers.commutator_fiber_codes.self_s", "s"),
    ("fibers.fiber_group.self_s", "s"),
    ("fibers.verify_orthogonality.self_s", "s"),
    ("fibers.recovery_count_brute.self_s", "s"),
    ("bounds.slim_bound_report.calls", "count"),
    ("bounds.slim_bound_report.self_s", "s"),
    ("bounds.fiber_count_bound_check.calls", "count"),
    ("bounds.fiber_count_bound_check.self_s", "s"),
    ("bounds.verify_section7.calls", "count"),
    ("bounds.verify_section7.self_s", "s"),
) + tuple(("suites.%s.wall_s" % s, "s") for s in SUITE_NAMES) + (
    ("cli.import_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.process_s", "s"),
    ("trace.items", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
)


def span_stats(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self seconds, count sum, aborted,
    and for each child name the number of child spans."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    out: Dict[str, Dict[str, float]] = {}
    for i, s in enumerate(spans):
        st = out.setdefault(s[NAME], Counter())
        dur = s[END] - s[START]
        st["calls"] += 1
        st["total_s"] += dur
        st["self_s"] += dur - child_time[i]
        st["count"] += s[COUNT]
        st["aborted"] += s[ABORTED]
        if s[PARENT] >= 0:
            parent = spans[s[PARENT]][NAME]
            out.setdefault(parent, Counter())["child:" + s[NAME]] += 1
    return out


def top_level_seconds(spans: List[list]) -> float:
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


# Metrics computed from spans other than the one their name starts with.
_SOURCES: Dict[str, Tuple[str, ...]] = {
    "genus.direct_check.skipped": ("genus.fix_points", "genus.cusp_orbit_ratio"),
    "groups.class_codes.miss_ratio": ("groups.class_codes", "groups.conj_class_brute"),
    "subgroups.sample_slim_subgroups.accept_ratio": ("subgroups.sample_slim_subgroups", "subgroups.closure"),
}


def per_layer_metrics(
    stats: Dict[str, Dict[str, float]], counters: Dict[str, int], missing: List[str]
) -> Dict[str, Optional[float]]:
    """The PER_LAYER values that come from spans; the caller adds the ones
    the harness measures itself (trace.*, cli.import_s, cli.process_s)."""

    def g(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: Dict[str, Optional[float]] = {}
    for metric, _unit in PER_LAYER:
        head, _, stat = metric.rpartition(".")
        if head in ("trace", "cli"):
            continue
        if stat in ("calls", "self_s", "aborted"):
            m[metric] = g(head, stat)
        elif stat in ("elements", "cosets", "results"):
            m[metric] = g(head, "count")
        elif stat == "wall_s":
            m[metric] = g(head, "total_s")
    m["groups.enumerate_group.calls_level_ge2"] = counters.get("groups.enumerate_group.calls_level_ge2", 0)
    m["genus.direct_check.skipped"] = counters.get("genus.direct_check.skipped", 0)
    m["groups.class_codes.miss_ratio"] = ratio(
        g("groups.class_codes", "child:groups.conj_class_brute"), g("groups.class_codes", "calls")
    )
    m["subgroups.sample_slim_subgroups.accept_ratio"] = ratio(
        g("subgroups.sample_slim_subgroups", "count"),
        g("subgroups.sample_slim_subgroups", "child:subgroups.closure"),
    )
    for metric in m:
        if set(_SOURCES.get(metric, (metric.rpartition(".")[0],))) & set(missing):
            m[metric] = None
    return m


def merge_stats(into: Dict[str, Counter], more: Dict[str, Dict[str, float]]) -> None:
    for name, st in more.items():
        into.setdefault(name, Counter()).update(st)
