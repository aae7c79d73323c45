"""The machine's speed at this moment, from fixed reference work.

The benchmark runs on a few cores of a shared host whose speed moves by a
third or more for a minute at a time, while nothing in our own process
changes (CPU time equals wall time through it).  Every timed interval is
therefore bracketed by two probes of fixed reference work of the same kind,
and reported scaled to the speed at which one probe takes its reference
time:

    scaled = measured * ref / mean(probe before, probe after)

``IN_PROCESS`` runs a pure-Python kernel of the same kind as the library's
hot loops (breadth-first closure of <u, t(u)> in SL2(Z/7Z): 4-tuple
products mod m, set membership) in the calling process; it scales work done
in a warm process.  ``FRESH_PROCESS`` starts a fresh interpreter that
imports the standard modules the CLI uses and runs the kernel briefly; it
scales work that starts a process (a set-up, a CLI call), whose start-up
costs do not follow the kernel's speed.  Both live here, apart from
``sl2genus``, so no change to the program can change them.  The scaled
figures are what the run would have read on the reference machine at a
steady speed; the raw ones are in the report line.

Run as a script, this file is the fresh-process probe's work.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from typing import Callable, NamedTuple

_RUNS = 100
_FRESH_RUNS = 30


def _kernel(m: int = 7) -> int:
    gens = ((1, 1, 0, 1), (1, 0, 1, 1))
    seen = {(1, 0, 0, 1)}
    frontier = [(1, 0, 0, 1)]
    while frontier:
        nxt = []
        for a, b, c, d in frontier:
            for e, f, g, h in gens:
                y = ((a * e + b * g) % m, (a * f + b * h) % m, (c * e + d * g) % m, (c * f + d * h) % m)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def _in_process() -> float:
    """Seconds for a hundred runs of the kernel, about 30 ms, after one
    untimed run that warms it.  The collector is off meanwhile, so garbage
    the program left behind is not collected on the probe's clock."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        t0 = time.perf_counter()
        for _ in range(_RUNS):
            _kernel()
        return time.perf_counter() - t0
    finally:
        if was_on:
            gc.enable()


def _fresh_process() -> float:
    """Seconds for a fresh interpreter to run this file as a script, about
    90 ms."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Probe(NamedTuple):
    run: Callable[[], float]
    ref_s: float  # one probe on the reference machine at its usual speed

    def scale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` measured between probes ``before`` and ``after``, at
        the reference speed."""
        return seconds * self.ref_s * 2.0 / (before + after)


# Reference times: a 2-core Intel Xeon VM, CPython 3.11.7.  They are only
# units; every scaled time is a multiple of one of them.
IN_PROCESS = Probe(_in_process, 0.030)
FRESH_PROCESS = Probe(_fresh_process, 0.090)


if __name__ == "__main__":
    import argparse  # noqa: F401  (what a CLI start imports)
    import fractions  # noqa: F401
    import json  # noqa: F401

    for _ in range(_FRESH_RUNS):
        _kernel()
