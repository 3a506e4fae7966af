"""Reference loops that gauge the host's current speed.

On a shared host the time of one call moves with what the neighbours do:
the same `admissibility-table --q 2 --depth 12` call takes 0.45 s or 0.9 s
within a minute, in phases of seconds to minutes, with CPU time equal to
wall time.  Medians over a 40-second run do not average such phases out.

So the benchmark times a fixed reference loop right before and right after
every measured call, and reports the call's time scaled to a host on which
the loop takes its nominal time:

    scaled = elapsed * nominal / mean(loop before, loop after)

The loops are part of the benchmark, not of treerep, so a change to the
program moves the scaled time and a change of host speed does not.  A loop
tracks the host only as far as it does the same kind of work as the call,
so each workload names its loops (`workloads.REFERENCE`):

* `walk`: interpreter work like treerep's tree code: a function call per
  vertex, an isinstance check, tuples built and stored in a dict, for the
  non-backtracking words of length up to 10 over three letters.
* `lookup`: integer arithmetic, then dict lookups spread over a table of
  about 15 MB, for work bound by memory as numpy gathers are.

A Reference with no loops leaves times raw; the traced run uses it.
"""
from __future__ import annotations

import functools
import time

# seconds each loop takes on a quiet 2-vCPU VM; only the scale of the
# reported times depends on them
NOMINAL_S = {"walk": 0.0025, "lookup": 0.0065}


def _children(addr: tuple, q: int) -> list:
    if not isinstance(addr, tuple):
        raise TypeError(addr)
    return [addr + (a,) for a in range(q) if not (addr and a == addr[-1])]


def walk() -> int:
    seen: dict = {}
    frontier = [()]
    for _ in range(10):
        nxt = []
        for addr in frontier:
            for child in _children(addr, 3):
                seen[child] = len(seen)
                nxt.append(child)
        frontier = nxt
    return len(seen)


@functools.cache
def _table() -> tuple[dict, list]:
    table = {(i * 7919 % 1_000_003, i): i for i in range(100_000)}
    probes = [(i * 7919 % 1_000_003, i) for i in range(0, 100_000, 17)]
    return table, [probes[i * 389 % len(probes)] for i in range(len(probes))]


def lookup() -> int:
    table, probes = _table()
    acc = 0
    for i in range(25_000):
        acc += i * i % 7
    for key in probes:
        acc += table[key]
    return acc


LOOPS = {"walk": walk, "lookup": lookup}


class Reference:
    """The loops one workload's calls are scaled by."""

    def __init__(self, parts: tuple[str, ...]):
        self.loops = [LOOPS[p] for p in parts]
        self.nominal = sum(NOMINAL_S[p] for p in parts)
        if "lookup" in parts:
            _table()  # built once, before anything is timed

    def time(self) -> float:
        """Seconds the loops take now."""
        start = time.perf_counter()
        for loop in self.loops:
            loop()
        return time.perf_counter() - start

    def scale(self, elapsed: float, before: float, after: float) -> float:
        """`elapsed` rescaled to a host on which the loops take `nominal`."""
        if not self.loops:
            return elapsed
        return elapsed * self.nominal / ((before + after) / 2)
