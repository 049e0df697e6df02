"""Host-speed gauge: a fixed computation timed next to every timed CLI call.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes, and a whole run can fall inside a slow spell, so wall times
from runs minutes apart disagree by more than any useful bound.  The
gauge measures that drift where it happens: just before each timed call
it times a fixed pure-Python computation shaped like the program's own
hot loops (graph reachability over string-keyed dicts and sets, then
formatting and sorting the result, over a working set of a few MiB).  A
call's wall time times ``REFERENCE_S / gauge time`` is its wall time on a
host that runs the gauge in ``REFERENCE_S`` seconds.

The gauge is seed-free and imports nothing from appatch, so a change to
the program cannot change the gauge's work.  The collector is off while it
runs, so the program's heap does not slow it down.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, List, Set, Tuple

REFERENCE_S = 0.05  # gauge time of the reference host that scaled times refer to
NODES = 20000
ENDPOINTS = 20


def _graph() -> Tuple[List[str], Dict[str, Set[str]], Dict[str, Set[str]]]:
    rng = random.Random("gauge")
    ids = [f"gauge.c:{i}:{rng.randrange(1 << 30):x}" for i in range(NODES)]
    succ: Dict[str, Set[str]] = {k: set() for k in ids}
    pred: Dict[str, Set[str]] = {k: set() for k in ids}
    for i, k in enumerate(ids):
        for _ in range(3):
            j = min(NODES - 1, i + rng.randrange(1, 50))
            succ[k].add(ids[j])
            pred[ids[j]].add(k)
    return ids, succ, pred


def _reach(adjacency: Dict[str, Set[str]], starts: List[str]) -> Set[str]:
    seen = set(starts)
    stack = list(starts)
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


class Gauge:
    """Build once (the benchmark's own set-up), then call to time one run."""

    def __init__(self) -> None:
        self.ids, self.succ, self.pred = _graph()

    def __call__(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            both = _reach(self.succ, self.ids[:ENDPOINTS]) & _reach(self.pred, self.ids[-ENDPOINTS:])
            text = "\n".join(sorted(f"{k} -> {len(self.succ[k])}" for k in both))
            text.encode("utf-8")
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
