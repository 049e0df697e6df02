"""The benchmark harness still drives the program end to end.

Runs each benchmarked workload once at its smallest size with tracing on,
so renaming or re-signing a public function the harness calls or traces
fails here rather than in the benchmark.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run  # noqa: E402  (bench/run.py)


@pytest.mark.parametrize("name", ["large-programs", "graph-import"])
def test_benchmark_workload_runs_correctly(name):
    try:
        result = run.run(run.WORKLOADS[name], 1, 0, True, small=True)
    finally:
        gc.unfreeze()   # the harness freezes its long-lived objects
    assert result.correct, result.problems[:5]
    assert result.failed == 0
