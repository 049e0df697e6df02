#!/usr/bin/env python3
"""Fast smoke check of the benchmark harness, with no timing bound.

Runs every workload once at its smallest size, untraced and traced, and
fails (exit 1) unless every output check passes, every metric that
``BENCHMARK.json`` names is produced with its unit, and a second run with
the same seed reproduces the input digests and the deterministic counts.

    python3 bench/smoke.py
"""

from __future__ import annotations

import sys

import run

# Counts that must repeat exactly for a seed (calls, bytes, tokens, sizes).
DETERMINISTIC_E2E = ("provider_calls_per_sample", "prompt_bytes_per_sample",
                     "est_tokens_per_sample", "failure_ratio")
TIMING_SIZES = ("passes", "traced_passes", "host_gauge_p50_s")


def deterministic(result: run.Result) -> dict:
    counts = {k: v for k, v in result.sizes.items() if k not in TIMING_SIZES}
    counts.update({k: result.e2e[k] for k in DETERMINISTIC_E2E if k in result.e2e})
    counts.update({k: v for k, v in result.layers.items() if k in run.COUNTERS})
    return counts


def main() -> int:
    if not (run.ROOT / "src" / "appatch" / "cli.py").is_file():
        print("error: appatch sources not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.ROOT / "src"))
    spec = run.benchmark_spec()
    listed = {w["name"] for w in spec["workloads"]}
    failures = []
    for name, workload in run.WORKLOADS.items():
        for trace in (False, True):
            first = run.run(workload, 1, 0, trace, small=True)
            again = run.run(workload, 1, 0, trace, small=True)
            label = f"{name} trace={int(trace)}"
            if not first.correct or first.failed:
                failures.append(f"{label}: {first.problems[:3]}")
            if deterministic(first) != deterministic(again):
                failures.append(f"{label}: same seed gave different inputs or counts")
            if name in listed:
                # The result line must carry every metric BENCHMARK.json
                # names, with the unit it names.
                wanted = spec["per_layer" if trace else "end_to_end"]
                line = run.result_line(first, trace, spec)
                for entry in wanted:
                    unit = (run.layer_unit(entry["name"]) if trace
                            else run.E2E_UNITS.get(entry["name"]))
                    if unit != entry["unit"]:
                        failures.append(f"{label}: {entry['name']} has unit {unit}, "
                                        f"BENCHMARK.json says {entry['unit']}")
                if set(line["metrics"]) != {e["name"] for e in wanted}:
                    failures.append(f"{label}: result line metrics differ from BENCHMARK.json")
            print(f"{label}: correct={first.correct} attempted={first.attempted} "
                  f"failed={first.failed}")
    for failure in failures:
        print(f"FAILED {failure}")
    print("smoke: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
