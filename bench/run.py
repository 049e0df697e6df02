#!/usr/bin/env python3
"""Offline benchmark of the appatch pipeline, end to end and per layer.

Run from the repository root::

    python3 bench/run.py --workload large-programs --seed 1 --seconds 20 --trace 0

The benchmark generates seeded synthetic mini-C inputs, then drives the
real CLI in-process (``appatch.cli.main``) through ``slice``, ``mine``,
``patch`` and ``eval`` with ``scripted`` providers behind ``cached``
providers.  The load is a closed loop: one process, one caller, one
thread.  ``mine`` and ``patch`` run with ``--jobs 1`` because
``ScriptedProvider`` pops its queue in thread order, so with more jobs the
scripted answers would land on the wrong samples.

``setup_s`` is the program's own set-up on the gauge's reference host
(see below): the median time a fresh interpreter takes to import
``appatch.cli`` (sampled in short child processes spread over the run),
plus for many-samples-warm the median of the cache-filling cold passes.
``setup_wall_s`` is the same without the scaling.  Generating inputs and
oracles and building the gauge are the benchmark's own work and are not
counted.

Each CLI call is timed from outside with ``time.perf_counter`` (a
monotonic clock); the manifests' ``stage_seconds`` are never read, since
they are a literal 0.0 for ``slice``/``eval`` and replay recorded
latencies under a warm cache.  Calls repeat in whole passes over the
workload's inputs until the next pass would end after ``--seconds``; raw
throughputs sum each call's best time over the passes (see ``best_pass``),
latencies report the median and the highest percentile with ten samples
beyond it.  Outputs are checked after each pass, outside the timed region.

The host's speed drifts by tens of percent in spells that outlast a run,
so raw wall times from runs minutes apart disagree by more than a useful
bound.  Before each timed call the benchmark times a fixed host-speed gauge
(``bench/gauge.py``, no appatch code), and ``pipeline_samples_per_ref_s``
is ``pipeline_samples_per_s`` on a host that runs the gauge in
``gauge.REFERENCE_S`` seconds: each call's wall time is scaled by the
reference over the gauge time just before it, and the median over the
passes is summed (see ``reference_pass``).  ``setup_s`` is scaled the same
way.  ``BENCHMARK.json`` gates on these figures; the raw ones are printed
beside them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports per-layer self times and counts,
plus the tracing overhead (best traced minus best untraced pass).  Every
metric, including those that apply to only some workloads, is printed
by name and unit; the last line of stdout is one JSON object with the
metrics that ``BENCHMARK.json`` names.

``BENCHMARK.json`` lists large-programs and graph-import.  The two
many-samples workloads create thousands of small files per pass (cache
entries and outputs), so their times follow the file system's state more
than the program; they run by name and in ``bench/smoke.py`` but are not
listed.

Which end-to-end metric each layer metric should move:

* ``scoping.vulnerability_semantics.s``, ``exemplars.mining_slice.s``:
  ``slice_lines_per_s``, ``slice_latency_p50_s``, ``mine_samples_per_s``
  and ``pipeline_samples_per_s`` on large-programs and graph-import;
  barely anything on many-samples-*.
* ``scoping.render_slice.s`` (paid once per demand round):
  ``patch_latency_p50_s`` and ``slice_latency_p50_s`` on large-programs.
* ``parser.*``, ``sdg.*``: ``patch_latency_*`` on many-samples-* and
  ``slice_lines_per_s`` on large-programs; nothing on graph-import.
* ``interchange.import_graph.s``: ``slice_lines_per_s`` on graph-import only.
* ``gateway.complete.s`` with hits and misses: ``patch_latency_*`` and
  ``pipeline_samples_per_s`` on many-samples-cold (cache writes) and
  many-samples-warm (cache reads); not large-programs.
* ``prompting.comparisons``, ``prompting.selection_yield``,
  ``prompts.bytes.*``: ``provider_calls_per_sample``,
  ``prompt_bytes_per_sample``, ``est_tokens_per_sample`` on every
  pipeline workload, and ``patch_latency_*`` on many-samples-*.
* ``exemplars.load_pool.s``, ``cli.self_s.*``: ``patch_latency_*`` on
  many-samples-*.
* ``evaluation.classify_syneq.s``, ``diffs.apply_patch.s``:
  ``pipeline_samples_per_s`` on large-programs; little elsewhere.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import checks
import gauge
import programs
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"

SETUP_SAMPLES = 9       # fresh-interpreter imports of appatch timed per run
SETUP_COLD_PASSES = 3   # cache-filling cold passes timed per many-samples-warm run
MAX_EXEMPLARS = 8       # appatch.prompting.MAX_EXEMPLARS, the selection cap
VALIDATORS = ("v1", "v2")
PATCH_OUTPUTS = (["manifest.json", "rendered_slice.txt", "slice.json", "root_cause.json",
                  "selected_exemplars.json", "verdicts.json", "result.json"]
                 + [f"candidate_{i}.diff" for i in range(1, 6)])

E2E_UNITS = {
    "setup_s": "s",
    "setup_wall_s": "s",
    "pipeline_samples_per_s": "samples/s",
    "pipeline_samples_per_ref_s": "samples/s",
    "mine_samples_per_s": "samples/s",
    "slice_lines_per_s": "lines/s",
    "slice_latency_p50_s": "s",
    "patch_latency_p50_s": "s",
    "provider_calls_per_sample": "calls",
    "prompt_bytes_per_sample": "bytes",
    "est_tokens_per_sample": "tokens",
    "peak_rss_mb": "MiB",
    "failure_ratio": "ratio",
}

COUNTERS = {
    "parser.lines": "lines",
    "sdg.nodes": "count", "sdg.edges": "count", "sdg.external_inputs": "count",
    "interchange.graph_bytes": "bytes",
    "scoping.slice_nodes": "count", "scoping.rendered_lines": "lines",
    "exemplars.mined": "count", "exemplars.failed": "count",
    "prompting.demand_rounds": "count", "prompting.comparisons": "count",
    "prompting.candidates": "count",
    "validation.judgements": "count",
    **{f"prompts.bytes.{kind}": "bytes" for kind in tracing.PROMPT_BUILDERS},
}


# ── workloads ───────────────────────────────────────────────────────────

@dataclass(frozen=True)
class Inputs:
    """What one workload generates; ``key`` lets workloads share inputs."""

    key: str
    known: Tuple[int, ...]          # line counts of the known fixes (mined)
    targets: Tuple[int, ...]        # line counts of the targets
    eis_per_stage: int
    fillers_per_stage: int
    rounds: Tuple[int, ...] = (0,)  # CALLER_of_ demand rounds, spread over targets


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                       # "pipeline" or "graph"
    full: Inputs
    small: Inputs
    slice_first: bool = False       # targets go through `slice` before `patch`
    warm: bool = False              # rerun against the cache a cold pass filled


_MANY = Inputs("many", known=(100,) * 48, targets=(100,) * 100,
               eis_per_stage=2, fillers_per_stage=4, rounds=(0, 1, 2))
_MANY_SMALL = Inputs("many", known=(100,) * 10, targets=(100,) * 4,
                     eis_per_stage=2, fillers_per_stage=4, rounds=(0, 1, 2))

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # Program size separates quadratic code from linear code: parsing, SDG
    # building, scoping, mining_slice and SynEq on whole files do almost all
    # the work; the gateway sees only a few dozen calls.  Sizes stop near 6k
    # lines because slicing is quadratic in the number of external inputs.
    Workload(
        "large-programs", "pipeline",
        full=Inputs("large", known=(2000, 3000), targets=(2000, 4000, 6000),
                    eis_per_stage=3, fillers_per_stage=7, rounds=(2, 3)),
        small=Inputs("large", known=(300, 400), targets=(300, 500),
                     eis_per_stage=3, fillers_per_stage=7, rounds=(2, 3)),
        slice_first=True,
    ),
    # About 50 provider calls per target: cache writes, prompting, prompt
    # building, validation, load_pool (re-read by every patch call) and CLI
    # self time carry the load; scoping costs milliseconds.  Every other
    # target scans the whole pool; the rest stop early at the cap.
    Workload("many-samples-cold", "pipeline", full=_MANY, small=_MANY_SMALL),
    # The same inputs against the cache a cold pass filled: the gateway
    # reads where the cold workload writes.
    Workload("many-samples-warm", "pipeline", full=_MANY, small=_MANY_SMALL, warm=True),
    # The only workload through code_model.interchange and the only one that
    # bypasses the parser and SDG builder: a parser change should not move it.
    Workload(
        "graph-import", "graph",
        full=Inputs("graph", known=(), targets=(2000, 2500, 3000) * 2,
                    eis_per_stage=2, fillers_per_stage=8),
        small=Inputs("graph", known=(), targets=(200, 300),
                     eis_per_stage=2, fillers_per_stage=8),
    ),
)}


# ── input generation (the benchmark's own work, never timed) ─────────────

@dataclass
class Target:
    program: programs.Program
    rounds: int = 0
    scan: int = 0                   # exemplars compared during selection
    chosen: int = 0
    retained: List[int] = field(default_factory=list)
    oracle: Set[str] = field(default_factory=set)
    nodes: int = 0
    edges: int = 0
    eis: int = 0

    @property
    def id(self) -> str:
        return self.program.id

    def provider_calls(self) -> Dict[str, int]:
        """Manifest accounting calls, keyed like the manifest by the id of the
        provider that answered (the scripted one behind each cache)."""
        return {"gen-raw": self.rounds + 1 + self.scan + 1,
                **{f"{v}-raw": 5 for v in VALIDATORS}}


@dataclass
class Generated:
    dir: Path
    known: List[programs.Program]
    targets: List[Target]
    digest: str = ""

    @property
    def lines(self) -> int:
        return sum(p.lines for p in self.known) + sum(t.program.lines for t in self.targets)


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_jsonl(path: Path, docs) -> None:
    path.write_text("".join(json.dumps(d, sort_keys=True) + "\n" for d in docs),
                    encoding="utf-8")


def _scans(count: int, pool: int) -> List[int]:
    """Selection scan lengths: every other target scans the whole pool, the
    rest stop early at the cap, at positions spread over the pool."""
    if pool <= MAX_EXEMPLARS:
        return [pool] * count
    early = count // 2
    span = pool - MAX_EXEMPLARS
    return [pool if i % 2 else MAX_EXEMPLARS + ((i // 2) * span) // max(1, early)
            for i in range(count)]


def _config(providers: Sequence[Tuple[str, str]]) -> Dict:
    """Scripted providers behind cached ones; paths relative to configs/."""
    entries = []
    for pid, script in providers:
        entries.append({"id": f"{pid}-raw", "kind": "scripted", "script": f"../scripts/{script}"})
        entries.append({"id": pid, "kind": "cached", "inner": f"{pid}-raw",
                        "cache_dir": f"../../cache/{pid}"})
    return {"providers": entries}


def generate(spec: Inputs, seed: int, root: Path) -> Generated:
    rng = random.Random(f"{spec.key}:{seed}")

    def shape(lines: int) -> programs.Shape:
        return programs.Shape(lines, spec.eis_per_stage, spec.fillers_per_stage)

    known = [programs.make_program(rng, f"k{i:03d}", shape(n)) for i, n in enumerate(spec.known)]
    targets = [Target(programs.make_program(rng, f"t{i:03d}", shape(n)))
               for i, n in enumerate(spec.targets)]
    pool = len(known)
    # Rounds, validation patterns and scan lengths follow the target index,
    # not the seed, so every seed asks for the same work on each size.
    rounds = [spec.rounds[i % len(spec.rounds)] for i in range(len(targets))]
    patterns = [programs.VALIDATION_PATTERNS[i % len(programs.VALIDATION_PATTERNS)]
                for i in range(len(targets))]
    scans = _scans(len(targets), pool)

    for target, n_rounds, pattern, scan in zip(targets, rounds, patterns, scans):
        prog = target.program
        (root / "src").mkdir(parents=True, exist_ok=True)
        (root / "src" / prog.file).write_text(prog.text, encoding="utf-8")
        if not pool:
            continue
        cmp = programs.comparison_answers(rng, pool, scan, MAX_EXEMPLARS)
        v1, v2, retained = programs.validator_answers(prog, pattern)
        gen = (programs.root_cause_answers(rng, prog, n_rounds) + cmp
               + [programs.patch_answer(prog)])
        target.rounds, target.scan, target.retained = n_rounds, scan, retained
        target.chosen = sum(a.startswith("Yes") for a in cmp)
        _write_json(root / "samples" / f"{prog.id}.json", prog.sample_document())
        for pid, answers in (("gen", gen), ("v1", v1), ("v2", v2)):
            _write_json(root / "scripts" / f"{prog.id}.{pid}.json", answers)
        _write_json(root / "configs" / f"{prog.id}.json",
                    _config([(p, f"{prog.id}.{p}.json") for p in ("gen",) + VALIDATORS]))

    if pool:
        _write_jsonl(root / "known.jsonl", [p.sample_document() for p in known])
        _write_json(root / "scripts" / "miner.json",
                    [programs.mining_answer(rng, p) for p in known])
        _write_json(root / "configs" / "mine.json", _config([("miner", "miner.json")]))
        _write_jsonl(root / "targets.jsonl", [t.program.sample_document() for t in targets])
        labels = []
        for t in targets:
            ordinal = t.program.plausible.index(True) + 1
            if ordinal in t.retained:
                labels.append({"sample_id": t.id, "ordinal": ordinal,
                               "category": "Plausible", "source": "human"})
        _write_jsonl(root / "labels.jsonl", labels)
    return Generated(root, known, targets)


def prepare_graphs(gen: Generated, kind: str) -> None:
    """Build each target's oracle slice; export graphs for graph-import.

    Uses appatch's parser, SDG builder and exporter, never its scoping.
    """
    from appatch.code_model import (build_sdg, dump_graph, export_graph,
                                    identify_external_inputs, import_graph, parse_program)
    for target in gen.targets:
        prog = target.program
        program = parse_program([(prog.file, prog.text)])
        graph = build_sdg(program)
        if kind == "graph":
            text = dump_graph(graph)
            path = gen.dir / "graphs" / f"{prog.id}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
            program, graph = import_graph(text)
        ei = identify_external_inputs(program, graph)
        target.oracle = checks.oracle_slice(export_graph(graph), ei.ids,
                                            prog.file, prog.vuln_line)
        target.nodes, target.edges, target.eis = len(graph.nodes), len(graph.edges), len(ei.ids)
    digest = hashlib.sha256()
    for path in sorted(p for p in gen.dir.rglob("*") if p.is_file()):
        digest.update(path.relative_to(gen.dir).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    gen.digest = digest.hexdigest()  # over every input file, graphs included


# ── calling the CLI ─────────────────────────────────────────────────────

@dataclass
class Call:
    stage: str
    sample: str
    seconds: float
    code: Optional[int]
    outputs: List[str]              # output files, relative to the pass directory
    gauge_s: Optional[float] = None  # host-speed gauge timed just before the call
    problem: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.code != 0 or self.problem is not None


class Caller:
    """Runs one CLI command in-process, timed from outside, after timing
    the host-speed gauge when one is given."""

    def __init__(self, main: Callable, tracer: Optional[tracing.Tracer] = None,
                 host_gauge: Optional[gauge.Gauge] = None):
        self.main = main
        self.tracer = tracer
        self.host_gauge = host_gauge

    def __call__(self, stage: str, sample: str, argv: List[str], outputs: List[str]) -> Call:
        gauge_s = self.host_gauge() if self.host_gauge is not None else None
        tracer = self.tracer
        if tracer is not None:
            tracer.sample = sample
            root = tracer.open(f"cli.{stage}")
        start = time.perf_counter()
        try:
            # The CLI's summary line must not reach the benchmark's stdout,
            # whose last line is the result.
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.main(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            code = None
        end = time.perf_counter()
        if tracer is not None:
            tracer.close(root, start, end, failed=code != 0)
        return Call(stage, sample, end - start, code, outputs, gauge_s)


def run_pass(workload: Workload, gen: Generated, out: Path, call: Caller) -> List[Call]:
    """One pass over every input of the workload, writing under ``out``."""
    inputs = gen.dir

    def slice_call(t: Target, source: List[str]) -> Call:
        rel = f"slices/{t.id}/slice.json"
        return call("slice", t.id, ["slice", *source,
                                    "--vuln", f"{t.program.file}:{t.program.vuln_line}",
                                    "--cwe", programs.CWE, "--out", str(out / rel)],
                    [rel, rel + ".txt", rel + ".manifest.json"])

    if workload.kind == "graph":
        return [slice_call(t, ["--graph", str(inputs / "graphs" / f"{t.id}.json")])
                for t in gen.targets]

    calls: List[Call] = []

    pool = out / "pool.jsonl"
    calls.append(call("mine", "mine", [
        "mine", "--dataset", str(inputs / "known.jsonl"), "--provider", "miner",
        "--pool", str(pool), "--config", str(inputs / "configs" / "mine.json"),
        "--jobs", "1",
    ], ["pool.jsonl", "pool.jsonl.manifest.json"]))
    for t in gen.targets:
        if workload.slice_first:
            calls.append(slice_call(t, ["--source", str(inputs / "src" / t.program.file)]))
        calls.append(call("patch", t.id, [
            "patch", "--sample", str(inputs / "samples" / f"{t.id}.json"),
            "--pool", str(pool), "--provider", "gen", "--validators", ",".join(VALIDATORS),
            "--out", str(out / "results" / t.id),
            "--config", str(inputs / "configs" / f"{t.id}.json"), "--jobs", "1",
        ], [f"results/{t.id}/{name}" for name in PATCH_OUTPUTS]))
    calls.append(call("eval", "eval", [
        "eval", "--results", str(out / "results"),
        "--ground-truth", str(inputs / "targets.jsonl"),
        "--labels", str(inputs / "labels.jsonl"), "--report", str(out / "report.json"),
    ], ["report.json", "report.json.manifest.json"]))
    return calls


# ── checks (outside the timed region) ───────────────────────────────────

def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _patch_problem(t: Target, out: Path) -> Optional[str]:
    problem = checks.slice_problem(out / "slice.json", t.oracle)
    if problem:
        return problem
    try:
        result = _load(out / "result.json")
        root_cause = _load(out / "root_cause.json")
        chosen = _load(out / "selected_exemplars.json")
        accounting = _load(out / "manifest.json")["accounting"]
    except (OSError, ValueError, KeyError) as exc:
        return f"{t.id}: unreadable patch output ({exc})"
    if result.get("retained") != t.retained:
        return f"{t.id}: retained {result.get('retained')} != {t.retained}"
    if root_cause.get("iterations") != t.rounds + 1:
        return f"{t.id}: {root_cause.get('iterations')} root-cause rounds != {t.rounds + 1}"
    if len(chosen) != t.chosen:
        return f"{t.id}: {len(chosen)} exemplars chosen != {t.chosen}"
    calls = {pid: entry["calls"] for pid, entry in accounting.items()}
    if calls != t.provider_calls():
        return f"{t.id}: provider calls {calls} != {t.provider_calls()}"
    return None


def check_pass(workload: Workload, gen: Generated, out: Path, calls: List[Call],
               reference: Optional[Path]) -> None:
    """Set ``problem`` on every call whose outputs are wrong."""
    by_id = {t.id: t for t in gen.targets}
    pool = len(gen.known)
    expected = checks.expected_report(
        {t.id: t.retained for t in gen.targets},
        {t.id: t.program.syneq.index(True) + 1 for t in gen.targets},
        {t.id: t.program.plausible.index(True) + 1 for t in gen.targets},
    ) if pool else None
    for c in calls:
        if c.code != 0:
            c.problem = f"exit code {c.code}"
            continue
        if c.stage == "slice":
            c.problem = checks.slice_problem(out / c.outputs[0], by_id[c.sample].oracle)
        elif c.stage == "patch":
            c.problem = _patch_problem(by_id[c.sample], out / "results" / c.sample)
        elif c.stage == "mine":
            mined = len((out / "pool.jsonl").read_text(encoding="utf-8").splitlines())
            if mined != pool:
                c.problem = f"mined {mined} exemplars, expected {pool}"
        elif c.stage == "eval":
            c.problem = checks.report_problem(out / "report.json", expected)
        if c.problem is None and reference is not None:
            c.problem = checks.tree_problem(reference, out, c.outputs)


# ── metrics ─────────────────────────────────────────────────────────────

def percentile_metrics(prefix: str, samples: Sequence[float]) -> Dict[str, float]:
    """Median plus the highest percentile with at least ten samples beyond it."""
    if not samples:
        return {}
    out = {f"{prefix}_p50_s": statistics.median(samples)}
    ordered = sorted(samples)
    for label, q in (("p999", 0.999), ("p99", 0.99), ("p90", 0.90)):
        if len(ordered) * (1 - q) >= 10:
            out[f"{prefix}_{label}_s"] = ordered[min(len(ordered) - 1, int(q * len(ordered)))]
            break
    return out


@dataclass
class Pass:
    calls: List[Call]
    traced: bool
    layers: Dict[str, float] = field(default_factory=dict)
    spans: List[list] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.calls)


def best_pass(passes: List[Pass], stage: Optional[str] = None) -> float:
    """Wall time of an undisturbed pass: each call's best time over the
    passes, summed over the pass's calls (or over one stage's calls).

    On a shared host, interference only ever adds time and comes in spells
    of seconds, so a per-call median moves with the spells while the best
    time tracks the program's own cost.
    """
    columns = zip(*([c.seconds for c in p.calls if stage in (None, c.stage)] for p in passes))
    return sum(min(column) for column in columns)


def reference_pass(passes: List[Pass]) -> float:
    """Wall time of a pass on the gauge's reference host: each call's time
    scaled by ``gauge.REFERENCE_S`` over the gauge time measured just before
    it, the median over the passes, summed over the pass's calls.

    The scaling removes the host's slow spells, which last longer than a
    run; the median removes what is left of the call-to-call noise.
    """
    columns = zip(*([scaled(c.seconds, c.gauge_s) for c in p.calls] for p in passes))
    return sum(statistics.median(column) for column in columns)


def end_to_end(workload: Workload, gen: Generated, passes: List[Pass], out: Path,
               setup_s: float, attempted: int, failed: int) -> Tuple[Dict[str, float], Dict[str, int]]:
    """End-to-end metrics that apply to this workload, and their sample counts."""
    timed = [p for p in passes if not p.traced]
    n_targets = len(gen.targets)
    metrics = {"setup_s": setup_s}
    counts: Dict[str, int] = {}
    stages = {c.stage for c in timed[0].calls}
    rates = {"pipeline_samples_per_s": n_targets / best_pass(timed),
             "pipeline_samples_per_ref_s": n_targets / reference_pass(timed)}
    if "mine" in stages:
        rates["mine_samples_per_s"] = len(gen.known) / best_pass(timed, "mine")
    if "slice" in stages:
        lines = sum(t.program.lines for t in gen.targets)
        rates["slice_lines_per_s"] = lines / best_pass(timed, "slice")
    for name, value in rates.items():
        metrics[name], counts[name] = value, len(timed)
    for stage in ("slice", "patch"):
        latencies = [c.seconds for p in timed for c in p.calls if c.stage == stage]
        for name, value in percentile_metrics(f"{stage}_latency", latencies).items():
            metrics[name], counts[name] = value, len(latencies)

    if len(gen.known):
        # Deterministic counts come from the last pass's manifests and the
        # cache, whose entries hold every distinct prompt sent.
        calls = tokens = 0
        manifests = [out / "pool.jsonl.manifest.json"]
        manifests += [out / "results" / t.id / "manifest.json" for t in gen.targets]
        for path in manifests:
            for entry in _load(path)["accounting"].values():
                calls += entry["calls"]
                tokens += entry["input_tokens"] + entry["output_tokens"]
        prompt_bytes = sum(len(_load(p)["prompt"].encode("utf-8"))
                           for p in (gen.dir.parent / "cache").rglob("*.json"))
        metrics["provider_calls_per_sample"] = calls / n_targets
        metrics["prompt_bytes_per_sample"] = prompt_bytes / n_targets
        metrics["est_tokens_per_sample"] = tokens / n_targets
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["failure_ratio"] = failed / attempted
    return metrics, counts


def _cache_files(cache: Path) -> Dict[str, int]:
    return {str(p): p.stat().st_size for p in cache.rglob("*.json")} if cache.is_dir() else {}


def layer_metrics(tracer: tracing.Tracer, cache_before: Dict[str, int],
                  cache_after: Dict[str, int], out: Path) -> Dict[str, float]:
    """Per-layer self times and counts of one traced pass."""
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    m: Dict[str, float] = {}
    for name in tracing.TRACED_FUNCTIONS:
        m[f"{name}.s"] = 0.0
        m[f"{name}.calls"] = 0
    for cmd in ("slice", "mine", "patch", "eval"):
        m[f"cli.self_s.{cmd}"] = 0.0
    m.update({"gateway.complete.s": 0.0, "gateway.calls": 0, "gateway.errors": 0})
    m.update({name: 0 for name in COUNTERS})
    for i, (name, _start, _end, parent, _sample, failed) in enumerate(spans):
        if name.startswith("cli."):
            m[f"cli.self_s.{name[4:]}"] += selfs[i]
            continue
        m[f"{name}.s"] += selfs[i]
        if name == "gateway.complete":
            if spans[parent][0] != "gateway.complete":  # configured (outer) provider
                m["gateway.calls"] += 1
                m["gateway.errors"] += failed
        else:
            m[f"{name}.calls"] += 1
    m.update({k: v for k, v in tracer.counters.items() if k in COUNTERS})
    c = tracer.counters
    m["cli.self_s"] = sum(m[f"cli.self_s.{cmd}"] for cmd in ("slice", "mine", "patch", "eval"))
    parse_s = m["parser.parse_program.s"]
    m["parser.lines_per_s"] = c["parser.lines"] / parse_s if parse_s else 0.0
    semantics_calls = m["scoping.vulnerability_semantics.calls"]
    m["scoping.pairs"] = c["scoping.pairs_total"] / semantics_calls if semantics_calls else 0.0
    m["prompting.selection_yield"] = (c["prompting.chosen"] / c["prompting.comparisons"]
                                      if c["prompting.comparisons"] else 0.0)
    m["validation.retain_ratio"] = (c["validation.retained"] / c["validation.judged"]
                                    if c["validation.judged"] else 0.0)
    new = set(cache_after) - set(cache_before)
    m["gateway.cache_misses"] = len(new)
    m["gateway.cache_hits"] = m["gateway.calls"] - len(new)
    m["gateway.cache_bytes_written"] = sum(cache_after[p] for p in new)
    written = [p for p in out.rglob("*") if p.is_file()]
    m["cli.files_written"] = len(written)
    m["cli.bytes_written"] = sum(p.stat().st_size for p in written)
    return m


def layer_unit(name: str) -> str:
    if name in COUNTERS:
        return COUNTERS[name]
    if name.endswith(".s") or name.startswith("cli.self_s") or name == "trace.overhead_s":
        return "s"
    if name.endswith("_per_s"):
        return "lines/s"
    if name.endswith(("yield", "ratio")):
        return "ratio"
    if name.endswith("bytes_written") or name.endswith("graph_bytes"):
        return "bytes"
    return "count"


# ── one run ─────────────────────────────────────────────────────────────

_IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import appatch.cli
print(time.perf_counter() - start)
"""


def time_import(host_gauge: gauge.Gauge) -> Tuple[float, float]:
    """Seconds a fresh interpreter takes to import ``appatch.cli``, and the
    host-speed gauge timed just before."""
    gauge_s = host_gauge()
    probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout.split()[-1]), gauge_s


def scaled(seconds: float, gauge_s: float) -> float:
    """``seconds`` on the gauge's reference host."""
    return seconds * gauge.REFERENCE_S / gauge_s


def _reset(*dirs: Path) -> None:
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    e2e: Dict[str, float]
    e2e_counts: Dict[str, int]
    layers: Dict[str, float]
    sizes: Dict[str, object]
    problems: List[str]


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        small: bool = False) -> Result:
    work = WORK_ROOT / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(workload, seed, seconds, trace, small, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload: Workload, seed: int, seconds: float, trace: bool, small: bool,
         work: Path) -> Result:
    spec = workload.small if small else workload.full
    gen = generate(spec, seed, work / "inputs")
    cli = importlib.import_module("appatch.cli")
    host_gauge = gauge.Gauge()
    import_times = [time_import(host_gauge)]
    prepare_graphs(gen, workload.kind)
    out, cache, reference = work / "out", work / "cache", None
    all_calls: List[Call] = []
    # The benchmark's own objects (inputs, oracles) are long-lived; keep the
    # collector from rescanning them inside the program's timed calls.
    gc.collect()
    gc.freeze()

    cold_s = cold_wall_s = 0.0
    if workload.warm:
        reference = work / "cold"
        cold_times, cold_walls = [], []
        for _ in range(SETUP_COLD_PASSES):
            _reset(reference, cache)
            gc.collect()
            calls = run_pass(workload, gen, reference, Caller(cli.main, None, host_gauge))
            check_pass(workload, gen, reference, calls, None)
            all_calls += calls
            cold_times.append(sum(scaled(c.seconds, c.gauge_s) for c in calls))
            cold_walls.append(sum(c.seconds for c in calls))
        cold_s, cold_wall_s = statistics.median(cold_times), statistics.median(cold_walls)

    passes: List[Pass] = []
    started = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        pass_started = time.perf_counter() - started
        # Set-up samples are spread over the run, so their median does not
        # hang on one moment of the host's load.
        due = len(import_times) * seconds / SETUP_SAMPLES
        if len(import_times) < SETUP_SAMPLES and time.perf_counter() - started >= due:
            import_times.append(time_import(host_gauge))
        _reset(out)
        if not workload.warm:
            _reset(cache)
        gc.collect()
        tracer = tracing.Tracer() if traced else None
        before = _cache_files(cache) if traced else {}
        if tracer:
            tracer.install()
        try:
            calls = run_pass(workload, gen, out,
                             Caller(cli.main, tracer, None if traced else host_gauge))
        finally:
            if tracer:
                tracer.uninstall()
        done = Pass(calls, traced)
        if tracer:
            done.layers = layer_metrics(tracer, before, _cache_files(cache), out)
            done.spans = tracer.spans
        check_pass(workload, gen, out, calls, reference)
        all_calls += calls
        passes.append(done)
        elapsed = time.perf_counter() - started
        # Stop before a pass that would end past the deadline, once the
        # minimum is done (one pass, or one of each kind when tracing).
        last = elapsed - pass_started
        if elapsed + last >= seconds and len(passes) >= (2 if trace else 1):
            break

    problems = [f"{c.stage} {c.sample}: {c.problem}" for c in all_calls if c.failed]
    failed = len(problems)
    setup_s = statistics.median(scaled(*t) for t in import_times) + cold_s
    e2e, e2e_counts = end_to_end(workload, gen, passes, out, setup_s, len(all_calls), failed)
    e2e["setup_wall_s"] = statistics.median(wall for wall, _ in import_times) + cold_wall_s
    e2e_counts["setup_s"] = e2e_counts["setup_wall_s"] = len(import_times)
    layers: Dict[str, float] = {}
    if trace:
        layers, trace_problem = summarize_trace(passes)
        if trace_problem:
            problems.append(trace_problem)
        write_trace(workload, seed, passes)
    rendered = (out / "results" / t.id / "rendered_slice.txt" if workload.kind == "pipeline"
                else out / "slices" / t.id / "slice.json.txt" for t in gen.targets)
    sizes = {
        "inputs_sha256": gen.digest,
        "programs": len(gen.known) + len(gen.targets),
        "known_fixes": len(gen.known),
        "targets": len(gen.targets),
        "target_lines": [t.program.lines for t in gen.targets][:8],
        "lines": gen.lines,
        "nodes": sum(t.nodes for t in gen.targets),
        "edges": sum(t.edges for t in gen.targets),
        "eis": sum(t.eis for t in gen.targets),
        "slice_nodes": sum(len(t.oracle) for t in gen.targets),
        "rendered_lines": sum(p.read_text(encoding="utf-8").count("\n") for p in rendered),
        "passes": len([p for p in passes if not p.traced]),
        "traced_passes": len([p for p in passes if p.traced]),
        "host_gauge_p50_s": statistics.median(c.gauge_s for p in passes for c in p.calls
                                              if c.gauge_s is not None),
    }
    return Result(not problems, len(all_calls), failed, e2e, e2e_counts, layers, sizes, problems)


def summarize_trace(passes: List[Pass]) -> Tuple[Dict[str, float], Optional[str]]:
    """Median per-layer metrics over traced passes, the tracing overhead
    (best traced minus best untraced pass), and the span checks."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    problem = None
    for p in traced:
        spans = p.spans
        problem = problem or tracing.check_nesting(spans)
        total_self = sum(tracing.self_times(spans).values())
        if abs(total_self - p.seconds) > 1e-6:
            problem = problem or (f"layer self times sum to {total_self:.6f} s, "
                                  f"traced wall time is {p.seconds:.6f} s")
    layers = {k: statistics.median(p.layers[k] for p in traced) for k in traced[0].layers}
    traced_s, plain_s = best_pass(traced), best_pass(plain)
    layers["trace.overhead_s"] = traced_s - plain_s
    layers["trace.overhead_ratio"] = (traced_s - plain_s) / plain_s
    return layers, problem


def write_trace(workload: Workload, seed: int, passes: List[Pass]) -> None:
    path = WORK_ROOT / "traces" / f"{workload.name}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"fields": ["name", "start", "end", "parent", "sample", "failed"],
           "passes": [p.spans for p in passes if p.traced]}
    path.write_text(json.dumps(doc), encoding="utf-8")


# ── command line ────────────────────────────────────────────────────────

def benchmark_spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result_line(result: Result, trace: bool, spec: Dict) -> Dict:
    source = result.layers if trace else result.e2e
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        metrics[entry["name"]] = {"value": source[entry["name"]], "unit": entry["unit"]}
    return {"correct": result.correct, "attempted": result.attempted,
            "failed": result.failed, "metrics": metrics}


def print_report(workload: Workload, seed: int, result: Result, trace: bool) -> None:
    print(f"# appatch benchmark: workload={workload.name} seed={seed} trace={int(trace)}")
    for key, value in result.sizes.items():
        print(f"size {key} = {value}")
    for name, value in result.e2e.items():
        unit = E2E_UNITS.get(name, "s")
        n = result.e2e_counts.get(name)
        note = f"  (n={n})" if n is not None else ""
        if name == "failure_ratio":
            note = f"  ({result.failed} of {result.attempted} operations)"
        print(f"e2e {name} = {value:.6g} {unit}{note}")
    for name in sorted(result.layers):
        print(f"layer {name} = {result.layers[name]:.6g} {layer_unit(name)}")
    for problem in result.problems[:20]:
        print(f"FAILED {problem}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "appatch" / "cli.py").is_file():
        print(f"error: appatch sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = benchmark_spec()
    workload = WORKLOADS[args.workload]
    result = run(workload, args.seed, args.seconds, bool(args.trace))
    print_report(workload, args.seed, result, bool(args.trace))
    print(json.dumps(result_line(result, bool(args.trace), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
