"""Acceptance checklist: one test per criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.

Criterion 1 regresses the F1 computation against an externally published
results table of 32 (recall, precision, F1) rows.  F1 rises with both
recall and precision, so the corners of the rounding box
``(R ± 0.005, P ± 0.005)`` bound every F1 a row's printed recall and
precision could stand for.  A row is an F1 at all only if its printed F1,
give or take its own rounding half-unit, lies inside those bounds; the box
is computed with plain arithmetic, independently of the code under test.
Thirty rows pass that test and must reproduce within ``F1_TOLERANCE_PP``.
Two fail it, and are pinned by name in ``PUBLISHED_INCONSISTENT_ROWS``:
the box test must find exactly that set, and on those two rows the F1
function must still equal the independently computed harmonic mean of
their printed recall and precision.  The published values stay as printed.
"""

from __future__ import annotations

import difflib
import itertools
import json
import random
import time
from pathlib import Path

import pytest

from appatch.cli import main
from appatch.code_model.model import ExternalInputSet
from appatch.diffs import apply_patch
from appatch.evaluation import classify_syneq, f1_score
from appatch.exemplars import DatasetSample
from appatch.gateway import prompt_sha
from appatch.prompting import generate_root_cause, select_exemplars
from appatch.scoping import VulnSpec, vulnerability_semantics
from appatch.validation import validate_all

from conftest import scripted, syneq_truth
from oracles import random_dag, union_slice_oracle
from test_prompting import make_exemplar, fake_cause
from test_validation import SLICE, SPEC, patch as make_patch

FIXTURES = Path(__file__).parent / "fixtures"


def verdict(number: int, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {state} — {detail}")


# ── criterion 1: metrics regression ─────────────────────────────────────

# Externally published (recall %, precision %, F1 %) triples, eight per
# model row: SynEq, SemEq, Plausible, Correct on two datasets.
REFERENCE_F1_ROWS = [
    ("model-a", "set-1", "SynEq", 6.19, 1.64, 2.59),
    ("model-a", "set-1", "SemEq", 26.80, 14.48, 18.80),
    ("model-a", "set-1", "Plausible", 25.77, 12.84, 17.14),
    ("model-a", "set-1", "Correct", 39.18, 28.96, 33.30),
    ("model-a", "set-2", "SynEq", 5.00, 2.30, 3.15),
    ("model-a", "set-2", "SemEq", 75.00, 42.53, 54.28),
    ("model-a", "set-2", "Plausible", 40.00, 10.34, 16.44),
    ("model-a", "set-2", "Correct", 90.00, 55.17, 68.41),
    ("model-b", "set-1", "SynEq", 2.06, 0.56, 0.88),
    ("model-b", "set-1", "SemEq", 9.28, 6.16, 7.41),
    ("model-b", "set-1", "Plausible", 21.64, 9.80, 13.49),
    ("model-b", "set-1", "Correct", 26.80, 16.53, 20.44),
    ("model-b", "set-2", "SynEq", 0.00, 0.00, 0.00),
    ("model-b", "set-2", "SemEq", 35.00, 18.68, 24.20),
    ("model-b", "set-2", "Plausible", 30.00, 16.48, 21.28),
    ("model-b", "set-2", "Correct", 50.00, 35.16, 42.90),
    ("model-c", "set-1", "SynEq", 4.12, 0.92, 1.51),
    ("model-c", "set-1", "SemEq", 37.11, 17.32, 23.62),
    ("model-c", "set-1", "Plausible", 22.68, 10.62, 14.47),
    ("model-c", "set-1", "Correct", 49.48, 28.87, 36.46),
    ("model-c", "set-2", "SynEq", 10.00, 2.04, 3.39),
    ("model-c", "set-2", "SemEq", 80.00, 44.90, 57.52),
    ("model-c", "set-2", "Plausible", 45.00, 18.37, 26.09),
    ("model-c", "set-2", "Correct", 85.00, 65.31, 73.86),
    ("model-d", "set-1", "SynEq", 1.03, 0.27, 0.42),
    ("model-d", "set-1", "SemEq", 21.65, 9.55, 13.25),
    ("model-d", "set-1", "Plausible", 18.56, 8.75, 11.89),
    ("model-d", "set-1", "Correct", 35.05, 18.57, 24.28),
    ("model-d", "set-2", "SynEq", 5.00, 1.03, 1.71),
    ("model-d", "set-2", "SemEq", 70.00, 44.33, 54.28),
    ("model-d", "set-2", "Plausible", 20.00, 8.25, 11.68),
    ("model-d", "set-2", "Correct", 80.00, 53.61, 64.20),
]

F1_TOLERANCE_PP = 0.05


# The printed F1 of these rows is no harmonic mean of their own printed
# recall and precision under any rounding of the three numbers: the box
# bounds are [24.3537, 24.3646] for SemEq and [41.2818, 41.2921] for
# Correct.  Which of a row's numbers carries the typo cannot be told from
# the table itself, so the rows stay as printed and are pinned here.
PUBLISHED_INCONSISTENT_ROWS = frozenset({
    ("model-b", "set-2", "SemEq"),
    ("model-b", "set-2", "Correct"),
})

ROUNDING_HALF_UNIT_PP = 0.005


def _harmonic_mean(recall: float, precision: float) -> float:
    """2RP/(R+P), zero when either is zero; kept apart from ``f1_score``."""
    if recall <= 0 or precision <= 0:
        return 0.0
    return 2 * recall * precision / (recall + precision)


def _rounding_box(recall: float, precision: float):
    """Lowest and highest F1 of any (R, P) that print as ``recall, precision``."""
    half = ROUNDING_HALF_UNIT_PP
    return (_harmonic_mean(max(recall - half, 0.0), max(precision - half, 0.0)),
            _harmonic_mean(recall + half, precision + half))


def test_criterion_1_metrics_regression():
    started = time.monotonic()
    inconsistent = set()
    mismatches = []
    pinned = []
    worst = 0.0
    half = ROUNDING_HALF_UNIT_PP
    for model, dataset, category, recall, precision, published in REFERENCE_F1_ROWS:
        name = f"{model}/{dataset}/{category}"
        computed = f1_score(recall / 100.0, precision / 100.0) * 100.0
        low, high = _rounding_box(recall, precision)
        if low - half <= published <= high + half:
            worst = max(worst, abs(computed - published))
            if abs(computed - published) > F1_TOLERANCE_PP:
                mismatches.append(f"{name}: computed {computed:.4f} "
                                  f"vs published {published:.2f}")
            continue
        inconsistent.add((model, dataset, category))
        expected = _harmonic_mean(recall, precision)
        if abs(computed - expected) > 1e-9:
            mismatches.append(f"{name}: computed {computed:.4f} "
                              f"vs harmonic mean {expected:.4f}")
        pinned.append(f"{name} printed {published:.2f}, computed "
                      f"{computed:.4f} (box [{low:.4f}, {high:.4f}])")
    elapsed = time.monotonic() - started
    consistent = len(REFERENCE_F1_ROWS) - len(inconsistent)
    same_set = inconsistent == PUBLISHED_INCONSISTENT_ROWS
    ok = same_set and not mismatches and elapsed < 1.0
    verdict(1, ok,
            f"metrics regression: {consistent} consistent rows, max deviation "
            f"{worst:.4f} pp (tolerance {F1_TOLERANCE_PP}); {len(inconsistent)} "
            f"published rows inconsistent under rounding: {'; '.join(pinned)}; "
            f"{len(mismatches)} mismatch(es) ({elapsed:.3f}s)")
    assert elapsed < 1.0
    assert same_set, (
        f"rows inconsistent under rounding {sorted(inconsistent)} "
        f"!= pinned {sorted(PUBLISHED_INCONSISTENT_ROWS)}"
    )
    assert not mismatches, "; ".join(mismatches)


# ── criterion 2: slicing oracle equivalence ─────────────────────────────

def test_criterion_2_slicing_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(1729)
    instances = 1000
    for _ in range(instances):
        graph, sv_ids, ei_ids = random_dag(rng, max_nodes=50, max_sv=3, max_ei=3)
        spec = VulnSpec(
            vulnerable_lines=tuple(
                ("g.c", graph.node(sv).line) for sv in sorted(sv_ids)
            ),
            cwe_ids=("CWE-787",),
        )
        result = vulnerability_semantics(graph, spec, ExternalInputSet(frozenset(ei_ids)))
        expected, fallback = union_slice_oracle(graph, sv_ids, ei_ids)
        assert result.node_ids == expected
        assert result.fallback == fallback
    elapsed = time.monotonic() - started
    verdict(2, elapsed < 10.0,
            f"{instances} random graphs equal the reachability oracle "
            f"({elapsed:.2f}s)")
    assert elapsed < 10.0


# ── criterion 3: validation truth table ─────────────────────────────────

def test_criterion_3_validation_truth_table():
    correct = 0
    combos = list(itertools.product(["yes", "no"], repeat=3))
    for combo in combos:
        validators = [scripted([answer], f"v{i}") for i, answer in enumerate(combo)]
        retained, _, _ = validate_all([make_patch()], validators, SLICE, SPEC)
        if (len(retained) == 1) == ("yes" in combo):
            correct += 1
    verdict(3, correct == 8, f"{correct}/8 verdict combinations retained correctly")
    assert correct == 8


# ── criterion 4: exemplar cap and order ─────────────────────────────────

def test_criterion_4_exemplar_cap_and_order():
    pool20 = tuple(make_exemplar(f"s{i:02d}") for i in range(20))
    chosen, _, _ = select_exemplars(fake_cause(), pool20, scripted(["yes"] * 20))
    first_eight = [e.sample_id for e in chosen] == [f"s{i:02d}" for i in range(8)]

    pool3 = tuple(make_exemplar(f"e{i}") for i in range(3))
    chosen3, _, _ = select_exemplars(fake_cause(), pool3, scripted(["yes", "no", "yes"]))
    picked_1_and_3 = [e.sample_id for e in chosen3] == ["e0", "e2"]

    ok = first_eight and picked_1_and_3
    verdict(4, ok, "cap at 8 in pool order; yes/no/yes selects exemplars 1 and 3")
    assert first_eight
    assert picked_1_and_3


# ── criterion 5: progressive expansion ──────────────────────────────────

def _e2e_context():
    sample = DatasetSample.from_document(
        json.loads((FIXTURES / "sample_e2e.json").read_text()), "sample_e2e.json"
    )
    program, graph, _, result = sample.slice()
    return sample, program, graph, result


def test_criterion_5_progressive_expansion():
    sample, program, graph, result = _e2e_context()

    provider = scripted([
        'context, please: {"context_funcs":["format_value"]}',
        "final answer",
    ])
    grown, _, _ = generate_root_cause(graph, program, sample.vuln, result, provider)
    two_rounds = (
        grown.iterations == 2
        and not grown.forced_final
        and grown.functions_used > frozenset({"jsi_strcpy"})
    )

    forever = scripted(['{"context_funcs":["no_such_function"]}'] * 10)
    capped, _, _ = generate_root_cause(
        graph, program, sample.vuln, result, forever, max_rounds=10,
    )
    halted = capped.iterations == 10 and capped.forced_final

    verdict(5, two_rounds and halted,
            "one demand terminates in 2 iterations with a grown function set; "
            "endless demands halt at the 10-round ceiling with forced_final")
    assert two_rounds
    assert halted


# ── criterion 6: end-to-end scripted run ────────────────────────────────

def _tree_bytes(root: Path):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def test_criterion_6_end_to_end_scripted_run(tmp_path):
    started = time.monotonic()
    scripts = FIXTURES / "scripted"
    providers = []
    for pid, script in [("gen", "gen.json"), ("miner", "mine.json"),
                        ("v1", "val1.json"), ("v2", "val2.json")]:
        providers.append({"id": f"{pid}-raw", "kind": "scripted",
                          "script": str(scripts / script)})
        providers.append({"id": pid, "kind": "cached", "inner": f"{pid}-raw",
                          "cache_dir": str(tmp_path / "cache" / pid)})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"providers": providers}, indent=2))

    pool_path = tmp_path / "pool.jsonl"
    assert main(["mine", "--dataset", str(FIXTURES / "dataset.jsonl"),
                 "--provider", "miner", "--pool", str(pool_path),
                 "--config", str(config)]) == 0
    assert len(pool_path.read_text().splitlines()) == 3

    def run(name: str) -> Path:
        out_dir = tmp_path / name
        code = main([
            "patch", "--sample", str(FIXTURES / "sample_e2e.json"),
            "--pool", str(pool_path), "--provider", "gen",
            "--validators", "v1,v2", "--out", str(out_dir),
            "--config", str(config),
        ])
        assert code == 0
        return out_dir

    first = run("run1")
    second = run("run2")
    third = run("run3")

    result = json.loads((first / "result.json").read_text())
    root_cause = json.loads((first / "root_cause.json").read_text())
    chosen = json.loads((first / "selected_exemplars.json").read_text())
    produced_ok = (
        bool(root_cause["text"])
        and len(chosen) <= 8
        and [c["ordinal"] for c in result["candidates"]] == [1, 2, 3, 4, 5]
        and result["retained"] == [1, 3, 4]  # exactly the scripted yes rows
    )

    warm_identical = _tree_bytes(second) == _tree_bytes(third)
    cold_matches_warm = _tree_bytes(first) == _tree_bytes(second)
    elapsed = time.monotonic() - started

    verdict(6, produced_ok and warm_identical and elapsed < 5.0,
            f"scripted pipeline produced root cause, {len(chosen)} exemplars, "
            f"5 candidates, retained {result['retained']}; warm-cache reruns "
            f"byte-identical={warm_identical} ({elapsed:.2f}s)")
    assert produced_ok
    assert warm_identical
    assert cold_matches_warm
    assert elapsed < 5.0


# ── criterion 7: prompt fidelity ────────────────────────────────────────

def test_criterion_7_prompt_fidelity():
    from regen_goldens import collect_prompts

    golden_dir = FIXTURES / "golden" / "prompts"
    emitted = collect_prompts()
    stored = {p.stem: p.read_text(encoding="utf-8") for p in golden_dir.glob("*.txt")}
    same_set = set(emitted) == set(stored)
    digest_matches = sum(
        1 for name in emitted
        if name in stored and prompt_sha(emitted[name]) == prompt_sha(stored[name])
    )
    sentence = ("reason about the vulnerable behavior step by step until the "
                "vulnerability is determined")
    reasoning_prompts = [n for n in emitted if n.startswith(("mining", "root_cause"))]
    sentence_ok = all(sentence in emitted[n] for n in reasoning_prompts)

    ok = same_set and digest_matches == len(emitted) and sentence_ok
    verdict(7, ok,
            f"{digest_matches}/{len(emitted)} emitted prompts match their "
            f"golden digests; reasoning sentence verbatim={sentence_ok}")
    assert same_set
    assert digest_matches == len(emitted)
    assert sentence_ok


# ── criterion 8: SynEq classifier ───────────────────────────────────────

GT_DIFF = (
    "--- a/jsi_like.c\n"
    "+++ b/jsi_like.c\n"
    "@@ -24,1 +24,1 @@\n"
    "-    p = malloc(cnt + 1);\n"
    "+    p = malloc(jsi_strlen(use) + 1);\n"
)
STRNCPY_DIFF = (
    "--- a/jsi_like.c\n"
    "+++ b/jsi_like.c\n"
    "@@ -48,1 +48,1 @@\n"
    "-    return jsi_strcpy(p, use);\n"
    "+    return jsi_strncpy(p, use, cnt + 1);\n"
)


def _reformat(text: str, rng: random.Random) -> str:
    """Whitespace/comment-only mutation of a source text."""
    out = []
    for line in text.split("\n"):
        stripped = line.strip()
        if stripped:
            indent = rng.choice(["", " ", "  ", "    ", "\t", "\t "])
            line = indent + line.lstrip()
            if rng.random() < 0.3:
                line = line + rng.choice(["  ", " \t"])
            if rng.random() < 0.2:
                line = line + " /* reformatted */"
        out.append(line)
        if stripped and rng.random() < 0.15:
            out.append("")
        if stripped and rng.random() < 0.1:
            out.append("// spacing note")
    return "\n".join(out)


def test_criterion_8_syneq_classifier(jsi_source):
    sources = {"jsi_like.c": jsi_source}

    truth = syneq_truth(sources, GT_DIFF)
    reflexive_ok = classify_syneq(sources, GT_DIFF, truth)[0] is True

    truth_text = apply_patch(sources, GT_DIFF)["jsi_like.c"]
    rng = random.Random(99)
    hits = 0
    mutations = 100
    for _ in range(mutations):
        mutated = _reformat(truth_text, rng)
        candidate = "".join(difflib.unified_diff(
            jsi_source.splitlines(keepends=True),
            mutated.splitlines(keepends=True),
            fromfile="a/jsi_like.c", tofile="b/jsi_like.c",
        ))
        equal, _note = classify_syneq(sources, candidate, truth)
        hits += equal
    mutation_ok = hits == mutations

    pair_distinct = classify_syneq(sources, STRNCPY_DIFF, truth)[0] is False

    ok = reflexive_ok and mutation_ok and pair_distinct
    verdict(8, ok,
            f"reflexive={reflexive_ok}; {hits}/{mutations} reformatting "
            f"mutations equal; bound-edit vs reallocation distinct={pair_distinct}")
    assert reflexive_ok
    assert mutation_ok
    assert pair_distinct
