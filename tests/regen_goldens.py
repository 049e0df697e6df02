#!/usr/bin/env python3
"""Regenerate the golden prompt files under tests/fixtures/golden/prompts/.

Run after any deliberate change to prompt construction:

    python3 tests/regen_goldens.py

The golden tests compare emitted prompts byte-for-byte against these
files, so regeneration must be a conscious act, not a side effect.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

TESTS = Path(__file__).parent
FIXTURES = TESTS / "fixtures"
GOLDEN = FIXTURES / "golden" / "prompts"


def collect_prompts():
    from appatch.exemplars import DatasetSample, build_pool, load_dataset
    from appatch.gateway import ScriptedProvider
    from appatch.prompting import (
        generate_patches,
        generate_root_cause,
        select_exemplars,
    )
    from appatch.prompts import build_validation_prompt

    def script(name, provider_id):
        responses = json.loads((FIXTURES / "scripted" / name).read_text())
        return ScriptedProvider(provider_id, responses, backoff=0.0)

    prompts = {}

    # Phase 1: mining prompts for the three dataset samples
    dataset_path = FIXTURES / "dataset.jsonl"
    dataset = load_dataset(dataset_path.read_text(encoding="utf-8"), dataset_path)
    pool, failures, exchanges = build_pool(dataset, script("mine.json", "miner"))
    assert not failures, failures
    for sample, exchange in zip(dataset, exchanges):
        short = sample.id.split("-")[0]
        prompts[f"mining_{short}"] = exchange.prompt

    # Phase 2 on the zero-day-style sample
    sample = DatasetSample.from_document(
        json.loads((FIXTURES / "sample_e2e.json").read_text()), "sample_e2e.json"
    )
    program, graph, _, result = sample.slice()

    generator = script("gen.json", "gen")
    root_cause, rendered, rc_exchanges = generate_root_cause(
        graph, program, sample.vuln, result, generator,
    )
    for round_number, exchange in enumerate(rc_exchanges, start=1):
        prompts[f"root_cause_round{round_number}"] = exchange.prompt

    chosen, sel_exchanges, _ = select_exemplars(root_cause, pool, generator)
    for index, exchange in enumerate(sel_exchanges, start=1):
        prompts[f"comparison_{index}"] = exchange.prompt

    patches, gen_exchange = generate_patches(
        chosen, rendered, sample.vuln, root_cause, generator, program,
    )
    prompts["patch_request"] = gen_exchange.prompt

    for patch in patches:
        prompts[f"validation_{patch.ordinal}"] = build_validation_prompt(
            slice_text=rendered.text,
            spec=sample.vuln,
            patch=patch.diff,
        )
    return prompts


def main() -> int:
    sys.path.insert(0, str(TESTS.parent / "src"))
    GOLDEN.mkdir(parents=True, exist_ok=True)
    prompts = collect_prompts()
    for stale in GOLDEN.glob("*.txt"):
        stale.unlink()
    for name, text in sorted(prompts.items()):
        (GOLDEN / f"{name}.txt").write_text(text, encoding="utf-8")
        print(f"wrote {name}.txt ({len(text)} bytes)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
