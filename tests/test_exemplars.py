import copy
import json
import random
import time

import pytest

from appatch import exemplars
from appatch.code_model import export_graph
from appatch.code_model.model import ExternalInputSet
from appatch.exemplars import (
    DatasetError,
    DatasetSample,
    Exemplar,
    MalformedResponseError,
    build_pool,
    load_dataset,
    load_pool,
    mine_exemplar,
    mining_slice,
    save_pool,
)
from appatch.files import write_text_atomic
from appatch.gateway import CachedProvider, ConfigurationError, prompt_sha
from appatch.prompts import build_mining_prompt, render_ei, split_sections
from appatch.scoping import VulnSpec

from conftest import FixedProvider, load_script, scripted
from oracles import adjacency_maps, bfs, random_dag


@pytest.fixture(scope="module")
def dataset(fixtures_dir):
    path = fixtures_dir / "dataset.jsonl"
    return load_dataset(path.read_text(encoding="utf-8"), path)


def test_dataset_loads_and_checks_patches(dataset):
    assert len(dataset) == 3
    assert dataset[0].vuln.cwe_ids == ("CWE-787",)


def test_dataset_rejects_non_applying_patch(tmp_path):
    record = {
        "id": "broken",
        "sources": [["a.c", "int f(){return 0;}\n"]],
        "vuln": {"lines": [["a.c", 1]], "cwes": ["CWE-787"]},
        "ground_truth_patch": "--- a/a.c\n+++ b/a.c\n@@ -1,1 +1,1 @@\n-nope\n+yes\n",
    }
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(DatasetError) as err:
        load_dataset(path.read_text(encoding="utf-8"), path)
    assert "does not apply" in str(err.value)


def test_mining_restricts_ei_to_patch_reaching_inputs(dataset):
    sample = dataset[0]  # jsi: the fix touches only the allocation line
    program, graph, result, rendered, reaching_ei = mining_slice(sample)
    texts = {graph.node(nid).text for nid in reaching_ei}
    assert texts == {"char *dStr", "p = malloc(cnt + 1)"}
    # the second entry parameter cannot influence the patched line
    assert "char *quoted" not in texts
    assert rendered.included_functions == {"format_value"}


def test_mine_exemplar_fills_sections_and_digest(dataset):
    sample = dataset[0]
    provider = scripted(load_script("mine.json")[:1], provider_id="miner")
    exemplar, exchange = mine_exemplar(sample, provider)
    assert exchange.response == load_script("mine.json")[0]
    assert exemplar.sample_id == sample.id
    assert exemplar.root_cause.startswith("The external input dStr")
    assert exemplar.fixing_strategy.startswith("Size the allocation")
    assert exemplar.provider_id == "miner"

    # digest is recomputable from the reconstructed prompt
    _, graph, _, rendered, reaching_ei = mining_slice(sample)
    prompt = build_mining_prompt(
        slice_text=rendered.text,
        spec=sample.vuln,
        patch=sample.ground_truth_patch,
        ei=render_ei(graph, reaching_ei),
    )
    assert exemplar.prompt_digest == prompt_sha(prompt) == prompt_sha(exchange.prompt)


def test_mining_does_not_mutate_the_sample(dataset):
    sample = dataset[0]
    before = copy.deepcopy(sample)
    mine_exemplar(sample, scripted(load_script("mine.json")[:1]))
    assert sample == before


def test_empty_body_is_a_malformed_response(dataset):
    with pytest.raises(MalformedResponseError) as err:
        mine_exemplar(dataset[0], scripted([""]))
    assert err.value.exchange.response == ""   # the answer was made, so it is accounted


def test_missing_strategy_section_is_malformed(dataset):
    with pytest.raises(MalformedResponseError):
        mine_exemplar(dataset[0], scripted(["ROOT CAUSE:\nsomething bad"]))


def test_split_sections_tolerates_leading_chatter():
    cause, strategy = split_sections(
        "Sure, here is the analysis.\nROOT CAUSE:\nbad flow\n"
        "FIXING STRATEGY:\nbound the copy"
    )
    assert cause == "bad flow"
    assert strategy == "bound the copy"


def test_split_sections_passes_over_an_echoed_instruction():
    """Headers count only where a line starts, so the instruction's quoted
    headers are not read as the sections."""
    assert split_sections(
        "I will use the sections 'ROOT CAUSE:' and 'FIXING STRATEGY:'.\n"
        "ROOT CAUSE: dStr overflows buf\n  FIXING STRATEGY: bound the copy"
    ) == ("dStr overflows buf", "bound the copy")
    with pytest.raises(ValueError):
        split_sections("Use 'ROOT CAUSE:' then 'FIXING STRATEGY:' as headers.")


def test_build_pool_mines_all_samples(dataset):
    provider = scripted(load_script("mine.json"), provider_id="miner")
    pool, failures, exchanges = build_pool(dataset, provider)
    assert not failures
    assert [ex.sample_id for ex in pool] == [s.id for s in dataset]
    assert [e.response for e in exchanges] == load_script("mine.json")


def test_build_pool_collects_failures(dataset):
    responses = load_script("mine.json")
    responses[1] = ""  # second sample answers with an empty body
    pool, failures, exchanges = build_pool(dataset, scripted(responses))
    assert [ex.sample_id for ex in pool] == ["jsi-strcpy-overflow", "null-deref-store"]
    assert [f.sample_id for f in failures] == ["idx-oob-read"]
    assert [e.response for e in exchanges] == responses   # the malformed answer included


def test_mining_answer_with_empty_sections_is_a_mining_failure(dataset):
    responses = load_script("mine.json")
    responses[1] = "ROOT CAUSE:\n\nFIXING STRATEGY:\n"
    pool, failures, _ = build_pool(dataset, scripted(responses))
    assert [ex.sample_id for ex in pool] == ["jsi-strcpy-overflow", "null-deref-store"]
    assert [f.sample_id for f in failures] == ["idx-oob-read"]
    assert "response sections are empty" in failures[0].message


def test_empty_dataset_builds_empty_pool():
    pool, failures, exchanges = build_pool([], scripted([]))
    assert len(pool) == 0 and not failures and not exchanges


def test_pool_round_trip(dataset, tmp_path):
    pool, _, _ = build_pool(dataset, scripted(load_script("mine.json")))
    path = tmp_path / "pool.jsonl"
    path.write_text(save_pool(pool), encoding="utf-8")
    assert load_pool(path.read_text(encoding="utf-8"), path) == pool


def test_pool_iteration_order_survives_save_load(dataset, tmp_path):
    pool, _, _ = build_pool(dataset, scripted(load_script("mine.json")))
    path = tmp_path / "pool.jsonl"
    path.write_text(save_pool(pool), encoding="utf-8")
    loaded = load_pool(path.read_text(encoding="utf-8"), path)
    assert [e.sample_id for e in loaded] == [e.sample_id for e in pool]


def test_truncated_pool_line_reports_line_number(dataset, tmp_path):
    pool, _, _ = build_pool(dataset, scripted(load_script("mine.json")))
    path = tmp_path / "pool.jsonl"
    path.write_text(save_pool(pool), encoding="utf-8")
    text = path.read_text().splitlines()
    text[-1] = text[-1][: len(text[-1]) // 2]
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(DatasetError) as err:
        load_pool(path.read_text(encoding="utf-8"), path)
    assert "line 3" in str(err.value)


def test_failed_save_leaves_previous_pool_intact(dataset, tmp_path, monkeypatch):
    pool, _, _ = build_pool(dataset, scripted(load_script("mine.json")))
    assert len(pool) >= 2
    path = tmp_path / "pool.jsonl"
    path.write_text(save_pool(pool), encoding="utf-8")
    before = path.read_bytes()

    to_document = Exemplar.to_document
    calls = []

    def fails_on_second(self):
        calls.append(self.sample_id)
        if len(calls) == 2:
            raise RuntimeError("serialization failed")
        return to_document(self)

    monkeypatch.setattr(Exemplar, "to_document", fails_on_second)
    with pytest.raises(RuntimeError):
        write_text_atomic(path, save_pool(pool[::-1]))
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["pool.jsonl"]


def test_large_pool_loads_quickly(tmp_path):
    pool = [Exemplar(
        sample_id=f"sample-{index:04d}",
        slice_text="1: int x;\n2: x = source();\n3: sink(x);",
        cwe_ids=("CWE-787",),
        vulnerable_lines=(("f.c", 3),),
        root_cause="The input flows from source to sink unchecked. " * 20,
        fixing_strategy="Bound the value before the sink. " * 10,
        ground_truth_patch="--- a/f.c\n+++ b/f.c\n@@ -3,1 +3,1 @@\n-sink(x);\n+sink(x & 7);\n",
        provider_id="miner",
        prompt_digest="0" * 64,
    ) for index in range(306)]
    path = tmp_path / "big.jsonl"
    path.write_text(save_pool(pool), encoding="utf-8")
    started = time.monotonic()
    loaded = load_pool(path.read_text(encoding="utf-8"), path)
    elapsed = time.monotonic() - started
    assert len(loaded) == 306
    assert elapsed < 1.0


def test_mining_twice_with_cache_is_byte_identical(dataset, tmp_path):
    responses = load_script("mine.json")

    def run(cache_dir):
        inner = scripted(responses, provider_id="miner")
        provider = CachedProvider("cached-miner", inner, cache_dir)
        pool, failures, _ = build_pool(dataset, provider)
        assert not failures
        path = tmp_path / f"pool-{len(list(tmp_path.iterdir()))}.jsonl"
        path.write_text(save_pool(pool), encoding="utf-8")
        return path.read_bytes()

    cache = tmp_path / "cache"
    first = run(cache)
    second = run(cache)
    assert first == second


def test_load_pool_rejects_a_repeated_sample_id_naming_its_line(tmp_path):
    exemplar = Exemplar(
        sample_id="dup", slice_text="s", cwe_ids=(), vulnerable_lines=(("f.c", 1),),
        root_cause="r", fixing_strategy="s", ground_truth_patch="",
        provider_id="p", prompt_digest="d",
    )
    path = tmp_path / "pool.jsonl"
    path.write_text(save_pool([exemplar, exemplar._replace(sample_id="other"), exemplar]),
                    encoding="utf-8")
    with pytest.raises(DatasetError) as err:
        load_pool(path.read_text(encoding="utf-8"), path)
    assert str(err.value) == f"{path}, line 3: duplicate sample id in pool: 'dup'"


def test_build_pool_rejects_a_repeated_sample_id_before_any_call(dataset):
    class Unreachable(FixedProvider):
        def _fetch(self, prompt):
            raise AssertionError("the provider was called")

    with pytest.raises(ValueError) as err:
        build_pool([*dataset, dataset[1]], Unreachable(""))
    assert str(err.value) == f"duplicate sample id in dataset: {dataset[1].id!r}"


def test_graph_backed_sample_skips_apply_check(jsi_graph):
    from appatch.code_model import export_graph

    sample = DatasetSample(
        id="graphy",
        vuln=__import__("appatch.scoping", fromlist=["VulnSpec"]).VulnSpec(
            vulnerable_lines=(("jsi_like.c", 48),), cwe_ids=("CWE-787",),
        ),
        graph_document=export_graph(jsi_graph),
        ground_truth_patch="--- a/x\n+++ b/x\n@@ -1,1 +1,1 @@\n-a\n+b\n",
    )
    sample.check_patch_applies()  # does not raise
    _, graph, _, _ = sample.slice()
    assert set(graph.nodes) == set(jsi_graph.nodes)


def test_concurrent_mining_preserves_dataset_order(dataset):
    # one answer for every prompt makes the call order immaterial
    response = load_script("mine.json")[0]
    pool, failures, exchanges = build_pool(dataset, FixedProvider(response), jobs=3)
    assert not failures
    assert [ex.sample_id for ex in pool] == [s.id for s in dataset]
    _, _, in_order = build_pool(dataset, FixedProvider(response), jobs=1)
    assert exchanges == in_order


def test_provider_failure_becomes_mining_error(dataset):
    from appatch.exemplars import MiningError

    provider = scripted([{"error": "offline", "transient": False}])
    with pytest.raises(MiningError) as err:
        mine_exemplar(dataset[0], provider)
    assert err.value.sample_id == "jsi-strcpy-overflow"
    assert err.value.exchange is None   # no answer, nothing to account


# ── mining slice against a brute-force oracle ───────────────────────────

def _hunks(spans):
    """A one-file diff whose hunks cover the given (start, old count) spans."""
    lines = ["--- a/g.c", "+++ b/g.c"]
    for start, count in spans:
        lines.append(f"@@ -{start},{count} +{start},{count + 1} @@")
        lines += ["-old"] * count + ["+new"] * (count + 1)
    return "\n".join(lines) + "\n"


def _patch_reaching_ei(graph, ei_ids, spans):
    """The per-input definition: inputs whose forward BFS meets a patched node."""
    forward, _ = adjacency_maps(graph)
    patched = set()
    for start, count in spans:
        end = start + count - 1 if count else start
        patched |= {n.id for n in graph.nodes.values() if start <= n.line <= end}
    return frozenset(e for e in ei_ids if patched and bfs(forward, e) & patched)


def test_mining_reaching_ei_matches_per_input_oracle(monkeypatch):
    rng = random.Random(20240810)
    fell_back = 0
    for index in range(200):
        graph, sv_ids, ei_ids = random_dag(rng)
        lines = len(graph.nodes)
        spans = []
        at = 1
        for _ in range(rng.randint(0, 3)):
            if at > lines + 4:
                break
            start = rng.randint(at, lines + 4)
            count = rng.randint(0, 3)
            spans.append((start, count))
            at = start + count + 1
        if index == 0:
            spans = [(lines + 2, 2)]     # touches no node: no patch nodes
        sample = DatasetSample(
            id=f"dag-{index}",
            vuln=VulnSpec(
                vulnerable_lines=tuple(("g.c", graph.node(s).line) for s in sorted(sv_ids)),
                cwe_ids=("CWE-125",),
            ),
            graph_document=export_graph(graph),
            ground_truth_patch=_hunks(spans) if spans else None,
        )
        ei = ExternalInputSet(frozenset(ei_ids))
        monkeypatch.setattr(exemplars, "identify_external_inputs",
                            lambda program, graph, functions=None: ei)
        _program, _graph, result, _rendered, reaching_ei = mining_slice(sample)
        expected = _patch_reaching_ei(graph, ei_ids, spans)
        if not expected:
            expected = result.ei_ids
            fell_back += 1
        assert reaching_ei == expected, (index, spans)
    assert 0 < fell_back < 200


# ── failures are explicit: a sample's failure is reported, a defect raised ─

def test_sample_that_does_not_parse_is_a_reported_parse_failure():
    broken = DatasetSample(
        id="broken", vuln=VulnSpec((("bad.c", 1),), ("CWE-787",)),
        sources=(("bad.c", "int f(){"),), ground_truth_patch="unused",
    )
    pool, failures, _ = build_pool([broken], scripted([]))
    assert len(pool) == 0
    assert [f.message for f in failures] == [
        "sample 'broken': cannot build the dependence graph: "
        "bad.c:1:9: expected '}', found end of input"
    ]


@pytest.mark.parametrize("jobs", [1, 3])
def test_defect_while_mining_propagates_out_of_build_pool(dataset, monkeypatch, jobs):
    def defect(*args, **kwargs):
        raise RuntimeError("defect in mining_slice")

    monkeypatch.setattr(exemplars, "mining_slice", defect)
    response = load_script("mine.json")[0]
    with pytest.raises(RuntimeError, match="defect in mining_slice"):
        build_pool(dataset, FixedProvider(response), jobs=jobs)


def test_build_pool_refuses_a_scripted_provider_at_more_than_one_job(dataset, tmp_path):
    """A script answers in call order, which threads would scramble: the
    refusal sees behind the provider's cache, and one job still mines."""
    responses = load_script("mine.json")
    direct = scripted(responses)
    behind = CachedProvider("cached", direct, tmp_path / "cache")
    for provider in (direct, behind):
        with pytest.raises(ConfigurationError) as err:
            build_pool(dataset, provider, jobs=2)
        assert str(err.value) == (
            f"provider {provider.id!r} replays the script of 'scripted' "
            "in call order; mine with it at --jobs 1, not --jobs 2"
        )
    assert not list(tmp_path.iterdir())
    # The script holds one answer per sample, so a refused call that took
    # one would leave a sample unanswered here.
    pool, failures, _ = build_pool(dataset, behind, jobs=1)
    assert not failures
    assert [ex.sample_id for ex in pool] == [s.id for s in dataset]
