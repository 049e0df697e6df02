import json

import pytest

from appatch.code_model import identify_external_inputs, parse_program
from appatch.exemplars import Exemplar
from appatch.gateway import ConfigurationError
from appatch.prompting import (
    NoPatchesError,
    RootCause,
    generate_patches,
    generate_root_cause,
    parse_context_demand,
    select_exemplars,
)
from appatch.scoping import VulnSpec, vulnerability_semantics

from conftest import load_script, scripted


@pytest.fixture(scope="module")
def e2e_setup(fixtures_dir):
    from appatch.exemplars import DatasetSample

    sample = DatasetSample.from_document(
        json.loads((fixtures_dir / "sample_e2e.json").read_text()), "sample_e2e.json"
    )
    program, graph, ei, result = sample.slice()
    return sample, program, graph, ei, result


def make_exemplar(sample_id, root_cause="cause", cwes=("CWE-787",)):
    return Exemplar(
        sample_id=sample_id,
        slice_text="1: int x;",
        cwe_ids=tuple(cwes),
        vulnerable_lines=(("f.c", 1),),
        root_cause=root_cause,
        fixing_strategy="strategy",
        ground_truth_patch="--- a/f.c\n+++ b/f.c\n@@ -1,1 +1,1 @@\n-a\n+b\n",
        provider_id="p",
        prompt_digest="d",
    )


# ── context demands ──────────────────────────────────────────────────────

def test_demand_direct_extraction(jsi_program):
    demand = parse_context_demand(
        'text before {"context_funcs":["a","b"]} text after', jsi_program,
    )
    assert demand == ("a", "b")


def test_demand_absent(jsi_program):
    assert parse_context_demand("no demand here", jsi_program) is None


def test_demand_malformed_is_absent(jsi_program):
    assert parse_context_demand('{"context_funcs":[unquoted]}', jsi_program) is None
    assert parse_context_demand('{"context_funcs":"name"}', jsi_program) is None


def test_demand_after_a_quoted_template_is_found(jsi_program):
    """The first object that decodes is the demand; a quote of the
    template's placeholder format before it does not hide it."""
    response = ('You asked for {"context_funcs":[func_1,func_2,CALLER_of_func...]}, so: '
                '{"context_funcs":["jsi_strlen"]}')
    assert parse_context_demand(response, jsi_program) == ("jsi_strlen",)
    # a first decodable object that names no list still gives no demand
    assert parse_context_demand(
        '{"context_funcs":"jsi_strlen"} {"context_funcs":["jsi_strlen"]}', jsi_program,
    ) is None


def test_demand_caller_placeholder_resolves_to_all_callers():
    program = parse_program([(
        "a.c",
        "int g(int x){return x;}\n"
        "int m(){return g(1);}\n"
        "int n(){return g(2);}\n",
    )])
    demand = parse_context_demand('{"context_funcs":["CALLER_of_g"]}', program)
    assert demand == ("m", "n")


def test_demand_deduplicates(jsi_program):
    demand = parse_context_demand(
        '{"context_funcs":["jsi_strlen","jsi_strlen","CALLER_of_jsi_strlen"]}',
        jsi_program,
    )
    assert demand == ("jsi_strlen", "format_value")


# ── progressive root-cause generation ────────────────────────────────────

def test_immediate_answer_is_one_iteration(e2e_setup):
    sample, program, graph, ei, result = e2e_setup
    provider = scripted(["the write overruns the allocation"])
    root_cause, rendered, exchanges = generate_root_cause(
        graph, program, sample.vuln, result, provider,
    )
    assert root_cause.iterations == 1
    assert root_cause.forced_final is False
    assert root_cause.functions_used == {"jsi_strcpy"}
    assert len(exchanges) == 1


def test_two_turn_demand_grows_functions(e2e_setup):
    sample, program, graph, ei, result = e2e_setup
    provider = scripted([
        'need more: {"context_funcs":["CALLER_of_jsi_strcpy"]}',
        "final analysis",
    ])
    root_cause, rendered, exchanges = generate_root_cause(
        graph, program, sample.vuln, result, provider,
    )
    assert root_cause.iterations == 2
    assert root_cause.text == "final analysis"
    assert root_cause.functions_used == {"jsi_strcpy", "format_value"}
    assert root_cause.forced_final is False
    # the second prompt rendered the caller's slice lines too
    assert "24:     p = malloc(cnt + 1);" in exchanges[1].prompt
    assert "24:" not in exchanges[0].prompt


def test_unknown_demand_is_skipped_and_loop_hits_ceiling(e2e_setup):
    sample, program, graph, ei, result = e2e_setup
    provider = scripted(['{"context_funcs":["not_a_function"]}'] * 10)
    root_cause, _rendered, _ = generate_root_cause(
        graph, program, sample.vuln, result, provider, max_rounds=10,
    )
    assert root_cause.forced_final is True
    assert root_cause.iterations == 10
    assert root_cause.functions_used == {"jsi_strcpy"}


def test_demanding_with_everything_included_forces_final(e2e_setup):
    sample, program, graph, ei, result = e2e_setup
    provider = scripted([
        '{"context_funcs":["format_value","jsi_strlen"]}',
        '{"context_funcs":["CALLER_of_jsi_strlen"]}',  # nothing left to add
    ])
    root_cause, _rendered, _ = generate_root_cause(
        graph, program, sample.vuln, result, provider,
    )
    assert root_cause.forced_final is True
    assert root_cause.iterations == 2
    assert root_cause.functions_used == program.function_names()


def test_transcript_records_every_round(e2e_setup):
    sample, program, graph, ei, result = e2e_setup
    provider = scripted([
        '{"context_funcs":["format_value"]}',
        "done",
    ])
    root_cause, _, exchanges = generate_root_cause(
        graph, program, sample.vuln, result, provider,
    )
    assert len(root_cause.transcript) == 2
    from appatch.gateway import prompt_sha
    assert root_cause.transcript[0][0] == prompt_sha(exchanges[0].prompt)
    assert root_cause.transcript[1][1] == prompt_sha(exchanges[1].response)


# ── exemplar selection ───────────────────────────────────────────────────

def fake_cause():
    return RootCause(text="t", iterations=1, functions_used=frozenset(["f"]),
                     transcript=())


def test_empty_pool_selects_nothing():
    chosen, exchanges, failed = select_exemplars(fake_cause(), (), scripted([]))
    assert chosen == [] and exchanges == [] and failed == []


def test_all_affirmative_pool_of_twenty_keeps_first_eight():
    pool = tuple(make_exemplar(f"s{i:02d}") for i in range(20))
    provider = scripted(["yes"] * 8 + ["unasked"])
    chosen, exchanges, _ = select_exemplars(fake_cause(), pool, provider)
    assert [e.sample_id for e in chosen] == [f"s{i:02d}" for i in range(8)]
    assert len(exchanges) == 8
    assert provider.complete("next").response == "unasked"  # early exit: no ninth comparison


def test_yes_no_yes_selects_first_and_third():
    pool = tuple(make_exemplar(f"s{i}") for i in range(3))
    chosen, _, _ = select_exemplars(fake_cause(), pool, scripted(["yes", "no", "yes"]))
    assert [e.sample_id for e in chosen] == ["s0", "s2"]


def test_unparseable_verdict_counts_as_no():
    pool = [make_exemplar("s0"), make_exemplar("s1")]
    chosen, _, _ = select_exemplars(fake_cause(), pool, scripted(["hmm?", "yes"]))
    assert [e.sample_id for e in chosen] == ["s1"]


def test_cwe_filter_skips_other_categories():
    pool = [
        make_exemplar("s0", cwes=("CWE-125",)),
        make_exemplar("s1", cwes=("CWE-787",)),
        make_exemplar("s2", cwes=("CWE-787", "CWE-125")),
    ]
    provider = scripted(["yes", "yes"])  # only two comparisons happen
    chosen, _, _ = select_exemplars(
        fake_cause(), pool, provider, cwe_filter=True, cwe_ids=("CWE-787",),
    )
    assert [e.sample_id for e in chosen] == ["s1", "s2"]


def test_comparison_failure_counts_as_no():
    """A failed comparison leaves its exemplar out, as a "no" would, but is
    reported apart from the answered ones."""
    pool = [make_exemplar("s0"), make_exemplar("s1"), make_exemplar("s2")]
    provider = scripted([{"error": "down", "transient": False}, "yes", "no"])
    chosen, exchanges, failed = select_exemplars(fake_cause(), pool, provider)
    assert [e.sample_id for e in chosen] == ["s1"]
    assert failed == ["s0"]
    assert [e.response for e in exchanges] == ["yes", "no"]


def test_comparison_with_missing_auth_raises(unauthorised):
    pool = [make_exemplar("s0")]
    with pytest.raises(ConfigurationError):
        select_exemplars(fake_cause(), pool, unauthorised)


# ── patch generation ─────────────────────────────────────────────────────

@pytest.fixture(scope="module")
def patch_stage(fixtures_dir, e2e_setup):
    sample, program, graph, ei, result = e2e_setup
    provider = scripted(load_script("gen.json")[:2], provider_id="gen")
    root_cause, rendered, _ = generate_root_cause(
        graph, program, sample.vuln, result, provider,
    )
    return sample, program, rendered, root_cause


def test_five_blocks_parse_with_sequential_ordinals(patch_stage, fixtures_dir):
    sample, program, rendered, root_cause = patch_stage
    response = load_script("gen.json")[5]
    patches, exchange = generate_patches(
        [], rendered, sample.vuln, root_cause, scripted([response]), program,
    )
    assert [p.ordinal for p in patches] == [1, 2, 3, 4, 5]
    assert all(p.diff.startswith("--- a/jsi_like.c") for p in patches)


def test_prose_only_response_is_an_error(patch_stage):
    sample, program, rendered, root_cause = patch_stage
    with pytest.raises(NoPatchesError):
        generate_patches([], rendered, sample.vuln, root_cause,
                         scripted(["no patches, sorry"]), program)


def test_patch_request_with_missing_auth_raises(patch_stage, unauthorised):
    sample, program, rendered, root_cause = patch_stage
    with pytest.raises(ConfigurationError):
        generate_patches([], rendered, sample.vuln, root_cause, unauthorised, program)


def test_three_blocks_accepted_with_warning(patch_stage, caplog):
    sample, program, rendered, root_cause = patch_stage
    response = load_script("gen.json")[5]
    response = response[: response.index("Patch 4:")]
    with caplog.at_level("WARNING"):
        patches, _ = generate_patches(
            [], rendered, sample.vuln, root_cause, scripted([response]), program,
        )
    assert len(patches) == 3
    assert any("expected 5" in r.message for r in caplog.records)


def test_more_than_five_blocks_keeps_first_five(patch_stage):
    sample, program, rendered, root_cause = patch_stage
    response = load_script("gen.json")[5]
    extra = response[response.index("Patch 5:"):].replace("Patch 5:", "Patch 6:")
    patches, _ = generate_patches(
        [], rendered, sample.vuln, root_cause,
        scripted([response + "\n\n" + extra]), program,
    )
    assert len(patches) == 5


def test_blocks_after_the_fifth_survivor_are_counted_not_judged(patch_stage, caplog):
    sample, program, rendered, root_cause = patch_stage
    response = load_script("gen.json")[5]
    broken = ("\n\nPatch 6:\n```diff\n--- a/jsi_like.c\n+++ b/jsi_like.c\n"
              "@@ -55,1 +55,1 @@\n-        dst[i] = src[i];\n```\n")   # no '+' line
    with caplog.at_level("WARNING"):
        patches, _ = generate_patches(
            [], rendered, sample.vuln, root_cause, scripted([response + broken]), program,
        )
    assert len(patches) == 5
    messages = [r.message for r in caplog.records]
    assert "response contained 6 patch blocks; keeping the first 5" in messages
    assert not any("not a parseable diff" in m for m in messages)


def test_block_outside_rendered_functions_is_dropped(patch_stage, caplog):
    sample, program, rendered, root_cause = patch_stage
    stray = (
        "Patch 1:\n```diff\n--- a/jsi_like.c\n+++ b/jsi_like.c\n"
        "@@ -3,1 +3,1 @@\n-int jsi_strlen(char *str) {\n+int jsi_strlen(char *s) {\n```\n\n"
        "Patch 2:\n```diff\n--- a/jsi_like.c\n+++ b/jsi_like.c\n"
        "@@ -55,1 +55,1 @@\n-        dst[i] = src[i];\n+        dst[i] = 0;\n```"
    )
    with caplog.at_level("WARNING"):
        patches, _ = generate_patches(
            [], rendered, sample.vuln, root_cause, scripted([stray]), program,
        )
    # jsi_strlen was never rendered, so the first block is dropped
    assert len(patches) == 1
    assert "dst[i] = 0" in patches[0].diff


def test_block_that_runs_past_the_end_of_a_rendered_function_is_dropped(patch_stage, caplog):
    """A hunk must lie inside one rendered function: starting inside
    ``format_value`` (lines 12-49) is not enough."""
    sample, program, rendered, root_cause = patch_stage
    assert "format_value" in rendered.included_functions
    crossing = (
        "Patch 1:\n```diff\n--- a/jsi_like.c\n+++ b/jsi_like.c\n"
        "@@ -48,3 +48,3 @@\n     return jsi_strcpy(p, use);\n }\n-\n+/* end */\n```\n\n"
        "Patch 2:\n```diff\n--- a/jsi_like.c\n+++ b/jsi_like.c\n"
        "@@ -55,1 +55,1 @@\n-        dst[i] = src[i];\n+        dst[i] = 0;\n```"
    )
    with caplog.at_level("WARNING"):
        patches, _ = generate_patches(
            [], rendered, sample.vuln, root_cause, scripted([crossing]), program,
        )
    assert len(patches) == 1
    assert "dst[i] = 0" in patches[0].diff
    assert ("patch block 1 references lines outside the rendered functions; dropping it"
            in [r.getMessage() for r in caplog.records])


def test_unparseable_block_is_dropped_as_such(patch_stage, caplog):
    sample, program, rendered, root_cause = patch_stage
    response = load_script("gen.json")[5]
    broken = ("Patch 1:\n```diff\n--- a/jsi_like.c\n+++ b/jsi_like.c\n"
              "@@ -55,1 +55,1 @@\n-        dst[i] = src[i];\n```\n\n")   # no '+' line
    with caplog.at_level("WARNING"):
        patches, _ = generate_patches(
            [], rendered, sample.vuln, root_cause, scripted([broken + response]), program,
        )
    assert len(patches) == 5
    dropped = [r.getMessage() for r in caplog.records if "dropping it" in r.getMessage()]
    assert len(dropped) == 1
    assert "patch block 1 is not a parseable diff" in dropped[0]


def test_prompt_digest_is_shared_by_all_patches(patch_stage):
    sample, program, rendered, root_cause = patch_stage
    response = load_script("gen.json")[5]
    patches, exchange = generate_patches(
        [], rendered, sample.vuln, root_cause, scripted([response]), program,
    )
    from appatch.gateway import prompt_sha
    assert {p.prompt_digest for p in patches} == {prompt_sha(exchange.prompt)}


def test_caller_demand_adds_both_callers_in_one_round():
    program = parse_program([(
        "m.c",
        "int g(int x){int y; y = x + 1; return y;}\n"
        "int m(int a){return g(a);}\n"
        "int n(int b){return g(b);}\n",
    )], entry="m")
    from appatch.code_model import build_sdg
    graph = build_sdg(program)
    ei = identify_external_inputs(program, graph)
    spec = VulnSpec(vulnerable_lines=(("m.c", 1),), cwe_ids=("CWE-190",))
    result = vulnerability_semantics(graph, spec, ei)
    provider = scripted([
        '{"context_funcs":["CALLER_of_g"]}',
        "done",
    ])
    root_cause, _, _ = generate_root_cause(
        graph, program, spec, result, provider,
    )
    assert root_cause.iterations == 2
    assert root_cause.functions_used == {"g", "m", "n"}
