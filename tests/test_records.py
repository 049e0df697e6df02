"""Every record is a NamedTuple: a value that is built, compared and read
as before, and that is made without importing ``dataclasses``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from appatch.code_model.model import (
    DependenceGraph,
    ExternalInputSet,
    FunctionDef,
    Program,
    StatementNode,
)
from appatch.diffs import FileDiff, Hunk
from appatch.evaluation import CategoryMetrics, MetricsReport
from appatch.exemplars import DatasetSample, Exemplar, MiningFailure
from appatch.gateway import CachedProvider, Exchange, ScriptedProvider
from appatch.prompting import CandidatePatch, RootCause
from appatch.scoping import RenderedSlice, SliceResult, VulnSpec
from appatch.validation import ValidationVerdict

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_the_cli_loads_no_dataclass_machinery():
    """Nor what only ``--jobs > 1`` (a thread pool) or ``eval --csv`` uses."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import appatch.cli; "
             "print(sorted({'dataclasses', 'inspect', 'concurrent.futures', 'csv'} "
             "& set(sys.modules)))")
    child = subprocess.run([sys.executable, "-c", probe, str(SRC)],
                           capture_output=True, text=True, check=True)
    assert child.stdout.strip() == "[]"


NODE = StatementNode("a.c:2:5", "a.c", "f", 2, "x = 1;", "assign")
FILES = (("a.c", "int f() {\n    x = 1;\n}\n"),)
LINES = (("a.c", 2),)


def _function(**cfg) -> FunctionDef:
    return FunctionDef(name="f", file="a.c", nodes=(NODE,), callsites=(),
                       start_line=1, end_line=3, **cfg)


# (id, build a value, build an equal one, build a different one, a field,
# whether the value hashes); each is built the way its callers build it.
RECORDS = [
    ("Hunk",
     lambda: Hunk(1, 1, 1, 1, ("-a", "+b")),
     lambda: Hunk(old_start=1, old_count=1, new_start=1, new_count=1, lines=("-a", "+b")),
     lambda: Hunk(2, 1, 2, 1, ("-a", "+b")),
     "lines", True),
    ("FileDiff",
     lambda: FileDiff(path="a.c", hunks=(Hunk(1, 1, 1, 1, ("-a", "+b")),)),
     lambda: FileDiff("a.c", (Hunk(1, 1, 1, 1, ("-a", "+b")),)),
     lambda: FileDiff("b.c", ()),
     "path", True),
    ("CategoryMetrics",
     lambda: CategoryMetrics(recall=0.5, precision=0.25, f1=1 / 3),
     lambda: CategoryMetrics(0.5, 0.25, 1 / 3),
     lambda: CategoryMetrics(0.5, 0.25, 0.0),
     "f1", True),
    ("MetricsReport",
     lambda: MetricsReport(per_category={"SynEq": CategoryMetrics(1.0, 1.0, 1.0)},
                           testing_samples=1, fixed_samples=1,
                           generated_patches=1, correct_patches=1),
     lambda: MetricsReport({"SynEq": CategoryMetrics(1.0, 1.0, 1.0)}, 1, 1, 1, 1),
     lambda: MetricsReport({}, 1, 1, 1, 1),
     "testing_samples", False),
    ("DatasetSample",
     lambda: DatasetSample(id="s", vuln=VulnSpec(LINES, ("CWE-787",)), sources=FILES,
                           ground_truth_patch=""),
     lambda: DatasetSample("s", VulnSpec(LINES, ("CWE-787",)), FILES, None, "", None),
     lambda: DatasetSample(id="t", vuln=VulnSpec(LINES, ())),
     "sources", True),
    ("Exemplar",
     lambda: Exemplar(sample_id="s", slice_text="2: x = 1;", cwe_ids=("CWE-787",),
                      vulnerable_lines=LINES, root_cause="rc", fixing_strategy="fs",
                      ground_truth_patch="p", provider_id="m", prompt_digest="d"),
     lambda: Exemplar("s", "2: x = 1;", ("CWE-787",), LINES, "rc", "fs", "p", "m", "d"),
     lambda: Exemplar("t", "2: x = 1;", ("CWE-787",), LINES, "rc", "fs", "p", "m", "d"),
     "root_cause", True),
    ("MiningFailure",
     lambda: MiningFailure("s", "boom"),
     lambda: MiningFailure(sample_id="s", message="boom"),
     lambda: MiningFailure("s", "bang"),
     "message", True),
    ("Exchange",
     lambda: Exchange(provider_id="p", model="m", prompt="q", response="a",
                      prompt_digest="d", input_tokens=1, output_tokens=1),
     lambda: Exchange("p", "m", "q", "a", "d", 1, 1, False),
     lambda: Exchange("p", "m", "q", "a", "d", 1, 1, True),
     "response", True),
    ("RootCause",
     lambda: RootCause(text="t", iterations=1, functions_used=frozenset({"f"}),
                       transcript=(("a", "b"),)),
     lambda: RootCause("t", 1, frozenset({"f"}), (("a", "b"),), False),
     lambda: RootCause("t", 2, frozenset({"f"}), (("a", "b"),), forced_final=True),
     "iterations", True),
    ("CandidatePatch",
     lambda: CandidatePatch(ordinal=1, diff="d", prompt_digest="p"),
     lambda: CandidatePatch(1, "d", "p"),
     lambda: CandidatePatch(2, "d", "p"),
     "diff", True),
    ("VulnSpec",
     lambda: VulnSpec(vulnerable_lines=LINES, cwe_ids=("CWE-787",)),
     lambda: VulnSpec(LINES, ("CWE-787",)),
     lambda: VulnSpec(LINES, ()),
     "cwe_ids", True),
    ("SliceResult",
     lambda: SliceResult(node_ids=frozenset({"n", "e"}), sv_ids=frozenset({"n"}),
                         ei_ids=frozenset({"e"})),
     lambda: SliceResult(frozenset({"n", "e"}), frozenset({"n"}), frozenset({"e"}), False),
     lambda: SliceResult(frozenset({"n"}), frozenset({"n"}), frozenset(), fallback=True),
     "fallback", True),
    ("RenderedSlice",
     lambda: RenderedSlice(text="2: x = 1;", included_functions=frozenset({"f"}),
                           listed_ei=frozenset()),
     lambda: RenderedSlice("2: x = 1;", frozenset({"f"}), frozenset()),
     lambda: RenderedSlice("", frozenset({"f"}), frozenset()),
     "text", True),
    ("ValidationVerdict",
     lambda: ValidationVerdict(ordinal=1, answers=(("v1", "yes"), ("v2", "no"))),
     lambda: ValidationVerdict(1, (("v1", "yes"), ("v2", "no"))),
     lambda: ValidationVerdict(1, (("v1", "error"),)),
     "answers", True),
    ("FunctionDef",
     lambda: _function(cfg_preds=((),), control_scopes=()),
     lambda: FunctionDef("f", "a.c", (NODE,), (), 1, 3),   # no CFG: not part of the value
     lambda: FunctionDef("g", "a.c", (NODE,), (), 1, 3),
     "nodes", True),
    ("Program",
     lambda: Program(files=FILES, functions=(_function(),), entry_function="f"),
     lambda: Program(FILES, (_function(cfg_preds=((),)),), "f"),
     lambda: Program(FILES, (_function(),)),
     "functions", True),
    ("DependenceGraph",
     lambda: DependenceGraph(nodes={NODE.id: NODE}, edges=frozenset()),
     lambda: DependenceGraph({NODE.id: NODE}, frozenset()),
     lambda: DependenceGraph({NODE.id: NODE}, frozenset({(NODE.id, NODE.id, "data")})),
     "edges", False),
    ("ExternalInputSet",
     lambda: ExternalInputSet(ids=frozenset({NODE.id})),
     lambda: ExternalInputSet(frozenset({NODE.id})),
     lambda: ExternalInputSet(frozenset()),
     "ids", True),
]


@pytest.mark.parametrize("build, equal, different, field, hashable",
                         [pytest.param(*row[1:], id=row[0]) for row in RECORDS])
def test_each_record_is_a_read_only_value(build, equal, different, field, hashable):
    record, same, other = build(), equal(), different()
    assert isinstance(record, tuple) and field in record._fields
    assert record == same and not record != same
    assert record != other
    if hashable:
        assert hash(record) == hash(same)
        assert len({record, same, other}) == 2
    else:
        with pytest.raises(TypeError):
            hash(record)
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, other)
    assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_state_outside_the_value_is_read_only_and_left_out_of_it(jsi_program):
    graph_nodes = {n.id: n for fn in jsi_program.functions for n in fn.nodes}
    graph = DependenceGraph(nodes=graph_nodes, edges=frozenset())
    fn = jsi_program.functions[0]
    assert fn.cfg_preds and len(tuple(fn)) == 6
    assert len(tuple(jsi_program)) == 3 and len(tuple(graph)) == 2
    for record, name in ((fn, "cfg_preds"), (fn, "control_scopes"),
                         (jsi_program, "_by_name"), (graph, "_at")):
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    sample = DatasetSample(id="s", vuln=VulnSpec(LINES, ()), sources=FILES,
                           ground_truth_patch="--- a/a.c\n+++ b/a.c\n@@ -2 +2 @@\n"
                                              "-    x = 1;\n+    x = 2;\n")
    assert sample.fixed_sources == (("a.c", "int f() {\n    x = 2;\n}\n"),)
    assert sample == DatasetSample(*sample) and hash(sample) == hash(DatasetSample(*sample))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: VulnSpec((), ("CWE-787",)),
                 "at least one vulnerable line is required", id="VulnSpec-no-line"),
    pytest.param(lambda: VulnSpec(LINES, ("CWE-787", "cwe-1")),
                 "bad CWE id: 'cwe-1'", id="VulnSpec-bad-cwe"),
    pytest.param(lambda: SliceResult(frozenset({"e"}), frozenset({"n"}), frozenset()),
                 "sv_ids must be a subset of node_ids", id="SliceResult-sv"),
    pytest.param(lambda: SliceResult(frozenset({"n"}), frozenset({"n"}), frozenset({"e"})),
                 "ei_ids must be a subset of node_ids", id="SliceResult-ei"),
    pytest.param(lambda: RootCause("t", 0, frozenset(), ()),
                 "iterations must be >= 1", id="RootCause-iterations"),
    pytest.param(lambda: ValidationVerdict(1, (("v1", "maybe"),)),
                 "unknown answer 'maybe' from v1", id="ValidationVerdict-answer"),
    pytest.param(lambda: Program(FILES, (_function(), _function())),
                 "duplicate function names: f", id="Program-duplicate"),
    pytest.param(lambda: Program((("a.c", "int f() {"),), (_function(),)),
                 "function f ends at line 3, but a.c has only 1 lines", id="Program-overrun"),
])
def test_each_validation_error_keeps_its_message(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_written_records_keep_their_bytes(tmp_path):
    """A cache entry and a pool line, as the dataclass records wrote them."""
    cached = CachedProvider("c", ScriptedProvider("s", ["yes, \u00e9 fine"]), tmp_path)
    cached.complete('prompt "one"\n')
    [entry] = tmp_path.rglob("*.json")
    assert entry.read_text(encoding="utf-8") == (
        '{\n  "estimated": true,\n  "input_tokens": 2,\n  "model": "scripted",\n'
        '  "output_tokens": 3,\n  "prompt": "prompt \\"one\\"\\n",\n'
        '  "prompt_digest": "6aa94aa3ad048c3a8deafe87cae0dd26a3f485b42619fb62c3eba3f7a776be21",\n'
        '  "provider_id": "s",\n  "response": "yes, \\u00e9 fine"\n}'
    )
    exemplar = Exemplar("s1", "3: x = 1;", ("CWE-787",), (("a.c", 3),), "rc", "fs",
                        "--- a/a.c", "p", "d")
    assert json.dumps(exemplar.to_document(), sort_keys=True) == (
        '{"cwe_ids": ["CWE-787"], "fixing_strategy": "fs", "ground_truth_patch": "--- a/a.c", '
        '"prompt_digest": "d", "provider_id": "p", "root_cause": "rc", "sample_id": "s1", '
        '"slice_text": "3: x = 1;", "vulnerable_lines": [["a.c", 3]]}'
    )
