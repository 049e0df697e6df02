import errno
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from appatch import diffs, evaluation
from appatch.cli import main
from appatch.gateway import ProviderError

FIXTURES = Path(__file__).parent / "fixtures"


def write_config(tmp_path, cached=False):
    scripts = FIXTURES / "scripted"
    providers = []
    for pid, script in [("gen", "gen.json"), ("miner", "mine.json"),
                        ("v1", "val1.json"), ("v2", "val2.json")]:
        if cached:
            providers.append({"id": f"{pid}-raw", "kind": "scripted",
                              "script": str(scripts / script)})
            providers.append({"id": pid, "kind": "cached", "inner": f"{pid}-raw",
                              "cache_dir": f"cache/{pid}"})   # relative to the config
        else:
            providers.append({"id": pid, "kind": "scripted",
                              "script": str(scripts / script)})
    config = {"providers": providers}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2))
    return path


def commit(sample_dir):
    """Write ``sample_dir``'s manifest as ``patch`` would, over the files it holds now."""
    path = sample_dir / "manifest.json"
    manifest = json.loads(path.read_text()) if path.exists() else {"command": "patch"}
    manifest["outputs"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                           for p in sorted(sample_dir.iterdir()) if p.is_file() and p != path}
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ── slice ────────────────────────────────────────────────────────────────

def test_slice_fixture_line_48(tmp_path):
    out = tmp_path / "slice.json"
    code = main([
        "slice",
        "--source", str(FIXTURES / "jsi_like.c"),
        "--vuln", "jsi_like.c:48",
        "--cwe", "CWE-787",
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["fallback"] is False
    assert "jsi_like.c:48:5" in doc["sv"]
    assert len(doc["ei"]) == 3
    rendered = (tmp_path / "slice.json.txt").read_text()
    assert "24:     p = malloc(cnt + 1);" in rendered
    manifest = json.loads((tmp_path / "slice.json.manifest.json").read_text())
    assert manifest["command"] == "slice"
    assert manifest["flags"]["fallback"] is False


def test_calls_in_one_process_parse_only_their_own_flags(tmp_path):
    """The parser is built once per process: each call's --source list is
    its own, and a usage error leaves the next call unaffected."""
    def sliced(name, line):
        out = tmp_path / name / "slice.json"
        assert main(["slice", "--source", str(FIXTURES / name), "--vuln", f"{name}:{line}",
                     "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / name / "slice.json.manifest.json").read_text())
        return sorted(manifest["input_digests"])

    assert sliced("jsi_like.c", 48) == ["source:jsi_like.c"]
    assert main(["slice", "--source", str(FIXTURES / "idx_read.c"), "--no-such-flag"]) == 2
    assert sliced("null_use.c", 4) == ["source:null_use.c"]


def test_unknown_log_level_is_usage_error_on_every_call(tmp_path, capsys, monkeypatch):
    """A fresh process would configure logging with it, a later call in one
    process would not: both refuse the level before running the command,
    once an earlier run's manifest is removed."""
    argv = ["slice", "--source", str(FIXTURES / "jsi_like.c"), "--vuln", "jsi_like.c:48",
            "--out", str(tmp_path / "s.json")]
    child = subprocess.run([sys.executable, "-m", "appatch.cli", *argv],
                           env={**os.environ, "APPATCH_LOG": "bogus",
                                "PYTHONPATH": str(FIXTURES.parents[1] / "src")},
                           capture_output=True, text=True)
    assert (child.returncode, child.stderr) == (
        2, "error: APPATCH_LOG: unknown logging level 'bogus'\n")
    monkeypatch.setenv("APPATCH_LOG", "debug")   # level names are upper case
    for _ in range(2):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: APPATCH_LOG: unknown logging level 'debug'\n"
    assert not (tmp_path / "s.json").exists()
    monkeypatch.setenv("APPATCH_LOG", "ERROR")
    assert main(argv) == 0
    monkeypatch.setenv("APPATCH_LOG", "debug")
    assert main(argv) == 2
    assert not (tmp_path / "s.json.manifest.json").exists()


def test_slice_missing_file_is_usage_error(tmp_path):
    code = main([
        "slice", "--source", str(tmp_path / "absent.c"),
        "--vuln", "absent.c:1", "--out", str(tmp_path / "s.json"),
    ])
    assert code == 2


def test_slice_unresolved_line_is_pipeline_error(tmp_path):
    code = main([
        "slice", "--source", str(FIXTURES / "jsi_like.c"),
        "--vuln", "jsi_like.c:2",  # a blank line: no node lives there
        "--out", str(tmp_path / "s.json"),
    ])
    assert code == 1


def test_slice_from_imported_graph_matches_source_path(tmp_path, jsi_graph):
    from appatch.code_model import dump_graph

    graph_file = tmp_path / "graph.json"
    graph_file.write_text(dump_graph(jsi_graph))
    out_source = tmp_path / "from_source.json"
    out_graph = tmp_path / "from_graph.json"
    assert main(["slice", "--source", str(FIXTURES / "jsi_like.c"),
                 "--vuln", "jsi_like.c:48", "--out", str(out_source)]) == 0
    assert main(["slice", "--graph", str(graph_file),
                 "--vuln", "jsi_like.c:48", "--out", str(out_graph)]) == 0
    a = json.loads(out_source.read_text())
    b = json.loads(out_graph.read_text())
    assert a["nodes"] == b["nodes"]
    assert a["sv"] == b["sv"]
    assert a["ei"] == b["ei"]


@pytest.mark.parametrize("inputs", [["--source", "--graph"], []], ids=["both", "neither"])
def test_slice_takes_exactly_one_of_source_and_graph(tmp_path, jsi_graph, capsys, inputs):
    """Sources given beside a graph would be neither read nor recorded."""
    from appatch.code_model import dump_graph

    graph_file = tmp_path / "graph.json"
    graph_file.write_text(dump_graph(jsi_graph))
    given = {"--source": str(FIXTURES / "jsi_like.c"), "--graph": str(graph_file)}
    argv = [part for flag in inputs for part in (flag, given[flag])]
    out = tmp_path / "s.json"
    assert main(["slice", *argv, "--vuln", "jsi_like.c:48", "--out", str(out)]) == 2
    assert (capsys.readouterr().err
            == "error: exactly one of --source and --graph is required\n")
    assert not out.exists() and not (tmp_path / "s.json.manifest.json").exists()


def test_slice_of_source_or_graph_and_patch_write_one_slice(tmp_path, mined_pool):
    """The sample's source, the graph exported from it, and the sample
    itself are sliced alike: each command writes the same slice.json."""
    from appatch.code_model import build_sdg, dump_graph, parse_program

    config, pool_path = mined_pool
    record = json.loads((FIXTURES / "sample_e2e.json").read_text())
    [(name, text)] = record["sources"]
    source = tmp_path / name
    source.write_text(text)
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(dump_graph(build_sdg(parse_program([(name, text)]))))
    flags = ["--vuln", ",".join(f"{f}:{n}" for f, n in record["vuln"]["lines"]),
             "--cwe", ",".join(record["vuln"]["cwes"])]
    assert main(["slice", "--source", str(source), *flags,
                 "--out", str(tmp_path / "from_source.json")]) == 0
    assert main(["slice", "--graph", str(graph_file), *flags,
                 "--out", str(tmp_path / "from_graph.json")]) == 0
    assert main(["patch", "--sample", str(FIXTURES / "sample_e2e.json"), "--pool",
                 str(pool_path), "--provider", "gen", "--out", str(tmp_path / "patched"),
                 "--config", str(config)]) == 0
    written = {(tmp_path / path).read_bytes() for path in
               ("from_source.json", "from_graph.json", "patched/slice.json")}
    assert len(written) == 1


def test_slice_graph_accepts_ids_without_a_numeric_column(tmp_path, graph_without_columns):
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(graph_without_columns))
    out = tmp_path / "s.json"
    assert main(["slice", "--graph", str(graph_file), "--vuln", "x.c:3",
                 "--out", str(out)]) == 0
    document = json.loads(out.read_text())
    assert document["nodes"] == ["x.c:f:p0", "x.c:f:s1", "x.c:f:s2"]
    assert document["ei"] == ["x.c:f:p0", "x.c:f:s1"]


# Two graphs of one function name in two files, as a whole-program frontend
# exports two file-scoped functions: each is refused where the second file's
# first node stands.  The first would end past its first file's last line;
# the second would merge two files' ``helper`` into one.
_A3 = ("int main(int argc) {\n    int n;\n    n = helper(argc);\n    return n;\n}\n"
       "int helper(int k) {\n    int r;\n    r = k + 1;\n    return r;\n}\n")
_B3 = "int helper(int k) {\n    return k;\n}\n"


def _one_name_in_two_files(case):
    """``(document, vulnerable line, error line)`` for ``case``."""
    from appatch.code_model import build_sdg, export_graph, parse_program

    if case == "ends-past-its-file":
        return {"nodes": [
            {"id": "a", "file": "a.c", "function": "f", "line": 1, "text": "int f(int n)",
             "kind": "entry"},
            {"id": "b", "file": "b.c", "function": "f", "line": 5, "text": "buf[n] = 0",
             "kind": "assign"},
        ], "edges": [{"src": "a", "dst": "b", "kind": "control"}]}, "b.c:5", (
            "$.nodes[1]: function 'f' has nodes in both a.c and b.c")
    parts = [export_graph(build_sdg(parse_program([(name, text)])))
             for name, text in (("a3.c", _A3), ("b3.c", _B3))]
    document = {key: parts[0][key] + parts[1][key] for key in ("nodes", "edges")}
    first_b3 = next(i for i, node in enumerate(document["nodes"]) if node["file"] == "b3.c")
    return document, "b3.c:2", (
        f"$.nodes[{first_b3}]: function 'helper' has nodes in both a3.c and b3.c")


@pytest.mark.parametrize("case", ["ends-past-its-file", "two-helpers"])
def test_slice_graph_of_one_function_in_two_files_is_pipeline_error(tmp_path, capsys, case):
    document, vuln, error = _one_name_in_two_files(case)
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(document))
    out = tmp_path / "s.json"
    assert main(["slice", "--graph", str(graph_file), "--vuln", vuln, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot build the dependence graph: {error}\n"
    assert not out.exists() and not (tmp_path / "s.json.manifest.json").exists()


def test_mine_lists_a_graph_of_one_function_in_two_files_as_a_failure(tmp_path, capsys):
    """The sample fails as a sample; the others are mined."""
    document, vuln, error = _one_name_in_two_files("ends-past-its-file")
    file, line = vuln.split(":")
    record = {"id": "two-files", "graph": document,
              "vuln": {"lines": [[file, int(line)]], "cwes": []},
              "ground_truth_patch": "--- a/b.c\n+++ b/b.c\n@@ -5,1 +5,1 @@\n-a\n+b\n"}
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(json.dumps(record) + "\n" + (FIXTURES / "dataset.jsonl").read_text())
    pool_path = tmp_path / "pool.jsonl"
    assert main(["mine", "--dataset", str(dataset), "--provider", "miner",
                 "--pool", str(pool_path), "--config", str(write_config(tmp_path))]) == 0
    flags = json.loads((tmp_path / "pool.jsonl.manifest.json").read_text())["flags"]
    assert (flags["samples"], flags["mined"]) == (4, 3)
    assert flags["errors"] == [{
        "sample_id": "two-files",
        "message": f"sample 'two-files': cannot build the dependence graph: {error}"}]
    assert len(pool_path.read_text().splitlines()) == 3


def test_slice_parse_error_is_pipeline_error(tmp_path):
    bad = tmp_path / "bad.c"
    bad.write_text("int f(){")
    code = main(["slice", "--source", str(bad), "--vuln", "bad.c:1",
                 "--out", str(tmp_path / "s.json")])
    assert code == 1


def test_slice_of_a_refused_jump_is_pipeline_error_naming_it(tmp_path, capsys):
    source = tmp_path / "jump.c"
    source.write_text("int f(int n) {\n    while (n) { break; }\n    return n;\n}\n")
    code = main(["slice", "--source", str(source), "--vuln", "jump.c:3",
                 "--out", str(tmp_path / "s.json")])
    assert code == 1
    assert "jump.c:2:17: unsupported construct: break statement" in capsys.readouterr().err


# ── mine ─────────────────────────────────────────────────────────────────

def test_mine_fixture_dataset(tmp_path):
    config = write_config(tmp_path)
    pool_path = tmp_path / "pool.jsonl"
    code = main([
        "mine", "--dataset", str(FIXTURES / "dataset.jsonl"),
        "--provider", "miner", "--pool", str(pool_path),
        "--config", str(config),
    ])
    assert code == 0
    lines = [l for l in pool_path.read_text().splitlines() if l.strip()]
    assert len(lines) == 3
    manifest = json.loads(
        (tmp_path / "pool.jsonl.manifest.json").read_text()
    )
    assert manifest["flags"]["mined"] == 3
    assert manifest["flags"]["errors"] == []
    assert manifest["accounting"]["miner"]["calls"] == 3


def test_mine_empty_dataset(tmp_path):
    config = write_config(tmp_path)
    dataset = tmp_path / "empty.jsonl"
    dataset.write_text("")
    pool_path = tmp_path / "pool.jsonl"
    code = main(["mine", "--dataset", str(dataset), "--provider", "miner",
                 "--pool", str(pool_path), "--config", str(config)])
    assert code == 0
    assert pool_path.read_text() == ""


def test_mine_unknown_provider_is_usage_error(tmp_path):
    config = write_config(tmp_path)
    code = main(["mine", "--dataset", str(FIXTURES / "dataset.jsonl"),
                 "--provider", "nonexistent",
                 "--pool", str(tmp_path / "pool.jsonl"),
                 "--config", str(config)])
    assert code == 2


@pytest.mark.parametrize("cached", [False, True], ids=["scripted", "cached-scripted"])
def test_mine_refuses_scripted_replay_with_jobs(tmp_path, capsys, cached):
    """Three samples, three distinct scripted answers: handed out in thread
    order, one sample could take (and cache) another's answer."""
    script = json.loads((FIXTURES / "scripted" / "mine.json").read_text())
    assert len(set(map(json.dumps, script))) == 3
    config = write_config(tmp_path, cached=cached)
    pool_path = tmp_path / "pool.jsonl"
    code = main(["mine", "--dataset", str(FIXTURES / "dataset.jsonl"),
                 "--provider", "miner", "--pool", str(pool_path),
                 "--config", str(config), "--jobs", "3"])
    assert code == 2
    replayed = "miner-raw" if cached else "miner"
    assert (f"provider 'miner' replays the script of {replayed!r}"
            in capsys.readouterr().err)
    assert not pool_path.exists()
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("answered", [True, False], ids=["mined", "malformed"])
def test_mine_accounts_every_answer_alike_at_any_jobs(tmp_path, monkeypatch, answered):
    """A provider that answers in any order mines the same manifest at
    --jobs 1 and 2, and an answer that is not mined is still accounted."""
    from appatch import cli
    from conftest import FixedProvider

    response = json.loads((FIXTURES / "scripted" / "mine.json").read_text())[0]
    fixed = FixedProvider(response if answered else "no sections here")
    monkeypatch.setattr(cli, "load_config", lambda path, read, ids: {"fixed": fixed})
    manifests = []
    for jobs in ("1", "2"):
        pool_path = tmp_path / f"jobs{jobs}" / "pool.jsonl"
        assert main(["mine", "--dataset", str(FIXTURES / "dataset.jsonl"),
                     "--provider", "fixed", "--pool", str(pool_path), "--jobs", jobs]) == 0
        manifests.append((tmp_path / f"jobs{jobs}" / "pool.jsonl.manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    manifest = json.loads(manifests[0])
    assert manifest["accounting"]["fixed"]["calls"] == 3
    assert len(manifest["flags"]["errors"]) == (0 if answered else 3)


# ── patch ────────────────────────────────────────────────────────────────

@pytest.fixture()
def mined_pool(tmp_path):
    config = write_config(tmp_path)
    pool_path = tmp_path / "pool.jsonl"
    assert main(["mine", "--dataset", str(FIXTURES / "dataset.jsonl"),
                 "--provider", "miner", "--pool", str(pool_path),
                 "--config", str(config)]) == 0
    return config, pool_path


def test_patch_end_to_end_scripted(tmp_path, mined_pool):
    config, pool_path = mined_pool
    out_dir = tmp_path / "out"
    code = main([
        "patch", "--sample", str(FIXTURES / "sample_e2e.json"),
        "--pool", str(pool_path), "--provider", "gen",
        "--validators", "v1,v2", "--out", str(out_dir),
        "--config", str(config),
    ])
    assert code == 0
    result = json.loads((out_dir / "result.json").read_text())
    assert result["sample_id"] == "jsi-strcpy-zero-day"
    assert [c["ordinal"] for c in result["candidates"]] == [1, 2, 3, 4, 5]
    assert result["retained"] == [1, 3, 4]
    for ordinal in range(1, 6):
        assert (out_dir / f"candidate_{ordinal}.diff").is_file()

    root = json.loads((out_dir / "root_cause.json").read_text())
    assert root["iterations"] == 2
    assert set(root["functions_used"]) == {"jsi_strcpy", "format_value"}
    assert root["forced_final"] is False

    chosen = json.loads((out_dir / "selected_exemplars.json").read_text())
    assert chosen == ["jsi-strcpy-overflow", "null-deref-store"]

    verdicts = json.loads((out_dir / "verdicts.json").read_text())
    assert [v["retained"] for v in verdicts] == [True, False, True, True, False]

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["flags"]["no_validation"] is False
    assert manifest["flags"]["comparisons_failed"] == []
    assert manifest["accounting"]["gen"]["calls"] == 6
    assert manifest["accounting"]["v1"]["calls"] == 5
    assert manifest["accounting"]["v2"]["calls"] == 5


def test_patch_without_validators_retains_everything(tmp_path, mined_pool):
    config, pool_path = mined_pool
    out_dir = tmp_path / "out-noval"
    code = main([
        "patch", "--sample", str(FIXTURES / "sample_e2e.json"),
        "--pool", str(pool_path), "--provider", "gen",
        "--out", str(out_dir), "--config", str(config),
    ])
    assert code == 0
    result = json.loads((out_dir / "result.json").read_text())
    assert result["retained"] == [1, 2, 3, 4, 5]
    assert result["validated"] is False
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["flags"]["no_validation"] is True
    assert json.loads((out_dir / "verdicts.json").read_text()) == []


def test_patch_rerun_removes_the_earlier_runs_extra_candidates(tmp_path, mined_pool):
    """A run whose answer holds 2 patch blocks, into the --out of one that
    wrote 5 candidates, leaves only its own: the directory holds what its
    manifest lists, plus files whose names are not candidate names."""
    config, pool_path = mined_pool
    out_dir = tmp_path / "out"
    patch = ["patch", "--sample", str(FIXTURES / "sample_e2e.json"), "--pool", str(pool_path),
             "--provider", "gen", "--out", str(out_dir)]
    assert main([*patch, "--validators", "v1,v2", "--config", str(config)]) == 0
    assert len(list(out_dir.glob("candidate_*.diff"))) == 5
    bystanders = ["candidate_.diff", "candidate_2.diff.orig", "candidate_x.diff", "notes.txt"]
    for name in bystanders:
        (out_dir / name).write_text("kept\n")

    script = json.loads((FIXTURES / "scripted" / "gen.json").read_text())
    script[-1] = script[-1][:script[-1].index("\n\nPatch 3:")]
    (tmp_path / "gen2.json").write_text(json.dumps(script))
    config2 = tmp_path / "config2.json"
    config2.write_text(json.dumps({"providers": [
        {"id": "gen", "kind": "scripted", "script": str(tmp_path / "gen2.json")}]}))
    assert main([*patch, "--config", str(config2)]) == 0

    result = json.loads((out_dir / "result.json").read_text())
    assert [c["file"] for c in result["candidates"]] == ["candidate_1.diff", "candidate_2.diff"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        [*manifest["outputs"], "manifest.json", *bystanders])
    assert all((out_dir / name).read_text() == "kept\n" for name in bystanders)


def test_patch_manifest_names_a_failed_comparison(tmp_path, mined_pool):
    """A comparison the provider fails leaves its exemplar out, as the "no"
    it replaces did, and the manifest names it."""
    config, pool_path = mined_pool
    script = json.loads((FIXTURES / "scripted" / "gen.json").read_text())
    assert script[3].startswith("No.")   # the answer about the pool's second exemplar
    script[3] = {"error": "comparison refused", "transient": False}
    (tmp_path / "gen2.json").write_text(json.dumps(script))
    config2 = tmp_path / "config2.json"
    config2.write_text(json.dumps({"providers": [
        {"id": "gen", "kind": "scripted", "script": str(tmp_path / "gen2.json")}]}))
    out_dir = tmp_path / "out"
    assert main(["patch", "--sample", str(FIXTURES / "sample_e2e.json"), "--pool", str(pool_path),
                 "--provider", "gen", "--out", str(out_dir), "--config", str(config2)]) == 0

    chosen = json.loads((out_dir / "selected_exemplars.json").read_text())
    assert chosen == ["jsi-strcpy-overflow", "null-deref-store"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["flags"]["comparisons_failed"] == ["idx-oob-read"]
    assert manifest["accounting"]["gen"]["calls"] == 5


def test_patch_repeated_validator_is_usage_error(tmp_path, mined_pool):
    config, pool_path = mined_pool
    out_dir = tmp_path / "out-dup"
    code = main([
        "patch", "--sample", str(FIXTURES / "sample_e2e.json"),
        "--pool", str(pool_path), "--provider", "gen",
        "--validators", "v1,v2,v1", "--out", str(out_dir),
        "--config", str(config),
    ])
    assert code == 2
    assert not out_dir.exists()


def test_patch_missing_pool_is_usage_error(tmp_path):
    config = write_config(tmp_path)
    code = main([
        "patch", "--sample", str(FIXTURES / "sample_e2e.json"),
        "--pool", str(tmp_path / "nope.jsonl"), "--provider", "gen",
        "--out", str(tmp_path / "out"), "--config", str(config),
    ])
    assert code == 2


# ── eval ─────────────────────────────────────────────────────────────────

@pytest.fixture()
def patched_results(tmp_path, mined_pool):
    config, pool_path = mined_pool
    results = tmp_path / "results"
    out_dir = results / "jsi-strcpy-zero-day"
    assert main([
        "patch", "--sample", str(FIXTURES / "sample_e2e.json"),
        "--pool", str(pool_path), "--provider", "gen",
        "--validators", "v1,v2", "--out", str(out_dir),
        "--config", str(config),
    ]) == 0
    gt_path = tmp_path / "gt.jsonl"
    record = json.loads((FIXTURES / "sample_e2e.json").read_text())
    gt_path.write_text(json.dumps(record) + "\n")
    return results, gt_path


def test_eval_auto_syneq_only(tmp_path, patched_results):
    results, gt_path = patched_results
    report_path = tmp_path / "report.json"
    code = main(["eval", "--results", str(results),
                 "--ground-truth", str(gt_path),
                 "--report", str(report_path)])
    assert code == 0
    doc = json.loads(report_path.read_text())
    # retained patches 1 and 3 are whitespace/comment variants of the fix
    assert doc["categories"]["SynEq"]["recall"] == 1.0
    assert doc["categories"]["SynEq"]["precision"] == pytest.approx(2 / 3)
    assert doc["counts"]["generated_patches"] == 3
    assert doc["categories"]["Correct"]["precision"] == pytest.approx(2 / 3)


def test_eval_with_human_labels(tmp_path, patched_results):
    results, gt_path = patched_results
    report_path = tmp_path / "report.json"
    code = main(["eval", "--results", str(results),
                 "--ground-truth", str(gt_path),
                 "--labels", str(FIXTURES / "labels.jsonl"),
                 "--report", str(report_path), "--csv", str(tmp_path / "r.csv")])
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["categories"]["Correct"]["precision"] == 1.0
    assert doc["categories"]["Correct"]["f1"] == 1.0
    assert doc["categories"]["Plausible"]["precision"] == pytest.approx(1 / 3)
    csv_text = (tmp_path / "r.csv").read_text()
    assert csv_text.splitlines()[0] == "category,recall,precision,f1"


def test_eval_applies_each_ground_truth_once(tmp_path, patched_results, monkeypatch):
    results, gt_path = patched_results
    applied, apply_patch = [], diffs.apply_patch

    def counting(sources, diff_text):
        applied.append(diff_text)
        return apply_patch(sources, diff_text)

    monkeypatch.setattr(diffs, "apply_patch", counting)
    monkeypatch.setattr(evaluation, "apply_patch", counting)
    assert main(["eval", "--results", str(results), "--ground-truth", str(gt_path),
                 "--report", str(tmp_path / "report.json")]) == 0
    # the load check applies the ground truth, then each of the three
    # retained candidates is applied and scored against that text
    assert len(applied) == 4


def test_eval_ground_truth_that_does_not_apply_names_the_sample(tmp_path, patched_results,
                                                                capsys):
    results, gt_path = patched_results
    record = json.loads(gt_path.read_text())
    record["ground_truth_patch"] = record["ground_truth_patch"].replace(
        "-    p = malloc(cnt + 1);", "-    p = malloc(cnt);")
    gt_path.write_text(json.dumps(record) + "\n")
    report_path = tmp_path / "report.json"
    assert main(["eval", "--results", str(results), "--ground-truth", str(gt_path),
                 "--report", str(report_path)]) == 2
    assert ("sample 'jsi-strcpy-zero-day': ground-truth patch does not apply: "
            "jsi_like.c, hunk #1: removed line mismatch at line 24"
            in capsys.readouterr().err)
    assert not report_path.exists()


def test_eval_conflicting_duplicate_label_is_usage_error(tmp_path, patched_results):
    results, gt_path = patched_results
    labels = tmp_path / "labels.jsonl"
    labels.write_text(
        json.dumps({"sample_id": "jsi-strcpy-zero-day", "ordinal": 4,
                    "category": "SemEq", "source": "human"}) + "\n" +
        json.dumps({"sample_id": "jsi-strcpy-zero-day", "ordinal": 4,
                    "category": "Plausible", "source": "human"}) + "\n"
    )
    code = main(["eval", "--results", str(results),
                 "--ground-truth", str(gt_path),
                 "--labels", str(labels),
                 "--report", str(tmp_path / "report.json")])
    assert code == 2


def test_eval_label_with_unknown_source_is_usage_error(tmp_path, patched_results, capsys):
    results, gt_path = patched_results
    labels = tmp_path / "labels.jsonl"
    labels.write_text(json.dumps({"sample_id": "jsi-strcpy-zero-day", "ordinal": 4,
                                  "category": "SemEq", "source": "robot"}) + "\n")
    code = main(["eval", "--results", str(results),
                 "--ground-truth", str(gt_path),
                 "--labels", str(labels),
                 "--report", str(tmp_path / "report.json")])
    assert code == 2
    assert "'source' must be one of auto, human" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_eval_keeps_the_labels_of_a_graph_backed_sample(tmp_path, patched_results, jsi_graph,
                                                        caplog):
    """A graph-backed ground truth has no sources to patch: each retained
    patch keeps its label, or is Incorrect, and none is SynEq, with one
    warning per patch."""
    from appatch.code_model import export_graph

    results, gt_path = patched_results
    record = json.loads(gt_path.read_text())
    del record["sources"]
    gt_path.write_text(json.dumps({**record, "graph": export_graph(jsi_graph)}) + "\n")
    labels = tmp_path / "labels.jsonl"
    labels.write_text(json.dumps({"sample_id": record["id"], "ordinal": 1,
                                  "category": "SemEq"}) + "\n")
    report = tmp_path / "report.json"
    with caplog.at_level("WARNING"):
        assert main(["eval", "--results", str(results), "--ground-truth", str(gt_path),
                     "--labels", str(labels), "--report", str(report)]) == 0
    warning = f"sample {record['id']} is graph-backed; cannot auto-check SynEq"
    assert [r.getMessage() for r in caplog.records] == [warning] * 3
    doc = json.loads(report.read_text())
    precision = {name: row["precision"] for name, row in doc["categories"].items()}
    assert precision == {"SynEq": 0.0, "SemEq": pytest.approx(1 / 3), "Plausible": 0.0,
                         "Correct": pytest.approx(1 / 3)}


def test_eval_decides_each_retained_patch_once(tmp_path, patched_results, caplog):
    """Retained 1 and 3 are SynEq, 4 is not: an automatic SynEq beats a
    human label, a human label beats Incorrect, and a label outside the
    retained set is warned about once and counted nowhere."""
    results, gt_path = patched_results
    record = json.loads(gt_path.read_text())
    gt_path.write_text(gt_path.read_text() + json.dumps({**record, "id": "no-result"}) + "\n")
    sample = "jsi-strcpy-zero-day"
    labels = tmp_path / "labels.jsonl"
    labels.write_text("".join(json.dumps(label) + "\n" for label in [
        {"sample_id": sample, "ordinal": 1, "category": "SemEq"},
        {"sample_id": sample, "ordinal": 4, "category": "Plausible"},
        {"sample_id": sample, "ordinal": 2, "category": "SemEq"},
        {"sample_id": "no-result", "ordinal": 1, "category": "SemEq"},
    ]))
    report = tmp_path / "report.json"
    with caplog.at_level("WARNING"):
        assert main(["eval", "--results", str(results), "--ground-truth", str(gt_path),
                     "--labels", str(labels), "--report", str(report)]) == 0
    assert [r.getMessage() for r in caplog.records if "ignored" in r.getMessage()] == [
        f"label for {sample} patch 2 ignored: not in the retained set",
        "label for no-result patch 1 ignored: not in the retained set",
    ]
    doc = json.loads(report.read_text())
    precision = {name: row["precision"] for name, row in doc["categories"].items()}
    assert precision == {"SynEq": pytest.approx(2 / 3), "SemEq": 0.0,
                         "Plausible": pytest.approx(1 / 3), "Correct": 1.0}
    assert doc["counts"] == {"testing_samples": 2, "fixed_samples": 1,
                             "generated_patches": 3, "correct_patches": 3}


def test_eval_reproduces_published_count_shape(tmp_path):
    """20 samples, 87 generated, 48 correct across 18 fixed samples."""
    source = "int f(int a){return a;}\n"
    gt_diff = (
        "--- a/f.c\n+++ b/f.c\n@@ -1,1 +1,1 @@\n"
        "-int f(int a){return a;}\n"
        "+int f(int a){return a + 1;}\n"
    )
    gt_path = tmp_path / "gt.jsonl"
    with open(gt_path, "w") as fh:
        for index in range(20):
            fh.write(json.dumps({
                "id": f"s{index:02d}",
                "sources": [["f.c", source]],
                "vuln": {"lines": [["f.c", 1]], "cwes": ["CWE-787"]},
                "ground_truth_patch": gt_diff,
            }) + "\n")

    results = tmp_path / "results"
    patch_counts = [5] * 15 + [4] * 3 + [0, 0]
    labeled = set()
    for index, count in enumerate(patch_counts):
        sample_id = f"s{index:02d}"
        if count == 0:
            continue
        sample_dir = results / sample_id
        sample_dir.mkdir(parents=True)
        candidates = []
        for ordinal in range(1, count + 1):
            name = f"candidate_{ordinal}.diff"
            (sample_dir / name).write_text("")  # applies, never syntactically equal
            candidates.append({"ordinal": ordinal, "file": name})
        (sample_dir / "result.json").write_text(json.dumps({
            "sample_id": sample_id,
            "candidates": candidates,
            "retained": list(range(1, count + 1)),
            "validated": True,
        }))
        commit(sample_dir)
        labeled.add((sample_id, 1))  # every patch-bearing sample is fixed
    for index, count in enumerate(patch_counts):
        for ordinal in range(2, count + 1):
            if len(labeled) < 48:
                labeled.add((f"s{index:02d}", ordinal))
    assert len(labeled) == 48
    labels = [
        {"sample_id": sid, "ordinal": ordinal, "category": "SemEq",
         "source": "human"}
        for sid, ordinal in sorted(labeled)
    ]
    labels_path = tmp_path / "labels.jsonl"
    labels_path.write_text("".join(json.dumps(l) + "\n" for l in labels))

    report_path = tmp_path / "report.json"
    code = main(["eval", "--results", str(results),
                 "--ground-truth", str(gt_path),
                 "--labels", str(labels_path),
                 "--report", str(report_path)])
    assert code == 0
    doc = json.loads(report_path.read_text())
    correct = doc["categories"]["Correct"]
    assert correct["recall"] == pytest.approx(0.90)
    assert correct["precision"] == pytest.approx(0.5517, abs=5e-5)
    assert correct["f1"] == pytest.approx(0.6841, abs=5e-5)


def test_slice_external_functions_flag_overrides_default(tmp_path):
    out = tmp_path / "slice.json"
    code = main([
        "slice", "--source", str(FIXTURES / "jsi_like.c"),
        "--vuln", "jsi_like.c:48", "--cwe", "CWE-787",
        "--external-functions", "trace_write",
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    # malloc is no longer external, so only the entry params remain
    assert len(doc["ei"]) == 2


def test_manifest_accounting_equals_cache_transcript_replay(tmp_path):
    """Warm-run accounting must equal sums over the recorded exchanges."""
    config = write_config(tmp_path, cached=True)
    pool_path = tmp_path / "pool.jsonl"
    assert main(["mine", "--dataset", str(FIXTURES / "dataset.jsonl"),
                 "--provider", "miner", "--pool", str(pool_path),
                 "--config", str(config)]) == 0

    def run(name):
        out_dir = tmp_path / name
        assert main([
            "patch", "--sample", str(FIXTURES / "sample_e2e.json"),
            "--pool", str(pool_path), "--provider", "gen",
            "--validators", "v1,v2", "--out", str(out_dir),
            "--config", str(config),
        ]) == 0
        return json.loads((out_dir / "manifest.json").read_text())

    run("cold")
    manifest = run("warm")

    totals = {}
    for entry_path in (tmp_path / "cache").rglob("*.json"):
        doc = json.loads(entry_path.read_text())
        if doc["provider_id"] == "miner-raw":
            continue  # mining exchanges are not part of the patch run
        bucket = totals.setdefault(doc["provider_id"], {
            "calls": 0, "input_tokens": 0, "output_tokens": 0, "estimated": False,
        })
        bucket["calls"] += 1
        bucket["input_tokens"] += doc["input_tokens"]
        bucket["output_tokens"] += doc["output_tokens"]
        bucket["estimated"] = bucket["estimated"] or doc["estimated"]

    assert manifest["accounting"] == totals


def test_cold_runs_in_fresh_directories_are_byte_identical(tmp_path):
    """Two cold mine + patch runs, each with its own cache, write the same
    bytes everywhere: outputs, manifests and cache entries; a warm rerun
    writes the same outputs again."""
    def run(root, out_name):
        root.mkdir(exist_ok=True)
        config = write_config(root, cached=True)
        pool_path = root / "pool.jsonl"
        assert main(["mine", "--dataset", str(FIXTURES / "dataset.jsonl"),
                     "--provider", "miner", "--pool", str(pool_path),
                     "--config", str(config)]) == 0
        assert main(["patch", "--sample", str(FIXTURES / "sample_e2e.json"),
                     "--pool", str(pool_path), "--provider", "gen",
                     "--validators", "v1,v2", "--out", str(root / out_name),
                     "--config", str(config)]) == 0
        return {
            str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()
        }

    first = run(tmp_path / "a", "out")
    second = run(tmp_path / "b", "out")
    assert sum(name.startswith("cache/") for name in first) == 19
    assert first == second
    warm = run(tmp_path / "a", "out-warm")
    assert {name: data for name, data in warm.items() if name.startswith("out-warm/")} == {
        name.replace("out/", "out-warm/", 1): data
        for name, data in first.items() if name.startswith("out/")
    }


def test_pipeline_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """slice, mine, patch and eval, each tree written by a fresh interpreter
    under its own PYTHONHASHSEED, agree byte for byte, manifests included."""
    config = write_config(tmp_path)
    gt_path = tmp_path / "gt.jsonl"
    gt_path.write_text(json.dumps(json.loads((FIXTURES / "sample_e2e.json").read_text())) + "\n")
    program = ("import json, sys\nfrom appatch.cli import main\n"
               "for argv in json.loads(sys.argv[1]):\n    assert main(argv) == 0, argv\n")
    trees = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        runs = [
            ["slice", "--source", str(FIXTURES / "jsi_like.c"), "--vuln", "jsi_like.c:48",
             "--cwe", "CWE-787", "--out", str(out / "slice.json")],
            ["mine", "--dataset", str(FIXTURES / "dataset.jsonl"), "--provider", "miner",
             "--pool", str(out / "pool.jsonl"), "--config", str(config)],
            ["patch", "--sample", str(FIXTURES / "sample_e2e.json"),
             "--pool", str(out / "pool.jsonl"), "--provider", "gen", "--validators", "v1,v2",
             "--out", str(out / "results" / "jsi-strcpy-zero-day"), "--config", str(config)],
            ["eval", "--results", str(out / "results"), "--ground-truth", str(gt_path),
             "--labels", str(FIXTURES / "labels.jsonl"), "--report", str(out / "report.json"),
             "--csv", str(out / "report.csv")],
        ]
        subprocess.run([sys.executable, "-c", program, json.dumps(runs)], check=True,
                       env={**os.environ, "PYTHONHASHSEED": seed,
                            "PYTHONPATH": str(FIXTURES.parents[1] / "src")})
        trees.append({str(path.relative_to(out)): path.read_bytes()
                      for path in sorted(out.rglob("*")) if path.is_file()})
    assert sum(name.endswith("manifest.json") for name in trees[0]) == 4
    assert trees[0] == trees[1]


def test_slice_from_graph_renders_node_texts(tmp_path, jsi_graph):
    from appatch.code_model import dump_graph

    graph_file = tmp_path / "graph.json"
    graph_file.write_text(dump_graph(jsi_graph))
    out = tmp_path / "g.json"
    assert main(["slice", "--graph", str(graph_file),
                 "--vuln", "jsi_like.c:48", "--out", str(out)]) == 0
    rendered = (tmp_path / "g.json.txt").read_text()
    assert "24: p = malloc(cnt + 1)" in rendered  # node text, sparse source
    numbers = [int(l.split(":", 1)[0]) for l in rendered.splitlines() if l.strip()]
    assert numbers == sorted(numbers)


# ── inputs are read once; bad input exits 2 ──────────────────────────────

def test_manifest_digest_is_of_the_bytes_that_ran(tmp_path, mined_pool, monkeypatch):
    """A pool replaced right after it was parsed leaves the manifest naming
    the bytes the run used, not what the file holds afterwards."""
    from appatch import cli

    config, pool_path = mined_pool
    ran = pool_path.read_bytes()
    real_load_pool = cli.load_pool

    def load_then_replace(*args, **kwargs):
        pool = real_load_pool(*args, **kwargs)
        pool_path.write_text("")
        return pool

    monkeypatch.setattr(cli, "load_pool", load_then_replace)
    out_dir = tmp_path / "out"
    assert main(["patch", "--sample", str(FIXTURES / "sample_e2e.json"),
                 "--pool", str(pool_path), "--provider", "gen",
                 "--out", str(out_dir), "--config", str(config)]) == 0
    assert pool_path.read_bytes() == b""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["input_digests"]["pool"] == hashlib.sha256(ran).hexdigest()


def test_crlf_and_cr_sources_slice_like_their_lf_copy(tmp_path):
    lf = (FIXTURES / "jsi_like.c").read_bytes()
    assert b"\r" not in lf
    runs = {}
    lines = lf.split(b"\n")
    mixed = b"".join(line + (b"\r\n", b"\r")[i % 2] for i, line in enumerate(lines[:-1]))
    for name, data in (("lf", lf), ("crlf", lf.replace(b"\n", b"\r\n")),
                       ("cr", lf.replace(b"\n", b"\r")), ("mixed", mixed + lines[-1])):
        root = tmp_path / name
        root.mkdir()
        (root / "jsi_like.c").write_bytes(data)
        out = root / "slice.json"
        assert main(["slice", "--source", str(root / "jsi_like.c"),
                     "--vuln", "jsi_like.c:48", "--out", str(out)]) == 0
        manifest = json.loads((root / "slice.json.manifest.json").read_text())
        assert manifest["input_digests"] == {
            "source:jsi_like.c": hashlib.sha256(data).hexdigest()
        }
        runs[name] = (out.read_bytes(), (root / "slice.json.txt").read_bytes())
    assert runs["crlf"] == runs["lf"]
    assert runs["cr"] == runs["lf"]
    assert runs["mixed"] == runs["lf"]


def test_input_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    source = tmp_path / "latin1.c"
    source.write_bytes("int f(){return 0;} /* café */\n".encode("latin-1"))
    code = main(["slice", "--source", str(source), "--vuln", "latin1.c:1",
                 "--out", str(tmp_path / "s.json")])
    assert code == 2
    assert f"source file {source}: not valid UTF-8" in capsys.readouterr().err


def test_cache_entry_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    config = write_config(tmp_path, cached=True)
    args = ["mine", "--dataset", str(FIXTURES / "dataset.jsonl"), "--provider", "miner",
            "--pool", str(tmp_path / "pool.jsonl"), "--config", str(config)]
    assert main(args) == 0
    entry = sorted((tmp_path / "cache" / "miner").rglob("*.json"))[0]
    entry.write_bytes(b'{"prompt": "\xff"}')
    capsys.readouterr()
    assert main(args) == 2
    assert f"cache entry {entry}: not valid UTF-8 at byte 12" in capsys.readouterr().err


@pytest.mark.parametrize("script_bytes, problem", [
    (None, "No such file or directory"),
    (b'["unterminated"', "is not valid JSON"),
    (b'["caf\xe9"]', "not valid UTF-8 at byte 5"),
])
def test_bad_script_file_is_usage_error(tmp_path, capsys, script_bytes, problem):
    script = tmp_path / "script.json"
    if script_bytes is not None:
        script.write_bytes(script_bytes)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"providers": [
        {"id": "miner", "kind": "scripted", "script": "script.json"},
    ]}))
    code = main(["mine", "--dataset", str(FIXTURES / "dataset.jsonl"),
                 "--provider", "miner", "--pool", str(tmp_path / "pool.jsonl"),
                 "--config", str(config)])
    assert code == 2
    err = capsys.readouterr().err
    assert "scripted provider 'miner'" in err
    assert f"script {script}" in err and problem in err


def test_a_lone_surrogate_in_a_scripted_answer_is_usage_error(tmp_path, mined_pool, capsys):
    """JSON may spell a lone UTF-16 surrogate, which no UTF-8 file can hold:
    the script is refused as it is read, before any candidate is written."""
    _, pool_path = mined_pool
    answers = json.loads((FIXTURES / "scripted" / "gen.json").read_text())
    line = "+    p = malloc(jsi_strlen(use) + 1);"
    assert line in answers[5]
    answers[5] = answers[5].replace(line, line + " /* \ud800 */", 1)
    script = tmp_path / "gen.json"
    script.write_text(json.dumps(answers))   # ASCII: the surrogate is a \ud800 escape
    config = tmp_path / "gen-config.json"
    config.write_text(json.dumps({"providers": [
        {"id": "gen", "kind": "scripted", "script": "gen.json"}]}))
    out_dir = tmp_path / "out"
    capsys.readouterr()
    code = main(["patch", "--sample", str(FIXTURES / "sample_e2e.json"), "--pool", str(pool_path),
                 "--provider", "gen", "--out", str(out_dir), "--config", str(config)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: config file {config}: scripted provider 'gen': script {script} "
        "is not valid JSON: unpaired surrogate \\ud800"]
    assert not (out_dir / "manifest.json").exists()


def test_a_lone_surrogate_in_a_graph_is_pipeline_error(tmp_path, jsi_graph, capsys):
    from appatch.code_model import dump_graph

    doc = json.loads(dump_graph(jsi_graph))
    next(node for node in doc["nodes"] if node["line"] == 48)["text"] += " /* \ud800 */"
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(doc))
    out = tmp_path / "slice.json"
    code = main(["slice", "--graph", str(graph_file), "--vuln", "jsi_like.c:48",
                 "--out", str(out)])
    assert code == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1
    assert errors[0].startswith("error: ")
    assert errors[0].endswith("$: not valid JSON: unpaired surrogate \\ud800")
    assert not out.exists() and not (tmp_path / "slice.json.manifest.json").exists()


def test_an_output_whose_rename_fails_is_usage_error(tmp_path, capsys, monkeypatch):
    """The write fails after its temporary file exists: one error line, the
    old output kept, no temporary file left and no manifest."""
    out = tmp_path / "slice.json"
    out.write_text("old\n")
    replace = os.replace

    def fail_on_out(src, dst):
        if Path(dst) == out:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_on_out)
    code = main(["slice", "--source", str(FIXTURES / "jsi_like.c"), "--vuln", "jsi_like.c:48",
                 "--out", str(out)])
    assert code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and os.strerror(errno.EIO) in errors[0]
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["slice.json"]


def test_cache_entry_that_is_a_directory_is_usage_error(tmp_path, capsys):
    config = write_config(tmp_path, cached=True)
    args = ["mine", "--dataset", str(FIXTURES / "dataset.jsonl"), "--provider", "miner",
            "--pool", str(tmp_path / "pool.jsonl"), "--config", str(config)]
    assert main(args) == 0
    entry = sorted((tmp_path / "cache" / "miner").rglob("*.json"))[0]
    entry.unlink()
    entry.mkdir()
    capsys.readouterr()
    assert main(args) == 2
    assert f"error: cache entry {entry}: Is a directory" in capsys.readouterr().err


def test_output_under_a_regular_file_is_usage_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    code = main(["slice", "--source", str(FIXTURES / "jsi_like.c"), "--vuln", "jsi_like.c:48",
                 "--out", str(blocker / "slice.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err
    assert blocker.read_text() == "a file, not a directory\n"


def test_input_that_cannot_be_read_is_usage_error(tmp_path, capsys, monkeypatch):
    """File modes do not stop root, so the refusal is raised by the read itself."""
    source = tmp_path / "locked.c"
    source.write_text("int main(int n){return n;}\n")
    read_bytes = Path.read_bytes

    def refuse(path):
        if path == source:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", refuse)
    code = main(["slice", "--source", str(source), "--vuln", "locked.c:1",
                 "--out", str(tmp_path / "s.json")])
    assert code == 2
    assert (f"error: source file {source}: {os.strerror(errno.EACCES)}"
            in capsys.readouterr().err)
    assert not (tmp_path / "s.json").exists()


def with_remote_provider(config_path, monkeypatch):
    """Add an http-chat provider ``remote`` whose auth variable is unset;
    it fails while building its headers, before any request is sent."""
    monkeypatch.delenv("APPATCH_TEST_UNSET_KEY", raising=False)
    doc = json.loads(config_path.read_text())
    doc["providers"].append({
        "id": "remote", "kind": "http-chat", "model": "m",
        "endpoint": "http://127.0.0.1:9/v1/chat/completions",
        "auth_env": "APPATCH_TEST_UNSET_KEY", "backoff": 0.0,
    })
    config_path.write_text(json.dumps(doc))
    return config_path


@pytest.mark.parametrize("jobs", ["1", "3"])
def test_mine_with_missing_auth_is_usage_error(tmp_path, monkeypatch, capsys, jobs):
    config = with_remote_provider(write_config(tmp_path), monkeypatch)
    pool_path = tmp_path / "pool.jsonl"
    code = main(["mine", "--dataset", str(FIXTURES / "dataset.jsonl"),
                 "--provider", "remote", "--pool", str(pool_path),
                 "--config", str(config), "--jobs", jobs])
    assert code == 2
    assert "needs auth: set the APPATCH_TEST_UNSET_KEY" in capsys.readouterr().err
    assert not pool_path.exists()


@pytest.mark.parametrize("role", ["--provider", "--validators"])
def test_patch_with_missing_auth_is_usage_error(tmp_path, mined_pool, monkeypatch,
                                                capsys, role):
    config, pool_path = mined_pool
    with_remote_provider(config, monkeypatch)
    flags = {"--provider": "gen", "--validators": "v1"}
    flags[role] = "remote"
    out_dir = tmp_path / "out-remote"
    code = main(["patch", "--sample", str(FIXTURES / "sample_e2e.json"),
                 "--pool", str(pool_path), "--out", str(out_dir),
                 "--config", str(config),
                 "--provider", flags["--provider"], "--validators", flags["--validators"]])
    assert code == 2
    assert "needs auth: set the APPATCH_TEST_UNSET_KEY" in capsys.readouterr().err
    assert not (out_dir / "manifest.json").exists()


def test_slice_bad_cwe_flag_is_usage_error(tmp_path, capsys):
    code = main(["slice", "--source", str(FIXTURES / "jsi_like.c"),
                 "--vuln", "jsi_like.c:48", "--cwe", "CWE-x",
                 "--out", str(tmp_path / "s.json")])
    assert code == 2
    assert "bad CWE id: 'CWE-x'" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_slice_checks_its_flags_before_it_reads_anything(tmp_path, capsys):
    """A bad --cwe is named even when the source would not parse."""
    bad = tmp_path / "bad.c"
    bad.write_text("int f(){")
    code = main(["slice", "--source", str(bad), "--vuln", "bad.c:1", "--cwe", "CWE-x",
                 "--out", str(tmp_path / "s.json")])
    assert code == 2
    assert capsys.readouterr().err == "error: --cwe: bad CWE id: 'CWE-x'\n"


def test_slice_takes_no_config(tmp_path, capsys):
    """``slice`` calls no provider, so it has no config to read."""
    config = write_config(tmp_path)
    assert main(["slice", "--source", str(FIXTURES / "jsi_like.c"), "--vuln", "jsi_like.c:48",
                 "--config", str(config), "--out", str(tmp_path / "s.json")]) == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not (tmp_path / "s.json.manifest.json").exists()


@pytest.mark.parametrize("key, value, flag", [
    ("external_functions", ["recv"], "--external-functions"),
    ("demand_rounds", 3, "--max-rounds"),
])
def test_patch_refuses_a_config_that_sets_a_retired_key(tmp_path, mined_pool, capsys,
                                                         key, value, flag):
    config, pool_path = mined_pool
    doc = json.loads(config.read_text())
    doc[key] = value
    old = tmp_path / "old-config.json"
    old.write_text(json.dumps(doc))
    out_dir = tmp_path / "out-retired"
    capsys.readouterr()
    assert main(["patch", "--sample", str(FIXTURES / "sample_e2e.json"), "--pool",
                 str(pool_path), "--provider", "gen", "--out", str(out_dir),
                 "--config", str(old)]) == 2
    assert capsys.readouterr().err == (
        f"error: config file {old}: {key!r} is no longer a config key; pass {flag}\n")
    assert not (out_dir / "manifest.json").exists()


@pytest.mark.parametrize("rounds", ["0", "-1"])
def test_patch_max_rounds_below_one_is_usage_error(tmp_path, mined_pool, capsys, rounds):
    config, pool_path = mined_pool
    out_dir = tmp_path / "out-rounds"
    code = main(["patch", "--sample", str(FIXTURES / "sample_e2e.json"),
                 "--pool", str(pool_path), "--provider", "gen",
                 "--out", str(out_dir), "--config", str(config),
                 "--max-rounds", rounds])
    assert code == 2
    assert "--max-rounds must be a positive integer" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("command", ["mine", "patch"])
def test_jobs_below_one_is_usage_error(tmp_path, mined_pool, capsys, command, jobs):
    config, pool_path = mined_pool
    out = tmp_path / "out-jobs"
    argv = {
        "mine": ["mine", "--dataset", str(FIXTURES / "dataset.jsonl"), "--provider", "miner",
                 "--pool", str(out / "pool.jsonl")],
        "patch": ["patch", "--sample", str(FIXTURES / "sample_e2e.json"), "--pool",
                  str(pool_path), "--provider", "gen", "--out", str(out)],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--config", str(config), "--jobs", jobs]) == 2
    assert "--jobs must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("caches", [["a", "b"], [f"c{i}" for i in range(1500)]],
                         ids=["two", "deep"])
def test_a_cache_over_a_cache_is_usage_error(tmp_path, capsys, caches):
    """A ``cached`` entry's ``inner`` names a scripted or http-chat entry: a
    cache over a cache is refused by name, however long the chain behind it."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"providers": [
        *({"id": pid, "kind": "cached", "inner": inner, "cache_dir": f"cache/{pid}"}
          for pid, inner in zip(caches, [*caches[1:], "raw"])),
        {"id": "raw", "kind": "scripted", "script": str(FIXTURES / "scripted" / "mine.json")},
    ]}))
    pool = tmp_path / "pool.jsonl"
    code = main(["mine", "--dataset", str(FIXTURES / "dataset.jsonl"), "--provider", caches[0],
                 "--config", str(config), "--pool", str(pool)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: config file {config}: cached provider {caches[0]!r}: inner provider "
        f"{caches[1]!r} is cached too; name a scripted or http-chat provider"]
    assert not pool.exists() and not (tmp_path / "cache").exists()
    assert not (tmp_path / "pool.jsonl.manifest.json").exists()


@pytest.mark.parametrize("case", ["slice-source", "slice-graph", "mine", "patch", "eval"])
def test_manifest_names_each_output_and_input(tmp_path, mined_pool, jsi_graph, request, case):
    """The manifest maps exactly the files written beside it to the sha256
    of their bytes, and holds the sha256 of each input file's bytes under
    one key per input: the config and the script of each provider the run
    names are inputs too, and ``slice``, which calls no provider, reads no
    config."""
    from appatch.code_model import dump_graph

    config, pool_path = mined_pool
    out = tmp_path / "out"
    with_config = ["--config", str(config)]
    scripts = {pid: FIXTURES / "scripted" / name
               for pid, name in [("gen", "gen.json"), ("miner", "mine.json"),
                                 ("v1", "val1.json"), ("v2", "val2.json")]}

    def configured(*pids):
        return {"config": config, **{f"script:{pid}": scripts[pid] for pid in pids}}
    if case == "slice-source":
        source = FIXTURES / "jsi_like.c"
        argv = ["slice", "--source", str(source), "--vuln", "jsi_like.c:48",
                "--out", str(out / "slice.json")]
        manifest_path, inputs = out / "slice.json.manifest.json", {"source:jsi_like.c": source}
    elif case == "slice-graph":
        graph_file = tmp_path / "graph.json"
        graph_file.write_text(dump_graph(jsi_graph))
        argv = ["slice", "--graph", str(graph_file), "--vuln", "jsi_like.c:48",
                "--out", str(out / "slice.json")]
        manifest_path, inputs = out / "slice.json.manifest.json", {"graph:graph.json": graph_file}
    elif case == "mine":
        dataset = FIXTURES / "dataset.jsonl"
        argv = ["mine", "--dataset", str(dataset), "--provider", "miner",
                "--pool", str(out / "pool.jsonl"), *with_config]
        manifest_path, inputs = out / "pool.jsonl.manifest.json", {
            "dataset": dataset, **configured("miner")}
    elif case == "patch":
        sample = FIXTURES / "sample_e2e.json"
        argv = ["patch", "--sample", str(sample), "--pool", str(pool_path), "--provider", "gen",
                "--validators", "v1,v2", "--out", str(out), *with_config]
        manifest_path, inputs = out / "manifest.json", {
            "sample": sample, "pool": pool_path, **configured("gen", "v1", "v2")}
    else:
        results, gt_path = request.getfixturevalue("patched_results")
        labels = FIXTURES / "labels.jsonl"
        argv = ["eval", "--results", str(results), "--ground-truth", str(gt_path),
                "--labels", str(labels), "--report", str(out / "report.json"),
                "--csv", str(out / "report.csv")]
        manifest_path, inputs = out / "report.json.manifest.json", {
            "ground_truth": gt_path, "labels": labels}
        # and each file scored, under its path relative to --results
        sample_dir = results / "jsi-strcpy-zero-day"
        result = json.loads((sample_dir / "result.json").read_text())
        files = {c["ordinal"]: c["file"] for c in result["candidates"]}
        for name in ["manifest.json", "result.json", *(files[o] for o in result["retained"])]:
            inputs[f"jsi-strcpy-zero-day/{name}"] = sample_dir / name
    assert main(argv) == 0
    manifest = json.loads(manifest_path.read_text())
    assert manifest["outputs"] == {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.iterdir() if p != manifest_path
    }
    assert manifest["input_digests"] == {
        key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in inputs.items()
    }
    assert "config_digest" not in manifest


@pytest.mark.parametrize("command, flag", [
    ("slice", ["--external-functions", "trace_write"]),
    ("slice", ["--entry", "format_value"]),
    ("mine", ["--external-functions", "trace_write"]),
    ("patch", ["--external-functions", "trace_write"]),
    ("patch", ["--max-rounds", "2"]),
    ("patch", ["--cwe-filter"]),
], ids=["slice-external-functions", "slice-entry", "mine-external-functions",
        "patch-external-functions", "patch-max-rounds", "patch-cwe-filter"])
def test_manifest_flags_record_each_setting_that_shapes_the_outputs(tmp_path, command, flag):
    """Two runs that differ only in one such flag write manifests whose
    flags differ.  ``patch`` runs over a one-exemplar CWE-787 pool, so
    that ``--cwe-filter`` keeps the scripted answers in step."""
    gen = json.loads((FIXTURES / "scripted" / "gen.json").read_text())
    (tmp_path / "gen.json").write_text(json.dumps([*gen[:3], gen[-1]]))
    pool = tmp_path / "pool.jsonl"
    assert main(["mine", "--dataset", str(FIXTURES / "dataset.jsonl"), "--provider", "miner",
                 "--pool", str(pool), "--config", str(write_config(tmp_path))]) == 0
    pool.write_text(pool.read_text().splitlines(keepends=True)[0])
    config = tmp_path / "gen-config.json"
    config.write_text(json.dumps({"providers": [
        {"id": "gen", "kind": "scripted", "script": "gen.json"}]}))

    def flags(out, *extra):
        argv, manifest = {
            "slice": (["slice", "--source", str(FIXTURES / "jsi_like.c"), "--vuln",
                       "jsi_like.c:48", "--out", str(out / "slice.json")],
                      out / "slice.json.manifest.json"),
            "mine": (["mine", "--dataset", str(FIXTURES / "dataset.jsonl"), "--provider",
                      "miner", "--pool", str(out / "pool.jsonl"),
                      "--config", str(tmp_path / "config.json")],
                     out / "pool.jsonl.manifest.json"),
            "patch": (["patch", "--sample", str(FIXTURES / "sample_e2e.json"), "--pool",
                       str(pool), "--provider", "gen", "--out", str(out),
                       "--config", str(config)], out / "manifest.json"),
        }[command]
        assert main([*argv, *extra]) == 0
        return json.loads(manifest.read_text())["flags"]

    assert flags(tmp_path / "without") != flags(tmp_path / "with", *flag)


def test_eval_csv_elsewhere_is_committed_by_its_path_from_the_manifest(tmp_path,
                                                                       patched_results):
    """A --csv in another directory, even under the report's own name, is
    keyed by its path from the manifest, so each digest is its own file's."""
    results, gt_path = patched_results
    report, table = tmp_path / "a" / "r.json", tmp_path / "b" / "r.json"
    assert main(["eval", "--results", str(results), "--ground-truth", str(gt_path),
                 "--report", str(report), "--csv", str(table)]) == 0
    manifest = json.loads((tmp_path / "a" / "r.json.manifest.json").read_text())
    assert manifest["outputs"] == {
        "r.json": hashlib.sha256(report.read_bytes()).hexdigest(),
        "../b/r.json": hashlib.sha256(table.read_bytes()).hexdigest(),
    }


def test_eval_manifests_differ_when_one_scored_candidate_differs(tmp_path, patched_results):
    """Two results trees that differ only in one retained candidate's diff
    give two different manifests for one ground truth."""
    import shutil

    results, gt_path = patched_results
    other = tmp_path / "other"
    shutil.copytree(results, other)
    sample_dir = other / "jsi-strcpy-zero-day"
    result = json.loads((sample_dir / "result.json").read_text())
    files = {c["ordinal"]: c["file"] for c in result["candidates"]}
    changed = sample_dir / files[min(result["retained"])]
    changed.write_text(changed.read_text() + "\n")
    commit(sample_dir)
    manifests = []
    for tree in (results, other):
        report = tmp_path / tree.name / "report.json"
        assert main(["eval", "--results", str(tree), "--ground-truth", str(gt_path),
                     "--report", str(report)]) == 0
        manifests.append(json.loads(report.with_name("report.json.manifest.json").read_text()))
    first, second = (m["input_digests"] for m in manifests)
    assert first.keys() == second.keys()
    key = f"jsi-strcpy-zero-day/{changed.name}"
    differ = {k for k in first if first[k] != second[k]}
    assert differ == {key, "jsi-strcpy-zero-day/manifest.json"}
    assert second[key] == hashlib.sha256(changed.read_bytes()).hexdigest()


def test_eval_of_a_missing_results_directory_is_usage_error(tmp_path, capsys):
    results = tmp_path / "no-results"
    code = main(["eval", "--results", str(results), "--ground-truth",
                 str(FIXTURES / "dataset.jsonl"), "--report", str(tmp_path / "report.json")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: results directory not found: {results}"]
    assert not (tmp_path / "report.json.manifest.json").exists()


@pytest.mark.parametrize("result_text, named", [
    ("[1, 3, 4]", "result.json"),
    ('{"candidates": [{"ordinal": 1}], "retained": [1]}', "result.json"),
    ('{"retained": 5}', "result.json"),
    ('{"retained": [[1]]}', "result.json"),
    ('{"candidates": [{"ordinal": 1, "file": 7}], "retained": [1]}', "result.json"),
    (None, "candidate_3.diff"),   # a retained candidate's diff is gone
    ("/", "result.json"),   # result.json is a directory
    # a retained ordinal with no candidate entry
    ('{"sample_id": "jsi-strcpy-zero-day", "candidates": [], "retained": [1]}', "result.json"),
])
def test_eval_malformed_results_are_usage_errors(tmp_path, patched_results, capsys,
                                                 result_text, named):
    results, gt_path = patched_results
    sample_dir = results / "jsi-strcpy-zero-day"
    if result_text is None:
        (sample_dir / "candidate_3.diff").unlink()
    elif result_text == "/":
        (sample_dir / "result.json").unlink()
        (sample_dir / "result.json").mkdir()
    else:
        (sample_dir / "result.json").write_text(result_text)
        commit(sample_dir)   # or the digest check would answer first
    code = main(["eval", "--results", str(results), "--ground-truth", str(gt_path),
                 "--report", str(tmp_path / "report.json")])
    assert code == 2
    assert str(sample_dir / named) in capsys.readouterr().err


def test_patch_rerun_that_fails_leaves_no_manifest_and_eval_refuses_it(tmp_path,
                                                                      patched_results, capsys):
    """A rerun that fails at root cause into the --out of a run that
    succeeded leaves that run's outputs but no manifest, so nothing in the
    directory is committed and eval scores none of it."""
    results, gt_path = patched_results
    out_dir = results / "jsi-strcpy-zero-day"
    (tmp_path / "down.json").write_text(json.dumps([{"error": "down", "transient": False}]))
    config = tmp_path / "down-config.json"
    config.write_text(json.dumps({"providers": [
        {"id": "gen", "kind": "scripted", "script": str(tmp_path / "down.json")}]}))
    assert main(["patch", "--sample", str(FIXTURES / "sample_e2e.json"),
                 "--pool", str(tmp_path / "pool.jsonl"), "--provider", "gen",
                 "--out", str(out_dir), "--config", str(config)]) == 1
    assert (out_dir / "result.json").is_file()
    assert not (out_dir / "manifest.json").exists()
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert main(["eval", "--results", str(results), "--ground-truth", str(gt_path),
                 "--report", str(report)]) == 2
    assert f"result manifest {out_dir / 'manifest.json'}: " in capsys.readouterr().err
    assert not report.exists()


def _escaping_candidate(sample_dir):
    (sample_dir.parent.parent / "outside.diff").write_text(
        (sample_dir / "candidate_1.diff").read_text())
    result = json.loads((sample_dir / "result.json").read_text())
    result["candidates"][0]["file"] = "../../outside.diff"
    (sample_dir / "result.json").write_text(json.dumps(result))
    commit(sample_dir)
    return "../../outside.diff", "not an output that"


def _uncommitted_result(sample_dir):
    (sample_dir / "result.json").write_text(
        (sample_dir / "result.json").read_text().replace('"validated": true', '"validated": 1'))
    return "result.json", "its sha256 is not the one"


def _uncommitted_candidate(sample_dir):
    with open(sample_dir / "candidate_3.diff", "a") as handle:
        handle.write("\n")
    return "candidate_3.diff", "its sha256 is not the one"


def _manifest_of_another_command(sample_dir):
    manifest = json.loads((sample_dir / "manifest.json").read_text())
    (sample_dir / "manifest.json").write_text(json.dumps({**manifest, "command": "mine"}))
    return "manifest.json", "'command' must be 'patch'"


def _output_name_that_is_a_path(sample_dir):
    manifest = json.loads((sample_dir / "manifest.json").read_text())
    manifest["outputs"]["../result.json"] = manifest["outputs"]["result.json"]
    (sample_dir / "manifest.json").write_text(json.dumps(manifest))
    return "manifest.json", "'outputs' must be an object mapping file names"


@pytest.mark.parametrize("change", [
    _escaping_candidate, _uncommitted_result, _uncommitted_candidate,
    _manifest_of_another_command, _output_name_that_is_a_path,
], ids=lambda change: change.__name__.strip("_"))
def test_eval_scores_only_what_a_patch_manifest_commits(tmp_path, patched_results, capsys,
                                                        change):
    results, gt_path = patched_results
    sample_dir = results / "jsi-strcpy-zero-day"
    named, problem = change(sample_dir)
    report = tmp_path / "report.json"
    assert main(["eval", "--results", str(results), "--ground-truth", str(gt_path),
                 "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert f"{sample_dir / named}: " in err and problem in err
    assert not report.exists()


def test_eval_refuses_a_result_of_another_sample(tmp_path, patched_results, capsys):
    """A committed result copied under another sample's id is not that sample's."""
    results, gt_path = patched_results
    other = results / "other-id"
    shutil.copytree(results / "jsi-strcpy-zero-day", other)
    record = json.loads(gt_path.read_text())
    gt_path.write_text(json.dumps({**record, "id": "other-id"}) + "\n")
    report = tmp_path / "report.json"
    assert main(["eval", "--results", str(results), "--ground-truth", str(gt_path),
                 "--report", str(report)]) == 2
    assert capsys.readouterr().err == (
        f"error: {other / 'result.json'}: 'sample_id' is 'jsi-strcpy-zero-day', "
        "not the ground truth's 'other-id'\n")
    assert not report.exists()


@pytest.mark.parametrize("csv_name, problem", [
    ("r.json", "written already by this run"),
    ("r.json.manifest.json", "the manifest of this run"),
    ("link/r.json", "written already by this run"),
], ids=["the-report", "the-manifest", "the-report-by-a-symlink"])
def test_eval_refuses_to_write_one_path_twice(tmp_path, patched_results, capsys,
                                              csv_name, problem):
    """The CSV may not replace the report, nor the manifest that commits both,
    however its path is spelled: the report is kept."""
    results, gt_path = patched_results
    (tmp_path / "link").symlink_to(tmp_path)
    report, table = tmp_path / "r.json", tmp_path / csv_name
    assert main(["eval", "--results", str(results), "--ground-truth", str(gt_path),
                 "--report", str(report), "--csv", str(table)]) == 2
    assert capsys.readouterr().err == f"error: output {table}: {problem}\n"
    assert json.loads(report.read_text())["counts"]["testing_samples"] == 1
    assert not (tmp_path / "r.json.manifest.json").exists()


@pytest.mark.parametrize("over", ["source", "config"])
def test_a_run_refuses_to_write_over_a_file_it_read(tmp_path, capsys, over):
    """However the output is spelled, an input it names stays as it was."""
    source = tmp_path / "jsi_like.c"
    source.write_bytes((FIXTURES / "jsi_like.c").read_bytes())
    config = write_config(tmp_path)
    target = {"source": source, "config": config}[over]
    before = target.read_bytes()
    out = tmp_path / "sub" / ".." / target.name
    (tmp_path / "sub").mkdir()
    argv = {
        "source": ["slice", "--source", str(source), "--vuln", "jsi_like.c:48", "--out", str(out)],
        "config": ["mine", "--dataset", str(FIXTURES / "dataset.jsonl"), "--provider", "miner",
                   "--config", str(config), "--pool", str(out)],
    }[over]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: output {out}: read by this run\n"
    assert target.read_bytes() == before
    assert not (tmp_path / f"{target.name}.manifest.json").exists()


def test_a_run_refuses_to_write_over_a_script_its_config_names(tmp_path, capsys):
    """A provider script is read through the run record like any input, so
    an output over it is refused and the script stays as it was."""
    script = tmp_path / "mine.json"
    script.write_bytes((FIXTURES / "scripted" / "mine.json").read_bytes())
    before = script.read_bytes()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"providers": [
        {"id": "miner", "kind": "scripted", "script": "mine.json"}]}))
    assert main(["mine", "--dataset", str(FIXTURES / "dataset.jsonl"), "--provider", "miner",
                 "--pool", str(script), "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: output {script}: read by this run\n"
    assert script.read_bytes() == before
    assert not (tmp_path / "mine.json.manifest.json").exists()


def test_patch_refuses_to_remove_a_stale_candidate_it_read(tmp_path, mined_pool, capsys):
    """A pool that bears a candidate name in --out is an input of the run:
    the removal of an earlier run's extra candidates refuses it."""
    config, pool_path = mined_pool
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    pool = out_dir / "candidate_9.diff"
    pool.write_bytes(pool_path.read_bytes())
    before = pool.read_bytes()
    assert main(["patch", "--sample", str(FIXTURES / "sample_e2e.json"), "--pool", str(pool),
                 "--provider", "gen", "--out", str(out_dir), "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: stale output {pool}: read by this run\n"
    assert pool.read_bytes() == before
    assert not (out_dir / "manifest.json").exists()


def test_runs_whose_scripts_differ_write_different_input_digests(tmp_path, mined_pool):
    """Two runs over one config file, whose script gained an answer that
    neither run reaches, write the same outputs; each manifest names the
    script that it replayed."""
    _, pool_path = mined_pool
    script = tmp_path / "gen.json"
    config = tmp_path / "gen-config.json"
    config.write_text(json.dumps({"providers": [
        {"id": "gen", "kind": "scripted", "script": "gen.json"}]}))
    answers = json.loads((FIXTURES / "scripted" / "gen.json").read_text())
    scripts = [json.dumps(answers), json.dumps([*answers, "never asked for"])]
    manifests = []
    for i, text in enumerate(scripts):
        script.write_text(text)
        out_dir = tmp_path / f"out{i}"
        assert main(["patch", "--sample", str(FIXTURES / "sample_e2e.json"),
                     "--pool", str(pool_path), "--provider", "gen", "--out", str(out_dir),
                     "--config", str(config)]) == 0
        manifests.append(json.loads((out_dir / "manifest.json").read_text()))
    assert manifests[0]["outputs"] == manifests[1]["outputs"]
    digests = [m["input_digests"] for m in manifests]
    assert digests[0]["config"] == digests[1]["config"]
    assert [d["script:gen"] for d in digests] == [
        hashlib.sha256(text.encode()).hexdigest() for text in scripts]


def test_script_that_cannot_be_read_is_named_under_its_config(tmp_path, capsys):
    """The message names the config file, the provider and the script, in
    that order, as the other errors of a config file do."""
    script = tmp_path / "absent.json"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"providers": [
        {"id": "miner", "kind": "scripted", "script": "absent.json"}]}))
    assert main(["mine", "--dataset", str(FIXTURES / "dataset.jsonl"), "--provider", "miner",
                 "--pool", str(tmp_path / "pool.jsonl"), "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"error: config file {config}: scripted provider 'miner': "
        f"script {script}: No such file or directory\n")


def test_mine_reads_only_the_provider_it_names(tmp_path):
    """An entry the run does not name is not read, checked or digested:
    a missing script of an unused ``judge`` is no error."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"providers": [
        {"id": "miner", "kind": "scripted", "script": str(FIXTURES / "scripted" / "mine.json")},
        {"id": "judge", "kind": "scripted", "script": "missing.json"}]}))
    assert main(["mine", "--dataset", str(FIXTURES / "dataset.jsonl"), "--provider", "miner",
                 "--pool", str(tmp_path / "pool.jsonl"), "--config", str(config)]) == 0
    manifest = json.loads((tmp_path / "pool.jsonl.manifest.json").read_text())
    assert sorted(manifest["input_digests"]) == ["config", "dataset", "script:miner"]


@pytest.mark.parametrize("cached", [False, True], ids=["scripted", "cached"])
def test_patch_without_validators_digests_no_validator_script(tmp_path, mined_pool, cached):
    """``patch`` builds the generator and its inner chain only."""
    _, pool_path = mined_pool
    (tmp_path / "configs").mkdir()
    config = write_config(tmp_path / "configs", cached=cached)
    out_dir = tmp_path / "out"
    assert main(["patch", "--sample", str(FIXTURES / "sample_e2e.json"), "--pool", str(pool_path),
                 "--provider", "gen", "--out", str(out_dir), "--config", str(config)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    script = "script:gen-raw" if cached else "script:gen"
    assert sorted(manifest["input_digests"]) == ["config", "pool", "sample", script]


@pytest.mark.parametrize("flags, configured", [
    (["--provider", "nope"], True),
    (["--provider", "gen", "--validators", "v1,nope"], True),
    (["--provider", "gen"], False),
], ids=["provider", "validator", "no-config"])
def test_a_provider_the_config_does_not_list_is_usage_error(tmp_path, mined_pool, capsys,
                                                            flags, configured):
    """The message lists every configured id, the entries the run does not name included."""
    config, pool_path = mined_pool
    out_dir = tmp_path / "out"
    argv = ["patch", "--sample", str(FIXTURES / "sample_e2e.json"), "--pool", str(pool_path),
            "--out", str(out_dir), *flags]
    if configured:
        expected = (f"error: config file {config}: unknown provider id 'nope'; "
                    "configured: gen, miner, v1, v2\n")
        argv += ["--config", str(config)]
    else:
        expected = "error: unknown provider id 'gen'; configured: (none configured)\n"
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == expected
    assert not out_dir.exists()


@pytest.mark.parametrize("sample_id", ["", ".", "..", "a/b", "../jsi-strcpy-zero-day"])
def test_eval_refuses_a_sample_id_that_is_not_one_path_component(tmp_path, patched_results,
                                                                  capsys, sample_id):
    """The id is refused before it is joined to --results, whether or not
    what it would name exists."""
    results, _ = patched_results
    record = json.loads((FIXTURES / "sample_e2e.json").read_text())
    gt_path = tmp_path / "odd-gt.jsonl"
    gt_path.write_text(json.dumps({**record, "id": sample_id}) + "\n")
    report = tmp_path / "report.json"
    assert main(["eval", "--results", str(results / "jsi-strcpy-zero-day"),
                 "--ground-truth", str(gt_path), "--report", str(report)]) == 2
    assert (f"ground-truth sample id {sample_id!r} is not a directory name"
            in capsys.readouterr().err)
    assert not report.exists()


# ── malformed inputs exit with a code, not a traceback ───────────────────

def test_slice_two_sources_with_one_name_is_parse_failure(tmp_path, capsys):
    for folder in ("a", "b"):
        (tmp_path / folder).mkdir()
        (tmp_path / folder / "x.c").write_text(f"int {folder}(int n){{return n;}}\n")
    code = main(["slice", "--source", str(tmp_path / "a" / "x.c"),
                 "--source", str(tmp_path / "b" / "x.c"), "--vuln", "x.c:1",
                 "--out", str(tmp_path / "s.json")])
    assert code == 1
    assert ("cannot build the dependence graph: x.c:1:1: duplicate source path: x.c"
            in capsys.readouterr().err)
    assert not (tmp_path / "s.json").exists()


def test_patch_sample_listing_one_path_twice_is_pipeline_error(tmp_path, mined_pool,
                                                               capsys):
    config, pool_path = mined_pool
    doc = json.loads((FIXTURES / "sample_e2e.json").read_text())
    doc["sources"] = doc["sources"] * 2
    sample = tmp_path / "twice.json"
    sample.write_text(json.dumps(doc))
    out_dir = tmp_path / "out-twice"
    code = main(["patch", "--sample", str(sample), "--pool", str(pool_path),
                 "--provider", "gen", "--out", str(out_dir), "--config", str(config)])
    assert code == 1
    assert "duplicate source path: jsi_like.c" in capsys.readouterr().err
    assert not out_dir.exists()


def _record_with_short_sources_entry():
    return {"id": "short", "vuln": {"lines": [["a.c", 1]], "cwes": []},
            "sources": [["a.c"]], "ground_truth_patch": ""}


@pytest.mark.parametrize("command", ["mine", "patch", "eval"])
def test_sources_entry_without_text_is_usage_error(tmp_path, mined_pool, capsys, command):
    config, pool_path = mined_pool
    record = tmp_path / "record.jsonl"
    record.write_text(json.dumps(_record_with_short_sources_entry()) + "\n")
    argv = {
        "mine": ["mine", "--dataset", str(record), "--provider", "miner",
                 "--pool", str(tmp_path / "short-pool.jsonl"), "--config", str(config)],
        "patch": ["patch", "--sample", str(record), "--pool", str(pool_path),
                  "--provider", "gen", "--out", str(tmp_path / "out-short"),
                  "--config", str(config)],
        "eval": ["eval", "--results", str(tmp_path), "--ground-truth", str(record),
                 "--report", str(tmp_path / "report-short.json")],
    }[command]
    assert main(argv) == 2
    assert "'sources' must be an array of [path, text] pairs" in capsys.readouterr().err


@pytest.mark.parametrize("source, entry, message", [
    ("int main(int n){ else n = 1; return n; }", None, "a.c:1:18: 'else' without matching 'if'"),
    ("int main(int n){ for (int i = 0, j = 0; i < n; i = i + 1) { n = n - 1; } return n; }",
     None, "a.c:1:18: unsupported construct: multiple declarators in for-init"),
    ("int g[2] = {1, 2};\nint main(int n){ return n; }", None,
     "a.c:1:12: unsupported construct: brace initializer"),
    ("int main(int n){ return n; }\nint g", None, "a.c:2:6: expected ';', found end of input"),
    ("int main(int n){ return sizeof(n; }", None, "a.c:1:36: expected ')', found end of input"),
    ("int main(int n){ return n; }", "nope", "<entry>:1:1: entry function not defined: nope"),
], ids=["else-without-if", "for-init-declarators", "global-brace-initializer",
        "global-at-end-of-input", "unterminated-sizeof", "entry-not-defined"])
def test_c_source_the_frontend_refuses_is_pipeline_error(tmp_path, capsys, source, entry,
                                                         message):
    (tmp_path / "a.c").write_text(source)
    out = tmp_path / "s.json"
    code = main(["slice", "--source", str(tmp_path / "a.c"), "--vuln", "a.c:1", "--out", str(out),
                 *(["--entry", entry] if entry else [])])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot build the dependence graph: {message}"]
    assert not out.exists() and not (tmp_path / "s.json.manifest.json").exists()


def test_slice_vuln_line_of_superscript_digits_is_usage_error(tmp_path, capsys):
    code = main(["slice", "--source", str(FIXTURES / "jsi_like.c"),
                 "--vuln", "jsi_like.c:\u00b2", "--out", str(tmp_path / "s.json")])
    assert code == 2
    assert "--vuln expects file:line, got 'jsi_like.c:\u00b2'" in capsys.readouterr().err


def _providers_as_object(doc):
    doc["providers"] = {p["id"]: p for p in doc["providers"]}


def _provider_entry_not_an_object(doc):
    doc["providers"].append("miner")


def _retired_key(key, value):
    def mutate(doc):
        doc[key] = value
    return mutate


def _miner_key(key, value):
    def mutate(doc):
        next(p for p in doc["providers"] if p["id"] == "miner")[key] = value
    return mutate


def _http_chat_key(key, value):
    """Add an http-chat provider ``chat`` with one key of the wrong type, for
    the run to name; loading the config rejects it, so no request is ever sent."""
    def mutate(doc):
        doc["providers"].append({"id": "chat", "kind": "http-chat", "model": "m",
                                 "endpoint": "http://127.0.0.1:9/v1/chat/completions",
                                 key: value})
        return "chat"
    return mutate


def _cached_key(key, value):
    """Add a cached provider ``front`` in front of ``miner`` with one key set,
    for the run to name."""
    def mutate(doc):
        entry = {"id": "front", "kind": "cached", "inner": "miner", "cache_dir": "cache/front"}
        doc["providers"].append(dict(entry, **{key: value}))
        return "front"
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (_providers_as_object, "providers must be an array of objects"),
    (_provider_entry_not_an_object, "providers must be an array of objects"),
    (_retired_key("external_functions", ["recv"]),
     "'external_functions' is no longer a config key; pass --external-functions"),
    (_retired_key("demand_rounds", 3),
     "'demand_rounds' is no longer a config key; pass --max-rounds"),
    (_miner_key("attempts", "3"), "provider 'miner': 'attempts' must be an integer"),
    (_miner_key("rpm_limit", "60"), "provider 'miner': 'rpm_limit' must be an integer"),
    (_miner_key("max_concurrency", 2.5),
     "provider 'miner': 'max_concurrency' must be an integer"),
    (_miner_key("backoff", "0.5"), "provider 'miner': 'backoff' must be a number"),
    (_http_chat_key("timeout", "soon"), "provider 'chat': 'timeout' must be a number"),
    (_http_chat_key("temperature", "hot"),
     "provider 'chat': 'temperature' must be a number"),
    (_http_chat_key("max_tokens", "many"),
     "provider 'chat': 'max_tokens' must be an integer"),
    (_http_chat_key("max_tokens", True), "provider 'chat': 'max_tokens' must be an integer"),
    (_http_chat_key("headers", ["X-Key: 1"]),
     "provider 'chat': 'headers' must be an object of strings"),
    (_http_chat_key("headers", {"X-Retries": 3}),
     "provider 'chat': 'headers' must be an object of strings"),
    (_http_chat_key("auth_env", 7), "provider 'chat': 'auth_env' must be a string"),
    (_cached_key("inner", ["x"]), "provider 'front': 'inner' must be a string"),
    (_cached_key("cache_dir", 5), "provider 'front': 'cache_dir' must be a non-empty string"),
    (_miner_key("id", ["x"]), "provider entry: 'id' must be a non-empty string"),
    (_miner_key("model", 5), "provider 'miner': 'model' must be a string"),
    (_miner_key("script", str(FIXTURES / "scripted" / "not_a_response.json")),
     "scripted provider 'miner': responses must be a JSON array "
     'of strings and {"error": string} objects'),
    (_miner_key("responses", ["a"]),
     "provider 'miner': 'responses' is no longer a config key; "
     "list the responses in a 'script' file"),
    (_miner_key("script", None), "provider 'miner': 'script' must be a non-empty string"),
    (_http_chat_key("endpoint", 5), "provider 'chat': 'endpoint' must be a non-empty string"),
    (_miner_key("attempts", 0), "provider 'miner': 'attempts' must be an integer >= 1"),
    (_miner_key("max_concurrency", -3),
     "provider 'miner': 'max_concurrency' must be an integer >= 1"),
    (_miner_key("rpm_limit", -5), "provider 'miner': 'rpm_limit' must be an integer >= 1"),
    (_miner_key("backoff", -1), "provider 'miner': 'backoff' must be a number >= 0"),
    (_http_chat_key("timeout", 0), "provider 'chat': 'timeout' must be a number > 0"),
    (_http_chat_key("max_tokens", -1),
     "provider 'chat': 'max_tokens' must be an integer >= 1"),
    (_http_chat_key("temperature", -7),
     "provider 'chat': 'temperature' must be a number >= 0"),
], ids=["providers-object", "provider-entry", "retired-external-functions", "retired-demand-rounds",
        "attempts", "rpm-limit", "max-concurrency", "backoff", "http-timeout",
        "http-temperature", "http-max-tokens", "http-max-tokens-bool", "http-headers-array",
        "http-headers-value", "http-auth-env", "cached-inner", "cached-cache-dir", "id",
        "scripted-model", "scripted-response", "scripted-responses-key", "scripted-no-script",
        "http-endpoint", "attempts-zero",
        "max-concurrency-negative", "rpm-limit-negative", "backoff-negative",
        "http-timeout-zero", "http-max-tokens-negative", "http-temperature-negative"])
def test_config_of_the_wrong_shape_is_usage_error(tmp_path, capsys, mutate, message):
    config = write_config(tmp_path)
    doc = json.loads(config.read_text())
    provider = mutate(doc) or "miner"   # the provider the mutation added, or miner
    config.write_text(json.dumps(doc))
    pool_path = tmp_path / "pool.jsonl"
    code = main(["mine", "--dataset", str(FIXTURES / "dataset.jsonl"),
                 "--provider", provider, "--pool", str(pool_path), "--config", str(config)])
    assert code == 2
    assert f"config file {config}: {message}" in capsys.readouterr().err
    assert not pool_path.exists()
    assert not (tmp_path / "pool.jsonl.manifest.json").exists()


# ── every input record: exact JSON types, errors that name file, line and field ──

def _fixture_record(**changes):
    record = json.loads((FIXTURES / "dataset.jsonl").read_text().splitlines()[0])
    record.update(changes)
    return {key: value for key, value in record.items() if value is not None}


@pytest.mark.parametrize("command", ["mine", "eval"])
def test_a_dataset_that_repeats_a_sample_id_is_usage_error_naming_the_line(
        tmp_path, patched_results, capsys, command):
    """``mine --dataset`` and ``eval --ground-truth`` read one format, and
    each refuses the line that repeats an id."""
    results, gt_path = patched_results
    lines = (FIXTURES / "dataset.jsonl").read_text().splitlines(keepends=True)
    dataset = tmp_path / "repeats.jsonl"
    dataset.write_text("".join([*lines, lines[1]]))
    out = tmp_path / "out-repeats"
    argv = {
        "mine": ["mine", "--dataset", str(dataset), "--provider", "miner",
                 "--pool", str(out / "pool.jsonl"), "--config", str(write_config(tmp_path))],
        "eval": ["eval", "--results", str(results), "--ground-truth", str(dataset),
                 "--report", str(out / "report.json")],
    }[command]
    sample_id = json.loads(lines[1])["id"]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {dataset}, line {len(lines) + 1}: duplicate sample id: {sample_id!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("record, field", [
    (_fixture_record(vuln={"lines": [["jsi_like.c", 2.7]], "cwes": []}), "vuln.lines"),
    (_fixture_record(vuln={"lines": [["jsi_like.c", True]], "cwes": []}), "vuln.lines"),
    (_fixture_record(ground_truth_patch=5), "ground_truth_patch"),
    (_fixture_record(sources=None, graph="x"), "graph"),
], ids=["line-float", "line-true", "patch-number", "graph-string"])
def test_mine_dataset_record_of_the_wrong_type_is_usage_error(tmp_path, capsys, record, field):
    dataset = tmp_path / "dataset.jsonl"
    first = (FIXTURES / "dataset.jsonl").read_text().splitlines()[1]
    dataset.write_text(first + "\n" + json.dumps(record) + "\n")
    pool_path = tmp_path / "pool.jsonl"
    code = main(["mine", "--dataset", str(dataset), "--provider", "miner",
                 "--pool", str(pool_path), "--config", str(write_config(tmp_path))])
    assert code == 2
    assert f"{dataset}, line 2: {field!r} must be" in capsys.readouterr().err
    assert not pool_path.exists()


def test_patch_sample_file_of_the_wrong_type_is_usage_error(tmp_path, mined_pool, capsys):
    config, pool_path = mined_pool
    doc = json.loads((FIXTURES / "sample_e2e.json").read_text())
    doc["ground_truth_patch"] = 5
    sample = tmp_path / "sample.json"
    sample.write_text(json.dumps(doc))
    out_dir = tmp_path / "out-typed"
    code = main(["patch", "--sample", str(sample), "--pool", str(pool_path),
                 "--provider", "gen", "--out", str(out_dir), "--config", str(config)])
    assert code == 2
    assert (f"sample file {sample}: 'ground_truth_patch' must be a string"
            in capsys.readouterr().err)
    assert not out_dir.exists()


@pytest.mark.parametrize("field, value", [
    ("root_cause", 5),
    ("cwe_ids", "CWE-1"),
])
def test_patch_pool_record_of_the_wrong_type_is_usage_error(tmp_path, mined_pool, capsys,
                                                            field, value):
    config, pool_path = mined_pool
    lines = pool_path.read_text().splitlines()
    record = json.loads(lines[1])
    record[field] = value
    lines[1] = json.dumps(record)
    pool = tmp_path / "typed-pool.jsonl"
    pool.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "out-typed"
    code = main(["patch", "--sample", str(FIXTURES / "sample_e2e.json"), "--pool", str(pool),
                 "--provider", "gen", "--out", str(out_dir), "--config", str(config)])
    assert code == 2
    assert f"{pool}, line 2: {field!r} must be" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("line, problem", [
    ("[1, 2]", "top level must be an object"),
    ('{"sample_id": "jsi-strcpy-zero-day", "ordinal": [1], "category": "SemEq"}',
     "'ordinal' must be an integer"),
    ('{"sample_id": "jsi-strcpy-zero-day", "ordinal": 1.9, "category": "SemEq"}',
     "'ordinal' must be an integer"),
    ('{"sample_id": "jsi-strcpy-zero-day", "ordinal": true, "category": "SemEq"}',
     "'ordinal' must be an integer"),
], ids=["array", "ordinal-array", "ordinal-float", "ordinal-true"])
def test_eval_label_of_the_wrong_type_is_usage_error(tmp_path, patched_results, capsys,
                                                     line, problem):
    results, gt_path = patched_results
    labels = tmp_path / "labels.jsonl"
    labels.write_text((FIXTURES / "labels.jsonl").read_text() + "\n" + line + "\n")
    report = tmp_path / "report.json"
    code = main(["eval", "--results", str(results), "--ground-truth", str(gt_path),
                 "--labels", str(labels), "--report", str(report)])
    assert code == 2
    assert f"{labels}, line 3: {problem}" in capsys.readouterr().err
    assert not report.exists()


# ── every write and every provider call, failed in turn ─────────────────

class _Faults:
    """Counts ``write_text_atomic`` and inner ``Provider.complete`` calls,
    and fails the k-th of either: a full disk, or a provider that answers
    with a non-transient error (its script moves on, as a scripted error's
    does)."""

    def __init__(self, write, complete):
        self._write, self._complete = write, complete
        self.writes = self.calls = 0
        self.write_at = self.call_at = None

    def write(self, path, text):
        self.writes += 1
        if self.writes == self.write_at:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        self._write(path, text)

    def complete(self, provider, prompt):
        exchange = self._complete(provider, prompt)
        self.calls += 1
        if self.calls == self.call_at:
            raise ProviderError("injected failure", transient=False)
        return exchange


def _committed_or_absent(manifest_path):
    """Whether ``manifest_path`` is absent, or maps every output beside it to its sha256."""
    if not manifest_path.exists():
        return True
    outputs = json.loads(manifest_path.read_text())["outputs"]
    return all(hashlib.sha256((manifest_path.parent / name).read_bytes()).hexdigest() == digest
               for name, digest in outputs.items())


# The patch fixture's provider calls in order: two root-cause rounds, one
# comparison per pool exemplar, the patch request, then each judge's five.
# A run fails at the first and third kind with the message given here.
_PATCH_CALLS = (["root-cause generation failed"] * 2 + ["comparison"] * 3
                + ["patch generation failed"] + ["judge"] * 10)


@pytest.mark.parametrize("command, writes, calls", [
    ("slice", 3, 0), ("mine", 5, 3), ("patch", 28, 16), ("eval", 3, 0),
])
def test_every_failure_point_leaves_a_committed_manifest_or_none(
        tmp_path, mined_pool, monkeypatch, capsys, command, writes, calls):
    """Each run starts with an empty cache, over a clean run's outputs and
    manifest.  A failed write exits 2 with one message; a failed provider
    call ends as its stage says.  After every run, the manifest is absent
    or commits exactly what is beside it."""
    from appatch import files, gateway

    _, pool_path = mined_pool
    config = write_config(tmp_path, cached=True)
    results = tmp_path / "results"
    gt_path = tmp_path / "gt.jsonl"
    gt_path.write_text(json.dumps(json.loads((FIXTURES / "sample_e2e.json").read_text())) + "\n")
    loc, clean = tmp_path / "out", tmp_path / "clean"
    patch = ["patch", "--sample", str(FIXTURES / "sample_e2e.json"), "--pool", str(pool_path),
             "--provider", "gen", "--validators", "v1,v2", "--config", str(config)]
    argv = {
        "slice": ["slice", "--source", str(FIXTURES / "jsi_like.c"), "--vuln", "jsi_like.c:48",
                  "--cwe", "CWE-787", "--out", str(loc / "slice.json")],
        "mine": ["mine", "--dataset", str(FIXTURES / "dataset.jsonl"), "--provider", "miner",
                 "--pool", str(loc / "pool.jsonl"), "--config", str(config)],
        "patch": [*patch, "--out", str(loc)],
        "eval": ["eval", "--results", str(results), "--ground-truth", str(gt_path),
                 "--report", str(loc / "report.json"), "--csv", str(loc / "report.csv")],
    }[command]
    manifest = loc / {"slice": "slice.json.manifest.json", "mine": "pool.jsonl.manifest.json",
                      "patch": "manifest.json", "eval": "report.json.manifest.json"}[command]
    if command == "eval":
        assert main([*patch, "--out", str(results / "jsi-strcpy-zero-day")]) == 0

    write = files.write_text_atomic
    faults = _Faults(write, gateway.Provider.complete)
    for module in [m for name, m in sys.modules.items() if name.startswith("appatch")]:
        if getattr(module, "write_text_atomic", None) is write:
            monkeypatch.setattr(module, "write_text_atomic", faults.write)
    monkeypatch.setattr(gateway.Provider, "complete",
                        lambda provider, prompt: faults.complete(provider, prompt))

    def run(write_at=None, call_at=None):
        shutil.rmtree(tmp_path / "cache", ignore_errors=True)
        shutil.rmtree(loc, ignore_errors=True)
        if clean.exists():
            shutil.copytree(clean, loc)
        faults.writes = faults.calls = 0
        faults.write_at, faults.call_at = write_at, call_at
        capsys.readouterr()
        code = main(argv)
        assert _committed_or_absent(manifest)
        assert manifest.exists() == (code == 0)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, [line for line in err.splitlines() if line.startswith("error:")]

    assert run()[0] == 0
    assert (faults.writes, faults.calls) == (writes, calls)
    shutil.copytree(loc, clean)

    for k in range(1, writes + 1):
        code, errors = run(write_at=k)
        assert code == 2 and len(errors) == 1 and os.strerror(errno.ENOSPC) in errors[0]

    for k in range(1, calls + 1):
        code, errors = run(call_at=k)
        flags = json.loads(manifest.read_text())["flags"] if code == 0 else None
        if command == "mine":
            assert code == 0 and len(flags["errors"]) == 1 and flags["mined"] == 2
            continue
        stage = _PATCH_CALLS[k - 1]
        if stage.endswith("failed"):
            assert code == 1 and errors == [f"error: {stage}: injected failure"]
        elif stage == "comparison":
            pool_ids = ["jsi-strcpy-overflow", "idx-oob-read", "null-deref-store"]
            assert code == 0 and flags["comparisons_failed"] == [pool_ids[k - 3]]
        else:
            verdicts = json.loads((loc / "verdicts.json").read_text())
            unanswered = [(v["ordinal"], judge) for v in verdicts
                          for judge, answer in v["answers"].items() if answer == "error"]
            judged = k - _PATCH_CALLS.index("judge") - 1
            assert code == 0 and unanswered == [(judged % 5 + 1, ("v1", "v2")[judged // 5])]


# ── every input, mutated at random ──────────────────────────────────────
# The mutators know JSON and text, not appatch: each run edits one input the
# way a corrupt file or a stray model answer would.

_EDIT_CHARS = "(){}[];,*&=<>+-/\\\"'#:@ \t\n\r0123456789abnxz_é\u2028\x00"
_RETYPED = [None, True, 0, -1, 2 ** 70, 1.5, "", "x", "../x", [], {}, [[]]]


def _edit_text(text, rng):
    """One to three character deletions, insertions or replacements."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(3)
        head, tail = text[:i], text[i + 1:] if op != 1 else text[i:]
        text = head + ("" if op == 0 else rng.choice(_EDIT_CHARS)) + tail
    return text


def _edit_json(doc, rng):
    """``doc`` with one key dropped, one value retyped, one array element
    duplicated or a lone surrogate put into one string, at a place picked
    uniformly over the whole tree."""
    doc = [doc]   # so the top level itself can be retyped
    spots = []

    def walk(node):
        for key in (range(len(node)) if isinstance(node, list) else list(node)):
            spots.append((node, key))
            if isinstance(node[key], (list, dict)):
                walk(node[key])

    walk(doc)
    node, key = rng.choice(spots)
    op = rng.choice(["drop", "retype", "duplicate", "surrogate"])
    if op == "drop" and isinstance(node, dict):
        del node[key]
    elif op == "duplicate" and isinstance(node, list) and node is not doc:
        node.insert(key, json.loads(json.dumps(node[key])))
    elif op == "surrogate" and isinstance(node[key], str):
        i = rng.randrange(len(node[key]) + 1)   # json.dumps writes it as a \ud800 escape
        node[key] = node[key][:i] + "\ud800" + node[key][i:]
    else:
        node[key] = rng.choice(_RETYPED)
    return doc[0]


def _edit_json_lines(text, rng):
    """A JSON-lines file edited as one array of its records."""
    records = _edit_json([json.loads(line) for line in text.splitlines() if line.strip()], rng)
    if not isinstance(records, list):
        return json.dumps(records) + "\n"
    return "".join(json.dumps(record) + "\n" for record in records)


_WALK_INPUTS = ["source", "graph", "dataset", "sample", "pool", "labels", "ground_truth",
                "answer"]


@pytest.mark.parametrize("target", _WALK_INPUTS)
def test_no_mutated_input_escapes_main(tmp_path, mined_pool, jsi_graph, capsys, target):
    """38 seeded runs per input, each over one mutated copy of it: every
    command returns 0, 1 or 2 with nothing raised out of ``main``, a
    non-zero exit prints exactly one ``error:`` line and leaves no manifest."""
    from appatch.code_model import dump_graph

    _, pool_path = mined_pool
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    config = tmp_path / "walk-config.json"
    config.write_text(json.dumps({"providers": [
        {"id": pid, "kind": "scripted", "script": f"scripts/{pid}.json"}
        for pid in ("gen", "miner", "v1", "v2")]}))
    originals = {
        "source": (FIXTURES / "jsi_like.c").read_text(),
        "graph": dump_graph(jsi_graph),
        "dataset": (FIXTURES / "dataset.jsonl").read_text(),
        "sample": (FIXTURES / "sample_e2e.json").read_text(),
        "pool": pool_path.read_text(),
        "labels": (FIXTURES / "labels.jsonl").read_text(),
        "ground_truth": json.dumps(json.loads((FIXTURES / "sample_e2e.json").read_text())) + "\n",
        **{pid: (FIXTURES / "scripted" / name).read_text()
           for pid, name in [("gen", "gen.json"), ("miner", "mine.json"),
                             ("v1", "val1.json"), ("v2", "val2.json")]},
    }
    inp, out, results = tmp_path / "in", tmp_path / "out", tmp_path / "results"
    patch = ["patch", "--sample", str(inp / "sample.json"), "--pool", str(inp / "pool.jsonl"),
             "--provider", "gen", "--validators", "v1,v2", "--config", str(config),
             "--out", str(results / "jsi-strcpy-zero-day")]
    commands = {
        "slice-source": (["slice", "--source", str(inp / "jsi_like.c"), "--vuln", "jsi_like.c:48",
                          "--cwe", "CWE-787", "--out", str(out / "slice.json")],
                         out / "slice.json.manifest.json"),
        "slice-graph": (["slice", "--graph", str(inp / "graph.json"), "--vuln", "jsi_like.c:48",
                         "--out", str(out / "slice.json")], out / "slice.json.manifest.json"),
        "mine": (["mine", "--dataset", str(inp / "dataset.jsonl"), "--provider", "miner",
                  "--config", str(config), "--pool", str(out / "pool.jsonl")],
                 out / "pool.jsonl.manifest.json"),
        "patch": (patch, results / "jsi-strcpy-zero-day" / "manifest.json"),
        "eval": (["eval", "--results", str(results), "--ground-truth", str(inp / "gt.jsonl"),
                  "--labels", str(inp / "labels.jsonl"), "--report", str(out / "report.json"),
                  "--csv", str(out / "report.csv")], out / "report.json.manifest.json"),
    }
    # each input file: its name under in/, and the commands that read it, in turn
    inputs = {"source": ("jsi_like.c", ["slice-source"]), "graph": ("graph.json", ["slice-graph"]),
              "dataset": ("dataset.jsonl", ["mine"]), "sample": ("sample.json", ["patch", "eval"]),
              "pool": ("pool.jsonl", ["patch", "eval"]), "labels": ("labels.jsonl", ["eval"]),
              "ground_truth": ("gt.jsonl", ["eval"])}

    def reset():
        for path in (inp, out, scripts):
            shutil.rmtree(path, ignore_errors=True)
            path.mkdir()
        for name, (file, _) in inputs.items():
            (inp / file).write_text(originals[name], encoding="utf-8")
        for pid in ("gen", "miner", "v1", "v2"):
            (scripts / f"{pid}.json").write_text(originals[pid])

    def run(command, seed):
        argv, manifest = commands[command]
        capsys.readouterr()
        try:
            code = main(argv)
        except Exception as exc:
            raise AssertionError(f"{target} seed {seed}: {command} raised {exc!r}") from exc
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert code in (0, 1, 2), (target, seed, command, code)
        assert len(errors) == (code != 0), (target, seed, command, errors)
        assert manifest.exists() == (code == 0), (target, seed, command, code)
        return code

    reset()
    assert run("patch", "clean") == 0
    for seed in range(38):
        rng = random.Random(f"{target}:{seed}")
        reset()
        if target == "answer":
            pid = rng.choice(["miner", "gen"])
            answers = json.loads(originals[pid])
            i = rng.randrange(len(answers))
            answers[i] = _edit_text(answers[i], rng)
            (scripts / f"{pid}.json").write_text(json.dumps(answers))
            chain = ["mine"] if pid == "miner" else ["patch", "eval"]
        else:
            file, chain = inputs[target]
            path = inp / file
            if target == "source":
                path.write_text(_edit_text(originals[target], rng), encoding="utf-8")
            elif path.suffix == ".jsonl":
                path.write_text(_edit_json_lines(originals[target], rng))
            else:
                path.write_text(json.dumps(_edit_json(json.loads(originals[target]), rng)))
        for command in chain:
            if run(command, seed) != 0:
                break
