import ast
import copy
import json
import os
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import appatch
from appatch.evaluation import EvaluationError, load_labels
from appatch.exemplars import DatasetError, DatasetSample, build_pool, load_dataset, load_pool
from appatch.files import json_object, write_text_atomic
from appatch.gateway import CachedProvider, ConfigurationError, exchange_digest

from conftest import load_script, scripted

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_new_file_mode_follows_the_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_text_atomic(tmp_path / "out" / "a.json", "{}\r\n")
    finally:
        os.umask(old)
    path = tmp_path / "out" / "a.json"
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask
    assert path.read_bytes() == b"{}\r\n"
    assert [p.name for p in path.parent.iterdir()] == ["a.json"]



def test_only_files_reads_a_file():
    """Every input is read through ``files.read_input``, the one decode and error path."""
    package = Path(appatch.__file__).parent
    readers = [
        str(path.relative_to(package)) for path in sorted(package.rglob("*.py"))
        if path != package / "files.py"
        and re.search(r"\b(?:read_text|read_bytes|open)\(", path.read_text(encoding="utf-8"))
    ]
    assert readers == []


@pytest.mark.parametrize("primitive", ["write_text_atomic", "read_input"])
def test_only_the_run_record_writes_an_output(primitive):
    """Every output goes through ``cli._Run``, whose manifest commits it, and
    so does every input, the config and provider scripts included; the cache
    reads and writes its own entries, which belong to its store, not to a run."""
    package = Path(appatch.__file__).parent
    owner = {"cli.py": "_Run", "gateway.py": "CachedProvider"}
    callers = []
    for path in sorted(package.rglob("*.py")):
        name = str(path.relative_to(package))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = [range(node.lineno, node.end_lineno + 1) for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == owner.get(name)]
        callers += [
            f"{name}:{node.lineno}" for node in ast.walk(tree)
            if primitive in (getattr(node, "id", None), getattr(node, "attr", None))
            and name != "files.py" and not any(node.lineno in lines for lines in allowed)
        ]
    assert callers == []


# ── every record reader: returns, or raises its own error class ─────────

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


def _field_paths(value, prefix=()):
    """The path of every field of a JSON value, nested ones included."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


def _with(record, path, value):
    changed = copy.deepcopy(record)
    target = changed
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return changed


def _dataset_line(text):
    load_dataset(text, "dataset.jsonl")


def _sample_file(text):
    where = "sample file sample.json"
    DatasetSample.from_document(json_object(text, where, DatasetError), where).check_patch_applies()


def _pool_line(text):
    load_pool(text, "pool.jsonl")


def _labels_line(text):
    load_labels(text, "labels.jsonl")


def _cache_entry(text, cache_dir):
    inner = scripted([])
    digest = exchange_digest(inner.id, inner.model, "the prompt")
    entry = cache_dir / digest[:2] / f"{digest}.json"
    entry.parent.mkdir(parents=True, exist_ok=True)
    entry.write_text(text)
    CachedProvider("c", inner, cache_dir).complete("the prompt")


def _mined_pool_line():
    path = FIXTURES / "dataset.jsonl"
    pool, _, _ = build_pool(load_dataset(path.read_text(encoding="utf-8"), path),
                            scripted(load_script("mine.json")))
    return next(iter(pool)).to_document()


def _cache_record():
    return {"provider_id": "scripted", "model": "scripted", "prompt": "the prompt",
            "response": "an answer", "prompt_digest": "0" * 64,
            "input_tokens": 2, "output_tokens": 2, "estimated": True}


RECORDS = {
    "dataset": (lambda: json.loads((FIXTURES / "dataset.jsonl").read_text().splitlines()[0]),
                _dataset_line, DatasetError),
    "sample": (lambda: json.loads((FIXTURES / "sample_e2e.json").read_text()),
               _sample_file, DatasetError),
    "pool": (_mined_pool_line, _pool_line, DatasetError),
    "labels": (lambda: json.loads((FIXTURES / "labels.jsonl").read_text().splitlines()[0]),
               _labels_line, EvaluationError),
    "cache": (_cache_record, _cache_entry, ConfigurationError),
}


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_a_field_of_any_json_value_is_read_or_refused_by_its_error_class(kind, tmp_path):
    make_record, read, error = RECORDS[kind]
    record = make_record()
    read_text = (lambda text: read(text, tmp_path / "cache")) if kind == "cache" else read
    read_text(json.dumps(record) + "\n")   # the record as it stands is read
    paths = list(_field_paths(record))

    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(path=st.sampled_from(paths), value=JSON_VALUES)
    def replace_one_field(path, value):
        try:
            read_text(json.dumps(_with(record, path, value)) + "\n")
        except error:
            pass

    replace_one_field()
