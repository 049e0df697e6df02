from __future__ import annotations

import json
from pathlib import Path

import pytest

from appatch.code_model import build_sdg, identify_external_inputs, parse_program
from appatch.diffs import apply_patch
from appatch.evaluation import normalize_code
from appatch.gateway import HttpChatProvider, Provider, ScriptedProvider

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def jsi_source() -> str:
    return (FIXTURES / "jsi_like.c").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def jsi_program(jsi_source):
    return parse_program([("jsi_like.c", jsi_source)])


@pytest.fixture(scope="session")
def jsi_graph(jsi_program):
    return build_sdg(jsi_program)


@pytest.fixture(scope="session")
def jsi_ei(jsi_program, jsi_graph):
    return identify_external_inputs(jsi_program, jsi_graph)


@pytest.fixture
def graph_without_columns():
    """Interchange document whose ids carry no ``:col``; two share line 1."""
    def node(nid, line, text, kind):
        return {"id": nid, "file": "x.c", "function": "f", "line": line,
                "text": text, "kind": kind}

    return {
        "nodes": [
            node("x.c:f:p0", 1, "int n", "param-def"),
            node("x.c:f:entry", 1, "int f(int n)", "entry"),
            node("x.c:f:s1", 2, "buf = malloc(n)", "assign"),
            node("x.c:f:s2", 3, "buf[n] = 0", "assign"),
        ],
        "edges": [
            {"src": "x.c:f:p0", "dst": "x.c:f:s1", "kind": "data"},
            {"src": "x.c:f:s1", "dst": "x.c:f:s2", "kind": "data"},
            {"src": "x.c:f:p0", "dst": "x.c:f:s2", "kind": "data"},
        ],
    }


@pytest.fixture
def unauthorised(monkeypatch):
    """An http-chat provider whose auth variable is unset: it raises
    ``ConfigurationError`` while building its headers, before any request."""
    monkeypatch.delenv("APPATCH_TEST_UNSET_KEY", raising=False)
    return HttpChatProvider("remote", "m", "http://127.0.0.1:9/v1/chat/completions",
                            auth_env="APPATCH_TEST_UNSET_KEY", backoff=0.0)


def scripted(responses, provider_id="scripted", **kwargs):
    kwargs.setdefault("backoff", 0.0)
    return ScriptedProvider(provider_id, responses, **kwargs)


class FixedProvider(Provider):
    """Answers every prompt with one response, whatever the call order."""

    def __init__(self, response: str, provider_id: str = "fixed"):
        super().__init__(provider_id, "fixed", backoff=0.0)
        self.response = response

    def _fetch(self, prompt):
        return self.response, None, None


def syneq_truth(sources, ground_truth_diff):
    """The ``truth`` that ``classify_syneq`` takes: every file the patch yields, normalised."""
    return {path: normalize_code(text)
            for path, text in apply_patch(sources, ground_truth_diff).items()}


def load_script(name: str):
    return json.loads((FIXTURES / "scripted" / name).read_text(encoding="utf-8"))
