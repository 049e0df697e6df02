"""The code model's bytes on one benchmark program, pinned.

A 2,000-line program from the benchmark's generator (``bench/programs.py``)
is lexed, parsed and built into a dependence graph; the sha256 of its token
stream and of its interchange JSON must not move.  Any change to the lexer,
parser or dataflow that alters a token, a node or an edge fails here.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import programs  # noqa: E402  (bench/programs.py)

from appatch.code_model import build_sdg, dump_graph, parse_program  # noqa: E402
from appatch.code_model.parser import tokenize  # noqa: E402

TOKENS_SHA256 = "b4867fd07fc13b6dfde1a9a404450b9f117c22f94a6d92e1c3c5e099bf4b7add"
GRAPH_SHA256 = "863fe69f2894368eac848f508d2cd72e2851f35db269cc9ef035bd315f5cf54a"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _benchmark_program():
    return programs.make_program(random.Random("large:1"), "t000",
                                 programs.Shape(2000, 3, 7))


def test_benchmark_program_token_stream_is_pinned():
    program = _benchmark_program()
    tokens = tokenize(program.file, program.text)
    stream = json.dumps([[t.kind, t.value, t.line, t.col, t.start, t.end]
                         for t in tokens])
    assert len(tokens) == 10469
    assert _sha256(stream) == TOKENS_SHA256


def test_benchmark_program_graph_bytes_are_pinned():
    program = _benchmark_program()
    graph = build_sdg(parse_program([(program.file, program.text)]))
    assert _sha256(dump_graph(graph)) == GRAPH_SHA256
