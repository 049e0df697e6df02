"""The code model's bytes on one benchmark program, pinned.

A 2,000-line program from the benchmark's generator (``bench/programs.py``)
is lexed, parsed and built into a dependence graph; the sha256 of its token
stream and of its interchange JSON must not move.  Any change to the lexer,
parser or dataflow that alters a token, a node or an edge fails here.  The
flow facts the interchange JSON does not carry (defs, uses, calls, returns,
callsites) are pinned over the same program plus the three fixtures, and a
table pins them for the expression forms that are easy to get wrong.  Each
function's control-flow graph and branch scopes, which the graph shows only
through its edges, are pinned over the same four programs.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import programs  # noqa: E402  (bench/programs.py)
import pytest  # noqa: E402

from appatch.code_model import (  # noqa: E402
    UnsupportedConstructError,
    build_sdg,
    dump_graph,
    parse_program,
)
from oracles import tokenize  # noqa: E402
from test_sdg import successors_by_id  # noqa: E402

TOKENS_SHA256 = "b4867fd07fc13b6dfde1a9a404450b9f117c22f94a6d92e1c3c5e099bf4b7add"
GRAPH_SHA256 = "863fe69f2894368eac848f508d2cd72e2851f35db269cc9ef035bd315f5cf54a"
FLOW_FACTS_SHA256 = "7156e2fa8a321c38e87d8827fc2ae01ce225b8da8c3c6dea9cb9f078d4557cbc"
CFG_SHA256 = "9c21ff35e4de723c10f5e2f74c49c4026216d962f483f77ca9bd9667e8315f6d"


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


def _flow_facts(sources):
    """Per function: its callsites, then every node's flow facts in source order."""
    program = parse_program(sources)
    facts = [["callsites", fn.name, [list(site) for site in fn.callsites]]
             for fn in program.functions]
    for fn in program.functions:
        for info in fn.nodes:
            facts.append([
                info.id, info.kind, sorted(info.defs), sorted(info.uses),
                [[callee, [sorted(used) for used in args]] for callee, args in info.calls],
                info.kind == "return",
            ])
    return facts


def test_flow_facts_of_fixtures_and_benchmark_program_are_pinned(fixtures_dir):
    program = _benchmark_program()
    facts = [_flow_facts([(name, (fixtures_dir / name).read_text(encoding="utf-8"))])
             for name in ("idx_read.c", "jsi_like.c", "null_use.c")]
    facts.append(_flow_facts([(program.file, program.text)]))
    assert sum(len(f) for f in facts) == 1980
    assert _sha256(json.dumps(facts)) == FLOW_FACTS_SHA256


def _cfg(sources):
    """Per function: its CFG successors and its branch scopes by node id,
    keys and values sorted."""
    cfgs = []
    for fn in parse_program(sources).functions:
        ids = [node.id for node in fn.nodes]
        cfgs.append([
            fn.name,
            sorted([nid, sorted(targets)] for nid, targets in successors_by_id(fn).items()),
            sorted([ids[header], sorted(ids[start:end])]
                   for header, start, end in fn.control_scopes),
        ])
    return cfgs


def test_cfg_and_scopes_of_fixtures_and_benchmark_program_are_pinned(fixtures_dir):
    program = _benchmark_program()
    cfgs = [_cfg([(name, (fixtures_dir / name).read_text(encoding="utf-8"))])
            for name in ("idx_read.c", "jsi_like.c", "null_use.c")]
    cfgs.append(_cfg([(program.file, program.text)]))
    assert sum(len(fn[1]) + len(fn[2]) for c in cfgs for fn in c) == 2211
    assert _sha256(json.dumps(cfgs)) == CFG_SHA256


def _statement_facts(statement):
    source = f"int t(int a, int i, int *p, int x){{\n{statement}\nreturn 0;}}\n"
    (fn,) = parse_program([("e.c", source)]).functions
    info = next(n for n in fn.nodes if n.line == 2)
    calls = [(callee, [sorted(used) for used in args]) for callee, args in info.calls]
    return info.kind, sorted(info.defs), sorted(info.uses), calls


@pytest.mark.parametrize("statement,kind,defs,uses,calls", [
    # a callee is never a use, parenthesised or not; its plain reads are
    ("(f)(x);", "call", [], ["x"], [("f", [["x"]])]),
    ("a = f + f(x);", "assign", ["a"], ["f", "x"], [("f", [["x"]])]),
    # calls in pre-order, each with its own arguments' uses
    ("x = f(g(i), h(x + a));", "assign", ["x"], ["a", "i", "x"],
     [("f", [["i"], ["a", "x"]]), ("g", [["i"]]), ("h", [["a", "x"]])]),
    ("x = sizeof(a) + sizeof(int);", "assign", ["x"], ["a"], []),
    ("x = (char *)p;", "assign", ["x"], ["p"], []),
    ("x = &a[i];", "assign", ["x"], ["a", "i"], []),
    # writes through a pointer or into a cell also read the root
    ("*p = x;", "assign", ["p"], ["p", "x"], []),
    ("(*p)[i] = x;", "assign", ["p"], ["i", "p", "x"], []),
    ("(x) = 1;", "assign", ["x"], [], []),
    ("x += i;", "assign", ["x"], ["i", "x"], []),
    ("x++;", "assign", ["x"], ["x"], []),
    ("--x;", "assign", ["x"], ["x"], []),
    ("if (!f(x)) x = 0;", "branch", [], ["x"], [("f", [["x"]])]),
    # an array size is read; inside sizeof(...) a callee is still no use
    ("int y[f(i)], z = g(a);", "decl", ["y"], ["i"], [("f", [["i"]])]),
    ("int x = sizeof(f(n));", "decl", ["x"], ["n"], []),
])
def test_expression_flow_facts(statement, kind, defs, uses, calls):
    assert _statement_facts(statement) == (kind, defs, uses, calls)


@pytest.mark.parametrize("statement,col,construct", [
    ("f(x) = 1;", 1, "assignment target"),
    ("-x = 1;", 1, "assignment target"),
    ("(x + 1) = 2;", 1, "assignment target"),
    ("*(p + 1) = 0;", 1, "assignment target"),
    ("(int)x = 1;", 1, "assignment target"),
    ("f(x)[i] = 1;", 1, "assignment target"),
    ("(*p)++;", 1, "increment of a non-variable"),
    ("x;", 1, "expression statement"),
    ("x = (*p)(1);", 9, "function-pointer call"),
    ("x = f(1)(2);", 9, "function-pointer call"),
    ("x = (a = 1);", 8, "nested assignment"),
])
def test_unsupported_expressions_name_the_construct(statement, col, construct):
    with pytest.raises(UnsupportedConstructError) as err:
        _statement_facts(statement)
    assert str(err.value) == f"e.c:2:{col}: unsupported construct: {construct}"
