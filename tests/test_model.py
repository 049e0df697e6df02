"""Lookup indexes of the code model: same answers as a scan, built once."""

from __future__ import annotations

import pytest

from appatch.code_model import build_sdg, parse_program
from appatch.code_model.model import (
    DependenceGraph,
    FunctionDef,
    Program,
    StatementNode,
    infer_entry_function,
)


def _node(node_id: str, line: int) -> StatementNode:
    return StatementNode(id=node_id, file="m.c", function="f", line=line,
                         text=node_id, kind="assign")


def test_nodes_at_orders_by_column_and_misses_empty_lines():
    # inserted out of order; "15" sorts before "2" as a string
    nodes = [_node("m.c:3:9", 3), _node("m.c:3:15", 3), _node("m.c:3:2", 3),
             _node("m.c:1:1", 1)]
    graph = DependenceGraph(nodes={n.id: n for n in nodes}, edges=frozenset())
    assert graph.nodes_at("m.c", 3) == ["m.c:3:2", "m.c:3:9", "m.c:3:15"]
    assert graph.nodes_at("m.c", 1) == ["m.c:1:1"]
    assert graph.nodes_at("m.c", 2) == []
    assert graph.nodes_at("other.c", 3) == []
    assert graph.sorted_node_ids() == ["m.c:1:1", "m.c:3:2", "m.c:3:9", "m.c:3:15"]


def _function(name: str, callees, start: int) -> FunctionDef:
    return FunctionDef(
        name=name, file="p.c", nodes=(),
        callsites=tuple((callee, f"p.c:{start}:{i + 1}") for i, callee in enumerate(callees)),
        start_line=start, end_line=start,
    )


def _program() -> Program:
    return Program(
        files=(("p.c", "int zeta;\nint alpha;\nint mid;\nint target;\n"),),
        functions=(
            _function("zeta", ["target", "mid", "target"], 1),
            _function("alpha", ["target"], 2),
            _function("mid", [], 3),
            _function("target", [], 4),
        ),
    )


def test_entry_inference_main_else_the_one_uncalled_function():
    functions = _program().functions
    assert infer_entry_function(functions) is None          # zeta and alpha
    assert infer_entry_function(functions[:1] + functions[2:]) == "zeta"
    recursive = _function("zeta", ["zeta", "mid", "target"], 1)
    assert infer_entry_function((recursive,) + functions[2:]) is None
    assert infer_entry_function(functions + (_function("main", [], 5),)) == "main"


def test_callers_of_in_definition_order_without_duplicates():
    program = _program()
    assert program.callers_of("target") == ("zeta", "alpha")
    assert program.callers_of("mid") == ("zeta",)
    assert program.callers_of("unknown") == ()
    assert program.callers_of("zeta") == ()


def test_source_line_bounds():
    program = _program()
    assert program.source_line("p.c", 1) == "int zeta;"
    assert program.source_line("p.c", 4) == "int target;"
    assert program.source_line("p.c", 5) == ""      # after the final newline
    assert program.source_line("p.c", 0) is None
    assert program.source_line("p.c", 6) is None
    assert program.source_line("missing.c", 1) is None


def test_function_lookup_raises_key_error():
    program = _program()
    assert program.function("alpha").start_line == 2
    with pytest.raises(KeyError):
        program.function("nope")


def test_function_past_end_of_file_rejected():
    with pytest.raises(ValueError):
        Program(files=(("p.c", "int x;"),), functions=(_function("f", [], 2),))


def test_two_parses_compare_equal(jsi_source):
    first = parse_program([("jsi_like.c", jsi_source)])
    second = parse_program([("jsi_like.c", jsi_source)])
    assert first == second
    assert build_sdg(first) == build_sdg(second)
