"""Lookup indexes and walks of the code model: same answers as a scan, built once."""

from __future__ import annotations

import random
import re
import time
from pathlib import Path

import pytest

import appatch
from appatch.code_model import build_sdg, identify_external_inputs, import_graph, parse_program
from appatch.code_model.model import (
    DependenceGraph,
    FunctionDef,
    Program,
    StatementNode,
    infer_entry_function,
)
from appatch.scoping import VulnSpec, vulnerability_semantics

from oracles import random_dag


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


# A line that holds n nodes may cost at most this many times what the same
# nodes cost one per line.  The two cost about the same; a scan of the line
# per node would make the crowded line 10-15 times dearer at these sizes.
CROWDED_LINE_COST_BOUND = 4


def _assert_crowding_costs_little(crowded, spread):
    """Best CPU time of three runs each, taken in turn so a slow spell hits both."""
    best = {crowded: float("inf"), spread: float("inf")}
    for _ in range(3):
        for work in best:
            start = time.process_time()
            work()
            best[work] = min(best[work], time.process_time() - start)
    assert best[crowded] <= CROWDED_LINE_COST_BOUND * best[spread]


def _interchange(ids, lines):
    return {"nodes": [{"id": nid, "file": "x.c", "function": "f", "line": line,
                       "text": "x = 1;", "kind": "assign"} for nid, line in zip(ids, lines)],
            "edges": []}


def test_nodes_sharing_a_line_keep_column_order_then_document_order():
    """Ids with a column among ids without one (column 0), many ties, one line.

    Importing and sorting them costs about what it costs one node a line.
    """
    rng = random.Random(21)
    columns = {}
    for i in range(4000):
        column = rng.randrange(50)
        spelling = rng.randrange(3)
        if spelling == 0:
            columns[f"x.c:s{i}:{column}"] = column
        else:
            columns[f"x.c:f:s{i}" if spelling == 1 else f"entry{i}"] = 0
    ids = list(columns)                       # document order
    position = {nid: i for i, nid in enumerate(ids)}
    expected = sorted(ids, key=lambda nid: (columns[nid], position[nid]))
    _, graph = import_graph(_interchange(ids + ["x.c:9:1"], [1] * len(ids) + [2]))
    assert graph.nodes_at("x.c", 1) == expected
    assert graph.sorted_node_ids() == expected + ["x.c:9:1"]
    shuffled = rng.sample(ids, len(ids))
    assert sorted(shuffled + ["x.c:9:1"], key=graph.sort_key) == expected + ["x.c:9:1"]

    def import_and_sort(lines):
        document = _interchange(ids, lines)
        return lambda: sorted(shuffled, key=import_graph(document)[1].sort_key)

    _assert_crowding_costs_little(import_and_sort([1] * len(ids)),
                                  import_and_sort(range(1, len(ids) + 1)))


def _one_function(separator: str):
    """6,000 statements, every hundredth a ``recv``, joined by ``separator``."""
    statements = ["x = recv(n, 1);" if i % 100 == 0 else "x = x + 1;" for i in range(6000)]
    text = "int main(int n){" + separator.join(["int x;"] + statements + ["return x;"]) + "}\n"
    return parse_program([("a.c", text)]), text.count("\n")


def _slice_every_line(program, lines):
    graph = build_sdg(program)
    spec = VulnSpec(tuple(("a.c", line) for line in range(1, lines + 1)), ())
    return graph, vulnerability_semantics(graph, spec, identify_external_inputs(program, graph))


def test_a_one_line_program_slices_in_parse_order():
    """``slice.json``'s node, SV and EI lists follow the parser's statement order.

    Slicing it costs about what the same statements cost one a line.
    """
    crowded, spread = _one_function(" "), _one_function("\n")
    graph, result = _slice_every_line(*crowded)
    in_parse_order = [node.id for node in crowded[0].function("main").nodes]
    document = result.to_document(graph)
    assert document["nodes"] == document["sv"] == in_parse_order
    assert document["ei"] == [nid for nid in in_parse_order if nid in result.ei_ids]
    assert len(document["nodes"]) == 6004 and len(document["ei"]) == 61   # n and 60 recvs

    def slice_and_write(program, lines):
        def work():
            graph, result = _slice_every_line(program, lines)
            result.to_document(graph)
        return work

    _assert_crowding_costs_little(slice_and_write(*crowded), slice_and_write(*spread))


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


def _closure(graph: DependenceGraph, starts, forward: bool):
    """Grow ``starts`` over ``graph.edges`` until no edge adds a node."""
    seen = set(starts)
    grew = True
    while grew:
        grew = False
        for src, dst, _kind in graph.edges:
            near, far = (src, dst) if forward else (dst, src)
            if near in seen and far not in seen:
                seen.add(far)
                grew = True
    return seen


def _assert_walks_match_the_closure(graph: DependenceGraph, start_sets):
    for starts in start_sets:
        assert graph.forward(starts) == _closure(graph, starts, forward=True)
        assert graph.backward(starts) == _closure(graph, starts, forward=False)


@pytest.mark.parametrize("name", ["idx_read.c", "jsi_like.c", "null_use.c"])
def test_walks_match_a_closure_over_the_edges_on_the_fixtures(fixtures_dir, name):
    graph = build_sdg(parse_program([(name, (fixtures_dir / name).read_text(encoding="utf-8"))]))
    ids = sorted(graph.nodes)
    rng = random.Random(name)
    _assert_walks_match_the_closure(
        graph, [[nid] for nid in ids] + [rng.sample(ids, 3) for _ in range(20)] + [[], ids],
    )


def test_walks_match_a_closure_over_the_edges_on_random_graphs():
    rng = random.Random(20261019)
    for _ in range(100):
        graph, sv_ids, ei_ids = random_dag(rng)
        _assert_walks_match_the_closure(graph, [sv_ids, ei_ids, sv_ids | ei_ids])


def test_walks_keep_their_starts_and_follow_cycles():
    nodes = [_node(f"m.c:{i}:1", i) for i in (1, 2, 3)]
    edges = {("m.c:1:1", "m.c:2:1", "data"), ("m.c:2:1", "m.c:1:1", "control")}
    graph = DependenceGraph(nodes={n.id: n for n in nodes}, edges=frozenset(edges))
    assert graph.forward(["m.c:1:1"]) == graph.backward(["m.c:2:1"]) == {"m.c:1:1", "m.c:2:1"}
    assert graph.forward(["m.c:3:1"]) == graph.backward(["m.c:3:1"]) == {"m.c:3:1"}
    assert graph.forward([]) == graph.backward([]) == set()


def test_only_the_model_reads_the_graph_indexes():
    """Every walk over the adjacency goes through ``forward`` / ``backward``."""
    package = Path(appatch.__file__).parent
    readers = [
        str(path.relative_to(package)) for path in sorted(package.rglob("*.py"))
        if path != package / "code_model" / "model.py"
        and re.search(r"\._(?:succ|pred|at|place)\b", path.read_text(encoding="utf-8"))
    ]
    assert readers == []
