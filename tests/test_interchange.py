import hashlib
import json
import random

import pytest

from appatch.code_model import (
    GraphFormatError,
    build_sdg,
    dump_graph,
    export_graph,
    identify_external_inputs,
    import_graph,
    parse_program,
)
from test_graph_pin import _benchmark_program, programs  # programs is bench/programs.py


def test_export_then_import_round_trip(jsi_program, jsi_graph):
    document = export_graph(jsi_graph)
    program, graph = import_graph(document)
    assert set(graph.nodes) == set(jsi_graph.nodes)
    assert graph.edges == jsi_graph.edges
    for nid, node in jsi_graph.nodes.items():
        back = graph.node(nid)
        assert (back.file, back.function, back.line, back.text, back.kind) == (
            node.file, node.function, node.line, node.text, node.kind,
        )
    # reconstructed program keeps function names and the entry root
    assert {fn.name for fn in program.functions} == {fn.name for fn in jsi_program.functions}
    assert program.entry_function == "format_value"


def test_import_then_export_is_identity_on_canonical_documents(jsi_graph):
    text = dump_graph(jsi_graph)
    _, graph = import_graph(text)
    assert dump_graph(graph) == text


def test_dangling_edge_rejected(jsi_graph):
    document = export_graph(jsi_graph)
    document["edges"].append({"src": "nowhere:1:1", "dst": document["nodes"][0]["id"],
                              "kind": "data"})
    with pytest.raises(GraphFormatError) as err:
        import_graph(document)
    assert "dangling" in str(err.value)
    assert err.value.json_path.endswith(".src")


@pytest.mark.parametrize("mutate,path_suffix", [
    (lambda d: d.pop("nodes"), "$.nodes"),
    (lambda d: d["nodes"][0].pop("line"), ".line"),
    (lambda d: d["nodes"][0].update(line="48"), ".line"),
    (lambda d: d["nodes"][0].update(line=0), ".line"),
    (lambda d: d["nodes"][0].update(kind="jump"), ".kind"),
    (lambda d: d["edges"][0].update(kind="returns"), ".kind"),
    (lambda d: d["nodes"].append(dict(d["nodes"][0])), ".id"),
])
def test_schema_violations_name_the_field(jsi_graph, mutate, path_suffix):
    document = json.loads(dump_graph(jsi_graph))
    mutate(document)
    with pytest.raises(GraphFormatError) as err:
        import_graph(document)
    assert err.value.json_path.endswith(path_suffix)


def _parity_document():
    def node(nid, line, text, kind):
        return {"id": nid, "file": "a.c", "function": "f", "line": line,
                "text": text, "kind": kind}

    return {
        "nodes": [
            node("a.c:1:1", 1, "int f(int n)", "entry"),
            node("a.c:1:7", 1, "int n", "param-def"),
            node("a.c:2:3", 2, "n = n + 1", "assign"),
        ],
        "edges": [
            {"src": "a.c:1:7", "dst": "a.c:2:3", "kind": "data"},
            {"src": "a.c:1:1", "dst": "a.c:2:3", "kind": "control"},
        ],
    }


NODE_KINDS = "assign, call, branch, loop-header, return, decl, param-def, entry"
EDGE_KINDS = "data|control|call|param"


def _at(document, where):
    for key in where:
        document = document[key]
    return document


def _set(key, value, where=("nodes", 1)):
    return lambda d: _at(d, where).__setitem__(key, value)


def _drop(key, where=("nodes", 1)):
    return lambda d: _at(d, where).pop(key) and None


def _both(*mutations):
    return lambda d: [m(d) for m in mutations] and None


@pytest.mark.parametrize("mutate,path,message", [
    # the document (a mutation that returns a value replaces it)
    (lambda d: [d], "$", "expected an object"),
    (_drop("nodes", ()), "$.nodes", "missing required field"),
    (_set("nodes", {}, ()), "$.nodes", "expected an array"),
    (_drop("edges", ()), "$.edges", "missing required field"),
    (_set("edges", "[]", ()), "$.edges", "expected an array"),
    # both arrays are checked before any node
    (_both(_set("nodes", [1], ()), _set("edges", None, ())), "$.edges", "expected an array"),
    # a node
    (_set(1, ["a.c:1:7"], ("nodes",)), "$.nodes[1]", "expected an object"),
    (_drop("id"), "$.nodes[1].id", "missing required field"),
    (_set("id", 7), "$.nodes[1].id", "expected a string"),
    (_drop("file"), "$.nodes[1].file", "missing required field"),
    (_set("file", None), "$.nodes[1].file", "expected a string"),
    (_drop("function"), "$.nodes[1].function", "missing required field"),
    (_set("function", ["f"]), "$.nodes[1].function", "expected a string"),
    (_drop("line"), "$.nodes[1].line", "missing required field"),
    (_set("line", "1"), "$.nodes[1].line", "expected an integer"),
    (_set("line", 1.0), "$.nodes[1].line", "expected an integer"),
    (_set("line", True), "$.nodes[1].line", "expected an integer"),
    (_set("line", 0), "$.nodes[1].line", "line must be >= 1"),
    (_set("line", -3), "$.nodes[1].line", "line must be >= 1"),
    (_set("line", 1_000_001), "$.nodes[1].line", "line must be <= 1000000"),
    (_drop("text"), "$.nodes[1].text", "missing required field"),
    (_set("text", 1), "$.nodes[1].text", "expected a string"),
    (_drop("kind"), "$.nodes[1].kind", "missing required field"),
    (_set("kind", False), "$.nodes[1].kind", "expected a string"),
    (_set("kind", "jump"), "$.nodes[1].kind", f"kind must be one of {NODE_KINDS}"),
    (_set("id", "a.c:1:1"), "$.nodes[1].id", "duplicate node id 'a.c:1:1'"),
    # an edge
    (_set(0, None, ("edges",)), "$.edges[0]", "expected an object"),
    (_drop("src", ("edges", 0)), "$.edges[0].src", "missing required field"),
    (_set("src", 1, ("edges", 0)), "$.edges[0].src", "expected a string"),
    (_drop("dst", ("edges", 0)), "$.edges[0].dst", "missing required field"),
    (_set("dst", {}, ("edges", 0)), "$.edges[0].dst", "expected a string"),
    (_drop("kind", ("edges", 0)), "$.edges[0].kind", "missing required field"),
    (_set("kind", 2, ("edges", 0)), "$.edges[0].kind", "expected a string"),
    (_set("kind", "returns", ("edges", 0)), "$.edges[0].kind",
     f"kind must be one of {EDGE_KINDS}"),
    (_set("src", "nowhere:1:1", ("edges", 0)), "$.edges[0].src",
     "dangling edge: unknown node 'nowhere:1:1'"),
    (_set("dst", "nowhere:2:2", ("edges", 0)), "$.edges[0].dst",
     "dangling edge: unknown node 'nowhere:2:2'"),
    # precedence: the first bad record, then the earlier field, nodes before edges
    (_both(_set("line", 0, ("nodes", 2)), _set("kind", "x")),
     "$.nodes[1].kind", f"kind must be one of {NODE_KINDS}"),
    (_both(_set("kind", "x"), _set("line", 0)), "$.nodes[1].line", "line must be >= 1"),
    (_both(_drop("kind"), _drop("file")), "$.nodes[1].file", "missing required field"),
    (_both(_set("id", "a.c:1:1"), _drop("file")), "$.nodes[1].id",
     "duplicate node id 'a.c:1:1'"),
    (_both(_set("kind", "x", ("edges", 0)), _set("line", 0, ("nodes", 2))),
     "$.nodes[2].line", "line must be >= 1"),
    (_both(_set("kind", "x", ("edges", 1)), _set("src", "gone", ("edges", 0))),
     "$.edges[0].src", "dangling edge: unknown node 'gone'"),
    (_both(_set("src", "gone", ("edges", 0)), _set("kind", "x", ("edges", 0))),
     "$.edges[0].kind", f"kind must be one of {EDGE_KINDS}"),
    (_both(_set("src", "gone", ("edges", 0)), _set("dst", "gone", ("edges", 0))),
     "$.edges[0].src", "dangling edge: unknown node 'gone'"),
])
def test_schema_violations_give_the_exact_message_and_path(mutate, path, message):
    document = _parity_document()
    replaced = mutate(document)
    with pytest.raises(GraphFormatError) as err:
        import_graph(document if replaced is None else replaced)
    assert (err.value.json_path, err.value.message) == (path, message)
    assert str(err.value) == f"{path}: {message}"


def test_valid_records_take_no_error_path(jsi_graph, monkeypatch):
    from appatch.code_model import interchange

    fields = []
    monkeypatch.setattr(interchange, "_field",
                        lambda obj, name, *rest: fields.append(name) or obj[name])
    _, graph = import_graph(dump_graph(jsi_graph))
    assert fields == ["nodes", "edges"]
    assert len(graph.nodes) == len(jsi_graph.nodes)


def test_extra_keys_on_nodes_and_edges_are_accepted():
    document = _parity_document()
    document["nodes"][0]["col"] = 1
    document["edges"][1]["weight"] = 0.5
    document["version"] = 2
    _, graph = import_graph(document)
    assert dump_graph(graph) == dump_graph(import_graph(_parity_document())[1])


def test_non_json_text_rejected():
    with pytest.raises(GraphFormatError) as err:
        import_graph("{nodes: []")
    assert str(err.value) == (
        "$: not valid JSON: Expecting property name enclosed in double quotes"
    )


def test_random_document_counts_preserved():
    rng = random.Random(7)
    node_count = 50
    nodes = [
        {
            "id": f"r.c:{i + 1}:1",
            "file": "r.c",
            "function": "f",
            "line": i + 1,
            "text": f"stmt_{i}",
            "kind": "assign",
        }
        for i in range(node_count)
    ]
    edge_set = set()
    while len(edge_set) < 120:
        a, b = rng.sample(range(node_count), 2)
        edge_set.add((f"r.c:{a + 1}:1", f"r.c:{b + 1}:1", rng.choice(["data", "control"])))
    document = {
        "nodes": nodes,
        "edges": [{"src": s, "dst": d, "kind": k} for s, d, k in sorted(edge_set)],
    }
    _, graph = import_graph(document)
    assert len(graph.nodes) == node_count
    assert len(graph.edges) == len(edge_set)


def test_imported_graph_slices_like_the_parsed_one(jsi_program, jsi_graph):
    from appatch.code_model import identify_external_inputs
    from appatch.scoping import VulnSpec, vulnerability_semantics

    program2, graph2 = import_graph(export_graph(jsi_graph))
    spec = VulnSpec(vulnerable_lines=(("jsi_like.c", 48),), cwe_ids=("CWE-787",))
    ei1 = identify_external_inputs(jsi_program, jsi_graph)
    ei2 = identify_external_inputs(program2, graph2)
    assert ei1.ids == ei2.ids
    r1 = vulnerability_semantics(jsi_graph, spec, ei1)
    r2 = vulnerability_semantics(graph2, spec, ei2)
    assert r1.node_ids == r2.node_ids


def test_ids_without_a_numeric_column_keep_document_order(graph_without_columns):
    document = graph_without_columns
    program, graph = import_graph(document)
    assert graph.nodes_at("x.c", 1) == ["x.c:f:p0", "x.c:f:entry"]
    assert sorted(reversed(list(graph.nodes)), key=graph.sort_key) == [
        "x.c:f:p0", "x.c:f:entry", "x.c:f:s1", "x.c:f:s2",
    ]
    assert export_graph(graph)["nodes"] == document["nodes"]
    assert program.entry_function == "f"


def test_records_that_alternate_between_files_index_like_grouped_ones():
    """Each file's nodes come back to it after the other file's; a.c line 2
    holds two nodes, the later column first in the document."""
    def node(nid, function, line, text, kind):
        return {"id": nid, "file": nid.split(":")[0], "function": function, "line": line,
                "text": text, "kind": kind}

    interleaved = [
        node("a.c:2:9", "f", 2, "n = n + 1", "assign"),
        node("b.c:1:1", "g", 1, "int g(int m)", "entry"),
        node("a.c:1:1", "f", 1, "int f(int n)", "entry"),
        node("b.c:3:5", "g", 3, "return m", "return"),
        node("a.c:2:3", "f", 2, "n = 0", "assign"),
        node("b.c:2:1", "g", 2, "m = f(m)", "call"),
    ]
    grouped = sorted(interleaved, key=lambda record: record["file"])   # stable
    edges = [{"src": "a.c:2:3", "dst": "a.c:2:9", "kind": "data"},
             {"src": "b.c:2:1", "dst": "a.c:1:1", "kind": "call"}]
    (program, graph), (grouped_program, grouped_graph) = (
        import_graph({"nodes": records, "edges": edges}) for records in (interleaved, grouped))
    expected = ["a.c:1:1", "a.c:2:3", "a.c:2:9", "b.c:1:1", "b.c:2:1", "b.c:3:5"]
    assert graph.sorted_node_ids() == grouped_graph.sorted_node_ids() == expected
    assert graph.nodes_at("a.c", 2) == grouped_graph.nodes_at("a.c", 2) == ["a.c:2:3", "a.c:2:9"]
    for file in ("a.c", "b.c", "c.c"):
        for line in range(5):
            assert graph.nodes_at(file, line) == grouped_graph.nodes_at(file, line)
    for nid in expected:
        assert graph.sort_key(nid) == grouped_graph.sort_key(nid)
    assert sorted(reversed(expected), key=graph.sort_key) == expected
    assert _rebuilt(program) == _rebuilt(grouped_program)
    assert export_graph(graph) == export_graph(grouped_graph)


def _rebuilt(program):
    """Files, functions (statements, callsites in order, line span) and entry."""
    return {
        "files": [list(entry) for entry in program.files],
        "functions": [
            [fn.name, fn.file, [node.id for node in fn.nodes],
             [list(site) for site in fn.callsites], fn.start_line, fn.end_line]
            for fn in program.functions
        ],
        "entry": program.entry_function,
    }


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()


IMPORTED_PROGRAM_SHA256 = "389de49afe874af531d5acf1be50260655f10c8814ca0d5fb023c0d90f701503"
IMPORTED_BENCHMARK_PROGRAM_SHA256 = "cd5b6e7180602b35dcc05fc3390425a5c61e61f741907ddd653a03ed0b158dc3"


def test_programs_rebuilt_from_the_fixture_graphs_are_pinned(fixtures_dir):
    """What ``import_graph`` rebuilds from each fixture's exported graph."""
    rebuilt = []
    for name in ("idx_read.c", "jsi_like.c", "null_use.c"):
        source = (fixtures_dir / name).read_text(encoding="utf-8")
        program, _ = import_graph(dump_graph(build_sdg(parse_program([(name, source)]))))
        rebuilt.append(_rebuilt(program))
    assert _sha256(rebuilt) == IMPORTED_PROGRAM_SHA256


def test_program_rebuilt_from_the_benchmark_graph_is_pinned():
    target = _benchmark_program()
    graph = build_sdg(parse_program([(target.file, target.text)]))
    program, _ = import_graph(dump_graph(graph))
    assert len(program.functions) == 36
    assert _sha256(_rebuilt(program)) == IMPORTED_BENCHMARK_PROGRAM_SHA256


def _fixture(name):
    return lambda fixtures_dir: [(name, (fixtures_dir / name).read_text(encoding="utf-8"))]


def _generated(seed, lines):
    def sources(_):
        target = programs.make_program(random.Random(seed), "g000",
                                       programs.Shape(lines, 3, 7))
        return [(target.file, target.text)]
    return sources


def _inline(text):
    return lambda _: [("a.c", text)]


@pytest.mark.parametrize("sources", [
    _fixture("idx_read.c"),
    _fixture("jsi_like.c"),
    _fixture("null_use.c"),
    _generated("diff:1", 300),
    _generated("diff:2", 900),
    lambda _: [(_benchmark_program().file, _benchmark_program().text)],
    # a call name inside a string or char literal is no callsite
    _inline('int main(int n){char *s; s = "recv(x)"; return 0;}'),
    _inline('int main(int n){char *s; s = "a\\"recv(n)"; n = g(n); return 0;}'),
    _inline("int main(int n){int c; c = 'g('; c = f(c, '(', \"h(\"); return c;}"),
    # nor one inside a block comment, whose quotes delimit nothing
    _inline("int main(int n){int x; x = n /* recv(n) */ + 1; return x;}"),
    _inline("int main(int n){int x; x = f(n /* it's */, g(n), 'q'); return x;}"),
    # calls listed in pre-order with repeats, defined callees among them
    _inline("int g(int n){return n;}\nint main(int n){int y; y = g(g(n)); return y;}"),
    _inline("int f(int n){return n;}\nint main(int n){int x; x = recv(f(n), 1); return x;}"),
    # a line comment inside a multi-line statement ends at its line
    _inline("int main(int n){int x; x = f(n, // recv(n)\n 1); return x;}"),
    _inline("int main(int n){int x; x = f(n, // it's\n g(n), 'q'); return x;}"),
    _inline("int main(int n){int x; x = f(n, // note\n g(n)); return x;}"),
    # a parenthesised callee is a callsite, at any depth; a parenthesised type a cast
    _inline("int main(int n){int x; x = (recv)(n, 1); return x;}"),
    _inline("int main(int n){int x; x = ((recv))(n, 1); return x;}"),
    _inline("int main(int n){int x; x = ((recv)(n, 1)); return x;}"),
    _inline("int main(int n){int x; x = (int)(n); return x;}"),
], ids=["idx_read", "jsi_like", "null_use", "generated-300", "generated-900",
        "benchmark-2000", "string-literal", "escaped-quote", "char-literal",
        "comment", "quote-in-comment", "repeated-call", "call-order",
        "line-comment-call", "line-comment-quote", "line-comment",
        "parenthesised-callee", "nested-parenthesised-callee", "parenthesised-call",
        "cast"])
def test_imported_program_agrees_with_the_parsed_one(fixtures_dir, sources):
    """Parsed and imported programs agree on EIs, callsites, statements and entry.

    Statements are compared as sets: the parser lists a ``for`` init before
    its header, an import lists the nodes of a line in column order.  Not
    compared: ``end_line`` (an import sees only node lines) and
    ``callers_of`` order (name order against definition order).
    """
    parsed = parse_program(sources(fixtures_dir))
    parsed_graph = build_sdg(parsed)
    imported, imported_graph = import_graph(dump_graph(parsed_graph))
    assert (identify_external_inputs(imported, imported_graph).ids
            == identify_external_inputs(parsed, parsed_graph).ids)

    def by_name(program):
        return {fn.name: (fn.callsites, {node.id for node in fn.nodes})
                for fn in program.functions}

    assert by_name(imported) == by_name(parsed)
    assert imported.entry_function == parsed.entry_function


def test_a_name_closed_by_more_parentheses_than_open_before_it_is_no_callee():
    """``(a + (recv))(n)`` calls through ``a + (recv)``, which the parser rejects."""
    def node(line, text):
        return {"id": f"a.c:{line}:1", "file": "a.c", "function": "main", "line": line,
                "text": text, "kind": "assign"}

    program, _ = import_graph({"nodes": [node(1, "x = (a + (recv))(n);"),
                                         node(2, "x = ((recv))(n, 1);")], "edges": []})
    assert program.function("main").callsites == (("recv", "a.c:2:1"),)
