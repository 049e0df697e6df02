import hashlib
import json
import random

import pytest

from appatch.code_model import (
    GraphFormatError,
    dump_graph,
    export_graph,
    import_graph,
)


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


def test_non_json_text_rejected():
    with pytest.raises(GraphFormatError):
        import_graph("{nodes: []")


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
    assert ei1.reasons == ei2.reasons
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


IMPORTED_PROGRAM_SHA256 = "389de49afe874af531d5acf1be50260655f10c8814ca0d5fb023c0d90f701503"


def test_programs_rebuilt_from_the_fixture_graphs_are_pinned(fixtures_dir):
    """Files, functions (statements, callsites in order, line span) and the
    entry that ``import_graph`` rebuilds from each fixture's exported graph."""
    from appatch.code_model import build_sdg, parse_program

    rebuilt = []
    for name in ("idx_read.c", "jsi_like.c", "null_use.c"):
        source = (fixtures_dir / name).read_text(encoding="utf-8")
        program, _ = import_graph(dump_graph(build_sdg(parse_program([(name, source)]))))
        rebuilt.append({
            "files": [list(entry) for entry in program.files],
            "functions": [
                [fn.name, fn.file, list(fn.statements),
                 [list(site) for site in fn.callsites], fn.start_line, fn.end_line]
                for fn in program.functions
            ],
            "entry": program.entry_function,
        })
    digest = hashlib.sha256(json.dumps(rebuilt).encode("utf-8")).hexdigest()
    assert digest == IMPORTED_PROGRAM_SHA256
