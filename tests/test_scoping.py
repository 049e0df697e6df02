import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from appatch.code_model import (
    UnknownNodeError,
    build_sdg,
    identify_external_inputs,
    parse_program,
)
from appatch.code_model.model import DependenceGraph, ExternalInputSet, StatementNode
from appatch.scoping import (
    ScopingError,
    SliceResult,
    VulnSpec,
    render_slice,
    vulnerability_semantics,
)

from oracles import random_dag, union_slice_oracle


def chain_graph():
    nodes = [
        StatementNode(id=n, file="c.c", function="f", line=i + 1, text=n, kind="assign")
        for i, n in enumerate(["A", "B", "C", "D"])
    ]
    edges = [("A", "B", "data"), ("B", "C", "data"), ("D", "B", "data")]
    return DependenceGraph(nodes={n.id: n for n in nodes}, edges=frozenset(edges))


def pair_slice(graph, sv, ei):
    """Nodes on some dependence path from ``ei`` to ``sv``."""
    return graph.forward({ei}) & graph.backward({sv})


def test_pair_slice_zero_length_path():
    graph = chain_graph()
    assert pair_slice(graph, "A", "A") == {"A"}


def test_pair_slice_excludes_side_contributors():
    graph = chain_graph()
    # D feeds B but is not reachable from A, so it stays out
    assert pair_slice(graph, "C", "A") == {"A", "B", "C"}


def test_pair_slice_no_path_is_empty():
    graph = chain_graph()
    assert pair_slice(graph, "A", "C") == frozenset()
    assert pair_slice(graph, "D", "A") == frozenset()


def test_unknown_external_input_names_it():
    """Of several unknown inputs, the smallest id: the message is the same
    under any hash seed."""
    graph = chain_graph()
    spec = VulnSpec(vulnerable_lines=(("c.c", 3),), cwe_ids=())
    ei = ExternalInputSet(frozenset({"A", "missing", "zz", "m"}))
    with pytest.raises(UnknownNodeError) as err:
        vulnerability_semantics(graph, spec, ei)
    assert str(err.value) == "unknown node id: m"


def test_empty_ei_falls_back_to_backward_closure():
    graph = chain_graph()
    spec = VulnSpec(vulnerable_lines=(("c.c", 3),), cwe_ids=("CWE-787",))
    result = vulnerability_semantics(graph, spec, ExternalInputSet(frozenset()))
    assert result.fallback is True
    assert result.node_ids == {"A", "B", "C", "D"}  # full backward closure of C
    assert result.ei_ids == frozenset()


def test_unresolved_vulnerable_line_lists_it():
    graph = chain_graph()
    spec = VulnSpec(vulnerable_lines=(("c.c", 99),), cwe_ids=())
    with pytest.raises(ScopingError) as err:
        vulnerability_semantics(graph, spec, ExternalInputSet(frozenset()))
    assert "c.c:99" in str(err.value)


def test_fixture_slice_matches_expected_context(jsi_program, jsi_graph, jsi_ei):
    spec = VulnSpec(vulnerable_lines=(("jsi_like.c", 48),), cwe_ids=("CWE-787",))
    result = vulnerability_semantics(jsi_graph, spec, jsi_ei)
    assert result.fallback is False
    lines = sorted({jsi_graph.node(n).line for n in result.node_ids})
    # vulnerable call, allocation, length computation, governing branches,
    # and the null check that returns early
    assert lines == [12, 16, 17, 18, 19, 21, 22, 24, 25, 48]
    assert result.sv_ids == {"jsi_like.c:48:5"}
    assert result.ei_ids == jsi_ei.ids  # every input participates here
    # the allocation is justified by at least the dStr pairing
    assert "jsi_like.c:24:5" in pair_slice(jsi_graph, "jsi_like.c:48:5", "jsi_like.c:12:26")


def test_random_graphs_match_reachability_oracle():
    rng = random.Random(20240809)
    for _ in range(200):
        graph, sv_ids, ei_ids = random_dag(rng)
        spec = VulnSpec(
            vulnerable_lines=tuple(
                ("g.c", graph.node(sv).line) for sv in sorted(sv_ids)
            ),
            cwe_ids=("CWE-125",),
        )
        ei = ExternalInputSet(frozenset(ei_ids))
        result = vulnerability_semantics(graph, spec, ei)
        expected, fallback = union_slice_oracle(graph, sv_ids, ei_ids)
        assert result.node_ids == expected
        assert result.fallback == fallback


@st.composite
def graph_instances(draw):
    node_count = draw(st.integers(min_value=2, max_value=20))
    ids = [f"g.c:{i + 1}:1" for i in range(node_count)]
    pairs = [(i, j) for i in range(node_count) for j in range(i + 1, node_count)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=40))
    nodes = [
        StatementNode(id=ids[i], file="g.c", function="f", line=i + 1,
                      text=f"s{i}", kind="assign")
        for i in range(node_count)
    ]
    edges = {(ids[i], ids[j], "data") for i, j in chosen}
    graph = DependenceGraph(nodes={n.id: n for n in nodes}, edges=frozenset(edges))
    sv = draw(st.sets(st.sampled_from(ids), min_size=1, max_size=3))
    ei_small = draw(st.sets(st.sampled_from(ids), max_size=2))
    ei_extra = draw(st.sets(st.sampled_from(ids), max_size=2))
    return graph, frozenset(sv), frozenset(ei_small), frozenset(ei_small | ei_extra)


def _semantics(graph, sv_ids, ei_ids):
    spec = VulnSpec(
        vulnerable_lines=tuple(("g.c", graph.node(s).line) for s in sorted(sv_ids)),
        cwe_ids=(),
    )
    ei = ExternalInputSet(frozenset(ei_ids))
    return vulnerability_semantics(graph, spec, ei)


@settings(max_examples=60, deadline=None)
@given(graph_instances())
def test_monotone_in_external_inputs(instance):
    graph, sv, ei_small, ei_big = instance
    small = _semantics(graph, sv, ei_small)
    big = _semantics(graph, sv, ei_big)
    if small.fallback == big.fallback:
        assert small.node_ids <= big.node_ids


@settings(max_examples=60, deadline=None)
@given(graph_instances())
def test_pair_slice_bounded_by_reachability(instance):
    graph, sv_set, ei_set, _ = instance
    result = _semantics(graph, sv_set, ei_set)
    for sv in sv_set:
        for ei in ei_set:
            members = pair_slice(graph, sv, ei)
            assert not members or {sv, ei} <= members
            assert members <= result.node_ids


def test_monotone_in_vulnerable_lines(jsi_graph, jsi_ei):
    one = VulnSpec(vulnerable_lines=(("jsi_like.c", 48),), cwe_ids=())
    two = VulnSpec(vulnerable_lines=(("jsi_like.c", 48), ("jsi_like.c", 25)),
                   cwe_ids=())
    r1 = vulnerability_semantics(jsi_graph, one, jsi_ei)
    r2 = vulnerability_semantics(jsi_graph, two, jsi_ei)
    assert r1.node_ids <= r2.node_ids


def test_multi_node_line_marks_every_node(jsi_graph, jsi_ei):
    # line 31 holds the for init, header, and update nodes
    spec = VulnSpec(vulnerable_lines=(("jsi_like.c", 31),), cwe_ids=())
    result = vulnerability_semantics(jsi_graph, spec, jsi_ei)
    assert len(result.sv_ids) == 3


# ── rendering ────────────────────────────────────────────────────────────

@pytest.fixture()
def jsi_slice(jsi_graph, jsi_ei):
    spec = VulnSpec(vulnerable_lines=(("jsi_like.c", 55),), cwe_ids=("CWE-787",))
    return vulnerability_semantics(jsi_graph, spec, jsi_ei)


def test_render_restricts_to_requested_functions(jsi_slice, jsi_program, jsi_graph):
    rendered = render_slice(jsi_slice, jsi_program, jsi_graph, {"jsi_strcpy"})
    assert rendered.included_functions == {"jsi_strcpy"}
    assert "format_value" not in rendered.text
    assert rendered.listed_ei == frozenset()  # all inputs live in the caller
    for line in rendered.text.splitlines():
        number = int(line.split(":", 1)[0])
        assert 51 <= number <= 60


def test_render_monotone_under_function_growth(jsi_slice, jsi_program, jsi_graph):
    small = render_slice(jsi_slice, jsi_program, jsi_graph, {"jsi_strcpy"})
    big = render_slice(jsi_slice, jsi_program, jsi_graph,
                       {"jsi_strcpy", "format_value"})
    assert set(small.text.splitlines()) <= set(big.text.splitlines())
    assert small.listed_ei <= big.listed_ei


def test_render_all_functions_lists_each_slice_line_once(
    jsi_slice, jsi_program, jsi_graph,
):
    rendered = render_slice(
        jsi_slice, jsi_program, jsi_graph,
        {fn.name for fn in jsi_program.functions},
    )
    numbers = [int(line.split(":", 1)[0]) for line in rendered.text.splitlines()]
    assert numbers == sorted(set(numbers))
    slice_lines = {jsi_graph.node(n).line for n in jsi_slice.node_ids}
    assert slice_lines <= set(numbers)


def test_render_line_numbers_strictly_increase(jsi_slice, jsi_program, jsi_graph):
    rendered = render_slice(jsi_slice, jsi_program, jsi_graph,
                            {"format_value", "jsi_strcpy"})
    numbers = [int(line.split(":", 1)[0]) for line in rendered.text.splitlines()]
    assert all(a < b for a, b in zip(numbers, numbers[1:]))


def test_render_empty_intersection_flags_warning(jsi_slice, jsi_program, jsi_graph,
                                                  caplog):
    with caplog.at_level("WARNING"):
        rendered = render_slice(jsi_slice, jsi_program, jsi_graph, {"jsi_strlen"})
    assert any("slice does not intersect functions ['jsi_strlen']" in r.message
               for r in caplog.records)
    assert rendered.text == ""


def test_render_shows_the_signature_line_of_a_function_with_no_slice_node_on_it():
    """A slice that holds only a body statement of ``main`` still renders
    ``main``'s signature line above it."""
    program = parse_program([("s.c", "int main(int n) {\n    n = n + 1;\n    return n;\n}\n")])
    graph = build_sdg(program)
    [body] = graph.nodes_at("s.c", 2)
    ids = frozenset([body])
    rendered = render_slice(SliceResult(node_ids=ids, sv_ids=ids, ei_ids=frozenset()),
                            program, graph, {"main"})
    assert rendered.text == "1: int main(int n) {\n2:     n = n + 1;"


def test_render_requires_functions(jsi_slice, jsi_program, jsi_graph):
    with pytest.raises(ValueError):
        render_slice(jsi_slice, jsi_program, jsi_graph, set())


def test_rendering_is_byte_deterministic(jsi_slice, jsi_program, jsi_graph):
    first = render_slice(jsi_slice, jsi_program, jsi_graph,
                         {"format_value", "jsi_strcpy"})
    second = render_slice(jsi_slice, jsi_program, jsi_graph,
                          {"jsi_strcpy", "format_value"})
    assert first.text == second.text


def test_vuln_spec_requires_a_line():
    with pytest.raises(ValueError):
        VulnSpec(vulnerable_lines=(), cwe_ids=("CWE-787",))


def test_vuln_spec_validates_cwe_pattern():
    with pytest.raises(ValueError):
        VulnSpec(vulnerable_lines=(("f.c", 1),), cwe_ids=("CWE787",))
    with pytest.raises(ValueError):
        VulnSpec(vulnerable_lines=(("f.c", 1),), cwe_ids=("cwe-787",))


# ── known slicing gaps ───────────────────────────────────────────────────
# Each program has one statement per line.  Every case made by ``_gap`` is
# a gap that the ROADMAP item it names has yet to mend; the change that
# mends it sees its strict xfail pass and drops the mark.

def _gap(name, reason, source, vuln_line, ei_line, guard_line=None):
    return pytest.param(source, vuln_line, ei_line, guard_line, id=name,
                        marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                                reason=f"ROADMAP item {reason}"))


GAPS = [
    _gap("item-11-scanf-argument", "11: input through an argument defines nothing",
         "int main(void) {\n"
         "    char buf[8];\n"
         "    int n;\n"
         "    scanf(\"%d\", &n);\n"
         "    buf[n] = 0;\n"
         "    return 0;\n"
         "}\n",
         5, 4),
    _gap("item-10-return-flow", "10: no edge from a callee's return to its callsite",
         "int get(int s) {\n"
         "    int x;\n"
         "    x = recv(s, 4);\n"
         "    return x;\n"
         "}\n"
         "int main(void) {\n"
         "    char buf[8];\n"
         "    int n;\n"
         "    n = get(3);\n"
         "    buf[n] = 0;\n"
         "    return 0;\n"
         "}\n",
         10, 3),
    _gap("item-15-global-flow", "15: globals carry no data across functions",
         "int g;\n"
         "void set(int k) {\n"
         "    g = recv(k, 4);\n"
         "}\n"
         "int main(void) {\n"
         "    char buf[8];\n"
         "    set(3);\n"
         "    buf[g] = 0;\n"
         "    return 0;\n"
         "}\n",
         8, 3),
    _gap("item-16-write-through-alias", "16: a write through a pointer misses its target",
         "int main(void) {\n"
         "    char buf[8];\n"
         "    int n;\n"
         "    int *p;\n"
         "    p = &n;\n"
         "    *p = recv(3, 4);\n"
         "    buf[n] = 0;\n"
         "    return 0;\n"
         "}\n",
         7, 6),
    pytest.param(
        "int main(int argc) {\n"
        "    char buf[8];\n"
        "    int n;\n"
        "    n = recv(3, 4);\n"
        "    if (n > 8) {\n"
        "        return 0;\n"
        "    }\n"
        "    buf[n] = 0;\n"
        "    return 0;\n"
        "}\n",
        8, 4, 5, id="item-17-early-return-in-main"),
    pytest.param(
        "int copy(char *dst, int len) {\n"
        "    int i;\n"
        "    if (len > 8) {\n"
        "        return 0;\n"
        "    }\n"
        "    i = 0;\n"
        "    dst[i] = 0;\n"
        "    return 1;\n"
        "}\n"
        "int main(void) {\n"
        "    char buf[8];\n"
        "    int n;\n"
        "    n = recv(3, 4);\n"
        "    return copy(buf, n);\n"
        "}\n",
        7, 13, 3, id="item-17-early-return-in-callee"),
]


@pytest.mark.parametrize("source, vuln_line, ei_line, guard_line", GAPS)
def test_known_gap_slice_reaches_its_input(source, vuln_line, ei_line, guard_line):
    """The input's flow into the vulnerable write, and the guard that
    bounds it, belong in the write's slice."""
    program = parse_program([("gap.c", source)])
    graph = build_sdg(program)
    spec = VulnSpec(vulnerable_lines=(("gap.c", vuln_line),), cwe_ids=("CWE-787",))
    result = vulnerability_semantics(graph, spec, identify_external_inputs(program, graph))
    assert result.fallback is False
    assert ei_line in {graph.node(n).line for n in result.ei_ids}
    if guard_line is not None:
        assert guard_line in {graph.node(n).line for n in result.node_ids}
