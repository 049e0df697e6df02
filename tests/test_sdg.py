"""Dependence construction checked against a brute-force oracle.

The oracle recomputes data edges by filtered path search over the CFG
(one DFS per def-use pair, avoiding redefinitions), independently of the
worklist dataflow used by the builder.  Control edges are checked by
their transitive closure, against the control dependence that
``oracles.control_dependence`` derives from the token stream alone.
"""

from __future__ import annotations

import pytest

from appatch.code_model import build_sdg, parse_program
from appatch.code_model.parser import CONTROL_KEYWORDS, TYPE_KEYWORDS
from appatch.code_model.sdg import _ReachingDefs
from oracles import control_closure, control_dependence, tokenize


def successors_by_id(fn):
    """Node id -> ids of its CFG successors, rebuilt from ``fn.cfg_preds``."""
    nodes = fn.nodes
    succ = {node.id: set() for node in nodes}
    for node, preds in zip(nodes, fn.cfg_preds):
        for pred in preds:
            succ[nodes[pred].id].add(node.id)
    return succ


def brute_force_data_edges(fn):
    """Every (def, use) pair with a redefinition-free CFG path between them."""
    infos = {node.id: node for node in fn.nodes}
    succ = successors_by_id(fn)
    edges = set()
    for def_id in infos:
        for var in infos[def_id].defs:
            for use_id in infos:
                if var not in infos[use_id].uses:
                    continue
                # DFS from def_id successors to use_id, skipping nodes that
                # redefine var (endpoints excluded from the interior check).
                stack = list(succ[def_id])
                seen = set()
                found = False
                while stack:
                    node = stack.pop()
                    if node == use_id:
                        found = True
                        break
                    if node in seen:
                        continue
                    seen.add(node)
                    if var in infos[node].defs:
                        continue  # path is cut by the redefinition
                    stack.extend(succ[node])
                if found:
                    edges.add((def_id, use_id, "data"))
    return edges


def assert_edges_match_oracles(program):
    """Data edges equal the brute-force ones; control edges close to the
    control dependence of the program's one file."""
    ((file, text),) = program.files
    graph = build_sdg(program)
    data = {edge for edge in graph.edges if edge[2] == "data"}
    assert data == set().union(*map(brute_force_data_edges, program.functions))
    assert control_closure(graph.edges) == control_dependence(file, text)


def test_single_def_use_pair():
    program = parse_program([("a.c", "int f(){int a=1; int b=a;}")])
    graph = build_sdg(program)
    data = [(s, d) for s, d, k in graph.edges if k == "data"]
    assert len(data) == 1
    src, dst = data[0]
    assert graph.node(src).text.startswith("int a")
    assert graph.node(dst).text.startswith("int b")


def test_single_governed_statement():
    program = parse_program([("a.c", "int f(int c){int x; if(c){x = 1;} return x;}")])
    graph = build_sdg(program)
    control = [(s, d) for s, d, k in graph.edges if k == "control"]
    assert len(control) == 1
    src, dst = control[0]
    assert graph.node(src).kind == "branch"
    assert graph.node(dst).text == "x = 1"


@pytest.mark.parametrize("fixture", ["jsi_like.c", "idx_read.c", "null_use.c"])
def test_fixture_edges_match_brute_force_oracle(fixtures_dir, fixture):
    source = (fixtures_dir / fixture).read_text()
    assert_edges_match_oracles(parse_program([(fixture, source)]))


SCOPE_CORNER_CASES = (
    "int f(int n, int *p){\n"
    "    int a = g(n, 1), b[4], c;\n"
    "    for (int i = 0; i < n; i = i + 1) { if (i > 2) a = a + 1; else { b[i] = 0; ; } }\n"
    "    for (; a < n;) a++;\n"
    "    for (c = 0; c < n; ) { if (c) { while (n > 0) --n; } else if (a) c++; }\n"
    "    if (n) ; else return a;\n"
    "    while (a) { if (b[0]) { return c; } a = a - 1; }\n"
    "    return c;\n"
    "}\n"
)


def test_scope_corner_cases_match_brute_force_oracle():
    assert_edges_match_oracles(parse_program([("k.c", SCOPE_CORNER_CASES)]))


def test_loop_carried_dependence_includes_self_edge():
    program = parse_program([
        ("a.c", "int f(int n){int i; i = 0; while(i < n){i = i + 1;} return i;}"),
    ])
    graph = build_sdg(program)
    incr = next(nid for nid in graph.nodes if graph.node(nid).text == "i = i + 1")
    data_sources = {s for s, d, k in graph.edges if k == "data" and d == incr}
    assert incr in data_sources  # around the loop, i's def reaches its own use


def test_call_and_param_edges(jsi_graph):
    call_edges = [(s, d) for s, d, k in jsi_graph.edges if k == "call"]
    # resolved callsites only: jsi_strlen at 16 and jsi_strcpy at 48
    callsite_lines = sorted(jsi_graph.node(s).line for s, _ in call_edges)
    assert callsite_lines == [16, 48]
    for src, dst in call_edges:
        assert jsi_graph.node(dst).kind == "entry"

    param_edges = [(s, d) for s, d, k in jsi_graph.edges if k == "param"]
    targets = {jsi_graph.node(d).text for _, d in param_edges}
    assert targets == {"char *str", "char *dst", "char *src"}
    # the malloc result flows into jsi_strcpy's dst parameter
    malloc_node = next(
        nid for nid in jsi_graph.nodes if jsi_graph.node(nid).line == 24
    )
    dst_param = next(
        nid for nid in jsi_graph.nodes if jsi_graph.node(nid).text == "char *dst"
    )
    assert (malloc_node, dst_param) in param_edges


def test_unresolved_callsites_get_no_interprocedural_edges(jsi_graph):
    trace_node = next(
        nid for nid in jsi_graph.nodes if "trace_write" in jsi_graph.node(nid).text
    )
    assert not any(
        src == trace_node and kind in ("call", "param")
        for src, dst, kind in jsi_graph.edges
    )
    # its return value still defines the assigned variable
    assert "note" in jsi_graph.node(trace_node).defs


def test_control_edge_sources_are_branchy(jsi_graph):
    for src, _dst, kind in jsi_graph.edges:
        if kind == "control":
            assert jsi_graph.node(src).kind in ("branch", "loop-header")


def test_build_is_deterministic(jsi_source):
    def build():
        program = parse_program([("jsi_like.c", jsi_source)])
        graph = build_sdg(program)
        return sorted(graph.nodes), sorted(graph.edges)

    assert build() == build()


def test_else_branch_is_in_the_branch_scope():
    program = parse_program([
        ("a.c", "int f(int c){int x; if(c){x = 1;} else {x = 2;} return x;}"),
    ])
    graph = build_sdg(program)
    branch = next(nid for nid in graph.nodes if graph.node(nid).kind == "branch")
    governed = {d for s, d, k in graph.edges if k == "control" and s == branch}
    texts = {graph.node(d).text for d in governed}
    assert texts == {"x = 1", "x = 2"}


def test_external_inputs_malloc_plus_two_entry_params():
    from appatch.code_model import identify_external_inputs

    program = parse_program([(
        "a.c",
        "int use(int a, int b){int *p; p = malloc(a); return p[b];}",
    )])
    graph = build_sdg(program)
    ei = identify_external_inputs(program, graph)
    assert ei.ids == {"a.c:1:31", "a.c:1:13", "a.c:1:20"}   # the malloc call, then a and b


def test_external_inputs_empty_when_nothing_qualifies():
    from appatch.code_model import identify_external_inputs

    program = parse_program([("a.c", "int f(){int a; a = 1; return a;}")])
    graph = build_sdg(program)
    ei = identify_external_inputs(program, graph)
    assert ei.ids == frozenset()


def test_external_function_set_is_configurable():
    from appatch.code_model import identify_external_inputs

    program = parse_program([(
        "a.c", "int f(){int x; x = custom_read(); return x;}",
    )])
    graph = build_sdg(program)
    default = identify_external_inputs(program, graph)
    assert default.ids == frozenset()
    custom = identify_external_inputs(program, graph,
                                      frozenset({"custom_read"}))
    assert len(custom.ids) == 1


def _random_mini_c(rng, jumps=False):
    """Random straight/branchy/loopy function over a few scalar variables.

    With ``jumps``, it also returns from inside branches and loops, puts
    statements after such a return, runs ``for`` loops with an update,
    leaves branches empty, and may be a ``void`` function that falls off
    its end.  Without, it draws from ``rng`` exactly as it always has.
    """
    names = ["a", "b", "c", "d"]
    void = jumps and rng.random() < 0.3

    def expr():
        pick = rng.random()
        if pick < 0.4:
            return str(rng.randint(0, 9))
        if pick < 0.8:
            return rng.choice(names)
        return f"{rng.choice(names)} + {rng.choice(names)}"

    def ret():
        return "return;" if void else f"return {expr()};"

    lines = [f"{'void' if void else 'int'} f(int a, int b) {{", "    int c;", "    int d;"]
    depth = 1

    def emit(text):
        lines.append("    " * depth + text)

    def nested(budget, depth_left):
        nonlocal depth
        depth += 1
        block(budget, depth_left)
        depth -= 1

    def jump(depth_left):
        """One statement of the kinds only ``jumps`` turns on."""
        pick = rng.random()
        if pick < 0.45 or depth_left == 0:
            emit(ret())
        elif pick < 0.75:
            var = rng.choice(names)
            if rng.random() < 0.5:
                emit(f"for ({var} = 0; {var} < {rng.randint(1, 5)}; {var} = {var} + 1) {{")
            else:
                emit(f"for (; {var} < {rng.randint(1, 5)}; {var}++) {{")
            nested(rng.randint(1, 2), depth_left - 1)
            emit("}")
        else:
            emit(f"if ({rng.choice(names)} > {rng.randint(0, 5)}) {{")
            if rng.random() < 0.5:
                emit("} else {")
                nested(rng.randint(1, 2), depth_left - 1)
            emit("}")

    def block(budget, depth_left):
        count = 0
        while count < budget:
            if jumps and rng.random() < 0.25:
                jump(depth_left)
                count += 1
                continue
            roll = rng.random()
            if roll < 0.55 or depth_left == 0:
                emit(f"{rng.choice(names)} = {expr()};")
                count += 1
            elif roll < 0.8:
                emit(f"if ({rng.choice(names)} > {rng.randint(0, 5)}) {{")
                nested(rng.randint(1, 2), depth_left - 1)
                if rng.random() < 0.4:
                    emit("} else {")
                    nested(rng.randint(1, 2), depth_left - 1)
                emit("}")
                count += 2
            else:
                emit(f"while ({rng.choice(names)} < {rng.randint(1, 5)}) {{")
                nested(rng.randint(1, 2), depth_left - 1)
                emit("}")
                count += 2

    block(rng.randint(4, 10), 2)
    if not void:
        emit(f"return {rng.choice(names)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_random_programs_match_brute_force_oracle():
    import random

    rng = random.Random(424242)
    early = 0
    for _ in range(300):
        source = _random_mini_c(rng, jumps=True)
        program = parse_program([("r.c", source)])
        assert_edges_match_oracles(program)
        (fn,) = program.functions
        early += any(node.kind == "return" for _, start, end in fn.control_scopes
                     for node in fn.nodes[start:end])
    assert early > 150   # most programs return early


def test_sequential_guards_get_linearly_many_control_edges():
    """Each guard governs its return, the statement after it and the next
    guard, which governs the rest: a rule that let every guard govern all
    it reaches would give 1,501,500 edges here."""
    guards = 1000
    source = ("int f(int n) {\n"
              + "".join(f"    if (n > {k}) {{ return {k}; }} n = n - 1;\n" for k in range(guards))
              + "    return n;\n}\n")
    graph = build_sdg(parse_program([("g.c", source)]))
    assert sum(kind == "control" for _, _, kind in graph.edges) <= 3 * guards


def reaching_definitions(fn):
    """IN sets decoded from the builder's bitset solver."""
    solved = _ReachingDefs(fn)
    return {
        node.id: frozenset(fact for bit, fact in enumerate(solved.facts) if bits >> bit & 1)
        for node, bits in zip(fn.nodes, solved.in_bits)
    }


def set_based_reaching_definitions(fn):
    """IN sets by round-robin over Python sets of (node id, var) facts."""
    infos = {node.id: node for node in fn.nodes}
    gen = {nid: {(nid, var) for var in node.defs} for nid, node in infos.items()}
    preds = {nid: [] for nid in infos}
    for src, targets in successors_by_id(fn).items():
        for dst in targets:
            preds[dst].append(src)
    in_sets = {nid: set() for nid in infos}
    out_sets = {nid: set(gen[nid]) for nid in infos}
    changed = True
    while changed:
        changed = False
        for nid in infos:
            new_in = set()
            for pred in preds[nid]:
                new_in |= out_sets[pred]
            in_sets[nid] = new_in
            killed = infos[nid].defs
            new_out = gen[nid] | {fact for fact in new_in if fact[1] not in killed}
            if new_out != out_sets[nid]:
                out_sets[nid] = new_out
                changed = True
    return {nid: frozenset(facts) for nid, facts in in_sets.items()}


def test_reaching_definitions_equal_the_set_based_fixed_point(fixtures_dir):
    import random

    rng = random.Random(424242)
    sources = [(f, (fixtures_dir / f).read_text())
               for f in ("jsi_like.c", "idx_read.c", "null_use.c")]
    sources += [(f"r{i}.c", _random_mini_c(rng)) for i in range(40)]
    for name, source in sources:
        for fn in parse_program([(name, source)]).functions:
            assert reaching_definitions(fn) == set_based_reaching_definitions(fn), (
                name, fn.name)


def _split_top(tokens, sep):
    """``tokens`` split at each ``sep`` outside parentheses and brackets."""
    parts, depth = [[]], 0
    for tok in tokens:
        if tok == sep and depth == 0:
            parts.append([])
            continue
        depth += (tok in "([") - (tok in ")]")
        parts[-1].append(tok)
    return parts


def _reads(tokens):
    """The names ``tokens`` read, in text order, first occurrence only: each
    identifier that is no keyword and no callee."""
    names = [tok for tok, nxt in zip(tokens, tokens[1:] + [""])
             if (tok[:1].isalpha() or tok[:1] == "_") and nxt != "("
             and tok not in TYPE_KEYWORDS and tok not in CONTROL_KEYWORDS]
    return list(dict.fromkeys(names))


def _read_region(node):
    """The tokens of a node's text whose reads are the node's uses."""
    if node.kind == "entry":
        return []                                         # a signature reads nothing
    tokens = [tok.value for tok in tokenize(node.file, node.text)][:-1]
    if node.kind == "loop-header" and tokens[0] == "for":
        return _split_top(tokens[2:-1], ";")[1]           # the condition
    if node.kind in ("decl", "param-def"):
        # the declarator of the defined name, after the name
        for part in _split_top(tokens, ","):
            rest = [tok for tok in part if tok not in TYPE_KEYWORDS]
            while rest[0] == "*":
                rest.pop(0)
            if rest[0] == node.defs[0]:
                return rest[1:]
    if node.kind == "assign" and tokens[1] == "=":
        return tokens[2:]                                 # the target is written, not read
    return tokens


def _argument_regions(tokens):
    """Per callee token of ``tokens``, in text order (a call before its
    arguments): the callee and the tokens of each of its arguments."""
    calls = []
    for at, (tok, nxt) in enumerate(zip(tokens, tokens[1:])):
        if nxt != "(" or not (tok[:1].isalpha() or tok[:1] == "_") or tok in CONTROL_KEYWORDS:
            continue
        depth = 0
        for end in range(at + 1, len(tokens)):
            depth += (tokens[end] == "(") - (tokens[end] == ")")
            if depth == 0:
                break
        inside = tokens[at + 2:end]
        calls.append((tok, _split_top(inside, ",") if inside else []))
    return calls


def _is_ordered_fact(names, region):
    return (type(names) is tuple and len(set(names)) == len(names)
            and names == tuple(name for name in _reads(region) if name in names))


def test_flow_facts_are_tuples_in_first_read_order(fixtures_dir):
    """Every def, use and argument use is a tuple of distinct names, in the
    order the statement's text first reads them."""
    import random

    rng = random.Random(424242)
    sources = [(f, (fixtures_dir / f).read_text())
               for f in ("jsi_like.c", "idx_read.c", "null_use.c")]
    sources += [(f"r{i}.c", _random_mini_c(rng)) for i in range(40)]
    checked = 0
    for name, source in sources:
        for fn in parse_program([(name, source)]).functions:
            for node in fn.nodes:
                assert type(node.defs) is tuple and len(node.defs) <= 1, node
                region = _read_region(node)
                assert _is_ordered_fact(node.uses, region), node
                calls = _argument_regions(region)
                assert [callee for callee, _ in node.calls] == [c for c, _ in calls], node
                for (_, arg_uses), (_, arg_regions) in zip(node.calls, calls):
                    assert type(arg_uses) is tuple and len(arg_uses) == len(arg_regions), node
                    for used, arg in zip(arg_uses, arg_regions):
                        assert _is_ordered_fact(used, arg), node
                checked += 1
    assert checked > 600


def test_use_of_a_never_defined_variable_gets_no_data_edge():
    source = "int f(int a){int c; c = zz; c = c + a; while(a){a = zz + 1;} return c;}"
    program = parse_program([("u.c", source)])
    (fn,) = program.functions
    in_sets = reaching_definitions(fn)
    assert in_sets == set_based_reaching_definitions(fn)
    assert all(var != "zz" for facts in in_sets.values() for _, var in facts)
    graph = build_sdg(program)
    data_into = {}
    for src, dst, kind in graph.edges:
        if kind == "data":
            data_into.setdefault(graph.node(dst).text, set()).add(graph.node(src).text)
    assert "c = zz" not in data_into
    assert "a = zz + 1" not in data_into
    assert data_into["c = c + a"] == {"c = zz", "int a"}


def test_calls_inside_an_assignment_target_are_callsites():
    from appatch.code_model import identify_external_inputs

    source = ("int g(int s){return s;}\n"
              "int main(int s, int n){\n"
              "    char buf[8];\n"
              "    buf[recv(s, n)] = 0;\n"
              "    buf[g(s)] = g(n);\n"
              "    return 0;\n"
              "}\n")
    program = parse_program([("t.c", source)])
    graph = build_sdg(program)
    assert program.function("main").callsites == (
        ("recv", "t.c:4:5"), ("g", "t.c:5:5"), ("g", "t.c:5:5"),
    )
    ei = identify_external_inputs(program, graph)
    assert "t.c:4:5" in ei.ids
    entry_g, param_g = (node.id for node in program.function("g").nodes[:2])
    assert ("t.c:5:5", entry_g, "call") in graph.edges
    param_sources = {src for src, dst, kind in graph.edges
                     if kind == "param" and dst == param_g}
    assert param_sources == {"t.c:2:14", "t.c:2:21"}   # main's s and n


def test_calls_in_an_array_size_are_callsites():
    from appatch.code_model import identify_external_inputs

    source = "int main(int s, int n){\n    char buf[recv(s, n)];\n    return 0;\n}\n"
    program = parse_program([("t.c", source)])
    assert program.function("main").callsites == (("recv", "t.c:2:10"),)
    ei = identify_external_inputs(program, build_sdg(program))
    assert "t.c:2:10" in ei.ids


def test_graph_holds_the_parsers_nodes(jsi_program, jsi_graph):
    for fn in jsi_program.functions:
        for node in fn.nodes:
            assert jsi_graph.nodes[node.id] is node


def test_parser_gives_every_node_its_own_id(fixtures_dir):
    """The graph keys nodes by id, so a repeated id would lose a node."""
    import random

    from test_graph_pin import _benchmark_program

    target = _benchmark_program()
    rng = random.Random(424242)
    sources = [[(f, (fixtures_dir / f).read_text(encoding="utf-8"))]
               for f in ("jsi_like.c", "idx_read.c", "null_use.c")]
    sources.append([(target.file, target.text)])
    sources += [[("r.c", _random_mini_c(rng))] for _ in range(40)]
    for source in sources:
        program = parse_program(source)
        graph = build_sdg(program)
        assert len(graph.nodes) == sum(len(fn.nodes) for fn in program.functions), source[0][0]


def test_build_sdg_needs_a_program_from_parse_program(jsi_program, jsi_graph):
    from appatch.code_model import dump_graph, import_graph
    from appatch.code_model.model import FunctionDef, Program

    needs_parse = "build_sdg needs a program from parse_program"
    imported, _ = import_graph(dump_graph(jsi_graph))
    assert [len(fn.nodes) for fn in imported.functions] == [
        len(jsi_program.function(fn.name).nodes) for fn in imported.functions
    ]
    assert not any(fn.cfg_preds or fn.control_scopes for fn in imported.functions)
    with pytest.raises(ValueError, match=needs_parse):
        build_sdg(imported)
    f = jsi_program.function("jsi_strlen")
    by_hand = Program(files=jsi_program.files, functions=(
        FunctionDef(name=f.name, file=f.file, nodes=f.nodes, callsites=f.callsites,
                    start_line=f.start_line, end_line=f.end_line),
    ))
    assert by_hand.functions[0] == f     # the CFG is not part of a function's value
    with pytest.raises(ValueError, match=needs_parse):
        build_sdg(by_hand)


def test_cfg_and_scopes_are_kept_by_node_position(fixtures_dir):
    """``cfg_preds`` has one entry per node, every position is in range, each
    scope is a run after its header, and a ``for`` header's run starts at
    its update, which loops back to the header."""
    import random

    rng = random.Random(424242)
    sources = [(f, (fixtures_dir / f).read_text(encoding="utf-8"))
               for f in ("jsi_like.c", "idx_read.c", "null_use.c")]
    sources.append(("k.c", SCOPE_CORNER_CASES))
    sources += [(f"r{i}.c", _random_mini_c(rng)) for i in range(40)]
    updates = 0
    for name, source in sources:
        for fn in parse_program([(name, source)]).functions:
            count = len(fn.nodes)
            assert len(fn.cfg_preds) == count, (name, fn.name)
            assert all(0 <= pred < count for preds in fn.cfg_preds for pred in preds)
            for header, start, end in fn.control_scopes:
                assert header < start <= end <= count, (name, fn.name)
                assert fn.nodes[header].kind in ("branch", "loop-header")
                text = fn.nodes[header].text
                if not text.startswith("for"):
                    continue
                update = text[text.rindex(";") + 1:text.rindex(")")].strip()
                if update:
                    assert fn.nodes[start].text == update, (name, text)
                    assert start in fn.cfg_preds[header]
                    updates += 1
    assert updates == 2   # jsi_like.c's loop and the first corner-case loop
