import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from appatch.code_model import ParseError, UnsupportedConstructError, parse_program
from appatch.code_model.parser import _FileParser
from oracles import Token, tokenize


def kinds_of(program, graph_nodes=None):
    from appatch.code_model import build_sdg

    graph = build_sdg(program)
    return {graph.node(nid).kind for nid in graph.nodes}


def test_minimal_function():
    program = parse_program([("a.c", "int f(){return 0;}")])
    assert [fn.name for fn in program.functions] == ["f"]
    from appatch.code_model import build_sdg

    graph = build_sdg(program)
    kinds = sorted(graph.node(node.id).kind for node in program.functions[0].nodes)
    assert kinds == ["entry", "return"]


def test_fixture_parses_with_three_functions(jsi_program, jsi_graph):
    assert [fn.name for fn in jsi_program.functions] == [
        "jsi_strlen", "format_value", "jsi_strcpy",
    ]
    assert jsi_program.entry_function == "format_value"
    nodes = [jsi_graph.node(node.id) for node in jsi_program.function("format_value").nodes]
    params = tuple(name for node in nodes if node.kind == "param-def" for name in node.defs)
    assert params == ("dStr", "quoted")


def test_unbalanced_brace_is_a_syntax_error():
    with pytest.raises(ParseError) as err:
        parse_program([("a.c", "int f(){")])
    assert "end of input" in str(err.value)


def test_syntax_error_carries_location():
    with pytest.raises(ParseError) as err:
        parse_program([("bad.c", "int f() {\n    int x = ;\n}")])
    assert err.value.file == "bad.c"
    assert err.value.line == 2


@pytest.mark.parametrize("source,construct", [
    ("int f(){a.b = 1;}", "member access"),
    ("int f(int *p){(*p)(1);}", "function-pointer call"),
    ("int f(int a){int b = a ? 1 : 2; return b;}", "ternary operator"),
    ("#include <stdio.h>\nint f(){return 0;}", "preprocessor directive"),
    ("int f(){int a[2] = {1, 2}; return 0;}", "brace initializer"),
    # ``return`` is the one jump, which the control edges rely on.
    ("int f(int n){while (n) { break; } return n;}", "break statement"),
    ("int f(int n){while (n) { continue; } return n;}", "continue statement"),
    ("int f(int n){goto out; return n;}", "goto statement"),
    ("int f(int n){do { n = n - 1; } while (n); return n;}", "do-while loop"),
    ("int f(int n){out: n = 1; return n;}", "label"),
    ("int f(int n){switch (n) { case 1: n = 0; } return n;}", "switch statement"),
])
def test_unsupported_constructs_are_named(source, construct):
    with pytest.raises(UnsupportedConstructError) as err:
        parse_program([("a.c", source)])
    assert err.value.construct == construct


def test_duplicate_function_names_rejected():
    with pytest.raises(ParseError):
        parse_program([("a.c", "int f(){return 0;}\nint f(){return 1;}")])


def test_statement_node_kinds(jsi_program, jsi_graph):
    by_line = {}
    for nid, node in jsi_graph.nodes.items():
        by_line.setdefault((node.file, node.line), []).append(node)
    assert by_line[("jsi_like.c", 16)][0].kind == "assign"
    assert by_line[("jsi_like.c", 18)][0].kind == "branch"
    assert by_line[("jsi_like.c", 6)][0].kind == "loop-header"
    assert by_line[("jsi_like.c", 48)][0].kind == "return"
    # the for line carries init, header, and update nodes
    kinds = sorted(n.kind for n in by_line[("jsi_like.c", 31)])
    assert kinds == ["assign", "assign", "loop-header"]


def test_callsites_recorded_including_unresolved(jsi_program):
    fmt = jsi_program.function("format_value")
    callees = sorted({name for name, _ in fmt.callsites})
    assert callees == ["jsi_strcpy", "jsi_strlen", "malloc", "trace_write"]


def test_entry_inference_prefers_main():
    program = parse_program([
        ("a.c", "int helper(int x){return x;}\nint main(){return helper(1);}"),
    ])
    assert program.entry_function == "main"


def test_entry_inference_ambiguous_roots_yield_none():
    program = parse_program([
        ("a.c", "int f(){return 0;}\nint g(){return 1;}"),
    ])
    assert program.entry_function is None


def test_entry_override():
    program = parse_program(
        [("a.c", "int f(){return 0;}\nint g(){return 1;}")], entry="g",
    )
    assert program.entry_function == "g"


def test_global_declarations_contribute_no_nodes():
    program = parse_program([("a.c", "int limit;\nint f(){return limit;}")])
    assert len(program.functions) == 1
    # the global produced no statement node anywhere
    from appatch.code_model import build_sdg

    graph = build_sdg(program)
    assert all(graph.node(nid).function == "f" for nid in graph.nodes)


def test_parse_is_deterministic(jsi_source):
    a = parse_program([("jsi_like.c", jsi_source)])
    b = parse_program([("jsi_like.c", jsi_source)])
    assert a == b


def test_function_line_ranges_inside_file(jsi_program):
    line_count = (dict(jsi_program.files)["jsi_like.c"]).count("\n") + 1
    for fn in jsi_program.functions:
        assert 1 <= fn.start_line <= fn.end_line <= line_count
        assert fn.name in jsi_program.source_line("jsi_like.c", fn.start_line)


def test_duplicate_function_reported_at_first_duplicated_name():
    with pytest.raises(ParseError) as err:
        parse_program([("a.c", "int a(){return 0;}\nint b(){return 0;}\n"
                               "int b(){return 1;}\nint a(){return 1;}")])
    assert err.value.message == "duplicate function name: a"
    assert (err.value.file, err.value.line, err.value.col) == ("a.c", 1, 1)


def test_source_path_given_twice_is_rejected_by_name():
    with pytest.raises(ParseError) as err:
        parse_program([("x.c", "int a(){return 0;}"), ("y.c", "int b(){return 0;}"),
                       ("x.c", "int c(){return 0;}")])
    assert err.value.message == "duplicate source path: x.c"
    assert (err.value.file, err.value.line, err.value.col) == ("x.c", 1, 1)


# ── lexer ────────────────────────────────────────────────────────────────

@pytest.mark.parametrize("source,error,message,line,col", [
    ("int f(){\n/* a\n b */ x /* open\n y", ParseError,
     "unterminated comment", 3, 9),
    ('int f(){\n  s = "abc;\n}', ParseError, "unterminated literal", 2, 7),
    ('x = "ab\ncd";', ParseError, "unterminated literal", 1, 5),
    ('x = "ab\\\ncd";', ParseError, "unterminated literal", 1, 5),
    ("int x;\n  #define A 1\n", UnsupportedConstructError,
     "unsupported construct: preprocessor directive", 2, 3),
    ("/* one\n two */  @", ParseError, "unexpected character '@'", 2, 10),
])
def test_lexer_errors_carry_exact_location(source, error, message, line, col):
    with pytest.raises(ParseError) as err:
        tokenize("lex.c", source)
    assert type(err.value) is error
    assert (err.value.message, err.value.file, err.value.line, err.value.col) == (
        message, "lex.c", line, col,
    )


def test_punctuation_takes_the_longest_match():
    tokens = tokenize("a.c", "a <<= b")
    assert [(t.kind, t.value) for t in tokens] == [
        ("ident", "a"), ("punct", "<<="), ("ident", "b"), ("eof", ""),
    ]
    with pytest.raises(UnsupportedConstructError) as err:
        parse_program([("a.c", "int f(int *p){int x = p->x; return x;}")])
    assert err.value.construct == "member access"


def test_lexer_reads_non_ascii_starts_as_str_classifies_them():
    tokens = tokenize("u.c", "\u00b21.5 \u00e9t\u00e9 x")
    assert [(t.kind, t.value, t.col) for t in tokens] == [
        ("num", "\u00b21.5", 1), ("ident", "\u00e9t\u00e9", 6),
        ("ident", "x", 10), ("eof", "", 11),
    ]
    with pytest.raises(ParseError) as err:
        tokenize("u.c", "a \u00bd")
    assert (err.value.message, err.value.col) == ("unexpected character '\u00bd'", 3)


def test_form_feed_and_vertical_tab_are_blanks_that_keep_the_line():
    tokens = tokenize("f.c", "a\f b\v\vc\n\fd")
    assert [(t.value, t.line, t.col) for t in tokens] == [
        ("a", 1, 1), ("b", 1, 4), ("c", 1, 7), ("d", 2, 2), ("", 2, 3),
    ]
    program = parse_program([("p.c", "int f(){return 0;}\n\f\nint g(){return f();}\n")])
    assert [fn.name for fn in program.functions] == ["f", "g"]
    assert program.function("g").start_line == 3


def test_tokens_are_immutable_records_that_compare_by_value():
    first = tokenize("t.c", "int x = 1;")
    assert first == tokenize("t.c", "int x = 1;")
    tok = first[1]
    assert Token._fields == ("kind", "value", "line", "col", "start", "end")
    assert (tok.kind, tok.value, tok.line, tok.col, tok.start, tok.end) == (
        "ident", "x", 1, 5, 4, 5,
    )
    with pytest.raises(AttributeError):
        tok.value = "y"


def test_peek_and_advance_stop_at_eof():
    parser = _FileParser("t.c", "x ;")
    assert parser.advance() == 0
    assert parser.peek() == ";"
    assert parser.peek(1) == ""
    assert parser.advance() == 1
    assert parser.peek() == ""
    assert parser.advance() == 2 and parser.advance() == 2
    assert parser.pos == len(parser.values) - 1 == 2
    assert parser.peek() == "" and parser.peek(1) == ""
    with pytest.raises(ParseError) as err:
        parser.expect(";")
    assert (err.value.message, err.value.line, err.value.col) == (
        "expected ';', found end of input", 1, 4,
    )


def test_non_ascii_identifier_ends_at_a_dot():
    tokens = tokenize("u.c", "\u00e9t\u00e9.x.y")
    assert [(t.kind, t.value, t.col, t.start, t.end) for t in tokens] == [
        ("ident", "\u00e9t\u00e9", 1, 0, 3), ("punct", ".", 4, 3, 4), ("ident", "x", 5, 4, 5),
        ("punct", ".", 6, 5, 6), ("ident", "y", 7, 6, 7), ("eof", "", 8, 7, 7),
    ]


@pytest.mark.parametrize("source,values,eof", [
    ("x = 1; /* done */", ["x", "=", "1", ";"], (1, 18, 17)),
    ("x = 1; // done", ["x", "=", "1", ";"], (1, 15, 14)),
    ("x\n  /* a\n */", ["x"], (3, 4, 12)),
])
def test_text_may_end_in_a_comment(source, values, eof):
    tokens = tokenize("c.c", source)
    assert [t.value for t in tokens[:-1]] == values
    assert (tokens[-1].kind, tokens[-1].line, tokens[-1].col, tokens[-1].start) == ("eof", *eof)


@pytest.mark.parametrize("source,line,col", [
    ("int x;\n  \t/*  ", 2, 4),
    ("a /* b", 1, 3),
    ("/*/", 1, 1),
])
def test_unterminated_comment_at_end_of_text_is_located(source, line, col):
    with pytest.raises(ParseError) as err:
        tokenize("c.c", source)
    assert (type(err.value), err.value.message, err.value.line, err.value.col) == (
        ParseError, "unterminated comment", line, col,
    )


@pytest.mark.parametrize("source,ids", [
    ("int f(int a){\r\n  int x;\r\n  x = a;\r\n  return x;\r\n}\r\n",
     ["n.c:1:5", "n.c:1:11", "n.c:2:7", "n.c:3:3", "n.c:4:3"]),
    ("int f(int a){ /* one\n two\n */ int x; x = a; /* c\n */\n  return x;}",
     ["n.c:1:5", "n.c:1:11", "n.c:3:9", "n.c:3:12", "n.c:5:3"]),
])
def test_node_ids_count_lines_across_crlf_and_comments(source, ids):
    function = parse_program([("n.c", source)]).functions[0]
    assert [node.id for node in function.nodes] == ids
    assert (function.start_line, function.end_line) == (1, 5)


_MINI_C = "ab_19 \t\r\n\n/*+-<>=!&|.;(){}[]\"'\\#@\u00b2\u00e9\f"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=_MINI_C, max_size=60))
def test_tokens_are_exact_ordered_slices_of_the_text(text):
    try:
        tokens = tokenize("p.c", text)
    except ParseError as err:
        assert 1 <= err.line <= text.count("\n") + 1 and err.col >= 1
        return
    assert tokens[-1].kind == "eof" and tokens[-1].start == tokens[-1].end == len(text)
    previous_end = 0
    for tok in tokens[:-1]:
        assert tok.value == text[tok.start:tok.end] and tok.start < tok.end
        assert tok.start >= previous_end
        assert tok.line == text.count("\n", 0, tok.start) + 1
        assert tok.col == tok.start - (text.rfind("\n", 0, tok.start) + 1) + 1
        previous_end = tok.end


@pytest.mark.parametrize("ch", ["\x1c", "\x85", "\u2028", "\v"])
@pytest.mark.parametrize("gap", [" ", "\n  "])
def test_node_text_keeps_line_separators_inside_string_literals(ch, gap):
    from appatch.code_model import build_sdg

    source = f'int f(){{char *s; s ={gap}"a   b{ch}   c"; return 0;}}'
    graph = build_sdg(parse_program([("s.c", source)]))
    texts = {graph.node(nid).text for nid in graph.nodes}
    assert f's = "a   b{ch}   c"' in texts


def test_node_text_joins_only_newline_separated_lines():
    from appatch.code_model import build_sdg

    source = "int f(int a){int x;\n  x = a\r\n    + 1\n    + 2;\n  return x;}"
    graph = build_sdg(parse_program([("n.c", source)]))
    assert graph.node("n.c:2:3").text == "x = a + 1 + 2"


@pytest.mark.parametrize("statement,text", [
    ("x = f(n, // recv(n)\n 1);", "x = f(n, 1)"),
    ("x = f(n, // it's\n g(n), 'q');", "x = f(n, g(n), 'q')"),
    ("x = f(n, /* a\n b */ g(n));", "x = f(n, g(n))"),
    ("x = f(n,  /* kept */\tg(n));", "x = f(n,  /* kept */\tg(n))"),
])
def test_node_text_turns_each_line_breaking_gap_into_one_space(statement, text):
    from appatch.code_model import build_sdg

    source = f"int f(int n){{int x;\n  {statement}\n  return x;}}"
    graph = build_sdg(parse_program([("c.c", source)]))
    assert graph.node("c.c:2:3").text == text


def test_parameter_array_size_uses_flow_into_the_param_def():
    from appatch.code_model import build_sdg

    program = parse_program([("p.c", "int f(int n, int a[n+1]){return a[0];}")])
    graph = build_sdg(program)
    n_def, a_def = (node.id for node in program.functions[0].nodes[1:3])
    assert graph.node(a_def).text == "int a"
    assert graph.node(a_def).uses == ("n",)
    assert (n_def, a_def, "data") in graph.edges


def test_call_in_a_parameter_array_size_is_a_callsite():
    program = parse_program([("p.c", "int f(int s, int a[recv(s, 1)]){return a[0];}")])
    assert program.functions[0].callsites == (("recv", "p.c:1:18"),)


@pytest.mark.parametrize("statement, uses, calls", [
    ("x = b + a * b;", ("b", "a"), ()),
    ("x += b;", ("x", "b"), ()),
    ("p[i] = b + p[a];", ("p", "i", "b", "a"), ()),
    ("x = f(b, a + b) + g() + a;", ("b", "a"), (("f", (("b",), ("a", "b"))), ("g", ()))),
    ("int y[b] = a + b;", ("b", "a"), ()),
])
def test_flow_facts_are_tuples_in_first_read_order(statement, uses, calls):
    source = f"int t(int a, int b, int *p, int x, int i){{\n{statement}\nreturn 0;}}\n"
    (fn,) = parse_program([("e.c", source)]).functions
    (node,) = (n for n in fn.nodes if n.line == 2)
    assert type(node.uses) is tuple and node.uses == uses
    assert node.calls == calls
