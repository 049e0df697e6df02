"""Graph-interchange JSON: admit graphs built by industrial frontends.

One document, two arrays::

    {"nodes": [{"id", "file", "function", "line", "text", "kind"}, ...],
     "edges": [{"src", "dst", "kind"}, ...]}

Every field is required with its exact JSON type; ``line`` is an integer
from 1 to ``MAX_LINE`` and node ids are distinct.  Extra keys anywhere are ignored.
Validation failures carry the JSON path of the offending field; the first
bad record is the one reported, every node before any edge.  Within a
node its first bad field in the order above wins; within an edge a missing
or mistyped field or a bad kind wins over a dangling ``src``, then ``dst``.
"""

from __future__ import annotations

import json
import re
from operator import itemgetter
from typing import Any, Dict, List, NoReturn, Tuple

from .model import (
    EDGE_KINDS,
    STATEMENT_KINDS,
    DependenceGraph,
    FunctionDef,
    GraphFormatError,
    Program,
    StatementNode,
    infer_entry_function,
)
from .parser import CHAR_LITERAL, STRING_LITERAL, TYPE_KEYWORDS


def export_graph(graph: DependenceGraph) -> Dict[str, Any]:
    """Serialize a graph to the interchange document shape."""
    nodes = []
    for nid in graph.sorted_node_ids():
        node = graph.nodes[nid]
        nodes.append({
            "id": node.id,
            "file": node.file,
            "function": node.function,
            "line": node.line,
            "text": node.text,
            "kind": node.kind,
        })
    edges = [
        {"src": src, "dst": dst, "kind": kind}
        for src, dst, kind in sorted(graph.edges)
    ]
    return {"nodes": nodes, "edges": edges}


def dump_graph(graph: DependenceGraph) -> str:
    return json.dumps(export_graph(graph), indent=2, sort_keys=True) + "\n"


def _require(value: Any, typ, path: str, describe: str) -> Any:
    # JSON decodes to exact builtin types, so a bool is never an int here.
    if type(value) is not typ:
        raise GraphFormatError(f"expected {describe}", path)
    return value


def _field(obj: Dict[str, Any], name: str, typ, path: str, describe: str) -> Any:
    if name not in obj:
        raise GraphFormatError("missing required field", f"{path}.{name}")
    return _require(obj[name], typ, f"{path}.{name}", describe)


_NODE_KINDS = frozenset(STATEMENT_KINDS)
_EDGE_KINDS = frozenset(EDGE_KINDS)
_node_fields = itemgetter("id", "file", "function", "line", "text", "kind")
_edge_fields = itemgetter("src", "dst", "kind")
_NO_FLOW = ((), (), ())   # an imported node's defs, uses, calls
# The import writes out every line of a file up to its last node's, so a
# line number, not the document's size, would set the memory it takes.
MAX_LINE = 1_000_000


def import_graph(document: Any) -> Tuple[Program, DependenceGraph]:
    """Validate an interchange document and rebuild (Program, graph).

    Node texts and line numbers are preserved verbatim; a function whose
    nodes lie in two files is refused.  Accepts either a parsed document or
    its JSON text.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"not valid JSON: {exc.msg}", "$") from exc
    _require(document, dict, "$", "an object")
    raw_nodes = _field(document, "nodes", list, "$", "an array")
    raw_edges = _field(document, "edges", list, "$", "an array")

    # One predicate per record; only a record that fails it is walked again,
    # field by field, to name the error.  A record's index is the count of
    # records accepted before it.
    nodes: Dict[str, StatementNode] = {}
    for item in raw_nodes:
        if type(item) is not dict:
            _reject_node(item, len(nodes), nodes)
        try:
            fields = _node_fields(item)
        except KeyError:
            _reject_node(item, len(nodes), nodes)
        node_id, file, function, line, text, kind = fields
        if not (type(node_id) is str and type(file) is str and type(function) is str
                and type(line) is int and 1 <= line <= MAX_LINE and type(text) is str
                and type(kind) is str and kind in _NODE_KINDS and node_id not in nodes):
            _reject_node(item, len(nodes), nodes)
        nodes[node_id] = tuple.__new__(StatementNode, fields + _NO_FLOW)

    edges: List[Tuple[str, str, str]] = []
    for item in raw_edges:
        if type(item) is not dict:
            _reject_edge(item, len(edges), nodes)
        try:
            edge = _edge_fields(item)
        except KeyError:
            _reject_edge(item, len(edges), nodes)
        src, dst, kind = edge
        if not (type(src) is str and type(dst) is str and type(kind) is str
                and kind in _EDGE_KINDS and src in nodes and dst in nodes):
            _reject_edge(item, len(edges), nodes)
        edges.append(edge)

    graph = DependenceGraph(nodes=nodes, edges=frozenset(edges))
    program = _reconstruct_program(graph)
    return program, graph


def _reject_node(item: Any, i: int, nodes: Dict[str, StatementNode]) -> NoReturn:
    """Raise the error for node ``i``, which failed the record check."""
    path = f"$.nodes[{i}]"
    _require(item, dict, path, "an object")
    node_id = _field(item, "id", str, path, "a string")
    if node_id in nodes:
        raise GraphFormatError(f"duplicate node id {node_id!r}", f"{path}.id")
    _field(item, "file", str, path, "a string")
    _field(item, "function", str, path, "a string")
    line = _field(item, "line", int, path, "an integer")
    if not 1 <= line <= MAX_LINE:
        raise GraphFormatError("line must be >= 1" if line < 1 else f"line must be <= {MAX_LINE}",
                               f"{path}.line")
    _field(item, "text", str, path, "a string")
    if _field(item, "kind", str, path, "a string") not in _NODE_KINDS:
        raise GraphFormatError(
            f"kind must be one of {', '.join(STATEMENT_KINDS)}", f"{path}.kind"
        )
    raise AssertionError(f"{path} failed the record check but names no error")


def _reject_edge(item: Any, i: int, nodes: Dict[str, StatementNode]) -> NoReturn:
    """Raise the error for edge ``i``, which failed the record check."""
    path = f"$.edges[{i}]"
    _require(item, dict, path, "an object")
    src = _field(item, "src", str, path, "a string")
    dst = _field(item, "dst", str, path, "a string")
    if _field(item, "kind", str, path, "a string") not in _EDGE_KINDS:
        raise GraphFormatError(
            f"kind must be one of {'|'.join(EDGE_KINDS)}", f"{path}.kind"
        )
    if src not in nodes:
        raise GraphFormatError(f"dangling edge: unknown node {src!r}", f"{path}.src")
    if dst not in nodes:
        raise GraphFormatError(f"dangling edge: unknown node {dst!r}", f"{path}.dst")
    raise AssertionError(f"{path} failed the record check but names no error")


# Call edges only exist for callees defined in the graph; callsites of
# library functions are recovered from the statement text, the callee a
# name or a parenthesised name, as in ``(recv)(n, 1)`` or ``((recv))(n, 1)``.
# A parenthesised name is a callee only when no more parentheses close after
# it than open just before it: in ``(a + (recv))(n)`` the call is through
# ``a + (recv)``.  A string or char literal, or a block comment, matches as
# a whole with an empty name, so no call inside one is found; a type name in
# parentheses is a cast.
_CALL_RE = re.compile(
    rf"{STRING_LITERAL}|{CHAR_LITERAL}|/\*.*?\*/"
    r"|\b([A-Za-z_][A-Za-z0-9_]*)\s*\("
    r"|((?:\(\s*)+)([A-Za-z_][A-Za-z0-9_]*)((?:\s*\))+)\s*\("
)
_NON_CALLS = frozenset({"", "if", "while", "for", "return", "sizeof", "switch"} | TYPE_KEYWORDS)


def _reconstruct_program(graph: DependenceGraph) -> Program:
    """Best-effort Program for an imported graph.

    Source text is synthesized per line from node texts, which is enough
    for slice rendering; callsites come from call edges and, for callees
    the graph does not define, from the statement text.
    """
    nodes = graph.nodes
    calls_at: Dict[str, List[str]] = {}
    for src, dst in sorted((src, dst) for src, dst, kind in graph.edges if kind == "call"):
        callee = nodes[dst]
        if callee.kind == "entry":
            calls_at.setdefault(src, []).append(callee.function)

    # function -> (its nodes, its callsites); file -> line -> text
    members: Dict[str, Tuple[List[StatementNode], List[Tuple[str, str]]]] = {}
    lines: Dict[str, Dict[int, str]] = {}
    for nid in graph.sorted_node_ids():
        node = nodes[nid]
        group = members.get(node.function)
        if group is None:
            group = members[node.function] = ([], [])
        group[0].append(node)
        texts = lines.get(node.file)
        if texts is None:
            texts = lines[node.file] = {}
        text = node.text
        texts.setdefault(node.line, text)
        callees = calls_at.get(nid)
        if "(" in text and node.kind not in ("entry", "param-def"):
            # The text's calls in order, repeats kept, as the parser lists
            # them; then any callee that only a call edge names.
            names = [name for called, opens, parenthesised, closes in _CALL_RE.findall(text)
                     if (name := called or parenthesised) not in _NON_CALLS
                     and closes.count(")") <= opens.count("(")]
            if callees:
                names += [callee for callee in callees if callee not in names]
            callees = names
        if callees:
            group[1].extend([(callee, nid) for callee in callees])

    # Nodes come file-major and in line order, so a function in two files starts in
    # one and ends in another, and one in a single file spans its first to its last node.
    for name, (fn_nodes, _) in members.items():
        if fn_nodes[0].file != fn_nodes[-1].file:
            other = next(node for node in fn_nodes if node.file != fn_nodes[0].file)
            raise GraphFormatError(f"function {name!r} has nodes in both {fn_nodes[0].file} "
                                   f"and {other.file}", f"$.nodes[{list(nodes).index(other.id)}]")
    functions = [
        FunctionDef(
            name=name,
            file=fn_nodes[0].file,
            nodes=tuple(fn_nodes),
            callsites=tuple(sites),
            start_line=fn_nodes[0].line,
            end_line=fn_nodes[-1].line,
        )
        for name, (fn_nodes, sites) in sorted(members.items())
    ]
    files = tuple(
        (path, "\n".join(texts.get(i, "") for i in range(1, max(texts) + 1)))
        for path, texts in sorted(lines.items())
    )
    return Program(
        files=files,
        functions=tuple(functions),
        entry_function=infer_entry_function(functions),
    )
