"""Graph-interchange JSON: admit graphs built by industrial frontends.

One document, two arrays::

    {"nodes": [{"id", "file", "function", "line", "text", "kind"}, ...],
     "edges": [{"src", "dst", "kind"}, ...]}

Validation failures carry the JSON path of the offending field.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Tuple

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


def import_graph(document: Any) -> Tuple[Program, DependenceGraph]:
    """Validate an interchange document and rebuild (Program, graph).

    Node texts and line numbers are preserved verbatim.  Accepts either a
    parsed document or its JSON text.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"not valid JSON: {exc.msg}", "$") from exc
    _require(document, dict, "$", "an object")
    raw_nodes = _field(document, "nodes", list, "$", "an array")
    raw_edges = _field(document, "edges", list, "$", "an array")

    nodes: List[StatementNode] = []
    seen = set()
    for i, item in enumerate(raw_nodes):
        path = f"$.nodes[{i}]"
        _require(item, dict, path, "an object")
        node_id = _field(item, "id", str, path, "a string")
        if node_id in seen:
            raise GraphFormatError(f"duplicate node id {node_id!r}", f"{path}.id")
        seen.add(node_id)
        file = _field(item, "file", str, path, "a string")
        function = _field(item, "function", str, path, "a string")
        line = _field(item, "line", int, path, "an integer")
        if line < 1:
            raise GraphFormatError("line must be >= 1", f"{path}.line")
        text = _field(item, "text", str, path, "a string")
        kind = _field(item, "kind", str, path, "a string")
        if kind not in STATEMENT_KINDS:
            raise GraphFormatError(
                f"kind must be one of {', '.join(STATEMENT_KINDS)}", f"{path}.kind"
            )
        nodes.append(StatementNode(
            id=node_id, file=file, function=function,
            line=line, text=text, kind=kind,
        ))

    edges = []
    for i, item in enumerate(raw_edges):
        path = f"$.edges[{i}]"
        _require(item, dict, path, "an object")
        src = _field(item, "src", str, path, "a string")
        dst = _field(item, "dst", str, path, "a string")
        kind = _field(item, "kind", str, path, "a string")
        if kind not in EDGE_KINDS:
            raise GraphFormatError(
                f"kind must be one of {'|'.join(EDGE_KINDS)}", f"{path}.kind"
            )
        if src not in seen:
            raise GraphFormatError(f"dangling edge: unknown node {src!r}", f"{path}.src")
        if dst not in seen:
            raise GraphFormatError(f"dangling edge: unknown node {dst!r}", f"{path}.dst")
        edges.append((src, dst, kind))

    graph = DependenceGraph.build(nodes, edges)
    program = _reconstruct_program(graph)
    return program, graph


# Call edges only exist for callees defined in the graph; callsites of
# library functions are recovered from the statement text.
_CALL_RE = re.compile(r"\b([A-Za-z_][A-Za-z0-9_]*)\s*\(")
_NON_CALLS = frozenset({"if", "while", "for", "return", "sizeof", "switch"})


def _reconstruct_program(graph: DependenceGraph) -> Program:
    """Best-effort Program for an imported graph.

    Source text is synthesized per line from node texts, which is enough
    for slice rendering; callsites come from call edges and, for callees
    the graph does not define, from the statement text.
    """
    calls_at: Dict[str, List[str]] = {}
    for src, dst in sorted((src, dst) for src, dst, kind in graph.edges if kind == "call"):
        callee = graph.nodes[dst]
        if callee.kind == "entry":
            calls_at.setdefault(src, []).append(callee.function)

    members: Dict[str, List[StatementNode]] = {}
    callsites: Dict[str, List[Tuple[str, str]]] = {}
    lines: Dict[str, Dict[int, str]] = {}
    for nid in graph.sorted_node_ids():
        node = graph.nodes[nid]
        members.setdefault(node.function, []).append(node)
        lines.setdefault(node.file, {}).setdefault(node.line, node.text)
        callees = calls_at.get(nid, [])
        if node.kind not in ("entry", "param-def"):
            for name in _CALL_RE.findall(node.text):
                if name not in _NON_CALLS and name not in callees:
                    callees.append(name)
        callsites.setdefault(node.function, []).extend(
            (callee, nid) for callee in callees
        )

    functions = [
        FunctionDef(
            name=name,
            file=nodes[0].file,
            statements=tuple(node.id for node in nodes),
            callsites=tuple(callsites[name]),
            start_line=min(node.line for node in nodes),
            end_line=max(node.line for node in nodes),
        )
        for name, nodes in sorted(members.items())
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
