"""Brute-force reference implementations shared by the test suite.

Everything here recomputes results with plain breadth-first set algebra,
independent of the library's traversal code; control scopes are re-derived
from the token stream alone, independent of the parser's grammar.  The
token stream is :func:`tokenize`, a record view of the parser's own scan.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, NamedTuple, Set, Tuple

from appatch.code_model.model import DependenceGraph, StatementNode
from appatch.code_model.parser import _line_starts, _position, _scan


class Token(NamedTuple):
    kind: str        # ident | num | string | char | punct | eof
    value: str
    line: int
    col: int
    start: int       # offsets into the source text, for excerpting
    end: int


_KINDS = {"": "eof", '"': "string", "'": "char"}


def _kind(value: str) -> str:
    """A token's kind, read off its first character."""
    first = value[:1]
    if first.isalpha() or first == "_":
        return "ident"
    if first.isdigit():
        return "num"
    return _KINDS.get(first, "punct")


def tokenize(file: str, text: str) -> List[Token]:
    """The parser's scan as :class:`Token` records, end of input last.

    A view for tests: the parser reads the scan's flat arrays and makes no
    record per token.  Lexer errors propagate as the parser raises them.
    """
    values, starts = _scan(file, text)
    lines = _line_starts(text)
    return [Token(_kind(value), value, *_position(lines, start), start, start + len(value))
            for value, start in zip(values, starts)]


def bfs(adjacency: Dict[str, List[str]], start: str) -> Set[str]:
    seen = {start}
    frontier = [start]
    while frontier:
        next_frontier = []
        for node in frontier:
            for neighbor in adjacency.get(node, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return seen


def adjacency_maps(graph: DependenceGraph):
    forward: Dict[str, List[str]] = {nid: [] for nid in graph.nodes}
    backward: Dict[str, List[str]] = {nid: [] for nid in graph.nodes}
    for src, dst, _kind in graph.edges:
        forward[src].append(dst)
        backward[dst].append(src)
    return forward, backward


def union_slice_oracle(
    graph: DependenceGraph,
    sv_ids: FrozenSet[str],
    ei_ids: FrozenSet[str],
) -> Tuple[FrozenSet[str], bool]:
    """forward-reachable(ei) ∩ backward-reachable(sv), unioned over pairs.

    Vulnerable nodes are always kept; when no pair connects, the result is
    the backward closure of the vulnerable nodes with the fallback flag.
    """
    forward, backward = adjacency_maps(graph)
    union: Set[str] = set()
    for ei in ei_ids:
        reach_forward = bfs(forward, ei)
        for sv in sv_ids:
            union |= reach_forward & bfs(backward, sv)
    fallback = not union
    if fallback:
        for sv in sv_ids:
            union |= bfs(backward, sv)
    union |= set(sv_ids)
    return frozenset(union), fallback


def random_dag(
    rng: random.Random,
    max_nodes: int = 50,
    max_sv: int = 3,
    max_ei: int = 3,
) -> Tuple[DependenceGraph, FrozenSet[str], FrozenSet[str]]:
    """A random DAG instance with vulnerable nodes and external inputs."""
    node_count = rng.randint(2, max_nodes)
    ids = [f"g.c:{i + 1}:1" for i in range(node_count)]
    nodes = [
        StatementNode(
            id=ids[i], file="g.c", function="f", line=i + 1,
            text=f"stmt_{i}", kind="assign",
        )
        for i in range(node_count)
    ]
    edges = set()
    density = rng.uniform(0.02, 0.15)
    for i in range(node_count):
        for j in range(i + 1, node_count):
            if rng.random() < density:
                edges.add((ids[i], ids[j], "data"))
    graph = DependenceGraph(nodes={n.id: n for n in nodes}, edges=frozenset(edges))
    sv = frozenset(rng.sample(ids, rng.randint(1, min(max_sv, node_count))))
    ei = frozenset(rng.sample(ids, rng.randint(0, min(max_ei, node_count))))
    return graph, sv, ei


_TYPE_WORDS = {
    "void", "int", "char", "long", "short", "float", "double",
    "unsigned", "signed", "const", "static", "size_t",
}


def syntactic_control_edges(file: str, text: str) -> Set[Tuple[str, str, str]]:
    """Header -> every statement node in its syntactic scope, from tokens alone.

    Matching parentheses and braces delimit each statement.  An ``if``
    governs its then and else branches, a ``while`` its body, a ``for`` its
    body and its update.  A statement's node sits at its first token, a
    declaration's at each declarator name.
    """
    toks = tokenize(file, text)
    closer: Dict[int, int] = {}   # index of each ( { [ -> index of its match
    stack: List[int] = []
    for i, tok in enumerate(toks):
        if tok.kind == "punct" and tok.value in ("(", "{", "["):
            stack.append(i)
        elif tok.kind == "punct" and tok.value in (")", "}", "]"):
            closer[stack.pop()] = i

    def node_id(i: int) -> str:
        return f"{file}:{toks[i].line}:{toks[i].col}"

    def skip_to(i: int, value: str) -> int:
        """Index of the next ``value`` at this nesting depth."""
        while toks[i].value != value:
            i = closer.get(i, i) + 1
        return i

    def end(i: int) -> int:
        """Index just past the statement that starts at token ``i``."""
        head = toks[i].value
        if head == "{":
            return closer[i] + 1
        if head in ("if", "while", "for"):
            after = end(closer[i + 1] + 1)
            if head == "if" and toks[after].value == "else":
                after = end(after + 1)
            return after
        return skip_to(i, ";") + 1

    def simple(i: int) -> List[str]:
        """Nodes of the declaration or simple statement at ``i``."""
        if toks[i].value not in _TYPE_WORDS:
            return [node_id(i)]
        while toks[i].value in _TYPE_WORDS or toks[i].value == "*":
            i += 1
        names = [node_id(i)]
        while toks[i].value != ";":
            if toks[i].value == ",":
                names.append(node_id(i + 1))
            i = closer.get(i, i) + 1
        return names

    edges: Set[Tuple[str, str, str]] = set()

    def statements(i: int, stop: int) -> List[str]:
        """Nodes of the statements in ``[i, stop)``; records each header's scope."""
        found: List[str] = []
        while i < stop:
            head = toks[i].value
            if head == "else":   # the rest of an ``if`` whose scope is being read
                i += 1
                continue
            after = end(i)
            if head == "{":
                found += statements(i + 1, after - 1)
            elif head in ("if", "while"):
                governed = statements(closer[i + 1] + 1, after)
                found += [node_id(i)] + governed
                edges.update((node_id(i), g, "control") for g in governed)
            elif head == "for":
                close = closer[i + 1]
                init_end = skip_to(i + 2, ";")
                update_at = skip_to(init_end + 1, ";") + 1
                init = [] if init_end == i + 2 else simple(i + 2)
                update = [] if update_at == close else [node_id(update_at)]
                body = statements(close + 1, after)
                found += init + [node_id(i)] + update + body
                edges.update((node_id(i), g, "control") for g in body + update)
            elif head != ";":
                found += simple(i)
            i = after
        return found

    i = 0
    while toks[i].kind != "eof":   # function bodies are the top-level braces
        if toks[i].value == "{":
            statements(i + 1, closer[i])
        i = closer.get(i, i) + 1
    return edges
