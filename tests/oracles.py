"""Brute-force reference implementations shared by the test suite.

Everything here recomputes results with plain breadth-first set algebra,
independent of the library's traversal code; control dependence is
re-derived from the token stream alone, independent of the parser's
grammar and of the CFG it records.  The
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

EXIT = "<exit>"


def control_closure(edges) -> Set[Tuple[str, str, str]]:
    """``(h, v, "control")`` for each v that a chain of control edges leads
    to from h, h itself left out: a node's dependence on itself moves no
    slice."""
    step: Dict[str, Set[str]] = {}
    for src, dst, kind in edges:
        if kind == "control":
            step.setdefault(src, set()).add(dst)
    return {(src, dst, "control") for src in step for dst in bfs(step, src) if dst != src}


def control_dependence(file: str, text: str) -> Set[Tuple[str, str, str]]:
    """Control dependence as Ferrante, Ottenstein and Warren define it, from
    tokens alone, closed by :func:`control_closure`.

    Each function's CFG is built here: matching parentheses and braces
    delimit each statement, an ``if`` flows into its branches and past
    them, a loop back to its header (a ``for`` through its update), and
    each ``return`` and the body's end flow into a virtual exit.  v
    post-dominates u iff u cannot reach the exit once v is removed.  Y
    depends on header X iff Y post-dominates (or is) a successor of X and
    does not strictly post-dominate X.  A statement's node sits at its
    first token, a declaration's at each declarator name.
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

    succ: Dict[str, Set[str]] = {}   # the function's CFG, exit included
    headers: List[str] = []

    def flow(preds: List[str], target: str) -> List[str]:
        succ.setdefault(target, set())
        for pred in preds:
            succ[pred].add(target)
        return [target]

    def statement(i: int, preds: List[str]) -> Tuple[int, List[str]]:
        """Wires the statement at ``i`` after ``preds``: the index past it,
        and the nodes control leaves it by."""
        head = toks[i].value
        if head == ";":
            return i + 1, preds
        if head == "{":
            stop, i = closer[i], i + 1
            while i < stop:
                i, preds = statement(i, preds)
            return stop + 1, preds
        if head == "return":
            flow(flow(preds, node_id(i)), EXIT)
            return skip_to(i, ";") + 1, []
        if head not in ("if", "while", "for"):
            for nid in simple(i):
                preds = flow(preds, nid)
            return skip_to(i, ";") + 1, preds
        close, back = closer[i + 1], node_id(i)
        if head == "for":
            init_end = skip_to(i + 2, ";")
            if init_end > i + 2:
                for nid in simple(i + 2):
                    preds = flow(preds, nid)
            update_at = skip_to(init_end + 1, ";") + 1
            if update_at != close:
                back = node_id(update_at)
                flow(flow([], back), node_id(i))
        header = flow(preds, node_id(i))
        headers.extend(header)
        after, leave = statement(close + 1, header)
        if head != "if":
            flow(leave, back)
            return after, header
        if toks[after].value == "else":
            after, other = statement(after + 1, header)
            return after, leave + other
        return after, leave + header

    direct: Set[Tuple[str, str, str]] = set()
    i = 0
    while toks[i].kind != "eof":   # function bodies are the top-level braces
        if toks[i].value == "{":
            succ.clear()
            headers.clear()
            flow(statement(i, [])[1], EXIT)
            pred: Dict[str, List[str]] = {}
            for src, targets in succ.items():
                for dst in targets:
                    pred.setdefault(dst, []).append(src)
            # escape[v]: the nodes that reach the exit once v is removed
            escape = {}
            for v in set(succ) - {EXIT}:
                pred_without_v = {dst: [src for src in srcs if src != v]
                                  for dst, srcs in pred.items() if dst != v}
                escape[v] = bfs(pred_without_v, EXIT)
            for x in headers:
                for b in succ[x] - {EXIT}:
                    direct.update((x, y, "control") for y in succ
                                  if y != EXIT and (y == b or b not in escape[y])
                                  and (y == x or x in escape[y]))
        i = closer.get(i, i) + 1
    return control_closure(direct)
