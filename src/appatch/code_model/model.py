"""Program model: statements, functions, and the dependence graph they hang off.

Node identifiers are deterministic ``file:line:col`` strings so that two
parses of the same sources always produce the same graph.
"""

from __future__ import annotations

from typing import (
    Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple,
    TypeVar,
)

STATEMENT_KINDS = (
    "assign",
    "call",
    "branch",
    "loop-header",
    "return",
    "decl",
    "param-def",
    "entry",
)

EDGE_KINDS = ("data", "control", "call", "param")


class CodeModelError(Exception):
    """Base class for errors raised by the code model."""


class ParseError(CodeModelError):
    """Syntax error with a source location."""

    def __init__(self, message: str, file: str, line: int, col: int):
        super().__init__(f"{file}:{line}:{col}: {message}")
        self.message = message
        self.file = file
        self.line = line
        self.col = col


class UnsupportedConstructError(ParseError):
    """Input uses a construct outside the supported C subset."""

    def __init__(self, construct: str, file: str, line: int, col: int):
        super().__init__(f"unsupported construct: {construct}", file, line, col)
        self.construct = construct


class GraphFormatError(CodeModelError):
    """Graph-interchange document violates the schema.

    ``json_path`` points at the offending field, e.g. ``$.nodes[3].line``.
    """

    def __init__(self, message: str, json_path: str):
        super().__init__(f"{json_path}: {message}")
        self.message = message
        self.json_path = json_path


class UnknownNodeError(CodeModelError):
    """An operation referenced a node id absent from the graph."""

    def __init__(self, node_id: str):
        super().__init__(f"unknown node id: {node_id}")
        self.node_id = node_id


def node_id_for(file: str, line: int, col: int) -> str:
    return f"{file}:{line}:{col}"


def _column(node_id: str) -> int:
    """The ``col`` of a ``file:line:col`` id; 0 for an id without one."""
    head, _, tail = node_id.rpartition(":")
    return int(tail) if ":" in head and tail.isdecimal() else 0


Names = Tuple[str, ...]   # variable names, in first-read order, each once
CallFact = Tuple[str, Tuple[Names, ...]]   # (callee, per-argument uses)


class StatementNode(NamedTuple):
    """One statement-level vertex of the dependence graph.

    The parser fills in the flow facts, each a tuple of names without
    repeats, uses in the order the statement first reads them; an imported
    graph knows only the structural fields, so its nodes keep the empty
    defaults.
    """

    id: str          # file:line:col
    file: str
    function: str
    line: int
    text: str
    kind: str
    defs: Names = ()
    uses: Names = ()
    calls: Tuple[CallFact, ...] = ()   # in pre-order: a call before its arguments


class ReadOnly:
    """Mixin for a record that keeps state outside its tuple in ``__dict__``.

    Its ``__new__`` sets that state up through ``vars(self)``; after that
    no attribute can be assigned or deleted, fields or not.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name!r}")


class _FunctionValue(NamedTuple):
    name: str
    file: str
    nodes: Tuple[StatementNode, ...]
    callsites: Tuple[Tuple[str, str], ...]  # (callee name, node id)
    start_line: int
    end_line: int


class FunctionDef(ReadOnly, _FunctionValue):
    """One function: its graph nodes, its callsites and, from the parser, its control flow.

    ``nodes`` are in source order, entry first.  The control flow refers
    to nodes by position in ``nodes``: ``cfg_preds[i]`` holds the CFG
    predecessors of node ``i`` (a ``return`` is no node's predecessor),
    and each ``(header, start, end)`` of ``control_scopes`` says that
    ``nodes[start:end]`` is the syntactic scope of branch or loop header
    ``header``.  :func:`build_sdg` derives control edges from both.  Both
    stay empty in a function an imported graph rebuilds or that is made by
    hand; :func:`build_sdg` needs them filled in.  They are kept outside
    the function's value, so equality ignores them.
    """

    def __new__(
        cls,
        name: str,
        file: str,
        nodes: Tuple[StatementNode, ...],
        callsites: Tuple[Tuple[str, str], ...],
        start_line: int,
        end_line: int,
        cfg_preds: Tuple[Tuple[int, ...], ...] = (),
        control_scopes: Tuple[Tuple[int, int, int], ...] = (),
    ) -> "FunctionDef":
        self = tuple.__new__(cls, (name, file, nodes, callsites, start_line, end_line))
        vars(self).update(cfg_preds=cfg_preds, control_scopes=control_scopes)
        return self


def infer_entry_function(functions: Sequence[FunctionDef]) -> Optional[str]:
    """``main`` when defined, else the one function no defined function calls."""
    if any(fn.name == "main" for fn in functions):
        return "main"
    called = {callee for fn in functions for callee, _ in fn.callsites}
    roots = [fn.name for fn in functions if fn.name not in called]
    return roots[0] if len(roots) == 1 else None


class _ProgramValue(NamedTuple):
    files: Tuple[Tuple[str, str], ...]   # (path, source text)
    functions: Tuple[FunctionDef, ...]
    entry_function: Optional[str]


class Program(ReadOnly, _ProgramValue):
    """A set of source files and the functions parsed out of them.

    Its lookup indexes are built once from the fields, outside its value.
    """

    def __new__(
        cls,
        files: Tuple[Tuple[str, str], ...],
        functions: Tuple[FunctionDef, ...],
        entry_function: Optional[str] = None,
    ) -> "Program":
        names = [f.name for f in functions]
        if len(names) != len(set(names)):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate function names: {', '.join(dup)}")
        lines: Dict[str, Tuple[str, ...]] = {}
        for path, text in files:
            lines.setdefault(path, tuple(text.split("\n")))
        for fn in functions:
            table = lines.get(fn.file)
            if table is not None and fn.end_line > len(table):
                raise ValueError(
                    f"function {fn.name} ends at line {fn.end_line}, "
                    f"but {fn.file} has only {len(table)} lines"
                )
        callers: Dict[str, List[str]] = {}
        for fn in functions:
            for callee, _node in fn.callsites:
                found = callers.setdefault(callee, [])
                if not found or found[-1] != fn.name:
                    found.append(fn.name)
        self = tuple.__new__(cls, (files, functions, entry_function))
        vars(self).update(
            _lines=lines,
            _by_name={f.name: f for f in functions},
            _callers={k: tuple(v) for k, v in callers.items()},
        )
        return self

    def function(self, name: str) -> FunctionDef:
        return self._by_name[name]

    def function_names(self) -> FrozenSet[str]:
        return frozenset(self._by_name)

    def callers_of(self, callee: str) -> Tuple[str, ...]:
        """Names of functions containing a callsite of ``callee``, in definition order."""
        return self._callers.get(callee, ())

    def source_line(self, file: str, line: int) -> Optional[str]:
        lines = self._lines.get(file)
        if lines is None or not 1 <= line <= len(lines):
            return None
        return lines[line - 1]


_Node = TypeVar("_Node", str, int)   # a node id, or a position in a function's nodes


def _reach(step: Mapping[_Node, Sequence[_Node]], starts: Iterable[_Node]) -> Set[_Node]:
    """Every node reachable from ``starts`` along ``step``, starts included."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for neighbour in step.get(stack.pop(), ()):
            if neighbour not in seen:
                seen.add(neighbour)
                stack.append(neighbour)
    return seen


class _GraphValue(NamedTuple):
    nodes: Mapping[str, StatementNode]
    edges: FrozenSet[Tuple[str, str, str]]


class DependenceGraph(ReadOnly, _GraphValue):
    """Statement nodes plus typed dependence edges.

    An edge ``(u, v, kind)`` means v depends on u; slicing walks edges
    backward from the criterion and forward from the inputs, with
    :meth:`forward` and :meth:`backward`.  The indexes below are built once
    from the fields, outside the graph's value, and read by no other module:

    * ``_succ`` / ``_pred``: node id -> neighbour ids, for nodes that have
      any; an edge's kind is kept in ``edges`` only;
    * ``_at``: file -> line -> node ids on that line, in column order, ties
      in document order;
    * ``_place``: node id -> position in ``_at``, for nodes on a shared line.
    """

    def __new__(
        cls,
        nodes: Mapping[str, StatementNode],
        edges: FrozenSet[Tuple[str, str, str]],
    ) -> "DependenceGraph":
        succ: Dict[str, List[str]] = {}
        pred: Dict[str, List[str]] = {}
        # Adjacency order is unobservable: every walk over it is set-based.
        for src, dst, _kind in edges:
            succ.setdefault(src, []).append(dst)
            pred.setdefault(dst, []).append(src)
        # Tuples, not lists: the collector stops tracking a tuple of strings.
        # A file's table is looked up once per run of its nodes.
        at: Dict[str, Dict[int, Tuple[str, ...]]] = {}
        shared: Dict[Tuple[str, int], List[str]] = {}
        file = table = None
        for node in nodes.values():
            if node.file != file:
                file = node.file
                table = at.setdefault(file, {})
            line = node.line
            if line in table:
                shared.setdefault((file, line), list(table[line])).append(node.id)
            else:
                table[line] = (node.id,)
        place: Dict[str, int] = {}
        for (file, line), ids in shared.items():
            ids.sort(key=_column)   # stable: ties stay in document order
            at[file][line] = tuple(ids)
            place.update(zip(ids, range(len(ids))))
        self = tuple.__new__(cls, (nodes, edges))
        vars(self).update(_succ=succ, _pred=pred, _at=at, _place=place)
        return self

    def forward(self, starts: Iterable[str]) -> Set[str]:
        """Every node some dependence path leads to from ``starts``, starts included."""
        return _reach(self._succ, starts)

    def backward(self, starts: Iterable[str]) -> Set[str]:
        """Every node with a dependence path to ``starts``, starts included."""
        return _reach(self._pred, starts)

    def node(self, node_id: str) -> StatementNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def sorted_node_ids(self) -> List[str]:
        ids: List[str] = []
        for file in sorted(self._at):
            table = self._at[file]
            for line in sorted(table):
                ids.extend(table[line])
        return ids

    def sort_key(self, node_id: str) -> Tuple[str, int, int]:
        """File, line, then the node's place in ``nodes_at`` order."""
        node = self.node(node_id)
        return (node.file, node.line, self._place.get(node_id, 0))

    def nodes_at(self, file: str, line: int) -> List[str]:
        """All node ids attributed to a source line, in column order."""
        return list(self._at.get(file, {}).get(line, ()))


class ExternalInputSet(NamedTuple):
    """External-input sites: the node ids of a dependence graph."""

    ids: FrozenSet[str]
