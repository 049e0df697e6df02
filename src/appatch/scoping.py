"""Vulnerability-focused slicing over the dependence graph.

The slice for a (vulnerable statement, external input) pair is the set of
nodes lying on a dependence path from the input to the statement; the
overall result unions these over every pair, so statements no external
input can influence stay out of scope.  That union is computed with the
graph's two walks: the nodes reachable from some input that also reach
some vulnerable statement.
"""

from __future__ import annotations

import logging
import re
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Set, Tuple

from .code_model.model import DependenceGraph, ExternalInputSet, Program, UnknownNodeError

log = logging.getLogger(__name__)

_CWE_PATTERN = re.compile(r"^CWE-\d+$")


class ScopingError(Exception):
    """Raised when slicing inputs do not resolve against the graph."""


class _VulnSpecValue(NamedTuple):
    vulnerable_lines: Tuple[Tuple[str, int], ...]   # (file, 1-based line)
    cwe_ids: Tuple[str, ...]


class VulnSpec(_VulnSpecValue):
    """Where a vulnerability manifests and what kind it is."""

    __slots__ = ()

    def __new__(
        cls, vulnerable_lines: Tuple[Tuple[str, int], ...], cwe_ids: Tuple[str, ...],
    ) -> "VulnSpec":
        if not vulnerable_lines:
            raise ValueError("at least one vulnerable line is required")
        for cwe in cwe_ids:
            if not _CWE_PATTERN.match(cwe):
                raise ValueError(f"bad CWE id: {cwe!r}")
        return tuple.__new__(cls, (vulnerable_lines, cwe_ids))


class _SliceValue(NamedTuple):
    node_ids: FrozenSet[str]
    sv_ids: FrozenSet[str]
    ei_ids: FrozenSet[str]           # external inputs inside the slice
    fallback: bool


class SliceResult(_SliceValue):
    """Union slice with the vulnerable nodes and external inputs inside it."""

    __slots__ = ()

    def __new__(
        cls,
        node_ids: FrozenSet[str],
        sv_ids: FrozenSet[str],
        ei_ids: FrozenSet[str],
        fallback: bool = False,
    ) -> "SliceResult":
        if not sv_ids <= node_ids:
            raise ValueError("sv_ids must be a subset of node_ids")
        if not ei_ids <= node_ids:
            raise ValueError("ei_ids must be a subset of node_ids")
        return tuple.__new__(cls, (node_ids, sv_ids, ei_ids, fallback))

    def to_document(self, graph: DependenceGraph) -> Dict[str, object]:
        return {
            "nodes": sorted(self.node_ids, key=graph.sort_key),
            "sv": sorted(self.sv_ids, key=graph.sort_key),
            "ei": sorted(self.ei_ids, key=graph.sort_key),
            "fallback": self.fallback,
        }


class RenderedSlice(NamedTuple):
    """Slice text restricted to a demanded function set.

    ``text`` lists each surviving source line once, prefixed with its
    original line number, grouped per file and ordered by line.
    """

    text: str
    included_functions: FrozenSet[str]
    listed_ei: FrozenSet[str]


def resolve_vulnerable_nodes(
    graph: DependenceGraph, spec: VulnSpec
) -> FrozenSet[str]:
    """Map the given (file, line) pairs to node ids; all nodes on a line count."""
    resolved: Set[str] = set()
    missing: List[str] = []
    for file, line in spec.vulnerable_lines:
        hits = graph.nodes_at(file, line)
        if not hits:
            missing.append(f"{file}:{line}")
        resolved.update(hits)
    if missing:
        raise ScopingError(
            "vulnerable lines resolve to no graph node: " + ", ".join(missing)
        )
    return frozenset(resolved)


def vulnerability_semantics(
    graph: DependenceGraph,
    spec: VulnSpec,
    ei: ExternalInputSet,
) -> SliceResult:
    """Union of pair slices over every (external input, vulnerable node) pair.

    A node lies on a path from some input to some vulnerable node exactly
    when it is forward-reachable from the inputs and backward-reachable
    from the vulnerable nodes, so the union is one intersection of two
    traversals.  Resolved vulnerable nodes are always kept.  When no
    external input reaches any of them the full backward closure is used
    instead and the result is flagged as a fallback.  An unknown input id
    raises :class:`UnknownNodeError`, the smallest one named.
    """
    sv_ids = resolve_vulnerable_nodes(graph, spec)
    unknown = [node_id for node_id in ei.ids if node_id not in graph.nodes]
    if unknown:
        raise UnknownNodeError(min(unknown))
    backward = graph.backward(sv_ids)
    union = graph.forward(ei.ids) & backward

    fallback = not union
    if fallback:
        log.warning(
            "no external input reaches any vulnerable node; "
            "falling back to the backward closure of %d node(s)", len(sv_ids)
        )
        union = backward
    union |= sv_ids

    return SliceResult(
        node_ids=frozenset(union),
        sv_ids=sv_ids,
        ei_ids=frozenset(ei.ids & union),
        fallback=fallback,
    )


def render_slice(
    result: SliceResult,
    program: Program,
    graph: DependenceGraph,
    functions: Iterable[str],
) -> RenderedSlice:
    """Project the slice onto a function set as numbered source text.

    Each included function contributes its signature line plus the slice
    lines it owns; external inputs outside the requested functions are
    dropped from ``listed_ei``.  Every such line has source text: an
    imported program's text is rebuilt from its nodes' lines.
    """
    wanted = frozenset(functions)
    if not wanted:
        raise ValueError("functions must be non-empty")

    lines: Set[Tuple[str, int]] = set()
    included: Set[str] = set()
    for node_id in result.node_ids:
        node = graph.node(node_id)
        if node.function in wanted:
            lines.add((node.file, node.line))
            included.add(node.function)

    if not lines:
        log.warning("slice does not intersect functions %s", sorted(wanted))

    for fn in program.functions:
        if fn.name in included:
            lines.add((fn.file, fn.start_line))

    by_file: Dict[str, List[int]] = {}
    for file, line in lines:
        by_file.setdefault(file, []).append(line)

    chunks: List[str] = []
    for file in sorted(by_file):
        for line in sorted(set(by_file[file])):
            chunks.append(f"{line}: {program.source_line(file, line).rstrip()}")

    listed_ei = frozenset(
        node_id for node_id in result.ei_ids
        if graph.node(node_id).function in included
    )
    return RenderedSlice(
        text="\n".join(chunks),
        included_functions=frozenset(included),
        listed_ei=listed_ei,
    )


def functions_containing(graph: DependenceGraph, node_ids: Iterable[str]) -> FrozenSet[str]:
    return frozenset(graph.node(nid).function for nid in node_ids)
