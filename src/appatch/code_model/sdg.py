"""System dependence graph construction over the parsed program model.

The parser wires each function's control-flow graph and branch scopes
as it parses, and keeps them on the function's :class:`FunctionDef` next
to its nodes.  Per function: reaching definitions over the CFG (solved
on int bitsets, one bit per def fact), data edges for surviving def-use
pairs, and control edges from each branch or loop header: to its
syntactic scope or, when that scope holds a ``return``, to every node
the CFG reaches from it up to and including the next such header.  Up
to transitive closure, that is the control dependence of Ferrante,
Ottenstein and Warren (TOPLAS 1987), because ``return`` is the subset's
only jump: a header's immediate post-dominator is its join when its
scope holds no ``return``, and the exit when it does.  Across functions:
call edges from callsites to callee entries and param edges from the
statements defining each argument to the callee's param-def nodes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .model import DependenceGraph, ExternalInputSet, FunctionDef, Program, _reach

# Curated call targets that introduce externally controlled data or state.
# Extendable through configuration; this is only the default.
DEFAULT_EXTERNAL_FUNCTIONS = frozenset({
    "malloc", "calloc", "realloc", "free",
    "read", "fread", "fgets", "gets", "scanf", "fscanf",
    "recv", "recvfrom", "getenv", "socket_recv",
})


class _ReachingDefs:
    """Reaching definitions of one function, solved over int bitsets.

    Each ``(node id, var)`` def fact owns one bit; ``var_mask[var]`` holds
    the bits of every def of ``var``.  Per node, ``OUT = gen | (IN & keep)``
    where ``keep`` clears every fact of the variables the node defines, and
    ``IN`` is the OR of the predecessors' OUTs, iterated round-robin in
    source order to the least fixed point.
    """

    __slots__ = ("facts", "var_mask", "in_bits")

    def __init__(self, fn: FunctionDef):
        order = fn.nodes
        facts: List[Tuple[str, str]] = []
        var_mask: Dict[str, int] = {}
        gen: List[int] = []
        for node in order:
            bits = 0
            for var in node.defs:
                bit = 1 << len(facts)
                facts.append((node.id, var))
                bits |= bit
                var_mask[var] = var_mask.get(var, 0) | bit
            gen.append(bits)
        keep: List[int] = []
        for node in order:
            killed = 0
            for var in node.defs:
                killed |= var_mask[var]
            keep.append(~killed)

        in_bits = [0] * len(order)
        out_bits = list(gen)
        changed = True
        while changed:
            changed = False
            for i, node_preds in enumerate(fn.cfg_preds):
                new_in = 0
                for pred in node_preds:
                    new_in |= out_bits[pred]
                in_bits[i] = new_in
                new_out = gen[i] | (new_in & keep[i])
                if new_out != out_bits[i]:
                    out_bits[i] = new_out
                    changed = True

        self.facts = facts
        self.var_mask = var_mask
        self.in_bits = in_bits


def build_sdg(program: Program) -> DependenceGraph:
    """Assemble the interprocedural dependence graph of a program that
    :func:`parse_program` built; the graph's nodes are the parser's own.

    Every function must carry its CFG, which only the parser records: an
    imported or hand-made program is refused.  The parser makes each node
    id from its own token, so ids are distinct without a check.  Calls to
    functions not defined in the program get no call or param edges;
    their return values act as plain definitions at the callsite.
    """
    functions = program.functions
    if not all(fn.cfg_preds for fn in functions):
        raise ValueError("build_sdg needs a program from parse_program, "
                         "which records each function's flow")

    edges: Set[Tuple[str, str, str]] = set()
    entry_ids = {fn.name: fn.nodes[0].id for fn in functions}
    param_ids = {
        fn.name: [node.id for node in fn.nodes if node.kind == "param-def"]
        for fn in functions
    }

    add = edges.add
    for fn in functions:
        reaching = _ReachingDefs(fn)
        facts, var_mask = reaching.facts, reaching.var_mask
        # The defs of ``var`` that reach a node are the set bits of
        # ``in_bits & var_mask[var]``; each is read off as it is found.
        for node, in_bits in zip(fn.nodes, reaching.in_bits):
            nid = node.id
            for var in node.uses:
                bits = in_bits & var_mask.get(var, 0)
                while bits:
                    low = bits & -bits
                    add((facts[low.bit_length() - 1][0], nid, "data"))
                    bits ^= low
            for callee, arg_uses in node.calls:
                entry_id = entry_ids.get(callee)
                if entry_id is None:
                    continue  # unresolved callsite: recorded, never an error
                add((nid, entry_id, "call"))
                for formal, used in zip(param_ids[callee], arg_uses):
                    for var in used:
                        bits = in_bits & var_mask.get(var, 0)
                        while bits:
                            low = bits & -bits
                            add((facts[low.bit_length() - 1][0], formal, "param"))
                            bits ^= low
        # A header whose scope holds a return governs what the CFG reaches
        # from it, up to and including the next such header, whose walk
        # goes on from there; every other header governs its scope.
        nodes, scopes = fn.nodes, fn.control_scopes
        returns = [i for i, node in enumerate(nodes) if node.kind == "return"]
        returning = {header for header, start, end in scopes
                     if bisect_left(returns, start) < bisect_left(returns, end)}
        heads: Dict[int, List[int]] = {}   # a returning header's successors
        succ: Dict[int, List[int]] = {}    # every other node's
        if returning:
            for i, preds in enumerate(fn.cfg_preds):
                for pred in preds:
                    (heads if pred in returning else succ).setdefault(pred, []).append(i)
        for header, start, end in scopes:
            governed = nodes[start:end]
            if header in returning:
                governed = [nodes[i] for i in _reach(succ, heads[header])]
            header_id = nodes[header].id
            for node in governed:
                add((header_id, node.id, "control"))

    nodes = {node.id: node for fn in functions for node in fn.nodes}
    return DependenceGraph(nodes=nodes, edges=frozenset(edges))


def identify_external_inputs(
    program: Program,
    graph: DependenceGraph,
    external_functions: Optional[FrozenSet[str]] = None,
) -> ExternalInputSet:
    """Callsites of curated external functions plus entry-point parameter
    definitions; the program entry point stands in for its input sites.

    Both are read off ``program``, and the set holds their node ids only;
    ``graph``, the program's dependence graph, is not read here:
    :func:`vulnerability_semantics` checks the ids against it.
    """
    if external_functions is None:
        external_functions = DEFAULT_EXTERNAL_FUNCTIONS
    ids = {node_id for fn in program.functions
           for callee, node_id in fn.callsites if callee in external_functions}
    if program.entry_function is not None:
        entry_fn = program.function(program.entry_function)
        ids.update(node.id for node in entry_fn.nodes if node.kind == "param-def")
    return ExternalInputSet(frozenset(ids))
