"""Output checks that run outside the timed region.

The slice oracle is the benchmark's own traversal over the exported
graph, independent of ``appatch.scoping``: the union of pair slices over
every (external input, vulnerable node) pair equals
``reach_fwd(all EI) & reach_bwd(all SV) | SV`` because reachability is
reflexive and any node reached from an input that reaches a vulnerable
node lies on a path between them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set


def _reach(adjacency: Mapping[str, List[str]], starts: Iterable[str]) -> Set[str]:
    seen = set(starts)
    stack = list(seen)
    while stack:
        for nxt in adjacency.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def oracle_slice(graph_doc: Mapping, ei_ids: Iterable[str], file: str, line: int) -> Set[str]:
    """Slice nodes for the vulnerable ``file:line`` over an interchange document."""
    succ: Dict[str, List[str]] = {}
    pred: Dict[str, List[str]] = {}
    for edge in graph_doc["edges"]:
        succ.setdefault(edge["src"], []).append(edge["dst"])
        pred.setdefault(edge["dst"], []).append(edge["src"])
    sv = {n["id"] for n in graph_doc["nodes"] if n["file"] == file and n["line"] == line}
    return (_reach(succ, ei_ids) & _reach(pred, sv)) | sv


def slice_problem(path: Path, expected: Set[str]) -> Optional[str]:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"{path.name}: unreadable ({exc})"
    if doc.get("fallback"):
        return f"{path.name}: unexpected fallback slice"
    got = set(doc.get("nodes", ()))
    if got != expected:
        return (f"{path.name}: {len(got)} nodes, oracle has {len(expected)} "
                f"({len(got - expected)} extra, {len(expected - got)} missing)")
    return None


def expected_report(retained: Mapping[str, Sequence[int]],
                    syneq: Mapping[str, int],
                    plausible: Mapping[str, int]) -> Dict:
    """The eval report the generator fixed by construction.

    ``syneq``/``plausible`` name each target's SynEq and human-labelled
    Plausible candidate ordinals; only retained candidates count.
    """
    samples = len(retained)
    generated = sum(len(r) for r in retained.values())
    hits = {
        "SynEq": [s for s, r in retained.items() if syneq[s] in r],
        "SemEq": [],
        "Plausible": [s for s, r in retained.items() if plausible[s] in r],
    }
    hits["Correct"] = hits["SynEq"] + hits["Plausible"]
    categories = {}
    for name, patches in hits.items():
        recall = len(set(patches)) / samples if samples else 0.0
        precision = len(patches) / generated if generated else 0.0
        f1 = 0.0 if recall == 0 or precision == 0 else (
            2 * recall * precision / (recall + precision))
        categories[name] = {"recall": recall, "precision": precision, "f1": f1}
    return {
        "categories": categories,
        "counts": {
            "testing_samples": samples,
            "fixed_samples": len(set(hits["Correct"])),
            "generated_patches": generated,
            "correct_patches": len(hits["Correct"]),
        },
    }


def report_problem(path: Path, expected: Mapping) -> Optional[str]:
    try:
        got = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"{path.name}: unreadable ({exc})"
    if got.get("counts") != expected["counts"]:
        return f"{path.name}: counts {got.get('counts')} != {expected['counts']}"
    for name, want in expected["categories"].items():
        have = got.get("categories", {}).get(name, {})
        for key, value in want.items():
            if not abs(have.get(key, float("nan")) - value) <= 1e-12:  # NaN when missing
                return f"{path.name}: {name}.{key} {have.get(key)} != {value}"
    return None


def tree_problem(left: Path, right: Path, names: Iterable[str]) -> Optional[str]:
    """First file among ``names`` (relative paths) whose bytes differ."""
    for name in names:
        a, b = left / name, right / name
        if not a.is_file() or not b.is_file():
            return f"{name}: missing on one side"
        if a.read_bytes() != b.read_bytes():
            return f"{name}: bytes differ"
    return None
