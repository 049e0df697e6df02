"""The five prompt templates and their byte-exact instantiation.

Every prompt the pipeline sends is built here, so golden-file tests can
pin the exact bytes in one place.  Multi-line values (slices, patches,
reasoning) are framed with newlines by :func:`block`; the template
sentences themselves stay intact.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence, Tuple

from .code_model.model import DependenceGraph

MINING_TEMPLATE = (
    "Q: Given the following code slice {slice}, which has a vulnerability "
    "among {cwes} and lines {lines}, the patch is {patch}. "
    "Starting with the external inputs: {ei}, reason about the vulnerable "
    "behavior step by step until the vulnerability is determined. "
    "Answer with two sections headed exactly 'ROOT CAUSE:' and "
    "'FIXING STRATEGY:'."
)

ROOT_CAUSE_TEMPLATE = (
    "Q: Given the following code slice: {slice} which has a vulnerability "
    "among {cwes} and lines: {lines}. "
    "Starting with the external inputs: {ei}, reason about the vulnerable "
    "behavior step by step until the vulnerability is determined. "
    "If you encounter uncertainty due to a lack of function definitions, "
    "please tell the functions needed with the format "
    '{{"context_funcs":[func_1,func_2,CALLER_of_func...]}} where '
    '"CALLER_of_func" is a placeholder for the caller of the given functions.'
)

COMPARISON_TEMPLATE = (
    "Q: Are the following two root causes similar?\n"
    "{exemplar_cause}\n"
    "{testing_cause}\n"
    "Please simply answer yes or no."
)

# The patch request, asked of the testing sample and answered by each exemplar.
PATCH_QUESTION = (
    "Q: Given the following code slice: {slice} which has a vulnerability "
    "among {cwes} and lines: {lines}, please generate five possible "
    "patches for the vulnerability.\n"
    "A: Step 1. {root_cause}\n"
)

PATCH_TEMPLATE = "{exemplars}" + PATCH_QUESTION + "{format_instruction}"

PATCH_FORMAT_INSTRUCTION = (
    "Format each patch as a fenced code block headed 'Patch N:' "
    "containing a unified diff against the shown line numbers."
)

VALIDATION_TEMPLATE = (
    "Q: Given the following code slice: {slice} which has a vulnerability "
    "among {cwes} and lines: {lines}. "
    "Please validate whether the following patch fixes the vulnerability "
    "while keeping the functionality: {patch}. "
    "Please simply answer yes or no."
)


def block(text: str) -> str:
    """Frame a multi-line value so the surrounding sentence survives intact."""
    return "\n" + text.rstrip("\n") + "\n"


def render_cwes(cwe_ids: Sequence[str]) -> str:
    return ", ".join(cwe_ids) if cwe_ids else "(unspecified)"


def render_lines(vulnerable_lines: Sequence[Tuple[str, int]]) -> str:
    return ", ".join(f"{file}:{line}" for file, line in vulnerable_lines)


def render_ei(graph: DependenceGraph, ei_ids: Iterable[str]) -> str:
    ids = sorted(ei_ids, key=graph.sort_key)
    if not ids:
        return "(none)"
    parts = []
    for node_id in ids:
        node = graph.node(node_id)
        parts.append(f"{node.file}:{node.line}: {node.text}")
    return "; ".join(parts)


def build_mining_prompt(
    slice_text: str,
    cwes: str,
    lines: str,
    patch: str,
    ei: str,
) -> str:
    return MINING_TEMPLATE.format(
        slice=block(slice_text), cwes=cwes, lines=lines,
        patch=block(patch), ei=ei,
    )


def build_root_cause_prompt(
    slice_text: str,
    cwes: str,
    lines: str,
    ei: str,
) -> str:
    return ROOT_CAUSE_TEMPLATE.format(
        slice=block(slice_text), cwes=cwes, lines=lines, ei=ei,
    )


def build_comparison_prompt(exemplar_cause: str, testing_cause: str) -> str:
    return COMPARISON_TEMPLATE.format(
        exemplar_cause=exemplar_cause.strip(),
        testing_cause=testing_cause.strip(),
    )


def serialize_exemplar(
    slice_text: str,
    cwes: str,
    lines: str,
    root_cause: str,
    fixing_strategy: str,
    ground_truth_patch: str,
) -> str:
    """One worked example: the patch question, answered in three steps."""
    return PATCH_QUESTION.format(
        slice=block(slice_text), cwes=cwes, lines=lines, root_cause=root_cause.strip(),
    ) + f"Step 2. {fixing_strategy.strip()}\nStep 3. {block(ground_truth_patch)}"


def build_patch_prompt(
    serialized_exemplars: Sequence[str],
    slice_text: str,
    cwes: str,
    lines: str,
    root_cause: str,
) -> str:
    exemplar_section = "".join(part + "\n\n" for part in serialized_exemplars)
    return PATCH_TEMPLATE.format(
        exemplars=exemplar_section,
        slice=block(slice_text),
        cwes=cwes,
        lines=lines,
        root_cause=root_cause.strip(),
        format_instruction=PATCH_FORMAT_INSTRUCTION,
    )


def build_validation_prompt(
    slice_text: str,
    cwes: str,
    lines: str,
    patch: str,
) -> str:
    return VALIDATION_TEMPLATE.format(
        slice=block(slice_text), cwes=cwes, lines=lines, patch=block(patch),
    )


def parse_verdict(response: str) -> bool:
    """First-alphabetic-token rule: only a leading "yes" counts as yes."""
    match = re.search(r"[A-Za-z]+", response)
    return bool(match) and match.group(0).lower() == "yes"
