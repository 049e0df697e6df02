"""The five prompt templates, built from the pipeline's records, and the
answer formats they ask for.

Every prompt the pipeline sends is built here, from the slice text and
the records it frames (a ``VulnSpec``, an ``Exemplar``), so golden-file
tests can pin the exact bytes in one place and no other module spells a
CWE list, a vulnerable-line list or a worked example.  Each answer format
sits beside the template that asks for it.  Multi-line values (slices,
patches, reasoning) are framed with newlines by :func:`block`; the
template sentences themselves stay intact.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Dict, Iterable, Sequence, Tuple, Union

from .code_model.model import DependenceGraph
from .scoping import VulnSpec

if TYPE_CHECKING:   # exemplars imports this module
    from .exemplars import Exemplar

MINING_TEMPLATE = (
    "Q: Given the following code slice {slice}, which has a vulnerability "
    "among {cwes} and lines {lines}, the patch is {patch}. "
    "Starting with the external inputs: {ei}, reason about the vulnerable "
    "behavior step by step until the vulnerability is determined. "
    "Answer with two sections headed exactly 'ROOT CAUSE:' and "
    "'FIXING STRATEGY:'."
)

# Each header starts a line, so an answer that first echoes the
# instruction's quoted headers is read from its own.
_SECTION_RE = re.compile(
    r"^[ \t]*ROOT CAUSE:\s*(?P<cause>.*?)\s*^[ \t]*FIXING STRATEGY:\s*(?P<strategy>.*)\s*\Z",
    re.DOTALL | re.MULTILINE,
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

# A demand for more context: the JSON object ROOT_CAUSE_TEMPLATE asks for.
DEMAND_KEY = "context_funcs"
DEMAND_RE = re.compile(r'\{\s*"' + DEMAND_KEY + '"')
CALLER_PREFIX = "CALLER_of_"

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

PATCH_BLOCK_RE = re.compile(
    r"Patch\s+(\d+)\s*:\s*```[^\n]*\n(.*?)```",
    re.DOTALL,
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


def _question(slice_text: str, spec: Union[VulnSpec, Exemplar]) -> Dict[str, str]:
    """The slice, CWE list and vulnerable lines every question names."""
    return {
        "slice": block(slice_text),
        "cwes": ", ".join(spec.cwe_ids) if spec.cwe_ids else "(unspecified)",
        "lines": ", ".join(f"{file}:{line}" for file, line in spec.vulnerable_lines),
    }


def render_ei(graph: DependenceGraph, ei_ids: Iterable[str]) -> str:
    ids = sorted(ei_ids, key=graph.sort_key)
    if not ids:
        return "(none)"
    parts = []
    for node_id in ids:
        node = graph.node(node_id)
        parts.append(f"{node.file}:{node.line}: {node.text}")
    return "; ".join(parts)


def build_mining_prompt(slice_text: str, spec: VulnSpec, patch: str, ei: str) -> str:
    return MINING_TEMPLATE.format(**_question(slice_text, spec), patch=block(patch), ei=ei)


def split_sections(response: str) -> Tuple[str, str]:
    """The root cause and fixing strategy of a mining answer."""
    match = _SECTION_RE.search(response)
    if not match:
        raise ValueError("response lacks ROOT CAUSE / FIXING STRATEGY sections")
    cause = match.group("cause").strip()
    strategy = match.group("strategy").strip()
    if not cause or not strategy:
        raise ValueError("response sections are empty")
    return cause, strategy


def build_root_cause_prompt(slice_text: str, spec: VulnSpec, ei: str) -> str:
    return ROOT_CAUSE_TEMPLATE.format(**_question(slice_text, spec), ei=ei)


def build_comparison_prompt(exemplar_cause: str, testing_cause: str) -> str:
    return COMPARISON_TEMPLATE.format(
        exemplar_cause=exemplar_cause.strip(),
        testing_cause=testing_cause.strip(),
    )


def serialize_exemplar(exemplar: Exemplar) -> str:
    """One worked example: the patch question, answered in three steps."""
    return PATCH_QUESTION.format(
        **_question(exemplar.slice_text, exemplar), root_cause=exemplar.root_cause.strip(),
    ) + (f"Step 2. {exemplar.fixing_strategy.strip()}\n"
         f"Step 3. {block(exemplar.ground_truth_patch)}")


def build_patch_prompt(
    exemplars: Sequence[Exemplar],
    slice_text: str,
    spec: VulnSpec,
    root_cause: str,
) -> str:
    return PATCH_TEMPLATE.format(
        exemplars="".join(serialize_exemplar(exemplar) + "\n\n" for exemplar in exemplars),
        **_question(slice_text, spec),
        root_cause=root_cause.strip(),
        format_instruction=PATCH_FORMAT_INSTRUCTION,
    )


def build_validation_prompt(slice_text: str, spec: VulnSpec, patch: str) -> str:
    return VALIDATION_TEMPLATE.format(**_question(slice_text, spec), patch=block(patch))


def parse_verdict(response: str) -> bool:
    """First-alphabetic-token rule: only a leading "yes" counts as yes."""
    match = re.search(r"[A-Za-z]+", response)
    return bool(match) and match.group(0).lower() == "yes"
