"""Progressive root-cause generation, exemplar selection, and patch requests.

One sample's run is inherently sequential: the root-cause loop feeds the
selection step, which feeds the patch request.  Function context grows
only when the model demands it via the ``context_funcs`` format.
"""

from __future__ import annotations

import json
import logging
from typing import FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from . import diffs
from .code_model.model import DependenceGraph, Program
from .exemplars import Exemplar
from .gateway import Exchange, Provider, ProviderError, prompt_sha
from .prompts import (
    CALLER_PREFIX,
    DEMAND_KEY,
    DEMAND_RE,
    PATCH_BLOCK_RE,
    build_comparison_prompt,
    build_patch_prompt,
    build_root_cause_prompt,
    parse_verdict,
    render_ei,
)
from .scoping import (
    RenderedSlice,
    SliceResult,
    VulnSpec,
    functions_containing,
    render_slice,
)

log = logging.getLogger(__name__)

MAX_EXEMPLARS = 8
DEFAULT_DEMAND_ROUNDS = 10


class PromptingError(Exception):
    """A prompting stage could not produce its artifact."""


class NoPatchesError(PromptingError):
    """The patch response contained no parseable patch block."""


class _RootCauseValue(NamedTuple):
    text: str
    iterations: int
    functions_used: FrozenSet[str]
    transcript: Tuple[Tuple[str, str], ...]   # (prompt digest, response digest)
    forced_final: bool


class RootCause(_RootCauseValue):
    """Final reasoning text plus the expansion history that produced it."""

    __slots__ = ()

    def __new__(
        cls,
        text: str,
        iterations: int,
        functions_used: FrozenSet[str],
        transcript: Tuple[Tuple[str, str], ...],
        forced_final: bool = False,
    ) -> "RootCause":
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        return tuple.__new__(cls, (text, iterations, functions_used, transcript, forced_final))


class CandidatePatch(NamedTuple):
    """One model-proposed patch, as a diff against original file lines."""

    ordinal: int
    diff: str
    prompt_digest: str


def parse_context_demand(response: str, program: Program) -> Optional[Tuple[str, ...]]:
    """The function names of the first ``{"context_funcs": [...]}`` object
    that decodes as JSON, if any.

    An object that does not decode (say, a quote of the template) is
    passed over.  ``CALLER_of_<name>`` placeholders resolve to every caller
    of ``name`` in the call graph; a first object whose value is not a list
    of names yields no demand.
    """
    starts = [match.start() for match in DEMAND_RE.finditer(response)]
    decoder = json.JSONDecoder()
    for start in starts:
        try:
            obj, _ = decoder.raw_decode(response, start)
            break
        except json.JSONDecodeError:
            continue
    else:
        if starts:
            log.warning("context demand found but not parseable as JSON; ignoring")
        return None
    names = obj.get(DEMAND_KEY)
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        log.warning("%s is not a list of names; ignoring", DEMAND_KEY)
        return None
    requested: List[str] = []
    for name in names:
        if name.startswith(CALLER_PREFIX):
            target = name[len(CALLER_PREFIX):]
            callers = program.callers_of(target)
            if not callers:
                log.warning("no callers known for %s; skipping placeholder", target)
            for caller in callers:
                if caller not in requested:
                    requested.append(caller)
        elif name not in requested:
            requested.append(name)
    return tuple(requested)


def generate_root_cause(
    graph: DependenceGraph,
    program: Program,
    spec: VulnSpec,
    result: SliceResult,
    provider: Provider,
    max_rounds: int = DEFAULT_DEMAND_ROUNDS,
) -> Tuple[RootCause, RenderedSlice, List[Exchange]]:
    """Iteratively prompt for the root cause, growing the slice on demand.

    Starts from the functions holding the vulnerable statements.  Each
    demanded function is added at most once; unknown names are skipped
    with a warning.  The loop stops on a demand-free answer, when every
    function is already included, or at the round ceiling; the latter two
    force the last response and set ``forced_final``.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    functions = set(functions_containing(graph, result.sv_ids))
    all_functions = program.function_names()
    transcript: List[Tuple[str, str]] = []
    exchanges: List[Exchange] = []

    for round_number in range(1, max_rounds + 1):
        rendered = render_slice(result, program, graph, functions)
        prompt = build_root_cause_prompt(
            slice_text=rendered.text,
            spec=spec,
            ei=render_ei(graph, rendered.listed_ei),
        )
        try:
            exchange = provider.complete(prompt)
        except ProviderError as exc:
            raise PromptingError(f"root-cause generation failed: {exc}") from exc
        exchanges.append(exchange)
        response = exchange.response
        transcript.append((prompt_sha(prompt), prompt_sha(response)))

        demand = parse_context_demand(response, program)
        if demand is None:
            break
        if functions >= all_functions:
            log.warning(
                "model still demands context but every function is included; "
                "forcing the last answer"
            )
            break
        for name in demand:
            if name not in all_functions:
                log.warning("demanded function %r is not defined; skipping", name)
            elif name not in functions:
                functions.add(name)
    else:
        log.warning("demand loop hit the %d-round ceiling; forcing the last answer",
                    max_rounds)
    root_cause = RootCause(
        text=response,
        iterations=round_number,
        functions_used=frozenset(functions),
        transcript=tuple(transcript),
        forced_final=demand is not None,   # the last answer still demanded context
    )
    return root_cause, rendered, exchanges


def select_exemplars(
    root_cause: RootCause,
    pool: Sequence[Exemplar],
    provider: Provider,
    cwe_filter: bool = False,
    cwe_ids: Sequence[str] = (),
) -> Tuple[List[Exemplar], List[Exchange], List[str]]:
    """Scan the pool in insertion order, keeping pairwise-similar exemplars.

    Every candidate costs one yes/no comparison; the scan stops as soon as
    ``MAX_EXEMPLARS`` exemplars are chosen.  Anything but a leading "yes"
    leaves the exemplar out, and so does a comparison the provider fails:
    the sample ids of those come back third, in pool order.
    """
    chosen: List[Exemplar] = []
    exchanges: List[Exchange] = []
    failed: List[str] = []
    wanted = set(cwe_ids)
    for exemplar in pool:
        if cwe_filter and wanted and not (set(exemplar.cwe_ids) & wanted):
            continue
        prompt = build_comparison_prompt(exemplar.root_cause, root_cause.text)
        try:
            exchange = provider.complete(prompt)
        except ProviderError as exc:
            log.warning("comparison against %s failed (%s); leaving it out",
                        exemplar.sample_id, exc)
            failed.append(exemplar.sample_id)
            continue
        exchanges.append(exchange)
        if parse_verdict(exchange.response):
            chosen.append(exemplar)
            if len(chosen) >= MAX_EXEMPLARS:
                break
    return chosen, exchanges, failed


def _function_line_ranges(program: Program, functions: FrozenSet[str]):
    ranges = {}
    for fn in program.functions:
        if fn.name in functions:
            ranges.setdefault(fn.file, []).append((fn.start_line, fn.end_line))
    return ranges


def _hunks_inside(diff_text: str, ranges) -> bool:
    """Whether every hunk lies in ``ranges``; raises ``DiffError`` when the
    text is not a parseable diff."""
    for file, spans in diffs.touched_lines(diff_text).items():
        allowed = ranges.get(file)
        if not allowed:
            return False
        for start, end in spans:
            if not any(lo <= start and end <= hi for lo, hi in allowed):
                return False
    return True


def generate_patches(
    exemplars: Sequence[Exemplar],
    rendered_slice: RenderedSlice,
    spec: VulnSpec,
    root_cause: RootCause,
    provider: Provider,
    program: Program,
) -> Tuple[List[CandidatePatch], Exchange]:
    """Ask for five candidate patches and parse the fenced blocks.

    Blocks whose hunks stray outside the rendered functions are dropped;
    fewer than five survivors is a warning, zero is an error.
    """
    prompt = build_patch_prompt(
        exemplars=exemplars,
        slice_text=rendered_slice.text,
        spec=spec,
        root_cause=root_cause.text,
    )
    try:
        exchange = provider.complete(prompt)
    except ProviderError as exc:
        raise PromptingError(f"patch generation failed: {exc}") from exc

    digest = prompt_sha(prompt)
    ranges = _function_line_ranges(program, rendered_slice.included_functions)
    patches: List[CandidatePatch] = []
    total_blocks = 0
    for match in PATCH_BLOCK_RE.finditer(exchange.response):
        total_blocks += 1
        if len(patches) == 5:
            continue   # only counted
        diff_text = match.group(2)
        try:
            inside = _hunks_inside(diff_text, ranges)
        except diffs.DiffError as exc:
            log.warning("patch block %s is not a parseable diff (%s); dropping it",
                        match.group(1), exc)
            continue
        if not inside:
            log.warning("patch block %s references lines outside the rendered "
                        "functions; dropping it", match.group(1))
            continue
        patches.append(CandidatePatch(
            ordinal=len(patches) + 1,
            diff=diff_text,
            prompt_digest=digest,
        ))
    if total_blocks > 5:
        log.warning("response contained %d patch blocks; keeping the first 5",
                    total_blocks)
    if not patches:
        raise NoPatchesError("response contained no parseable patch block")
    if len(patches) < 5:
        log.warning("expected 5 patches, parsed %d", len(patches))
    return patches, exchange
