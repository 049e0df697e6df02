"""Ensemble patch validation: keep a patch if any judge affirms it.

Deliberately OR-semantics rather than majority voting: the ensemble
exists to prune patches every judge rejects, not to demand consensus.
A judge that fails answers "error", which is no vote for the patch but
stays distinguishable from a "no" in the verdicts.
"""

from __future__ import annotations

import logging
from typing import List, NamedTuple, Sequence, Tuple

from .gateway import Exchange, Provider, ProviderError
from .prompting import CandidatePatch
from .prompts import build_validation_prompt, parse_verdict
from .scoping import RenderedSlice, VulnSpec

log = logging.getLogger(__name__)

_ANSWERS = ("yes", "no", "error")


class _VerdictValue(NamedTuple):
    ordinal: int
    answers: Tuple[Tuple[str, str], ...]   # (provider id, "yes" | "no" | "error")
    retained: bool


class ValidationVerdict(_VerdictValue):
    """Per-provider answers for one candidate patch."""

    __slots__ = ()

    def __new__(
        cls, ordinal: int, answers: Tuple[Tuple[str, str], ...], retained: bool,
    ) -> "ValidationVerdict":
        for provider_id, answer in answers:
            if answer not in _ANSWERS:
                raise ValueError(f"unknown answer {answer!r} from {provider_id}")
        if retained != any(answer == "yes" for _, answer in answers):
            raise ValueError("retained flag contradicts the answers")
        return tuple.__new__(cls, (ordinal, answers, retained))


def validate_patch(
    rendered_slice: RenderedSlice,
    spec: VulnSpec,
    patch: CandidatePatch,
    provider: Provider,
) -> Tuple[str, List[Exchange]]:
    """One judge, one patch: returns "yes", "no" or "error".

    A provider failure answers "error": a flaky judge can only lose votes,
    never abort the run, and its silence is not recorded as a rejection.
    A misconfigured judge (say, its auth variable is unset) is no vote at
    all: its ``ConfigurationError`` propagates.
    """
    prompt = build_validation_prompt(
        slice_text=rendered_slice.text,
        spec=spec,
        patch=patch.diff,
    )
    try:
        exchange = provider.complete(prompt)
    except ProviderError as exc:
        log.warning("validator %s failed on patch %d (%s); answering error",
                    provider.id, patch.ordinal, exc)
        return "error", []
    return ("yes" if parse_verdict(exchange.response) else "no"), [exchange]


def validate_all(
    patches: Sequence[CandidatePatch],
    providers: Sequence[Provider],
    rendered_slice: RenderedSlice,
    spec: VulnSpec,
    jobs: int = 1,
) -> Tuple[List[CandidatePatch], List[ValidationVerdict], List[Exchange]]:
    """Judge every patch with every provider; drop only all-no patches.

    Retained patches keep candidate order.  Judges run independently, so
    they may be consulted concurrently; within one judge the patches stay
    sequential to keep scripted providers deterministic.
    """
    if not providers:
        raise ValueError("at least one validating provider is required")

    def judge(provider: Provider) -> Tuple[List[str], List[Exchange]]:
        """One judge's answers, in patch order, and its exchanges."""
        answers: List[str] = []
        exchanges: List[Exchange] = []
        for patch in patches:
            answer, exchange = validate_patch(rendered_slice, spec, patch, provider)
            answers.append(answer)
            exchanges.extend(exchange)
        return answers, exchanges

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as executor:
            judged = list(executor.map(judge, providers))
    else:
        judged = list(map(judge, providers))

    verdicts: List[ValidationVerdict] = []
    retained: List[CandidatePatch] = []
    for index, patch in enumerate(patches):
        per_provider = tuple(
            (provider.id, answers[index]) for provider, (answers, _) in zip(providers, judged)
        )
        keep = any(answer == "yes" for _, answer in per_provider)
        verdicts.append(ValidationVerdict(
            ordinal=patch.ordinal, answers=per_provider, retained=keep,
        ))
        if keep:
            retained.append(patch)

    exchanges = [exchange for _, collected in judged for exchange in collected]
    return retained, verdicts, exchanges
