"""Ensemble patch validation: keep a patch if any judge affirms it.

Deliberately OR-semantics rather than majority voting: the ensemble
exists to prune patches every judge rejects, not to demand consensus.
A judge that fails answers "error", which is no vote for the patch but
stays distinguishable from a "no" in the verdicts.
"""

from __future__ import annotations

import logging
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .gateway import Exchange, Provider, ProviderError
from .prompting import CandidatePatch
from .prompts import build_validation_prompt, parse_verdict
from .scoping import RenderedSlice, VulnSpec

log = logging.getLogger(__name__)

_ANSWERS = ("yes", "no", "error")


class _VerdictValue(NamedTuple):
    ordinal: int
    answers: Tuple[Tuple[str, str], ...]   # (provider id, "yes" | "no" | "error")


class ValidationVerdict(_VerdictValue):
    """Per-provider answers for one candidate patch."""

    __slots__ = ()

    def __new__(
        cls, ordinal: int, answers: Tuple[Tuple[str, str], ...],
    ) -> "ValidationVerdict":
        for provider_id, answer in answers:
            if answer not in _ANSWERS:
                raise ValueError(f"unknown answer {answer!r} from {provider_id}")
        return tuple.__new__(cls, (ordinal, answers))

    @property
    def retained(self) -> bool:
        """Whether any judge affirmed the patch."""
        return any(answer == "yes" for _, answer in self.answers)


def validate_patch(
    rendered_slice: RenderedSlice,
    spec: VulnSpec,
    patch: CandidatePatch,
    provider: Provider,
) -> Tuple[str, Optional[Exchange]]:
    """One judge, one patch: "yes", "no" or "error", and the exchange made.

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
        return "error", None
    return ("yes" if parse_verdict(exchange.response) else "no"), exchange


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

    def judge(provider: Provider) -> List[Tuple[str, Optional[Exchange]]]:
        """One judge's answer and exchange for each patch, in patch order."""
        return [validate_patch(rendered_slice, spec, patch, provider) for patch in patches]

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as executor:
            judged = list(executor.map(judge, providers))
    else:
        judged = list(map(judge, providers))

    verdicts = [
        ValidationVerdict(patch.ordinal, tuple(
            (provider.id, answers[index][0]) for provider, answers in zip(providers, judged)
        ))
        for index, patch in enumerate(patches)
    ]
    retained = [patch for patch, verdict in zip(patches, verdicts) if verdict.retained]
    exchanges = [exchange for answers in judged for _, exchange in answers
                 if exchange is not None]
    return retained, verdicts, exchanges
