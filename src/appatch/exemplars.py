"""Dataset samples, and exemplar mining: known-patched samples become worked examples.

:meth:`DatasetSample.slice` slices a sample, for mining and for the ``slice``
and ``patch`` commands.  A mined sample is prompted with its ground-truth
patch attached, and the response is split into root-cause reasoning and a
fixing strategy; the resulting pool feeds exemplar selection in patching.
"""

from __future__ import annotations

import json
from functools import cached_property
from pathlib import Path
from typing import (
    Any, Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union,
)

from . import diffs
from .code_model import CodeModelError, build_sdg, import_graph, parse_program
from .code_model.model import DependenceGraph, ExternalInputSet, Program, ReadOnly
from .code_model.sdg import identify_external_inputs
from .files import array_of, checked, is_int, is_object, is_str, json_lines, optional, pair_of
from .gateway import (
    CachedProvider, ConfigurationError, Exchange, Provider, ProviderError, ScriptedProvider,
    prompt_sha,
)
from .prompts import build_mining_prompt, render_ei, split_sections
from .scoping import (
    ScopingError,
    SliceResult,
    VulnSpec,
    functions_containing,
    render_slice,
    vulnerability_semantics,
)

class DatasetError(Exception):
    """A dataset record is malformed or inconsistent."""


_is_line = pair_of(is_str, is_int)


def _is_text(value: Any) -> bool:
    return is_str(value) and value.strip() != ""


_SAMPLE_FIELDS = (
    ("id", is_str, "a string"),
    ("vuln.lines", array_of(_is_line), "an array of [file, line] pairs"),
    ("vuln.cwes", optional(array_of(is_str)), "an array of strings"),
    ("sources", optional(array_of(pair_of(is_str, is_str))), "an array of [path, text] pairs"),
    ("graph", optional(is_object), "an object"),
    ("ground_truth_patch", optional(is_str), "a string"),
    ("entry", optional(is_str), "a string"),
)

_EXEMPLAR_FIELDS = (
    ("sample_id", is_str, "a string"),
    ("slice_text", is_str, "a string"),
    ("cwe_ids", array_of(is_str), "an array of strings"),
    ("vulnerable_lines", array_of(_is_line), "an array of [file, line] pairs"),
    ("root_cause", _is_text, "a non-blank string"),
    ("fixing_strategy", _is_text, "a non-blank string"),
    ("ground_truth_patch", is_str, "a string"),
    ("provider_id", is_str, "a string"),
    ("prompt_digest", is_str, "a string"),
)


class MiningError(Exception):
    """Mining one sample failed; carries the sample id, and the exchange
    when the provider answered."""

    def __init__(self, sample_id: str, message: str, exchange: Optional[Exchange] = None):
        super().__init__(f"sample {sample_id!r}: {message}")
        self.sample_id = sample_id
        self.exchange = exchange


class MalformedResponseError(MiningError):
    """The provider's answer lacked the required sections."""


class _SampleValue(NamedTuple):
    id: str
    vuln: VulnSpec
    sources: Optional[Tuple[Tuple[str, str], ...]] = None
    graph_document: Union[str, Mapping[str, Any], None] = None   # as import_graph reads it
    ground_truth_patch: Optional[str] = None
    entry: Optional[str] = None


class DatasetSample(ReadOnly, _SampleValue):
    """One vulnerable sample, with its fix when the dataset knows it."""

    @classmethod
    def from_document(cls, doc: Mapping[str, Any], where: str) -> "DatasetSample":
        """Read a dataset record; ``where`` names it in error messages."""
        fields = checked(doc, where, _SAMPLE_FIELDS, DatasetError)
        if ("sources" in fields) == ("graph" in fields):
            raise DatasetError(f"{where}: needs exactly one of 'sources' or 'graph'")
        try:
            return cls(
                id=fields["id"],
                vuln=VulnSpec(
                    vulnerable_lines=tuple(map(tuple, fields["vuln.lines"])),
                    cwe_ids=tuple(fields.get("vuln.cwes", ())),
                ),
                sources=tuple(map(tuple, fields["sources"])) if "sources" in fields else None,
                graph_document=fields.get("graph"),
                ground_truth_patch=fields.get("ground_truth_patch"),
                entry=fields.get("entry"),
            )
        except ValueError as exc:   # no vulnerable line, or a bad CWE id
            raise DatasetError(f"{where}: {exc}") from exc

    def slice(
        self, external_functions: Optional[FrozenSet[str]] = None,
    ) -> Tuple[Program, DependenceGraph, ExternalInputSet, SliceResult]:
        """The code model (from the sources or the graph document), its external
        inputs and its slice; raises :class:`CodeModelError` or :class:`ScopingError`."""
        if self.graph_document is not None:
            program, graph = import_graph(self.graph_document)
        else:
            program = parse_program(self.sources, entry=self.entry)
            graph = build_sdg(program)
        ei = identify_external_inputs(program, graph, external_functions)
        return program, graph, ei, vulnerability_semantics(graph, self.vuln, ei)

    @cached_property
    def fixed_sources(self) -> Optional[Tuple[Tuple[str, str], ...]]:
        """Every ``(path, text)`` with the ground-truth patch applied, worked out once.

        ``None`` for a graph-backed sample or one without a patch; a patch
        that does not apply is a :class:`DatasetError`.  The result is kept
        on the sample, outside its value.
        """
        if self.ground_truth_patch is None or self.sources is None:
            return None
        try:
            return tuple(diffs.apply_patch(self.sources, self.ground_truth_patch).items())
        except (diffs.ApplyError, diffs.DiffError) as exc:
            raise DatasetError(
                f"sample {self.id!r}: ground-truth patch does not apply: {exc}"
            ) from exc

    def check_patch_applies(self) -> None:
        """Load-time invariant: the known fix must apply to the sources."""
        self.fixed_sources   # raises when the patch does not apply


def load_dataset(text: str, path: Union[str, Path]) -> List[DatasetSample]:
    """Parse a JSON-lines dataset, checking each ground-truth patch applies.

    ``path`` names the file in error messages only.
    """
    samples: Dict[str, DatasetSample] = {}
    for where, doc in json_lines(text, path, DatasetError):
        sample = DatasetSample.from_document(doc, where)
        if sample.id in samples:
            raise DatasetError(f"{where}: duplicate sample id: {sample.id!r}")
        if sample.ground_truth_patch is None:
            raise DatasetError(f"{where}: sample {sample.id!r} has no ground-truth patch")
        sample.check_patch_applies()
        samples[sample.id] = sample
    return list(samples.values())


class Exemplar(NamedTuple):
    """A mined demonstration: slice, reasoning, strategy, and the real fix."""

    sample_id: str
    slice_text: str
    cwe_ids: Tuple[str, ...]
    vulnerable_lines: Tuple[Tuple[str, int], ...]
    root_cause: str
    fixing_strategy: str
    ground_truth_patch: str
    provider_id: str
    prompt_digest: str

    def to_document(self) -> Dict[str, Any]:
        return self._asdict()


def mining_slice(
    sample: DatasetSample,
    external_functions: Optional[FrozenSet[str]] = None,
):
    """Slice a sample the way Phase 1 presents it.

    The rendered functions are those holding the vulnerable statements
    plus those holding external inputs that can influence the patched
    lines, so the example stays focused on what the fix actually touched.
    """
    program, graph, ei, result = sample.slice(external_functions)

    patch_nodes: set = set()
    if sample.ground_truth_patch:
        try:
            ranges = diffs.touched_lines(sample.ground_truth_patch)
        except diffs.DiffError:
            ranges = {}
        for file, spans in ranges.items():
            for start, end in spans:
                for line in range(start, end + 1):
                    patch_nodes.update(graph.nodes_at(file, line))

    # An input reaches a patched node iff it lies in their backward closure.
    reaching_ei = ei.ids & graph.backward(patch_nodes)
    if not reaching_ei:
        reaching_ei = result.ei_ids

    functions = functions_containing(graph, result.sv_ids)
    functions |= functions_containing(graph, reaching_ei)
    rendered = render_slice(result, program, graph, functions)
    return program, graph, result, rendered, reaching_ei


def mine_exemplar(
    sample: DatasetSample,
    provider: Provider,
    external_functions: Optional[FrozenSet[str]] = None,
) -> Tuple[Exemplar, Exchange]:
    """Phase-1 mining of one sample, and the exchange it made; the
    ground-truth patch rides along."""
    if not sample.ground_truth_patch:
        raise MiningError(sample.id, "mining needs a ground-truth patch")
    try:
        program, graph, result, rendered, reaching_ei = mining_slice(
            sample, external_functions
        )
    except CodeModelError as exc:
        raise MiningError(sample.id, f"cannot build the dependence graph: {exc}") from exc
    except ScopingError as exc:
        raise MiningError(sample.id, str(exc)) from exc
    prompt = build_mining_prompt(
        slice_text=rendered.text,
        spec=sample.vuln,
        patch=sample.ground_truth_patch,
        ei=render_ei(graph, reaching_ei),
    )
    try:
        exchange = provider.complete(prompt)
    except ProviderError as exc:
        raise MiningError(sample.id, f"provider failed: {exc}") from exc
    try:
        root_cause, fixing_strategy = split_sections(exchange.response)
    except ValueError as exc:
        raise MalformedResponseError(sample.id, str(exc), exchange) from exc
    return Exemplar(
        sample_id=sample.id,
        slice_text=rendered.text,
        cwe_ids=sample.vuln.cwe_ids,
        vulnerable_lines=sample.vuln.vulnerable_lines,
        root_cause=root_cause,
        fixing_strategy=fixing_strategy,
        ground_truth_patch=sample.ground_truth_patch,
        provider_id=provider.id,
        prompt_digest=prompt_sha(prompt),
    ), exchange


class MiningFailure(NamedTuple):
    sample_id: str
    message: str


def build_pool(
    dataset: Sequence[DatasetSample],
    provider: Provider,
    external_functions: Optional[FrozenSet[str]] = None,
    jobs: int = 1,
) -> Tuple[Tuple[Exemplar, ...], List[MiningFailure], List[Exchange]]:
    """Mine a whole dataset, with the exchanges made, in dataset order.

    A sample that cannot be mined (its graph does not build, its slice
    does not resolve, its provider fails or answers out of shape) is
    reported as a failure and the run goes on; any other exception is a
    defect and propagates.  Pool order follows dataset order regardless
    of completion order.  A dataset that repeats a sample id is refused
    before any call, and so is a provider that replays a script, directly or
    behind its cache, at ``jobs > 1``: the script answers in call order, and
    concurrent samples call in thread order, so each would get (and cache)
    another sample's answer.
    """
    seen: set = set()
    for sample in dataset:
        if sample.id in seen:
            raise ValueError(f"duplicate sample id in dataset: {sample.id!r}")
        seen.add(sample.id)
    if jobs > 1:
        replayed = provider.inner if isinstance(provider, CachedProvider) else provider
        if isinstance(replayed, ScriptedProvider):
            raise ConfigurationError(
                f"provider {provider.id!r} replays the script of {replayed.id!r} "
                f"in call order; mine with it at --jobs 1, not --jobs {jobs}"
            )
    results: List[Optional[Exemplar]] = [None] * len(dataset)
    exchanges: List[Optional[Exchange]] = [None] * len(dataset)
    failures: List[MiningFailure] = []

    def work(index: int) -> None:
        sample = dataset[index]
        try:
            results[index], exchanges[index] = mine_exemplar(sample, provider, external_functions)
        except MiningError as exc:
            exchanges[index] = exc.exchange
            failures.append(MiningFailure(sample.id, str(exc)))

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as executor:
            list(executor.map(work, range(len(dataset))))
    else:
        for index in range(len(dataset)):
            work(index)

    pool = tuple(e for e in results if e is not None)
    failures.sort(key=lambda f: f.sample_id)
    return pool, failures, [e for e in exchanges if e is not None]


def save_pool(pool: Sequence[Exemplar]) -> str:
    """The JSON-lines text of ``pool``, one exemplar a line, as ``load_pool`` reads it."""
    return "".join(json.dumps(exemplar.to_document(), sort_keys=True) + "\n" for exemplar in pool)


def load_pool(text: str, path: Union[str, Path]) -> Tuple[Exemplar, ...]:
    """Parse a JSON-lines pool; ``path`` names the file in error messages only."""
    pool: Dict[str, Exemplar] = {}
    for where, doc in json_lines(text, path, DatasetError):
        fields = checked(doc, where, _EXEMPLAR_FIELDS, DatasetError)
        sample_id = fields["sample_id"]
        if sample_id in pool:
            raise DatasetError(f"{where}: duplicate sample id in pool: {sample_id!r}")
        fields.update(cwe_ids=tuple(fields["cwe_ids"]),
                      vulnerable_lines=tuple(map(tuple, fields["vulnerable_lines"])))
        pool[sample_id] = Exemplar(**fields)
    return tuple(pool.values())
