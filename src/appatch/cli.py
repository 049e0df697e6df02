"""Operator surface: slice, mine, patch, and eval over files.

Exit codes: 0 success, 1 pipeline error (parse/provider failures),
2 usage or configuration error.  Each command removes its manifest before
it reads anything and writes it last, so a command that fails leaves none.
The manifest is reproducible under a warm cache: it holds the digests of
inputs and outputs, token accounting and flags, never a wall-clock reading
or an absolute path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import re
import sys
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from . import evaluation
from .code_model import CodeModelError
from .code_model.sdg import DEFAULT_EXTERNAL_FUNCTIONS
from .exemplars import (
    DatasetError,
    DatasetSample,
    build_pool,
    load_dataset,
    load_pool,
    save_pool,
)
from .files import (
    array_of, checked, is_int, is_object, is_str, json_object, optional, read_input,
    write_text_atomic,
)
from .gateway import (
    ConfigurationError,
    Exchange,
    Provider,
    accounting_report,
    load_providers,
)
from .prompting import (
    DEFAULT_DEMAND_ROUNDS,
    PromptingError,
    generate_patches,
    generate_root_cause,
    select_exemplars,
)
from .scoping import ScopingError, VulnSpec, functions_containing, render_slice
from .validation import validate_all

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_PIPELINE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Bad flags, missing files, unusable configuration."""


class PipelineError(Exception):
    """The run itself failed (parse, slice, provider)."""


# ── configuration ────────────────────────────────────────────────────────

# Run settings are flags, not config keys.  The config format ignores keys it
# does not know, so one of these, ignored, would change the run without a word.
_RETIRED_KEYS = {"external_functions": "--external-functions", "demand_rounds": "--max-rounds"}


def load_config(path_text: Optional[str], read: Callable[[Path, str, str], str]
                ) -> Dict[str, Provider]:
    """The providers of the JSON config file at ``path_text``, by id; no file configures none.

    ``read(path, what, key)`` reads it under the key ``config`` and each
    provider script under ``script:<provider id>``.  API keys never live in
    the file; http providers name the environment variable that holds theirs.
    """
    if path_text is None:
        return {}
    path = Path(path_text)
    where = f"config file {path}"
    doc = json_object(read(path, "config file", "config"), where, UsageError)
    for key, flag in _RETIRED_KEYS.items():
        if key in doc:
            raise UsageError(f"{where}: {key!r} is no longer a config key; pass {flag}")
    entries = doc.get("providers")
    if not optional(array_of(is_object))(entries):
        raise UsageError(f"{where}: providers must be an array of objects")
    try:
        return load_providers(entries or [], read, base_dir=path.parent)
    except (ConfigurationError, UsageError) as exc:   # a script that cannot be read
        raise UsageError(f"{where}: {exc}")


def _provider(providers: Dict[str, Provider], provider_id: str) -> Provider:
    if provider_id not in providers:
        known = ", ".join(sorted(providers)) or "(none configured)"
        raise UsageError(f"unknown provider id {provider_id!r}; configured: {known}")
    return providers[provider_id]


# ── the run record ───────────────────────────────────────────────────────

class _Run:
    """One command's reads, writes and removals, and the manifest that commits them.

    The manifest is removed first, when the record is made (before even the
    log level is read), and written last, after every output, so a run that
    stops early leaves none: a manifest on disk says that each file it maps
    to a sha256, by its path from the manifest's directory, is that run's
    output.  :meth:`read` reads every input, config and scripts included,
    under a key.  Every field is deterministic, so a warm-cache rerun
    reproduces it byte for byte.  No output or removal may take, by its
    real path, a file the run read or wrote, or its manifest.
    """

    def __init__(self, command: str, manifest: Path):
        self.command = command
        self.manifest = manifest
        manifest.unlink(missing_ok=True)
        logging.basicConfig(level=_log_level())
        self.input_digests: Dict[str, str] = {}
        self.outputs: Dict[str, str] = {}
        self._seen = {os.path.realpath(manifest): "the manifest of this run"}

    def read(self, path: Union[str, Path], what: str, key: str) -> str:
        """The text of an input file; its digest is recorded under ``key``."""
        text, digest = read_input(path, f"{what} {path}", UsageError)
        self._seen.setdefault(os.path.realpath(path), "read by this run")
        self.input_digests[key] = digest
        return text

    def write_text(self, path: Union[str, Path], text: str) -> None:
        """Write an output, refusing a file this run already read or wrote, or its manifest."""
        real = os.path.realpath(path)
        if real in self._seen:
            raise UsageError(f"output {path}: {self._seen[real]}")
        write_text_atomic(path, text)
        self._seen[real] = "written already by this run"
        name = os.path.relpath(path, self.manifest.parent)
        self.outputs[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()

    def write_json(self, path: Union[str, Path], doc: Any) -> None:
        self.write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")

    def remove(self, path: Path) -> None:
        """Remove an earlier run's stale output, refusing a file this run read or wrote."""
        real = os.path.realpath(path)
        if real in self._seen:
            raise UsageError(f"stale output {path}: {self._seen[real]}")
        path.unlink()

    def finish(self, flags: Dict[str, Any], exchanges: Sequence[Exchange] = ()) -> None:
        write_text_atomic(self.manifest, json.dumps({
            "command": self.command,
            "input_digests": self.input_digests,
            "outputs": self.outputs,
            "accounting": accounting_report(exchanges),
            "flags": flags,
        }, indent=2, sort_keys=True) + "\n")


def _beside(path_text: str) -> Path:
    """The manifest of a command whose main output is ``path_text``."""
    path = Path(path_text)
    return path.with_name(path.name + ".manifest.json")


# ── shared loaders ───────────────────────────────────────────────────────

def _external_functions(flag: str) -> FrozenSet[str]:
    """``--external-functions``, comma separated; an empty flag keeps the curated set."""
    if flag:
        return frozenset(n.strip() for n in flag.split(",") if n.strip())
    return DEFAULT_EXTERNAL_FUNCTIONS


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise UsageError("--jobs must be a positive integer")


def _parse_vuln_arg(vuln: str) -> List[Tuple[str, int]]:
    out: List[Tuple[str, int]] = []
    for part in vuln.split(","):
        part = part.strip()
        if not part:
            continue
        file, sep, line = part.rpartition(":")
        if not sep or not line.isdecimal():
            raise UsageError(f"--vuln expects file:line, got {part!r}")
        out.append((file, int(line)))
    if not out:
        raise UsageError("--vuln needs at least one file:line")
    return out


# ── subcommands ──────────────────────────────────────────────────────────

def _slice(sample: DatasetSample, external_functions: FrozenSet[str]):
    """``sample.slice``; a code model that does not build is a pipeline error."""
    try:
        return sample.slice(external_functions)
    except CodeModelError as exc:
        raise PipelineError(f"cannot build the dependence graph: {exc}") from exc


def cmd_slice(args: argparse.Namespace) -> int:
    run = _Run("slice", _beside(args.out))
    if bool(args.source) == bool(args.graph):
        raise UsageError("exactly one of --source and --graph is required")
    vulnerable_lines = tuple(_parse_vuln_arg(args.vuln))
    cwe_ids = tuple(c.strip() for c in (args.cwe or "").split(",") if c.strip())
    try:
        spec = VulnSpec(vulnerable_lines, cwe_ids)
    except ValueError as exc:
        raise UsageError(f"--cwe: {exc}")

    sources = graph_text = None
    if args.graph:
        graph_text = run.read(args.graph, "graph file", f"graph:{Path(args.graph).name}")
    else:
        names = [Path(path).name for path in args.source]
        sources = tuple((name, run.read(path, "source file", f"source:{name}"))
                        for name, path in zip(names, args.source))
    sample = DatasetSample(id="", vuln=spec, sources=sources, graph_document=graph_text,
                           entry=args.entry)   # a sample of no dataset: it has no id
    program, graph, _, result = _slice(sample, args.external_functions)

    functions = functions_containing(graph, result.node_ids)
    rendered = render_slice(result, program, graph, functions)

    out_path = Path(args.out)
    run.write_json(out_path, result.to_document(graph))
    run.write_text(out_path.with_name(out_path.name + ".txt"), rendered.text + "\n")
    run.finish({"entry": args.entry, "external_functions": sorted(args.external_functions),
                "fallback": result.fallback})
    print(f"slice: {len(result.node_ids)} nodes "
          f"({len(result.ei_ids)} external inputs, fallback={result.fallback})")
    return EXIT_OK


def cmd_mine(args: argparse.Namespace) -> int:
    run = _Run("mine", _beside(args.pool))
    _check_jobs(args.jobs)
    provider = _provider(load_config(args.config, run.read), args.provider)
    dataset = load_dataset(run.read(args.dataset, "dataset file", "dataset"), Path(args.dataset))

    pool, failures, exchanges = build_pool(
        dataset, provider, external_functions=args.external_functions, jobs=args.jobs,
    )
    run.write_text(args.pool, save_pool(pool))
    run.finish({
        "provider": args.provider,
        "external_functions": sorted(args.external_functions),
        "samples": len(dataset),
        "mined": len(pool),
        "errors": [{"sample_id": f.sample_id, "message": f.message} for f in failures],
    }, exchanges)
    print(f"mine: {len(pool)} exemplar(s), {len(failures)} failure(s)")
    return EXIT_OK


def cmd_patch(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    run = _Run("patch", out_dir / "manifest.json")
    _check_jobs(args.jobs)
    if args.max_rounds < 1:
        raise UsageError("--max-rounds must be a positive integer")
    providers = load_config(args.config, run.read)
    provider = _provider(providers, args.provider)
    validator_ids = [v.strip() for v in (args.validators or "").split(",") if v.strip()]
    repeated = sorted({v for v in validator_ids if validator_ids.count(v) > 1})
    if repeated:
        # One judge asked twice would overwrite its own verdicts.
        raise UsageError(f"--validators names {', '.join(repeated)} more than once")
    validators = [_provider(providers, v) for v in validator_ids]

    sample_text = run.read(args.sample, "sample file", "sample")
    pool_text = run.read(args.pool, "pool file", "pool")
    where = f"sample file {args.sample}"
    sample = DatasetSample.from_document(json_object(sample_text, where, DatasetError), where)
    sample.check_patch_applies()
    pool = load_pool(pool_text, Path(args.pool))

    program, graph, _, result = _slice(sample, args.external_functions)

    root_cause, rendered, rc_exchanges = generate_root_cause(
        graph, program, sample.vuln, result, provider, max_rounds=args.max_rounds,
    )
    chosen, sel_exchanges, comparisons_failed = select_exemplars(
        root_cause, pool, provider,
        cwe_filter=args.cwe_filter, cwe_ids=sample.vuln.cwe_ids,
    )
    patches, gen_exchange = generate_patches(
        chosen, rendered, sample.vuln, root_cause, provider, program,
    )

    val_exchanges: List[Exchange] = []
    if validators:
        retained, verdicts, val_exchanges = validate_all(
            patches, validators, rendered, sample.vuln, jobs=args.jobs,
        )
        verdicts_doc = [{"ordinal": v.ordinal, "answers": dict(v.answers), "retained": v.retained}
                        for v in verdicts]
    else:
        retained = list(patches)
        verdicts_doc = []

    run.write_text(out_dir / "rendered_slice.txt", rendered.text + "\n")
    run.write_json(out_dir / "slice.json", result.to_document(graph))
    run.write_json(out_dir / "root_cause.json", {
        "text": root_cause.text,
        "iterations": root_cause.iterations,
        "functions_used": sorted(root_cause.functions_used),
        "forced_final": root_cause.forced_final,
        "transcript": [list(pair) for pair in root_cause.transcript],
    })
    run.write_json(out_dir / "selected_exemplars.json", [ex.sample_id for ex in chosen])
    candidate_files = []
    for patch in patches:
        name = f"candidate_{patch.ordinal}.diff"
        run.write_text(out_dir / name,
                       patch.diff if patch.diff.endswith("\n") else patch.diff + "\n")
        candidate_files.append({
            "ordinal": patch.ordinal,
            "file": name,
            "prompt_digest": patch.prompt_digest,
        })
    # The candidate names are this command's: an earlier run's extra ones go.
    written = {entry["file"] for entry in candidate_files}
    for path in out_dir.glob("candidate_*.diff"):
        if re.fullmatch(r"candidate_\d+\.diff", path.name) and path.name not in written:
            run.remove(path)
    run.write_json(out_dir / "verdicts.json", verdicts_doc)
    run.write_json(out_dir / "result.json", {
        "sample_id": sample.id,
        "candidates": candidate_files,
        "retained": [p.ordinal for p in retained],
        "validated": bool(validators),
    })

    run.finish({
        "provider": args.provider,
        "validators": validator_ids,
        "external_functions": sorted(args.external_functions),
        "max_rounds": args.max_rounds,
        "cwe_filter": args.cwe_filter,
        "no_validation": not validators,
        "exemplars_selected": len(chosen),
        "comparisons_failed": sorted(comparisons_failed),
        "forced_final": root_cause.forced_final,
    }, rc_exchanges + sel_exchanges + [gen_exchange] + val_exchanges)
    print(f"patch: {len(patches)} candidate(s), {len(retained)} retained "
          f"({'validated' if validators else 'no validation'})")
    return EXIT_OK


def _is_name(text: str) -> bool:
    """Whether ``text`` is one path component: joined to a directory, an entry of it."""
    return text not in ("", ".", "..") and "/" not in text


# What ``eval`` reads of the manifest and the ``result.json`` that ``patch`` wrote.
_MANIFEST_KEYS = (
    ("command", lambda command: command == "patch", "'patch'"),
    ("outputs", lambda outputs: is_object(outputs) and all(
        _is_name(name) and is_str(digest) for name, digest in outputs.items()),
     "an object mapping file names to sha256 digests"),
)
_RESULT_KEYS = (
    ("retained", optional(array_of(is_int)), "an array of integers"),
    ("candidates", optional(array_of(
        lambda c: is_object(c) and is_int(c.get("ordinal")) and is_str(c.get("file")))),
     "an array of objects with an integer 'ordinal' and a string 'file'"),
    ("sample_id", is_str, "a string"),
)


def _read_committed(run: _Run, manifest: Path, committed: Dict[str, str],
                    name: str, what: str) -> str:
    """The text of the file ``name`` beside ``manifest``, which must commit it as it is."""
    path, key = manifest.parent / name, f"{manifest.parent.name}/{name}"
    if name not in committed:
        raise UsageError(f"{what} {path}: not an output that {manifest} commits")
    text = run.read(path, what, key)
    if run.input_digests[key] != committed[name]:
        raise UsageError(f"{what} {path}: its sha256 is not the one {manifest} commits")
    return text


def cmd_eval(args: argparse.Namespace) -> int:
    run = _Run("eval", _beside(args.report))
    results_dir = Path(args.results)
    if not results_dir.is_dir():
        raise UsageError(f"results directory not found: {results_dir}")
    gt_samples = load_dataset(run.read(args.ground_truth, "ground-truth file", "ground_truth"),
                              Path(args.ground_truth))

    human: Dict[Tuple[str, int], str] = {}
    if args.labels:
        text = run.read(args.labels, "labels file", "labels")
        human = evaluation.load_labels(text, Path(args.labels))

    categories: Dict[Tuple[str, int], str] = {}
    generated: Dict[str, int] = {}
    for sample in gt_samples:
        generated[sample.id] = 0
        if not _is_name(sample.id):
            raise UsageError(f"ground-truth sample id {sample.id!r} is not a directory name")
        sample_dir = results_dir / sample.id
        if not sample_dir.exists():   # a sample with no result
            continue
        # Each file read is recorded under its path relative to --results.
        manifest = sample_dir / "manifest.json"
        where = str(manifest)
        committed = checked(json_object(
            run.read(manifest, "result manifest", f"{sample.id}/manifest.json"),
            where, UsageError), where, _MANIFEST_KEYS, UsageError)["outputs"]
        result_path = sample_dir / "result.json"
        text = _read_committed(run, manifest, committed, "result.json", "result file")
        where = str(result_path)
        fields = checked(json_object(text, where, UsageError), where, _RESULT_KEYS, UsageError)
        if fields["sample_id"] != sample.id:
            raise UsageError(f"{result_path}: 'sample_id' is {fields['sample_id']!r}, "
                             f"not the ground truth's {sample.id!r}")
        candidates = {c["ordinal"]: c["file"] for c in fields.get("candidates", [])}
        retained = sorted(set(fields.get("retained", [])))
        generated[sample.id] = len(retained)
        truth = None   # the ground truth is normalised at most once, on demand
        for ordinal in retained:
            file_name = candidates.get(ordinal)
            if file_name is None:
                raise UsageError(
                    f"{result_path}: retained ordinal {ordinal} has no candidate file"
                )
            diff_text = _read_committed(run, manifest, committed, file_name, "candidate file")
            # An unlabeled patch is Incorrect; an automatic SynEq beats a human label.
            key = (sample.id, ordinal)
            categories[key] = human.pop(key, "Incorrect")
            if sample.sources is None:
                log.warning("sample %s is graph-backed; cannot auto-check SynEq",
                            sample.id)
                continue
            if truth is None:
                # load_dataset applied the ground truth already
                truth = {path: evaluation.normalize_code(text)
                         for path, text in sample.fixed_sources}
            is_syneq, note = evaluation.classify_syneq(sample.sources, diff_text, truth)
            if note:
                log.info("sample %s patch %d: %s", sample.id, ordinal, note)
            if is_syneq:
                categories[key] = "SynEq"

    # Labels for candidates that validation removed are outside the
    # evaluation universe: they count neither as generated nor as correct.
    for sample_id, ordinal in human:
        log.warning("label for %s patch %d ignored: not in the retained set",
                    sample_id, ordinal)
    report = evaluation.compute_metrics(len(gt_samples), categories, generated)

    run.write_json(args.report, report.to_document())
    if args.csv:
        run.write_text(args.csv, report.to_csv())
    run.finish({"labels": bool(args.labels), "samples": len(gt_samples)})
    correct = report.per_category["Correct"]
    print(f"eval: recall={correct.recall:.4f} precision={correct.precision:.4f} "
          f"f1={correct.f1:.4f} over {report.testing_samples} sample(s)")
    return EXIT_OK


# ── argument parsing ─────────────────────────────────────────────────────

def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="appatch",
        description="Slice, mine, patch, and evaluate vulnerability fixes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # The flag of every command that builds a dependence graph.
    graph_flags = argparse.ArgumentParser(add_help=False)
    graph_flags.add_argument("--external-functions", type=_external_functions,
                             default=DEFAULT_EXTERNAL_FUNCTIONS,
                             help="override the external-function set, comma separated")

    p_slice = sub.add_parser("slice", parents=[graph_flags],
                             help="compute a vulnerability slice")
    p_slice.add_argument("--source", action="append",
                         help="mini-C source file (repeatable)")
    p_slice.add_argument("--graph", help="graph-interchange JSON file")
    p_slice.add_argument("--vuln", required=True,
                         help="vulnerable lines as file:line[,file:line...]")
    p_slice.add_argument("--cwe", default="", help="CWE ids, comma separated")
    p_slice.add_argument("--entry", help="entry function override")
    p_slice.add_argument("--out", required=True, help="slice JSON output path")
    p_slice.set_defaults(func=cmd_slice)

    p_mine = sub.add_parser("mine", parents=[graph_flags],
                            help="mine an exemplar pool from known patches")
    p_mine.add_argument("--dataset", required=True, help="JSONL dataset")
    p_mine.add_argument("--provider", required=True, help="provider id")
    p_mine.add_argument("--config", help="provider configuration file")
    p_mine.add_argument("--pool", required=True, help="pool JSONL output path")
    p_mine.add_argument("--jobs", type=int, default=1, help="parallel samples")
    p_mine.set_defaults(func=cmd_mine)

    p_patch = sub.add_parser("patch", parents=[graph_flags],
                             help="generate and validate candidate patches")
    p_patch.add_argument("--sample", required=True, help="sample JSON file")
    p_patch.add_argument("--pool", required=True, help="exemplar pool JSONL")
    p_patch.add_argument("--provider", required=True, help="generating provider id")
    p_patch.add_argument("--config", help="provider configuration file")
    p_patch.add_argument("--validators", default="",
                         help="validating provider ids, comma separated; "
                              "omit to skip validation")
    p_patch.add_argument("--out", required=True, help="output directory")
    p_patch.add_argument("--cwe-filter", action="store_true",
                         help="pre-filter the pool to matching CWE ids")
    p_patch.add_argument("--max-rounds", type=int, default=DEFAULT_DEMAND_ROUNDS,
                         help="context-demand round ceiling")
    p_patch.add_argument("--jobs", type=int, default=1,
                         help="concurrent validators")
    p_patch.set_defaults(func=cmd_patch)

    p_eval = sub.add_parser("eval", help="score generated patches")
    p_eval.add_argument("--results", required=True,
                        help="directory of per-sample patch outputs")
    p_eval.add_argument("--ground-truth", required=True, help="JSONL dataset")
    p_eval.add_argument("--labels", help="human labels JSONL")
    p_eval.add_argument("--report", required=True, help="report JSON output path")
    p_eval.add_argument("--csv", help="also write a CSV table")
    p_eval.set_defaults(func=cmd_eval)

    return parser


# Built once: every call parses into a fresh namespace.
_PARSER = build_arg_parser()


def _log_level() -> str:
    """$APPATCH_LOG, checked on every call: ``basicConfig`` applies only the first."""
    level = os.environ.get("APPATCH_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level), int):
        raise UsageError(f"APPATCH_LOG: unknown logging level {level!r}")
    return level


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # The one place an error becomes an exit code: bad input or
    # configuration, or a file that cannot be read or written, is a usage
    # error; a failed stage is a pipeline error.
    try:
        return args.func(args)
    except (UsageError, DatasetError, evaluation.EvaluationError, ConfigurationError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PipelineError, ScopingError, PromptingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
