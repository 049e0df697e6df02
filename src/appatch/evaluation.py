"""Patch classification and metrics.

Syntactic equivalence is decided automatically by comparing the patched
texts after whitespace/comment normalization.  Semantic equivalence and
plausibility only ever come from a human-authored labels file.  ``eval``
decides each retained patch's category once, as it reads that patch: an
automatic SynEq beats the human label, which beats the default,
Incorrect.  :func:`compute_metrics` counts the resulting
``{(sample_id, ordinal): category}`` mapping.
"""

from __future__ import annotations

import io
import logging
import re
from pathlib import Path
from typing import Any, Dict, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .diffs import ApplyError, DiffError, apply_patch
from .files import checked, is_int, is_str, json_lines, optional

log = logging.getLogger(__name__)

CATEGORIES = ("SynEq", "SemEq", "Plausible", "Incorrect")
REPORT_CATEGORIES = ("SynEq", "SemEq", "Plausible", "Correct")
CORRECT_MEMBERS = ("SynEq", "SemEq", "Plausible")
LABEL_SOURCES = ("auto", "human")


class EvaluationError(Exception):
    """Inconsistent labels or counts."""


_LABEL_FIELDS = (
    ("sample_id", is_str, "a string"),
    ("ordinal", is_int, "an integer"),
    ("category", CATEGORIES.__contains__, f"one of {', '.join(CATEGORIES)}"),
    ("source", optional(LABEL_SOURCES.__contains__), f"one of {', '.join(LABEL_SOURCES)}"),
)


def load_labels(text: str, path: Union[str, Path]) -> Dict[Tuple[str, int], str]:
    """A JSON-lines labels file as ``{(sample_id, ordinal): category}``; ``path`` names it."""
    labels: Dict[Tuple[str, int], str] = {}
    for where, doc in json_lines(text, path, EvaluationError):
        fields = checked(doc, where, _LABEL_FIELDS, EvaluationError)
        # 'source' is checked, but no stage reads it
        key = (fields["sample_id"], fields["ordinal"])
        if key in labels:
            raise EvaluationError(
                f"{where}: duplicate label for sample {key[0]!r} patch {key[1]}"
            )
        labels[key] = fields["category"]
    return labels


# ── SynEq classification ────────────────────────────────────────────────

# A literal (kept whole, even unterminated), a // comment, a closed block
# comment (its body is kept for its newlines) or an unterminated one.  No
# group spans the alternatives, so the scan jumps to the characters that
# can start one.
_COMMENT_RE = re.compile(
    r'''"[^"\\]*(?:\\.[^"\\]*)*"?|'[^'\\]*(?:\\.[^'\\]*)*'?'''
    r"|//[^\n]*|/\*(.*?)\*/|/\*.*",
    re.DOTALL,
)
# A run of blanks inside a line that is not already one space.
_BLANKS_RE = re.compile(r"\t[ \t]*| [ \t]+")


def _replacement(match: re.Match) -> str:
    text = match.group()
    if text[0] in "\"'":   # a literal
        return text
    body = match.group(1)
    return "\n" * body.count("\n") if body else ""


def _strip_comments(text: str) -> str:
    """Remove // and /* */ comments, leaving string literals alone."""
    return _COMMENT_RE.sub(_replacement, text)


def normalize_code(text: str) -> str:
    """Comment-free text with whitespace runs collapsed and blank lines dropped."""
    # Stripping first leaves only the runs inside a line, and a lone space
    # collapses to itself, so only the runs the substitution changes match.
    lines = filter(None, map(str.strip, _strip_comments(text).split("\n")))
    return _BLANKS_RE.sub(" ", "\n".join(lines))


def classify_syneq(
    sources: Mapping[str, str] | Sequence[Tuple[str, str]],
    patch_diff: str,
    truth: Mapping[str, str],
) -> Tuple[bool, Optional[str]]:
    """Whether a diff yields the ground truth's program text after normalization.

    ``truth`` maps every file the ground-truth patch yields to its
    :func:`normalize_code` text, so a caller checking several patches
    against one ground truth normalizes it once.  Returns (equivalent,
    note); a patch that fails to apply is not equivalent and the note says
    why.
    """
    try:
        patched = apply_patch(sources, patch_diff)
    except (ApplyError, DiffError) as exc:
        return False, f"patch does not apply: {exc}"
    if set(patched) != set(truth):
        return False, "patched file sets differ"
    for path in sorted(truth):
        if normalize_code(patched[path]) != truth[path]:
            return False, None
    return True, None


# ── metrics ─────────────────────────────────────────────────────────────

def f1_score(recall: float, precision: float) -> float:
    """Harmonic mean with the zero guard the report format requires."""
    if recall == 0 or precision == 0:
        return 0.0
    return 2 * recall * precision / (recall + precision)


class CategoryMetrics(NamedTuple):
    recall: float
    precision: float
    f1: float


class MetricsReport(NamedTuple):
    per_category: Mapping[str, CategoryMetrics]   # SynEq/SemEq/Plausible/Correct
    testing_samples: int
    fixed_samples: int
    generated_patches: int
    correct_patches: int

    def to_document(self) -> Dict[str, Any]:
        return {
            "categories": {
                name: {
                    "recall": metrics.recall,
                    "precision": metrics.precision,
                    "f1": metrics.f1,
                }
                for name, metrics in self.per_category.items()
            },
            "counts": {
                "testing_samples": self.testing_samples,
                "fixed_samples": self.fixed_samples,
                "generated_patches": self.generated_patches,
                "correct_patches": self.correct_patches,
            },
        }

    def to_csv(self) -> str:
        """The report as a CSV table, one row per category, rows ending in ``\\r\\n``."""
        import csv

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["category", "recall", "precision", "f1"])
        for name in REPORT_CATEGORIES:
            metrics = self.per_category[name]
            writer.writerow([
                name,
                f"{metrics.recall:.6f}",
                f"{metrics.precision:.6f}",
                f"{metrics.f1:.6f}",
            ])
        return buffer.getvalue()


def compute_metrics(
    samples: int,
    categories: Mapping[Tuple[str, int], str],
    generated: Mapping[str, int],
) -> MetricsReport:
    """Recall/precision/F1 per category over the categorized patches.

    ``samples`` is the testing-set size (the recall denominator);
    ``categories`` maps ``(sample_id, ordinal)`` to a patch's category;
    ``generated`` maps sample id to its number of generated patches (their
    sum is the precision denominator).  Ordinals are identities rather
    than indexes, so they may be sparse after validation removed some
    candidates.  A patch with no category is incorrect.
    """
    if samples < 0:
        raise ValueError("samples must be >= 0")
    for sample_id, _ordinal in categories:
        if sample_id not in generated:
            raise EvaluationError(f"label references unknown sample {sample_id!r}")

    total_generated = sum(generated.values())
    per_category: Dict[str, CategoryMetrics] = {}
    for category in REPORT_CATEGORIES:
        members = (
            CORRECT_MEMBERS if category == "Correct" else (category,)
        )
        matched = [sample_id for (sample_id, _), label in categories.items() if label in members]
        patch_count = len(matched)
        sample_count = len(set(matched))
        recall = sample_count / samples if samples else 0.0
        precision = patch_count / total_generated if total_generated else 0.0
        per_category[category] = CategoryMetrics(
            recall=recall,
            precision=precision,
            f1=f1_score(recall, precision),
        )

    # REPORT_CATEGORIES ends with Correct: the counts are that row's.
    return MetricsReport(
        per_category=per_category,
        testing_samples=samples,
        fixed_samples=sample_count,
        generated_patches=total_generated,
        correct_patches=patch_count,
    )
