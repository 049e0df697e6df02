import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from appatch.evaluation import (
    EvaluationError,
    classify_syneq,
    compute_metrics,
    f1_score,
    load_labels,
    normalize_code,
    _strip_comments,
)

from conftest import syneq_truth


GT_DIFF = (
    "--- a/jsi_like.c\n"
    "+++ b/jsi_like.c\n"
    "@@ -24,1 +24,1 @@\n"
    "-    p = malloc(cnt + 1);\n"
    "+    p = malloc(jsi_strlen(use) + 1);\n"
)

STRNCPY_DIFF = (
    "--- a/jsi_like.c\n"
    "+++ b/jsi_like.c\n"
    "@@ -48,1 +48,1 @@\n"
    "-    return jsi_strcpy(p, use);\n"
    "+    return jsi_strncpy(p, use, cnt + 1);\n"
)


@pytest.fixture(scope="module")
def jsi_sources(jsi_source):
    return {"jsi_like.c": jsi_source}


# ── normalization and SynEq ──────────────────────────────────────────────

def test_normalize_collapses_runs_and_drops_blanks():
    assert normalize_code("a  =\t 1;\n\n   b = 2;   \n") == "a = 1;\nb = 2;"


def test_normalize_strips_comments_but_not_strings():
    text = 'x = "keep // this"; // drop\n/* gone\n   entirely */ y = 1;\n'
    assert normalize_code(text) == 'x = "keep // this";\ny = 1;'


def test_unterminated_block_comment_drops_the_rest():
    assert normalize_code("a = 1; /* open\n b = 2;\n") == "a = 1;"


def test_escaped_quote_keeps_a_following_line_comment_inside_the_literal():
    text = 'x = "a\\" // keep"; // drop\n'
    assert normalize_code(text) == 'x = "a\\" // keep";'


def test_double_quote_in_a_char_literal_opens_no_string():
    assert normalize_code("c = '\"'; // gone\ny = 2;") == "c = '\"';\ny = 2;"


def test_closed_multi_line_comment_keeps_its_line_count():
    assert _strip_comments("a /* x\n\n y */ b\nc") == "a \n\n b\nc"


# The pattern as it was with one group around both literals; kept as the
# reference the grouping-free pattern must agree with.
_GROUPED_COMMENT_RE = re.compile(
    r'''("[^"\\]*(?:\\.[^"\\]*)*"?|'[^'\\]*(?:\\.[^'\\]*)*'?)'''
    r"|//[^\n]*|/\*(.*?)\*/|/\*.*",
    re.DOTALL,
)


def _grouped_strip(text):
    def replacement(match):
        literal, body = match.group(1, 2)
        if literal:
            return literal
        return "\n" * body.count("\n") if body else ""
    return _GROUPED_COMMENT_RE.sub(replacement, text)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(['"', "'", "\\", "//", "/*", "*/", "\n", "a", " "]),
                max_size=40))
def test_strip_comments_agrees_with_the_grouped_pattern(pieces):
    """Unterminated literals and comments included."""
    text = "".join(pieces)
    assert _strip_comments(text) == _grouped_strip(text)


def _reference_normalize(text):
    """The two-line formula: collapse every blank run, then strip and filter lines."""
    collapsed = re.sub(r"[ \t]+", " ", _strip_comments(text))
    return "\n".join(filter(None, map(str.strip, collapsed.split("\n"))))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from([" ", "  ", "\t", " \t", "\f", "\v", "\r", "\xa0", "a", "b",
                                 '"', "'", "\\", "//", "/*", "*/", "\n"]), max_size=40))
def test_normalize_equals_the_collapse_first_formula(pieces):
    text = "".join(pieces)
    assert normalize_code(text) == _reference_normalize(text)


@pytest.fixture(scope="module")
def gt_truth(jsi_sources):
    return syneq_truth(jsi_sources, GT_DIFF)


def test_identical_diffs_are_syneq(jsi_sources, gt_truth):
    equal, note = classify_syneq(jsi_sources, GT_DIFF, gt_truth)
    assert equal is True and note is None


def test_indentation_only_difference_is_syneq(jsi_sources, gt_truth):
    variant = GT_DIFF.replace(
        "+    p = malloc(jsi_strlen(use) + 1);",
        "+\tp =  malloc(jsi_strlen(use) + 1);",
    )
    equal, _ = classify_syneq(jsi_sources, variant, gt_truth)
    assert equal is True


def test_comment_only_difference_is_syneq(jsi_sources, gt_truth):
    variant = GT_DIFF.replace(
        "+    p = malloc(jsi_strlen(use) + 1);",
        "+    p = malloc(jsi_strlen(use) + 1); /* exact size */",
    )
    equal, _ = classify_syneq(jsi_sources, variant, gt_truth)
    assert equal is True


def test_bound_edit_differs_from_reallocation_edit(jsi_sources, gt_truth):
    equal, _ = classify_syneq(jsi_sources, STRNCPY_DIFF, gt_truth)
    assert equal is False


def test_syneq_is_symmetric(jsi_sources, gt_truth):
    a, _ = classify_syneq(jsi_sources, STRNCPY_DIFF, gt_truth)
    b, _ = classify_syneq(jsi_sources, GT_DIFF, syneq_truth(jsi_sources, STRNCPY_DIFF))
    assert a == b is False
    c, _ = classify_syneq(jsi_sources, GT_DIFF, gt_truth)
    assert c is True


def test_failing_apply_is_false_with_note(jsi_sources, gt_truth):
    broken = GT_DIFF.replace("-    p = malloc(cnt + 1);", "-    nope;")
    equal, note = classify_syneq(jsi_sources, broken, gt_truth)
    assert equal is False
    assert "does not apply" in note


# ── F1 and metrics ───────────────────────────────────────────────────────

def test_f1_matches_published_example():
    assert f1_score(0.4948, 0.2887) == pytest.approx(0.3646, abs=5e-4)


def test_f1_zero_guard():
    assert f1_score(0.0, 0.5) == 0.0
    assert f1_score(0.5, 0.0) == 0.0
    assert f1_score(0.0, 0.0) == 0.0


def test_two_sample_worked_example():
    report = compute_metrics(2, {("s1", 1): "Plausible"}, {"s1": 5, "s2": 5})
    correct = report.per_category["Correct"]
    assert correct.recall == pytest.approx(0.5)
    assert correct.precision == pytest.approx(0.1)
    assert correct.f1 == pytest.approx(2 * 0.05 / 0.6)
    assert report.fixed_samples == 1
    assert report.generated_patches == 10


def test_csv_bytes_keep_crlf_row_endings():
    report = compute_metrics(2, {("s1", 1): "Plausible"}, {"s1": 5, "s2": 5})
    rows = report.to_csv().encode("utf-8").split(b"\r\n")
    assert rows[0] == b"category,recall,precision,f1"
    assert b"Correct,0.500000,0.100000,0.166667" in rows
    assert rows[-1] == b""                      # every row ends in \r\n
    assert len(rows) == len(report.per_category) + 2
    assert not any(b"\r" in row or b"\n" in row for row in rows)


def test_zero_generated_patches_guarded():
    report = compute_metrics(3, {}, {"s1": 0, "s2": 0, "s3": 0})
    for name, metrics in report.per_category.items():
        assert metrics.recall == 0.0
        assert metrics.precision == 0.0
        assert metrics.f1 == 0.0


def test_unknown_sample_label_rejected():
    with pytest.raises(EvaluationError):
        compute_metrics(1, {("ghost", 1): "SynEq"}, {"s1": 5})


def test_every_syneq_patch_is_correct():
    categories = {("s1", 1): "SynEq", ("s1", 2): "SemEq", ("s2", 1): "Incorrect"}
    report = compute_metrics(2, categories, {"s1": 5, "s2": 5})
    syn = report.per_category["SynEq"]
    correct = report.per_category["Correct"]
    assert report.correct_patches >= 1
    assert correct.precision >= syn.precision
    assert correct.recall >= syn.recall


counts = st.integers(min_value=0, max_value=40)


@settings(max_examples=200, deadline=None)
@given(samples=st.integers(min_value=1, max_value=40),
       fixed=counts, correct=counts, generated=counts)
def test_f1_harmonic_mean_bounds(samples, fixed, correct, generated):
    recall = min(fixed, samples) / samples
    precision = (min(correct, generated) / generated) if generated else 0.0
    value = f1_score(recall, precision)
    assert 0.0 <= value <= 1.0
    assert value <= max(recall, precision) + 1e-12
    assert value <= 2 * min(recall, precision) + 1e-12


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), min_size=1,
                max_size=25))
def test_category_monotonicity_on_random_labelings(rows):
    generated = {}
    labels = {}
    categories = ["SynEq", "SemEq", "Plausible", "Incorrect"]
    for index, (patch_count, _seed) in enumerate(rows):
        sample_id = f"s{index}"
        generated[sample_id] = patch_count
        for ordinal in range(1, patch_count + 1):
            category = categories[(index + ordinal + _seed) % 4]
            labels[(sample_id, ordinal)] = category
    report = compute_metrics(len(rows), labels, generated)
    syn = report.per_category["SynEq"]
    correct = report.per_category["Correct"]
    assert correct.recall >= syn.recall
    assert correct.precision >= syn.precision
    assert report.correct_patches >= sum(
        1 for category in labels.values() if category == "SynEq"
    )


# ── labels files ─────────────────────────────────────────────────────────

def test_load_labels_rejects_duplicates(tmp_path):
    path = tmp_path / "labels.jsonl"
    label = {"sample_id": "s1", "ordinal": 1, "category": "SemEq", "source": "human"}
    conflict = dict(label, category="Plausible")
    path.write_text(json.dumps(label) + "\n" + json.dumps(conflict) + "\n")
    with pytest.raises(EvaluationError) as err:
        load_labels(path.read_text(encoding="utf-8"), path)
    assert "duplicate" in str(err.value)


def test_label_source_is_checked_but_not_kept(tmp_path):
    path = tmp_path / "labels.jsonl"
    docs = [{"sample_id": "s1", "ordinal": 1, "category": "SemEq", "source": "human"},
            {"sample_id": "s1", "ordinal": 2, "category": "SynEq", "source": "auto"},
            {"sample_id": "s1", "ordinal": 3, "category": "Plausible"}]
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    assert load_labels(path.read_text(encoding="utf-8"), path) == {
        ("s1", 1): "SemEq", ("s1", 2): "SynEq", ("s1", 3): "Plausible",
    }
    path.write_text(json.dumps(dict(docs[0], source="robot")) + "\n")
    with pytest.raises(EvaluationError) as err:
        load_labels(path.read_text(encoding="utf-8"), path)
    assert str(err.value) == f"{path}, line 1: 'source' must be one of auto, human"

