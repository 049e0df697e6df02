import pytest

from appatch.diffs import ApplyError, DiffError, apply_patch, parse_diff, touched_lines


SOURCE = "alpha\nbeta\ngamma\ndelta\n"


def test_empty_diff_is_identity():
    assert apply_patch({"f.c": SOURCE}, "") == {"f.c": SOURCE}
    assert apply_patch({"f.c": SOURCE}, "   \n") == {"f.c": SOURCE}


def test_single_line_replacement():
    diff = (
        "--- a/f.c\n"
        "+++ b/f.c\n"
        "@@ -2,1 +2,1 @@\n"
        "-beta\n"
        "+BETA\n"
    )
    patched = apply_patch({"f.c": SOURCE}, diff)
    assert patched["f.c"] == "alpha\nBETA\ngamma\ndelta\n"


def test_insertion_with_context():
    diff = (
        "--- a/f.c\n"
        "+++ b/f.c\n"
        "@@ -2,2 +2,4 @@\n"
        " beta\n"
        "+inserted one\n"
        "+inserted two\n"
        " gamma\n"
    )
    patched = apply_patch({"f.c": SOURCE}, diff)
    assert patched["f.c"] == "alpha\nbeta\ninserted one\ninserted two\ngamma\ndelta\n"


def test_context_mismatch_names_the_hunk():
    diff = (
        "--- a/f.c\n"
        "+++ b/f.c\n"
        "@@ -2,1 +2,1 @@\n"
        "-wrong\n"
        "+BETA\n"
    )
    with pytest.raises(ApplyError) as err:
        apply_patch({"f.c": SOURCE}, diff)
    assert err.value.hunk_index == 1
    assert "f.c" in str(err.value)


@pytest.mark.parametrize("hunk,message", [
    ("@@ -2,1 +2,2 @@\n wrong\n+new\n",
     "context mismatch at line 2: expected 'wrong', found 'beta'"),
    ("@@ -2,1 +2,1 @@\n-wrong\n+BETA\n",
     "removed line mismatch at line 2: expected 'wrong', found 'beta'"),
    ("@@ -4,2 +4,3 @@\n delta\n omega\n+new\n",
     "context mismatch at line 5: expected 'omega', found '<eof>'"),
    ("@@ -4,2 +4,2 @@\n delta\n-omega\n+new\n",
     "removed line mismatch at line 5: expected 'omega', found '<eof>'"),
])
def test_mismatch_messages_name_the_line_kind(hunk, message):
    with pytest.raises(ApplyError) as err:
        apply_patch({"f.c": SOURCE}, "--- a/f.c\n+++ b/f.c\n" + hunk)
    assert str(err.value) == "f.c, hunk #1: " + message


def test_hunk_past_the_last_line_is_beyond_the_file():
    with pytest.raises(ApplyError) as err:
        apply_patch({"f.c": SOURCE}, "--- a/f.c\n+++ b/f.c\n@@ -6,1 +6,1 @@\n-zeta\n+ZETA\n")
    assert str(err.value) == "f.c, hunk #1: hunk starts at line 6, beyond the file"


@pytest.mark.parametrize("hunks, message", [
    ("@@ -4,1 +4,1 @@\n-delta\n+DELTA\n@@ -2,1 +2,1 @@\n-beta\n+BETA\n",
     "hunk #2: hunk starts at line 2, not after hunk #1, which ends at line 4"),
    ("@@ -2,2 +2,2 @@\n beta\n-gamma\n+GAMMA\n@@ -3,1 +3,1 @@\n-gamma\n+G\n",
     "hunk #2: hunk starts at line 3, not after hunk #1, which ends at line 3"),
    ("@@ -0,1 +0,1 @@\n-alpha\n+ALPHA\n", "hunk #1: hunk starts at line 0, not after line 0"),
], ids=["out-of-order", "overlapping", "line-0"])
def test_hunk_before_the_end_of_the_previous_one_names_it(hunks, message):
    with pytest.raises(ApplyError) as err:
        apply_patch({"f.c": SOURCE}, "--- a/f.c\n+++ b/f.c\n" + hunks)
    assert str(err.value) == "f.c, " + message


def test_unknown_file_rejected():
    diff = "--- a/g.c\n+++ b/g.c\n@@ -1,1 +1,1 @@\n-alpha\n+ALPHA\n"
    with pytest.raises(ApplyError):
        apply_patch({"f.c": SOURCE}, diff)


def test_multi_hunk_and_multi_file():
    diff = (
        "--- a/f.c\n"
        "+++ b/f.c\n"
        "@@ -1,1 +1,1 @@\n"
        "-alpha\n"
        "+ALPHA\n"
        "@@ -4,1 +4,1 @@\n"
        "-delta\n"
        "+DELTA\n"
        "--- a/g.c\n"
        "+++ b/g.c\n"
        "@@ -1,1 +1,1 @@\n"
        "-one\n"
        "+ONE\n"
    )
    patched = apply_patch({"f.c": SOURCE, "g.c": "one\ntwo\n"}, diff)
    assert patched["f.c"] == "ALPHA\nbeta\ngamma\nDELTA\n"
    assert patched["g.c"] == "ONE\ntwo\n"


def test_truncated_hunk_is_a_diff_error():
    diff = "--- a/f.c\n+++ b/f.c\n@@ -1,2 +1,2 @@\n-alpha\n"
    with pytest.raises(DiffError):
        apply_patch({"f.c": SOURCE}, diff)


def test_headerless_count_defaults_to_one():
    diff = "--- a/f.c\n+++ b/f.c\n@@ -2 +2 @@\n-beta\n+BETA\n"
    patched = apply_patch({"f.c": SOURCE}, diff)
    assert "BETA" in patched["f.c"]


def test_fixture_ground_truth_patches_apply(fixtures_dir):
    from appatch.exemplars import load_dataset

    # load_dataset re-checks the apply-cleanly invariant for every sample
    path = fixtures_dir / "dataset.jsonl"
    samples = load_dataset(path.read_text(encoding="utf-8"), path)
    assert [s.id for s in samples] == [
        "jsi-strcpy-overflow", "idx-oob-read", "null-deref-store",
    ]


def test_touched_lines_reports_old_ranges():
    diff = (
        "--- a/f.c\n"
        "+++ b/f.c\n"
        "@@ -2,2 +2,3 @@\n"
        " beta\n"
        "+mid\n"
        " gamma\n"
    )
    assert touched_lines(diff) == {"f.c": [(2, 3)]}


def test_parse_diff_strips_git_prefixes():
    diff = "--- a/sub/f.c\n+++ b/sub/f.c\n@@ -1,1 +1,1 @@\n-alpha\n+A\n"
    files = parse_diff(diff)
    assert files[0].path == "sub/f.c"
