import itertools

import pytest

from appatch.prompting import CandidatePatch
from appatch.scoping import RenderedSlice, VulnSpec
from appatch.validation import ValidationVerdict, validate_all, validate_patch

from conftest import scripted


SLICE = RenderedSlice(text="1: int x;", included_functions=frozenset({"f"}),
                      listed_ei=frozenset())
SPEC = VulnSpec(vulnerable_lines=(("f.c", 1),), cwe_ids=("CWE-787",))


def patch(ordinal=1):
    return CandidatePatch(ordinal=ordinal, diff=f"diff-{ordinal}", prompt_digest="d")


def test_affirmative_first_token():
    answer, _ = validate_patch(SLICE, SPEC, patch(), scripted(["Yes, the patch ..."]))
    assert answer == "yes"


def test_negative_first_token():
    answer, _ = validate_patch(SLICE, SPEC, patch(), scripted(["No."]))
    assert answer == "no"


def test_provider_failure_answers_error():
    provider = scripted([{"error": "offline", "transient": False}])
    answer, exchange = validate_patch(SLICE, SPEC, patch(), provider)
    assert answer == "error"
    assert exchange is None


def test_answered_judge_returns_its_exchange():
    answer, exchange = validate_patch(SLICE, SPEC, patch(), scripted(["No."], "v1"))
    assert answer == "no"
    assert (exchange.provider_id, exchange.response) == ("v1", "No.")


def test_single_yes_retains_patch():
    validators = [scripted(["no"], "v1"), scripted(["yes"], "v2"),
                  scripted(["no"], "v3")]
    retained, verdicts, _ = validate_all([patch()], validators, SLICE, SPEC)
    assert [p.ordinal for p in retained] == [1]
    assert verdicts[0].retained is True


def test_all_no_removes_patch():
    validators = [scripted(["no"], f"v{i}") for i in range(3)]
    retained, verdicts, _ = validate_all([patch()], validators, SLICE, SPEC)
    assert retained == []
    assert verdicts[0].retained is False


@pytest.mark.parametrize("combo", list(itertools.product(["yes", "no"], repeat=3)))
def test_or_semantics_truth_table(combo):
    validators = [scripted([answer], f"v{i}") for i, answer in enumerate(combo)]
    retained, verdicts, _ = validate_all([patch()], validators, SLICE, SPEC)
    assert (len(retained) == 1) == ("yes" in combo)
    assert dict(verdicts[0].answers) == {f"v{i}": a for i, a in enumerate(combo)}


def test_two_patches_three_validators_exhaustive():
    for combo_a in itertools.product(["yes", "no"], repeat=3):
        for combo_b in itertools.product(["yes", "no"], repeat=3):
            validators = [
                scripted([combo_a[i], combo_b[i]], f"v{i}") for i in range(3)
            ]
            patches = [patch(1), patch(2)]
            retained, verdicts, _ = validate_all(patches, validators, SLICE, SPEC)
            expected = [
                ordinal
                for ordinal, combo in ((1, combo_a), (2, combo_b))
                if "yes" in combo
            ]
            assert [p.ordinal for p in retained] == expected


def test_output_order_is_a_subsequence_of_input_order():
    validators = [scripted(["no", "yes", "no", "yes", "yes"], "v1")]
    patches = [patch(i) for i in range(1, 6)]
    retained, _, _ = validate_all(patches, validators, SLICE, SPEC)
    assert [p.ordinal for p in retained] == [2, 4, 5]


def test_adding_a_provider_never_removes_a_retained_patch():
    base = [scripted(["yes"], "v1")]
    retained_before, _, _ = validate_all([patch()], base, SLICE, SPEC)
    extended = [scripted(["yes"], "v1"), scripted(["no"], "v2")]
    retained_after, _, _ = validate_all([patch()], extended, SLICE, SPEC)
    assert {p.ordinal for p in retained_before} <= {p.ordinal for p in retained_after}


@pytest.mark.parametrize("answers,kept", [
    ((("v1", "no"),), False),
    ((("v1", "error"), ("v2", "yes")), True),
    ((("v1", "error"), ("v2", "no")), False),
    ((), False),
])
def test_retained_is_derived_from_the_answers(answers, kept):
    verdict = ValidationVerdict(ordinal=1, answers=answers)
    assert verdict.retained is kept
    assert verdict._fields == ("ordinal", "answers")


def test_requires_a_provider():
    with pytest.raises(ValueError):
        validate_all([patch()], [], SLICE, SPEC)


def test_concurrent_judges_preserve_per_judge_order():
    validators = [
        scripted(["yes", "no", "no"], "v1"),
        scripted(["no", "yes", "no"], "v2"),
    ]
    patches = [patch(1), patch(2), patch(3)]
    retained, verdicts, _ = validate_all(patches, validators, SLICE, SPEC, jobs=2)
    assert [p.ordinal for p in retained] == [1, 2]
    assert dict(verdicts[2].answers) == {"v1": "no", "v2": "no"}


@pytest.mark.parametrize("other,kept", [("yes", True), ("no", False)])
def test_failed_judge_is_recorded_as_error_and_casts_no_vote(other, kept):
    validators = [scripted([{"error": "offline", "transient": False}], "v1"),
                  scripted([other], "v2")]
    retained, verdicts, exchanges = validate_all([patch()], validators, SLICE, SPEC)
    assert dict(verdicts[0].answers) == {"v1": "error", "v2": other}
    assert verdicts[0].retained is kept
    assert (len(retained) == 1) is kept
    assert len(exchanges) == 1


def test_verdict_accepts_error_and_rejects_unknown_answers():
    verdict = ValidationVerdict(ordinal=1, answers=(("v1", "error"), ("v2", "yes")))
    assert verdict.retained
    with pytest.raises(ValueError):
        ValidationVerdict(ordinal=1, answers=(("v1", "maybe"),))
