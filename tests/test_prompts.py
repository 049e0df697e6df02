import ast
import hashlib
import re
from pathlib import Path

import pytest

import appatch
from appatch.prompts import (
    COMPARISON_TEMPLATE,
    MINING_TEMPLATE,
    PATCH_FORMAT_INSTRUCTION,
    PATCH_TEMPLATE,
    ROOT_CAUSE_TEMPLATE,
    VALIDATION_TEMPLATE,
    build_comparison_prompt,
    build_mining_prompt,
    build_root_cause_prompt,
    build_validation_prompt,
    parse_verdict,
)
from appatch.scoping import VulnSpec

from regen_goldens import collect_prompts

GOLDEN = Path(__file__).parent / "fixtures" / "golden" / "prompts"

REASONING_SENTENCE = (
    "reason about the vulnerable behavior step by step until the "
    "vulnerability is determined"
)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def emitted():
    return collect_prompts()


def test_every_emitted_prompt_matches_its_golden_bytes(emitted):
    stored = {path.stem: path.read_text(encoding="utf-8")
              for path in GOLDEN.glob("*.txt")}
    assert set(emitted) == set(stored)
    for name, text in emitted.items():
        assert sha(text) == sha(stored[name]), f"prompt {name} drifted"
        assert text == stored[name]


# Words a prompt or its answer format spells out; a docstring may still name them.
PROMPT_SPELLING = re.compile(
    r"ROOT CAUSE|FIXING STRATEGY|context_funcs|CALLER_of_|\bPatch\b|\(unspecified\)"
)


def test_only_prompts_spells_a_prompt():
    """Templates, the records they frame and the answers they ask for are ``prompts.py``'s."""
    package = Path(appatch.__file__).parent
    spellers = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "prompts.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        for node in ast.walk(tree):
            spelled = (isinstance(node, ast.Constant) and isinstance(node.value, str)
                       and id(node) not in docstrings and PROMPT_SPELLING.search(node.value))
            imported = isinstance(node, ast.alias) and (
                node.name.endswith("_TEMPLATE") or node.name == "serialize_exemplar")
            if spelled or imported:
                spellers.append(f"{path.relative_to(package)}:{node.lineno}")
    assert spellers == []


def test_reasoning_sentence_is_verbatim_in_both_reasoning_templates():
    assert REASONING_SENTENCE in MINING_TEMPLATE
    assert REASONING_SENTENCE in ROOT_CAUSE_TEMPLATE


def test_fixed_sentences_survive_instantiation():
    spec = VulnSpec((("f.c", 1),), ("CWE-1",))
    mining = build_mining_prompt("s", spec, "diff", "ei")
    assert REASONING_SENTENCE in mining
    assert "Answer with two sections headed exactly 'ROOT CAUSE:' and "\
           "'FIXING STRATEGY:'." in mining

    cause = build_root_cause_prompt("s", spec, "ei")
    assert REASONING_SENTENCE in cause
    assert '{"context_funcs":[func_1,func_2,CALLER_of_func...]}' in cause
    assert '"CALLER_of_func" is a placeholder for the caller' in cause

    comparison = build_comparison_prompt("a", "b")
    assert comparison.startswith("Q: Are the following two root causes similar?")
    assert comparison.endswith("Please simply answer yes or no.")

    validation = build_validation_prompt("s", spec, "d")
    assert "fixes the vulnerability while keeping the functionality" in validation
    assert validation.endswith("Please simply answer yes or no.")

    assert "please generate five possible patches for the vulnerability" in PATCH_TEMPLATE
    assert "A: Step 1." in PATCH_TEMPLATE
    assert "Patch N:" in PATCH_FORMAT_INSTRUCTION


def test_templates_cover_all_fixture_shapes(emitted):
    assert VALIDATION_TEMPLATE.count("{") >= 4
    assert COMPARISON_TEMPLATE.count("{") >= 2
    # patch prompts embed the selected exemplars ahead of the question
    patch_prompt = emitted["patch_request"]
    first_q = patch_prompt.index("Q: Given the following code slice:")
    assert patch_prompt.index("A: Step 1.") > first_q
    assert patch_prompt.rstrip().endswith(PATCH_FORMAT_INSTRUCTION)


@pytest.mark.parametrize("response,expected", [
    ("Yes, the patch is valid.", True),
    ("yes", True),
    ("  YES!", True),
    ("No.", False),
    ("no way", False),
    ("Maybe yes", False),
    ("", False),
    ("1234", False),
    ("\n\nYes\n", True),
])
def test_verdict_first_token_rule(response, expected):
    assert parse_verdict(response) is expected
