"""Seeded synthetic mini-C programs and the scripted answers that drive them.

Every program has the same shape: ``main`` passes its parameters into a
chain of stage functions, each stage allocates buffers with ``malloc``
(external inputs) whose contents flow into an accumulator, the
accumulator is handed to the next stage, and the last stage calls a sink
whose copy loop is the vulnerable write.  Filler blocks (loops, branches,
helper calls) make up the rest of each stage and stay off the path.

A seed changes identifiers, constants, filler order and the scripted
answers, never the number of lines, stages, allocations or filler
blocks, so every seed asks the program for the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

CWE = "CWE-787"
BLOCK_LINES = 6  # every filler block is exactly this many lines


@dataclass(frozen=True)
class Shape:
    """Size knobs of one program: ``lines`` is approximate and seed-free."""

    lines: int
    eis_per_stage: int
    fillers_per_stage: int

    @property
    def stage_lines(self) -> int:
        return 9 + 3 * self.eis_per_stage + BLOCK_LINES * self.fillers_per_stage

    @property
    def stages(self) -> int:
        fixed = 6 + 10 + 5  # main, sink, helper
        return max(2, round((self.lines - fixed) / self.stage_lines))


@dataclass
class Program:
    """One generated program plus everything known about it by construction."""

    id: str
    file: str
    text: str
    vuln_line: int
    sink: str
    stages: Tuple[str, ...]
    ground_truth_patch: str
    candidates: Tuple[str, ...] = ()     # five diffs, in the order the model emits them
    syneq: Tuple[bool, ...] = ()         # candidate i is syntactically the fix
    plausible: Tuple[bool, ...] = ()     # candidate i carries a human Plausible label

    @property
    def lines(self) -> int:
        return self.text.count("\n")

    def sample_document(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "vuln": {"lines": [[self.file, self.vuln_line]], "cwes": [CWE]},
            "sources": [[self.file, self.text]],
            "ground_truth_patch": self.ground_truth_patch,
        }


def _name(rng: random.Random, stem: str) -> str:
    return f"{stem}_{rng.randrange(16 ** 4):04x}"


def _const(rng: random.Random) -> int:
    return rng.randrange(10, 100)


def _filler(rng: random.Random, kind: int, tag: str, helper: str) -> List[str]:
    a, b, c = _const(rng), _const(rng), _const(rng)
    if kind == 0:
        return [
            f"    int w{tag};",
            f"    w{tag} = {a};",
            f"    while (w{tag} > {b}) {{",
            f"        w{tag} = w{tag} - 1;",
            "    }",
            f"    log_value(w{tag});",
        ]
    if kind == 1:
        return [
            f"    int b{tag};",
            f"    b{tag} = {a} * {b};",
            f"    if (b{tag} > {c}) {{",
            f"        b{tag} = b{tag} - {a};",
            "    }",
            f"    log_value(b{tag});",
        ]
    if kind == 2:
        return [
            f"    int s{tag};",
            f"    int j{tag};",
            f"    s{tag} = 0;",
            f"    for (j{tag} = 0; j{tag} < {a}; j{tag} = j{tag} + 1) {{",
            f"        s{tag} = s{tag} + j{tag};",
            "    }",
        ]
    return [
        f"    int h{tag};",
        f"    h{tag} = {helper}({a}, {b});",
        f"    if (h{tag} == {c}) {{",
        f"        h{tag} = 0;",
        "    }",
        f"    log_value(h{tag});",
    ]


def _hunk(file: str, line: int, old: str, new: str) -> str:
    return (f"--- a/{file}\n+++ b/{file}\n@@ -{line},1 +{line},1 @@\n"
            f"-{old}\n+{new}\n")


def make_program(rng: random.Random, sample_id: str, shape: Shape) -> Program:
    """Build one program of ``shape`` with its fix and five candidate patches."""
    file = f"{sample_id}.c"
    stages = tuple(_name(rng, f"stage{i}") for i in range(shape.stages))
    sink, helper = _name(rng, "copy_out"), _name(rng, "mix")
    out: List[str] = []

    out += [f"int {helper}(int a, int b) {{",
            "    int r;",
            f"    r = a * {_const(rng)} + b;",
            "    return r;",
            "}"]
    out += ["int main(int argc, char *argv) {",
            "    int n;",
            f"    n = argc + {_const(rng)};",
            f"    return {stages[0]}(argv, n);",
            "}",
            ""]
    for index, stage in enumerate(stages):
        out += [f"int {stage}(char *buf, int n) {{",
                "    int acc;",
                f"    acc = n + {_const(rng)};"]
        for j in range(shape.eis_per_stage):
            out += [f"    char *m{j};",
                    f"    m{j} = malloc(acc + {_const(rng)});",
                    f"    acc = acc + m{j}[{j}];"]
        kinds = [k % 4 for k in range(shape.fillers_per_stage)]
        rng.shuffle(kinds)
        for k, kind in enumerate(kinds):
            out += _filler(rng, kind, str(k), helper)
        limit = _const(rng)
        out += [f"    if (acc > {limit}) {{",
                f"        acc = acc - {limit};",
                "    }"]
        if index + 1 < len(stages):
            out.append(f"    return {stages[index + 1]}(buf, acc);")
        else:
            out.append(f"    return {sink}(m0, buf, acc);")
        out += ["}", ""]

    cap, other_cap = rng.sample(range(10, 100), 2)
    header = len(out) + 4
    out += [f"int {sink}(char *dst, char *src, int n) {{",
            "    int i;",
            "    i = 0;",
            "    while (i < n) {",
            "        dst[i] = src[i];",
            "        i = i + 1;",
            "    }",
            "    return i;",
            "}"]
    text = "\n".join(out) + "\n"
    vuln_line = header + 1
    loop = "    while (i < n) {"
    fixed = f"    while (i < n && i < {cap}) {{"
    ground_truth = _hunk(file, header, loop, fixed)
    candidates = [
        (_hunk(file, header, loop, f"\twhile (i < n  &&  i < {cap}) {{ /* bounded */"),
         True, False),
        (_hunk(file, header, loop, f"    while (i < n && i < {other_cap}) {{"), False, True),
        (_hunk(file, header, loop, "    while (i <= n) {"), False, False),
        (_hunk(file, vuln_line, "        dst[i] = src[i];", "        dst[i] = src[i] & 127;"),
         False, False),
        (_hunk(file, vuln_line + 1, "        i = i + 1;", "        i = i + 2;"), False, False),
    ]
    rng.shuffle(candidates)
    return Program(
        id=sample_id, file=file, text=text, vuln_line=vuln_line, sink=sink,
        stages=stages, ground_truth_patch=ground_truth,
        candidates=tuple(c[0] for c in candidates),
        syneq=tuple(c[1] for c in candidates),
        plausible=tuple(c[2] for c in candidates),
    )


# ── scripted answers ────────────────────────────────────────────────────

def _words(rng: random.Random, count: int) -> str:
    vocab = ("length", "bound", "copy", "buffer", "size", "loop", "index",
             "input", "allocation", "write", "offset", "count")
    return " ".join(rng.choice(vocab) for _ in range(count))


def mining_answer(rng: random.Random, program: Program) -> str:
    return (f"ROOT CAUSE:\nIn {program.id} the allocations in {program.stages[-1]} "
            f"size the buffer that {program.sink} fills, but the copy loop is bounded "
            f"only by n. {_words(rng, 12)}\n"
            f"FIXING STRATEGY:\nBound the copy loop by the buffer capacity. "
            f"{_words(rng, 6)}")


def root_cause_answers(rng: random.Random, program: Program, rounds: int) -> List[str]:
    """``rounds`` demand answers walking up the call chain, then the final cause."""
    answers = []
    callee = program.sink
    chain = list(program.stages)
    for _ in range(rounds):
        answers.append('The bound comes from the caller: '
                       f'{{"context_funcs":["CALLER_of_{callee}"]}}')
        callee = chain.pop()
    answers.append(f"Root cause of {program.id}: the copy loop in {program.sink} writes "
                   f"dst[i] for i < n while dst was sized elsewhere. {_words(rng, 16)}")
    return answers


def comparison_answers(rng: random.Random, pool_size: int, scan: int, cap: int) -> List[str]:
    """Answers that make selection compare ``scan`` exemplars.

    A full scan (``scan == pool_size``) chooses fewer than ``cap``; a
    shorter scan chooses exactly ``cap``, the last one at position ``scan``.
    """
    if scan < pool_size:
        picks = set(rng.sample(range(scan - 1), cap - 1)) | {scan - 1}
    else:
        picks = set(rng.sample(range(pool_size), min(cap - 1, pool_size // 2)))
    return ["Yes, similar." if i in picks else "No." for i in range(scan)]


def patch_answer(program: Program) -> str:
    blocks = [f"Patch {i}:\n```diff\n{diff}```" for i, diff in enumerate(program.candidates, 1)]
    return "Five candidate patches follow.\n\n" + "\n\n".join(blocks)


# Validator answer patterns: for each pattern, which candidate kinds each
# of the two validators accepts.  Kinds: "syneq", "plausible", "bad".
VALIDATION_PATTERNS: Sequence[Tuple[Tuple[str, ...], Tuple[str, ...]]] = (
    (("syneq",), ("plausible",)),
    (("syneq", "plausible"), ()),
    ((), ("plausible", "bad")),
    (("bad",), ("syneq",)),
)


def validator_answers(program: Program, pattern) -> Tuple[List[str], List[str], List[int]]:
    """Two validators' answers in candidate order plus the retained ordinals."""
    kinds = ["syneq" if s else "plausible" if p else "bad"
             for s, p in zip(program.syneq, program.plausible)]
    first_bad = kinds.index("bad")  # a validator that accepts "bad" accepts only this one
    per_validator = []
    for accepts in pattern:
        answers = []
        for i, kind in enumerate(kinds):
            yes = kind in accepts and (kind != "bad" or i == first_bad)
            answers.append("Yes." if yes else "No.")
        per_validator.append(answers)
    retained = [i + 1 for i in range(5)
                if any(v[i] == "Yes." for v in per_validator)]
    return per_validator[0], per_validator[1], retained
