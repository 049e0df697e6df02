#!/usr/bin/env python3
"""Hand-written mutants of ``src/appatch``, each with the one test that must kill it.

    python3 tests/mutants.py

The tree is copied to a temporary directory once.  The script first runs
every named test on the unmutated copy; each must pass.  Then, one mutant
at a time, it replaces the mutant's text in the copy (the text must occur
exactly once), runs the mutant's test there, and puts the file back.  A
mutant whose test fails is killed; one whose test passes survived.  It
prints one line per mutant and exits 0 when every mutant is killed, 1 when
one survived, and 2 when the list no longer matches the tree.

A change to ``code_model/``, ``scoping.py``, ``prompting.py``, ``diffs.py``
or ``validation.py`` runs this script, and adds a mutant for each check it
adds.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str   # under src/appatch
    old: str
    new: str
    test: str   # a pytest node id, relative to the repository root


_FLAGS = "tests/test_cli.py::test_manifest_flags_record_each_setting_that_shapes_the_outputs"

MUTANTS: List[Mutant] = [
    # A rendered function always shows its signature line.
    Mutant("scoping.py", "            lines.add((fn.file, fn.start_line))\n", "            pass\n",
           "tests/test_scoping.py::"
           "test_render_shows_the_signature_line_of_a_function_with_no_slice_node_on_it"),
    # A candidate's hunk must end inside a rendered function, not only start there.
    Mutant("prompting.py", "lo <= start and end <= hi", "lo <= start",
           "tests/test_prompting.py::"
           "test_block_that_runs_past_the_end_of_a_rendered_function_is_dropped"),
    # apply_patch tells a hunk past the file from one out of order.
    Mutant("diffs.py", "            if anchor > len(old_lines):\n",
           "            if anchor < cursor or anchor > len(old_lines):\n",
           "tests/test_diffs.py::test_hunk_before_the_end_of_the_previous_one_names_it"),
    Mutant("diffs.py", "            if anchor > len(old_lines):\n", "            if False:\n",
           "tests/test_diffs.py::test_hunk_past_the_last_line_is_beyond_the_file"),
    # A dataset that repeats a sample id is refused at the line that repeats it.
    Mutant("exemplars.py",
           "        if sample.id in samples:\n"
           "            raise DatasetError(f\"{where}: duplicate sample id: {sample.id!r}\")\n",
           "",
           "tests/test_cli.py::"
           "test_a_dataset_that_repeats_a_sample_id_is_usage_error_naming_the_line[eval]"),
    # A config that sets a retired key is refused.
    Mutant("cli.py", "        if key in doc:\n", "        if False:\n",
           "tests/test_cli.py::test_config_of_the_wrong_shape_is_usage_error"
           "[retired-external-functions]"),
    # Each setting that shapes a command's outputs is in its manifest's flags.
    Mutant("cli.py", '{"entry": args.entry, ', "{", f"{_FLAGS}[slice-entry]"),
    Mutant("cli.py",
           '"external_functions": sorted(args.external_functions),\n                "fallback"',
           '"fallback"', f"{_FLAGS}[slice-external-functions]"),
    Mutant("cli.py",
           '        "external_functions": sorted(args.external_functions),\n        "samples"',
           '        "samples"', f"{_FLAGS}[mine-external-functions]"),
    Mutant("cli.py",
           '        "external_functions": sorted(args.external_functions),\n        "max_rounds"',
           '        "max_rounds"', f"{_FLAGS}[patch-external-functions]"),
    Mutant("cli.py", '        "max_rounds": args.max_rounds,\n', "",
           f"{_FLAGS}[patch-max-rounds]"),
    Mutant("cli.py", '        "cwe_filter": args.cwe_filter,\n', "",
           f"{_FLAGS}[patch-cwe-filter]"),
]


def _pytest(tree: Path, *tests: str) -> int:
    # No bytecode cache: a mutant and the original may share a size and an mtime second.
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="appatch-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".bench_work", ".benchmarks"))
        for mutant in MUTANTS:
            count = (tree / "src" / "appatch" / mutant.file).read_text().count(mutant.old)
            if count != 1:
                print(f"{mutant.file}: the mutant's text occurs {count} times: {mutant.old!r}")
                return 2
        if _pytest(tree, *sorted({m.test for m in MUTANTS})) != 0:
            print("a named test fails on the unmutated tree")
            return 2
        survivors = 0
        for mutant in MUTANTS:
            path = tree / "src" / "appatch" / mutant.file
            original = path.read_text()
            path.write_text(original.replace(mutant.old, mutant.new))
            try:
                code = _pytest(tree, mutant.test)
            finally:
                path.write_text(original)
            if code not in (0, 1):
                print(f"{mutant.test}: pytest exited {code}")
                return 2
            survivors += code == 0
            print(f"{'survived' if code == 0 else 'killed  '}  {mutant.file}: {mutant.old!r}"
                  f" -> {mutant.new!r}  by {mutant.test}")
        print(f"{len(MUTANTS) - survivors} killed, {survivors} survived")
        return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
