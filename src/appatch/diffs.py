"""Unified-diff parsing and application with exact context matching."""

from __future__ import annotations

import re
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")


class DiffError(Exception):
    """Malformed diff text."""


class ApplyError(Exception):
    """A hunk's context did not match the target source."""

    def __init__(self, message: str, file: str, hunk_index: int):
        super().__init__(f"{file}, hunk #{hunk_index}: {message}")
        self.file = file
        self.hunk_index = hunk_index


class Hunk(NamedTuple):
    old_start: int
    old_count: int
    new_start: int
    new_count: int
    lines: Tuple[str, ...]   # each begins with ' ', '-' or '+'

    def old_line_range(self) -> Tuple[int, int]:
        """Inclusive original-file line range this hunk touches."""
        if self.old_count == 0:
            # pure insertion anchors after old_start
            return (self.old_start, self.old_start)
        return (self.old_start, self.old_start + self.old_count - 1)


class FileDiff(NamedTuple):
    path: str
    hunks: Tuple[Hunk, ...]


def _strip_prefix(path: str) -> str:
    for prefix in ("a/", "b/"):
        if path.startswith(prefix):
            return path[len(prefix):]
    return path


def parse_diff(diff_text: str) -> List[FileDiff]:
    """Split a unified diff into per-file hunk lists.

    Accepts diffs with or without the ``diff --git`` banner; ``---``/``+++``
    header pairs delimit files.
    """
    files: List[FileDiff] = []
    path = None
    hunks: List[Hunk] = []
    lines = diff_text.splitlines()
    i = 0

    def flush():
        nonlocal path, hunks
        if path is not None:
            if not hunks:
                raise DiffError(f"no hunks for file {path!r}")
            files.append(FileDiff(path=path, hunks=tuple(hunks)))
        path = None
        hunks = []

    while i < len(lines):
        line = lines[i]
        if line.startswith("--- "):
            flush()
            old_path = line[4:].split("\t")[0].strip()
            i += 1
            if i >= len(lines) or not lines[i].startswith("+++ "):
                raise DiffError("'---' header without matching '+++'")
            new_path = lines[i][4:].split("\t")[0].strip()
            chosen = new_path if new_path != "/dev/null" else old_path
            path = _strip_prefix(chosen)
            i += 1
            continue
        match = _HUNK_RE.match(line)
        if match:
            if path is None:
                raise DiffError("hunk header before any file header")
            old_start = int(match.group(1))
            old_count = 1 if match.group(2) is None else int(match.group(2))
            new_start = int(match.group(3))
            new_count = 1 if match.group(4) is None else int(match.group(4))
            i += 1
            body: List[str] = []
            seen_old = seen_new = 0
            while i < len(lines) and (seen_old < old_count or seen_new < new_count):
                raw = lines[i]
                if raw.startswith("\\"):
                    i += 1
                    continue
                if not raw:
                    raw = " "
                tag = raw[0]
                if tag not in " -+":
                    raise DiffError(f"unexpected line inside hunk: {raw!r}")
                if tag in " -":
                    seen_old += 1
                if tag in " +":
                    seen_new += 1
                body.append(raw)
                i += 1
            if seen_old != old_count or seen_new != new_count:
                raise DiffError(
                    f"hunk at -{old_start} is truncated "
                    f"({seen_old}/{old_count} old, {seen_new}/{new_count} new)"
                )
            hunks.append(Hunk(old_start, old_count, new_start, new_count, tuple(body)))
            continue
        i += 1
    flush()
    return files


def apply_patch(
    sources: Mapping[str, str] | Sequence[Tuple[str, str]],
    diff_text: str,
) -> Dict[str, str]:
    """Apply a unified diff to sources, requiring exact context matches.

    Returns a new ``{path: text}`` mapping; untouched files pass through.
    """
    result = dict(sources)
    if not diff_text.strip():
        return result
    for file_diff in parse_diff(diff_text):
        if file_diff.path not in result:
            raise ApplyError("file not present in sources", file_diff.path, 1)
        text = result[file_diff.path]
        had_trailing_newline = text.endswith("\n")
        old_lines = text.split("\n")
        if had_trailing_newline:
            old_lines = old_lines[:-1]
        new_lines: List[str] = []
        cursor = 0  # index into old_lines
        for index, hunk in enumerate(file_diff.hunks, start=1):
            # old_start is 1-based; for zero-count hunks it names the line
            # *after* which the insertion happens.
            anchor = hunk.old_start - 1 if hunk.old_count else hunk.old_start
            if anchor > len(old_lines):
                raise ApplyError(
                    f"hunk starts at line {hunk.old_start}, beyond the file",
                    file_diff.path, index,
                )
            if anchor < cursor:
                # Before the first hunk, only a line-0 hunk that keeps or removes lines.
                previous = (f"hunk #{index - 1}, which ends at line {cursor}" if index > 1
                            else "line 0")
                raise ApplyError(
                    f"hunk starts at line {hunk.old_start}, not after {previous}",
                    file_diff.path, index,
                )
            new_lines.extend(old_lines[cursor:anchor])
            cursor = anchor
            for raw in hunk.lines:
                tag, content = raw[0], raw[1:]
                if tag == "+":
                    new_lines.append(content)
                    continue
                # a context or removed line must match the source exactly
                if cursor >= len(old_lines) or old_lines[cursor] != content:
                    found = old_lines[cursor] if cursor < len(old_lines) else "<eof>"
                    what = "context" if tag == " " else "removed line"
                    raise ApplyError(
                        f"{what} mismatch at line {cursor + 1}: "
                        f"expected {content!r}, found {found!r}",
                        file_diff.path, index,
                    )
                if tag == " ":
                    new_lines.append(content)
                cursor += 1
        new_lines.extend(old_lines[cursor:])
        result[file_diff.path] = "\n".join(new_lines) + ("\n" if had_trailing_newline else "")
    return result


def touched_lines(diff_text: str) -> Dict[str, List[Tuple[int, int]]]:
    """Original-file line ranges each file's hunks reference."""
    out: Dict[str, List[Tuple[int, int]]] = {}
    for file_diff in parse_diff(diff_text):
        out.setdefault(file_diff.path, []).extend(
            hunk.old_line_range() for hunk in file_diff.hunks
        )
    return out
