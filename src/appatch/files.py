"""How appatch reads an input file or record and writes an output file.

Records are read as the graph interchange is: exact JSON types (``true`` is
no integer), an optional field absent or ``null``, extra keys ignored.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Sequence, Tuple, Union

Test = Callable[[Any], bool]


def _exactly(*types: type) -> Test:
    return lambda value: type(value) in types


is_str, is_int, is_bool, is_object = _exactly(str), _exactly(int), _exactly(bool), _exactly(dict)
is_number = _exactly(int, float)


def array_of(test: Test) -> Test:
    return lambda value: type(value) is list and all(map(test, value))


def pair_of(first: Test, second: Test) -> Test:
    return lambda value: (type(value) is list and len(value) == 2
                          and first(value[0]) and second(value[1]))


def optional(test: Test) -> Test:
    return lambda value: value is None or test(value)


def checked(record: Any, where: str, fields: Sequence[Tuple[str, Test, str]],
            error: Callable[[str], Exception]) -> Dict[str, Any]:
    """``record``'s values for ``fields``, a ``(key, test, description)`` table.

    A dotted key names a field of a nested object; an absent field reads
    as ``None`` and is left out of the result, like a ``null`` one.  A value
    that fails its test raises ``error("<where>: '<key>' must be <description>")``.
    """
    found = {}
    for key, test, description in fields:
        value = record
        for part in key.split("."):
            value = value.get(part) if type(value) is dict else None
        if not test(value):
            raise error(f"{where}: {key!r} must be {description}")
        if value is not None:
            found[key] = value
    return found


def read_input(path: Union[str, Path], where: str,
               error: Callable[[str], Exception]) -> Tuple[str, str]:
    """Read a file once: its text and the sha256 of its bytes.

    The text is UTF-8 with ``\\r\\n`` and a lone ``\\r`` read as ``\\n``; the
    digest is of the bytes as they were, so a manifest names exactly what
    was parsed.  A file that cannot be read raises
    ``error("<where>: <strerror>")``, a bad byte ``error("<where>: not valid
    UTF-8 at byte <n>")``.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"{where}: {exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{where}: not valid UTF-8 at byte {exc.start}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text, hashlib.sha256(data).hexdigest()


def json_object(text: str, where: str, error: Callable[[str], Exception]) -> Dict[str, Any]:
    """Parse ``text`` as one JSON object, or raise ``error`` naming ``where``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where}: not valid JSON: {exc.msg}") from exc
    if type(doc) is not dict:
        raise error(f"{where}: top level must be an object")
    return doc


def json_lines(text: str, path: Union[str, Path],
               error: Callable[[str], Exception]) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """``(where, object)`` for each non-blank line, ``where`` being ``"<path>, line <n>"``."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if raw.strip():
            where = f"{path}, line {lineno}"
            yield where, json_object(raw, where, error)


def write_text_atomic(path: Union[str, Path], text: str) -> None:
    """Write ``text`` as UTF-8 to a temporary sibling, then rename it over ``path``.

    Newlines are written as given (``\\r\\n`` stays ``\\r\\n``).  Readers see
    the old file or the new one, never a partial write; on failure the
    temporary file is removed and ``path`` is untouched.  The file is
    created with mode ``0o666`` less the process umask, as ``open`` would.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_name = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
