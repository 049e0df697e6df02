"""The one way appatch writes an output file: whole or not at all."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union


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
