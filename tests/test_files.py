import os

import pytest

from appatch.files import write_text_atomic


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_new_file_mode_follows_the_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_text_atomic(tmp_path / "out" / "a.json", "{}\r\n")
    finally:
        os.umask(old)
    path = tmp_path / "out" / "a.json"
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask
    assert path.read_bytes() == b"{}\r\n"
    assert [p.name for p in path.parent.iterdir()] == ["a.json"]

