"""Atomic file output: the file's mode follows the umask, as with ``open``,
and a block that raises leaves the target as it was."""

import os
import stat

import pytest

from driftcf.atomic import atomic_open


@pytest.mark.parametrize(
    "umask, expected", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
)
def test_mode_follows_umask(tmp_path, umask, expected):
    new, existing = tmp_path / "new.txt", tmp_path / "existing.txt"
    existing.write_text("old")
    existing.chmod(0o644)
    previous = os.umask(umask)
    try:
        for path in (new, existing):
            with atomic_open(str(path)) as fh:
                fh.write("new")
    finally:
        os.umask(previous)
    for path in (new, existing):
        assert path.read_text() == "new"
        assert stat.S_IMODE(path.stat().st_mode) == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing.txt", "new.txt"]


def test_temp_file_removed_when_the_block_raises(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    with pytest.raises(RuntimeError, match="planted"):
        with atomic_open(str(target)) as fh:
            fh.write("new")
            raise RuntimeError("planted")
    assert target.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
