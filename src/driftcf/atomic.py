"""Atomic file output: write a temp file in the target's directory, then
rename it over the target, so readers never see a partial file."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from typing import IO, Iterator


@contextmanager
def atomic_open(path: str, mode: str = "w", **kwargs) -> Iterator[IO]:
    """Open a temp file for writing; it replaces ``path`` on clean exit and
    is removed if the block raises.  ``kwargs`` go to ``open``.

    The temp file is created with mode 0o666 less the umask, as ``open``
    creates a file, and the rename keeps that mode.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".driftcf-tmp-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
