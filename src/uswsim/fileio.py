"""Output files that appear whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress


@contextmanager
def atomic_write(path):
    """Open a text file that appears at ``path`` only once it is complete.

    Writes go to a temporary file in the same directory, which replaces
    ``path`` when the block ends without error and is removed otherwise.
    An ``OSError`` is raised again as ``writing <path>: <error>``.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise OSError(f"writing {path}: {exc.strerror or exc}") from exc
        raise


@contextmanager
def removed_on_failure():
    """Yield a list for the paths a block writes; remove them all if it fails."""
    written = []
    try:
        yield written
    except BaseException:
        for path in written:
            with suppress(OSError):
                os.remove(path)
        raise
