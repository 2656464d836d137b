"""Crash-safe file replacement, shared by the artifact store and checkpoints."""

from __future__ import annotations

import contextlib
import os
import pathlib
from typing import BinaryIO, Callable, Type

from repro.exceptions import ReproError

__all__ = ["atomic_write"]


def atomic_write(
    path: pathlib.Path,
    write: Callable[[BinaryIO], None],
    *,
    error: Type[ReproError],
) -> None:
    """Replace ``path`` with the bytes ``write`` puts into a stream.

    A kill at any instant leaves the previous file or the new one, never a
    torn one; a ``write`` that raises leaves the previous file and no temp
    file.  The temp file next to ``path`` is exclusive and opened with mode
    0666, so the kernel applies the process umask (mkstemp would pin 0600;
    ``os.umask`` probing is process-wide and thread-unsafe).  It is
    fsynced *before* ``os.replace`` (else a power loss after the rename
    could surface a zero-length file), and the directory after it (best
    effort: some platforms refuse to open directories).  ``os.replace``
    errors propagate unchanged; ``error`` is raised when no temp name is
    free after 100 attempts.
    """
    for attempt in range(100):
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{attempt}.tmp")
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        except FileExistsError:
            continue
        try:
            with os.fdopen(fd, "wb") as stream:
                write(stream)
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        with contextlib.suppress(OSError):
            dir_fd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        return
    raise error(
        f"could not create a temporary file next to {path} after 100 attempts"
    )
