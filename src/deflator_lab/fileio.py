"""The file primitives that the command line and the tree-file reader share:
the error for a malformed input file and the atomic writer.

They live apart from `treeio` so that a command which reads no tree file
(`simulate`, `--version`) loads neither `treeio` nor `filtered_space`.
"""

from __future__ import annotations

import os
import tempfile


class TreeFileError(ValueError):
    """Malformed tree file; the message names the offending field."""


def write_atomic(path: str, text: str) -> None:
    """Write via a temp file in the same directory and rename over the target.

    Non-regular targets (pipes, devices) cannot be replaced by rename, so
    those are written through directly instead.  When the temp file cannot
    be made, the error names the target, not the temp file.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
