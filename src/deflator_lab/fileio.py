"""The file primitives that the command handlers (`cmd_common` and the
modules of each command family) and the tree-file reader share: the error
for a malformed input file and the atomic writer.

They live apart from `treeio` so that a command which reads no tree file
(`simulate`, `--version`) loads neither `treeio` nor `filtered_space`.
"""

from __future__ import annotations

import os
import tempfile
from typing import Iterable


class TreeFileError(ValueError):
    """Malformed tree file; the message names the offending field."""


def write_atomic(path: str, text: str | Iterable[str]) -> None:
    """Write `text`, or its strings in turn, via a temp file in the same
    directory and rename over the target, which a failure leaves as it was.

    Non-regular targets (pipes, devices) cannot be replaced by rename, so
    those get the joined text directly instead.  When the temp file cannot
    be made, the error names the target, not the temp file.
    """
    chunks = [text] if isinstance(text, str) else text
    if os.path.exists(path) and not os.path.isfile(path):
        text = "".join(chunks)      # made whole before the target opens
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
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
