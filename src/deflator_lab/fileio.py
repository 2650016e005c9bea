"""The file primitives that the command handlers (`cmd_common` and the
modules of each command family) and the tree-file reader share: the error
for a malformed input file, the one reader of JSON input files, the node-key
rule and the atomic writer.

They live apart from `treeio` so that a command which reads no tree file
(`simulate`, `--version`) loads neither `treeio` nor `filtered_space`.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from typing import Iterable

_NODE_KEY_RE = re.compile(r"(?:0|[1-9][0-9]*)\Z")


class TreeFileError(ValueError):
    """Malformed input file; the message names the offending field."""


def read_text(path: str) -> str:
    """The text of the file at `path`, which must be UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise TreeFileError(f"not UTF-8 text: {exc}") from exc


def _members(pairs: list) -> dict:
    """One JSON object from its members, none of whose names repeats: a
    second `"1"` in `P` would otherwise silently replace the first."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for name, _ in pairs:
            if name in seen:
                raise TreeFileError(f"repeated name {name!r} in a JSON object")
            seen.add(name)
    return obj


def parse_object(text: str) -> dict:
    """The JSON object that `text` holds.  Every JSON file the command line
    reads (tree file, label map, params file) is `read_text` and then this:
    one object at the top, no name repeated within an object and no int
    longer than Python's int-to-str limit."""
    try:
        obj = json.loads(text, object_pairs_hook=_members)
    except TreeFileError:
        raise
    except ValueError as exc:       # bad syntax, or an int too long to parse
        raise TreeFileError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise TreeFileError("top level must be a JSON object")
    return obj


def node_key(key: object, where: str) -> int:
    """A node key of a tree file's table or a label map: a canonical ASCII
    decimal, so that no two keys name one node."""
    if not isinstance(key, str) or not _NODE_KEY_RE.match(key):
        raise TreeFileError(f"{where}: node key {key!r} must be a canonical "
                            "ASCII decimal (0, or digits without a leading 0)")
    try:
        return int(key)
    except ValueError as exc:       # more digits than int() converts
        raise TreeFileError(f"{where}: node key of {len(key)} digits is "
                            "too long to parse") from exc


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
