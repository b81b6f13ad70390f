"""The one way an input file is read: scenarios, contract sources, gas
schedules and bench labels. A failed read raises `InputError` naming the
path. Unreadable paths, non-UTF-8 bytes and over-long JSON integers raise
`OSError` or `ValueError`; JSON nested too deep raises `RecursionError`.

`InputError` is also the one error for input the program refuses: a bad
scenario, schedule, label file or option. The CLI exits 2 on it."""

import json
from pathlib import Path


class InputError(Exception):
    pass


def read_text(path, what: str = "") -> str:
    """The UTF-8 text of `path`, with universal newlines."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {what}{path}: {exc}") from exc


def read_json(path):
    try:
        return json.loads(read_text(path))
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
