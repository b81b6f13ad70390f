"""The one way an input file is read: scenarios, contract sources, gas
schedules and bench labels. A failed read raises one `error` naming the
path. Unreadable paths, non-UTF-8 bytes and over-long JSON integers raise
`OSError` or `ValueError`; JSON nested too deep raises `RecursionError`."""

import json
from pathlib import Path


def read_text(path, error, what: str = "") -> str:
    """The UTF-8 text of `path`, with universal newlines."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {what}{path}: {exc}") from exc


def read_json(path, error):
    try:
        return json.loads(read_text(path, error))
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: invalid JSON: {exc}") from exc
