"""The one way a file is read or written: scenarios, contract sources, gas
schedules, bench labels and the `--out` report. A failed read raises
`InputError` naming the path, from the `OSError`, the `ValueError` (non-UTF-8
bytes, over-long JSON integers) or, for JSON nested too deep, `RecursionError`.

Both take one unbuffered binary `open`: a text layer cost a one-shot
`mtsc check` more than its bytes. Reads keep universal newlines; writes
encode a file name's escaped bytes back (`surrogateescape`). A failed
`open` is retried through pathlib, to name the path as it normalizes it.

`InputError` is also the one error for input the program refuses: a bad
scenario, schedule, label file or option. The CLI exits 2 on it."""

import json
from pathlib import Path


class InputError(Exception):
    pass


def _open(path, mode: str):
    try:
        return open(path, mode, buffering=0)
    except (OSError, ValueError):
        return open(Path(path), mode, buffering=0)


def read_text(path, what: str = "") -> str:
    """The UTF-8 text of `path`, with universal newlines."""
    try:
        with _open(path, "rb") as file:
            return file.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {what}{path}: {exc}") from exc


def write_text(path, text: str):
    data = memoryview(text.encode("utf-8", "surrogateescape"))
    with _open(path, "wb") as file:
        while data:  # an unbuffered write may take part of its bytes
            data = data[file.write(data):]


def read_json(path):
    try:
        return json.loads(read_text(path))
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
