"""The reader, the writer and the command-line parsing of `mtsc` against
the layers they replace: `Path.read_text`, `Path.write_text` and one
`PARSER.parse_args` pass. Each pair must give the same text, the same
bytes, the same messages and the same exit codes."""

import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mtsc import cli
from mtsc.inputs import InputError, read_text, write_text

from conftest import CORPUS, scenario_path


def reference_read_text(path, what=""):
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {what}{path}: {exc}") from exc


def outcome(read, path):
    """What `read(path)` gives: ("text", text) or ("error", message)."""
    try:
        return "text", read(path)
    except InputError as exc:
        return "error", str(exc)


PIECES = [b"\r", b"\n", b"\r\n", b"a", b"line", b" ", "é".encode(), "€".encode(),
          "\U0001f600".encode(), b"\xef\xbb\xbf"]
INVALID = [b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80"]


@st.composite
def file_bytes(draw):
    data = b"".join(draw(st.lists(st.sampled_from(PIECES), max_size=40)))
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(INVALID)) + data[at:]
    if draw(st.booleans()):
        data += b"\r"
    return data


@settings(deadline=None, max_examples=300)
@given(file_bytes())
@example(b"")
@example(b"\r")
@example(b"a\r\r\nb\n\r")
def test_the_reader_reads_what_pathlib_reads(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("read") / "f.txt"
    path.write_bytes(data)
    assert outcome(read_text, path) == outcome(reference_read_text, path)
    assert outcome(read_text, str(path)) == outcome(reference_read_text, str(path))


@pytest.mark.parametrize("tail", [b"", b"\xff", b"\r"])
def test_the_reader_reads_a_large_file_as_pathlib_does(tmp_path, tail):
    data = ("ré\r\nn\rx\n" * 12_000).encode() + tail  # over 64 KiB
    path = tmp_path / "big.txt"
    path.write_bytes(data)
    assert len(data) > 64 * 1024
    assert outcome(read_text, path) == outcome(reference_read_text, path)


@pytest.mark.parametrize("name", ["missing.json", ".", "a\x00b.json", "\ud800.json",
                                  "./d//missing.json", "./d//\ud800.json", "d/"])
def test_the_reader_fails_as_pathlib_fails(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    new, old = outcome(read_text, name), outcome(reference_read_text, name)
    assert new[0] == "error" and new == old
    assert outcome(lambda p: read_text(p, "source "), name) == \
        outcome(lambda p: reference_read_text(p, "source "), name)


def test_a_missing_file_is_named_as_pathlib_normalizes_it(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    _, message = outcome(read_text, "./d//missing.json")
    assert message == ("cannot read ./d//missing.json: [Errno 2] No such file or "
                       "directory: 'd/missing.json'")


@settings(deadline=None, max_examples=200)
@given(st.text(st.characters(blacklist_categories=("Cs",))),
       st.binary(max_size=300))
@example("a\r\nb\rc\n", b"")
def test_the_writer_writes_what_pathlib_writes(tmp_path_factory, text, before):
    directory = tmp_path_factory.mktemp("write")
    new, old = directory / "new.txt", directory / "old.txt"
    new.write_bytes(before)
    old.write_bytes(before)
    write_text(str(new), text)
    old.write_text(text, encoding="utf-8")
    assert new.read_bytes() == old.read_bytes()


def test_the_writer_truncates_a_longer_file(tmp_path):
    path = tmp_path / "r.txt"
    path.write_bytes(b"x" * 100_000)
    write_text(path, "short\n")
    assert path.read_bytes() == b"short\n"


@pytest.mark.parametrize("name", ["./nodir//r.json", "d", "a\x00b.json", "./\ud800.json"])
def test_the_writer_fails_as_pathlib_fails(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    with pytest.raises((OSError, ValueError)) as old:
        Path(name).write_text("x", encoding="utf-8")
    with pytest.raises(type(old.value)) as new:
        write_text(name, "x")
    assert str(new.value) == str(old.value)


def test_out_in_a_missing_directory_gives_the_message_it_gave(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["check", str(scenario_path("counter_baseline")), "--mr", "MR2.1",
                     "--out", "./nodir//r.json"])
    assert code == 2
    assert capsys.readouterr().err == ("mtsc: error: [Errno 2] No such file or "
                                       "directory: 'nodir/r.json'\n")


def command_lines(tmp_path):
    """Argument vectors for every way a command line can start or go wrong."""
    counter = str(scenario_path("counter_baseline"))
    directory = tmp_path / "bench"
    directory.mkdir()
    (directory / "counter_baseline.scenario.json").write_bytes(
        scenario_path("counter_baseline").read_bytes())
    (directory / "counter.msol").write_bytes((CORPUS / "counter.msol").read_bytes())
    labels = tmp_path / "labels.json"
    labels.write_text('{"counter_baseline": []}')
    return {
        "check": ["check", counter, "--mr", "MR2.1,MR2.3", "--n", "7"],
        "check-json": ["check", "--format", "json", counter, "--inc-count", "2"],
        "bench": ["bench", str(directory), str(labels), "--jobs", "1", "--mr", "MR2.1"],
        "estimate": ["estimate", counter, "--cah-iterations", "8", "--growth", "1.5"],
        "abbreviated": ["check", counter, "--mr", "MR2.1", "--form", "json"],
        "equals": ["check", "--mr=MR2.1", counter, "--format=json"],
        "-h": ["-h"], "--help": ["--help"],
        "check -h": ["check", "-h"], "bench --help": ["bench", "--help"],
        "estimate -h late": ["estimate", counter, "-h"],
        "-h check": ["-h", "check"],
        "none": [],
        "unknown command": ["frob", counter],
        "unknown command late": ["chek"],
        "missing positional": ["check"],
        "missing second positional": ["bench", str(directory)],
        "unknown option": ["check", counter, "--bogus"],
        "unknown option first": ["check", "--bogus", "1", counter],
        "unknown options": ["estimate", "-q", counter, "--x=1", "extra"],
        "extra positional": ["check", counter, "more"],
        "option before command": ["--n", "3", "check", counter],
        "bad integer": ["check", counter, "--n", "ten"],
        "bad jobs": ["bench", str(directory), str(labels), "--jobs", "1.5"],
        "bad format": ["check", counter, "--format", "xml"],
        "ambiguous": ["check", counter, "--c", "1"],
        "missing value": ["check", counter, "--mr"],
        "--": ["check", "--", counter],
        "-- then flag": ["check", "--", counter, "--mr"],
        "-- first": ["--", "check", counter],
        "trailing --": ["check", counter, "--mr", "MR2.1", "--"],
        "negative": ["check", counter, "--n", "-3"],
    }


def run_main(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_pass_answers_as_two_do(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    for name, argv in command_lines(tmp_path).items():
        new = run_main(capsys, list(argv))
        with monkeypatch.context() as patch:
            patch.setattr(cli, "COMMAND_PARSERS", {})  # PARSER reads every line
            old = run_main(capsys, list(argv))
        assert new == old, name
        assert new[0] in (0, 2, ("exit", 0), ("exit", 2)), (name, new)


def test_the_command_line_defaults_to_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["mtsc", "check", str(scenario_path("counter_baseline")),
                                     "--mr", "MR2.1"])
    assert run_main(capsys, None) == run_main(capsys, sys.argv[1:])


def test_every_command_has_its_own_parser():
    assert sorted(cli.COMMAND_PARSERS) == sorted(cli.COMMANDS)
    for name, parser in cli.COMMAND_PARSERS.items():
        assert parser.prog == f"mtsc {name}"
