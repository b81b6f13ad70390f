"""The exact text of every scenario error, one row per rule.

Each row edits a valid scenario so that exactly one rule fails and pins
the whole message `load_scenario` or `build_environment` raises. Entries
after the first (`setup[2]`) and the target are covered, so a message
built from an index or a role cannot drift unnoticed.
"""

import copy
import json
from unittest import mock

import pytest

from mtsc import scenario as scenario_module
from mtsc.inputs import InputError
from mtsc.scenario import build_environment, load_scenario
from mtsc.vm import GasSchedule, replay

from conftest import CORPUS
from support import cli_outputs

COUNTER = str(CORPUS / "counter.msol")

# counter_baseline with two more setup entries, one of them per actor kind
BASE = {
    "schema": "scenario-v1",
    "sources": [COUNTER],
    "balances": {"Counter": 0, "CounterProxy": 0, "owner": 5, "$ACTOR": 1_000_000},
    "setup": [
        {"actor": "owner", "callee": "CounterProxy", "function": "init",
         "args": ["Counter"], "value": 0},
        {"actor": "$ACTOR", "callee": "Counter", "function": "add", "args": [3]},
        {"actor": "owner", "callee": "Counter", "function": "add", "args": [5]},
    ],
    "target": {"callee": "CounterProxy", "function": "add_via", "args": [7], "value": 0},
}


def _set(*keys_and_value):
    *keys, value = keys_and_value

    def edit(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return edit


def _drop(*keys):
    def edit(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
    return edit


def _append_setup(entry):
    return lambda doc: doc["setup"].append(entry)


# (id, edit of BASE, message); {path} is the scenario file, {dir} its folder
LOAD_ERRORS = [
    ("unknown-keys", _set("extra", 1), "{path}: unknown keys ['extra']"),
    ("schema", _set("schema", "scenario-v2"), "{path}: schema must be 'scenario-v1'"),
    ("sources-empty", _set("sources", []),
     "{path}: sources must be a non-empty list of paths"),
    ("sources-not-strings", _set("sources", [1]),
     "{path}: sources must be a non-empty list of paths"),
    ("balances", _set("balances", []), "{path}: balances must be an object"),
    ("balance-negative", _set("balances", "owner", -1),
     "{path}: balance of 'owner' must be an integer in [0, 2**128 - 1]"),
    ("balance-bool", _set("balances", "$ACTOR", True),
     "{path}: balance of '$ACTOR' must be an integer in [0, 2**128 - 1]"),
    # value only moves, so balances total at most UINT_MAX, $ACTOR's once
    # per actor kind (5)
    ("balances-total", _set("balances", "owner", 2**128 - 1),
     "{path}: balances total " + str(2**128 - 1 + 5 * 1_000_000) + ", more than 2**128 - 1"),
    ("balances-total-actor", _set("balances", "$ACTOR", 2**126),
     "{path}: balances total " + str(5 + 5 * 2**126) + ", more than 2**128 - 1"),
    ("setup-list", _set("setup", {}), "{path}: setup must be a list"),
    ("mrs-list", _set("mrs", "MR1.1"), "{path}: mrs must be a list"),
    ("mr1-actors-list", _set("mr1_actors", None), "{path}: mr1_actors must be a list"),
    ("setup-object", _set("setup", 2, 7), "{path}: setup[2] must be an object"),
    ("setup-unknown-keys", _set("setup", 2, "gas", 1),
     "{path}: setup[2] has unknown keys ['gas']"),
    ("setup-actor", _drop("setup", 2, "actor"), "{path}: setup[2] needs an actor role"),
    ("setup-callee", _set("setup", 2, "callee", 3), "{path}: setup[2] needs a callee role"),
    ("setup-function", _set("setup", 2, "function", 1),
     "{path}: setup[2]: function must be a name or null"),
    ("setup-args", _set("setup", 2, "args", "x"), "{path}: setup[2]: args must be a list"),
    ("setup-bad-argument", _set("setup", 2, "args", [1.5]),
     "{path}: setup[2]: bad argument 1.5"),
    ("setup-value", _set("setup", 2, "value", -1),
     "{path}: setup[2]: value must be an integer in [0, 2**128 - 1]"),
    ("target-object", _set("target", []), "{path}: target must be an object"),
    ("target-missing", _drop("target"), "{path}: target must be an object"),
    ("target-unknown-keys", _set("target", "gas", 1),
     "{path}: target has unknown keys ['gas']"),
    ("target-callee", _drop("target", "callee"), "{path}: target needs a callee role"),
    ("target-function", _set("target", "function", ["add_via"]),
     "{path}: target: function must be a name or null"),
    ("target-args", _set("target", "args", None), "{path}: target: args must be a list"),
    ("target-bad-argument", _set("target", "args", [None]),
     "{path}: target: bad argument None"),
    ("target-value", _set("target", "value", 2**128),
     "{path}: target: value must be an integer in [0, 2**128 - 1]"),
    ("relation", _set("mrs", ["MR1.1", "MR3"]), "{path}: unknown relation 'MR3'"),
    # entries a table keyed by relation id cannot hash, and null
    ("relation-list", _set("mrs", [["MR1.1"]]), "{path}: unknown relation ['MR1.1']"),
    ("relation-object", _set("mrs", [{"MR1.1": 1}]),
     "{path}: unknown relation {{'MR1.1': 1}}"),
    ("relation-null", _set("mrs", [None]), "{path}: unknown relation None"),
    ("actor-kind", _set("mr1_actors", ["EOA", "XYZ"]), "{path}: unknown actor kind 'XYZ'"),
]

BUILD_ERRORS = [
    ("source-missing", _set("sources", ["absent.msol"]),
     "cannot read source {dir}/absent.msol: [Errno 2] No such file or directory: "
     "'{dir}/absent.msol'"),
    ("source-parse", _set("sources", ["bad.msol"]),
     "{dir}/bad.msol: 1:10: expected contract name, found '{{'"),
    ("source-semantics", _set("sources", ["unsound.msol"]),
     "{dir}/unsound.msol: semantic errors: 1:23: [undeclared] name 'y' is not declared"),
    ("contract-twice", _set("sources", [COUNTER, COUNTER]),
     "contract 'Counter' defined twice"),
    ("target-callee-role", _set("target", "callee", "nobody"),
     "target callee 'nobody' is not a known role"),
    ("target-function-missing", _set("target", "function", "absent"),
     "target function 'absent' not found on CounterProxy"),
    ("target-function-on-eoa", _set("target", "callee", "owner"),
     "target function 'add_via' not found on owner"),
    ("target-arity", _set("target", "args", [7, 8]),
     "target: add_via takes 1 args, got 2"),
    ("target-uint", _set("target", "args", ["owner"]),
     "target: argument n of add_via must be uint, got 'owner'"),
    ("target-transfer-args", lambda doc: doc["target"].update(callee="owner",
                                                              function=None),
     "target: a call with no function takes no args"),
    ("setup-arity", _set("setup", 2, "args", []), "setup[2]: add takes 1 args, got 0"),
    ("setup-addr", _set("setup", 0, "args", [True]),
     "setup[0]: argument i of init must be addr, got True"),
    ("setup-bool-as-uint", _set("setup", 2, "args", [False]),
     "setup[2]: argument n of add must be uint, got False"),
    ("setup-uint-too-big", _set("setup", 2, "args", [2**128]),
     "setup[2]: argument n of add must be uint, got " + str(2**128)),
    ("setup-transfer-args", _set("setup", 2, "function", None),
     "setup[2]: a call with no function takes no args"),
    ("setup-actor-role", _set("setup", 2, "actor", "nobody"),
     "unresolvable role 'nobody'"),
    ("setup-callee-role", _set("setup", 2, "callee", "nobody"),
     "unresolvable role 'nobody'"),
    ("setup-argument-role", _append_setup({"actor": "owner", "callee": "owner",
                                           "function": "f", "args": ["nobody"]}),
     "unresolvable role 'nobody'"),
    ("setup-fails", _set("setup", 2, "args", [0]),
     "setup transaction add failed for owner: Failure(RequireFailed)"),
    ("setup-fails-per-kind", _set("setup", 1, "args", [0]),
     "setup transaction add failed for EOA: Failure(RequireFailed)"),
    ("setup-transfer-fails", _append_setup({"actor": "owner", "callee": "Counter",
                                            "function": None}),
     "setup transaction transfer failed for owner: Failure(Revert)"),
    ("setup-balance", _append_setup({"actor": "owner", "callee": "owner",
                                     "function": None, "value": 6}),
     "setup transaction transfer failed for owner: Failure(BalanceInsufficient)"),
    # a later templated entry that fails for one actor kind only: EOA, CAO,
    # CAH and CAR accept the call, CAE's fallback reverts it
    ("setup-transfer-fails-for-one-kind",
     _append_setup({"actor": "owner", "callee": "$ACTOR", "function": None, "value": 1}),
     "setup transaction transfer failed for CAE: Failure(Revert)"),
    ("setup-call-fails-for-one-kind",
     _append_setup({"actor": "owner", "callee": "$ACTOR", "function": "ping"}),
     "setup transaction ping failed for CAE: Failure(Revert)"),
]


def _write(tmp_path, doc):
    (tmp_path / "bad.msol").write_text("contract {}\n")
    (tmp_path / "unsound.msol").write_text("contract C { fn f() { y = 1; } }\n")
    path = tmp_path / "edited.scenario.json"
    path.write_text(json.dumps(doc))
    return path


def _edited(edit):
    doc = copy.deepcopy(BASE)
    edit(doc)
    return doc


def test_the_base_scenario_builds(tmp_path):
    env = build_environment(load_scenario(_write(tmp_path, BASE)), GasSchedule())
    assert env.state.account(env.roles["Counter"]).storage[("contrib", env.roles["owner"])] == 5


@pytest.mark.parametrize("edit,message", [row[1:] for row in LOAD_ERRORS],
                         ids=[row[0] for row in LOAD_ERRORS])
def test_load_errors_have_their_exact_text(tmp_path, edit, message):
    path = _write(tmp_path, _edited(edit))
    with pytest.raises(InputError) as info:
        load_scenario(path)
    assert str(info.value) == message.format(path=path)


@pytest.mark.parametrize("edit,message", [row[1:] for row in BUILD_ERRORS],
                         ids=[row[0] for row in BUILD_ERRORS])
def test_build_errors_have_their_exact_text(tmp_path, edit, message):
    scenario = load_scenario(_write(tmp_path, _edited(edit)))
    with pytest.raises(InputError) as info:
        build_environment(scenario, GasSchedule())
    assert str(info.value) == message.format(dir=tmp_path)


# Two broken entries: every check of every entry (its roles, then its
# arguments) runs, in entry order, before anything replays.
@pytest.mark.parametrize("edits,message", [
    ([_set("setup", 0, "actor", "nobody"), _set("setup", 2, "args", [])],
     "unresolvable role 'nobody'"),
    ([_set("setup", 2, "args", [0]), _append_setup({"actor": "nobody", "callee": "owner",
                                                    "function": None})],
     "unresolvable role 'nobody'"),
    ([_set("setup", 1, "callee", "nobody"), _append_setup({"actor": "owner",
                                                          "callee": "Counter",
                                                          "function": None})],
     "unresolvable role 'nobody'"),
], ids=["role-before-later-check", "later-role-before-replay", "role-before-later-replay"])
def test_the_first_error_of_two_is_raised(tmp_path, edits, message):
    doc = copy.deepcopy(BASE)
    for edit in edits:
        edit(doc)
    with pytest.raises(InputError) as info:
        build_environment(load_scenario(_write(tmp_path, doc)), GasSchedule())
    assert str(info.value) == message


def test_a_role_in_the_last_entry_is_refused_before_anything_replays(tmp_path):
    doc = _edited(_append_setup({"actor": "owner", "callee": "nobody", "function": None}))
    scenario = load_scenario(_write(tmp_path, doc))
    replays = []

    def recorder(state, txs, schedule):
        replays.append(list(txs))
        return replay(state, replays[-1], schedule)

    with mock.patch.object(scenario_module, "replay", recorder), \
            pytest.raises(InputError) as info:
        build_environment(scenario, GasSchedule())
    assert str(info.value) == "unresolvable role 'nobody'"
    assert replays == []


def test_file_errors_have_their_exact_text(tmp_path):
    path = tmp_path / "absent.scenario.json"
    with pytest.raises(InputError) as info:
        load_scenario(path)
    assert str(info.value) == (f"cannot read {path}: [Errno 2] No such file or "
                               f"directory: '{path}'")
    path.write_text("{")
    with pytest.raises(InputError) as info:
        load_scenario(path)
    assert str(info.value) == (f"{path}: invalid JSON: Expecting property name "
                               "enclosed in double quotes: line 1 column 2 (char 1)")
    path.write_text("[]")
    with pytest.raises(InputError) as info:
        load_scenario(path)
    assert str(info.value) == f"{path}: scenario must be a JSON object"


# Each of these used to end in a traceback (exit 3): a byte that is not
# UTF-8 (UnicodeDecodeError), JSON nested deeper than the interpreter
# recurses (RecursionError), and an integer longer than Python converts
# from a string (ValueError).
UNREADABLE_SCENARIOS = [
    ("not-utf8", b'{"schema": "scenario-v1\xff"}',
     "cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 23: "
     "invalid start byte"),
    ("nested", b"[" * 200_000 + b"]" * 200_000,
     "{path}: invalid JSON: maximum recursion depth exceeded while decoding a "
     "JSON array from a unicode string"),
    ("long-integer", b'{"balances": {"owner": ' + b"1" * 5000 + b"}}",
     "{path}: invalid JSON: Exceeds the limit (4300 digits) for integer string "
     "conversion: value has 5000 digits; use sys.set_int_max_str_digits() to "
     "increase the limit"),
]


@pytest.mark.parametrize("data,message", [row[1:] for row in UNREADABLE_SCENARIOS],
                         ids=[row[0] for row in UNREADABLE_SCENARIOS])
def test_unreadable_scenarios_exit_two(tmp_path, data, message):
    path = tmp_path / "damaged.scenario.json"
    path.write_bytes(data)
    with pytest.raises(InputError) as info:
        load_scenario(path)
    assert str(info.value) == message.format(path=path)
    assert cli_outputs("check", str(path)) == (2, "", f"mtsc: error: {info.value}\n")


# (id, source entry, message after "cannot read source {dir}/"): a byte
# that is not UTF-8 in the source, and a path open() refuses, used to end
# in a traceback (exit 3)
UNREADABLE_SOURCES = [
    ("not-utf8", "latin1.msol",
     "latin1.msol: 'utf-8' codec can't decode byte 0xe9 in position 12: "
     "invalid continuation byte"),
    ("nul", "a\x00b.msol", "a\x00b.msol: embedded null byte"),
    ("lone-surrogate", "\ud800.msol",
     "\ud800.msol: 'utf-8' codec can't encode character '\\ud800' in position "
     "{at}: surrogates not allowed"),
]


@pytest.mark.parametrize("source,message", [row[1:] for row in UNREADABLE_SOURCES],
                         ids=[row[0] for row in UNREADABLE_SOURCES])
def test_unreadable_sources_exit_two(tmp_path, source, message):
    (tmp_path / "latin1.msol").write_bytes("contract Café {}\n".encode("latin-1"))
    path = _write(tmp_path, _edited(_set("sources", [source])))
    scenario = load_scenario(path)
    with pytest.raises(InputError) as info:
        build_environment(scenario, GasSchedule())
    # the surrogate's position in the whole path, as the encoder reports it
    at = len(str(tmp_path)) + 1
    assert str(info.value) == f"cannot read source {tmp_path}/" + message.format(at=at)
    # the error line escapes the NUL and the lone surrogate, which a
    # terminal cannot show and a strict UTF-8 stream cannot encode
    line = str(info.value).replace("\x00", "\\x00").replace("\ud800", "\\ud800")
    assert cli_outputs("check", str(path)) == (2, "", f"mtsc: error: {line}\n")
