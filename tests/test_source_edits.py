"""Metamorphic relations of the tester itself.

An edit to a scenario's sources that keeps their meaning must keep every
byte that `check --format json` and `estimate --format json` print: the
tester looks functions and state up by name, and a table keyed by a
position or a stale name would show here. The edits that keep the
meaning are made to the tree: append an unused state variable and an
unused function, rename a state variable or a function's parameter
consistently, and reorder a contract's functions; or to the printed
text: declare a contract's fallback ahead of its functions, and lay the
tokens out anew with comment lines, blank lines and tabs between them.
Every edited source is written out by the test printer, so printing
alone is covered too. Contracts are never reordered: deploy order sets
addresses, which a report may print. No corpus contract declares a
fallback, so the scenarios drawn include the fixture `tip_jar_forward`,
whose target runs one.

The negative control moves `withdraw`'s debit ahead of its `lowcall` in
`simple_dao.msol`, which changes what the contract does, and the report.
"""

import json
import re
import shutil
import tempfile
from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings, strategies as st

from mtsc.minisol import ast, parse
from mtsc.minisol.lexer import tokenize
from mtsc.minisol.record import Record

from conftest import CORPUS_SCENARIOS, scenario_path
from pretty import pretty
from support import cli_outputs

COMMANDS = (("check", "--format", "json"), ("estimate", "--format", "json"))
SCENARIOS = CORPUS_SCENARIOS + ["tip_jar_forward"]
TREE_EDITS = ("append", "rename", "rename-param", "reorder")
TEXT_EDITS = ("fallback-first", "layout")
# what the layout pass may put before a token
SEPARATORS = (" ", "\t", "\n", "\n\n", " \t\t", "\n// a comment line\n", "\t// to the end\n")
# a contract's opening line, the lines up to its fallback, and the
# fallback as the printer writes it: last, its body indented past it
FALLBACK = re.compile(r"^(contract .*\n)((?:(?!contract ).*\n)*?)(    fallback.*\n"
                      r"(?:        .*\n)*    \}\n)", re.M)


def outputs(path) -> list:
    """(exit code, stdout, stderr) of each command in COMMANDS on `path`."""
    return [cli_outputs(command, str(path), *flags) for command, *flags in COMMANDS]


@lru_cache(maxsize=None)
def unedited(name: str) -> list:
    return outputs(scenario_path(name))


def sources(name: str) -> dict:
    """Relative path -> parsed unit, of each source of the scenario `name`."""
    path = scenario_path(name)
    rels = json.loads(path.read_text(encoding="utf-8"))["sources"]
    return {rel: parse((path.parent / rel).read_text(encoding="utf-8"), rel) for rel in rels}


def printed(units: dict) -> dict:
    return {rel: pretty(unit) for rel, unit in units.items()}


def edited_outputs(name: str, texts: dict) -> list:
    """`outputs` of scenario `name` with its sources' text replaced by `texts`."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(scenario_path(name), tmp)
        for rel, text in texts.items():
            (Path(tmp) / rel).write_text(text, encoding="utf-8")
        return outputs(Path(tmp) / scenario_path(name).name)


def nodes(node):
    """`node` and every node below it."""
    yield node
    for name in node._fields:
        value = getattr(node, name)
        for child in value if isinstance(value, list) else (value,):
            if isinstance(child, Record):
                yield from nodes(child)


def append_unused(contract: ast.ContractDef, kind: ast.Kind, tag: str):
    """Declare a state variable of `kind` and a function that writes it,
    neither of which any other code names."""
    var, param = f"unused_{tag}", ast.Var(name=f"p_{tag}")
    target = ast.MapIndex(name=var, key=ast.MsgSender()) if kind is ast.Kind.MAP \
        else ast.Var(name=var)
    value = {ast.Kind.UINT: param, ast.Kind.MAP: param, ast.Kind.BOOL: ast.BoolLit(value=True),
             ast.Kind.ADDR: ast.MsgSender()}[kind]
    contract.state_vars.append(ast.StateVar(name=var, kind=kind))
    contract.functions.append(ast.FunctionDef(
        name=f"unused_fn_{tag}", params=[ast.Param(name=param.name, kind=ast.Kind.UINT)],
        body=[ast.Assign(target=target, op="=", value=value)]))


def rename_state_var(contract: ast.ContractDef, old: str, new: str):
    """Rename state variable `old` to `new` at its declaration and every
    use; no parameter or local shadows a state variable."""
    for node in nodes(contract):
        if isinstance(node, (ast.StateVar, ast.Var, ast.MapIndex)) and node.name == old:
            node.name = new


def rename_param(fn: ast.FunctionDef, old: str, new: str):
    """Rename parameter `old` of `fn` to `new` at its declaration and every
    use in its body; no local or state variable shares a parameter's name."""
    for node in nodes(fn):
        if isinstance(node, (ast.Param, ast.Var)) and node.name == old:
            node.name = new


def fallback_first(text: str) -> str:
    """Printed `text` with each contract's fallback declared first."""
    return FALLBACK.sub(r"\1\3\2", text)


def layout(text: str, rng) -> str:
    """`text`'s tokens, each after a separator `rng` draws from SEPARATORS."""
    return "".join(rng.choice(SEPARATORS) + token.text for token in tokenize(text)[:-1]) + "\n"


@given(name=st.sampled_from(SCENARIOS),
       edits=st.lists(st.sampled_from(TREE_EDITS + TEXT_EDITS), min_size=1, max_size=3),
       data=st.data())
@settings(deadline=None, max_examples=100)
def test_edits_that_keep_the_meaning_keep_every_byte(name, edits, data):
    units = sources(name)
    contracts = [c for unit in units.values() for c in unit.contracts]
    for i, edit in enumerate(edits):
        if edit in TEXT_EDITS:
            continue  # made to the printed text, below
        contract = data.draw(st.sampled_from(contracts), label=f"contract of edit {i}")
        if edit == "append":
            append_unused(contract, data.draw(st.sampled_from(list(ast.Kind))), str(i))
        elif edit == "rename" and contract.state_vars:
            var = data.draw(st.sampled_from(contract.state_vars), label="state variable")
            rename_state_var(contract, var.name, f"renamed_{i}")
        elif edit == "rename-param" and any(fn.params for fn in contract.functions):
            fn = data.draw(st.sampled_from([fn for fn in contract.functions if fn.params]),
                           label="function")
            param = data.draw(st.sampled_from(fn.params), label="parameter")
            rename_param(fn, param.name, f"param_{i}")
        elif edit == "reorder":
            contract.functions[:] = data.draw(st.permutations(contract.functions))
    texts = printed(units)
    if "fallback-first" in edits:
        texts = {rel: fallback_first(text) for rel, text in texts.items()}
    if "layout" in edits:
        rng = data.draw(st.randoms(use_true_random=False), label="layout")
        texts = {rel: layout(text, rng) for rel, text in texts.items()}
    assert edited_outputs(name, texts) == unedited(name)


def test_the_fallback_edit_moves_a_fallback_that_runs():
    # the fixture's target forwards each tip to Sink's fallback
    units = sources("tip_jar_forward")
    text = pretty(units["tip_jar.msol"])
    moved = fallback_first(text)
    assert text.index("fn reset") < text.index("fallback")
    assert moved.index("fallback") < moved.index("fn reset")
    assert parse(moved).contracts == units["tip_jar.msol"].contracts
    assert edited_outputs("tip_jar_forward", {"tip_jar.msol": moved}) \
        == unedited("tip_jar_forward")


def test_moving_the_debit_ahead_of_the_call_changes_the_report():
    units = sources("simple_dao_withdraw")
    withdraw = units["simple_dao.msol"].contract("SimpleDAO").functions_by_name["withdraw"]
    check, call, debit = withdraw.body
    assert isinstance(call.expr, ast.Call) and isinstance(debit, ast.Assign)
    withdraw.body[:] = [check, debit, call]
    edited = edited_outputs("simple_dao_withdraw", printed(units))
    assert edited[0] != unedited("simple_dao_withdraw")[0]
    code, out, _ = edited[0]
    verdict, = json.loads(out)["verdicts"]
    assert code == 1 and verdict["categories"] == ["ExceptionDisorder", "Reentrancy"]
