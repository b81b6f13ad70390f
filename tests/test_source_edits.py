"""Metamorphic relations of the tester itself.

An edit to a scenario's sources that keeps their meaning must keep every
byte that `check --format json` and `estimate --format json` print: the
tester looks functions and state up by name, and a table keyed by a
position or a stale name would show here. The edits that keep the
meaning are: append an unused state variable and an unused function,
rename a state variable consistently, and reorder a contract's functions.
Every edited source is written out by the test printer, so printing
alone is covered too. Contracts are never reordered: deploy order sets
addresses, which a report may print.

The negative control moves `withdraw`'s debit ahead of its `lowcall` in
`simple_dao.msol`, which changes what the contract does, and the report.
"""

import json
import shutil
import tempfile
from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings, strategies as st

from mtsc.minisol import ast, parse
from mtsc.minisol.record import Record

from conftest import CORPUS, CORPUS_SCENARIOS, scenario_path
from pretty import pretty
from support import cli_outputs

COMMANDS = (("check", "--format", "json"), ("estimate", "--format", "json"))
EDITS = ("append", "rename", "reorder")


def outputs(path) -> list:
    """(exit code, stdout, stderr) of each command in COMMANDS on `path`."""
    return [cli_outputs(command, str(path), *flags) for command, *flags in COMMANDS]


@lru_cache(maxsize=None)
def unedited(name: str) -> list:
    return outputs(scenario_path(name))


def sources(name: str) -> dict:
    """Relative path -> parsed unit, of each source of the corpus scenario `name`."""
    rels = json.loads(scenario_path(name).read_text(encoding="utf-8"))["sources"]
    return {rel: parse((CORPUS / rel).read_text(encoding="utf-8"), rel) for rel in rels}


def edited_outputs(name: str, units: dict) -> list:
    """`outputs` of scenario `name` with its sources printed from `units`."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(scenario_path(name), tmp)
        for rel, unit in units.items():
            (Path(tmp) / rel).write_text(pretty(unit), encoding="utf-8")
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


@given(name=st.sampled_from(CORPUS_SCENARIOS),
       edits=st.lists(st.sampled_from(EDITS), min_size=1, max_size=3), data=st.data())
@settings(deadline=None, max_examples=100)
def test_edits_that_keep_the_meaning_keep_every_byte(name, edits, data):
    units = sources(name)
    contracts = [c for unit in units.values() for c in unit.contracts]
    for i, edit in enumerate(edits):
        contract = data.draw(st.sampled_from(contracts), label=f"contract of edit {i}")
        if edit == "append":
            append_unused(contract, data.draw(st.sampled_from(list(ast.Kind))), str(i))
        elif edit == "rename" and contract.state_vars:
            var = data.draw(st.sampled_from(contract.state_vars), label="state variable")
            rename_state_var(contract, var.name, f"renamed_{i}")
        elif edit == "reorder":
            contract.functions[:] = data.draw(st.permutations(contract.functions))
    assert edited_outputs(name, units) == unedited(name)


def test_moving_the_debit_ahead_of_the_call_changes_the_report():
    units = sources("simple_dao_withdraw")
    withdraw = units["simple_dao.msol"].contract("SimpleDAO").functions_by_name["withdraw"]
    check, call, debit = withdraw.body
    assert isinstance(call.expr, ast.Call) and isinstance(debit, ast.Assign)
    withdraw.body[:] = [check, debit, call]
    edited = edited_outputs("simple_dao_withdraw", units)
    assert edited[0] != unedited("simple_dao_withdraw")[0]
    code, out, _ = edited[0]
    verdict, = json.loads(out)["verdicts"]
    assert code == 1 and verdict["categories"] == ["ExceptionDisorder", "Reentrancy"]
