"""Property-based checks: gas laws over randomized runs, and printer
round-trips over randomly generated syntax trees."""

import copy
import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from mtsc import cli, mr_engine, scenario
from mtsc.agents import TARGET_SLOT, VALUE_SLOT, AgentKind
from mtsc.detector import emit_report, verdict_for
from mtsc.gas_oracle import NeverSucceeds, estimate_intrinsic_gas
from mtsc.inputs import InputError
from mtsc.minisol import ast, parse, validate
from mtsc.minisol.lexer import KEYWORDS, PUNCT
from mtsc.relations import RELATIONS
from mtsc.scenario import ALL_ACTOR_KINDS, load_scenario
from mtsc.vm import (CallEntered, FailReason, GasSchedule, Transaction, WorldState, deploy,
                     execute)

from conftest import CORPUS, CORPUS_SCENARIOS
from pretty import pretty
from support import (assert_lean_matches_full, cli_outputs, clone, digest,
                     estimate_or_status, reference_run, reference_sweep, uncut)

SETTINGS = dict(deadline=None, max_examples=150)


# -- gas laws ----------------------------------------------------------------


@given(
    name=st.sampled_from(CORPUS_SCENARIOS),
    kind=st.sampled_from(ALL_ACTOR_KINDS),
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
@settings(**SETTINGS)
def test_consumption_never_exceeds_the_limit(environments, name, kind, fraction):
    env = environments[name]
    gas_limit = int(fraction * env.schedule.block_gas_limit)
    out = env.run_target(clone(env.state), kind, gas_limit)
    assert out.gas_consumed <= gas_limit


@given(
    name=st.sampled_from(CORPUS_SCENARIOS),
    kind=st.sampled_from(ALL_ACTOR_KINDS),
    gas_limit=st.integers(min_value=0, max_value=120_000),
)
@settings(**SETTINGS)
def test_out_of_gas_consumes_the_full_allocation(environments, name, kind, gas_limit):
    env = environments[name]
    out = env.run_target(clone(env.state), kind, gas_limit)
    raw_failed_oog = (not out.ok and out.status.reason == FailReason.OUT_OF_GAS
                      and out.gas_consumed != gas_limit)
    if raw_failed_oog:
        # agent runs report the interaction status; the rule binds the
        # transaction envelope, so it must have been swallowed inside
        assert kind != AgentKind.EOA
        assert out.gas_consumed <= gas_limit
    # the envelope-level law, as observed through EOA transactions
    if kind == AgentKind.EOA and not out.ok \
            and out.status.reason == FailReason.OUT_OF_GAS:
        assert out.gas_consumed == gas_limit


@given(
    name=st.sampled_from(CORPUS_SCENARIOS),
    kind=st.sampled_from(ALL_ACTOR_KINDS),
    gas_limit=st.integers(min_value=0, max_value=200_000),
)
@settings(**SETTINGS)
def test_execution_is_deterministic(environments, name, kind, gas_limit):
    env = environments[name]
    first = env.run_target(clone(env.state), kind, gas_limit)
    second = env.run_target(clone(env.state), kind, gas_limit)
    assert first == second


@given(
    name=st.sampled_from(CORPUS_SCENARIOS),
    kind=st.sampled_from(ALL_ACTOR_KINDS),
    gas_limit=st.integers(min_value=0, max_value=150_000),
)
@settings(**SETTINGS)
def test_snapshot_execute_restore_round_trips(environments, name, kind, gas_limit):
    env = environments[name]
    state = env.state
    before_digest = digest(state)
    state.snapshot()
    try:
        env.run_target(state, kind, gas_limit)
    finally:
        state.restore()
    assert digest(state) == before_digest


@given(
    name=st.sampled_from(CORPUS_SCENARIOS),
    kind=st.sampled_from(ALL_ACTOR_KINDS),
    gas_limit=st.integers(min_value=0, max_value=250_000),
)
@settings(**SETTINGS)
def test_balances_are_conserved_and_failures_roll_back(environments, name, kind,
                                                       gas_limit):
    env = environments[name]
    state = clone(env.state)
    total_before = sum(a.balance for a in state.accounts.values())
    digest_before = digest(state)
    out = env.run_target(state, kind, gas_limit)
    # gas is never charged to a balance
    assert sum(a.balance for a in state.accounts.values()) == total_before
    if not out.ok:
        assert out.balance_delta == 0
        # agent-level failures may leave agent-internal bookkeeping behind;
        # the envelope-level rollback guarantee binds EOA transactions
        if kind == AgentKind.EOA:
            assert digest(state) == digest_before


# -- random syntax trees ---------------------------------------------------------

NAME_POOL = ["a", "b", "c", "x1", "y2", "foo", "bar_", "qux"]
NAMES = st.sampled_from(NAME_POOL)
KINDS = st.sampled_from([ast.Kind.UINT, ast.Kind.BOOL, ast.Kind.ADDR])


BINARY_OPS = ["+", "-", "*", "==", "!=", "<", "<=", ">", ">=", "&&", "||"]
# without "*": unvalidated code may multiply an address string by a large
# uint, and Python would build that string before the range check
EXECUTABLE_OPS = [op for op in BINARY_OPS if op != "*"]


def exprs(binary_ops=BINARY_OPS):
    leaves = st.one_of(
        st.integers(min_value=0, max_value=2**64).map(lambda v: ast.IntLit(value=v)),
        st.booleans().map(lambda v: ast.BoolLit(value=v)),
        NAMES.map(lambda n: ast.Var(name=n)),
        st.just(ast.MsgSender()),
        st.just(ast.MsgValue()),
        st.just(ast.This()),
        st.just(ast.GasLeft()),
    )

    def compound(children):
        binary = st.builds(
            lambda op, left, right: ast.Binary(op=op, left=left, right=right),
            st.sampled_from(binary_ops),
            children, children)
        negation = children.map(lambda e: ast.Not(operand=e))
        map_index = st.builds(lambda n, k: ast.MapIndex(name=n, key=k),
                              NAMES, children)
        balance = children.map(lambda e: ast.BalanceOf(target=e))
        # a plain-transfer lowcall has no argument syntax: args only
        # accompany a function name
        dispatch = st.one_of(
            st.tuples(st.none(), st.just([])),
            st.tuples(NAMES, st.lists(children, max_size=2)))
        low = st.builds(
            lambda t, fn_args, v, g: ast.Call(form="lowcall", target=t,
                                              function=fn_args[0], args=fn_args[1],
                                              value=v, gas=g),
            children, dispatch,
            st.one_of(st.none(), children), st.one_of(st.none(), children))
        direct = st.builds(
            lambda t, fn, args, v: ast.Call(form="dcall", target=t, function=fn,
                                            args=args, value=v),
            children, NAMES, st.lists(children, max_size=2),
            st.one_of(st.none(), children))
        send = st.builds(lambda t, v: ast.Call(form="send", target=t, value=v),
                         children, children)
        transfer = st.builds(lambda t, v: ast.Call(form="transfer", target=t, value=v),
                             children, children)
        return st.one_of(binary, negation, map_index, balance, low, direct,
                         send, transfer)

    return st.recursive(leaves, compound, max_leaves=12)


def stmts(binary_ops=BINARY_OPS):
    expr = exprs(binary_ops)
    lvalue = st.one_of(
        NAMES.map(lambda n: ast.Var(name=n)),
        st.builds(lambda n, k: ast.MapIndex(name=n, key=k), NAMES, expr))
    base = st.one_of(
        expr.map(lambda e: ast.Require(condition=e)),
        st.just(ast.Revert()),
        st.builds(lambda n, e: ast.Let(name=n, value=e), NAMES, expr),
        st.builds(lambda t, op, e: ast.Assign(target=t, op=op, value=e),
                  lvalue, st.sampled_from(["=", "+=", "-="]), expr),
        st.one_of(st.none(), expr).map(lambda e: ast.Return(value=e)),
        st.builds(lambda n, args: ast.Emit(name=n, args=args),
                  NAMES, st.lists(expr, max_size=2)),
        expr.map(lambda e: ast.ExprStmt(expr=e)),
    )

    def nested(children):
        return st.builds(
            lambda c, t, o: ast.If(condition=c, then=t, otherwise=o),
            expr, st.lists(children, max_size=2), st.lists(children, max_size=2))

    return st.recursive(base, nested, max_leaves=6)


contracts = st.builds(
    lambda name, svs, fns, fb: ast.ContractDef(
        name=name.capitalize(),
        state_vars=[ast.StateVar(name=f"s{i}", kind=k) for i, k in enumerate(svs)],
        functions=[
            ast.FunctionDef(name=f"f{i}",
                            params=[ast.Param(name=f"p{j}", kind=pk)
                                    for j, pk in enumerate(params)],
                            payable=payable, body=body)
            for i, (params, payable, body) in enumerate(fns)
        ],
        fallback=fb),
    NAMES,
    st.lists(st.sampled_from(list(ast.Kind)), max_size=3),
    st.lists(st.tuples(st.lists(KINDS, max_size=2), st.booleans(),
                       st.lists(stmts(), max_size=4)), max_size=3),
    st.one_of(st.none(),
              st.builds(lambda p, b: ast.FallbackDef(payable=p, body=b),
                        st.booleans(), st.lists(stmts(), max_size=3))),
)


@given(contract=contracts)
@settings(deadline=None, max_examples=120)
def test_printer_output_reparses_to_the_same_tree(contract):
    unit = ast.SourceUnit(contracts=[contract], source_name="<gen>")
    printed = pretty(unit)
    reparsed = parse(printed, "<gen>")
    assert reparsed.contracts == unit.contracts
    assert pretty(reparsed) == printed


@given(contract=contracts)
@settings(deadline=None, max_examples=60)
def test_validation_is_pure_and_stable(contract):
    unit = ast.SourceUnit(contracts=[contract], source_name="<gen>")
    before = copy.deepcopy(unit)
    first = validate(unit)
    second = validate(unit)
    assert [str(e) for e in first] == [str(e) for e in second]
    assert unit.contracts == before.contracts


# -- every validated program runs --------------------------------------------------

# Typed trees over fixed declarations, so that most generated contracts
# validate: state variables `u` uint, `b` bool, `a` addr and `m` map,
# parameters `p` uint and `q` addr, and locals from LOCALS, bound by `let`
# and read anywhere, inside or after the block that binds them.
LOCALS = ["x", "y"]
FUNCTIONS = ["f0", "f1"]
_ADDRS = st.sampled_from([ast.MsgSender(), ast.This(), ast.Var(name="a"), ast.Var(name="q")])
_UINTS = st.recursive(
    st.one_of(st.integers(0, 9).map(lambda v: ast.IntLit(value=v)),
              st.sampled_from(["u", "p"] + LOCALS).map(lambda n: ast.Var(name=n)),
              st.sampled_from([ast.MsgValue(), ast.GasLeft()]),
              _ADDRS.map(lambda t: ast.MapIndex(name="m", key=t)),
              _ADDRS.map(lambda t: ast.BalanceOf(target=t))),
    lambda c: st.builds(lambda op, left, right: ast.Binary(op=op, left=left, right=right),
                        st.sampled_from(["+", "-"]), c, c),
    max_leaves=4)
_CONDITIONS = st.one_of(
    st.booleans().map(lambda v: ast.BoolLit(value=v)),
    st.just(ast.Var(name="b")),
    st.builds(lambda op, left, right: ast.Binary(op=op, left=left, right=right),
              st.sampled_from(["<", ">", "=="]), _UINTS, _UINTS),
    st.builds(lambda t, fn, args, v: ast.Call(form="lowcall", target=t, function=fn,
                                              args=args, value=v),
              _ADDRS, st.sampled_from(FUNCTIONS),
              st.sampled_from([[], [ast.IntLit(value=1), ast.MsgSender()]]),
              st.one_of(st.none(), _UINTS)))
_TYPED_STMTS = st.recursive(
    st.one_of(
        st.builds(lambda n, e: ast.Let(name=n, value=e), st.sampled_from(LOCALS), _UINTS),
        st.builds(lambda n, op, e: ast.Assign(target=ast.Var(name=n), op=op, value=e),
                  st.sampled_from(["u", "p"] + LOCALS), st.sampled_from(["=", "+="]),
                  _UINTS),
        _UINTS.map(lambda e: ast.Assign(target=ast.MapIndex(name="m", key=ast.MsgSender()),
                                          op="+=", value=e)),
        _CONDITIONS.map(lambda c: ast.Require(condition=c)),
        _CONDITIONS.map(lambda c: ast.ExprStmt(expr=c))),
    lambda c: st.builds(lambda cond, then, otherwise: ast.If(condition=cond, then=then,
                                                             otherwise=otherwise),
                        _CONDITIONS, st.lists(c, max_size=3), st.lists(c, max_size=2)),
    max_leaves=8)
typed_contracts = st.lists(st.lists(_TYPED_STMTS, max_size=4), min_size=1, max_size=2).map(
    lambda bodies: ast.ContractDef(
        name="T",
        state_vars=[ast.StateVar(name=n, kind=k) for n, k in
                    [("u", ast.Kind.UINT), ("b", ast.Kind.BOOL), ("a", ast.Kind.ADDR),
                     ("m", ast.Kind.MAP)]],
        functions=[ast.FunctionDef(name=FUNCTIONS[i], payable=True, body=body,
                                   params=[ast.Param(name="p", kind=ast.Kind.UINT),
                                           ast.Param(name="q", kind=ast.Kind.ADDR)])
                   for i, body in enumerate(bodies)],
        fallback=ast.FallbackDef(payable=True, body=[])))

# validated, then crashed the interpreter when the block did not run
UNSCOPED_LET = "contract C { uint total; fn f(x: uint) { if (x > 5) { let y = 1; } total = y; } }"


@example(contract=parse(UNSCOPED_LET).contracts[0])
@given(contract=typed_contracts)
@settings(deadline=None, max_examples=150)
def test_every_validated_program_runs_every_function(contract):
    if validate(ast.SourceUnit(contracts=[contract], source_name="<gen>")):
        return
    state, schedule = WorldState(), GasSchedule()
    actor = state.create_eoa(10**6)
    callee = deploy(state, contract, 1_000)
    for fn in contract.functions:
        args = tuple(actor if p.kind == ast.Kind.ADDR else 1 for p in fn.params)
        value = 3 if fn.payable else 0
        execute(state, Transaction(actor, 300_000, callee, fn.name, args, value), schedule)
    execute(state, Transaction(actor, 300_000, callee, None, (), 2), schedule)


# -- token soup through the command line -----------------------------------------

def _exit_code(argv):
    """`cli.main`'s exit code and what it wrote to stderr."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    return code, err.getvalue()


SOUP_TOKENS = st.one_of(
    st.sampled_from(sorted(KEYWORDS) + PUNCT + ["C", "f", "x", "t", "sender", "_"]),
    # letters and digits outside the ASCII token set
    st.sampled_from(["é", "ß", "λ", "Ж", "ﬁ", "²", "٣", "①", "߀", "\u00a0"]),
    st.from_regex(r"[0-9][0-9_]{0,4}", fullmatch=True),
    st.integers(min_value=38, max_value=6000).map(lambda n: "9" * n),
    st.sampled_from([str(2**128 - 1), str(2**128), "0" * 40 + "1"]),
)


@given(tokens=st.lists(SOUP_TOKENS, max_size=40),
       separator=st.sampled_from([" ", ""]),
       frame=st.sampled_from(["{}", "contract C {{ uint x; fn f() payable {{ {} }} }}"]))
@settings(deadline=None, max_examples=150)
def test_token_soup_never_crashes_the_command_line(tokens, separator, frame):
    """Whatever the source, `mtsc check` reports a verdict (0 or 1) or an
    error in the input (2), never an internal error (3)."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "soup.msol").write_text(frame.format(separator.join(tokens)),
                                          encoding="utf-8")
        path = Path(tmp, "soup.scenario.json")
        path.write_text(json.dumps({
            "schema": "scenario-v1", "sources": ["soup.msol"],
            "balances": {"C": 0, "$ACTOR": 10_000},
            "target": {"callee": "C", "function": "f"}}))
        code, err = _exit_code(["check", str(path), "--mr", "MR2.1"])
    assert code in (0, 1, 2), err


# -- schedules and scenarios through the command line ---------------------------

SCHEDULE_KEYS = list(GasSchedule._fields)


@given(entries=st.dictionaries(st.sampled_from(SCHEDULE_KEYS),
                               st.sampled_from([0, 1, 10**40, 2**128 - 1, 2**128]),
                               max_size=3),
       block_below_base=st.booleans(),
       name=st.sampled_from(CORPUS_SCENARIOS),
       command=st.sampled_from(["check", "estimate"]))
@settings(deadline=None, max_examples=60)
def test_extreme_schedules_never_crash_the_command_line(entries, block_below_base,
                                                        name, command):
    """Any schedule, however extreme, gives a verdict (0 or 1) or an error
    in the input (2), never an internal error (3)."""
    if block_below_base:
        entries["block_gas_limit"] = entries.get("base_tx", GasSchedule().base_tx) - 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "extreme.schedule")
        path.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
        code, err = _exit_code([command, str(CORPUS / f"{name}.scenario.json"),
                                "--schedule", str(path)])
    assert code in (0, 1, 2), err


_json_values = st.one_of(
    st.integers(min_value=-2**130, max_value=2**130),
    st.sampled_from([0, 1, 2**128 - 1, 2**128, 2**130, -1, True, False, None, 1.5,
                     "$ACTOR", "owner", "founder", "SimpleDAO", "nobody", "", [], {}]),
)
# one mutation of a scenario: a path of keys into its JSON and a new value
_mutations = st.one_of(
    st.tuples(st.sampled_from([("target", "args"), ("target", "value"),
                               ("target", "callee"), ("target", "function"),
                               ("setup", 0, "args"), ("setup", 0, "value"),
                               ("setup", 0, "actor"), ("setup", 0, "callee"),
                               ("balances", "$ACTOR"), ("balances", "owner"),
                               ("setup",), ("mrs",), ("mr1_actors",), ("target",)]),
              _json_values),
    st.tuples(st.sampled_from([("target", "args"), ("setup", 0, "args"), ("mrs",),
                               ("mr1_actors",)]),
              st.lists(_json_values, max_size=3)),
)


def _holds(node, key):
    return (isinstance(node, dict) and key in node
            or isinstance(node, list) and isinstance(key, int) and key < len(node))


def _mutate(raw, path, value):
    """Set the entry at `path` in `raw` to `value`, where the path leads
    to a key of an object or an index of a list."""
    node = raw
    for key in path[:-1]:
        if not _holds(node, key):
            return
        node = node[key]
    if isinstance(node, dict) or _holds(node, path[-1]):
        node[path[-1]] = value


@given(name=st.sampled_from(CORPUS_SCENARIOS),
       mutations=st.lists(_mutations, min_size=1, max_size=3))
@settings(deadline=None, max_examples=100)
def test_mutated_scenarios_never_crash_the_command_line(name, mutations):
    """A corpus scenario with wrong kinds of arguments, unknown or swapped
    roles and values up to 2**130 gives a verdict (0 or 1) or an error in
    the input (2), never an internal error (3)."""
    raw = json.loads((CORPUS / f"{name}.scenario.json").read_text())
    raw["sources"] = [str(CORPUS / source) for source in raw["sources"]]
    for path, value in mutations:
        _mutate(raw, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, f"{name}.scenario.json")
        path.write_text(json.dumps(raw))
        code, err = _exit_code(["check", str(path)])
    assert code in (0, 1, 2), err


# -- the rollback journal against independent clones ---------------------------

def _writes(name):
    """Body prefix: a map write whose key is often new to the storage."""
    return [ast.Assign(target=ast.MapIndex(name=name, key=ast.MsgSender()), op="=",
                       value=ast.MsgValue())]


# Every generated name is a declared uint and every function is payable
# and starts with storage writes, so generated bodies write storage and
# move value instead of failing on the first undeclared name.
journal_contracts = st.builds(
    lambda fns, fb: ast.ContractDef(
        name="Gen",
        state_vars=[ast.StateVar(name=n, kind=ast.Kind.UINT) for n in NAME_POOL],
        functions=[ast.FunctionDef(name=n, params=[], payable=True,
                                   body=_writes(n) + b)
                   for n, b in fns.items()],
        fallback=ast.FallbackDef(payable=True, body=_writes("qux") + fb)),
    st.dictionaries(NAMES, st.lists(stmts(EXECUTABLE_OPS), max_size=4), max_size=3),
    st.lists(stmts(EXECUTABLE_OPS), max_size=3),
)


def _attempt(state, tx):
    try:
        return execute(state, tx, GasSchedule())
    except Exception as exc:  # generated programs are unvalidated
        return type(exc)


@given(contract=journal_contracts,
       gas=st.integers(min_value=21_000, max_value=600_000))
@settings(deadline=None, max_examples=100)
def test_journaled_runs_match_clone_runs(contract, gas):
    state = WorldState()
    actor = state.create_eoa(10**9)
    first = deploy(state, contract, 1_000)
    second = deploy(state, contract, 500)
    # each copy finds the other under `a`, so `a` as a call target crosses over
    state.store(state.account(first), "a", second)
    state.store(state.account(second), "a", first)
    txs = [Transaction(actor, gas, first, fn.name, (), 3) for fn in contract.functions]
    txs.append(Transaction(actor, gas, first, None, (), 2))
    for tx in txs:  # give the context storage that later runs overwrite
        _attempt(state, tx)

    copied = clone(state)
    expected = [_attempt(copied, tx) for tx in txs]
    before_digest = digest(state)
    state.snapshot()
    try:
        assert [_attempt(state, tx) for tx in txs] == expected
        assert digest(state) == digest(copied)
    finally:
        state.restore()
    assert digest(state) == before_digest


# -- invariance ranges against the full sweep, on generated contracts ---------

# A small block gas limit bounds the work of a generated contract that
# calls itself more than once per frame: every call costs at least 800 gas.
GEN_SCHEDULE = GasSchedule(block_gas_limit=1_000_000)


def _report_or_error(path, config):
    try:
        result = mr_engine.run_all(scenario.load_scenario(path), GEN_SCHEDULE, config)
    except Exception as exc:  # generated programs are unvalidated
        return type(exc)
    return emit_report([verdict_for(result)], fmt="json")


# `reference_sweep` runs every pair of an MR1.x sweep: the sweep the
# invariance ranges cut.
@given(contract=journal_contracts,
       entry=st.integers(min_value=0, max_value=3),
       value=st.sampled_from([0, 0, 1, 700]),
       n=st.integers(min_value=1, max_value=40))
@settings(deadline=None, max_examples=40)
def test_invariance_ranges_match_the_full_sweep_on_generated_contracts(contract, entry,
                                                                        value, n):
    functions = [fn.name for fn in contract.functions]
    target = {"callee": "Gen", "function": (functions + [None])[
        min(entry, len(functions))], "value": value}
    config = mr_engine.EngineConfig(n=n, inc_count=3,
                                    mr1_actors_override=ALL_ACTOR_KINDS)
    with tempfile.TemporaryDirectory() as tmp:
        unit = ast.SourceUnit(contracts=[contract], source_name="gen.msol")
        (Path(tmp) / "gen.msol").write_text(pretty(unit))
        path = Path(tmp) / "gen.scenario.json"
        path.write_text(json.dumps({
            "schema": "scenario-v1", "sources": ["gen.msol"],
            "balances": {"Gen": 5_000, "$ACTOR": 10_000}, "target": target}))
        # generated bodies are well-formed but untyped; run them unvalidated
        with mock.patch.object(scenario, "validate", lambda unit: []):
            cut = _report_or_error(path, config)
            with mock.patch.object(mr_engine, "sweep", reference_sweep):
                full = _report_or_error(path, config)
    assert cut == full


# Well-typed contracts built from the gas-sensitive idioms: self-calls in
# every call form, with and without value and gas clauses, calls back
# into the actor, gasleft guards, and branches on a call's result.
GAS_FNS = 3
_fn = st.integers(min_value=0, max_value=GAS_FNS - 1)
_gas = st.sampled_from([0, 100, 1_000, 2_300, 2_400, 5_000, 30_000, 60_000])
_calls = st.one_of(
    _fn.map(lambda k: f"lowcall this.f{k}()"),
    _fn.map(lambda k: f"lowcall this.f{k}() value 1"),
    st.builds(lambda k, g: f"lowcall this.f{k}() gas {g}", _fn, _gas),
    st.builds(lambda k, g: f"lowcall this.f{k}() value 1 gas {g}", _fn, _gas),
    st.just("lowcall msg.sender value 1"),
    st.just("lowcall msg.sender"),
    _gas.map(lambda g: f"lowcall msg.sender value 1 gas {g}"),
    st.just("send msg.sender value 1"),
)


def _gas_stmt(children):
    block = st.lists(children, max_size=2).map(" ".join)
    return st.one_of(
        _calls.map(lambda c: f"{c};"),
        _fn.map(lambda k: f"dcall this.f{k}();"),
        _fn.map(lambda k: f"dcall this.f{k}() value 1;"),
        st.just("transfer msg.sender value 1;"),
        st.builds(lambda c, t, o: f"if ({c}) {{ {t} }} else {{ {o} }}", _calls, block, block),
        _calls.map(lambda c: f"require({c});"),
        st.builds(lambda g, t: f"if (gasleft() > {g}) {{ {t} }}", _gas, block),
        _gas.map(lambda g: f"require(gasleft() > {g});"),
    )


_gas_stmts = st.recursive(
    st.sampled_from(["x = 1;", "x += 1;", "y = 7;", "n[msg.sender] += 1;",
                     "emit E();", "require(x < 3);", "revert();"]),
    lambda children: st.one_of(children, _gas_stmt(children)), max_leaves=8)
_gas_body = st.lists(_gas_stmts, max_size=4).map(" ".join)


def _gas_shape(bodies, fallback=""):
    return ("contract Gen { uint x; uint y; map n;\n"
            + "".join(f"fn f{i}() payable {{ {b} }}\n" for i, b in enumerate(bodies))
            + f"fallback payable {{ {fallback} }} }}\n")


gas_shape_sources = st.builds(
    _gas_shape, st.lists(_gas_body, min_size=GAS_FNS, max_size=GAS_FNS), _gas_body)


@given(source=gas_shape_sources,
       entry=st.sampled_from(["f0", "f1", None]),
       value=st.sampled_from([0, 1, 700]))
@settings(deadline=None, max_examples=40)
# self-recursion until a child starts with no gas to forward and runs dry
# at its first charge
@example(source=_gas_shape(["lowcall this.f0();"]), entry="f0", value=0)
# a child within its stipend whose reserve needs more than the stipend
@example(source=_gas_shape(["if (lowcall this.f1() value 1) { x = 1; }",
                            "lowcall this.f2() gas 5000;", ""]), entry="f0", value=0)
# a range up to the block gas limit above a success that is not
# upward-closed below: lower down the writes after the child run out,
# lower still the child starves and the run takes the free branch
@example(source=_gas_shape(["if (lowcall this.f1()) { x = 1; y = 1; } else { }",
                            "n[msg.sender] += 1;", ""]), entry="f0", value=0)
def test_block_reaching_ranges_repeat_above_and_hold_below(source, entry, value):
    assert validate(parse(source)) == []
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "gen.msol").write_text(source)
        path = Path(tmp) / "gen.scenario.json"
        path.write_text(json.dumps({
            "schema": "scenario-v1", "sources": ["gen.msol"],
            "balances": {"Gen": 5_000, "$ACTOR": 10_000},
            "target": {"callee": "Gen", "function": entry, "value": value}}))
        env = scenario.build_environment(scenario.load_scenario(path), GEN_SCHEDULE)
    block = env.schedule.block_gas_limit
    for kind in ALL_ACTOR_KINDS:
        try:
            gc = estimate_intrinsic_gas(env.schedule,
                                        runner=env.runner_for(kind)).value
        except NeverSucceeds:
            continue

        def run(limit):
            return env.run_target(clone(env.state), kind, limit)

        source_out = run(gc)
        # a range that reaches the block gas limit decides every MR1.1 limit
        if source_out.limits[1] != block:
            continue
        expected = (True, source_out.gas_consumed, source_out.balance_delta)
        for limit in {min(g, block) for g in (gc + 1, gc + 2_300, 2 * gc, block)}:
            out = run(limit)
            assert (out.ok, out.gas_consumed, out.balance_delta) == expected, (kind, limit)
        below = sorted({max(0, gc - d) for d in range(1, 3_000, 97)}
                       | {max(0, gc - d) for d in (2_300, 5_000, 20_000, gc // 2, gc)})
        # what the MR1.2 sweep skips: a grid limit inside the range of a
        # run below repeats that run, so a failure whose range reaches 0
        # leaves no success below it
        _assert_ranges_hold(below, [run(limit) for limit in below], (kind, gc))


def _repeats(out, limit, again, limit_again):
    """Whether `again`, at `limit_again`, repeats `out` as its range claims."""
    return (again.status == out.status and again.balance_delta == out.balance_delta
            and (again.gas_consumed == out.gas_consumed
                 or out.gas_consumed == limit and again.gas_consumed == limit_again))


def _assert_ranges_hold(limits, outs, label):
    """Every run's range holds its own limit, and every grid limit in it
    repeats the run."""
    for limit, out in zip(limits, outs):
        lo, hi = out.limits
        assert lo <= limit <= hi, (label, limit, out.limits)
        for other, again in zip(limits, outs):
            if lo <= other <= hi:
                assert _repeats(out, limit, again, other), (label, limit, other)


def _gas_shape_env(source, entry, value):
    assert validate(parse(source)) == []
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "gen.msol").write_text(source)
        path = Path(tmp) / "gen.scenario.json"
        path.write_text(json.dumps({
            "schema": "scenario-v1", "sources": ["gen.msol"],
            "balances": {"Gen": 5_000, "$ACTOR": 10_000},
            "target": {"callee": "Gen", "function": entry, "value": value}}))
        return scenario.build_environment(scenario.load_scenario(path), GEN_SCHEDULE)


@given(source=gas_shape_sources,
       entry=st.sampled_from(["f0", "f1", None]),
       value=st.sampled_from([0, 1, 700]))
@settings(deadline=None, max_examples=40)
# the swallowed child succeeds at 100k and the run fails (Revert); at 30k
# the child starves and the run succeeds: a succeeding child turns the run
@example(source=_gas_shape(["if (lowcall this.f1()) { revert(); } else { }",
                            "x = 1;", ""]), entry="f0", value=0)
# self-recursion until a child starts with no gas to forward
@example(source=_gas_shape(["lowcall this.f0();"]), entry="f0", value=0)
# f1 succeeds on no gas after its own child f2 starved; lower down f1
# itself fails and f0 takes the free branch: that child turns the run too
@example(source=_gas_shape(["if (lowcall this.f1()) { x = 1; } else { }",
                            "y = 1; lowcall this.f2();", "n[msg.sender] = 1; x = 2;"]),
         entry="f0", value=0)
def test_failures_ranged_down_to_zero_fail_at_every_lower_limit(source, entry, value):
    env = _gas_shape_env(source, entry, value)
    block = env.schedule.block_gas_limit
    for kind in ALL_ACTOR_KINDS:
        def run(limit):
            return env.run_target(clone(env.state), kind, limit)

        # a grid below the ample run's consumption, fine near the top
        top = run(block).gas_consumed
        limits = sorted({block} | {max(0, top - d) for d in range(0, 3_000, 97)}
                        | {top * k // 16 for k in range(16)})
        outs = [run(limit) for limit in limits]
        _assert_ranges_hold(limits, outs, kind)
        # a failure whose range reaches 0 fails out of gas at every lower limit
        certified = [i for i, out in enumerate(outs)
                     if not out.ok and out.limits[0] == 0]
        if certified:
            highest = certified[-1]
            assert not any(out.ok for out in outs[:highest]), (kind, limits[highest])
            assert all(out.status == outs[highest].status and out.gas_consumed == limit
                       for limit, out in zip(limits[:highest], outs[:highest]))


# The gas-shape idioms, plus gasleft() in every other position: on the
# right of a comparison, against a non-literal, inside arithmetic, and
# as a stored value.
_gasleft_uses = st.one_of(
    _gas.map(lambda g: f"require({g} < gasleft());"),
    _gas.map(lambda g: f"if (gasleft() == {g}) {{ x = 2; }} else {{ }}"),
    _gas.map(lambda g: f"if (gasleft() - {g} > 1) {{ x = 3; }} else {{ }}"),
    st.just("require(gasleft() > y);"),
    st.just("y = gasleft();"),
)
_range_stmts = st.recursive(
    st.sampled_from(["x = 1;", "x += 1;", "y = 7;", "n[msg.sender] += 1;",
                     "emit E();", "require(x < 3);", "revert();"]),
    lambda children: st.one_of(children, _gas_stmt(children), _gasleft_uses),
    max_leaves=8)
_range_body = st.lists(_range_stmts, max_size=4).map(" ".join)
range_shape_sources = st.builds(
    _gas_shape, st.lists(_range_body, min_size=GAS_FNS, max_size=GAS_FNS), _range_body)


def _observe(env, kind, limit):
    """The outcome of a run on a clone of the context, and the digest of
    the state it leaves, an agent wrapper's own bookkeeping slots
    aside."""
    state = clone(env.state)
    out = env.run_target(state, kind, limit)
    if kind != AgentKind.EOA:
        storage = state.account(env.actor_accounts[kind]).storage
        for slot in (TARGET_SLOT, VALUE_SLOT):
            storage.pop(slot, None)
    return out, digest(state)


@given(source=range_shape_sources,
       entry=st.sampled_from(["f0", "f1", None]),
       value=st.sampled_from([0, 1, 700]),
       kind=st.sampled_from(ALL_ACTOR_KINDS),
       at=st.floats(min_value=0.0, max_value=1.2),
       inside=st.floats(min_value=0.0, max_value=1.0))
@settings(deadline=None, max_examples=80)
# a read that holds bounds the range below, one that fails bounds it above
@example(source=_gas_shape(["require(gasleft() > 0);", "", ""]), entry="f0",
         value=0, kind=AgentKind.EOA, at=1.0, inside=0.0)
@example(source=_gas_shape(["if (gasleft() > 60000) { x = 1; } else { }", "", ""]),
         entry="f0", value=0, kind=AgentKind.EOA, at=0.9, inside=0.0)
# a forward-all child that starves bounds the range above: the agent's
# call into the target, and a self-call
@example(source=_gas_shape(["", "x = 1;", ""]), entry="f1", value=0,
         kind=AgentKind.CAO, at=0.75, inside=0.0)
@example(source=_gas_shape(["lowcall this.f1();", "x = 1;", ""]), entry="f0",
         value=0, kind=AgentKind.EOA, at=0.75, inside=0.0)
def test_every_limit_in_a_range_repeats_the_run(source, entry, value, kind, at, inside):
    env = _gas_shape_env(source, entry, value)
    block = env.schedule.block_gas_limit
    limit = min(block, int(at * env.run_target(clone(env.state), kind, block).gas_consumed))
    out, digest = _observe(env, kind, limit)
    lo, hi = out.limits
    assert lo <= limit <= hi
    for other in {lo, hi, lo + int((hi - lo) * inside), max(lo, limit - 1), min(hi, limit + 1)}:
        again, digest_again = _observe(env, kind, other)
        assert _repeats(out, limit, again, other), (other, again.status, again.gas_consumed)
        assert digest_again == digest, other


@given(source=range_shape_sources,
       entry=st.sampled_from(["f0", "f1", None]),
       value=st.sampled_from([0, 1, 700]),
       kind=st.sampled_from(ALL_ACTOR_KINDS),
       at=st.floats(min_value=0.0, max_value=1.2))
@settings(deadline=None, max_examples=60)
def test_lean_runs_match_full_runs_on_generated_contracts(source, entry, value, kind, at):
    env = _gas_shape_env(source, entry, value)
    block = env.schedule.block_gas_limit
    limit = min(block, int(at * env.run_target(clone(env.state), kind, block).gas_consumed))
    for limit in {limit, block}:
        lean, full = (env.run_target(clone(env.state), kind, limit, ops=ops)
                      for ops in (False, True))
        assert_lean_matches_full(lean, full)


# The environment answers probes from the ranges of the runs it made;
# `reference_run` runs every distinct probe.
@given(source=range_shape_sources,
       entry=st.sampled_from(["f0", "f1", None]),
       value=st.sampled_from([0, 1, 700]),
       kind=st.sampled_from(ALL_ACTOR_KINDS),
       growth=st.sampled_from([1.01, 1.1, 1.5, 2.0, 1e9]),
       first_limit=st.one_of(st.none(), st.integers(min_value=1, max_value=200_000)))
@settings(deadline=None, max_examples=60)
def test_range_answered_estimates_match_every_probe_run(source, entry, value, kind,
                                                        growth, first_limit):
    env = _gas_shape_env(source, entry, value)
    got, want = (estimate_or_status(GEN_SCHEDULE, runner, growth, first_limit)
                 for runner in (env.runner_for(kind), partial(reference_run, env, kind)))
    assert got == want


# Under `uncut` only an estimator probe is answered from a range, and every
# source and follow-up outcome is its input's own run.
@given(source=range_shape_sources,
       entry=st.sampled_from(["f0", "f1", None]),
       value=st.sampled_from([0, 1, 700]),
       n=st.integers(min_value=1, max_value=40),
       growth=st.sampled_from(["1.01", "1.5", "3"]))
@settings(deadline=None, max_examples=40)
# the block-limit run of CAH answers its MR1.1 follow-up at 2*gc, which
# violates the relation; the report must show the follow-up's own run,
# whose calls forward less gas
@example(source=_gas_shape(["lowcall msg.sender value 1;", "", ""]), entry="f0",
         value=0, n=1, growth="1.01")
def test_range_answered_reports_match_the_uncut_pipeline(source, entry, value, n, growth):
    assert validate(parse(source)) == []
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "gen.msol").write_text(source)
        (Path(tmp) / "gen.schedule").write_text(
            f"block_gas_limit={GEN_SCHEDULE.block_gas_limit}\n")
        path = Path(tmp) / "gen.scenario.json"
        path.write_text(json.dumps({
            "schema": "scenario-v1", "sources": ["gen.msol"],
            "balances": {"Gen": 5_000, "$ACTOR": 10_000},
            "target": {"callee": "Gen", "function": entry, "value": value}}))
        argvs = [(command, str(path), "--schedule", str(Path(tmp) / "gen.schedule"),
                  "--format", "json", "--n", str(n), "--inc-count", "3",
                  "--growth", growth, "--mr1-actors", "EOA,CAO,CAH,CAR,CAE")
                 for command in ("check", "estimate")]
        cut = [cli_outputs(*argv) for argv in argvs]
        with uncut():
            assert [cli_outputs(*argv) for argv in argvs] == cut


# -- bounded work per run --------------------------------------------------------

# Calls a generated body makes into its own contract: more than one per
# body makes a call tree, and value-moving ones feed the fallback stipends.
SELF_CALLS = ["lowcall this.f();", "lowcall this.f() gas 3000;", "lowcall this.f() value 1;",
              "dcall this.f();", "send this value 1;", "transfer this value 1;",
              "lowcall this value 1;", "lowcall this;"]


@st.composite
def bounded_schedules(draw):
    """Schedules that load, with at most 3000 calls per run."""
    call_base = draw(st.integers(min_value=1, max_value=2_000))
    surcharge = draw(st.sampled_from([0, 1, 2_300, 9_000]))
    return GasSchedule(
        base_tx=draw(st.sampled_from([0, 21_000])),
        dispatch=draw(st.sampled_from([0, 100])),
        call_base=call_base,
        value_transfer_surcharge=surcharge,
        stipend=draw(st.integers(min_value=0, max_value=surcharge)),
        block_gas_limit=draw(st.integers(min_value=0, max_value=3_000 * call_base)))


@given(schedule=bounded_schedules(),
       body=st.lists(st.sampled_from(SELF_CALLS), min_size=1, max_size=3),
       fallback=st.lists(st.sampled_from(SELF_CALLS), max_size=3),
       function=st.sampled_from(["f", None]))
@settings(deadline=None, max_examples=60)
def test_a_run_makes_at_most_one_call_per_call_base_of_the_block(schedule, body,
                                                                 fallback, function):
    """No call is free and no stipend mints gas, so a run's calls, and with
    them its work, are bounded by what the block limit buys."""
    unit = parse(f"contract Fork {{ fn f() payable {{ {' '.join(body)} }} "
                 f"fallback payable {{ {' '.join(fallback)} }} }}")
    state = WorldState()
    actor = state.create_eoa(10)
    fork = deploy(state, unit.contracts[0], 10**6)
    out = execute(state, Transaction(actor, schedule.block_gas_limit, fork, function,
                                     (), 1), schedule)
    calls = sum(type(ev) is CallEntered for ev in out.trace)
    assert calls <= 1 + schedule.block_gas_limit // schedule.call_base


# -- damaged input files ------------------------------------------------------


# The four kinds of input file of `mtsc bench` over a copy of the corpus.
# The schedule, which the corpus has none of, sets every key to its default.
INPUT_FILES = {
    "scenario": sorted(p.name for p in CORPUS.glob("*.scenario.json")),
    "source": sorted(p.name for p in CORPUS.glob("*.msol")),
    "schedule": ["gas.schedule"],
    "labels": ["labels.json"],
}
SCHEDULE_TEXT = "".join(f"{name} = {value}\n"
                        for name, value in zip(GasSchedule._fields, GasSchedule()._values()))


@st.composite
def mutated(draw, data: bytes):
    """`data` with a few bits flipped, a tail cut off or bytes inserted."""
    data = bytearray(data)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        at = draw(st.integers(min_value=0, max_value=len(data)))
        edit = draw(st.sampled_from(["flip", "truncate", "insert"]))
        if edit == "flip" and at < len(data):
            data[at] ^= 1 << draw(st.integers(min_value=0, max_value=7))
        elif edit == "truncate":
            del data[at:]
        else:
            data[at:at] = draw(st.binary(min_size=1, max_size=4))
    return bytes(data)


@st.composite
def damaged_inputs(draw):
    """(file name, bytes): arbitrary or mutated bytes for one input file."""
    name = draw(st.sampled_from(INPUT_FILES[draw(st.sampled_from(sorted(INPUT_FILES)))]))
    original = SCHEDULE_TEXT.encode() if name == "gas.schedule" else (CORPUS / name).read_bytes()
    return name, draw(st.one_of(st.binary(max_size=200), mutated(original)))


@given(damaged=damaged_inputs())
@settings(deadline=None, max_examples=150)
# a source byte that is not UTF-8 used to exit 3
@example(damaged=("counter.msol", b"contract Counter \xff {}"))
def test_any_bytes_in_an_input_file_exit_zero_one_or_two(damaged):
    """Whatever one input file holds, `mtsc` reports a verdict or one error
    line, never an internal error or a traceback (exit 3)."""
    name, data = damaged
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "corpus"
        shutil.copytree(CORPUS, tree)
        (tree / "gas.schedule").write_text(SCHEDULE_TEXT)
        (tree / name).write_bytes(data)
        code, _, err = cli_outputs("bench", str(tree), str(tree / "labels.json"),
                                   "--schedule", str(tree / "gas.schedule"), "--jobs", "1")
    assert code in (0, 1, 2), err
    assert "internal error" not in err and "Traceback" not in err


# -- selection lists -----------------------------------------------------------

KIND_NAMES = tuple(kind.value for kind in ALL_ACTOR_KINDS)
LIST_NAMES = st.sampled_from(tuple(RELATIONS) + KIND_NAMES + ("", "mr1.1", "MR3", "eoa"))


def _first_unknown(names, known, what):
    return next((f"unknown {what} {name!r}" for name in names if name not in known), None)


def _rejection(check, error):
    try:
        check()
    except error as exc:
        return str(exc)
    return None


@given(mrs=st.lists(LIST_NAMES, max_size=4), actors=st.lists(LIST_NAMES, max_size=4))
@settings(deadline=None, max_examples=200)
def test_scenarios_the_engine_and_the_flags_check_lists_alike(mrs, actors):
    """A relation or actor-kind list is accepted, or rejected with one
    message, alike in a scenario file, in EngineConfig and in the flags."""
    expected = (_first_unknown(mrs, RELATIONS, "relation")
                or _first_unknown(actors, KIND_NAMES, "actor kind"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lists.scenario.json"
        path.write_text(json.dumps({"schema": "scenario-v1", "sources": ["x.msol"],
                                    "balances": {}, "target": {"callee": "X"},
                                    "mrs": mrs, "mr1_actors": actors}))
        assert _rejection(lambda: load_scenario(path), InputError) == (
            expected and f"{path}: {expected}")
        assert _rejection(lambda: mr_engine.EngineConfig(
            mr_filter=mrs, mr1_actors_override=actors), ValueError) == expected

        # an empty flag means no filter: the lists [] and [""] pass no flag
        mrs, actors = (names if ",".join(names) else [] for names in (mrs, actors))
        expected = (_first_unknown(mrs, RELATIONS, "relation")
                    or _first_unknown(actors, KIND_NAMES, "actor kind"))
        missing = Path(tmp) / "missing.scenario.json"
        argv = ["check", str(missing)]
        for flag, names in (("--mr", mrs), ("--mr1-actors", actors)):
            argv += [flag, ",".join(names)] if names else []
        code, out, err = cli_outputs(*argv)
    assert (code, out) == (2, "")
    if expected:
        assert err == f"mtsc: error: {expected}\n"
    else:  # the options passed, and the scenario was read next
        assert err.startswith(f"mtsc: error: cannot read {missing}: ")
