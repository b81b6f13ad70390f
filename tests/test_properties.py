"""Property-based checks: gas laws over randomized runs, and printer
round-trips over randomly generated syntax trees."""

import copy

from hypothesis import given, settings, strategies as st

from mtsc.agents import AgentKind
from mtsc.minisol import ast, parse, pretty, validate
from mtsc.scenario import ALL_ACTOR_KINDS
from mtsc.vm import FailReason, GasSchedule, Transaction, WorldState, deploy, execute

from conftest import CORPUS_SCENARIOS

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
    out = env.run_target(env.state.clone(), kind, gas_limit)
    assert out.gas_consumed <= gas_limit


@given(
    name=st.sampled_from(CORPUS_SCENARIOS),
    kind=st.sampled_from(ALL_ACTOR_KINDS),
    gas_limit=st.integers(min_value=0, max_value=120_000),
)
@settings(**SETTINGS)
def test_out_of_gas_consumes_the_full_allocation(environments, name, kind, gas_limit):
    env = environments[name]
    out = env.run_target(env.state.clone(), kind, gas_limit)
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
    first = env.run_target(env.state.clone(), kind, gas_limit)
    second = env.run_target(env.state.clone(), kind, gas_limit)
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
    digest = state.digest()
    sid = state.snapshot()
    try:
        env.run_target(state, kind, gas_limit)
    finally:
        state.restore(sid)
    assert state.digest() == digest


@given(
    name=st.sampled_from(CORPUS_SCENARIOS),
    kind=st.sampled_from(ALL_ACTOR_KINDS),
    gas_limit=st.integers(min_value=0, max_value=250_000),
)
@settings(**SETTINGS)
def test_balances_are_conserved_and_failures_roll_back(environments, name, kind,
                                                       gas_limit):
    env = environments[name]
    state = env.state.clone()
    total_before = sum(a.balance for a in state.accounts.values())
    digest_before = state.digest()
    fees_before = state.fee_ledger
    out = env.run_target(state, kind, gas_limit)
    # fees accrue on the ledger, never on balances
    assert sum(a.balance for a in state.accounts.values()) == total_before
    if not out.ok:
        assert out.balance_delta == 0
        state.fee_ledger = fees_before
        # agent-level failures may leave agent-internal bookkeeping behind;
        # the envelope-level rollback guarantee binds EOA transactions
        if kind == AgentKind.EOA:
            assert state.digest() == digest_before


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
            lambda t, fn_args, v, g: ast.LowCall(target=t, function=fn_args[0],
                                                 args=fn_args[1], value=v, gas=g),
            children, dispatch,
            st.one_of(st.none(), children), st.one_of(st.none(), children))
        direct = st.builds(
            lambda t, fn, args, v: ast.DirectCall(target=t, function=fn,
                                                  args=args, value=v),
            children, NAMES, st.lists(children, max_size=2),
            st.one_of(st.none(), children))
        send = st.builds(lambda t, v: ast.Send(target=t, value=v),
                         children, children)
        transfer = st.builds(lambda t, v: ast.Transfer(target=t, value=v),
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

    clone = state.clone()
    expected = [_attempt(clone, tx) for tx in txs]
    digest = state.digest()
    sid = state.snapshot()
    try:
        assert [_attempt(state, tx) for tx in txs] == expected
        assert state.digest() == clone.digest()
    finally:
        state.restore(sid)
    assert state.digest() == digest
