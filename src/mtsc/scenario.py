"""Scenario files (`scenario-v1`) and the execution environment they set up.

A scenario names the contract sources, the starting balances per role,
the setup transactions that give every interacting account its position,
and the target transaction under test. `$ACTOR` is the placeholder for
the interacting account: the plain EOA in source runs, the agent contract
in follow-up runs. Setup entries mentioning `$ACTOR` are instantiated
once per account kind; all instantiations land in one shared world state,
the common context of every run. `Environment.run` executes one (actor
kind, gas limit) input in that context, restores it, and keeps the run
with its invariance range, which answers every later input inside it:
estimator probes and both sides of every test pair alike.

Schema (JSON object, unknown keys rejected):

    schema      "scenario-v1"                                 required
    sources     [relative .msol paths]                        required
    balances    {role: wei}; "$ACTOR" funds every actor       required
    setup       [{actor, callee, function, args, value}]      default []
    target      {callee, function, args, value}               required
    mrs         subset of MR1.1 MR1.2 MR2.1 MR2.2 MR2.3       default all
    mr1_actors  subset of EOA CAO CAH CAR CAE                 default EOA,CAH,CAR

Role strings in `actor`, `callee`, and `args` resolve to addresses:
contract names to their deployment, other balance keys to EOAs. A
target's `actor` is ignored, as $ACTOR sends the target. The arguments
of the target and of every setup entry must fit the called function's
parameters. Balances and values, like every amount the VM holds, lie in
[0, UINT_MAX].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional

from .agents import (
    AGENT_KINDS,
    DEFAULT_CAR_GAS_GUARD,
    AgentKind,
    AgentSpec,
    actor_kinds,
    agent_interact,
    make_agent,
)
from .inputs import read_json, read_text
from .minisol import ParseError, ast, parse, validate
from .relations import RELATIONS, relation_ids
from .vm import (UINT_MAX, GasSchedule, Outcome, Transaction, WorldState, deploy, execute,
                 replay)

SCHEMA_V1 = "scenario-v1"
ACTOR = "$ACTOR"
DEFAULT_MR1_ACTORS = (AgentKind.EOA, AgentKind.CAH, AgentKind.CAR)
ALL_ACTOR_KINDS = (AgentKind.EOA,) + AGENT_KINDS


class ScenarioError(Exception):
    pass


class TxTemplate(NamedTuple):
    actor: str               # role, or $ACTOR (always, for the target)
    callee: str
    function: Optional[str]  # None = plain value transfer
    args: tuple = ()
    value: int = 0


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    base_dir: Path
    sources: tuple
    balances: dict
    setup: tuple
    target: TxTemplate
    mrs: tuple
    mr1_actors: tuple


TEMPLATE_KEYS = frozenset({"actor", "callee", "function", "args", "value"})
SCENARIO_KEYS = frozenset({"schema", "sources", "balances", "setup", "target", "mrs",
                           "mr1_actors"})


def _entry(index: Optional[int]) -> str:
    """How messages name a transaction: the setup entry at `index`, or the
    target when `index` is None."""
    return "target" if index is None else f"setup[{index}]"


def _parse_template(obj, path: Path, index: Optional[int]) -> TxTemplate:
    """The setup entry at `index` of the scenario at `path`, or its target
    when `index` is None. Messages are built only for a failed check."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: {_entry(index)} must be an object")
    if not obj.keys() <= TEMPLATE_KEYS:
        raise ScenarioError(f"{path}: {_entry(index)} has unknown keys "
                            f"{sorted(set(obj) - TEMPLATE_KEYS)}")
    if index is not None and not isinstance(obj.get("actor"), str):
        raise ScenarioError(f"{path}: {_entry(index)} needs an actor role")
    if not isinstance(obj.get("callee"), str):
        raise ScenarioError(f"{path}: {_entry(index)} needs a callee role")
    function = obj.get("function")
    if not (function is None or isinstance(function, str)):
        raise ScenarioError(f"{path}: {_entry(index)}: function must be a name or null")
    args = obj.get("args", [])
    if not isinstance(args, list):
        raise ScenarioError(f"{path}: {_entry(index)}: args must be a list")
    for a in args:
        if not isinstance(a, (int, bool, str)):
            raise ScenarioError(f"{path}: {_entry(index)}: bad argument {a!r}")
    value = obj.get("value", 0)
    if not (type(value) is int and 0 <= value <= UINT_MAX):
        raise ScenarioError(f"{path}: {_entry(index)}: value must be an integer "
                            "in [0, 2**128 - 1]")
    return TxTemplate(ACTOR if index is None else obj["actor"], obj["callee"], function,
                      tuple(args), value)


def load_scenario(path) -> Scenario:
    path = Path(path)
    raw = read_json(path, ScenarioError)
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: scenario must be a JSON object")
    if not raw.keys() <= SCENARIO_KEYS:
        raise ScenarioError(f"{path}: unknown keys {sorted(set(raw) - SCENARIO_KEYS)}")
    if raw.get("schema") != SCHEMA_V1:
        raise ScenarioError(f"{path}: schema must be {SCHEMA_V1!r}")
    sources = raw.get("sources")
    if not (isinstance(sources, list) and sources
            and all(isinstance(s, str) for s in sources)):
        raise ScenarioError(f"{path}: sources must be a non-empty list of paths")
    balances = raw.get("balances")
    if not isinstance(balances, dict):
        raise ScenarioError(f"{path}: balances must be an object")
    # JSON object keys are strings, so every role is one
    for role, amount in balances.items():
        if not (type(amount) is int and 0 <= amount <= UINT_MAX):
            raise ScenarioError(f"{path}: balance of {role!r} must be an integer "
                                "in [0, 2**128 - 1]")
    for key in ("setup", "mrs", "mr1_actors"):
        if not isinstance(raw.get(key, []), list):
            raise ScenarioError(f"{path}: {key} must be a list")
    setup = [_parse_template(entry, path, i)
             for i, entry in enumerate(raw.get("setup", []))]
    target = _parse_template(raw.get("target"), path, None)
    try:
        mrs = relation_ids(raw.get("mrs", RELATIONS))
        kinds = actor_kinds(raw.get("mr1_actors", DEFAULT_MR1_ACTORS))
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}")

    stem = path.name
    for suffix in (".scenario.json", ".json"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
            break
    return Scenario(scenario_id=stem, base_dir=path.parent, sources=tuple(sources),
                    balances=dict(balances), setup=tuple(setup), target=target,
                    mrs=mrs, mr1_actors=kinds)


# --------------------------------------------------------------------------
# Environment: one shared world state holding every interacting account
# --------------------------------------------------------------------------


@dataclass
class Environment:
    """A deployed, set-up scenario; `state` is the shared context, and
    `run` the pipeline's one way to run a target input in it."""

    state: WorldState
    schedule: GasSchedule
    scenario: Scenario
    roles: dict
    actor_accounts: dict          # AgentKind -> address
    driver: str
    # AgentKind -> [(lo, hi, gas limit, Outcome)] of every run in the context
    _kept: dict = field(default_factory=dict, init=False, repr=False)

    def resolve(self, token, actor_addr: str):
        # roles are strings other than $ACTOR, so the tests cannot overlap
        addr = self.roles.get(token)
        if addr is not None:
            return addr
        if token == ACTOR:
            return actor_addr
        if isinstance(token, int):  # a bool is an int
            return token
        raise ScenarioError(f"unresolvable role {token!r}")

    def transaction(self, entry: TxTemplate, actor, gas_limit: int) -> Transaction:
        """`entry` at `gas_limit`, with `$ACTOR` standing for `actor`."""
        resolve = self.resolve
        args = []  # a loop, not a comprehension: no closure cells per transaction
        for a in entry.args:
            args.append(resolve(a, actor))
        return tuple.__new__(Transaction, (
            resolve(entry.actor, actor), gas_limit, resolve(entry.callee, actor),
            entry.function, tuple(args), entry.value))

    def run_target(self, state: WorldState, kind: AgentKind, gas_limit: int, *,
                   ops: bool = False) -> Outcome:
        """Run the target input on `state`, which keeps the run's effects.
        The run is lean unless `ops` asks for every op event (see `execute`)."""
        actor, target = self.actor_accounts[kind], self.scenario.target
        if kind == AgentKind.EOA:
            return execute(state, self.transaction(target, actor, gas_limit), self.schedule,
                           ops=ops)
        return agent_interact(state, actor, self.roles[target.callee], self.driver,
                              gas_limit, self.schedule, ops=ops)

    def run(self, kind: AgentKind, gas_limit: int, own: bool = False) -> Outcome:
        """The input's outcome in the context, which the run restores.

        Runs are deterministic, and every limit in a run's invariance range
        gives its status and, for a success, its balance delta and, unless
        it consumed its whole limit, its consumption. So each run is kept
        with the limits it answers: its range, or its own limit alone for
        a success that consumed the whole of it. An input inside a kept
        range takes that run's outcome, trace and range included, without
        running; `own=True` asks for the input's own run instead, made now
        unless it is kept, for what a report shows."""
        kept = self._kept.setdefault(kind, [])
        for lo, hi, limit, outcome in kept:
            if (limit == gas_limit) if own else (lo <= gas_limit <= hi):
                return outcome
        sid = self.state.snapshot()
        try:
            outcome = self.run_target(self.state, kind, gas_limit)
        finally:
            self.state.restore(sid)
        if outcome.ok and outcome.gas_consumed == gas_limit:
            kept.append((gas_limit, gas_limit, gas_limit, outcome))
        else:
            kept.append((*outcome.limits, gas_limit, outcome))
        return outcome

    def runner_for(self, kind: AgentKind):
        """The estimator's runner for one actor kind: gas limit -> Outcome."""
        return lambda limit: self.run(kind, limit)


def _load_contracts(scenario: Scenario):
    contracts = []
    seen = set()
    for rel in scenario.sources:
        src_path = scenario.base_dir / rel
        text = read_text(src_path, ScenarioError, "source ")
        try:
            unit = parse(text, str(src_path))
        except ParseError as exc:
            raise ScenarioError(f"{src_path}: {exc}") from exc
        errors = validate(unit)
        if errors:
            listing = "; ".join(str(e) for e in errors)
            raise ScenarioError(f"{src_path}: semantic errors: {listing}")
        for contract in unit.contracts:
            if contract.name in seen:
                raise ScenarioError(f"contract {contract.name!r} defined twice")
            seen.add(contract.name)
            contracts.append(contract)
    return contracts


def _check_args(entry: TxTemplate, fn: Optional[ast.FunctionDef], roles: dict,
                index: Optional[int] = None):
    """Raise ScenarioError unless the arguments of the setup entry at
    `index` (the target when None) fit the parameters of `fn`, the
    function it calls, when that is known: a uint is a non-bool int in
    [0, UINT_MAX], a bool a bool, an addr a role."""
    if entry.function is None:
        if entry.args:
            raise ScenarioError(f"{_entry(index)}: a call with no function takes no args")
        return
    if fn is None:
        return
    if len(entry.args) != len(fn.params):
        raise ScenarioError(f"{_entry(index)}: {entry.function} takes {len(fn.params)} "
                            f"args, got {len(entry.args)}")
    for param, arg in zip(fn.params, entry.args):
        if param.kind == ast.Kind.UINT:
            fits = type(arg) is int and 0 <= arg <= UINT_MAX
        elif param.kind == ast.Kind.BOOL:
            fits = type(arg) is bool
        else:
            fits = arg == ACTOR or arg in roles
        if not fits:
            raise ScenarioError(f"{_entry(index)}: argument {param.name} of "
                                f"{entry.function} must be {param.kind.value}, "
                                f"got {arg!r}")


def build_environment(scenario: Scenario, schedule: GasSchedule,
                      car_gas_guard: int = DEFAULT_CAR_GAS_GUARD,
                      cah_iterations: int = 1) -> Environment:
    """Deploy contracts, agents, and EOAs; fund them; replay the setup.

    Every actor kind is positioned in the same world state so each test
    pair observes an identical context regardless of which accounts it
    exercises. The returned environment's state is that shared context.
    """
    contracts = _load_contracts(scenario)
    state = WorldState()
    driver = state.create_eoa(0)
    eoa_actor = state.create_eoa(0)

    roles: dict[str, str] = {}
    for contract in contracts:
        roles[contract.name] = deploy(state, contract,
                                      scenario.balances.get(contract.name, 0))
    for role, amount in scenario.balances.items():
        if role == ACTOR or role in roles:
            continue
        roles[role] = state.create_eoa(amount)

    def function_of(callee: Optional[str], name: Optional[str]):
        code = state.account(callee).code if callee is not None else None
        return code.function(name) if code is not None and name else None

    target = scenario.target
    if target.callee not in roles:
        raise ScenarioError(f"target callee {target.callee!r} is not a known role")
    target_addr = roles[target.callee]
    target_fn = function_of(target_addr, target.function)
    if target.function is not None and target_fn is None:
        raise ScenarioError(
            f"target function {target.function!r} not found on {target.callee}")
    _check_args(target, target_fn, roles)

    env = Environment(state=state, schedule=schedule, scenario=scenario,
                      roles=roles, actor_accounts={AgentKind.EOA: eoa_actor}, driver=driver)

    # every agent makes the target call, naming itself `this` where it is $ACTOR
    args = tuple(env.resolve(a, ast.This()) for a in target.args)
    for kind in AGENT_KINDS:
        env.actor_accounts[kind] = make_agent(state, AgentSpec(
            kind=kind, target=target_addr, function=target.function, args=args,
            value=target.value, stipend=schedule.stipend,
            car_gas_guard=car_gas_guard, cah_iterations=cah_iterations))

    stake = scenario.balances.get(ACTOR, 0)
    for kind in ALL_ACTOR_KINDS:
        state.fund(env.actor_accounts[kind], stake)

    # One pass checks every setup entry and resolves it into its
    # transactions: one per actor kind if it mentions $ACTOR, else one. A
    # role that resolves to nothing is raised once the entries before it
    # replay, as it would be were the transactions built as replay reaches them.
    txs, runs = [], []  # the transactions, and (entry, actor kind) of each
    functions = {}      # (callee role, function) -> its FunctionDef, if known
    unresolved = None
    accounts, limit = env.actor_accounts, schedule.block_gas_limit
    for i, entry in enumerate(scenario.setup):
        key = entry.callee, entry.function
        if key not in functions:
            functions[key] = function_of(roles.get(entry.callee), entry.function)
        _check_args(entry, functions[key], roles, i)
        if unresolved is not None:
            continue
        templated = ACTOR in (entry.actor, entry.callee, *entry.args)
        for kind in ALL_ACTOR_KINDS if templated else (None,):
            try:
                txs.append(env.transaction(entry, accounts.get(kind), limit))
            except ScenarioError as exc:
                unresolved = exc
                break
            runs.append((entry, kind))
    failed = replay(state, txs, schedule)
    if failed is not None:
        index, status = failed
        entry, kind = runs[index]
        who = kind.value if kind is not None else entry.actor
        raise ScenarioError(f"setup transaction {entry.function or 'transfer'} failed "
                            f"for {who}: {status}")
    if unresolved is not None:
        raise unresolved

    return env
