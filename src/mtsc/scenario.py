"""Scenario files (`scenario-v1`) and the execution environment they set up.

A scenario names the contract sources, the starting balances per role,
the setup transactions that give every interacting account its position,
and the target transaction under test. `$ACTOR` is the placeholder for
the interacting account: the plain EOA in source runs, the agent contract
in follow-up runs. Setup entries mentioning `$ACTOR` are instantiated
once per account kind; all instantiations land in one shared world state,
the common context of every run. `Environment.run` executes one (actor
kind, gas limit) input in that context, restores it, and keeps the run
with its invariance range and, below a success, its out-of-gas band,
which answer every later input inside them: estimator probes and both
sides of every test pair alike.

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
parameters, and every setup entry is checked before any of them runs.
Balances and values, like every amount the VM holds, lie in
[0, UINT_MAX], and so does the balances' total, $ACTOR's once per kind.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Optional

from .agents import (
    AGENT_KINDS,
    DEFAULT_CAH_ITERATIONS,
    DEFAULT_CAR_GAS_GUARD,
    AgentKind,
    AgentSpec,
    actor_kinds,
    agent_interact,
    make_agent,
)
from .inputs import InputError, read_json, read_text
from .minisol import ParseError, ast, parse, validate
from .minisol.record import Record
from .relations import RELATIONS, relation_ids
from .vm import (UINT_MAX, FailReason, GasSchedule, Outcome, Transaction, WorldState, deploy,
                 execute, failure, replay)

SCHEMA_V1 = "scenario-v1"
ACTOR = "$ACTOR"
DEFAULT_MR1_ACTORS = (AgentKind.EOA, AgentKind.CAH, AgentKind.CAR)
ALL_ACTOR_KINDS = (AgentKind.EOA,) + AGENT_KINDS
UINT, BOOL = ast.Kind.UINT, ast.Kind.BOOL  # an Enum's attribute lookup is slow
OUT_OF_GAS = failure(FailReason.OUT_OF_GAS)


class TxTemplate(NamedTuple):
    actor: str               # role, or $ACTOR (always, for the target)
    callee: str
    function: Optional[str]  # None = plain value transfer
    args: tuple = ()
    value: int = 0


class Scenario(NamedTuple):
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
    if type(obj) is not dict:
        raise InputError(f"{path}: {_entry(index)} must be an object")
    if not TEMPLATE_KEYS.issuperset(obj):  # its keys, with no view built
        raise InputError(f"{path}: {_entry(index)} has unknown keys "
                         f"{sorted(set(obj) - TEMPLATE_KEYS)}")
    actor = ACTOR if index is None else obj.get("actor")
    if type(actor) is not str:
        raise InputError(f"{path}: {_entry(index)} needs an actor role")
    callee = obj.get("callee")
    if type(callee) is not str:
        raise InputError(f"{path}: {_entry(index)} needs a callee role")
    function = obj.get("function")
    if not (function is None or type(function) is str):
        raise InputError(f"{path}: {_entry(index)}: function must be a name or null")
    args = obj.get("args", [])
    if type(args) is not list:
        raise InputError(f"{path}: {_entry(index)}: args must be a list")
    for a in args:
        if not isinstance(a, (int, str)):  # a bool is an int
            raise InputError(f"{path}: {_entry(index)}: bad argument {a!r}")
    value = obj.get("value", 0)
    if not (type(value) is int and 0 <= value <= UINT_MAX):
        raise InputError(f"{path}: {_entry(index)}: value must be an integer "
                         "in [0, 2**128 - 1]")
    return tuple.__new__(TxTemplate, (actor, callee, function, tuple(args), value))


def scenario_id(path) -> str:
    """The id of the scenario file at `path`: its name without
    `.scenario.json`, or else without `.json`."""
    name = Path(path).name
    for suffix in (".scenario.json", ".json"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def load_scenario(path) -> Scenario:
    path = Path(path)
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise InputError(f"{path}: scenario must be a JSON object")
    if not raw.keys() <= SCENARIO_KEYS:
        raise InputError(f"{path}: unknown keys {sorted(set(raw) - SCENARIO_KEYS)}")
    if raw.get("schema") != SCHEMA_V1:
        raise InputError(f"{path}: schema must be {SCHEMA_V1!r}")
    sources = raw.get("sources")
    if not (isinstance(sources, list) and sources
            and all(isinstance(s, str) for s in sources)):
        raise InputError(f"{path}: sources must be a non-empty list of paths")
    balances = raw.get("balances")
    if not isinstance(balances, dict):
        raise InputError(f"{path}: balances must be an object")
    # every role is a JSON key, so a string; value only moves, so none outgrows the total
    total = 0
    for role, amount in balances.items():
        if not (type(amount) is int and 0 <= amount <= UINT_MAX):
            raise InputError(f"{path}: balance of {role!r} must be an integer "
                             "in [0, 2**128 - 1]")
        total += amount * len(ALL_ACTOR_KINDS) if role == ACTOR else amount
    if total > UINT_MAX:
        raise InputError(f"{path}: balances total {total}, more than 2**128 - 1")
    for key in ("setup", "mrs", "mr1_actors"):
        if not isinstance(raw.get(key, []), list):
            raise InputError(f"{path}: {key} must be a list")
    setup = tuple([_parse_template(entry, path, i)
                   for i, entry in enumerate(raw.get("setup", ()))])
    target = _parse_template(raw.get("target"), path, None)
    try:
        mrs = relation_ids(raw.get("mrs", RELATIONS))
        kinds = actor_kinds(raw.get("mr1_actors", DEFAULT_MR1_ACTORS))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")

    return Scenario(scenario_id=scenario_id(path), base_dir=path.parent,
                    sources=tuple(sources), balances=dict(balances), setup=setup,
                    target=target, mrs=mrs, mr1_actors=kinds)


# --------------------------------------------------------------------------
# Environment: one shared world state holding every interacting account
# --------------------------------------------------------------------------


class Environment(Record):
    """A deployed, set-up scenario; `state` is the shared context, and
    `run` the pipeline's one way to run a target input in it."""

    __slots__ = _fields = ("state", "schedule", "scenario", "roles", "actor_accounts",
                           "driver", "_kept")

    def __init__(self, state: WorldState, schedule: GasSchedule, scenario: Scenario,
                 roles: dict, actor_accounts: dict, driver: str):
        self.state = state
        self.schedule = schedule
        self.scenario = scenario
        self.roles = roles
        self.actor_accounts = actor_accounts  # AgentKind -> address
        self.driver = driver
        # AgentKind -> [(floor, lo, hi, gas limit, Outcome)] of every run in the
        # context, floor = lo when the run has no band
        self._kept = {}

    def fresh(self) -> Environment:
        """The same context, its state shared, with no run kept."""
        return Environment(self.state, self.schedule, self.scenario, self.roles,
                           self.actor_accounts, self.driver)

    def transaction(self, entry: TxTemplate, actor, gas_limit: int) -> Transaction:
        """Checked `entry` at `gas_limit`, with `$ACTOR` standing for `actor`:
        a role becomes its address, and a uint or bool stays as it is."""
        roles = self.roles  # no role is $ACTOR, and no address is empty
        sender, callee, function, tokens, value = entry
        args = []  # a loop, not a comprehension: no closure cells per transaction
        for t in tokens:
            args.append(roles.get(t) or (actor if t == ACTOR else t))
        return tuple.__new__(Transaction, (
            roles.get(sender) or actor, gas_limit,
            roles.get(callee) or actor, function, tuple(args), value))

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
        a success that consumed the whole of it, and the band below a
        success that left gas over (`Outcome.floor`). An input inside a
        kept range takes that run's outcome, trace and range included,
        without running. An input inside a band gets the outcome it has
        there, out of gas at its whole limit with no balance moved, with no
        trace and the band as its range: no relation or estimator reads the
        trace of a failure. `own=True` asks for the input's own run
        instead, made now unless it is kept, for what a report shows."""
        kept = self._kept.setdefault(kind, [])
        for floor, lo, hi, limit, outcome in kept:
            if own:
                if limit == gas_limit:
                    return outcome
            elif floor <= gas_limit <= hi:
                if gas_limit >= lo:
                    return outcome
                return Outcome(OUT_OF_GAS, gas_limit, 0, (), (floor, lo - 1))
        self.state.snapshot()
        try:
            outcome = self.run_target(self.state, kind, gas_limit)
        finally:
            self.state.restore()
        if outcome.ok and outcome.gas_consumed == gas_limit:
            kept.append((gas_limit, gas_limit, gas_limit, gas_limit, outcome))
        else:
            lo, hi = outcome.limits
            floor = lo if outcome.floor is None else outcome.floor
            kept.append((floor, lo, hi, gas_limit, outcome))
        return outcome

    def runner_for(self, kind: AgentKind):
        """The estimator's runner for one actor kind: gas limit -> Outcome."""
        return lambda limit: self.run(kind, limit)


def _load_contracts(scenario: Scenario) -> dict:
    """Contract name -> ContractDef, in source order; a contract's role is its name."""
    contracts = {}
    for rel in scenario.sources:
        src_path = scenario.base_dir / rel
        text = read_text(src_path, "source ")
        try:
            unit = parse(text, str(src_path))
        except ParseError as exc:
            raise InputError(f"{src_path}: {exc}") from exc
        errors = validate(unit)
        if errors:
            listing = "; ".join(str(e) for e in errors)
            raise InputError(f"{src_path}: semantic errors: {listing}")
        for contract in unit.contracts:
            if contract.name in contracts:
                raise InputError(f"contract {contract.name!r} defined twice")
            contracts[contract.name] = contract
    return contracts


def _check_args(entry: TxTemplate, fn: Optional[ast.FunctionDef], roles: dict,
                index: Optional[int] = None):
    """Raise InputError unless the setup entry at `index` (the target when
    None) resolves: its actor, then its callee, is a role or $ACTOR, and
    its arguments fit the parameters of `fn`, the function it calls: a
    uint is a non-bool int in [0, UINT_MAX], a bool a bool, an addr a role
    or $ACTOR. When `fn` is unknown, as for every plain transfer and
    fallback dispatch, each string argument is a role or $ACTOR."""
    sender, callee, function, args, _ = entry
    if sender not in roles and sender != ACTOR:
        raise InputError(f"unresolvable role {sender!r}")
    if callee not in roles and callee != ACTOR:
        raise InputError(f"unresolvable role {callee!r}")
    if fn is None:
        if function is None and args:
            raise InputError(f"{_entry(index)}: a call with no function takes no args")
        for arg in args:
            if type(arg) is str and arg not in roles and arg != ACTOR:
                raise InputError(f"unresolvable role {arg!r}")
        return
    params = fn.params
    if len(args) != len(params):
        raise InputError(f"{_entry(index)}: {function} takes {len(params)} "
                         f"args, got {len(args)}")
    for i in range(len(params)):  # zip would cost more than the checks
        param, arg = params[i], args[i]
        kind = param.kind
        if kind is UINT:
            fits = type(arg) is int and 0 <= arg <= UINT_MAX
        elif kind is BOOL:
            fits = type(arg) is bool
        else:
            fits = arg == ACTOR or arg in roles
        if not fits:
            raise InputError(f"{_entry(index)}: argument {param.name} of "
                             f"{function} must be {kind.value}, got {arg!r}")


def build_environment(scenario: Scenario, schedule: GasSchedule,
                      car_gas_guard: int = DEFAULT_CAR_GAS_GUARD,
                      cah_iterations: int = DEFAULT_CAH_ITERATIONS) -> Environment:
    """Deploy contracts, agents, and EOAs; fund them; replay the setup.

    Every actor kind is positioned in the same world state so each test
    pair observes an identical context regardless of which accounts it
    exercises. The returned environment's state is that shared context.
    """
    code = _load_contracts(scenario)  # contract role -> ContractDef
    state = WorldState()
    driver = state.create_eoa(0)
    eoa_actor = state.create_eoa(0)

    roles: dict[str, str] = {}
    for name, contract in code.items():
        roles[name] = deploy(state, contract, scenario.balances.get(name, 0))
    for role, amount in scenario.balances.items():
        if role == ACTOR or role in roles:
            continue
        roles[role] = state.create_eoa(amount)

    def function_of(role: str, name: Optional[str]) -> Optional[ast.FunctionDef]:
        contract = code.get(role)  # None for an EOA role or $ACTOR
        return contract.functions_by_name.get(name) if contract is not None else None

    target = scenario.target
    if target.callee not in roles:
        raise InputError(f"target callee {target.callee!r} is not a known role")
    target_addr = roles[target.callee]
    target_fn = function_of(target.callee, target.function)
    if target.function is not None and target_fn is None:
        raise InputError(
            f"target function {target.function!r} not found on {target.callee}")
    _check_args(target, target_fn, roles)

    env = Environment(state=state, schedule=schedule, scenario=scenario,
                      roles=roles, actor_accounts={AgentKind.EOA: eoa_actor}, driver=driver)

    # every agent makes the target call, naming itself `this` where it is $ACTOR
    args = env.transaction(target, ast.This(), 0).args
    for kind in AGENT_KINDS:
        env.actor_accounts[kind] = make_agent(state, AgentSpec(
            kind=kind, target=target_addr, function=target.function, args=args,
            value=target.value, stipend=schedule.stipend,
            car_gas_guard=car_gas_guard, cah_iterations=cah_iterations))

    stake = scenario.balances.get(ACTOR, 0)
    for kind in ALL_ACTOR_KINDS:
        state.fund(env.actor_accounts[kind], stake)

    # One pass checks every setup entry, so the first error in entry order
    # is raised before anything replays, and resolves it into its
    # transactions: one per actor kind if it mentions $ACTOR, else one.
    txs = []
    accounts, limit, transaction = env.actor_accounts, schedule.block_gas_limit, env.transaction
    for i, entry in enumerate(scenario.setup):
        sender, callee, function, args, _ = entry
        _check_args(entry, function_of(callee, function), roles, i)
        if sender == ACTOR or callee == ACTOR or ACTOR in args:
            for kind in ALL_ACTOR_KINDS:
                txs.append(transaction(entry, accounts[kind], limit))
        else:
            txs.append(transaction(entry, None, limit))
    failed = replay(state, txs, schedule)
    if failed is not None:
        tx, status = txs[failed[0]], failed[1]
        # an actor kind's account enters a transaction only through $ACTOR
        who = [k.value for k, a in accounts.items() if a in (tx.actor, tx.callee, *tx.args)]
        who += [role for role, addr in roles.items() if addr == tx.actor]
        raise InputError(f"setup transaction {tx.function or 'transfer'} failed "
                         f"for {who[0]}: {status}")
    return env
