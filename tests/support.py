"""Test-only helpers: the uncut references (the sweep of every plan
limit, and the pipeline whose ranges answer only estimator probes), an
in-process command line, the plans as loops, whole-plan pair
construction, trace queries and their references, a runner for a bare
transaction, the copy and content hash of a world state, setup replay
as plain code, and a fresh interpreter's run of a snippet."""

import copy
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path
from unittest import mock

from mtsc import cli, mr_engine
from mtsc.gas_oracle import NeverSucceeds, estimate_intrinsic_gas
from mtsc.inputs import InputError
from mtsc.agents import AgentKind
from mtsc.mr_engine import ActorInput, TestPair
from mtsc.relations import MR1_1, MR1_2, RELATIONS
from mtsc.minisol import ast
from mtsc.scenario import ACTOR, ALL_ACTOR_KINDS, Environment
from mtsc.traces import LOW_LEVEL_FORMS
from mtsc.vm import TAIL, UINT_MAX, CallEntered, CallExited, OpExecuted, Transaction, WorldState
from mtsc.vm import execute as vm_execute


def sweep_pairs(env, mr, kind, gc, plan):
    """Lazily yield the pairs of one sweep: source at gc, follow-ups of the
    relation's follow-up kind, or else of `kind`, along the plan."""
    source = ActorInput(kind, env.actor_accounts[kind], gc)
    follow_kind = RELATIONS[mr].follow_kind or kind
    addr = env.actor_accounts[follow_kind]
    for g in plan:
        yield TestPair(mr, source, ActorInput(follow_kind, addr, g))


def reference_sweep(env, mr, kind, gc, plan):
    """`mr_engine.sweep` without invariance ranges: every pair of the plan,
    in order. Report differentials patch it in."""
    for pair in sweep_pairs(env, mr, kind, gc, plan):
        yield mr_engine.run_pair(env, pair.mr_id, pair.source, pair.follow_up)


def reference_run(env, kind, gas_limit, own=False):
    """`Environment.run` with a memo of exact inputs in place of its
    ranges: every distinct input reaches the VM, once, and every outcome
    is the input's own run. Its memo sits in the environment's own memo
    table under a key no actor kind has, so a copy (`fresh`) starts
    without it."""
    outcomes = env._kept.setdefault("reference", {})
    key = kind, gas_limit
    if key not in outcomes:
        env.state.snapshot()
        try:
            outcomes[key] = env.run_target(env.state, kind, gas_limit)
        finally:
            env.state.restore()
    return outcomes[key]


def estimator_ranges(runner):
    """`runner`, answering a limit inside the invariance range of a run it
    made with that run's outcome instead of running it: a failure's whole
    range, and a success's unless it consumed its whole limit."""
    kept = []  # (lo, hi, outcome) of the runs that answer their range

    def run(limit):
        for lo, hi, out in kept:
            if lo <= limit <= hi:
                return out
        out = runner(limit)
        if not out.ok or out.gas_consumed != limit:
            kept.append((*out.limits, out))
        return out
    return run


@contextmanager
def uncut():
    """The pipeline with ranges that answer estimator probes only: each
    estimate answers its probes from the ranges of the runs it made and
    forgets them when it returns, and `Environment.run` answers an input
    only from its own earlier run (`reference_run`). Every source and
    follow-up outcome is then the input's own run; reports and estimates
    must not change."""
    def runner_for(env, kind):
        return estimator_ranges(partial(reference_run, env, kind))

    with mock.patch.object(Environment, "run", reference_run), \
            mock.patch.object(Environment, "runner_for", runner_for):
        yield


def cli_outputs(*argv):
    """(exit code, stdout, stderr) of `mtsc` run with `argv` in this process."""
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def estimate_or_status(schedule, runner, growth, first_limit):
    """(value, trials) of an estimate, or the status of the
    NeverSucceeds it raises."""
    try:
        gc = estimate_intrinsic_gas(schedule, runner=runner, growth=growth,
                                    first_limit=first_limit)
    except NeverSucceeds as exc:
        return exc.status
    return gc.value, gc.trials


def loop_increasing(gc, count, block_gas_limit):
    """`allocate_increasing` as a loop: {2*gc, 3*gc, ...}, at most `count`
    limits, none above the block limit."""
    limits, k = [], 2
    while len(limits) < count and k * gc <= block_gas_limit:
        limits.append(k * gc)
        k += 1
    return tuple(limits)


def loop_reducing(gc, n):
    """`allocate_reducing` as a loop: from gc down in steps of gc // n (at
    least 1), every limit down to 0 that the steps reach."""
    step, limits, g = max(1, gc // n), [], gc
    while g - step >= 0:
        g -= step
        limits.append(g)
    return tuple(limits)


def mr2_pairs(env, mrs) -> list:
    """One pair per selected MR2.x relation: the EOA against the relation's
    agent kind, both at the block gas limit."""
    g = env.schedule.block_gas_limit
    return [pair for r in RELATIONS.values() if r.follow_kind is not None and r.mr_id in mrs
            for pair in sweep_pairs(env, r.mr_id, AgentKind.EOA, g, range(g, g + 1))]


def build_pairs(env, estimates: dict, plans: dict, mrs, mr1_actors) -> list:
    """Every pair of the selected relations, with each sweep built in full.

    estimates/plans map actor kinds to their IntrinsicGas and
    (increasing, reducing) plans; kinds without an estimate are skipped.
    """
    pairs = []
    for kind in mr1_actors:
        if kind in estimates:
            for mr, plan in zip((MR1_1, MR1_2), plans[kind]):
                if mr in mrs:
                    pairs.extend(sweep_pairs(env, mr, kind, estimates[kind].value,
                                             plan))
    return pairs + mr2_pairs(env, mrs)


def calls_into(trace, callee: str, function: str):
    """CallEntered events naming a specific function on a callee."""
    return [ev for ev in trace
            if isinstance(ev, CallEntered)
            and ev.callee == callee and ev.function == function]


def trace_has_gasleft(trace) -> bool:
    """Whether the run read `gasleft()`. A lean run keeps only its last
    op events, so this needs the full trace of an `ops=True` run."""
    return any(isinstance(ev, OpExecuted) and ev.op == "gasleft" for ev in trace)


def reference_child_frame_gas(trace, forms=LOW_LEVEL_FORMS) -> int:
    """`traces.child_frame_gas` as a stack of open frames, each asking
    whether any frame below it is counted."""
    total = 0
    stack = []  # per open frame: True if it is an outermost counted frame
    for ev in trace:
        if isinstance(ev, CallEntered):
            inside = any(stack)
            stack.append(ev.call_form in forms and not inside)
        elif isinstance(ev, CallExited):
            if stack.pop():
                total += ev.gas_used
    return total


def lean_trace(trace) -> tuple:
    """A full trace as a lean run keeps it: op events only among the last
    `TAIL` events."""
    cut = len(trace) - TAIL
    return tuple(ev for i, ev in enumerate(trace)
                 if i >= cut or type(ev) is not OpExecuted)


def assert_lean_matches_full(lean, full):
    """A lean run's outcome is the full run's with the lean trace."""
    assert (lean.status, lean.gas_consumed, lean.balance_delta, lean.limits) \
        == (full.status, full.gas_consumed, full.balance_delta, full.limits)
    assert lean.trace == lean_trace(full.trace)


def tx_runner(state, tx, schedule):
    """Estimator runner for a bare transaction: each run on a snapshot of
    `state`, restored afterwards."""
    def run(limit):
        state.snapshot()
        try:
            return vm_execute(state, tx._replace(gas_limit=limit), schedule)
        finally:
            state.restore()
    return run


def clone(state):
    """Independent copy of a world state with an empty journal."""
    return WorldState(accounts=copy.deepcopy(state.accounts), next_address=state.next_address)


def digest(state) -> str:
    """Canonical content hash of a world state: accounts and the address
    counter."""
    h = hashlib.sha256()
    h.update(f"next={state.next_address};".encode())
    for addr in sorted(state.accounts):
        acct = state.accounts[addr]
        kind, code_name = ("EOA", "") if acct.code is None else ("Contract", acct.code.name)
        h.update(f"{addr}|{acct.balance}|{kind}|{code_name}|".encode())
        for key in sorted(acct.storage, key=repr):
            h.update(f"{key!r}={acct.storage[key]!r};".encode())
    return h.hexdigest()


def reference_setup(env, setup):
    """Run the setup entries `setup` on `env`, built without them, as plain
    code: check every entry in order (its actor, its callee, then its
    arguments against the function it calls), then `execute` the entries
    one at a time, once per actor kind for an entry that names $ACTOR.
    Raises the InputError that `build_environment` raises for the same
    entries."""
    roles = env.roles

    def role(token):
        if token != ACTOR and token not in roles:
            raise InputError(f"unresolvable role {token!r}")

    for i, entry in enumerate(setup):
        name = f"setup[{i}]"
        role(entry.actor)
        role(entry.callee)
        callee = env.state.accounts.get(roles.get(entry.callee))
        code = callee.code if callee is not None else None
        fn = code.functions_by_name.get(entry.function) if code is not None else None
        if fn is None:
            if entry.function is None and entry.args:
                raise InputError(f"{name}: a call with no function takes no args")
            for arg in entry.args:
                if isinstance(arg, str):
                    role(arg)
            continue
        if len(entry.args) != len(fn.params):
            raise InputError(f"{name}: {entry.function} takes {len(fn.params)} args, "
                             f"got {len(entry.args)}")
        for param, arg in zip(fn.params, entry.args):
            if param.kind == ast.Kind.UINT:
                fits = isinstance(arg, int) and not isinstance(arg, bool) \
                    and 0 <= arg <= UINT_MAX
            elif param.kind == ast.Kind.BOOL:
                fits = isinstance(arg, bool)
            else:
                fits = arg == ACTOR or arg in roles
            if not fits:
                raise InputError(f"{name}: argument {param.name} of {entry.function} "
                                 f"must be {param.kind.value}, got {arg!r}")

    def resolved(token, actor):
        return actor if token == ACTOR else roles.get(token, token)

    for entry in setup:
        templated = ACTOR in (entry.actor, entry.callee) + tuple(entry.args)
        for kind in ALL_ACTOR_KINDS if templated else [None]:
            actor = env.actor_accounts.get(kind)
            tx = Transaction(resolved(entry.actor, actor), env.schedule.block_gas_limit,
                             resolved(entry.callee, actor), entry.function,
                             tuple(resolved(a, actor) for a in entry.args), entry.value)
            out = vm_execute(env.state, tx, env.schedule)
            if not out.ok:
                who = kind.value if kind is not None else entry.actor
                raise InputError(f"setup transaction {entry.function or 'transfer'} "
                                 f"failed for {who}: {out.status}")


def run_fresh(code: str, *args) -> dict:
    """Run `code` in a new interpreter that imports from `src/`; the JSON
    object it prints last."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])
