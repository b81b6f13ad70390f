"""Test-only helpers: the uncut references (the sweep of every plan
limit, and the pipeline whose ranges answer only estimator probes), an
in-process command line, the plans as loops, whole-plan pair
construction, trace queries and their references, a runner for a bare
transaction, and the copy and content hash of a world state."""

import copy
import hashlib
import io
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from functools import partial
from unittest import mock

from mtsc import cli, mr_engine
from mtsc.gas_oracle import NeverSucceeds, estimate_intrinsic_gas
from mtsc.agents import AgentKind
from mtsc.mr_engine import ActorInput, TestPair
from mtsc.relations import MR1_1, MR1_2, RELATIONS
from mtsc.scenario import Environment
from mtsc.traces import LOW_LEVEL_FORMS
from mtsc.vm import TAIL, CallEntered, CallExited, OpExecuted, WorldState
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
        yield mr_engine.run_pair(env, pair)


def reference_run(env, kind, gas_limit, own=False):
    """`Environment.run` with a memo of exact inputs in place of its
    ranges: every distinct input reaches the VM, once, and every outcome
    is the input's own run."""
    outcomes = vars(env).setdefault("reference_outcomes", {})
    key = kind, gas_limit
    if key not in outcomes:
        sid = env.state.snapshot()
        try:
            outcomes[key] = env.run_target(env.state, kind, gas_limit)
        finally:
            env.state.restore(sid)
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
    """(value, trials, converged) of an estimate, or the status of the
    NeverSucceeds it raises."""
    try:
        gc = estimate_intrinsic_gas(schedule, runner=runner, growth=growth,
                                    first_limit=first_limit)
    except NeverSucceeds as exc:
        return exc.status
    return gc.value, gc.trials, gc.converged


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
        sid = state.snapshot()
        try:
            return vm_execute(state, tx._replace(gas_limit=limit), schedule)
        finally:
            state.restore(sid)
    return run


def clone(state):
    """Independent copy of a world state with an empty journal."""
    return WorldState(accounts=copy.deepcopy(state.accounts),
                      fee_ledger=state.fee_ledger, next_address=state.next_address)


def digest(state) -> str:
    """Canonical content hash of a world state: accounts, fees, and the
    address counter."""
    h = hashlib.sha256()
    h.update(f"fees={state.fee_ledger};next={state.next_address};".encode())
    for addr in sorted(state.accounts):
        acct = state.accounts[addr]
        kind, code_name = ("EOA", "") if acct.code is None else ("Contract", acct.code.name)
        h.update(f"{addr}|{acct.balance}|{kind}|{code_name}|".encode())
        for key in sorted(acct.storage, key=repr):
            h.update(f"{key!r}={acct.storage[key]!r};".encode())
    return h.hexdigest()
