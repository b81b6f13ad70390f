"""Test-only helpers: the uncut reference sweep, the estimator that runs
every probe, the plans as loops, whole-plan pair construction, trace
queries and their references, and a runner for a bare transaction."""

from dataclasses import replace

from mtsc import mr_engine
from mtsc.gas_oracle import IntrinsicGas, NeverSucceeds, default_initial_estimator
from mtsc.mr_engine import MR1_1, MR1_2, ActorInput, TestPair, mr2_pairs
from mtsc.traces import LOW_LEVEL_FORMS
from mtsc.vm import TAIL, CallEntered, CallExited, OpExecuted
from mtsc.vm import execute as vm_execute


def sweep_pairs(env, mr, kind, gc, plan):
    """Lazily yield one MR1.x sweep: source at gc, follow-ups along the plan."""
    addr = env.actor_accounts[kind]
    source = ActorInput(kind, addr, gc)
    for g in plan:
        yield TestPair(mr, source, ActorInput(kind, addr, g))


def reference_sweep(env, mr, kind, gc, plan):
    """`mr_engine.sweep` without invariance ranges: every pair of the plan,
    in order. Report differentials patch it in."""
    for pair in sweep_pairs(env, mr, kind, gc, plan):
        yield mr_engine.run_pair(env, pair)


def reference_estimate(schedule, runner, growth=1.5, first_limit=None):
    """`gas_oracle.estimate_intrinsic_gas` without invariance ranges: every
    probe reaches the runner. Estimator differentials compare against it."""
    if not growth > 1.0:  # NaN included
        raise ValueError("growth factor must exceed 1")
    trials = 0

    def probe(limit):
        nonlocal trials
        trials += 1
        return runner(limit)

    block = schedule.block_gas_limit
    if first_limit is None:
        first_limit = default_initial_estimator(runner, schedule)

    # growth phase: strictly increasing limits until the first success
    limit = max(1, min(int(first_limit), block))
    while True:
        out = probe(limit)
        if out.ok:
            candidate = out.gas_consumed
            break
        if limit >= block:
            raise NeverSucceeds(out.status)
        limit = block if limit * growth >= block else int(limit * growth) + 1

    # verification phase: the reported value must itself suffice
    last_good = limit
    converged = candidate == limit
    while not converged:
        out = probe(candidate)
        if out.ok:
            if out.gas_consumed == candidate:
                converged = True
            else:
                last_good = candidate
                candidate = out.gas_consumed
        else:
            # consumption understates the requirement (a reserve demands
            # headroom): bisect the success boundary in (candidate, last_good]
            lo, hi = candidate + 1, last_good
            while lo < hi:
                mid = (lo + hi) // 2
                if probe(mid).ok:
                    hi = mid
                else:
                    lo = mid + 1
            candidate = lo
            converged = True
    return IntrinsicGas(value=candidate, trials=trials, converged=converged)


def estimate_or_status(estimate, schedule, runner, growth, first_limit):
    """(value, trials, converged) of an estimate, or the status of the
    NeverSucceeds it raises."""
    try:
        gc = estimate(schedule, runner=runner, growth=growth, first_limit=first_limit)
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
            return vm_execute(state, replace(tx, gas_limit=limit), schedule)
        finally:
            state.restore(sid)
    return run

