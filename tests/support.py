"""Test-only helpers: the uncut reference sweep, whole-plan pair
construction, trace queries and a runner for a bare transaction."""

from dataclasses import replace

from mtsc import mr_engine
from mtsc.mr_engine import MR1_1, MR1_2, ActorInput, TestPair, check, mr2_pairs
from mtsc.vm import CallEntered, OpExecuted
from mtsc.vm import execute as vm_execute


def sweep_pairs(env, mr, kind, gc, plan):
    """Lazily yield one MR1.x sweep: source at gc, follow-ups along the plan."""
    addr = env.actor_accounts[kind]
    source = ActorInput(kind, addr, gc)
    for g in plan.limits:
        yield TestPair(mr, source, ActorInput(kind, addr, g))


def reference_sweep(env, mr, kind, gc, plan, violations):
    """`mr_engine._sweep` without invariance ranges: every pair in order,
    up to the first violation. Report differentials patch it in."""
    for pair in sweep_pairs(env, mr, kind, gc, plan):
        violation = check(mr_engine.run_pair(env, pair))
        if violation is not None:
            violations.append(violation)
            return


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
    return any(isinstance(ev, OpExecuted) and ev.op == "gasleft" for ev in trace)


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

