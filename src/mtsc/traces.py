"""Helpers for walking execution traces."""

from __future__ import annotations

from .vm import CallEntered, CallExited, ExceptionSwallowed, OpExecuted, failure
from .vm.interp import STILLBORN

LOW_LEVEL_FORMS = ("lowcall", "send", "transfer")


def paired_calls(trace):
    """Match CallEntered/CallExited events; they nest like brackets."""
    stack, out = [], []
    for ev in trace:
        if isinstance(ev, CallEntered):
            stack.append(ev)
        elif isinstance(ev, CallExited):
            out.append((stack.pop(), ev))
    return out


def value_dispatches(trace, callee: str):
    """Value-bearing calls that actually dispatched into `callee`."""
    return [
        (enter, exited)
        for enter, exited in paired_calls(trace)
        if enter.callee == callee and enter.value > 0
        and exited.reason not in STILLBORN
    ]


def failed_value_dispatches(trace, callee: str):
    return [(e, x) for e, x in value_dispatches(trace, callee) if not x.success]


def calls_into(trace, callee: str, function: str):
    """CallEntered events naming a specific function on a callee."""
    return [ev for ev in trace
            if isinstance(ev, CallEntered)
            and ev.callee == callee and ev.function == function]


def target_call_status(outcome, target: str):
    """Status of an agent's own call into the target contract.

    The AgentCall wrapper swallows target failures (its call is
    low-level), so the harness reads the interaction's status off the
    first target-bound call at depth 0 instead of the transaction
    envelope. Depth-0 calls never nest, so among them exit order, the
    order of `paired_calls`, equals entry order.
    """
    if not outcome.ok:
        return outcome.status
    for enter, exited in paired_calls(outcome.trace):
        if enter.depth == 0 and enter.callee == target:
            return outcome.status if exited.success else failure(exited.reason)
    return outcome.status  # no target-bound call surfaced; keep the envelope


def child_frame_gas(trace, forms=LOW_LEVEL_FORMS) -> int:
    """Gas consumed inside outermost call frames of the given forms."""
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


def trace_has_gasleft(trace) -> bool:
    return any(isinstance(ev, OpExecuted) and ev.op == "gasleft" for ev in trace)


def trace_has_swallow(trace) -> bool:
    return any(isinstance(ev, ExceptionSwallowed) for ev in trace)
