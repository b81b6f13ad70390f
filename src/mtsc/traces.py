"""Helpers for walking execution traces."""

from __future__ import annotations

from .vm import STILLBORN, CallEntered, CallExited, ExceptionSwallowed

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


def child_frame_gas(trace, forms=LOW_LEVEL_FORMS) -> int:
    """Gas consumed inside outermost call frames of the given forms."""
    total = 0
    open_calls = 0  # frames open in the counted frame, itself included
    for ev in trace:
        kind = type(ev)
        if kind is CallEntered:
            if open_calls:
                open_calls += 1
            elif ev.call_form in forms:
                open_calls = 1
        elif kind is CallExited and open_calls:
            open_calls -= 1
            if not open_calls:
                total += ev.gas_used
    return total


def trace_has_swallow(trace) -> bool:
    return any(isinstance(ev, ExceptionSwallowed) for ev in trace)
