"""Helpers for walking execution traces."""

from __future__ import annotations

from .vm import CallEntered, CallExited
from .vm.interp import STILLBORN


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
