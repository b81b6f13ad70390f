"""Transaction, outcome, and trace types shared across the VM and harness."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from ..minisol.ast import UINT_MAX  # noqa: F401  re-exported for the VM


class FailReason(str, Enum):
    OUT_OF_GAS = "OutOfGas"
    REVERT = "Revert"
    REQUIRE_FAILED = "RequireFailed"
    ARITHMETIC = "ArithmeticError"
    BALANCE_INSUFFICIENT = "BalanceInsufficient"
    DEPTH_EXCEEDED = "DepthExceeded"


SUCCESS = "Success"


class Status(NamedTuple):
    """Execution status: Success, or Failure with a reason."""

    ok: bool
    reason: Optional[FailReason] = None

    def __str__(self):
        return SUCCESS if self.ok else f"Failure({self.reason.value})"


STATUS_SUCCESS = Status(True)


def failure(reason: FailReason) -> Status:
    return Status(False, reason)


class Transaction(NamedTuple):
    """Top-level message: actor A, gas limit G, callee and payload.

    function=None means a plain value transfer (dispatches the callee's
    fallback when the callee is a contract). A named tuple, like the trace
    events below: setup replay builds one per transaction.
    """

    actor: str
    gas_limit: int
    callee: str
    function: Optional[str] = None
    args: tuple = ()
    value: int = 0


# --------------------------------------------------------------------------
# Trace events. CallEntered/CallExited nest like brackets; depth is the
# frame in which the event was recorded (the caller's frame for call
# events, the swallowing frame for ExceptionSwallowed). Events are named
# tuples: immutable, hashable, with a dataclass-style repr, and equal to
# a plain tuple of their fields (each event kind has its own field count,
# so two kinds never compare equal). The interpreter builds them with
# `tuple.__new__(Kind, fields)`, which skips the Python-level `__new__`.
# --------------------------------------------------------------------------


class OpExecuted(NamedTuple):
    op: str
    gas_cost: int
    depth: int


class CallEntered(NamedTuple):
    call_form: str            # one of ast.CALL_FORMS: lowcall | dcall | send | transfer
    callee: str
    function: Optional[str]   # None for plain value / fallback dispatch
    value: int
    gas_forwarded: int        # child budget including any stipend grant
    depth: int


class CallExited(NamedTuple):
    success: bool
    gas_used: int
    reason: Optional[FailReason]
    stipend_used: int
    depth: int


class ExceptionSwallowed(NamedTuple):
    reason: FailReason
    depth: int


class Outcome(NamedTuple):
    """Result of executing one transaction.

    gas_consumed is the whole-transaction figure, a failure's included, and
    no balance pays it; balance_delta is the actor's balance change, zero for
    any failure because state rolls back. limits = (lo, hi) is the run's
    invariance range: every gas limit in it gives the same status, balance
    delta, state changes and consumption, except that a run that consumed
    its whole limit may consume the whole of another limit in the range
    (see the interpreter's "Invariance ranges" notes). The default, an
    empty range, decides no limit. Not part of a report.

    trace holds the run's events in order. A lean run's trace (the
    pipeline's target runs) keeps op events only among its last `TAIL`
    events, which a report's excerpt shows; every call, exit and swallow
    event is there (see the interpreter's "Traces" notes).
    """

    status: Status
    gas_consumed: int
    balance_delta: int
    trace: tuple = ()
    limits: tuple = (0, -1)

    @property
    def ok(self) -> bool:
        return self.status.ok

