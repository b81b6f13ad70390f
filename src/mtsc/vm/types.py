"""Transaction, outcome, and trace types shared across the VM and harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

UINT_MAX = 2**128 - 1  # values and balances are unsigned 128-bit


class FailReason(str, Enum):
    OUT_OF_GAS = "OutOfGas"
    REVERT = "Revert"
    REQUIRE_FAILED = "RequireFailed"
    ARITHMETIC = "ArithmeticError"
    BALANCE_INSUFFICIENT = "BalanceInsufficient"
    DEPTH_EXCEEDED = "DepthExceeded"


SUCCESS = "Success"


@dataclass(frozen=True)
class Status:
    """Execution status: Success, or Failure with a reason."""

    ok: bool
    reason: Optional[FailReason] = None

    def __str__(self):
        return SUCCESS if self.ok else f"Failure({self.reason.value})"


STATUS_SUCCESS = Status(True)


def failure(reason: FailReason) -> Status:
    return Status(False, reason)


@dataclass(frozen=True)
class Transaction:
    """Top-level message: actor A, gas limit G, callee and payload.

    function=None means a plain value transfer (dispatches the callee's
    fallback when the callee is a contract).
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
# events, the swallowing frame for ExceptionSwallowed).
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OpExecuted:
    op: str
    gas_cost: int
    depth: int


@dataclass(frozen=True)
class CallEntered:
    call_form: str            # lowcall | dcall | send | transfer | fallback
    callee: str
    function: Optional[str]   # None for plain value / fallback dispatch
    value: int
    gas_forwarded: int        # child budget including any stipend grant
    depth: int


@dataclass(frozen=True)
class CallExited:
    success: bool
    gas_used: int
    reason: Optional[FailReason]
    stipend_used: int
    depth: int


@dataclass(frozen=True)
class ExceptionSwallowed:
    reason: FailReason
    depth: int


TraceEvent = Union[OpExecuted, CallEntered, CallExited, ExceptionSwallowed]


@dataclass(frozen=True)
class Outcome:
    """Result of executing one transaction.

    gas_consumed is the whole-transaction figure (fees accrue on it even
    for failures); balance_delta is the actor's balance change, zero for
    any failure because state rolls back. limits = (lo, hi) is the run's
    invariance range: every gas limit in it gives the same status, balance
    delta, state changes and consumption, except that a run that consumed
    its whole limit may consume the whole of another limit in the range
    (see the interpreter's "Invariance ranges" notes). The default, an
    empty range, decides no limit. Not part of a report.
    """

    status: Status
    gas_consumed: int
    balance_delta: int
    trace: tuple = field(default_factory=tuple)
    limits: tuple = (0, -1)

    @property
    def ok(self) -> bool:
        return self.status.ok

