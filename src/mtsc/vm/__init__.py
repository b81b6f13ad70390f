"""Gas-metered mini-EVM: world state, schedules, and the interpreter."""

from .interp import MAX_CALL_DEPTH, TAIL, execute, replay
from .schedule import GasSchedule, ScheduleError, load_schedule
from .state import Account, UnknownSnapshot, WorldState, ZERO_ADDR, deploy
from .types import (
    UINT_MAX,
    CallEntered,
    CallExited,
    ExceptionSwallowed,
    FailReason,
    OpExecuted,
    Outcome,
    STATUS_SUCCESS,
    Status,
    Transaction,
    failure,
)

__all__ = [
    "Account", "CallEntered", "CallExited", "ExceptionSwallowed",
    "FailReason", "GasSchedule", "MAX_CALL_DEPTH", "OpExecuted", "Outcome",
    "STATUS_SUCCESS", "ScheduleError", "Status", "TAIL", "Transaction", "UINT_MAX",
    "UnknownSnapshot", "WorldState", "ZERO_ADDR", "deploy", "execute",
    "failure", "load_schedule", "replay",
]
