"""Deterministic gas-metered execution of MiniSol transactions.

Gas model
---------
Every charge records an op event, which a full run's trace keeps as an
OpExecuted event (lean runs and `replay` keep fewer; see Traces). When a
charge exceeds the frame's remaining gas the shortfall is recorded as a
partial charge, the frame drops to zero, and the frame fails OutOfGas. A
frame's consumption is therefore its budget minus what is left when it
exits, and a frame that runs out consumes its whole budget.

Call boundaries
---------------
Every call is one `ast.Call` node, and its `form` decides how it
forwards gas and fails. The caller pays `call_base` (plus the
value-transfer surcharge when value moves). Forwarding rules:

* `lowcall` / `dcall` without an explicit gas clause forward everything
  the caller has left;
* `lowcall ... gas g` reserves exactly g — if the caller cannot produce
  g the caller itself runs out of gas (pre-EIP-150 behaviour);
* `send` / `transfer` (`ast.STIPEND_ONLY`) forward nothing of the
  caller's pool.

A call that moves value grants the callee a 2300-gas stipend carved out
of the surcharge. The stipend is use-it-or-lose-it: the child's unused
forwarded gas returns to the caller, unused stipend does not. This keeps
a transaction's total consumption independent of its gas limit for
gas-rigid code, which the intrinsic-gas estimator relies on.

Failure semantics per call form: `lowcall`/`send` (`ast.SWALLOWING`)
swallow a child failure (the expression yields false and an
ExceptionSwallowed event is traced); `dcall`/`transfer` re-raise it in
the caller, unwinding to the nearest swallowing boundary. Any failure
rolls the child's state changes back.

Rollback
--------
The interpreter never mutates accounts itself: value transfers and
storage writes go through the world state's undo journal (see
`state.py`). Each call boundary takes a checkpoint before moving value
and reverts to it when the child fails; each transaction does the same
around its dispatch and commits when it returns. Snapshots taken by the
harness use the same journal, so world-state rollback is one mechanism.

Top level: a Failure outcome leaves the world state untouched, the actor
balance delta is zero, and OutOfGas consumes the full gas limit. Gas is
reported in the outcome and never charged to a balance.

Traces
------
A run records every call, exit and swallow event. A *lean* run,
`execute(..., ops=False)` as the pipeline's target runs are, keeps op
events only among the last `TAIL` events of its trace: as plain
`(op, cost, depth)` tuples in a bounded deque that also takes every
call event, turned into OpExecuted events when the run ends. Its trace
is the full trace with the op events outside that tail dropped, so the
call-event readers and the report's excerpt (the last `TAIL` events)
see what a full run gives them.

`execute` runs one transaction and returns its `Outcome`. `replay` runs
a sequence, as scenario setup does, through the same transaction core:
one run object whose `_Run.transact` starts each transaction afresh. It
keeps no op events, builds no outcomes, and reports only the first
transaction that fails. Trace events are built with `tuple.__new__`.

Calls nest up to `MAX_CALL_DEPTH` deep, and each container a waiting frame
holds brings the cyclic GC's next pass nearer: frames run statements by index,
not through an iterator, and `eval` has no comprehension (closure cells).
Each call builds one `_Frame`, a slotted record (`minisol.record`) with
its `__init__` written out: every field positional, `peak` starting at 0.

Invariance ranges
-----------------
A frame is *elastic* while its gas moves one for one with the
transaction's gas limit G: the top frame, and every child of a
`lowcall`/`dcall` without a gas clause made from an elastic frame.
Children of `send`/`transfer` and of `gas g` calls get fixed budgets and
are never elastic. A frame stops being elastic when it *runs dry*: when
it cannot pay a charge or produce a reserve, or when a forward-all child
runs dry and so hands no gas back.

Along one path every gas-dependent decision of an elastic frame is a
bound on G, and the run reports the range they leave as
`Outcome.limits`:

* a charge or `gas g` reserve that succeeds bounds G from below. Frames
  fold these bounds into their *need*, the least budget at which they
  repeat their path, at call exits;
* a frame or forward-all child that runs dry bounds G from above: a
  limit higher by the shortfall pays what it could not;
* `gasleft()` compared directly with a literal bounds G between the
  *cuts* around the gas it reads, the gas values at which the comparison
  changes its result (`GAS_CUTS`); any other use pins G to the limit.

Every limit in the range follows the run's path, so it keeps the run's
status, balance delta, state changes and consumption, which is the
limit itself when the top frame ran dry.

A run that reports out of gas and consumed its whole limit keeps that
outcome below its path as well, down to the highest lower bound that
can *turn* the path instead of failing it: a `gasleft()` comparison that
holds from below, or a swallowed forward-all child that succeeded while
needing more than its grant (lower down it fails, and its caller goes on
with false). Below the path some elastic frame runs short and fails out
of gas, and every frame above it is left dry. A dry frame cannot read
`gasleft()` or make a call, as both cost gas, so nothing turns, and the
failure reaches the reported status. Calls always cost gas (`GasSchedule`
rejects a zero `call_base`); under a schedule that makes `gasleft()`
free, the range keeps to the path.

With `execute(..., reports=address)` the run reports what an agent
wrapper, the transaction's callee, experiences: the status of the top
frame's first call into that address, which the range describes, and
the callee's balance delta. Below the path the top frame itself may
then run short before its call; it fails out of gas, which is the
status reported, but its own writes roll back.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import Optional

from ..minisol import ast
from ..minisol.parser import MAX_NESTING
from ..minisol.record import Record
from .schedule import GasSchedule
from .state import ZEROS, Account, WorldState
from .types import (
    UINT_MAX,
    CallEntered,
    CallExited,
    ExceptionSwallowed,
    FailReason,
    OpExecuted,
    Outcome,
    STATUS_SUCCESS,
    Transaction,
    failure,
)

MAX_CALL_DEPTH = 128  # frames 0..127; entering deeper fails DepthExceeded
TAIL = 12  # trailing events of a lean run's trace that keep their op events

# Offsets from a literal c of the cuts of `gasleft() OP c`: gas below a cut
# and gas at or above it give different results. `c OP gasleft()` has
# the cuts of its mirror image.
GAS_CUTS = {">": (1,), "<=": (1,), ">=": (0,), "<": (0,), "==": (0, 1), "!=": (0, 1)}
MIRROR = {">": "<", "<": ">", ">=": "<=", "<=": ">=", "==": "==", "!=": "!="}

# Python frames the interpreter may stack, which `execute` and `replay`
# add to the recursion limit while they run. Per MiniSol call frame: per
# nesting level the parser allows, which is a block (exec_stmt), a binary
# operator (eval, eval_binary), a `!` or a primary expression (eval), at
# most two frames, and a fixed tail for the statement and the call itself.
# At the limit the deepest shape, a chain of `&&` around a self-call, takes
# 126 frames per call (nested blocks take 67), well inside the 12 per
# level and 32 for the tail allowed here.
RECURSION_BUDGET = MAX_CALL_DEPTH * (12 * MAX_NESTING + 32)

# call failures that never dispatched the callee
STILLBORN = (FailReason.DEPTH_EXCEEDED, FailReason.BALANCE_INSUFFICIENT)

new = tuple.__new__  # builds a trace event without its Python-level __new__


class _FrameFail(Exception):
    """A frame failed; `args[0]` is the FailReason."""


class _ReturnSignal(Exception):
    pass


class _Frame(Record):
    __slots__ = _fields = ("account", "msg_sender", "msg_value", "depth", "gas", "budget",
                           "env", "elastic", "peak")

    def __init__(self, account: Account, msg_sender: str, msg_value: int, depth: int,
                 gas: int, budget: int, env: dict, elastic: bool):
        self.account = account
        self.msg_sender = msg_sender
        self.msg_value = msg_value
        self.depth = depth
        self.gas = gas
        self.budget = budget
        self.env = env
        self.elastic = elastic  # gas moves one for one with the gas limit
        self.peak = 0           # need beyond consumption: reserves, children


class _Run:
    """Runs transactions on one state, one at a time; `transact` starts
    each afresh. Of the current one, `trace` takes every call, exit and
    swallow event; `tail` takes every event, op events as plain tuples,
    and holds the last `keep` of them (all for None, none for 0)."""

    def __init__(self, state: WorldState, schedule: GasSchedule,
                 reports: Optional[str], keep: Optional[int] = None):
        self.state = state
        self.sched = schedule
        self.tail = deque(maxlen=keep)
        self.reports = reports

    def events(self) -> tuple:
        """The trace: the call events with the tail spliced in after those
        it does not hold, its ops as OpExecuted events."""
        tail, trace = self.tail, self.trace
        held = sum(type(ev) is not tuple for ev in tail)
        events = trace[:len(trace) - held]
        events.extend(new(OpExecuted, ev) if type(ev) is tuple else ev for ev in tail)
        return tuple(events)

    # -- gas ---------------------------------------------------------------

    def charge(self, frame: _Frame, op: str, cost: int):
        if cost > frame.gas:
            self.tail.append((op, frame.gas, frame.depth))
            self.run_dry(frame, cost - frame.gas)
        frame.gas -= cost
        self.tail.append((op, cost, frame.depth))

    def run_dry(self, frame: _Frame, short: int):
        """The frame is `short` gas short of a charge or reserve: it fails
        with no gas left, and a limit higher by `short` would pay."""
        if frame.elastic:
            self.hi = min(self.hi, self.limit + short - 1)
            frame.peak = max(frame.peak, frame.budget - frame.gas)
            frame.elastic = False
        frame.gas = 0
        raise _FrameFail(FailReason.OUT_OF_GAS)

    def read_gas(self, frame: _Frame, c: int = 0, offsets=()) -> int:
        """`gasleft()`, feeding a comparison with the literal `c` whose cuts
        lie at these offsets from it, if any."""
        self.charge(frame, "gasleft", self.sched.gasleft)
        gas = frame.gas
        if frame.elastic:
            # the comparison keeps its result while the gas stays between
            # the cuts around it; any other use needs this exact gas
            if not offsets:
                self.hi = self.turn = self.limit
            for d in offsets:
                cut = c + d
                if cut <= gas:
                    self.turn = max(self.turn, self.limit - gas + cut)
                else:
                    self.hi = min(self.hi, self.limit + cut - 1 - gas)
        return gas

    # -- expressions ---------------------------------------------------------

    def eval(self, frame: _Frame, e):
        # node types in the order the corpus evaluates them most
        t = type(e)
        if t is ast.Var:
            name = e.name
            if name in frame.env:
                return frame.env[name]
            default = frame.account.code.defaults[name]
            self.charge(frame, "sload", self.sched.sload)
            return frame.account.storage.get(name, default)
        if t is ast.Call:
            target = self.eval(frame, e.target)
            args = [] if e.args else ()  # see Traces on what a frame holds
            for a in e.args:
                args.append(self.eval(frame, a))
            value = self.eval(frame, e.value) if e.value is not None else 0
            gas = self.eval(frame, e.gas) if e.gas is not None else None
            return self.call(frame, e.form, target, e.function, args, value, gas)
        if t is ast.MsgSender:
            return frame.msg_sender
        if t is ast.IntLit or t is ast.AddrLit or t is ast.BoolLit:
            return e.value
        if t is ast.Binary:
            return self.eval_binary(frame, e)
        if t is ast.Not:
            self.charge(frame, "logic", self.sched.logic)
            return not self.eval(frame, e.operand)
        if t is ast.MapIndex:
            key = self.eval(frame, e.key)
            self.charge(frame, "sload", self.sched.sload)
            return frame.account.storage.get((e.name, key), 0)
        if t is ast.MsgValue:
            return frame.msg_value
        if t is ast.This:
            return frame.account.address
        if t is ast.GasLeft:
            return self.read_gas(frame)
        if t is ast.BalanceOf:
            target = self.eval(frame, e.target)
            self.charge(frame, "balance_of", self.sched.balance_of)
            return self.state.balance_of(target)
        raise TypeError(f"unknown expression {e!r}")

    def eval_binary(self, frame: _Frame, e: ast.Binary):
        op = e.op
        if op in ("&&", "||"):
            self.charge(frame, "logic", self.sched.logic)
            left = self.eval(frame, e.left)
            if op == "&&":
                return self.eval(frame, e.right) if left else False
            return True if left else self.eval(frame, e.right)
        if op in ("+", "-", "*"):
            self.charge(frame, "arith", self.sched.arith)
            left = self.eval(frame, e.left)
            right = self.eval(frame, e.right)
            return self.arith(op, left, right)
        self.charge(frame, "compare", self.sched.compare)
        left, right = e.left, e.right
        if type(left) is ast.GasLeft and type(right) is ast.IntLit:
            c = right.value
            left, right = self.read_gas(frame, c, GAS_CUTS[op]), c
        elif type(right) is ast.GasLeft and type(left) is ast.IntLit:
            c = left.value
            left, right = c, self.read_gas(frame, c, GAS_CUTS[MIRROR[op]])
        else:
            left = self.eval(frame, left)
            right = self.eval(frame, right)
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        raise TypeError(f"unknown operator {op!r}")

    @staticmethod
    def arith(op: str, left: int, right: int) -> int:
        if op == "+":
            out = left + right
        elif op == "-":
            out = left - right
        else:
            out = left * right
        if out < 0 or out > UINT_MAX:
            raise _FrameFail(FailReason.ARITHMETIC)
        return out

    # -- statements ----------------------------------------------------------

    def exec_stmt(self, frame: _Frame, s):
        # statement types in the order the corpus runs them most
        t = type(s)
        if t is ast.Assign:
            self.exec_assign(frame, s)
            return
        if t is ast.ExprStmt:
            self.eval(frame, s.expr)
            return
        if t is ast.If:
            block = s.then if self.eval(frame, s.condition) else s.otherwise
            for i in range(len(block)):
                self.exec_stmt(frame, block[i])
            return
        if t is ast.Require:
            self.charge(frame, "require", self.sched.require)
            if not self.eval(frame, s.condition):
                raise _FrameFail(FailReason.REQUIRE_FAILED)
            return
        if t is ast.Let:
            self.charge(frame, "local", self.sched.arith)
            frame.env[s.name] = self.eval(frame, s.value)
            return
        if t is ast.Return:
            if s.value is not None:
                self.eval(frame, s.value)  # evaluated for effects, discarded
            raise _ReturnSignal()
        if t is ast.Emit:
            # events are cost-only placeholders; arguments are not evaluated
            self.charge(frame, "emit", self.sched.emit)
            return
        if t is ast.Revert:
            self.charge(frame, "revert", self.sched.revert)
            raise _FrameFail(FailReason.REVERT)
        raise TypeError(f"unknown statement {s!r}")

    def exec_assign(self, frame: _Frame, s: ast.Assign):
        target = s.target
        if type(target) is ast.MapIndex:
            key = (target.name, self.eval(frame, target.key))
            default = 0
        elif target.name in frame.env:
            self.charge(frame, "local", self.sched.arith)
            value = self.eval(frame, s.value)
            if s.op != "=":
                self.charge(frame, "arith", self.sched.arith)
                value = self.arith(s.op[0], frame.env[target.name], value)
            frame.env[target.name] = value
            return
        else:
            key = target.name
            default = frame.account.code.defaults[key]
        value = self.eval(frame, s.value)
        acct = frame.account
        old = acct.storage.get(key, default)
        if s.op != "=":
            self.charge(frame, "sload", self.sched.sload)
            self.charge(frame, "arith", self.sched.arith)
            value = self.arith(s.op[0], old, value)
        if old in ZEROS and value not in ZEROS:
            self.charge(frame, "sstore_set", self.sched.sstore_set)
        else:
            self.charge(frame, "sstore_reset", self.sched.sstore_reset)
        self.state.store(acct, key, value)

    # -- call boundary ---------------------------------------------------------

    def call(self, caller: _Frame, form: str, target: str,
             function: Optional[str], args: list, value: int,
             explicit_gas: Optional[int]) -> bool:
        sched = self.sched
        self.charge(caller, "call_base", sched.call_base)
        if value > 0:
            self.charge(caller, "value_surcharge", sched.value_transfer_surcharge)
            grant = sched.stipend
        else:
            grant = 0

        elastic = False
        if form in ast.STIPEND_ONLY:
            fwd = 0
        elif explicit_gas is not None:
            if explicit_gas > caller.gas:
                # the caller must produce the reserved gas in full
                self.tail.append(("call_reserve", caller.gas, caller.depth))
                self.run_dry(caller, explicit_gas - caller.gas)
            # the reserve is headroom the caller needs beyond what it consumes
            peak = caller.budget - caller.gas + explicit_gas
            if peak > caller.peak:
                caller.peak = peak
            caller.gas -= explicit_gas
            fwd = explicit_gas
        else:
            fwd = caller.gas
            caller.gas = 0
            elastic = caller.elastic

        depth = caller.depth
        trace, tail = self.trace, self.tail
        target_acct = self.state.accounts.get(target)
        if depth + 1 >= MAX_CALL_DEPTH:
            reason = FailReason.DEPTH_EXCEEDED
        elif target_acct is None:
            reason = FailReason.REVERT
        elif value > caller.account.balance:
            reason = FailReason.BALANCE_INSUFFICIENT
        else:
            reason = None
        if reason is not None:  # stillborn: nothing is dispatched
            caller.gas += fwd  # and the reserve returns
            event = new(CallEntered, (form, target, function, value, 0, depth))
            trace.append(event)
            tail.append(event)
            ok, consumed, stipend_used = False, 0, 0
        else:
            event = new(CallEntered, (form, target, function, value, fwd + grant, depth))
            trace.append(event)
            tail.append(event)
            checkpoint = self.state.checkpoint()
            if value:
                self.state.transfer(caller.account, target_acct, value)
            ok, consumed, reason, need, dry = self.dispatch(
                target_acct, function, args, value, caller.account.address, fwd + grant,
                depth + 1, elastic)
            if elastic:
                # the caller repeats this call when it can forward need - grant
                short = need - grant if need > grant else 0
                if caller.budget - fwd + short > caller.peak:
                    caller.peak = caller.budget - fwd + short
                if ok and short and form in ast.SWALLOWING:
                    # lower down this child fails, and the caller goes on with false
                    if self.limit - fwd + short > self.turn:
                        self.turn = self.limit - fwd + short
                if dry:  # the child hands no gas back at any limit on this path
                    caller.elastic = False
            if consumed > grant:
                stipend_used = grant
                caller.gas += fwd - consumed + grant
            else:
                stipend_used = consumed
                caller.gas += fwd
            if not ok:
                self.state.revert(checkpoint)
        event = new(CallExited, (ok, consumed, reason, stipend_used, depth))
        trace.append(event)
        tail.append(event)
        if depth == 0 and target == self.reports and self.reported is None:
            self.reported = ok, reason
        if ok:
            return True
        if form in ast.SWALLOWING:
            event = new(ExceptionSwallowed, (reason, depth))
            trace.append(event)
            tail.append(event)
            return False
        raise _FrameFail(reason)

    def dispatch(self, acct: Account, function: Optional[str], args,
                 value: int, sender: str, budget: int, depth: int,
                 elastic: bool):
        """Run the callee; returns (ok, gas_consumed, fail_reason, need, dry),
        where dry says an elastic callee ran dry."""
        contract = acct.code
        if contract is None:
            return True, 0, None, 0, False  # an EOA: receives value, executes nothing
        fn = contract.functions_by_name.get(function)  # None for a plain transfer
        if fn is not None:
            if len(fn.params) != len(args):
                return False, 0, FailReason.REVERT, 0, False
            payable, params, body = fn.payable, fn.params, fn.body
        else:
            # unknown function or plain transfer: the fallback handles it,
            # discarding whatever call data came along
            if contract.fallback is None:
                return False, 0, FailReason.REVERT, 0, False
            payable = contract.fallback.payable
            params, args = (), ()
            body = contract.fallback.body
        if value > 0 and not payable:
            return False, 0, FailReason.REVERT, 0, False

        env = {}  # neither a comprehension nor zip: both cost more than one binding
        if params:
            for i in range(len(params)):
                env[params[i].name] = args[i]
        frame = _Frame(acct, sender, value, depth, budget, budget, env, elastic)
        ok, reason = True, None
        try:
            self.charge(frame, "dispatch", self.sched.dispatch)
            for i in range(len(body)):
                self.exec_stmt(frame, body[i])
        except _ReturnSignal:
            pass
        except _FrameFail as fail:
            ok, reason = False, fail.args[0]
        consumed = budget - frame.gas
        if frame.elastic:
            return ok, consumed, reason, consumed if consumed > frame.peak else frame.peak, False
        return ok, consumed, reason, frame.peak, elastic

    # -- transaction ---------------------------------------------------------

    def transact(self, tx: Transaction):
        """Run `tx` on the state, which keeps its effects; returns
        (status, gas consumed, balance delta of the actor, or of the callee
        when the run `reports`) and leaves the run's invariance range in
        `lo` and `hi`."""
        state, schedule = self.state, self.sched
        sender, limit, to, function, args, value = tx
        base = schedule.base_tx
        self.trace = []
        self.tail.clear()
        self.limit = limit                   # the transaction's gas limit G
        self.lo = 0                          # lowest limit on this path
        self.hi = schedule.block_gas_limit   # highest limit on this path
        self.turn = 0                        # highest lower bound that turns it
        self.reported = None                 # (ok, reason) of the reported call
        actor, callee = state.accounts.get(sender), state.accounts.get(to)
        if actor is None or callee is None:
            raise ValueError("transaction actor and callee must exist")
        if not 0 <= limit <= schedule.block_gas_limit:
            raise ValueError("gas limit must be within [0, block_gas_limit]")

        if value > actor.balance:
            return failure(FailReason.BALANCE_INSUFFICIENT), 0, 0
        holder = callee if self.reports is not None else actor  # whose delta the run reports
        before = holder.balance

        if limit < base:
            self.tail.append(("base_tx", limit, 0))
            self.hi = base - 1
            return failure(FailReason.OUT_OF_GAS), limit, 0
        self.tail.append(("base_tx", base, 0))

        checkpoint = state.checkpoint()
        if value:
            state.transfer(actor, callee, value)

        ok, consumed, reason, need, _ = self.dispatch(callee, function, args, value, sender,
                                                      limit - base, 0, True)
        if ok:
            gas_total = base + consumed
            delta = holder.balance - before
            status = STATUS_SUCCESS
            if self.reported is not None and not self.reported[0]:
                status = failure(self.reported[1])
        else:
            state.revert(checkpoint)
            if reason == FailReason.OUT_OF_GAS:
                gas_total = limit  # a failed allocation is consumed in full
            else:
                gas_total = base + consumed
            delta = 0
            status = failure(reason)
        state.commit()
        lo = base + need
        self.lo = lo if lo > self.turn else self.turn
        if gas_total == limit and status.reason == FailReason.OUT_OF_GAS \
                and schedule.gasleft:
            self.lo = self.turn  # out of gas below the path too, until a bound turns it
        return status, gas_total, delta


def execute(state: WorldState, tx: Transaction, schedule: GasSchedule,
            reports: Optional[str] = None, *, ops: bool = True) -> Outcome:
    """Run one transaction to completion; never raises for execution
    failures. With `reports`, a successful transaction reports the status
    of its top frame's first call into that address, and the balance delta
    is the callee's, as an agent wrapper sees the run. With `ops` false the
    run is lean: its trace keeps op events only among its last `TAIL`."""
    run = _Run(state, schedule, reports, None if ops else TAIL)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + RECURSION_BUDGET)
    try:
        status, gas_total, delta = run.transact(tx)
    finally:
        sys.setrecursionlimit(limit)
    return Outcome(status, gas_total, delta, run.events(), (run.lo, run.hi))


def replay(state: WorldState, txs, schedule: GasSchedule) -> Optional[tuple]:
    """Run transactions in order, as setup does, until one fails; return
    (its index, its Status), or None when every one succeeds.

    The world state ends as the same `execute` calls would leave it; one
    run object runs them all, keeping no op events and building no
    outcomes, as nothing reads them.
    `txs` may be any iterable: it is consumed one transaction at a time,
    and not past the first that fails."""
    run = _Run(state, schedule, None, 0)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + RECURSION_BUDGET)
    try:
        for i, tx in enumerate(txs):
            status = run.transact(tx)[0]
            if not status.ok:
                return i, status
        return None
    finally:
        sys.setrecursionlimit(limit)
