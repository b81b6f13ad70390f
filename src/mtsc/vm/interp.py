"""Deterministic gas-metered execution of MiniSol transactions.

Gas model
---------
Every charge is recorded as an OpExecuted trace event; when a charge
exceeds the frame's remaining gas the shortfall is recorded as a partial
charge, the frame drops to zero, and the frame fails OutOfGas. A frame's
consumption is therefore its budget minus what is left when it exits,
and a frame that runs out consumes its whole budget.

Call boundaries
---------------
The caller pays `call_base` (plus the value-transfer surcharge when value
moves). Forwarding rules:

* `lowcall` / `dcall` without an explicit gas clause forward everything
  the caller has left;
* `lowcall ... gas g` reserves exactly g — if the caller cannot produce
  g the caller itself runs out of gas (pre-EIP-150 behaviour);
* `send` / `transfer` forward nothing of the caller's pool.

A call that moves value grants the callee a 2300-gas stipend carved out
of the surcharge. The stipend is use-it-or-lose-it: the child's unused
forwarded gas returns to the caller, unused stipend does not. This keeps
a transaction's total consumption independent of its gas limit for
gas-rigid code, which the intrinsic-gas estimator relies on.

Failure semantics per call form: `lowcall`/`send` swallow a child failure
(the expression yields false and an ExceptionSwallowed event is traced);
`dcall`/`transfer` re-raise it in the caller, unwinding to the nearest
swallowing boundary. Any failure rolls the child's state changes back.

Rollback
--------
The interpreter never mutates accounts itself: value transfers and
storage writes go through the world state's undo journal (see
`state.py`). Each call boundary takes a checkpoint before moving value
and reverts to it when the child fails; each transaction does the same
around its dispatch and commits when it returns. Snapshots taken by the
harness use the same journal, so world-state rollback is one mechanism.

Top level: a Failure outcome leaves the world state untouched, the actor
balance delta is zero, and OutOfGas consumes the full gas limit. Fees
accrue on the fee ledger, never on balances.

Gas sensitivity
---------------
A frame is *elastic* when its budget comes from the transaction's gas
limit: the top frame, and every child of a `lowcall`/`dcall` without a
gas clause made from an elastic frame. Children of `send`/`transfer`
and of `gas g` calls get fixed budgets and are never elastic.

Each elastic frame also tracks its *need*: the smallest budget at which
it repeats its run. That is its consumption, raised by the headroom a
`gas g` reserve demands and by the needs of its forward-all children; a
frame that ran out of gas itself has no finite need. A run records the
deepest frame depth of a gas-sensitive event in
`Outcome.gas_sensitive_depth` (-1 for none). There are two kinds:

* a `gasleft()` read in an elastic frame;
* a forward-all `lowcall` from an elastic frame whose child needed more
  than its stipend grant. At a lower limit that child can run out of
  gas, the failure is swallowed, and the caller goes on with 0 gas.

`dcall` passes a starved child's failure up to its caller, and a
reserve the caller cannot produce fails the caller itself, so neither
lets a run succeed on less gas and neither is an event. A successful run
without events repeats (same status, consumption and state changes) at
every higher limit; at a lower one it either repeats or fails out of
gas, so the limits at which it succeeds are upward-closed.

A failing run is read the other way, in
`Outcome.gas_sensitive_depth_below`. At a lower limit a run follows its
path until an elastic frame runs short, and the frame that runs short
fails; a forward-all child that starves leaves its caller with exactly
0 gas. So a lower limit can change the path only through

* a `gasleft()` read in an elastic frame, or
* a forward-all `lowcall` from an elastic frame whose child *succeeded*
  while needing more than its grant. Lower down that child can fail,
  and the caller goes on with a false result.

A child that failed fails at every lower limit too, and its caller goes
on with the same false result and no more gas than before, so it is no
event here even when it needed more than its grant. A failing run
without such events fails at every lower limit. These events are a
subset of the upward ones, so the depth below never exceeds
`gas_sensitive_depth`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional

from ..minisol import ast
from ..minisol.parser import MAX_NESTING
from .schedule import GasSchedule
from .state import Account, AccountKind, WorldState, default_for, is_zero
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

# Python frames the interpreter may stack, which `execute` adds to the
# recursion limit for the length of a run. Per MiniSol call frame: per
# nesting level the parser allows, a block (exec_stmt, exec_block) or a
# `!` plus one binary operator per precedence level (eval, eval_binary
# each), and a fixed tail for the statement and the call itself.
RECURSION_BUDGET = MAX_CALL_DEPTH * (12 * MAX_NESTING + 32)

# the need of a frame that ran out of gas: no budget is known to repeat it
STARVED = float("inf")

# call failures that never dispatched the callee
STILLBORN = (FailReason.DEPTH_EXCEEDED, FailReason.BALANCE_INSUFFICIENT)


class _FrameFail(Exception):
    def __init__(self, reason: FailReason):
        self.reason = reason


class _ReturnSignal(Exception):
    pass


@dataclass
class _Frame:
    account: Account
    self_addr: str
    msg_sender: str
    msg_value: int
    contract: Optional[ast.ContractDef]
    depth: int
    gas: int
    budget: int
    env: dict = field(default_factory=dict)
    elastic: bool = False  # budget comes from the transaction's gas limit
    peak: float = 0        # need beyond consumption: reserves, children

    @property
    def consumed(self) -> int:
        return self.budget - self.gas


class _Run:
    def __init__(self, state: WorldState, schedule: GasSchedule):
        self.state = state
        self.sched = schedule
        self.trace: list = []
        self.sensitive_depth = -1  # deepest gas-sensitive event
        self.sensitive_depth_below = -1  # deepest one that matters below

    # -- gas ---------------------------------------------------------------

    def charge(self, frame: _Frame, op: str, cost: int):
        if cost > frame.gas:
            self.trace.append(OpExecuted(op, frame.gas, frame.depth))
            frame.gas = 0
            frame.peak = STARVED
            raise _FrameFail(FailReason.OUT_OF_GAS)
        frame.gas -= cost
        self.trace.append(OpExecuted(op, cost, frame.depth))

    # -- expressions ---------------------------------------------------------

    def eval(self, frame: _Frame, e):
        t = type(e)
        if t is ast.IntLit:
            return e.value
        if t is ast.BoolLit:
            return e.value
        if t is ast.AddrLit:
            return e.value
        if t is ast.Var:
            if e.name in frame.env:
                return frame.env[e.name]
            sv = frame.contract.state_var(e.name)
            self.charge(frame, "sload", self.sched.sload)
            return frame.account.storage_read(e.name, default_for(sv.kind))
        if t is ast.MapIndex:
            key = self.eval(frame, e.key)
            self.charge(frame, "sload", self.sched.sload)
            return frame.account.storage_read((e.name, key), 0)
        if t is ast.Binary:
            return self.eval_binary(frame, e)
        if t is ast.Not:
            self.charge(frame, "logic", self.sched.logic)
            return not self.eval(frame, e.operand)
        if t is ast.MsgSender:
            return frame.msg_sender
        if t is ast.MsgValue:
            return frame.msg_value
        if t is ast.This:
            return frame.self_addr
        if t is ast.GasLeft:
            self.charge(frame, "gasleft", self.sched.gasleft)
            if frame.elastic:
                if frame.depth > self.sensitive_depth:
                    self.sensitive_depth = frame.depth
                if frame.depth > self.sensitive_depth_below:
                    self.sensitive_depth_below = frame.depth
            return frame.gas
        if t is ast.BalanceOf:
            target = self.eval(frame, e.target)
            self.charge(frame, "balance_of", self.sched.balance_of)
            return self.state.balance_of(target)
        if t is ast.LowCall:
            target = self.eval(frame, e.target)
            args = [self.eval(frame, a) for a in e.args]
            value = self.eval(frame, e.value) if e.value is not None else 0
            gas = self.eval(frame, e.gas) if e.gas is not None else None
            return self.call(frame, "lowcall", target, e.function, args, value,
                             explicit_gas=gas, swallow=True)
        if t is ast.DirectCall:
            target = self.eval(frame, e.target)
            args = [self.eval(frame, a) for a in e.args]
            value = self.eval(frame, e.value) if e.value is not None else 0
            self.call(frame, "dcall", target, e.function, args, value,
                      explicit_gas=None, swallow=False)
            return None
        if t is ast.Send:
            target = self.eval(frame, e.target)
            value = self.eval(frame, e.value)
            return self.call(frame, "send", target, None, [], value,
                             explicit_gas=None, swallow=True, stipend_only=True)
        if t is ast.Transfer:
            target = self.eval(frame, e.target)
            value = self.eval(frame, e.value)
            self.call(frame, "transfer", target, None, [], value,
                      explicit_gas=None, swallow=False, stipend_only=True)
            return None
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
        left = self.eval(frame, e.left)
        right = self.eval(frame, e.right)
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

    def exec_block(self, frame: _Frame, stmts):
        for s in stmts:
            self.exec_stmt(frame, s)

    def exec_stmt(self, frame: _Frame, s):
        t = type(s)
        if t is ast.Require:
            self.charge(frame, "require", self.sched.require)
            if not self.eval(frame, s.condition):
                raise _FrameFail(FailReason.REQUIRE_FAILED)
            return
        if t is ast.Revert:
            self.charge(frame, "revert", self.sched.revert)
            raise _FrameFail(FailReason.REVERT)
        if t is ast.If:
            if self.eval(frame, s.condition):
                self.exec_block(frame, s.then)
            else:
                self.exec_block(frame, s.otherwise)
            return
        if t is ast.Let:
            self.charge(frame, "local", self.sched.arith)
            frame.env[s.name] = self.eval(frame, s.value)
            return
        if t is ast.Assign:
            self.exec_assign(frame, s)
            return
        if t is ast.Return:
            if s.value is not None:
                self.eval(frame, s.value)  # evaluated for effects, discarded
            raise _ReturnSignal()
        if t is ast.Emit:
            # events are cost-only placeholders; arguments are not evaluated
            self.charge(frame, "emit", self.sched.emit)
            return
        if t is ast.ExprStmt:
            self.eval(frame, s.expr)
            return
        raise TypeError(f"unknown statement {s!r}")

    def exec_assign(self, frame: _Frame, s: ast.Assign):
        target = s.target
        if isinstance(target, ast.Var) and (target.name in frame.env):
            self.charge(frame, "local", self.sched.arith)
            value = self.eval(frame, s.value)
            if s.op != "=":
                value = self.arith(s.op[0], frame.env[target.name], value)
            frame.env[target.name] = value
            return
        if isinstance(target, ast.MapIndex):
            key = (target.name, self.eval(frame, target.key))
            default = 0
        else:
            sv = frame.contract.state_var(target.name)
            key = target.name
            default = default_for(sv.kind)
        value = self.eval(frame, s.value)
        acct = frame.account
        if s.op != "=":
            self.charge(frame, "sload", self.sched.sload)
            self.charge(frame, "arith", self.sched.arith)
            value = self.arith(s.op[0], acct.storage_read(key, default), value)
        old = acct.storage_read(key, default)
        if is_zero(old) and not is_zero(value):
            self.charge(frame, "sstore_set", self.sched.sstore_set)
        else:
            self.charge(frame, "sstore_reset", self.sched.sstore_reset)
        self.state.store(acct, key, value)

    # -- call boundary ---------------------------------------------------------

    def call(self, caller: _Frame, form: str, target: str,
             function: Optional[str], args: list, value: int,
             explicit_gas: Optional[int], swallow: bool,
             stipend_only: bool = False) -> bool:
        sched = self.sched
        self.charge(caller, "call_base", sched.call_base)
        if value > 0:
            self.charge(caller, "value_surcharge", sched.value_transfer_surcharge)
        grant = sched.stipend if value > 0 else 0

        elastic = False
        if stipend_only:
            fwd = 0
        elif explicit_gas is not None:
            if explicit_gas > caller.gas:
                # the caller must produce the reserved gas in full
                self.trace.append(OpExecuted("call_reserve", caller.gas, caller.depth))
                caller.gas = 0
                caller.peak = STARVED
                raise _FrameFail(FailReason.OUT_OF_GAS)
            # the reserve is headroom the caller needs beyond what it consumes
            caller.peak = max(caller.peak, caller.consumed + explicit_gas)
            caller.gas -= explicit_gas
            fwd = explicit_gas
        else:
            fwd = caller.gas
            caller.gas = 0
            elastic = caller.elastic

        def stillborn(reason: FailReason) -> bool:
            caller.gas += fwd  # nothing was dispatched; the reserve returns
            self.trace.append(CallEntered(form, target, function, value, 0, caller.depth))
            self.trace.append(CallExited(False, 0, reason, 0, caller.depth))
            if swallow:
                self.trace.append(ExceptionSwallowed(reason, caller.depth))
                return False
            raise _FrameFail(reason)

        if caller.depth + 1 >= MAX_CALL_DEPTH:
            return stillborn(FailReason.DEPTH_EXCEEDED)
        target_acct = self.state.accounts.get(target)
        if target_acct is None:
            return stillborn(FailReason.REVERT)
        if value > caller.account.balance:
            return stillborn(FailReason.BALANCE_INSUFFICIENT)

        child_budget = fwd + grant
        self.trace.append(CallEntered(form, target, function, value,
                                      child_budget, caller.depth))
        checkpoint = self.state.checkpoint()
        if value:
            self.state.transfer(caller.account, target_acct, value)

        ok, consumed, reason, need = self.dispatch(
            target_acct, function, args, value, caller.self_addr, child_budget,
            caller.depth + 1, elastic)
        if elastic:
            # the caller repeats this call when it can forward need - grant
            need_here = caller.budget - fwd + need - grant
            if need_here > caller.peak:
                caller.peak = need_here
            if swallow and need > grant:
                if caller.depth > self.sensitive_depth:
                    self.sensitive_depth = caller.depth
                # a child that failed here fails at every lower limit too
                if ok and caller.depth > self.sensitive_depth_below:
                    self.sensitive_depth_below = caller.depth
        stipend_used = min(grant, consumed)
        refund = fwd - max(0, consumed - grant)
        caller.gas += refund
        if ok:
            self.trace.append(CallExited(True, consumed, None, stipend_used,
                                         caller.depth))
            return True
        self.state.revert(checkpoint)
        self.trace.append(CallExited(False, consumed, reason, stipend_used,
                                     caller.depth))
        if swallow:
            self.trace.append(ExceptionSwallowed(reason, caller.depth))
            return False
        raise _FrameFail(reason)

    def dispatch(self, acct: Account, function: Optional[str], args: list,
                 value: int, sender: str, budget: int, depth: int,
                 elastic: bool):
        """Run the callee; returns (ok, gas_consumed, fail_reason, need)."""
        if acct.kind == AccountKind.EOA:
            return True, 0, None, 0  # no code: receives value, executes nothing

        contract = acct.code
        fn = contract.function(function) if function is not None else None
        if fn is not None:
            if len(fn.params) != len(args):
                return False, 0, FailReason.REVERT, 0
            payable, params, body = fn.payable, fn.params, fn.body
        else:
            # unknown function or plain transfer: the fallback handles it,
            # discarding whatever call data came along
            if contract.fallback is None:
                return False, 0, FailReason.REVERT, 0
            payable = contract.fallback.payable
            params, args = [], []
            body = contract.fallback.body
        if value > 0 and not payable:
            return False, 0, FailReason.REVERT, 0

        frame = _Frame(account=acct, self_addr=acct.address, msg_sender=sender,
                       msg_value=value, contract=contract, depth=depth,
                       gas=budget, budget=budget,
                       env={p.name: a for p, a in zip(params, args)},
                       elastic=elastic)
        ok, reason = True, None
        try:
            self.charge(frame, "dispatch", self.sched.dispatch)
            self.exec_block(frame, body)
        except _ReturnSignal:
            pass
        except _FrameFail as fail:
            ok, reason = False, fail.reason
        consumed = budget - frame.gas
        return ok, consumed, reason, max(consumed, frame.peak)


def execute(state: WorldState, tx: Transaction, schedule: GasSchedule) -> Outcome:
    """Run one transaction to completion; never raises for execution failures."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + RECURSION_BUDGET)
    try:
        return _execute(state, tx, schedule)
    finally:
        sys.setrecursionlimit(limit)


def _execute(state: WorldState, tx: Transaction, schedule: GasSchedule) -> Outcome:
    if tx.actor not in state.accounts or tx.callee not in state.accounts:
        raise ValueError("transaction actor and callee must exist")
    if not 0 <= tx.gas_limit <= schedule.block_gas_limit:
        raise ValueError("gas limit must be within [0, block_gas_limit]")

    run = _Run(state, schedule)
    actor_before = state.account(tx.actor).balance
    if tx.value > actor_before:
        return Outcome(failure(FailReason.BALANCE_INSUFFICIENT), 0, 0, ())

    if tx.gas_limit < schedule.base_tx:
        run.trace.append(OpExecuted("base_tx", tx.gas_limit, 0))
        state.fee_ledger += tx.gas_limit
        return Outcome(failure(FailReason.OUT_OF_GAS), tx.gas_limit, 0,
                       tuple(run.trace))
    run.trace.append(OpExecuted("base_tx", schedule.base_tx, 0))
    budget = tx.gas_limit - schedule.base_tx

    actor, callee = state.account(tx.actor), state.account(tx.callee)
    checkpoint = state.checkpoint()
    if tx.value:
        state.transfer(actor, callee, tx.value)

    ok, consumed, reason, _ = run.dispatch(callee, tx.function, list(tx.args),
                                           tx.value, tx.actor, budget, depth=0,
                                           elastic=True)
    if ok:
        gas_total = schedule.base_tx + consumed
        delta = actor.balance - actor_before
        status = STATUS_SUCCESS
    else:
        state.revert(checkpoint)
        if reason == FailReason.OUT_OF_GAS:
            gas_total = tx.gas_limit  # a failed allocation is consumed in full
        else:
            gas_total = schedule.base_tx + consumed
        delta = 0
        status = failure(reason)
    state.commit()
    state.fee_ledger += gas_total
    return Outcome(status, gas_total, delta, tuple(run.trace), run.sensitive_depth,
                   run.sensitive_depth_below)
