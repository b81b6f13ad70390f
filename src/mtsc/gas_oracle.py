"""Intrinsic-gas estimation and the gas-allocation plans for MR1.x.

The estimator probes a transaction's exact gas requirement dynamically:
grow the limit geometrically until a run succeeds, then verify the
measured consumption by re-running at it. Gas-elastic transactions
(recursion guarded by gasleft, reserved-gas calls) need the verification
phase: their first successful run can consume less than its limit, or a
gas reserve can demand headroom above the measured consumption, in which
case the success boundary is bisected. A runner leaves the state it runs
on as it found it (`Environment.runner_for` gives one for a scenario's
target input), so the caller's state never changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .traces import child_frame_gas
from .vm import GasSchedule, Outcome
from .vm import execute as vm_execute  # noqa: F401  perfbench's traced run wraps it

#: runner(gas_limit) -> Outcome of "the" transaction at that limit, with the
#: state it runs on left as it was found
Runner = Callable[[int], Outcome]


class NeverSucceeds(Exception):
    """The transaction fails even at the block gas limit."""

    def __init__(self, status):
        super().__init__(f"transaction never succeeds: {status}")
        self.status = status


@dataclass(frozen=True)
class IntrinsicGas:
    value: int        # smallest verified-sufficient gas limit
    trials: int       # probes made, a probe answered from a memo included
    converged: bool   # final probe consumed exactly its limit


@dataclass(frozen=True)
class AllocationPlan:
    direction: str              # "Increasing" | "Reducing"
    limits: tuple
    step: int
    n: int
    warning: Optional[str] = None


def default_initial_estimator(runner: Runner, schedule: GasSchedule) -> int:
    """Rough estimate: an ample-gas run minus gas spent inside low-level
    call frames. Deliberately understates transactions with internal
    calls, mirroring how on-chain estimation behaves."""
    out = runner(schedule.block_gas_limit)
    if not out.ok:
        raise NeverSucceeds(out.status)
    return max(schedule.base_tx, out.gas_consumed - child_frame_gas(out.trace))


def estimate_intrinsic_gas(schedule: GasSchedule, runner: Runner,
                           growth: float = 1.5,
                           first_limit: Optional[int] = None) -> IntrinsicGas:
    """Find the transaction's intrinsic gas requirement.

    The first probe runs at `first_limit`, by default the rough estimate
    of `default_initial_estimator`. Raises NeverSucceeds if the
    transaction fails at the block gas limit. The result satisfies:
    executing at `value` succeeds. When the final probe consumed exactly
    its limit the result is flagged converged; gas-rigid transactions
    then also fail at `value - 1`.
    """
    if growth <= 1.0:
        raise ValueError("growth factor must exceed 1")
    trials = 0

    def probe(limit: int) -> Outcome:
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
        limit = min(int(limit * growth) + 1, block)

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


def allocate_increasing(gc: int, count: int = 5,
                        block_gas_limit: int = GasSchedule().block_gas_limit) -> AllocationPlan:
    """Follow-up limits {2*gc, 3*gc, ...} capped at the block limit."""
    if gc < 1:
        raise ValueError("intrinsic gas must be at least 1")
    limits = []
    k = 2
    while len(limits) < count and k * gc <= block_gas_limit:
        limits.append(k * gc)
        k += 1
    warning = None
    if not limits:
        warning = f"2*{gc} exceeds the block gas limit {block_gas_limit}"
    return AllocationPlan("Increasing", tuple(limits), step=gc, n=count,
                          warning=warning)


def allocate_reducing(gc: int, n: int = 1000) -> AllocationPlan:
    """Follow-up limits descending from gc in n even steps down to >= 0."""
    if gc < 1 or n < 1:
        raise ValueError("gc and n must be at least 1")
    step = max(1, gc // n)
    return AllocationPlan("Reducing", tuple(range(gc - step, -1, -step)), step=step, n=n)
