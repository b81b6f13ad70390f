"""Intrinsic-gas estimation and the MR1.x gas-allocation plans, `range`s.

The estimator probes a transaction's exact gas requirement dynamically:
grow the limit geometrically until a run succeeds, then verify the
measured consumption by re-running at it. Gas-elastic transactions
(recursion guarded by gasleft, reserved-gas calls) need the verification
phase: their first successful run can consume less than its limit, or a
gas reserve can demand headroom above the measured consumption, in which
case the success boundary is bisected. A runner leaves the state it runs
on as it found it (`Environment.runner_for` gives one for a scenario's
target input), so the caller's state never changes.

Every run reports its invariance range (`Outcome.limits`): the gas
limits at which it gives the same status and consumption. The estimator
asks its runner for every probe and counts each as a trial; the
pipeline's runner, `Environment.run`, answers a probe inside the range
of a run it already made without running it, so every estimate and
trial count is the one a run of every probe gives.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .traces import child_frame_gas
from .vm import GasSchedule, Outcome
from .vm import execute as vm_execute  # noqa: F401  perfbench's traced run wraps it

#: runner(gas_limit) -> Outcome of "the" transaction at that limit, with the
#: state it runs on left as it was found
Runner = Callable[[int], Outcome]

DEFAULT_GROWTH = 1.5         # the estimator's growth factor
DEFAULT_SUBDIVISIONS = 1000  # the steps of a reducing plan


class NeverSucceeds(Exception):
    """The transaction fails even at the block gas limit."""

    def __init__(self, status):
        super().__init__(f"transaction never succeeds: {status}")
        self.status = status


class IntrinsicGas(NamedTuple):
    value: int        # smallest verified-sufficient gas limit
    trials: int       # probes made, a probe answered from a range included


def default_initial_estimator(runner: Runner, schedule: GasSchedule) -> int:
    """Rough estimate: an ample-gas run minus gas spent inside low-level
    call frames. Deliberately understates transactions with internal
    calls, mirroring how on-chain estimation behaves."""
    out = runner(schedule.block_gas_limit)
    if not out.ok:
        raise NeverSucceeds(out.status)
    return max(schedule.base_tx, out.gas_consumed - child_frame_gas(out.trace))


def estimate_intrinsic_gas(schedule: GasSchedule, runner: Runner,
                           growth: float = DEFAULT_GROWTH,
                           first_limit: Optional[int] = None) -> IntrinsicGas:
    """Find the transaction's intrinsic gas requirement.

    The first probe runs at `first_limit`, by default the rough estimate
    of `default_initial_estimator`. Raises NeverSucceeds if the
    transaction fails at the block gas limit. The result satisfies:
    executing at `value` succeeds, verified by a probe: either the final
    probe consumed exactly its limit, or the success boundary was
    bisected. Every probe is a trial, whether `runner` runs it or answers
    it from a kept range.
    """
    if not growth > 1.0:  # NaN included
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
    limit = min(max(1, int(first_limit)), block)
    while True:
        out = probe(limit)
        if out.ok:
            candidate = out.gas_consumed
            break
        if limit >= block:
            raise NeverSucceeds(out.status)
        limit = block if limit * growth >= block else int(limit * growth) + 1

    # verification phase: the reported value must itself suffice
    last_good = limit
    while candidate != last_good:
        out = probe(candidate)
        if out.ok:
            if out.gas_consumed == candidate:
                break
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
            break
    return IntrinsicGas(value=candidate, trials=trials)


def allocate_increasing(gc: int, count: int, block_gas_limit: int) -> range:
    """Follow-up limits {2*gc, 3*gc, ...}, at most `count` of them, capped at
    the block limit; empty when 2*gc exceeds it."""
    if gc < 1:
        raise ValueError("intrinsic gas must be at least 1")
    return range(2 * gc, min(count + 1, block_gas_limit // gc) * gc + 1, gc)


def allocate_reducing(gc: int, n: int = DEFAULT_SUBDIVISIONS) -> range:
    """Follow-up limits descending from gc in n even steps down to >= 0."""
    if gc < 1 or n < 1:
        raise ValueError("gc and n must be at least 1")
    step = max(1, gc // n)
    return range(gc - step, -1, -step)
