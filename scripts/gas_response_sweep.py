#!/usr/bin/env python3
"""Plot (textually) how a transaction responds to its gas allocation.

For one scenario and actor kind, executes the target transaction at a
range of gas limits and prints status, consumption, and balance delta
per limit. A gas-rigid transaction shows a single flat consumption line
above its intrinsic requirement; reentrancy shows consumption growing
with the allocation, and swallowed exceptions show success below the
requirement. These curves are exactly the signals the gas-allocation
relations test for.

Every run reports its invariance range, the gas limits that give the
same outcome. The environment answers an estimator probe inside the
range of a run it made without running it, and the script prints how
many of the trials the VM ran. It then prints the range of the source
run at the intrinsic gas, and the follow-ups of the engine's MR1.2 sweep
(default subdivisions) in a context that keeps no estimator run, so each
is its own run: `mr_engine.sweep` slices past the plan limits inside the
range of the one before, and the sweep stops at its first violation, a
follow-up that succeeds. Each row of the response table is its limit's
own run and also shows its range.

Usage:
    python3 scripts/gas_response_sweep.py corpus/simple_dao_withdraw.scenario.json CAR
    python3 scripts/gas_response_sweep.py tests/fixtures/notifier_ping.scenario.json EOA --points 30

Output piped into a reader that stops early (`| head`) ends the script
quietly with exit status 1.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mtsc import mr_engine  # noqa: E402
from mtsc.agents import AgentKind  # noqa: E402
from mtsc.gas_oracle import (  # noqa: E402
    NeverSucceeds,
    allocate_reducing,
    estimate_intrinsic_gas,
)
from mtsc.relations import MR1_2  # noqa: E402
from mtsc.scenario import build_environment, load_scenario  # noqa: E402
from mtsc.traces import trace_has_swallow  # noqa: E402
from mtsc.vm import GasSchedule  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario")
    parser.add_argument("kind", choices=[k.value for k in AgentKind])
    parser.add_argument("--points", type=int, default=20)
    parser.add_argument("--span", type=float, default=4.0,
                        help="sweep up to span * intrinsic gas (default 4)")
    args = parser.parse_args(argv)

    schedule = GasSchedule()
    env = build_environment(load_scenario(args.scenario), schedule)
    kind = AgentKind(args.kind)
    try:
        gc = estimate_intrinsic_gas(schedule, runner=env.runner_for(kind))
    except NeverSucceeds as exc:
        print(f"no allocation makes this interaction succeed: {exc.status}")
        return 1
    print(f"intrinsic gas for {kind.value}: {gc.value} "
          f"(trials={gc.trials}, converged=True)")  # every estimate is verified
    # the environment keeps every run that reached the VM; the rough
    # estimate's block-limit run is not a trial
    probes = len(env._kept[kind]) - 1
    print(f"estimate {gc.value}: {gc.trials} trials, {probes} of them reached "
          f"the runner, {gc.trials - probes} answered from a range")
    fresh = env.fresh()
    lo, hi = fresh.run(kind, gc.value).limits
    print(f"source range: [{lo}, {hi}]")
    for done in mr_engine.sweep(fresh, MR1_2, kind, gc.value,
                                allocate_reducing(gc.value)):
        out = done.follow_outcome
        lo, hi = out.limits
        print(f"MR1.2 follow-up {done.follow_up.gas_limit}: {out.status}, "
              f"range [{lo}, {hi}]")
        if mr_engine.check(done) is not None:
            break  # a violation ends the sweep
    print()

    lo = max(0, gc.value - 5 * max(1, gc.value // args.points))
    hi = min(int(gc.value * args.span), schedule.block_gas_limit)
    step = max(1, (hi - lo) // args.points)
    print(f"{'gas limit':>12}  {'status':<22} {'consumed':>10} {'delta':>12}  "
          f"{'range':<22}  notes")
    for limit in range(lo, hi + 1, step):
        out = env.run(kind, limit, own=True)
        notes = []
        if trace_has_swallow(out.trace):
            notes.append("swallowed exception")
        if out.ok and limit < gc.value:
            notes.append("success below the requirement")
        lo, hi = out.limits
        print(f"{limit:>12}  {str(out.status):<22} {out.gas_consumed:>10} "
              f"{out.balance_delta:>12}  {f'[{lo}, {hi}]':<22}  {'; '.join(notes)}")
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()  # inside the try: a closed pipe fails here
    except BrokenPipeError:
        # the reader went away (`| head`): stop quietly, and point stdout
        # at devnull so that the interpreter's final flush cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
