#!/usr/bin/env python3
"""Plot (textually) how a transaction responds to its gas allocation.

For one scenario and actor kind, executes the target transaction at a
range of gas limits and prints status, consumption, and balance delta
per limit. A gas-rigid transaction shows a single flat consumption line
above its intrinsic requirement; reentrancy shows consumption growing
with the allocation, and swallowed exceptions show success below the
requirement. These curves are exactly the signals the gas-allocation
relations test for.

It also prints whether the source run at the intrinsic gas is
gas-certified, and the depth of its deepest gas-sensitive event (-1 for
none). A certified source cannot change with the gas limit, so the
engine decides its MR1.1 and MR1.2 sweeps from their first pair. The
next line names the highest follow-up limit of the MR1.2 plan (default
subdivisions) whose run is a gas-certified failure, with the depth of
its deepest gas-sensitive event below (or "none"): that run fails at
every lower limit, so the engine's MR1.2 sweep stops there at the latest.

Usage:
    python3 scripts/gas_response_sweep.py corpus/simple_dao_withdraw.scenario.json CAR
    python3 scripts/gas_response_sweep.py tests/fixtures/notifier_ping.scenario.json EOA --points 30
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mtsc.agents import AgentKind, gas_certified  # noqa: E402
from mtsc.gas_oracle import (  # noqa: E402
    NeverSucceeds,
    allocate_reducing,
    estimate_intrinsic_gas,
)
from mtsc.scenario import build_environment, load_scenario  # noqa: E402
from mtsc.vm import GasSchedule, trace_has_swallow  # noqa: E402


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
        gc = estimate_intrinsic_gas(env.state, None, schedule,
                                    runner=env.runner_for(kind))
    except NeverSucceeds as exc:
        print(f"no allocation makes this interaction succeed: {exc.status}")
        return 1
    print(f"intrinsic gas for {kind.value}: {gc.value} "
          f"(trials={gc.trials}, converged={gc.converged})")
    source = env.run_target(env.state.clone(), kind, gc.value)
    print(f"gas-certified source: {'yes' if gas_certified(kind, source) else 'no'} "
          f"(deepest gas-sensitive event at depth {source.gas_sensitive_depth})")
    for limit in allocate_reducing(gc.value).limits:
        out = env.run_target(env.state.clone(), kind, limit)
        if not out.ok and gas_certified(kind, out):
            print(f"highest certified-failure MR1.2 follow-up: {limit} (deepest "
                  f"gas-sensitive event below at depth {out.gas_sensitive_depth_below})\n")
            break
    else:
        print("highest certified-failure MR1.2 follow-up: none\n")

    lo = max(0, gc.value - 5 * max(1, gc.value // args.points))
    hi = min(int(gc.value * args.span), schedule.block_gas_limit)
    step = max(1, (hi - lo) // args.points)
    print(f"{'gas limit':>12}  {'status':<22} {'consumed':>10} {'delta':>12}  notes")
    for limit in range(lo, hi + 1, step):
        out = env.run_target(env.state.clone(), kind, limit)
        notes = []
        if trace_has_swallow(out.trace):
            notes.append("swallowed exception")
        if out.ok and limit < gc.value:
            notes.append("success below the requirement")
        print(f"{limit:>12}  {str(out.status):<22} {out.gas_consumed:>10} "
              f"{out.balance_delta:>12}  {'; '.join(notes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
