"""Command-line frontend: `mtsc check | bench | estimate`.

Exit codes: 0 no relation violated, 1 at least one relation violated
(check), 2 usage or configuration errors (an `InputError` or `OSError`,
including unparsable or invalid contracts), 3 an internal error,
reported as one `mtsc: internal error: ...` line. Runs are fully
deterministic; repeated invocations produce byte-identical reports.

The first `main` call in a process freezes the heap it finds
(`gc.freeze`), before any scenario is read, and later calls do not. A
full collection then skips the import-time objects, which helps `bench`
over many scenarios and callers that run `main` many times; a host that
later wants the frozen objects collected can call `gc.unfreeze()`.

Start-up is most of a one-scenario process, so importing this module
builds no `dataclasses` class and loads no process pool: the records are
plain classes (`minisol.record`), and `concurrent.futures` is imported
the first time `ProcessPoolExecutor` is read from this module, which
only `bench --jobs N` with N > 1 does.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .detector import Verdict, check_labels, compute_metrics, emit_report, verdict_for
from .gas_oracle import estimate_intrinsic_gas  # noqa: F401  perfbench's traced run wraps it
from .inputs import InputError, read_json
from .mr_engine import EngineConfig, estimate_kinds, run_all
from .scenario import ALL_ACTOR_KINDS, build_environment, load_scenario
from .vm import GasSchedule, Status, load_schedule


def __getattr__(name):
    # `ProcessPoolExecutor` on first read: importing it loads multiprocessing,
    # and only a pool needs it. cmd_bench reads it from the module, so a
    # caller may replace it (perfbench's traced run does).
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _build_parser() -> argparse.ArgumentParser:
    defaults = EngineConfig()
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--schedule", metavar="PATH",
                        help="gas schedule file (key=value lines)")
    common.add_argument("--n", type=int, default=defaults.n,
                        help="subdivisions of the reducing gas sweep (default %(default)s)")
    common.add_argument("--inc-count", type=int, default=defaults.inc_count,
                        help="follow-ups per increasing gas sweep (default %(default)s)")
    common.add_argument("--growth", type=float, default=defaults.growth,
                        help="estimator growth factor (default %(default)s)")
    common.add_argument("--car-gas-guard", type=int, default=defaults.car_gas_guard,
                        help="recursion guard of the CAR agent (default %(default)s)")
    common.add_argument("--cah-iterations", type=int, default=defaults.cah_iterations,
                        help="storage writes in the CAH fallback (default %(default)s)")
    common.add_argument("--mr", metavar="LIST",
                        help="comma-separated relations to run (restricts scenarios)")
    common.add_argument("--mr1-actors", metavar="LIST",
                        help="comma-separated actor kinds for the gas relations")
    common.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    common.add_argument("--out", metavar="PATH", help="write the report to a file")
    common.add_argument("--jobs", type=int, default=1,
                        help="scenario worker processes, 0 for one per core "
                             "(default %(default)s)")

    parser = argparse.ArgumentParser(
        prog="mtsc",
        description="metamorphic testing for smart-contract vulnerabilities")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary, positionals in (
            ("check", "test one scenario", ("scenario",)),
            ("bench", "run a labeled scenario directory", ("dir", "labels")),
            ("estimate", "intrinsic gas per actor kind", ("scenario",))):
        p = sub.add_parser(command, help=summary, parents=[common])
        for name in positionals:
            p.add_argument(name)
    return parser


# built once per process: construction does not depend on the arguments
PARSER = _build_parser()


def _names(flag: Optional[str]) -> Optional[tuple]:
    """A list flag's comma-separated names; None, no filter, when it is empty."""
    return tuple(name.strip() for name in flag.split(",")) if flag else None


def _build_config(args) -> tuple:
    """The gas schedule and engine configuration the options select."""
    if args.jobs < 0:
        raise InputError("--jobs must be non-negative")
    schedule = load_schedule(args.schedule) if args.schedule else GasSchedule()
    if args.car_gas_guard <= schedule.stipend:
        raise InputError("--car-gas-guard must exceed the transfer stipend")
    try:
        engine = EngineConfig(n=args.n, inc_count=args.inc_count, growth=args.growth,
                              car_gas_guard=args.car_gas_guard,
                              cah_iterations=args.cah_iterations,
                              mr_filter=_names(args.mr),
                              mr1_actors_override=_names(args.mr1_actors))
    except ValueError as exc:
        raise InputError(str(exc))
    return schedule, engine


def _emit(text: str, out: Optional[str]):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _run_one(path: str, schedule: GasSchedule, engine: EngineConfig) -> Verdict:
    return verdict_for(run_all(load_scenario(path), schedule, engine))


def _worker(payload):
    return _run_one(*payload)


def cmd_check(args, schedule: GasSchedule, engine: EngineConfig) -> int:
    verdict = _run_one(args.scenario, schedule, engine)
    _emit(emit_report([verdict], fmt=args.fmt), args.out)
    return 1 if verdict.violations else 0


def cmd_bench(args, schedule: GasSchedule, engine: EngineConfig) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise InputError(f"{directory} is not a directory")
    paths = sorted(str(p) for p in directory.glob("*.scenario.json"))
    labels = read_json(args.labels)
    check_labels(labels, [Path(path).name[: -len(".scenario.json")] for path in paths])

    # a fork pool starts all its workers at once: never more than there is work for
    jobs = min(args.jobs or os.cpu_count() or 1, len(paths))
    if jobs > 1:
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=jobs) as pool:
            verdicts = list(pool.map(_worker, [(p, schedule, engine) for p in paths]))
    else:
        verdicts = [_run_one(p, schedule, engine) for p in paths]
    verdicts.sort(key=lambda v: v.scenario_id)

    _emit(emit_report(verdicts, compute_metrics(verdicts, labels), fmt=args.fmt), args.out)
    return 0


def cmd_estimate(args, schedule: GasSchedule, engine: EngineConfig) -> int:
    scenario = load_scenario(args.scenario)
    env = build_environment(scenario, schedule, car_gas_guard=engine.car_gas_guard,
                            cah_iterations=engine.cah_iterations)
    rows = []
    for kind, estimate in estimate_kinds(env, ALL_ACTOR_KINDS, engine.growth):
        if isinstance(estimate, Status):
            rows.append((kind.value, {"error": f"never succeeds: {estimate}"}))
        else:
            # estimate-v1 has the key: every estimate is verified by a probe
            rows.append((kind.value, {"value": estimate.value, "trials": estimate.trials,
                                      "converged": True}))
    if args.fmt == "json":
        text = json.dumps({"schema": "estimate-v1", "scenario": scenario.scenario_id,
                           "estimates": dict(rows)}, indent=2) + "\n"
    else:
        lines = [f"{scenario.scenario_id}:"]
        for kind, info in rows:
            if "error" in info:
                lines.append(f"  {kind:<4} {info['error']}")
            else:
                lines.append(f"  {kind:<4} value={info['value']} "
                             f"trials={info['trials']} converged={info['converged']}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


COMMANDS = {"check": cmd_check, "bench": cmd_bench, "estimate": cmd_estimate}

# set by the first `main` call (see the module docstring); a flag, since
# gc.get_freeze_count() walks every frozen object
_frozen = False


def main(argv=None) -> int:
    global _frozen
    if not _frozen:  # freezing again would keep the earlier runs' objects for good
        gc.freeze()
        _frozen = True
    args = PARSER.parse_args(argv)
    try:
        return COMMANDS[args.command](args, *_build_config(args))
    except (InputError, OSError) as exc:
        code, line = 2, f"mtsc: error: {exc}"
    except Exception as exc:  # exit 1 means "a relation was violated"; a crash must not say so
        code, line = 3, f"mtsc: internal error: {type(exc).__name__}: {exc}"
    # escape what a terminal cannot show (a control character, a lone surrogate)
    print("".join(c if c.isprintable() else ascii(c)[1:-1] for c in line), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
