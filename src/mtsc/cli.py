"""Command-line frontend: `mtsc check | bench | estimate`.

Exit codes: 0 no relation violated, 1 at least one relation violated
(check), 2 usage or configuration errors (including unparsable or invalid
contracts), 3 an internal error, reported as one `mtsc: internal error:
...` line. Runs are fully deterministic; repeated invocations produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .agents import AgentKind
from .detector import UnknownScenario, Verdict, compute_metrics, emit_report
from .gas_oracle import NeverSucceeds
from .gas_oracle import estimate_intrinsic_gas  # noqa: F401  perfbench's traced run wraps it
from .mr_engine import EngineConfig, estimate_kinds, run_all
from .relations import CATEGORIES, RELATIONS
from .scenario import ALL_ACTOR_KINDS, ScenarioError, build_environment, load_scenario
from .vm import GasSchedule, ScheduleError, load_schedule


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class Config:
    schedule: GasSchedule
    engine: EngineConfig
    fmt: str = "text"
    out: Optional[str] = None
    jobs: int = 1  # 0 = number of cores


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--schedule", metavar="PATH",
                        help="gas schedule file (key=value lines)")
    common.add_argument("--n", type=int, default=EngineConfig.n,
                        help="subdivisions of the reducing gas sweep (default %(default)s)")
    common.add_argument("--inc-count", type=int, default=EngineConfig.inc_count,
                        help="follow-ups per increasing gas sweep (default %(default)s)")
    common.add_argument("--growth", type=float, default=EngineConfig.growth,
                        help="estimator growth factor (default %(default)s)")
    common.add_argument("--car-gas-guard", type=int, default=EngineConfig.car_gas_guard,
                        help="recursion guard of the CAR agent (default %(default)s)")
    common.add_argument("--cah-iterations", type=int, default=EngineConfig.cah_iterations,
                        help="storage writes in the CAH fallback (default %(default)s)")
    common.add_argument("--mr", metavar="LIST",
                        help="comma-separated relations to run (restricts scenarios)")
    common.add_argument("--mr1-actors", metavar="LIST",
                        help="comma-separated actor kinds for the gas relations")
    common.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    common.add_argument("--out", metavar="PATH", help="write the report to a file")
    common.add_argument("--jobs", type=int, default=Config.jobs,
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


def _parse_args(argv):
    return PARSER.parse_args(argv)


def _build_config(args) -> Config:
    if args.jobs < 0:
        raise UsageError("--jobs must be non-negative")
    try:
        schedule = load_schedule(args.schedule) if args.schedule else GasSchedule()
    except (ScheduleError, OSError) as exc:
        raise UsageError(str(exc))
    if args.car_gas_guard <= schedule.stipend:
        raise UsageError("--car-gas-guard must exceed the transfer stipend")
    mr_filter = None
    if args.mr:
        mr_filter = tuple(m.strip() for m in args.mr.split(","))
        for m in mr_filter:
            if m not in RELATIONS:
                raise UsageError(f"unknown relation {m!r}")
    actors = None
    if args.mr1_actors:
        try:
            actors = tuple(AgentKind(a.strip()) for a in args.mr1_actors.split(","))
        except ValueError as exc:
            raise UsageError(str(exc))
    try:
        engine = EngineConfig(n=args.n, inc_count=args.inc_count, growth=args.growth,
                              car_gas_guard=args.car_gas_guard,
                              cah_iterations=args.cah_iterations,
                              mr_filter=mr_filter, mr1_actors_override=actors)
    except ValueError as exc:
        raise UsageError(str(exc))
    return Config(schedule=schedule, engine=engine, fmt=args.fmt, out=args.out,
                  jobs=args.jobs)


def _emit(text: str, out: Optional[str]):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _run_one(path: str, config: Config) -> Verdict:
    from .detector import verdict_for  # local import keeps workers lean

    scenario = load_scenario(path)
    return verdict_for(run_all(scenario, config.schedule, config.engine))


def _worker(payload):
    path, config = payload
    return _run_one(path, config)


def cmd_check(args, config: Config) -> int:
    verdict = _run_one(args.scenario, config)
    _emit(emit_report([verdict], fmt=config.fmt), config.out)
    return 1 if verdict.has_violations else 0


def cmd_bench(args, config: Config) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise UsageError(f"{directory} is not a directory")
    paths = sorted(str(p) for p in directory.glob("*.scenario.json"))
    try:
        labels = json.loads(Path(args.labels).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot load labels: {exc}")
    if not isinstance(labels, dict) or not all(
            isinstance(v, list) for v in labels.values()):
        raise UsageError("labels must map scenario ids to category lists")
    for sid, categories in labels.items():
        for category in categories:
            if category not in CATEGORIES:
                raise UsageError(f"unknown category {category!r} in the labels of {sid!r}")

    for path in paths:
        sid = Path(path).name[: -len(".scenario.json")]
        if sid not in labels:
            raise UsageError(f"no label for scenario {sid!r}")

    # a fork pool starts all its workers at once: never more than there is work for
    jobs = min(args.jobs or os.cpu_count() or 1, len(paths))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            verdicts = list(pool.map(_worker, [(p, config) for p in paths]))
    else:
        verdicts = [_run_one(p, config) for p in paths]
    verdicts.sort(key=lambda v: v.scenario_id)

    if not verdicts:
        metrics = compute_metrics([], {})
    else:
        metrics = compute_metrics(verdicts, labels)
    _emit(emit_report(verdicts, metrics, fmt=config.fmt), config.out)
    return 0


def cmd_estimate(args, config: Config) -> int:
    scenario = load_scenario(args.scenario)
    env = build_environment(scenario, config.schedule,
                            car_gas_guard=config.engine.car_gas_guard,
                            cah_iterations=config.engine.cah_iterations)
    rows = []
    for kind, gc in estimate_kinds(env, ALL_ACTOR_KINDS, config.engine.growth):
        if isinstance(gc, NeverSucceeds):
            rows.append((kind.value, {"error": f"never succeeds: {gc.status}"}))
        else:
            rows.append((kind.value, {"value": gc.value, "trials": gc.trials,
                                      "converged": gc.converged}))
    if config.fmt == "json":
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
    _emit(text, config.out)
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        config = _build_config(args)
        if args.command == "check":
            return cmd_check(args, config)
        if args.command == "bench":
            return cmd_bench(args, config)
        return cmd_estimate(args, config)
    except (UsageError, ScenarioError, ScheduleError, UnknownScenario, OSError) as exc:
        print(f"mtsc: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means "a relation was violated"; a crash must not say so
        print(f"mtsc: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
