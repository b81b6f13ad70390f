"""Per-layer metrics of the traced run, and the wrappers that produce them.

Layers are the program's modules. Every wrapper sits on a module-level
binding the pipeline looks up at call time, so patching the binding is
enough; `execute` is imported by name into `scenario`, `agents` and
`gas_oracle`, so each of those bindings is patched. Counts are read off
public return values (outcome traces, pair records, estimates), never
off private state.
"""

from __future__ import annotations

import functools

from mtsc import agents, cli, detector, gas_oracle, mr_engine, scenario
from mtsc.vm import CallEntered, OpExecuted
from mtsc.vm import state as vm_state

MRS = mr_engine.ALL_MRS
ESTIMATED_KINDS = ("EOA", "CAH", "CAR")

# (name, unit, better); every value is per scenario verdict unless noted
PER_LAYER = (
    [("vm.state.snapshot.calls", "count", "lower"),
     ("vm.state.snapshot_s", "s", "lower"),
     ("vm.state.restore_s", "s", "lower"),
     ("vm.state.account_copies", "count", "lower"),
     ("vm.state.context_accounts", "count", "lower"),    # mean per environment
     ("mr_engine.run_pair.calls", "count", "lower")]
    + [(f"mr_engine.executions.{mr}", "count", "lower") for mr in MRS]
    + [(f"mr_engine.sweep_s.{mr}", "s", "lower") for mr in MRS]
    + [("mr_engine.distinct_input_ratio", "ratio", "higher"),
       ("gas_oracle.estimate.calls", "count", "lower"),
       ("gas_oracle.estimate_s", "s", "lower")]
    + [(f"gas_oracle.trials.{kind}", "count", "lower") for kind in ESTIMATED_KINDS]
    + [("vm.execute.calls", "count", "lower"),
       ("vm.execute_self_s", "s", "lower"),
       ("vm.executions_per_s", "1/s", "higher"),
       ("vm.ops_charged", "count", "lower"),
       ("vm.ops_per_s", "1/s", "higher"),
       ("vm.call_frames", "count", "lower"),
       ("vm.max_depth", "count", "lower"),             # deepest call attempted
       ("agents.interact.calls", "count", "lower"),
       ("agents.interact_self_s", "s", "lower"),
       ("scenario.load_s", "s", "lower"),
       ("scenario.build_env_self_s", "s", "lower"),
       ("scenario.setup_txs", "count", "lower"),
       ("minisol.parse_s", "s", "lower"),
       ("minisol.validate_s", "s", "lower"),
       ("detector.classify_s", "s", "lower"),
       ("detector.report_s", "s", "lower"),
       ("cli.pool_wall_s", "s", "lower"),              # per `mtsc bench` call
       ("cli.worker_busy_share", "ratio", "higher"),
       ("trace.overhead_s", "s", "lower"),             # per round, traced minus untraced
       ("trace.overhead_share", "ratio", "lower")]
)

# Counts that must repeat exactly between two traced runs of one seed.
DETERMINISTIC = ([f"mr_engine.executions.{mr}" for mr in MRS]
                 + [f"gas_oracle.trials.{kind}" for kind in ESTIMATED_KINDS]
                 + ["vm.state.account_copies", "vm.ops_charged"])


def install(t, dump_dir):
    """Wrap the program's public functions; `t.unpatch()` undoes it."""
    counts, maxima = t.counts, t.maxima

    def after_execute(outcome, args, kwargs, dur):
        ops = frames = depth = 0
        for ev in outcome.trace:
            kind = type(ev)
            if kind is OpExecuted:
                ops += 1
            elif kind is CallEntered:
                frames += 1
                depth = max(depth, ev.depth + 1)
        counts["vm.ops_charged"] += ops
        counts["vm.call_frames"] += frames
        maxima["vm.max_depth"] = max(maxima["vm.max_depth"], depth)
        if t.current() == "scenario.build_env":
            counts["scenario.setup_txs"] += 1

    seen = {"env": None, "inputs": set()}

    def after_pair(pair, args, kwargs, dur):
        counts[f"executions:{pair.mr_id}"] += 2
        counts[f"sweep_ns:{pair.mr_id}"] += dur
        if seen["env"] is not args[0]:
            seen["env"], seen["inputs"] = args[0], set()
        for actor in (pair.source, pair.follow_up):
            key = (actor.kind, actor.gas_limit)
            if key not in seen["inputs"]:
                seen["inputs"].add(key)
                counts["distinct_inputs"] += 1

    def after_estimate(gc, args, kwargs, dur):
        kind = getattr(kwargs.get("runner"), "perfbench_kind", None)
        counts[f"trials:{kind.value if kind else None}"] += gc.trials

    def after_build(env, args, kwargs, dur):
        counts["context_accounts"] += len(env.state.accounts)

    runner_for = scenario.Environment.runner_for

    @functools.wraps(runner_for)
    def tagged_runner_for(self, kind):
        runner = runner_for(self, kind)
        runner.perfbench_kind = kind
        return runner

    t.patch(vm_state.WorldState, "snapshot", "vm.state.snapshot")
    t.patch(vm_state.WorldState, "restore", "vm.state.restore")
    t.patch_counter(vm_state.Account, "__deepcopy__", "vm.state.account_copies")
    for owner, attr in ((scenario, "execute"), (agents, "execute"),
                        (gas_oracle, "vm_execute")):
        t.patch(owner, attr, "vm.execute", after_execute)
    t.patch(scenario, "agent_interact", "agents.interact")
    t.patch(cli, "load_scenario", "scenario.load")
    for owner in (cli, mr_engine):
        t.patch(owner, "build_environment", "scenario.build_env", after_build)
        t.patch(owner, "estimate_intrinsic_gas", "gas_oracle.estimate", after_estimate)
    t.patch(scenario, "parse", "minisol.parse")
    t.patch(scenario, "validate", "minisol.validate")
    t.replace(scenario.Environment, "runner_for", tagged_runner_for)
    t.patch(cli, "run_all", "mr_engine.run_all")
    t.patch(mr_engine, "run_pair", "mr_engine.run_pair", after_pair)
    t.patch(detector, "classify", "detector.classify")
    t.patch(cli, "emit_report", "detector.report")
    t.replace(cli, "_worker", t.worker_entry(cli._worker, "cli.worker", dump_dir))
    t.replace(cli, "ProcessPoolExecutor", t.pool_class())


def metrics(t, verdicts: int, overhead_s: float, untraced_round_s: float) -> dict:
    """Per-layer values from a tracer that saw `verdicts` scenario verdicts."""
    c, calls = t.counts, t.calls

    def per(value):
        return value / verdicts

    def secs(ns):
        return ns / 1e9

    execute_s = secs(t.incl_ns["vm.execute"])
    executions = sum(c[f"executions:{mr}"] for mr in MRS)
    pool_s = secs(t.incl_ns["cli.pool"])
    values = {
        "vm.state.snapshot.calls": per(calls["vm.state.snapshot"]),
        "vm.state.snapshot_s": per(secs(t.incl_ns["vm.state.snapshot"])),
        "vm.state.restore_s": per(secs(t.incl_ns["vm.state.restore"])),
        "vm.state.account_copies": per(c["vm.state.account_copies"]),
        "vm.state.context_accounts": (c["context_accounts"] / calls["scenario.build_env"]
                                      if calls["scenario.build_env"] else 0.0),
        "mr_engine.run_pair.calls": per(calls["mr_engine.run_pair"]),
        "mr_engine.distinct_input_ratio": (c["distinct_inputs"] / executions
                                           if executions else 0.0),
        "gas_oracle.estimate.calls": per(calls["gas_oracle.estimate"]),
        "gas_oracle.estimate_s": per(secs(t.incl_ns["gas_oracle.estimate"])),
        "vm.execute.calls": per(calls["vm.execute"]),
        "vm.execute_self_s": per(secs(t.self_ns["vm.execute"])),
        "vm.executions_per_s": calls["vm.execute"] / execute_s if execute_s else 0.0,
        "vm.ops_charged": per(c["vm.ops_charged"]),
        "vm.ops_per_s": c["vm.ops_charged"] / execute_s if execute_s else 0.0,
        "vm.call_frames": per(c["vm.call_frames"]),
        "vm.max_depth": float(t.maxima["vm.max_depth"]),
        "agents.interact.calls": per(calls["agents.interact"]),
        "agents.interact_self_s": per(secs(t.self_ns["agents.interact"])),
        "scenario.load_s": per(secs(t.incl_ns["scenario.load"])),
        "scenario.build_env_self_s": per(secs(t.self_ns["scenario.build_env"])),
        "scenario.setup_txs": per(c["scenario.setup_txs"]),
        "minisol.parse_s": per(secs(t.incl_ns["minisol.parse"])),
        "minisol.validate_s": per(secs(t.incl_ns["minisol.validate"])),
        "detector.classify_s": per(secs(t.incl_ns["detector.classify"])),
        "detector.report_s": per(secs(t.incl_ns["detector.report"])),
        "cli.pool_wall_s": pool_s / calls["cli.pool"] if calls["cli.pool"] else 0.0,
        "cli.worker_busy_share": (secs(t.incl_ns["cli.worker"])
                                  / (pool_s * c["cli.pool_workers"] / calls["cli.pool"])
                                  if calls["cli.pool"] else 0.0),
        "trace.overhead_s": overhead_s,
        "trace.overhead_share": overhead_s / untraced_round_s,
    }
    for mr in MRS:
        values[f"mr_engine.executions.{mr}"] = per(c[f"executions:{mr}"])
        values[f"mr_engine.sweep_s.{mr}"] = per(secs(c[f"sweep_ns:{mr}"]))
    for kind in ESTIMATED_KINDS:
        values[f"gas_oracle.trials.{kind}"] = per(c[f"trials:{kind}"])
    return values
