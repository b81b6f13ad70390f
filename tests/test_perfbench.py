"""The benchmark's traced run still finds the program functions it wraps."""

import importlib.util

from mtsc import detector, mr_engine
from mtsc.relations import RELATIONS
from mtsc.scenario import load_scenario
from mtsc.vm import GasSchedule

from conftest import ROOT, scenario_path


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_counts_executions_and_estimator_trials(tmp_path):
    tracer, layers = load_perfbench("tracer"), load_perfbench("layers")
    t = tracer.Tracer()
    layers.install(t, tmp_path)
    # the scenario file leaves MR2.3 out; select all five relations
    scenario = load_scenario(scenario_path("simple_dao_withdraw"))._replace(
        mrs=tuple(RELATIONS))
    try:
        detector.verdict_for(mr_engine.run_all(scenario, GasSchedule()))
    finally:
        t.unpatch()
    assert t.calls["vm.execute"] > 0
    assert t.calls["mr_engine.run_pair"] > 0
    # a relation whose pairs bypass the wrapped `run_pair` counts no executions
    for mr in RELATIONS:
        assert t.counts[f"executions:{mr}"] > 0, mr
    assert t.calls["detector.classify"] == 1
    # the estimator is called with `runner=`, and `runner_for` tags each
    # runner with its actor kind
    for kind in ("EOA", "CAH", "CAR"):
        assert t.counts[f"trials:{kind}"] > 0, kind
    assert t.counts["trials:None"] == 0

