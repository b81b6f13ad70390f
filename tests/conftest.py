import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

sys.path.insert(0, str(ROOT / "src"))

from mtsc.vm import GasSchedule  # noqa: E402

from support import digest  # noqa: E402

CORPUS_SCENARIOS = sorted(p.name[: -len(".scenario.json")]
                          for p in CORPUS.glob("*.scenario.json"))


@pytest.fixture(scope="session")
def schedule():
    return GasSchedule()


def scenario_path(name: str) -> Path:
    path = CORPUS / f"{name}.scenario.json"
    if not path.exists():
        path = FIXTURES / f"{name}.scenario.json"
    return path


@pytest.fixture(scope="session")
def context_digests():
    """name -> digest of that scenario's shared context as `environments`
    built it, so a test sees any drift an earlier test left behind."""
    return {}


@pytest.fixture(scope="session")
def environments(schedule, context_digests):
    """Shared post-setup contexts for every corpus scenario; tests must
    only run against clones or restore their snapshots."""
    from mtsc.scenario import build_environment, load_scenario

    envs = {}
    for name in CORPUS_SCENARIOS:
        env = envs[name] = build_environment(load_scenario(scenario_path(name)), schedule)
        context_digests[name] = digest(env.state)
    return envs


@pytest.fixture
def unmemoised(environments):
    """name -> that scenario's shared context behind an empty memo, so an
    input a test runs through `Environment.run` reaches the VM unless a run
    the test made answers it."""
    return lambda name: environments[name].fresh()


@pytest.fixture
def target_runs(monkeypatch):
    """(env, kind, gas limit, digest of the state it starts from) of every
    `Environment.run_target` call made while the test runs, in order."""
    from mtsc.scenario import Environment

    runs = []
    run_target = Environment.run_target

    def counted(self, state, kind, gas_limit):
        runs.append((self, kind, gas_limit, digest(state)))
        return run_target(self, state, kind, gas_limit)

    monkeypatch.setattr(Environment, "run_target", counted)
    return runs
