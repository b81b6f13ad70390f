"""mtsc: metamorphic testing for smart-contract vulnerabilities.

Executes transactions against an embedded gas-metered mini-EVM under
systematically varied gas allocations and interacting-account types, and
flags violations of five metamorphic relations that indicate reentrancy,
gasless-send, and exception-disorder defects.

Library entry points:

    scenario = mtsc.load_scenario("corpus/simple_dao_withdraw.scenario.json")
    verdict = mtsc.run_all(scenario, mtsc.GasSchedule())
"""

from .detector import classify, compute_metrics, emit_report
from .mr_engine import EngineConfig, run_all
from .scenario import build_environment, load_scenario
from .vm import GasSchedule

__version__ = "0.1.0"

__all__ = [
    "EngineConfig", "GasSchedule", "build_environment", "classify",
    "compute_metrics", "emit_report", "load_scenario", "run_all", "__version__",
]
