"""What a fresh process imports before it runs anything.

A one-scenario `mtsc check` process spends most of its time starting up,
so `import mtsc.cli` builds no `dataclasses` class and leaves the process
pool unloaded until `bench --jobs N`, N > 1, asks for it. Each case runs
in a fresh interpreter: this one imported all of it long ago.
"""

import os
import subprocess
import sys

from conftest import CORPUS, ROOT, scenario_path
from support import cli_outputs, run_fresh
from test_cli import GOLDEN_REPORT_SHA256

LEFT_OUT = ("dataclasses", "inspect", "concurrent.futures", "multiprocessing")


def test_importing_the_command_line_loads_no_dataclasses_and_no_pool():
    found = run_fresh(
        "import json, sys\n"
        "import mtsc.cli\n"
        f"print(json.dumps([name for name in {LEFT_OUT!r} if name in sys.modules]))\n")
    assert found == []


def test_the_pool_class_is_read_from_the_module_on_first_use():
    found = run_fresh(
        "import json, sys\n"
        "from mtsc import cli\n"
        "before = 'concurrent.futures' in sys.modules\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "try:\n"
        "    cli.NoSuchName\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps([before, cli.ProcessPoolExecutor is ProcessPoolExecutor,"
        " missing]))\n")
    assert found == [False, True, "module 'mtsc.cli' has no attribute 'NoSuchName'"]


def test_python_dash_m_mtsc_checks_a_scenario():
    path = str(scenario_path("simple_dao_withdraw"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "mtsc", "check", path], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == cli_outputs("check", path)
    assert proc.returncode == 1 and "VULNERABLE [Reentrancy]" in proc.stdout


def test_a_bench_pool_imports_the_pool_and_keeps_the_golden_report(tmp_path):
    found = run_fresh(
        "import hashlib, json, sys\n"
        "from mtsc.cli import main\n"
        "code = main(['bench', sys.argv[1], sys.argv[2], '--jobs', '2',\n"
        "             '--format', 'json', '--out', sys.argv[3]])\n"
        "with open(sys.argv[3], 'rb') as fh:\n"
        "    digest = hashlib.sha256(fh.read()).hexdigest()\n"
        "print(json.dumps([code, 'concurrent.futures' in sys.modules, digest]))\n",
        str(CORPUS), str(CORPUS / "labels.json"), str(tmp_path / "report.json"))
    assert found == [0, True, GOLDEN_REPORT_SHA256]
