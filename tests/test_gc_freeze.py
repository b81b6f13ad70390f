"""The first `cli.main` call freezes the heap, once per process.

Each case runs in a fresh interpreter: the test process has long since
called `main`, so its own freeze count says nothing.
"""

from conftest import scenario_path
from support import run_fresh


def test_importing_the_package_freezes_nothing():
    found = run_fresh(
        "import gc, json\n"
        "import mtsc\n"
        "package = gc.get_freeze_count()\n"
        "import mtsc.cli\n"
        "print(json.dumps([package, gc.get_freeze_count()]))\n")
    assert found == [0, 0]


def test_two_main_calls_freeze_once(tmp_path):
    found = run_fresh(
        "import gc, json, sys\n"
        "from mtsc.cli import main\n"
        "argv = ['check', sys.argv[1], '--out', sys.argv[2]]\n"
        "codes, counts = [], []\n"
        "for _ in range(2):\n"
        "    codes.append(main(argv))\n"
        "    counts.append(gc.get_freeze_count())\n"
        "print(json.dumps([codes, counts]))\n",
        str(scenario_path("simple_dao_withdraw")), str(tmp_path / "report.txt"))
    codes, (first, second) = found
    assert codes == [1, 1]
    assert first > 0 and second == first


def test_a_cycle_made_after_main_is_still_collected(tmp_path):
    found = run_fresh(
        "import gc, json, sys, weakref\n"
        "from mtsc.cli import main\n"
        "code = main(['check', sys.argv[1], '--out', sys.argv[2]])\n"
        "class Node:\n"
        "    pass\n"
        "node = Node()\n"
        "node.self = node\n"
        "ref = weakref.ref(node)\n"
        "del node\n"
        "gc.collect()\n"
        "print(json.dumps([code, ref() is None]))\n",
        str(scenario_path("counter_baseline")), str(tmp_path / "report.txt"))
    assert found == [0, True]
