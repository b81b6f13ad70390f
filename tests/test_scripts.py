"""The helper scripts under scripts/ run end to end."""

import importlib.util
import re
import subprocess
import sys

from mtsc.gas_oracle import allocate_reducing

from conftest import ROOT, scenario_path


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gas_response_sweep_shows_the_invariance_ranges(capsys):
    sweep = load_script("gas_response_sweep")

    assert sweep.main([str(scenario_path("simple_dao_withdraw")), "CAR",
                       "--points", "4"]) == 0
    out = capsys.readouterr().out
    # the CAR fallback's `gasleft() > guard` is false up to the limit at
    # which it reads the guard itself; one unit higher it re-enters
    assert "source range: [57216, 99818]" in out
    assert "Failure(OutOfGas)" in out
    assert re.search(r"\n +57216 +Success .* \[57216, 99818\] ", out)

    assert sweep.main([str(scenario_path("dividend_vault_payout")), "EOA",
                       "--points", "4"]) == 0
    out = capsys.readouterr().out
    # the rough estimate's block-limit run answers the only probe
    assert "estimate 56409: 1 trials, 0 of them reached the runner" in out
    assert "source range: [56409, 30000000]" in out


def test_gas_response_sweep_shows_where_the_mr12_sweep_stops(capsys):
    sweep = load_script("gas_response_sweep")
    assert sweep.main([str(scenario_path("simple_dao_withdraw")), "CAR",
                       "--points", "2"]) == 0
    out = capsys.readouterr().out
    # the engine's MR1.2 sweep of this source runs 1 pair: its follow-up
    # fails out of gas at every lower limit
    assert "intrinsic gas for CAR: 57216 " in out
    limit = allocate_reducing(57_216)[0]
    # the verification probe at 57216 lies in the range of the growth
    # phase's first success
    assert ("estimate 57216: 3 trials, 2 of them reached the runner, "
            "1 answered from a range\n") in out
    assert f"MR1.2 follow-up {limit}: Failure(OutOfGas), range [0, 57215]\n\n" in out


def test_gas_response_sweep_prints_the_ranges_of_an_mr12_sweep(capsys):
    sweep = load_script("gas_response_sweep")
    assert sweep.main([str(scenario_path("crowd_pay_guarded")), "CAH",
                       "--points", "2"]) == 0
    out = capsys.readouterr().out
    assert "intrinsic gas for CAH: 127822 " in out
    follow_ups = re.findall(r"MR1\.2 follow-up (\d+): (\S+), range \[(\d+), (\d+)\]", out)
    # out of gas down to where the heavy fallback starves, which turns the
    # target to its Revert; lower down the target runs out before its call
    (first, _, lo, hi), (second, status, _, _), (_, _, last_lo, _) = follow_ups
    assert (int(first), int(hi)) == (127_695, 127_821)
    assert 107_121 < int(lo) <= 107_248
    assert (int(second), status) == (107_121, "Failure(Revert)")
    assert last_lo == "0"


def test_gas_response_sweep_stops_quietly_when_its_reader_goes_away():
    # `... | head -3` used to end in a BrokenPipeError traceback
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / "gas_response_sweep.py"),
         str(scenario_path("crowd_pay_guarded")), "CAH", "--points", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader goes away before the first line
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")
