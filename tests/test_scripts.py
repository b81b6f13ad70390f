"""The helper scripts under scripts/ run end to end."""

import importlib.util
import re

from mtsc.gas_oracle import allocate_reducing

from conftest import ROOT, scenario_path


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gas_response_sweep_shows_the_certificate(capsys):
    sweep = load_script("gas_response_sweep")

    assert sweep.main([str(scenario_path("simple_dao_withdraw")), "CAR",
                       "--points", "4"]) == 0
    out = capsys.readouterr().out
    # the CAR fallback's gasleft guard holds only up to where it re-enters
    assert "source range: [57216, 99817]" in out
    assert "Failure(OutOfGas)" in out
    assert re.search(r"\n +57216 +Success .* \[57216, 99817\] ", out)

    assert sweep.main([str(scenario_path("dividend_vault_payout")), "EOA",
                       "--points", "4"]) == 0
    out = capsys.readouterr().out
    assert "source range: [56409, 30000000]" in out


def test_gas_response_sweep_shows_where_the_mr12_sweep_stops(capsys):
    sweep = load_script("gas_response_sweep")
    assert sweep.main([str(scenario_path("simple_dao_withdraw")), "CAR",
                       "--points", "2"]) == 0
    out = capsys.readouterr().out
    # the engine's MR1.2 sweep of this source runs 1 pair: its follow-up
    # fails out of gas at every lower limit
    assert "intrinsic gas for CAR: 57216 " in out
    limit = allocate_reducing(57_216).limits[0]
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
