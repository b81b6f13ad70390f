"""The helper scripts under scripts/ run end to end."""

import importlib.util

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
    # the CAR fallback reads gasleft under the target's unbounded lowcall
    assert "gas-certified source: no (deepest gas-sensitive event at depth 2)" in out
    assert "Failure(OutOfGas)" in out

    assert sweep.main([str(scenario_path("dividend_vault_payout")), "EOA",
                       "--points", "4"]) == 0
    out = capsys.readouterr().out
    assert "gas-certified source: yes (deepest gas-sensitive event at depth -1)" in out


def test_gas_response_sweep_shows_where_the_mr12_sweep_stops(capsys):
    sweep = load_script("gas_response_sweep")
    assert sweep.main([str(scenario_path("simple_dao_withdraw")), "CAR",
                       "--points", "2"]) == 0
    out = capsys.readouterr().out
    # the engine's MR1.2 sweep of this source runs 92 pairs
    assert "intrinsic gas for CAR: 57216 " in out
    limit = allocate_reducing(57_216).limits[91]
    assert (f"highest certified-failure MR1.2 follow-up: {limit} "
            "(deepest gas-sensitive event below at depth -1)") in out


def test_gas_response_sweep_without_a_certified_failure(monkeypatch, capsys):
    sweep = load_script("gas_response_sweep")
    monkeypatch.setattr(sweep, "gas_certified", lambda kind, outcome: False)
    assert sweep.main([str(scenario_path("dividend_vault_payout")), "EOA",
                       "--points", "2"]) == 0
    out = capsys.readouterr().out
    assert "gas-certified source: no (deepest gas-sensitive event at depth -1)" in out
    assert "highest certified-failure MR1.2 follow-up: none\n" in out
