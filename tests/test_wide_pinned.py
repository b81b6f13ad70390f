"""The wide path: `check --format json` bytes and exit codes of corpus
scenarios widened by funded, depositing holders.

The golden corpus report never replays a holder. These cases widen each
corpus scenario whose target contract has a deposit function (a payable
`fn f(x: addr)`) by 0, 100 and 300 holders, each depositing for itself
(`test_replay.widened`), and pin the sha256 of the report under the
default flags and under the account-switching relations alone.
"""

import hashlib
import json

import pytest

from conftest import CORPUS_SCENARIOS
from test_cli import run_cli
from test_replay import widened

SWITCH_ONLY = "--mr MR2.1,MR2.2,MR2.3"

# (scenario, holders, extra flags) -> (exit code, sha256 of stdout)
PINNED = {
    ("dividend_vault_payout", 0, ""):
        (0, "0ba74e687509a81a434585d826ba54b9cbbde255da5fd9b4507862ecb397d30b"),
    ("dividend_vault_payout", 0, SWITCH_ONLY):
        (0, "c264f1312f9df675b33a91b950dd759189ef41d1fef745e0cc962018f8c720af"),
    ("dividend_vault_payout", 100, ""):
        (0, "9eb0dfd0e5a75af59a9cf17f3fe7c3c9f7b41bccc54e7e8f0674987c2604e9f1"),
    ("dividend_vault_payout", 100, SWITCH_ONLY):
        (0, "632ba62a1fb39df3cd4f6dbbb0758280340faf16bc2edaba445cbe5ca6003db6"),
    ("dividend_vault_payout", 300, ""):
        (0, "35e1b398d82a9acf4fb5f03086d4673533f0783037bf949b5b379ca4719894b0"),
    ("dividend_vault_payout", 300, SWITCH_ONLY):
        (0, "c81e803854b848b1ea2097088c1cd6aa90a7682a9dcf6835e1ac692a79a218fa"),
    ("simple_dao_withdraw", 0, ""):
        (1, "495ad0c1d9f89b4ea91bef6258f327aa7fd58e8ad59ad976799b2d6bf690a5a9"),
    ("simple_dao_withdraw", 0, SWITCH_ONLY):
        (1, "c7f1ebad92dd54312c7ac62eef3af535ebb01583d5dda4184427529dfaf84cb9"),
    ("simple_dao_withdraw", 100, ""):
        (1, "55de041c0822aa41c0ec1f6d6f67cd9d9080f1a7b7a72f946ec336793eef8e6e"),
    ("simple_dao_withdraw", 100, SWITCH_ONLY):
        (1, "f50a76ad056b490e082a97768aceec6e3b6d5a848718d401bb6f12dc664215d5"),
    ("simple_dao_withdraw", 300, ""):
        (1, "138cea311de8c2a59099043faa46e804f4b91dd5edb5df8cbfec64efcd2bd5aa"),
    ("simple_dao_withdraw", 300, SWITCH_ONLY):
        (1, "ee91cd97847f13ad06ebfd9020e3b730cf13fddfab38d915159150394d831bcc"),
    ("simple_dao_withdraw_a", 0, ""):
        (1, "588c226852d1bda9ec5b6e91896879ae094b13ed59ae3507677f122572eb7419"),
    ("simple_dao_withdraw_a", 0, SWITCH_ONLY):
        (1, "588c226852d1bda9ec5b6e91896879ae094b13ed59ae3507677f122572eb7419"),
    ("simple_dao_withdraw_a", 100, ""):
        (1, "17d79f24e55191b93f9847c6c8a41f93b8e7e9e0a97614c2d9212b37222b05fa"),
    ("simple_dao_withdraw_a", 100, SWITCH_ONLY):
        (1, "17d79f24e55191b93f9847c6c8a41f93b8e7e9e0a97614c2d9212b37222b05fa"),
    ("simple_dao_withdraw_a", 300, ""):
        (1, "7a4e6529c30f2e754416c6951103c29081812ad9dcfeb293f7af3e5a292939f3"),
    ("simple_dao_withdraw_a", 300, SWITCH_ONLY):
        (1, "7a4e6529c30f2e754416c6951103c29081812ad9dcfeb293f7af3e5a292939f3"),
    ("simple_dao_withdraw_b", 0, ""):
        (1, "fc72e56f0c88b4451563c9728359c1ed0911f495c2199bccfc28d6ec825869a0"),
    ("simple_dao_withdraw_b", 0, SWITCH_ONLY):
        (1, "fc72e56f0c88b4451563c9728359c1ed0911f495c2199bccfc28d6ec825869a0"),
    ("simple_dao_withdraw_b", 100, ""):
        (1, "5db1d8a2427609dbfc9df00647f6fd6934e8ab4ec4a73cb3a9db6e2457d278a2"),
    ("simple_dao_withdraw_b", 100, SWITCH_ONLY):
        (1, "5db1d8a2427609dbfc9df00647f6fd6934e8ab4ec4a73cb3a9db6e2457d278a2"),
    ("simple_dao_withdraw_b", 300, ""):
        (1, "b7b38e8b544a27ec261b00efcac05cd3119aeddc0a904179d9ddf2940b8bd961"),
    ("simple_dao_withdraw_b", 300, SWITCH_ONLY):
        (1, "b7b38e8b544a27ec261b00efcac05cd3119aeddc0a904179d9ddf2940b8bd961"),
    ("token_ether_transfer", 0, ""):
        (1, "129c49982ec377cea729d8abb7520721ddc527ba047b0d0ed962abb3a4351e5d"),
    ("token_ether_transfer", 0, SWITCH_ONLY):
        (1, "f3c4286ec9c2f5e42674dbd28975d13c5673147c4e3544ecccc858e883a66ff7"),
    ("token_ether_transfer", 100, ""):
        (1, "702a3d56b4512ba6fa055b323744b7300bad95bb5d07ef1d0f252ffc9fd592be"),
    ("token_ether_transfer", 100, SWITCH_ONLY):
        (1, "a4f9e83875adc2f01344f78a814b553bcd2c067d3da481c9d1f6df9b3f288449"),
    ("token_ether_transfer", 300, ""):
        (1, "4984ba7a92e8180c7e9db562655c1733bf50510d1d669bdd94303dddd01eb6c7"),
    ("token_ether_transfer", 300, SWITCH_ONLY):
        (1, "5dada179216c5478fe03ac2e9433e9598a4b588f5f9895214ed1fe47097a5dfd"),
}


@pytest.mark.parametrize("name,holders,flags", sorted(PINNED),
                         ids=[f"{n}-{h}-{'switch' if f else 'default'}"
                              for n, h, f in sorted(PINNED)])
def test_widened_reports_are_pinned(tmp_path, capsys, name, holders, flags):
    path = tmp_path / f"{name}_{holders}.scenario.json"
    path.write_text(json.dumps(widened(name, holders)))
    code, out, err = run_cli(capsys, "check", str(path), "--format", "json", *flags.split())
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest, err) == (*PINNED[name, holders, flags], "")


def test_the_pins_cover_every_depositing_scenario():
    depositing = {name for name in CORPUS_SCENARIOS
                  if any(entry["actor"] == "holder_000" and entry.get("function")
                         for entry in widened(name, 1).get("setup", []))}
    assert {name for name, _, _ in PINNED} == depositing
    assert len(depositing) == 5
    assert {(h, f) for _, h, f in PINNED} == {(h, f) for h in (0, 100, 300)
                                              for f in ("", SWITCH_ONLY)}
