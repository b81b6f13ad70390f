"""`build_environment` against setup replay as plain code.

The build checks every setup entry and resolves it into its
transactions in one pass, then replays them. `support.reference_setup`
checks every entry, then resolves and executes the entries one at a time
on an environment built without them. Over generated setups (holders
that deposit, plain transfers, entries naming $ACTOR, and up to two bad
arguments or unknown roles at drawn positions) both must give the same
roles, actor accounts, world state and address counter, or the same
InputError message: the first failed check in entry order, else the
first failed transaction.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from mtsc.inputs import InputError
from mtsc.scenario import ACTOR, TxTemplate, build_environment, load_scenario
from mtsc.vm import GasSchedule

from conftest import scenario_path
from support import digest, reference_setup

SCHEDULE = GasSchedule()
BASE = load_scenario(scenario_path("simple_dao_withdraw"))  # SimpleDAO: deposit, withdraw
HOLDERS = [f"holder_{i}" for i in range(4)]

amounts = st.integers(0, 2_000)
holders = st.sampled_from(HOLDERS)
accounts = st.sampled_from(HOLDERS + [ACTOR])


@st.composite
def deposits(draw):
    return TxTemplate(draw(accounts), "SimpleDAO", "deposit", (draw(accounts),),
                      draw(amounts))


@st.composite
def transfers(draw):
    callee = draw(st.sampled_from(HOLDERS + [ACTOR, "SimpleDAO"]))
    return TxTemplate(draw(accounts), callee, None, (), draw(amounts))


@st.composite
def withdrawals(draw):
    return TxTemplate(draw(accounts), "SimpleDAO", "withdraw", (draw(amounts),), 0)


# one mistake each: an argument a check rejects, or a role nothing resolves
MISTAKES = [
    TxTemplate("holder_0", "SimpleDAO", "deposit", (5,), 0),
    TxTemplate("holder_0", "SimpleDAO", "withdraw", ("holder_1",), 0),
    TxTemplate("holder_0", "SimpleDAO", "deposit", (), 0),
    TxTemplate("holder_0", "holder_1", None, ("holder_1",), 0),
    TxTemplate("nobody", "SimpleDAO", "deposit", ("holder_0",), 0),
    TxTemplate("holder_0", "nobody", None, (), 0),
    TxTemplate(ACTOR, "holder_1", "ping", ("nobody",), 0),
]


@st.composite
def setups(draw):
    entries = draw(st.lists(st.one_of(deposits(), transfers(), withdrawals()), min_size=1,
                            max_size=8))
    for mistake in draw(st.lists(st.sampled_from(MISTAKES), max_size=2)):
        entries.insert(draw(st.integers(0, len(entries))), mistake)
    return tuple(entries)


def built(build):
    """(roles, actor accounts, state digest, address counter) of the
    environment `build()` returns, or the message it raises."""
    try:
        env = build()
    except InputError as exc:
        return str(exc)
    state = env.state
    return env.roles, env.actor_accounts, digest(state), state.next_address


def by_reference(scenario):
    env = build_environment(replace(scenario, setup=()), SCHEDULE)
    reference_setup(env, scenario.setup)
    return env


@settings(deadline=None, max_examples=200)
@given(setup=setups(), stakes=st.lists(st.integers(0, 10**5), min_size=len(HOLDERS) + 1,
                                       max_size=len(HOLDERS) + 1))
def test_the_build_matches_plain_setup_replay(setup, stakes):
    balances = {"SimpleDAO": stakes[0], ACTOR: stakes[0], **dict(zip(HOLDERS, stakes[1:]))}
    scenario = replace(BASE, balances=balances, setup=setup)
    assert built(lambda: build_environment(scenario, SCHEDULE)) \
        == built(lambda: by_reference(scenario))
