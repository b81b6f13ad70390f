"""The pipeline's records keep what their `dataclasses` versions gave.

Frozen records, named tuples and `FrozenRecord` classes alike, refuse
assignment, compare and hash by their fields; the ones that cross the
`bench` pool's process boundary pickle unchanged. AST nodes stay mutable,
compare without their positions and show them in their repr.
"""

import copy
import pickle
import types

import pytest

from mtsc.agents import AgentKind, AgentSpec, _lit
from mtsc.detector import Counts, Verdict, compute_metrics, verdict_for
from mtsc.gas_oracle import IntrinsicGas
from mtsc.minisol import ParseError, ast, parse
from mtsc.minisol.record import Record
from mtsc.mr_engine import ActorInput, EngineConfig, EngineResult, TestPair, run_all
from mtsc.relations import RELATIONS
from mtsc.scenario import Environment, build_environment, load_scenario
from mtsc.vm import STATUS_SUCCESS, FailReason, GasSchedule, Outcome, WorldState, failure

from conftest import scenario_path

S = GasSchedule()


def vulnerable_verdict() -> Verdict:
    return verdict_for(run_all(load_scenario(scenario_path("simple_dao_withdraw")), S))


def pool_payloads():
    """What `bench --jobs N` sends to its workers and gets back."""
    return [
        vulnerable_verdict(),
        GasSchedule(sload=400, stipend=1_000, sstore_set=25_000),
        EngineConfig(n=37, inc_count=2, growth=2.0, mr_filter=["MR1.1", "MR2.2"],
                     mr1_actors_override=["EOA", "CAR"]),
    ]


def frozen_records():
    """(record, a copy of it built apart, a record of its class that
    differs in one field) of each frozen kind."""
    source = ActorInput(AgentKind.EOA, "0x0002", 50_000)
    follow = ActorInput(AgentKind.CAR, "0x0009", 60_000)
    ok = Outcome(STATUS_SUCCESS, 1, 2, (), (1, 2))
    reverted = Outcome(failure(FailReason.REVERT), 3, 0)

    def spec(iterations):
        return AgentSpec(AgentKind.CAH, "0x0003", "withdraw", (1,), 0, 2_300,
                         cah_iterations=iterations)

    makers = [
        (lambda: failure(FailReason.OUT_OF_GAS), failure(FailReason.REVERT)),
        (lambda: TestPair("MR1.1", source, follow, ok, reverted),
         TestPair("MR1.1", source, follow, ok, ok)),
        (lambda: spec(2), spec(3)),
        (lambda: IntrinsicGas(57_216, 3), IntrinsicGas(57_216, 4)),
        (lambda: Counts(1, 2, 3), Counts(1, 2, 4)),
        (lambda: GasSchedule(sload=400), GasSchedule(sload=401)),
        (lambda: EngineConfig(n=7, mr_filter=["MR2.1"]),
         EngineConfig(n=7, mr_filter=["MR2.2"])),
    ]
    return [(make(), make(), other) for make, other in makers]


@pytest.mark.parametrize("payload", pool_payloads(), ids=lambda p: type(p).__name__)
def test_pool_payloads_and_results_survive_a_pickle_round_trip(payload):
    back = pickle.loads(pickle.dumps(payload))
    assert type(back) is type(payload) and back == payload
    assert hash(back) == hash(payload)
    assert copy.deepcopy(payload) == payload


def test_a_parse_error_survives_a_pickle_round_trip():
    with pytest.raises(ParseError) as caught:
        parse("contract X { fn f( }")
    error = caught.value
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is ParseError
    assert (back.line, back.column, back.message, str(back)) \
        == (error.line, error.column, error.message, str(error))


@pytest.mark.parametrize("record,twin,_other", frozen_records(),
                         ids=lambda r: type(r).__name__)
def test_frozen_records_refuse_assignment(record, twin, _other):
    name = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(twin, name))
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert record == twin


@pytest.mark.parametrize("record,twin,other", frozen_records(),
                         ids=lambda r: type(r).__name__)
def test_frozen_records_compare_and_hash_by_their_fields(record, twin, other):
    values = tuple(getattr(record, name) for name in type(record)._fields)
    # a frozen dataclass hashed the tuple of its fields
    assert record == twin and hash(record) == hash(twin) == hash(values)
    assert record is not twin and {record: 1}[twin] == 1
    assert record != other and not record == other


def test_a_replaced_frozen_record_is_checked_again():
    with pytest.raises(ValueError, match="n and inc_count"):
        EngineConfig()._replace(n=0)
    with pytest.raises(ValueError, match="unknown relation 'MR9'"):
        EngineConfig()._replace(mr_filter=["MR9"])
    with pytest.raises(TypeError):
        GasSchedule()._replace(no_such_entry=1)
    assert GasSchedule()._replace(sload=400) == GasSchedule(sload=400)


def test_records_of_other_classes_never_compare_equal():
    assert EngineConfig() != GasSchedule()
    assert ast.IntLit(value=1) != ast.BoolLit(value=True)
    assert WorldState() != Record()


def test_mutable_records_do_not_hash():
    env = build_environment(load_scenario(scenario_path("counter_baseline")), S)
    result = EngineResult("x", [], [])
    for record in (ast.Var(name="x"), WorldState(), env.state.accounts[env.driver], env,
                   result):
        with pytest.raises(TypeError):
            hash(record)
    result.violations.append(1)
    assert result == EngineResult("x", [1], [])


def test_ast_equality_ignores_positions_and_nodes_stay_mutable():
    node = ast.Binary(line=1, col=2, op="+", left=ast.Var(line=1, col=2, name="a"),
                      right=ast.IntLit(line=1, col=6, value=1))
    moved = ast.Binary(line=7, col=9, op="+", left=ast.Var(line=7, col=9, name="a"),
                       right=ast.IntLit(line=8, col=1, value=1))
    assert node == moved
    moved.right.value = 2
    assert node != moved
    assert parse("contract C { uint x; fn f() { x = 1; } }") \
        == parse("contract C {\n  uint x;\n  fn f() {\n    x = 1;\n  }\n}")


def test_reprs_read_as_the_dataclass_ones_did():
    node = ast.Call(line=3, col=4, form="send", target=ast.This(line=3, col=9),
                    value=ast.IntLit(line=3, col=20, value=5))
    assert repr(node) == ("Call(line=3, col=4, form='send', target=This(line=3, col=9), "
                          "function=None, args=[], value=IntLit(line=3, col=20, value=5), "
                          "gas=None)")
    assert repr(GasSchedule()).startswith("GasSchedule(base_tx=21000, dispatch=100, ")
    assert repr(IntrinsicGas(5, 1)) == "IntrinsicGas(value=5, trials=1)"
    # a field named with a leading underscore is compared but not shown
    assert repr(WorldState()) == "WorldState(accounts={}, next_address=1)"


def test_contract_tables_are_plain_slots_filled_at_the_first_lookup():
    contract = parse("contract C { uint a; bool b; map m; fn f() { } fn f(x: uint) { } }"
                     ).contracts[0]
    assert isinstance(vars(ast.ContractDef)["functions_by_name"], types.MemberDescriptorType)
    table = contract.functions_by_name
    assert contract.functions_by_name is table
    assert table["f"] is contract.functions[0]  # the first declaration wins
    assert contract.defaults == {"a": 0, "b": False}
    with pytest.raises(AttributeError, match="'ContractDef' object has no attribute 'nope'"):
        contract.nope


def test_a_source_unit_names_no_contract_it_lacks():
    unit = parse("contract A { } contract B { }")
    assert unit.contract("B") is unit.contracts[1]
    assert unit.contract("C") is None


@pytest.mark.parametrize("value", [None, 1.5, ["0x0002"]])
def test_an_agent_argument_of_no_minisol_kind_is_refused(value):
    with pytest.raises(TypeError, match="cannot embed call argument"):
        _lit(value)


def test_a_fresh_environment_shares_the_context_and_keeps_no_run():
    env = build_environment(load_scenario(scenario_path("simple_dao_withdraw")), S)
    ran = env.run(AgentKind.EOA, S.block_gas_limit)
    copy_ = env.fresh()
    assert type(copy_) is Environment and copy_ == env.fresh()
    assert copy_.state is env.state and copy_.roles is env.roles
    assert copy_._kept == {} and env._kept != {}
    again = copy_.run(AgentKind.EOA, S.block_gas_limit)
    assert again == ran and again is not ran


def test_metrics_and_relations_are_named_tuples_of_their_fields():
    verdict = vulnerable_verdict()
    report = compute_metrics([verdict], {"simple_dao_withdraw": ["Reentrancy"]})
    assert report.totals == Counts(tp=1, fp=0, fn=0)
    assert RELATIONS["MR1.2"].reports_threshold and not RELATIONS["MR1.1"].reports_threshold
