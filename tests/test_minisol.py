"""Parser, validator, and pretty-printer for the contract language."""

import copy

import pytest

from mtsc.minisol import ParseError, parse, pretty, validate
from mtsc.minisol import ast
from mtsc.minisol.parser import MAX_NESTING

from conftest import CORPUS

SIMPLE_DAO = (CORPUS / "simple_dao.msol").read_text()


def corpus_sources():
    return sorted(CORPUS.glob("*.msol"))


def test_simple_dao_shape():
    unit = parse(SIMPLE_DAO, "simple_dao.msol")
    assert len(unit.contracts) == 1
    dao = unit.contracts[0]
    assert dao.name == "SimpleDAO"
    assert [fn.name for fn in dao.functions] == [
        "deposit", "withdraw", "withdraw_a", "withdraw_b"]
    assert dao.fallback is None
    assert [sv.kind for sv in dao.state_vars] == [ast.Kind.MAP]
    deposit = dao.function("deposit")
    assert deposit.payable
    assert not dao.function("withdraw").payable


def test_empty_contract():
    unit = parse("contract Empty { }")
    assert len(unit.contracts) == 1
    c = unit.contracts[0]
    assert c.functions == [] and c.state_vars == [] and c.fallback is None


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("contract X { fn f( { }")
    assert err.value.line == 1
    assert err.value.column == 20  # the '{' where a parameter was expected


@pytest.mark.parametrize("source", [
    "",
    "contract X {",
    "contract X { uint }",
    "contract X { fn f() { require(); } }",
    "contract X { fn f() { let = 3; } }",
    "contract X { fn f() { 1 + ; } }",
    "contract X { fn f() { msg.gas; } }",
])
def test_parse_rejects_malformed(source):
    with pytest.raises(ParseError):
        parse(source)


@pytest.mark.parametrize("source", [
    "contract A { uint x; fn f() { x = " + "(" * 600 + "1" + ")" * 600 + "; } }",
    "contract A { bool x; fn f() { x = " + "!" * 600 + "true; } }",
    "contract A { map m; fn f() { m[this] = " + "m[" * 600 + "this" + "]" * 600 + "; } }",
    "contract A { fn f() { " + "if (true) { " * 600 + "}" * 600 + " } }",
    "contract A { fn f(t: addr) { dcall " + "lowcall " * 600 + "t.f(t); } }",
    "contract R { uint x; fn f() { x = 1" + " + 1" * 799 + "; } }",
    "contract R { bool ok; fn f() { ok = (lowcall this.f())" + " && true" * 450 + "; } }",
], ids=["parentheses", "negations", "map-keys", "blocks", "call-targets",
        "sum-chain", "and-chain"])
def test_deep_nesting_is_a_parse_error(source):
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse(source)


def test_nesting_up_to_the_limit_parses():
    # the function body and the innermost literal take one level each
    depth = MAX_NESTING - 2
    source = "contract A { uint x; fn f() { x = " + "(" * depth + "1" + ")" * depth + "; } }"
    assert validate(parse(source)) == []
    with pytest.raises(ParseError):
        parse(source.replace("(", "((", 1).replace(")", "))", 1))


@pytest.mark.parametrize("chain", [" + 1", " * 1", " - 0", " || true", " && true"])
def test_each_chained_operator_counts_as_a_level(chain):
    # the function body and the first literal take one level each, and
    # every operator puts one more level above the chain parsed so far
    def source(ops):
        kind = "bool" if "true" in chain else "uint"
        first = "true" if kind == "bool" else "1"
        return f"contract A {{ {kind} x; fn f() {{ x = {first}{chain * ops}; }} }}"

    assert validate(parse(source(MAX_NESTING - 2))) == []
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse(source(MAX_NESTING - 1))


def test_chained_operands_count_their_own_depth():
    # a chain deepens its first operand by one level per operator: 30
    # parentheses around it leave room for 32 operators, not 33
    def source(ops):
        return ("contract A { uint x; fn f() { x = " + "(" * 30 + "1" + ")" * 30
                + " + 1" * ops + "; } }")

    assert validate(parse(source(MAX_NESTING - 32))) == []
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse(source(MAX_NESTING - 31))


def test_duplicate_fallback_rejected():
    src = "contract X { fallback { } fallback payable { } }"
    with pytest.raises(ParseError):
        parse(src)


def test_operator_precedence():
    unit = parse("contract X { fn f(a: uint, b: uint) { require(a + b * 2 > 3 && !(a == b)); } }")
    cond = unit.contracts[0].functions[0].body[0].condition
    assert cond.op == "&&"
    assert cond.left.op == ">"
    assert cond.left.left.op == "+"
    assert cond.left.left.right.op == "*"
    assert isinstance(cond.right, ast.Not)


def test_call_forms_parse():
    src = """
    contract X {
        map m;
        fn f(t: addr, v: uint) {
            let ok = lowcall t value v gas 2300;
            require(ok);
            require(send t value v);
            dcall t.pull(v) value v;
            transfer t value v;
            if (!(lowcall t.note(v, true))) { revert(); }
        }
    }
    """
    fn = parse(src).contracts[0].functions[0]
    low = fn.body[0].value
    assert isinstance(low, ast.LowCall) and low.function is None
    assert low.gas is not None and low.value is not None
    direct = fn.body[3].expr
    assert isinstance(direct, ast.DirectCall) and direct.function == "pull"
    assert isinstance(fn.body[4].expr, ast.Transfer)


@pytest.mark.parametrize("path", corpus_sources(), ids=lambda p: p.name)
def test_corpus_sources_validate_clean(path):
    unit = parse(path.read_text(), path.name)
    assert validate(unit) == []


@pytest.mark.parametrize("path", corpus_sources(), ids=lambda p: p.name)
def test_pretty_roundtrip_is_fixed_point(path):
    unit = parse(path.read_text(), path.name)
    printed = pretty(unit)
    reparsed = parse(printed, path.name)
    assert reparsed.contracts == unit.contracts
    assert pretty(reparsed) == printed


def test_validate_is_pure():
    unit = parse(SIMPLE_DAO)
    before = copy.deepcopy(unit)
    first = validate(unit)
    second = validate(unit)
    assert first == second == []
    assert unit.contracts == before.contracts


# -- semantic rejections -------------------------------------------------


def _errors(source):
    return [e.code for e in validate(parse(source))]


def test_duplicate_function():
    codes = _errors("contract X { fn withdraw() { } fn withdraw() { } }")
    assert "duplicate-function" in codes


def test_duplicate_contract_and_state_and_param():
    assert "duplicate-contract" in _errors(
        "contract X { } contract X { }")
    assert "duplicate-state-var" in _errors(
        "contract X { uint a; uint a; }")
    assert "duplicate-param" in _errors(
        "contract X { fn f(a: uint, a: uint) { } }")


def test_map_index_on_uint_state_var():
    codes = _errors("contract X { uint a; fn f(k: addr) { a[k] = 1; } }")
    assert "type-mismatch" in codes


def test_undeclared_name():
    assert "undeclared" in _errors("contract X { fn f() { let a = b; } }")


def test_map_requires_index():
    assert "type-mismatch" in _errors("contract X { map m; fn f() { let a = m; } }")


def test_dcall_has_no_value_result():
    codes = _errors(
        "contract X { fn f(t: addr) { let ok = dcall t.g(); } }")
    assert "no-result" in codes
    codes = _errors(
        "contract X { fn f(t: addr, v: uint) { require(transfer t value v); } }")
    assert "no-result" in codes


def test_condition_types_checked():
    assert "type-mismatch" in _errors("contract X { fn f() { require(1 + 2); } }")
    assert "type-mismatch" in _errors(
        "contract X { fn f() { if (3) { } } }")


def test_local_shadowing_rejected():
    assert "duplicate-local" in _errors(
        "contract X { uint a; fn f() { let a = 1; } }")
    assert "duplicate-local" in _errors(
        "contract X { fn f(p: uint) { let p = 1; } }")


def test_compound_assign_needs_uint():
    codes = _errors("contract X { bool flag; fn f() { flag += true; } }")
    assert "type-mismatch" in codes


def test_errors_carry_location():
    errors = validate(parse("contract X { fn f() {\n let a = b; } }"))
    assert errors and errors[0].line == 2
