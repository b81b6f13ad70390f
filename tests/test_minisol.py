"""Parser, validator, and pretty-printer for the contract language."""

import copy
import pickle

import pytest

from mtsc.minisol import ParseError, parse, validate
from mtsc.minisol import ast
from mtsc.minisol.parser import MAX_NESTING

from conftest import CORPUS
from pretty import pretty

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


def test_parse_error_survives_pickling():
    # a worker process hands its errors back pickled
    with pytest.raises(ParseError) as err:
        parse("contract X { fn f( { }")
    rebuilt = pickle.loads(pickle.dumps(err.value))
    assert type(rebuilt) is ParseError
    assert (rebuilt.line, rebuilt.column, rebuilt.message, str(rebuilt)) == (
        1, 20, "expected parameter name, found '{'", "1:20: expected parameter name, found '{'")


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
    assert isinstance(low, ast.Call) and low.form == "lowcall" and low.function is None
    assert low.gas is not None and low.value is not None
    direct = fn.body[3].expr
    assert isinstance(direct, ast.Call) and direct.form == "dcall" and direct.function == "pull"
    assert isinstance(fn.body[4].expr, ast.Call) and fn.body[4].expr.form == "transfer"


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


# Every call form parses in one rule; each still takes only its own clauses.
@pytest.mark.parametrize("body,message", [
    ("send t;", "expected 'value', found ';'"),
    ("transfer t.f() value 1;", "expected 'value', found '.'"),
    ("transfer t value 1 gas 2;", "expected ';', found 'gas'"),
    ("dcall t;", "expected '.', found ';'"),
    ("dcall t.f() gas 5;", "expected ';', found 'gas'"),
    ("dcall t.f value 1;", "expected '(', found 'value'"),
    ("lowcall t.(1);", "expected function name, found '('"),
], ids=["send-no-value", "transfer-function", "transfer-gas", "dcall-no-function",
        "dcall-gas", "dcall-no-args", "lowcall-no-name"])
def test_call_forms_reject_clauses_of_other_forms(body, message):
    with pytest.raises(ParseError) as err:
        parse("contract X { fn f(t: addr) { " + body + " } }")
    assert err.value.message == message


# A built `Call` may carry a clause its form's grammar lacks; the validator
# rejects it, since `pretty` would print source that does not re-parse
# (`dcall t.g() gas 5;` used to validate clean).
@pytest.mark.parametrize("form,clauses,message", [
    ("dcall", {"function": "g", "gas": ast.IntLit(value=5)},
     "only lowcall takes gas, not dcall"),
    ("send", {"value": ast.IntLit(value=1), "gas": ast.IntLit(value=5)},
     "only lowcall takes gas, not send"),
    ("transfer", {"value": ast.IntLit(value=1), "gas": ast.IntLit(value=5)},
     "only lowcall takes gas, not transfer"),
    ("send", {"function": "g", "value": ast.IntLit(value=1)}, "send calls no function"),
    ("transfer", {"function": "g", "value": ast.IntLit(value=1)},
     "transfer calls no function"),
    ("dcall", {"value": ast.IntLit(value=1)}, "dcall must name a function"),
], ids=["dcall-gas", "send-gas", "transfer-gas", "send-function",
        "transfer-function", "dcall-no-function"])
def test_validator_rejects_clauses_of_other_forms(form, clauses, message):
    unit = parse("contract X { fn f(t: addr) { dcall t.g(); } fn g() { } }")
    stmt = unit.contracts[0].functions[0].body[0]
    stmt.expr = ast.Call(line=1, col=30, form=form, target=ast.Var(name="t"), **clauses)
    assert [(e.code, e.message) for e in validate(unit)] == [("bad-call", message)]
    with pytest.raises(ParseError):
        parse(pretty(unit))


def test_validator_accepts_every_form_as_parsed():
    source = ("contract X { fn f(t: addr) { lowcall t.g() value 1 gas 2; lowcall t value 1; "
              "dcall t.g() value 1; require(send t value 1); transfer t value 1; } "
              "fn g() payable { } }")
    assert validate(parse(source)) == []


def test_end_of_input_inside_a_contract_is_named():
    with pytest.raises(ParseError) as err:
        parse("contract X { // open")
    # the position is the end of the text, past the trailing comment
    assert (err.value.line, err.value.column) == (1, 21)
    assert err.value.message == ("expected state variable, fn, or fallback, "
                                 "found 'end of input'")
    with pytest.raises(ParseError) as err:
        parse("contract X { uint x;\n  // open")
    assert (err.value.line, err.value.column) == (2, 10)


def test_call_forms_are_one_node():
    fn = parse("contract X { fn f(t: addr) { lowcall t.g(1) value 2 gas 3; "
               "dcall t.g(1) value 2; require(send t value 2); transfer t value 2; } }"
               ).contracts[0].functions[0]
    calls = [fn.body[0].expr, fn.body[1].expr, fn.body[2].condition, fn.body[3].expr]
    one, two = ast.IntLit(value=1), ast.IntLit(value=2)
    target = ast.Var(name="t")
    assert calls == [
        ast.Call(form="lowcall", target=target, function="g", args=[one], value=two,
                 gas=ast.IntLit(value=3)),
        ast.Call(form="dcall", target=target, function="g", args=[one], value=two),
        ast.Call(form="send", target=target, value=two),
        ast.Call(form="transfer", target=target, value=two),
    ]
    assert [c.form in ast.SWALLOWING for c in calls] == [True, False, True, False]
    assert [c.form in ast.STIPEND_ONLY for c in calls] == [False, False, True, True]


# The token set is ASCII: other Unicode digits and letters used to lex,
# and `²` (a digit to str.isdigit, not to int) crashed the parser.
@pytest.mark.parametrize("source,column", [
    ("contract X { uint x; fn f() { x = ²; } }", 35),
    ("contract X { uint x; fn f() { x = ٣; } }", 35),
    ("contract X { uint é; }", 19),
    ("contract X { uint xé; }", 20),
], ids=["superscript-two", "arabic-indic-three", "e-acute", "e-acute-inside"])
def test_non_ascii_digits_and_letters_are_parse_errors(source, column):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert err.value.message == f"unexpected character {source[column - 1]!r}"
    assert (err.value.line, err.value.column) == (1, column)


@pytest.mark.parametrize("digits,value", [
    (str(ast.UINT_MAX), ast.UINT_MAX),
    ("0" * 5000 + "7", 7),
    ("0_1_0", 10),
    ("340_282_366_920_938_463_463_374_607_431_768_211_455", ast.UINT_MAX),
], ids=["uint-max", "leading-zeros", "underscored-zeros", "underscores"])
def test_integer_literals_up_to_uint_max_parse(digits, value):
    unit = parse("contract X { uint x; fn f() { x = " + digits + "; } }")
    assert unit.contracts[0].functions[0].body[0].value.value == value


# A 5001-digit literal used to exit 3 (Python refuses to convert it), and
# 2**128 parsed although values are 128-bit.
@pytest.mark.parametrize("digits", [str(2**128), "9" * 40, "1" * 5001],
                         ids=["two-pow-128", "forty-digits", "5001-digits"])
def test_integer_literals_above_uint_max_are_parse_errors(digits):
    with pytest.raises(ParseError) as err:
        parse("contract X { uint x; fn f() { x = " + digits + "; } }")
    assert (err.value.line, err.value.column) == (1, 35)
    assert err.value.message == f"integer literal exceeds the uint maximum {ast.UINT_MAX}"


def test_validator_spells_kinds_as_in_source():
    errors = validate(parse("contract X { fn f(v: uint) { require(send v value true); } }"))
    assert [str(e) for e in errors] == [
        "1:43: [type-mismatch] send target must be addr, got uint",
        "1:51: [type-mismatch] send value must be uint, got bool",
    ]
