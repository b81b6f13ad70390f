"""The MiniSol front end against its earlier tokenizer and binary-expression
parser (`minisol_reference.py`): the same tokens with their positions,
the same trees with every node's position, and the same ParseErrors."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mtsc.minisol import ParseError, ast, parse
from mtsc.minisol.lexer import tokenize
from mtsc.minisol.parser import BINARY, MAX_NESTING

import minisol_reference as reference
from conftest import CORPUS
from pretty import pretty
from test_properties import SOUP_TOKENS, contracts


def positioned(node):
    """`node` as nested tuples of its class, position and fields."""
    if isinstance(node, list):
        return [positioned(item) for item in node]
    if isinstance(node, ast.Node):
        return (type(node).__name__, node.line, node.col,
                *(positioned(getattr(node, name)) for name in node._fields))
    return node


def front_end(source, tokenize, parse):
    """The tokens of `source`, or its lexer error, and its tree, or its
    parse error, each with positions."""
    try:
        tokens = [tuple(tok) for tok in tokenize(source)]
    except ParseError as err:
        tokens = (err.line, err.column, err.message)
    try:
        return tokens, positioned(parse(source))
    except ParseError as err:
        return tokens, (err.line, err.column, err.message)


def assert_matches_reference(source):
    assert front_end(source, tokenize, parse) == \
        front_end(source, reference.tokenize, reference.parse)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.msol")), ids=lambda p: p.name)
def test_corpus_sources_match_the_reference(path):
    assert_matches_reference(path.read_text())


@given(tokens=st.lists(SOUP_TOKENS | st.sampled_from(["\t", "\r", "\n", "/", "&", "// c\n"]),
                       max_size=40),
       separator=st.sampled_from([" ", ""]),
       frame=st.sampled_from(["{}", "contract C {{ uint x; fn f() payable {{ {} }} }}"]))
@settings(deadline=None, max_examples=150)
def test_token_soups_match_the_reference(tokens, separator, frame):
    assert_matches_reference(frame.format(separator.join(tokens)))


@given(contract=contracts)
@settings(deadline=None, max_examples=50)
def test_generated_contracts_match_the_reference(contract):
    assert_matches_reference(pretty(ast.SourceUnit(contracts=[contract])))


# the operators of each pair come from different levels; the comparisons
# go in every position among them, and two of them reject what one accepts
OPERATOR_PAIRS = [(p, q) for p, q in itertools.permutations(BINARY, 2)
                  if BINARY[p][0] != BINARY[q][0]]


def operator_chains(first, second, comparisons):
    for at in itertools.combinations(range(2 + comparisons), comparisons):
        pair = iter((first, second))
        ops = ["<" if i in at else next(pair) for i in range(2 + comparisons)]
        yield "a" + "".join(f" {op} {operand}" for op, operand in zip(ops, "bcde"))


@pytest.mark.parametrize("first,second", OPERATOR_PAIRS)
def test_operator_pairs_match_the_reference(first, second):
    for comparisons in (1, 2):
        for chain in operator_chains(first, second, comparisons):
            # in a condition, and as a call's value, which takes `+ -` and tighter
            assert_matches_reference(f"contract C {{ fn f() {{ require({chain}); }} }}")
            assert_matches_reference(f"contract C {{ fn f() {{ x = lowcall a value {chain}; }} }}")


@given(op=st.sampled_from(["||", "&&", "+", "-", "*"]),
       count=st.integers(min_value=MAX_NESTING - 16, max_value=MAX_NESTING),
       inserted=st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(sorted(BINARY))),
                         max_size=3),
       parentheses=st.integers(min_value=0, max_value=12))
@settings(deadline=None, max_examples=60)
def test_chains_at_the_nesting_limit_match_the_reference(op, count, inserted, parentheses):
    ops = [op] * count
    for at, other in inserted:
        ops.insert(at % count, other)
    first = "(" * parentheses + "a" + ")" * parentheses
    chain = first + "".join(f" {each} !b" for each in ops)
    assert_matches_reference(f"contract C {{ fn f() {{ if (t) {{ x = {chain}; }} }} }}")
