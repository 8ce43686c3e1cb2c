from __future__ import annotations

import functools
import itertools
import random

import pytest
from hypothesis import given, settings

from boolsynth.boolfunc import BoolFunc, VariableSet
from boolsynth.parser import MAX_NESTING, ExprSyntaxError, UnknownIdentifierError, parse_expr

from .test_boolfunc import boolfuncs

SCOPE = VariableSet(["e1", "e2", "y1", "u2"])


def test_keywords():
    assert parse_expr("true", SCOPE).is_true
    assert parse_expr("false", SCOPE).is_false


def test_result_scope_is_the_declared_scope():
    f = parse_expr("e1", SCOPE)
    assert f.scope == SCOPE


def test_gated_disjunction_output_function():
    f = parse_expr("(e2 | y1) & u2", SCOPE)
    e2, y1, u2 = BoolFunc.var("e2"), BoolFunc.var("y1"), BoolFunc.var("u2")
    assert f.equivalent((e2 | y1) & u2)


def test_xor_operator():
    f = parse_expr("e1 ^ e2", SCOPE)
    assert f.equivalent(BoolFunc.var("e1") ^ BoolFunc.var("e2"))


def test_precedence_not_and_xor_or():
    # ! > & > ^ > |
    f = parse_expr("!e1 & e2 ^ y1 | u2", SCOPE)
    e1, e2, y1, u2 = map(BoolFunc.var, ["e1", "e2", "y1", "u2"])
    assert f.equivalent(((~e1 & e2) ^ y1) | u2)


def test_implication_is_right_associative():
    f = parse_expr("e1 -> e2 -> y1", SCOPE)
    e1, e2, y1 = map(BoolFunc.var, ["e1", "e2", "y1"])
    assert f.equivalent(e1.implies(e2.implies(y1)))
    assert not f.equivalent((e1.implies(e2)).implies(y1))


def test_iff_chain():
    f = parse_expr("e1 <-> e2 <-> y1", SCOPE)
    e1, e2, y1 = map(BoolFunc.var, ["e1", "e2", "y1"])
    assert f.equivalent(e1.iff(e2).iff(y1))


def test_iff_binds_loosest():
    f = parse_expr("e1 -> e2 <-> y1", SCOPE)
    e1, e2, y1 = map(BoolFunc.var, ["e1", "e2", "y1"])
    assert f.equivalent((e1.implies(e2)).iff(y1))


def test_parentheses_override():
    f = parse_expr("e1 & (e2 | y1)", SCOPE)
    e1, e2, y1 = map(BoolFunc.var, ["e1", "e2", "y1"])
    assert f.equivalent(e1 & (e2 | y1))


def test_double_negation_parse():
    assert parse_expr("!!e1", SCOPE).equivalent(BoolFunc.var("e1"))


def test_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("e1 & ", SCOPE)
    assert exc.value.position == 5
    with pytest.raises(ExprSyntaxError):
        parse_expr("(e1 | e2", SCOPE)
    with pytest.raises(ExprSyntaxError):
        parse_expr("e1 ? e2", SCOPE)
    with pytest.raises(ExprSyntaxError):
        parse_expr("e1 e2", SCOPE)


def test_nesting_is_bounded():
    # Every operand opens a level, and each `!` or `(` one more inside it:
    # MAX_NESTING levels parse, one more is refused at the operand that opens it.
    deepest = [
        "(" * (MAX_NESTING - 1) + "e1" + ")" * (MAX_NESTING - 1),
        "!(" * (MAX_NESTING // 2 - 1) + "!e1" + ")" * (MAX_NESTING // 2 - 1),
    ]
    for text in deepest:
        assert parse_expr(text, SCOPE).equivalent(BoolFunc.var("e1"))
        for deeper in (f"({text})", f"!{text}"):
            with pytest.raises(ExprSyntaxError, match="nested deeper") as exc:
                parse_expr(deeper, SCOPE)
            assert exc.value.position == MAX_NESTING


def test_unknown_identifier_is_named():
    with pytest.raises(UnknownIdentifierError) as exc:
        parse_expr("e1 & zz", SCOPE)
    assert exc.value.identifier == "zz"


@settings(max_examples=100, deadline=None)
@given(boolfuncs(max_vars=5))
def test_roundtrip_through_canonical_expression(f):
    assert parse_expr(f.to_expr(), f.scope) == f


# Binary operators, loosest first, with the `BoolFunc`-free pointwise meaning
# the tests check the parser against, and whether each groups from the right.
OPERATORS = [
    ("<->", lambda a, b: a == b, False),
    ("->", lambda a, b: not a or b, True),
    ("|", lambda a, b: a or b, False),
    ("^", lambda a, b: a != b, False),
    ("&", lambda a, b: a and b, False),
]
NOT_LEVEL = len(OPERATORS)
ATOM_LEVEL = NOT_LEVEL + 1


def random_tree(rng, names, depth):
    """A random expression tree: a name, ("!", child) or (level, left, right)."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(names)
    if rng.random() < 0.2:
        return ("!", random_tree(rng, names, depth - 1))
    return (rng.randrange(len(OPERATORS)), random_tree(rng, names, depth - 1), random_tree(rng, names, depth - 1))


def evaluate_tree(tree, valuation):
    if isinstance(tree, str):
        return valuation[tree]
    if tree[0] == "!":
        return not evaluate_tree(tree[1], valuation)
    level, left, right = tree
    return OPERATORS[level][1](evaluate_tree(left, valuation), evaluate_tree(right, valuation))


def tree_level(tree):
    if isinstance(tree, str):
        return ATOM_LEVEL
    return NOT_LEVEL if tree[0] == "!" else tree[0]


def print_tree(tree, minimal):
    """The tree's text, with the fewest parentheses the grammar allows or
    with every operation parenthesized."""
    if isinstance(tree, str):
        return tree
    if tree[0] == "!":
        child = print_tree(tree[1], minimal)
        return "!" + (child if tree_level(tree[1]) >= NOT_LEVEL else f"({child})")
    level, left, right = tree
    token, _, right_assoc = OPERATORS[level]
    left_text, right_text = print_tree(left, minimal), print_tree(right, minimal)
    if not minimal:
        return f"({left_text} {token} {right_text})"
    # The side the operator groups toward may hold the same level bare.
    if tree_level(left) < level or (right_assoc and tree_level(left) == level):
        left_text = f"({left_text})"
    if tree_level(right) < level or (not right_assoc and tree_level(right) == level):
        right_text = f"({right_text})"
    return f"{left_text} {token} {right_text}"


def test_random_trees_parse_to_their_pointwise_value_with_fewest_and_all_parentheses():
    rng = random.Random(2016)
    bare = 0
    for trial in range(300):
        names = ["a", "b", "c", "d"][: rng.randint(1, 4)]
        scope = VariableSet(names)
        tree = random_tree(rng, names, rng.randint(1, 5))
        valuations = [dict(zip(names, bits)) for bits in itertools.product([False, True], repeat=len(names))]
        want = [evaluate_tree(tree, v) for v in valuations]
        for minimal in (True, False):
            text = print_tree(tree, minimal)
            f = parse_expr(text, scope)
            assert [f.evaluate(v) for v in valuations] == want, f"trial {trial}: {text}"
        bare += print_tree(tree, True).count("(") < print_tree(tree, False).count("(")
    assert bare > 150


@pytest.mark.parametrize("token, apply, right_assoc", OPERATORS, ids=[op[0] for op in OPERATORS])
def test_long_flat_chains_parse_without_recursion(token, apply, right_assoc):
    names = ["a", "b", "c"]
    operands = [names[i % 3] for i in range(20_000)]
    f = parse_expr(f" {token} ".join(operands), VariableSet(names))
    for bits in itertools.product([False, True], repeat=3):
        valuation = dict(zip(names, bits))
        values = [valuation[name] for name in operands]
        if right_assoc:
            want = functools.reduce(lambda acc, value: apply(value, acc), reversed(values))
        else:
            want = functools.reduce(apply, values)
        assert f.evaluate(valuation) == want, valuation
