from __future__ import annotations

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
