from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolsynth.boolfunc import BoolFunc, Valuation, VariableSet, all_valuations

NAMES = ["a", "b", "c", "d", "e", "f"]


@st.composite
def boolfuncs(draw, max_vars=5, scope_names=NAMES):
    n = draw(st.integers(min_value=0, max_value=max_vars))
    scope = VariableSet(scope_names[:n])
    bits = draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    table = np.array([(bits >> i) & 1 for i in range(1 << n)], dtype=bool)
    return BoolFunc(scope, table)


def table_of(f: BoolFunc) -> list[bool]:
    return [bool(b) for b in f.table.reshape(-1)]


class TestVariableSet:
    def test_order_and_uniqueness(self):
        s = VariableSet(["x", "y"])
        assert list(s) == ["x", "y"]
        with pytest.raises(ValueError):
            VariableSet(["x", "x"])
        with pytest.raises(ValueError):
            VariableSet(["1bad"])

    def test_union_keeps_first_declaration_order(self):
        s = VariableSet(["x", "y"]).union(VariableSet(["z", "y"]))
        assert list(s) == ["x", "y", "z"]


class TestConstants:
    def test_tautology_satisfying_set(self):
        f = BoolFunc.const(VariableSet(["e1"]), True)
        assert [v.bits for v in f.satisfying_valuations()] == [(False,), (True,)]

    def test_empty_scope_tautology(self):
        f = BoolFunc.const(VariableSet(), True)
        assert f.is_true and not f.is_false
        assert [v.bits for v in f.satisfying_valuations()] == [()]

    def test_contradiction(self):
        f = BoolFunc.const(VariableSet(["e1", "e2"]), False)
        assert f.satisfying_valuations() == []


class TestOperations:
    def test_and_with_own_negation_is_false(self):
        e1 = BoolFunc.var("e1")
        assert (e1 & ~e1).is_false

    def test_xor_expansion(self):
        e1, e2 = BoolFunc.var("e1"), BoolFunc.var("e2")
        f = e1 ^ e2
        assert list(f.scope) == ["e1", "e2"]
        assert [v.bits for v in f.satisfying_valuations()] == [(False, True), (True, False)]

    def test_implies_tautology(self):
        e1, e2 = BoolFunc.var("e1"), BoolFunc.var("e2")
        assert e1.implies(e1 | e2).is_true

    def test_scope_alignment_is_cylindrical(self):
        a, b = BoolFunc.var("a"), BoolFunc.var("b")
        f = a & b
        for va, vb in itertools.product([False, True], repeat=2):
            assert f.evaluate({"a": va, "b": vb}) == (va and vb)


class TestProjection:
    def test_projection_of_xor_is_true(self):
        f = BoolFunc.var("e1") ^ BoolFunc.var("e2")
        assert f.project(VariableSet(["e1"])).is_true

    def test_projection_of_and_keeps_literal(self):
        f = BoolFunc.var("e1") & BoolFunc.var("e2")
        assert f.project(VariableSet(["e1"])) == BoolFunc.var("e1")

    def test_identity_projection(self):
        f = BoolFunc.var("e1") ^ BoolFunc.var("e2")
        assert f.project(f.scope) == f

    def test_projection_respects_keep_order(self):
        f = BoolFunc.var("a") & BoolFunc.var("b")
        g = f.project(VariableSet(["b", "a"]))
        assert list(g.scope) == ["b", "a"]
        assert g.evaluate({"a": True, "b": True})

    def test_projection_outside_scope_rejected(self):
        with pytest.raises(ValueError):
            BoolFunc.var("a").project(VariableSet(["z"]))

    @settings(max_examples=60, deadline=None)
    @given(boolfuncs(max_vars=5), st.data())
    def test_monotone(self, f, data):
        g = f | data.draw(boolfuncs(max_vars=len(f.scope), scope_names=list(f.scope)))
        g = g.extend(f.scope) if list(g.scope) != list(f.scope) else g
        k = data.draw(st.integers(min_value=0, max_value=len(f.scope)))
        keep = VariableSet(list(f.scope)[:k])
        pf, pg = f.project(keep), g.project(keep)
        assert pf.implies(pg).is_true

    @settings(max_examples=60, deadline=None)
    @given(boolfuncs(max_vars=5), st.data())
    def test_witnesses_survive(self, f, data):
        k = data.draw(st.integers(min_value=0, max_value=len(f.scope)))
        keep = VariableSet(list(f.scope)[:k])
        p = f.project(keep)
        for val in f.satisfying_valuations():
            restricted = {n: val[n] for n in keep}
            assert p.evaluate(restricted)


class TestRename:
    def test_relabel_literal(self):
        f = BoolFunc.var("e2_int").rename({"e2_int": "y1"})
        assert f == BoolFunc.var("y1")

    def test_relabel_conjunction(self):
        f = (BoolFunc.var("e") & BoolFunc.var("u")).rename({"e": "a", "u": "b"})
        assert f.equivalent(BoolFunc.var("a") & BoolFunc.var("b"))
        assert list(f.scope) == ["a", "b"]

    def test_empty_mapping_is_identity(self):
        f = BoolFunc.var("e") ^ BoolFunc.var("u")
        assert f.rename({}) == f

    def test_collision_rejected(self):
        f = BoolFunc.var("a") & BoolFunc.var("b")
        with pytest.raises(ValueError):
            f.rename({"a": "b"})
        with pytest.raises(ValueError):
            f.rename({"a": "x", "b": "x"})


class TestSatisfyingValuations:
    def test_single_literal(self):
        assert [v.bits for v in BoolFunc.var("e1").satisfying_valuations()] == [(True,)]

    def test_tautology_order(self):
        f = BoolFunc.const(VariableSet(["e1", "e2"]), True)
        assert [v.bits for v in f.satisfying_valuations()] == [
            (False, False),
            (False, True),
            (True, False),
            (True, True),
        ]

    def test_disjunction_order(self):
        f = BoolFunc.var("y1") | BoolFunc.var("y2")
        assert [v.bits for v in f.satisfying_valuations()] == [
            (False, True),
            (True, False),
            (True, True),
        ]


class TestSubstitute:
    def test_substitution_composes(self):
        # y = a & b substituted into !y
        f = ~BoolFunc.var("y")
        g = f.substitute({"y": BoolFunc.var("a") & BoolFunc.var("b")})
        assert g.equivalent(~(BoolFunc.var("a") & BoolFunc.var("b")))

    def test_substitution_rejects_self_reference(self):
        f = BoolFunc.var("y")
        with pytest.raises(ValueError):
            f.substitute({"y": BoolFunc.var("y") | BoolFunc.var("a")})


class TestCompose:
    def test_gather_equals_substitute_on_random_functions(self):
        # `substitute` is the reference: same function on the same scope,
        # including kept variables, constant replacements and empty scopes.
        rng = np.random.default_rng(3)
        outer, inner = ["y0", "y1", "y2", "k0", "k1"], ["a", "b", "c", "k0"]

        def random_func(names):
            names = [v for v in names if rng.random() < 0.6]
            return BoolFunc(names, rng.random(1 << len(names)) < 0.5)

        for trial in range(200):
            f = random_func(outer)
            mapping = {y: random_func(inner) for y in ("y0", "y1", "y2") if rng.random() < 0.8}
            want = f.substitute(mapping)
            got = f.compose(mapping, want.scope)
            assert got == want, f"trial {trial}"
            wider = want.scope.union(["a", "b", "c", "k0", "k1"])
            assert f.compose(mapping, wider) == want.extend(wider)

    def test_scope_must_cover_kept_and_replacement_variables(self):
        f = BoolFunc.var("y") & BoolFunc.var("k")
        with pytest.raises(ValueError, match="missing"):
            f.compose({"y": BoolFunc.var("a")}, ["a"])
        with pytest.raises(ValueError, match="missing"):
            f.compose({"y": BoolFunc.var("a")}, ["k"])


class TestSemanticLaws:
    @settings(max_examples=80, deadline=None)
    @given(boolfuncs(max_vars=6), boolfuncs(max_vars=6))
    def test_de_morgan(self, f, g):
        assert (~(f & g)).equivalent(~f | ~g)
        assert (~(f | g)).equivalent(~f & ~g)

    @settings(max_examples=80, deadline=None)
    @given(boolfuncs(max_vars=6))
    def test_double_negation(self, f):
        assert (~~f) == f

    @settings(max_examples=50, deadline=None)
    @given(boolfuncs(max_vars=4), boolfuncs(max_vars=4))
    def test_xor_definition(self, f, g):
        assert (f ^ g).equivalent((f & ~g) | (~f & g))


class TestSupport:
    def test_extension_does_not_grow_support(self):
        f = BoolFunc.var("a").extend(VariableSet(["a", "b", "c"]))
        assert list(f.support()) == ["a"]

    def test_constants_have_empty_support(self):
        assert list(BoolFunc.const(VariableSet(["a", "b"]), True).support()) == []

    def test_expr_uses_support_only(self):
        f = BoolFunc.var("a").extend(VariableSet(["a", "b"]))
        assert f.to_expr() == "a"

    @settings(max_examples=60, deadline=None)
    @given(boolfuncs(max_vars=5))
    def test_projection_onto_support_preserves_semantics(self, f):
        assert f.project(f.support()).equivalent(f)


class TestValuation:
    def test_index_roundtrip(self):
        scope = VariableSet(["a", "b", "c"])
        for i, v in enumerate(all_valuations(scope)):
            assert v.index() == i
            assert Valuation.from_index(scope, i) == v

    def test_length_checked(self):
        with pytest.raises(ValueError):
            Valuation(VariableSet(["a"]), (True, False))


class TestEquality:
    def test_equality_is_semantic_over_identical_scopes(self):
        scope = VariableSet(["a", "b"])
        f = BoolFunc.var("a").extend(scope) | BoolFunc.var("b").extend(scope)
        g = ~(~BoolFunc.var("a").extend(scope) & ~BoolFunc.var("b").extend(scope))
        assert f == g
        assert hash(f) == hash(g)

    def test_different_scopes_not_equal_but_maybe_equivalent(self):
        f = BoolFunc.var("a")
        g = f.extend(VariableSet(["a", "b"]))
        assert f != g
        assert f.equivalent(g)
