from __future__ import annotations

import copy
import functools
import itertools
import json
import operator
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolsynth.boolfunc import (
    MAX_TABLE_CELLS,
    BoolFunc,
    TableTooLargeError,
    Valuation,
    VariableSet,
    _combined,
    _composed,
    _embedding,
    _extended,
    all_valuations,
    check_table_size,
    conjoin,
    valuation_bits,
    valuation_ranks,
)
from boolsynth.contracts import ContractPair
from boolsynth.network import Interconnection, Link

from .conftest import make_system, run_with_memory_limit

NAMES = ["a", "b", "c", "d", "e", "f"]


@st.composite
def boolfuncs(draw, max_vars=5, scope_names=NAMES):
    n = draw(st.integers(min_value=0, max_value=max_vars))
    scope = VariableSet(scope_names[:n])
    bits = draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    table = np.array([(bits >> i) & 1 for i in range(1 << n)], dtype=bool)
    return BoolFunc(scope, table)


def random_func(rng, names) -> BoolFunc:
    scope = VariableSet(str(n) for n in names)
    return BoolFunc(scope, rng.random(1 << len(scope)) < 0.5)


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

    @pytest.mark.parametrize("names", [["bad name"], ["a", "a"], ["true"]])
    def test_union_with_other_iterables_still_validates(self, names):
        with pytest.raises(ValueError):
            VariableSet(["x"]).union(names)

    def test_derived_scopes_equal_constructed_ones(self):
        s = VariableSet(["x", "y", "z"])
        derived = {
            ("x", "y", "z", "w"): s.union(VariableSet(["w", "y"])),
            ("x", "z"): s.without(["y", "v"]),
            ("z", "x"): VariableSet(["z", "x"]).restricted_to(s),
            ("y",): s.restricted_to(["y", "q"]),
            (): s.without(s),
        }
        for names, scope in derived.items():
            built = VariableSet(names)
            assert isinstance(scope, VariableSet)
            assert scope == built and hash(scope) == hash(built)
            assert tuple(scope) == names
            assert [scope.index(n) for n in names] == list(range(len(names)))

    def test_subsets_read_any_iterable_of_names_alike(self):
        # sets, frozensets and dicts are looked up as they are, other
        # iterables copied into a set; the results are equal
        s = VariableSet(["x", "y", "z", "w"])
        names = ["w", "q", "y"]
        forms = [names, tuple(names), iter(names), (n for n in names), set(names), frozenset(names),
                 dict.fromkeys(names, "y0"), VariableSet(names)]
        assert {s.restricted_to(form) for form in forms} == {("y", "w")}
        forms[2], forms[3] = iter(names), (n for n in names)
        assert {s.without(form) for form in forms} == {("x", "z")}

    def test_index_of_a_missing_name_names_the_scope(self):
        with pytest.raises(ValueError, match=r"^'z' is not in scope \('x', 'y'\)$"):
            VariableSet(["x", "y"]).index("z")

    def test_a_scope_equals_the_tuple_of_its_names(self):
        s = VariableSet(["x", "y"])
        assert s == ("x", "y") and hash(s) == hash(("x", "y"))
        assert {("x", "y"): "found"}[s] == "found"
        assert s != ("y", "x") and s != ["x", "y"]
        assert repr(s) == "VariableSet(['x', 'y'])"

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["deepcopy", "pickle"])
    def test_scopes_and_the_records_holding_them_copy_equal(self, clone):
        sys = make_system("S", ["u"], ["e"], {"y": "u & e"})
        sys.output_bits(sys.outputs)
        link = Link("S", "y", "T", "w")
        records = (VariableSet(), sys.env_inputs, sys.functions["y"], sys, link,
                   Interconnection((link,)), ContractPair(BoolFunc.var("e"), BoolFunc.var("y")))
        for record in records:
            twin = clone(record)
            assert type(twin) is type(record) and twin == record
        twin = clone(sys)
        assert not twin.functions["y"].table.flags.writeable
        assert twin.output_bits(twin.outputs) == sys.output_bits(sys.outputs)


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


class TestCombined:
    def test_pointwise_on_scopes_out_of_union_order(self):
        # Operands over random scopes combined onto a reordering of their
        # union, or of a superset of it, never in the union's own order.
        rng = np.random.default_rng(20)
        names = ["a", "b", "c", "d", "e", "f", "g"]
        ops = {operator.and_: bool.__and__, operator.or_: bool.__or__, operator.xor: bool.__xor__}
        supersets = 0
        for _ in range(150):
            f, g = (random_func(rng, rng.choice(names, int(rng.integers(0, 4)), replace=False))
                    for _ in range(2))
            union = f.scope.union(g.scope)
            extra = [v for v in names if v not in union][: int(rng.integers(0, 2))]
            supersets += bool(extra)
            order = [*union, *extra]
            while len(order) > 1 and order == [*union, *extra]:
                rng.shuffle(order)
            scope = VariableSet(order)
            for op, reference in ops.items():
                h = _combined(op, scope, f, g)
                assert h.scope == scope and h.table.shape == (2,) * len(scope)
                for val in all_valuations(scope):
                    point = val.as_dict()
                    assert h.evaluate(point) == reference(f.evaluate(point), g.evaluate(point))
        assert supersets > 50

    def test_refuses_a_31_variable_scope_before_allocating(self):
        scope = VariableSet(f"x{i}" for i in range(31))
        with pytest.raises(TableTooLargeError, match=r"2\^31"):
            _combined(operator.and_, scope, BoolFunc.var("x3"), BoolFunc.var("x0"))


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


class TestTableKernels:
    def test_projection_equals_any_definition(self):
        # The halving and splitting projection against np.any over the
        # dropped axes, for kept subsets in permuted order, none and all.
        rng = np.random.default_rng(5)
        for trial in range(600):
            n = int(rng.integers(0, 15))
            scope = VariableSet([f"x{i}" for i in range(n)])
            f = BoolFunc(scope, rng.random(1 << n) < rng.choice([0.001, 0.05, 0.5]))
            kind = trial % 5
            k = 0 if kind == 0 else n if kind == 1 else int(rng.integers(0, n + 1))
            keep = [scope[i] for i in rng.permutation(n)[:k]]
            drop = tuple(i for i, v in enumerate(scope) if v not in keep)
            reference = f.table.any(axis=drop)
            kept_order = [v for v in scope if v in keep]
            want = reference.transpose([kept_order.index(v) for v in keep])
            got = f.project(keep)
            assert list(got.scope) == keep
            assert np.array_equal(got.table, want), (trial, list(scope), keep)

    def test_count_satisfying_equals_sum(self):
        rng = np.random.default_rng(6)
        for n in range(15):
            for density in (0.0, 0.01, 0.5, 1.0):
                f = BoolFunc([f"x{i}" for i in range(n)], rng.random(1 << n) < density)
                assert f.count_satisfying() == int(f.table.sum())

    def test_cube_equals_conjoined_literals(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            scope = VariableSet([f"x{i}" for i in rng.permutation(8)[: int(rng.integers(0, 9))]])
            literals = {v: bool(rng.random() < 0.5) for v in scope if rng.random() < 0.5}
            want = conjoin(
                [BoolFunc.var(v) if b else ~BoolFunc.var(v) for v, b in literals.items()]
            ).extend(scope)
            assert BoolFunc.cube(scope, literals) == want, trial
        with pytest.raises(ValueError, match="outside"):
            BoolFunc.cube(["a"], {"b": True})

    def test_tables_are_read_only_contiguous_and_private(self):
        rng = np.random.default_rng(8)
        raw = rng.random(16) < 0.5
        f = BoolFunc(["a", "b", "c", "d"], raw)
        g = BoolFunc(["c", "e"], np.array([True, False, False, True]))
        results = [
            f, g, f & g, f | g, ~f,
            f.project(["d", "a"]), f.project([]), f.extend(["e", "d", "c", "b", "a"]),
            f.substitute({"a": g}),
            BoolFunc.const(["a"], True), BoolFunc.var("a"), BoolFunc.cube(["a", "b"], {"a": False}),
            BoolFunc.exactly(Valuation.from_index(f.scope, 5)),
        ]
        for h in results:
            assert not h.table.flags.writeable and h.table.flags.c_contiguous
            with pytest.raises(ValueError):
                h.table[(0,) * h.table.ndim] = True
        # the constructor copies a caller's writable array
        before = f.table.copy()
        raw[:] = ~raw
        assert np.array_equal(f.table, before)

    def test_extension_plans_are_shared_by_scopes_of_one_shape(self):
        # A plan is keyed by where the scope's variables sit in the target,
        # so conjunctions over distinct names share the plans of one shape.
        _embedding.cache_clear()
        for i in range(200):
            assert (BoolFunc.var(f"a{i}") & BoolFunc.var(f"b{i}")).bits == 0b1000
        assert _embedding.cache_info().misses <= 2


def dense_on(table: np.ndarray, scope: list, target: list) -> np.ndarray:
    """The reference alignment: a dense table over `scope` broadcast onto the
    axes of `target`, a superset of `scope` in any order."""
    at = [target.index(v) for v in scope]
    shape = [1] * len(target)
    for i in at:
        shape[i] = 2
    moved = table.transpose(sorted(range(len(at)), key=at.__getitem__)).reshape(shape)
    return np.broadcast_to(moved, (2,) * len(target))


def packed(table: np.ndarray) -> int:
    """The reference packing: cell i of the C-ordered table at bit i."""
    return sum(1 << i for i, cell in enumerate(table.reshape(-1).tolist()) if cell)


class TestPackedAgainstDense:
    """Every operation on packed tables against a plain numpy computation on
    dense bool tables, for random functions of 0 to 10 variables whose
    scopes are permuted and partly overlap."""

    NAMES = [f"v{i}" for i in range(12)]

    def random_pair(self, rng):
        names = list(rng.permutation(self.NAMES))
        f_scope = names[: int(rng.integers(0, 11))]
        shared = [v for v in f_scope if rng.random() < 0.5]
        g_scope = list(rng.permutation(shared + names[len(f_scope):][: int(rng.integers(0, 11 - len(shared)))]))
        density = rng.choice([0.05, 0.5, 0.95])
        dense = [(rng.random((2,) * len(sc)) < density) for sc in (f_scope, g_scope)]
        return (f_scope, dense[0]), (g_scope, dense[1])

    def test_operations_match_numpy(self):
        rng = np.random.default_rng(2026)
        ops = {"&": (lambda a, b: a & b, np.logical_and), "|": (lambda a, b: a | b, np.logical_or),
               "^": (lambda a, b: a ^ b, np.logical_xor)}
        for trial in range(400):
            (fs, ft), (gs, gt) = self.random_pair(rng)
            f, g = BoolFunc(fs, ft), BoolFunc(gs, gt)
            assert f.bits == packed(ft) and np.array_equal(f.table, ft)
            union = fs + [v for v in gs if v not in fs]
            for name, (op, reference) in ops.items():
                h = op(f, g)
                want = reference(dense_on(ft, fs, union), dense_on(gt, gs, union))
                assert list(h.scope) == union and h.bits == packed(want), (trial, name)
            assert (~f).bits == packed(~ft)
            target = list(rng.permutation(fs + [v for v in self.NAMES if v not in fs][: int(rng.integers(0, 3))]))
            assert f.extend(target).bits == packed(dense_on(ft, fs, target)), trial
            keep = [fs[i] for i in rng.permutation(len(fs))[: int(rng.integers(0, len(fs) + 1))]]
            dropped = tuple(i for i, v in enumerate(fs) if v not in keep)
            kept = [v for v in fs if v in keep]
            want = ft.any(axis=dropped).transpose([kept.index(v) for v in keep])
            assert f.project(keep).bits == packed(want), trial
            assert f.is_true == bool(ft.all()) and f.is_false == (not ft.any())
            assert f.count_satisfying() == int(ft.sum())
            support = [v for i, v in enumerate(fs) if not np.array_equal(np.take(ft, 0, i), np.take(ft, 1, i))]
            assert list(f.support()) == support
            # formatting: the support's minterms in rank order, read from the dense table
            core = ft[tuple(slice(None) if v in support else 0 for v in fs)]
            minterms = [" & ".join(v if b else f"!{v}" for v, b in zip(support, row)) for row in np.argwhere(core)]
            want = "true" if ft.all() else " | ".join(minterms) if ft.any() else "false"
            assert f.to_expr() == want, trial
            hits = f.satisfying_valuations()
            assert [v.bits for v in hits] == [tuple(map(bool, row)) for row in np.argwhere(ft)], trial
            assert [v.index() for v in hits] == np.flatnonzero(ft).tolist()
            for _ in range(4):
                point = {v: bool(rng.integers(0, 2)) for v in fs}
                assert f.evaluate(point) == bool(ft[tuple(int(point[v]) for v in fs)])

    def test_equality_hash_and_copies_read_the_table(self):
        rng = np.random.default_rng(2027)
        for trial in range(200):
            (fs, ft), _ = self.random_pair(rng)
            f = BoolFunc(fs, ft)
            twin = BoolFunc(fs, ft.copy())
            assert f == twin and hash(f) == hash(twin)
            if fs:
                flipped = ft.copy()
                flipped[tuple(rng.integers(0, 2, len(fs)))] ^= True
                assert f != BoolFunc(fs, flipped)
            for clone in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
                assert type(clone) is BoolFunc and clone == f and clone.bits == f.bits
            table = f.table
            assert not table.flags.writeable and table.flags.c_contiguous
            assert table.shape == (2,) * len(fs) and np.array_equal(table, ft)
            assert table is not f.table  # unpacked on each access, not kept

    def test_extension_past_the_cached_patterns_matches_numpy(self):
        # Targets of 17 to 19 variables, where insertions cut the table into
        # blocks instead of moving cells under cached patterns; the new
        # variables fall below, between and above the function's own.
        rng = np.random.default_rng(2028)
        names = [f"w{i}" for i in range(19)]
        for trial in range(12):
            target = list(rng.permutation(names)[: int(rng.integers(17, 20))])
            fs = list(rng.permutation(target)[: int(rng.integers(0, 7))])
            ft = rng.random((2,) * len(fs)) < 0.5
            f = BoolFunc(fs, ft)
            assert np.array_equal(f.extend(target).table, dense_on(ft, fs, target)), trial


GUARD_CHILD = """
import json
import numpy as np
from boolsynth.boolfunc import BoolFunc, TableTooLargeError, Valuation, VariableSet
from boolsynth.network import BooleanNetwork, BooleanSystem, Interconnection, Link, flatten

wide = [f"x{i}" for i in range(31)]
a = BoolFunc.const([f"a{i}" for i in range(16)], True)
b = BoolFunc.const([f"b{i}" for i in range(16)], False)
both = a.scope.union(b.scope)


def walk():
    # S3 reads both S1 (over the a's) and S2 (over the b's), so its output's
    # cone spans all 32 external inputs.
    none, wires = VariableSet(), VariableSet(["wa", "wb"])
    net = BooleanNetwork(
        (
            BooleanSystem("S1", none, a.scope, VariableSet(["ya"]), {"ya": a}),
            BooleanSystem("S2", none, b.scope, VariableSet(["yb"]), {"yb": b}),
            BooleanSystem("S3", none, wires, VariableSet(["z"]), {"z": BoolFunc.const(wires, True)}),
        ),
        Interconnection((Link("S1", "ya", "S3", "wa"), Link("S2", "yb", "S3", "wb"))),
    )
    return flatten(net)


cases = {
    "const": lambda: BoolFunc.const(wide, True),
    "cube": lambda: BoolFunc.cube(wide, {"x0": True}),
    "exactly": lambda: BoolFunc.exactly(Valuation(VariableSet(wide), (False,) * 31)),
    "and": lambda: a & b,
    "or": lambda: a | b,
    "equivalent": lambda: a.equivalent(b),
    "extend": lambda: a.extend(both),
    "closed_loop": walk,
}
report = {}
for name, build in cases.items():
    try:
        build()
        report[name] = "built"
    except TableTooLargeError as exc:
        report[name] = str(exc)
    except MemoryError:
        report[name] = "MemoryError"
print(json.dumps(report))
"""


class TestTableSizeGuard:
    def test_limit(self):
        assert MAX_TABLE_CELLS == 1 << 30
        check_table_size(30)
        with pytest.raises(TableTooLargeError, match=r"2\^31"):
            check_table_size(31)

    def test_constructors_and_operators_refuse_before_allocating(self):
        # 31-variable constructors; operators on two disjoint 16-variable
        # functions, whose results span 32 variables, and the closed-loop
        # walk over a network that joins them.
        done = run_with_memory_limit(GUARD_CHILD)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        for name in ("const", "cube", "exactly"):
            assert "2^31 = 2147483648 cells" in report[name], name
        for name in ("and", "or", "equivalent", "extend", "closed_loop"):
            assert "2^32 = 4294967296 cells" in report[name], name


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


class TestComposed:
    """`_composed`, the one functional composition behind the local game
    and the closed-loop walk, against the independent symbolic route:
    `BoolFunc.substitute`, then `extend`."""

    def test_equals_substitute_then_extend(self):
        rng = np.random.default_rng(33)
        names = [f"x{i}" for i in range(8)]
        others = ["a", "b", "c", "d"]
        none = every = 0
        for _ in range(400):
            f = random_func(rng, rng.choice(names, int(rng.integers(0, 9)), replace=False))
            k = int(rng.integers(0, len(f.scope) + 1))
            none, every = none + (k == 0), every + (k == len(f.scope))
            order = [*f.scope[k:], *rng.choice(others, int(rng.integers(0, 5)), replace=False)]
            rng.shuffle(order)
            domain = VariableSet(order)
            values = {v: random_func(rng, rng.choice(order, int(rng.integers(0, len(order) + 1)), replace=False))
                      for v in f.scope[:k]}
            muxes = [_extended(values[v], domain) for v in f.scope[:k]]
            assert _composed(f, muxes, domain) == f.substitute(values).extend(domain).bits
        assert none > 50 and every > 50

    def test_parity_of_k_replaced_variables_takes_o_k_muxes(self):
        # Without the memo the expansion would mux 2^14 - 1 cofactors; with
        # it each variable's level holds two, the parity and its complement.
        muxed = []

        class Mux(int):
            """A replacement table that counts the muxes that read it."""

            def __rand__(self, other):
                muxed.append(self)
                return int(other) & int(self)

        k = 14
        scope = VariableSet(f"x{i}" for i in range(k))
        parity = functools.reduce(operator.xor, (BoolFunc.var(v) for v in scope))
        rng = np.random.default_rng(14)
        domain = VariableSet(["a", "b", "c", "d"])
        values = [random_func(rng, domain) for _ in scope]
        composed = _composed(parity, [Mux(_extended(g, domain)) for g in values], domain)
        assert composed == functools.reduce(operator.xor, values).bits
        assert k <= len(muxed) <= 2 * k + 1


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

    @pytest.mark.parametrize("n", [0, 1, 5, 13])
    def test_ranks_and_bits_are_inverse(self, n):
        ranks = np.arange(1 << n)
        bits = valuation_bits(ranks, n)
        assert bits.dtype == bool and bits.shape == (n, 1 << n)
        assert np.array_equal(valuation_ranks(bits), ranks if n else 0)
        assert np.array_equal(valuation_ranks(list(bits.astype(np.uint8))), ranks if n else 0)
        scope = VariableSet(f"x{i}" for i in range(n))
        for r in (0, (1 << n) - 1, (1 << n) // 3):
            assert Valuation.from_index(scope, r).bits == tuple(bits[:, r].tolist())

    def test_ranks_broadcast(self):
        column, row = np.array([[0], [1]]), np.array([[0, 1, 1]], dtype=bool)
        assert valuation_ranks([column, row]).tolist() == [[0, 1, 1], [2, 3, 3]]


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
