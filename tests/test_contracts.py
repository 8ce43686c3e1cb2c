from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from boolsynth.boolfunc import BoolFunc, Valuation, VariableSet, all_valuations, conjoin
from boolsynth.contracts import (
    DistributionGraph,
    build_distribution_graph,
    conjunctive_decomposition,
    distributions_from_graph,
    maximal_distributions,
    project_assumption,
)
from boolsynth.eps import compile_to_network, load_topology
from boolsynth.network import all_outputs, external_inputs
from boolsynth.oracle import enumerate_bicliques_subset
from boolsynth.parser import parse_expr

from .conftest import FIXTURES, serial_chain_net, shared_or_guarantee_net, xor_assumption_net


def edge_pairs(graph: DistributionGraph) -> set[tuple[tuple[bool, ...], tuple[bool, ...]]]:
    out = set()
    for i, left in enumerate(all_valuations(graph.left_scope)):
        for j, right in enumerate(all_valuations(graph.right_scope)):
            if graph.adjacency[i, j]:
                out.add((left.bits, right.bits))
    return out


def dist_signature(dists):
    """Order-free signature: satisfying sets of both sides."""
    return {
        (
            tuple(v.index() for v in d.down.satisfying_valuations()),
            tuple(v.index() for v in d.up.satisfying_valuations()),
        )
        for d in dists
    }


class TestProjectAssumption:
    def test_chain_assumption_projects_to_true_on_child(self):
        net = serial_chain_net()
        a = parse_expr("e1", external_inputs(net))
        assert project_assumption(a, net, "S2").is_true

    def test_xor_assumption_projects_to_true(self):
        net = xor_assumption_net()
        a = parse_expr("e1 ^ e2", external_inputs(net))
        local = project_assumption(a, net, "S1")
        assert local.is_true and list(local.scope) == ["e1"]

    def test_chain_assumption_projects_to_itself_on_root(self):
        net = serial_chain_net()
        a = parse_expr("e1", external_inputs(net))
        local = project_assumption(a, net, "S1")
        assert local.equivalent(BoolFunc.var("e1"))

    def test_vanished_variables_are_unconstrained(self):
        # After a subsystem is deleted its externals stay in the assumption's
        # scope; projection must quantify them away.
        net = serial_chain_net()
        bigger = VariableSet(["e1", "e2", "gone"])
        a = parse_expr("e1 & gone", bigger)
        local = project_assumption(a, net, "S1")
        assert local.equivalent(BoolFunc.var("e1"))

    def test_containment_and_maximality_random(self):
        # Projection contains the global assumption and adds nothing
        # uncompletable: 200 random assumptions over <= 6 variables.
        rng = np.random.default_rng(7)
        names = ["p", "q", "r", "s", "t", "w"]
        for _ in range(200):
            n = int(rng.integers(2, 7))
            scope = VariableSet(names[:n])
            table = rng.integers(0, 2, size=1 << n).astype(bool)
            a = BoolFunc(scope, table)
            cut = int(rng.integers(1, n))
            blocks = [VariableSet(names[:cut]), VariableSet(names[cut:n])]
            projections = [a.project(b) for b in blocks]
            product = projections[0] & projections[1]
            # containment
            assert a.implies(product).is_true
            # maximality: every projected point extends to a global one
            for b, p in zip(blocks, projections):
                for val in p.satisfying_valuations():
                    sub = {k: val[k] for k in b}
                    assert any(
                        a.evaluate({**sub, **other.as_dict()})
                        for other in all_valuations(a.scope.without(b))
                    )


class TestDistributionGraph:
    def test_disjunction_graph_edges(self):
        net = shared_or_guarantee_net()
        g = parse_expr("y1 | y2", all_outputs(net))
        graph = build_distribution_graph(g, net, "S2")
        assert list(graph.left_scope) == ["y2"]
        assert list(graph.right_scope) == ["y1"]
        assert edge_pairs(graph) == {
            ((True,), (False,)),
            ((True,), (True,)),
            ((False,), (True,)),
        }

    def test_true_guarantee_gives_complete_graph(self):
        net = shared_or_guarantee_net()
        g = BoolFunc.const(all_outputs(net), True)
        graph = build_distribution_graph(g, net, "S2")
        assert graph.adjacency.all()

    def test_single_literal_guarantee(self):
        net = serial_chain_net()
        g = parse_expr("y2", all_outputs(net))
        graph = build_distribution_graph(g, net, "S2")
        assert edge_pairs(graph) == {((True,), (False,)), ((True,), (True,))}


class TestMaximalDistributions:
    def test_disjunction_has_exactly_two_splits(self, shared_or_guarantee):
        net, contract = shared_or_guarantee
        dists = maximal_distributions(contract.guarantee, net, "S2")
        assert len(dists) == 2
        y1, y2 = BoolFunc.var("y1"), BoolFunc.var("y2")
        sigs = {(d.down.to_expr(), d.up.to_expr()) for d in dists}
        assert sigs == {("y2", "true"), ("true", "y1")}
        for d in dists:
            assert list(d.down.scope) == ["y2"]
            assert list(d.up.scope) == ["y1"]

    def test_literal_guarantee_unique_split(self, serial_chain):
        net, contract = serial_chain
        dists = maximal_distributions(contract.guarantee, net, "S2")
        assert len(dists) == 1
        assert dists[0].down.equivalent(BoolFunc.var("y2"))
        assert dists[0].up.is_true

    def test_true_guarantee_unique_trivial_split(self, serial_chain):
        net, _ = serial_chain
        g = BoolFunc.const(all_outputs(net), True)
        dists = maximal_distributions(g, net, "S2")
        assert len(dists) == 1
        assert dists[0].down.is_true and dists[0].up.is_true

    def test_false_guarantee_has_no_usable_split(self, serial_chain):
        net, _ = serial_chain
        g = BoolFunc.const(all_outputs(net), False)
        assert maximal_distributions(g, net, "S2") == []

    def test_sound_and_ordered(self, shared_or_guarantee):
        net, contract = shared_or_guarantee
        dists = maximal_distributions(contract.guarantee, net, "S2")
        # soundness: every (down, up) pair of valuations satisfies the guarantee
        for d in dists:
            for dv in d.down.satisfying_valuations():
                for uv in d.up.satisfying_valuations():
                    assert contract.guarantee.evaluate({**dv.as_dict(), **uv.as_dict()})
        # deterministic order: most permissive first, tie by lex-least down set
        sizes = [d.down.count_satisfying() * d.up.count_satisfying() for d in dists]
        assert sizes == sorted(sizes, reverse=True)

    def test_matches_subset_oracle_on_random_guarantees(self):
        rng = np.random.default_rng(11)
        from .conftest import make_contract, make_system
        from boolsynth.network import BooleanNetwork

        for trial in range(100):
            n_left, n_right = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            s1 = make_system(
                "L", ["u0"], ["e0"], {f"a{i}": "u0" for i in range(n_left)}
            )
            s2 = make_system(
                "R", ["u1"], ["e1"], {f"b{j}": "u1" for j in range(n_right)}
            )
            net = BooleanNetwork((s1, s2))
            outs = all_outputs(net)
            table = rng.integers(0, 2, size=1 << len(outs)).astype(bool)
            g = BoolFunc(outs, table)
            graph = build_distribution_graph(g, net, "L")
            got = {
                (
                    frozenset(v.index() for v in d.down.satisfying_valuations()),
                    frozenset(v.index() for v in d.up.satisfying_valuations()),
                )
                for d in distributions_from_graph(graph)
            }
            want = enumerate_bicliques_subset(graph)
            assert got == set(want), f"trial {trial}"


def graph_of(adjacency) -> DistributionGraph:
    adjacency = np.asarray(adjacency, dtype=bool)
    n_left, n_right = (int(n).bit_length() - 1 for n in adjacency.shape)
    left = VariableSet([f"l{i}" for i in range(n_left)])
    right = VariableSet([f"r{j}" for j in range(n_right)])
    return DistributionGraph(left, right, BoolFunc(left.union(right), adjacency))


def index_pairs(dists) -> list[tuple[frozenset[int], frozenset[int]]]:
    return [
        (
            frozenset(np.flatnonzero(d.down.table.reshape(-1)).tolist()),
            frozenset(np.flatnonzero(d.up.table.reshape(-1)).tolist()),
        )
        for d in dists
    ]


def assert_maximal_bicliques(graph: DistributionGraph, pairs) -> None:
    """Each pair is a maximal biclique checked directly, L = N(R) and
    R = N(L) with both sides nonempty, and no pair repeats."""
    adjacency = graph.adjacency
    assert len(set(pairs)) == len(pairs)
    for left, right in pairs:
        assert left and right
        rows = np.zeros(adjacency.shape[0], dtype=bool)
        rows[list(left)] = True
        cols = np.zeros(adjacency.shape[1], dtype=bool)
        cols[list(right)] = True
        assert np.array_equal(adjacency[:, cols].all(1), rows)
        assert np.array_equal(adjacency[rows].all(0), cols)


class TestBicliqueEnumeration:
    # Shapes within the subset oracle's budget, 2^(smaller side) x (larger
    # side) <= 2^16, both orientations.
    SHAPES = [(1, 1), (1, 2), (2, 1), (2, 4), (4, 2), (4, 8), (8, 4), (8, 8), (2, 128), (128, 8)]

    def test_matches_subset_oracle_on_random_graphs(self):
        rng = np.random.default_rng(23)
        for trial in range(120):
            shape = self.SHAPES[trial % len(self.SHAPES)]
            density = (0.2, 0.5, 0.8)[trial % 3]
            graph = graph_of(rng.random(shape) < density)
            got = index_pairs(distributions_from_graph(graph))
            assert set(got) == set(enumerate_bicliques_subset(graph)), f"trial {trial}"
            assert_maximal_bicliques(graph, got)

    @pytest.mark.parametrize("shape", [(2, 8), (8, 2), (4, 4)])
    def test_degenerate_matrices_match_subset_oracle(self, shape):
        single = np.zeros(shape, dtype=bool)
        single[1, shape[1] - 1] = True
        for adjacency in (np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool), single):
            graph = graph_of(adjacency)
            got = index_pairs(distributions_from_graph(graph))
            assert set(got) == set(enumerate_bicliques_subset(graph))
            assert len(got) == int(adjacency.any())

    def test_chain4_distribution_graph_is_fast_and_maximal(self):
        # The first leaf of the four-generator chain splits its one output
        # from the other 13: a 2 x 8192 graph, 4 x 8192 subset steps.
        topo = load_topology(FIXTURES / "eps_chain4.topology.json")
        net, contract = compile_to_network(topo)
        leaf = net.topological[-1].name
        graph = build_distribution_graph(contract.guarantee, net, leaf)
        assert graph.adjacency.shape == (2, 8192)
        start = time.perf_counter()
        dists = distributions_from_graph(graph)
        assert time.perf_counter() - start < 1.0
        pairs = index_pairs(dists)
        assert len(pairs) == 1
        assert_maximal_bicliques(graph, pairs)
        assert set(pairs) == set(enumerate_bicliques_subset(graph))



def canonical_key(pair) -> tuple:
    """The documented split order: descending product of side sizes, then
    the left index list."""
    left, right = pair
    return -len(left) * len(right), sorted(left)


class TestCanonicalOrder:
    # One to four rows or columns, so masks narrower than a byte, both
    # orientations, and shapes whose splits tie on the size product.
    SHAPES = [(1, 1), (1, 2), (2, 1), (1, 4), (4, 1), (2, 2), (2, 4), (4, 2), (4, 4),
              (2, 16), (16, 2), (4, 16), (16, 4), (4, 64), (64, 4)]

    def test_order_is_the_documented_key(self):
        rng = np.random.default_rng(5)
        ties = 0
        for shape in self.SHAPES:
            graphs = [np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool)]
            graphs += [rng.random(shape) < density for density in (0.3, 0.5, 0.7) for _ in range(8)]
            for adjacency in graphs:
                graph = graph_of(adjacency)
                got = index_pairs(distributions_from_graph(graph))
                assert got == sorted(enumerate_bicliques_subset(graph), key=canonical_key), shape
                sizes = [len(left) * len(right) for left, right in got]
                ties += len(set(sizes)) < len(sizes)
            assert index_pairs(distributions_from_graph(graph_of(graphs[0]))) == []
            assert len(distributions_from_graph(graph_of(graphs[1]))) == 1
        assert ties > 50

    def test_the_lines_are_pieces_of_the_guarantee(self):
        # With the leaf's outputs first, the graph's relation is the
        # guarantee itself, and Close-by-One's lines, the rows or, for a
        # tall graph, the columns, are its cofactors over that side: pieces
        # of its packed table, checked against the unpacked adjacency.
        from boolsynth.boolfunc import _cofactors
        from boolsynth.network import BooleanNetwork

        from .conftest import make_system

        rng = np.random.default_rng(17)
        for trial in range(60):
            n_left = int(rng.integers(1, 4))
            n_right = int(rng.integers(0, 4))
            s1 = make_system("L", ["u0"], ["e0"], {f"a{i}": "u0" for i in range(n_left)})
            s2 = make_system("R", ["u1"], ["e1"], {f"b{j}": "u1" for j in range(n_right)})
            net = BooleanNetwork((s1, s2))
            g = BoolFunc(all_outputs(net), rng.random(1 << (n_left + n_right)) < 0.6)
            graph = build_distribution_graph(g, net, "L")
            assert graph.relation is g
            rows = _cofactors(g.bits, n_left + n_right, n_left)
            assert [[bool(row >> j & 1) for j in range(1 << n_right)] for row in rows] == graph.adjacency.tolist()
            columns = _cofactors(g.extend(graph.right_scope.union(graph.left_scope)).bits, n_left + n_right, n_right)
            assert [[bool(column >> i & 1) for i in range(1 << n_left)] for column in columns] \
                == graph.adjacency.T.tolist(), f"trial {trial}"

class TestConjunctiveDecomposition:
    def test_already_conjunctive(self):
        f = BoolFunc.var("e1") & BoolFunc.var("e2")
        parts = conjunctive_decomposition(f, [VariableSet(["e1"]), VariableSet(["e2"])])
        assert parts is not None
        assert parts[0].equivalent(BoolFunc.var("e1"))
        assert parts[1].equivalent(BoolFunc.var("e2"))

    def test_xor_is_not_conjunctive(self):
        f = BoolFunc.var("e1") ^ BoolFunc.var("e2")
        assert conjunctive_decomposition(f, [VariableSet(["e1"]), VariableSet(["e2"])]) is None

    def test_constant_true(self):
        f = BoolFunc.const(VariableSet(["e1", "e2"]), True)
        parts = conjunctive_decomposition(f, [VariableSet(["e1"]), VariableSet(["e2"])])
        assert parts is not None and all(p.is_true for p in parts)

    def test_counting_decision_matches_conjunction(self):
        # product functions (a conjunction of per-block functions) and random
        # ones, against the definition: f equals the conjunction of its
        # block projections
        rng = np.random.default_rng(31)

        def random_func(scope, density):
            return BoolFunc(scope, rng.random(1 << len(scope)) < density)

        decided = set()
        for trial in range(300):
            names = [f"v{i}" for i in range(int(rng.integers(1, 7)))]
            cuts = sorted(set(rng.integers(1, len(names) + 1, size=2).tolist()) | {len(names)})
            blocks = [VariableSet(names[a:b]) for a, b in zip([0, *cuts], cuts)]
            scope = VariableSet(names)
            if trial % 2:
                f = conjoin(random_func(b, 0.7) for b in blocks).extend(scope)
            else:
                f = random_func(scope, (0.3, 0.7, 0.95)[trial % 3])
            projections = [f.project(b) for b in blocks]
            expected = conjoin(projections).equivalent(f)
            parts = conjunctive_decomposition(f, blocks)
            assert (parts is not None) == expected, f"trial {trial}"
            if parts is not None:
                assert all(p == q for p, q in zip(parts, projections))
            decided.add(expected)
        assert decided == {True, False}

    def test_partition_must_cover_exactly(self):
        f = BoolFunc.var("e1") & BoolFunc.var("e2")
        with pytest.raises(ValueError):
            conjunctive_decomposition(f, [VariableSet(["e1"])])
        with pytest.raises(ValueError):
            conjunctive_decomposition(f, [VariableSet(["e1", "e2"]), VariableSet(["e2"])])
