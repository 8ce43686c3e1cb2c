from __future__ import annotations

import time

import numpy as np
import pytest

from boolsynth.boolfunc import BoolFunc, VariableSet
from boolsynth.contracts import ContractPair, DistributionGraph
from boolsynth.network import (
    BooleanNetwork,
    Controller,
    Interconnection,
    Link,
    all_controls,
    all_outputs,
    compose,
    external_inputs,
    flatten,
)
from boolsynth import oracle
from boolsynth.oracle import (
    BudgetExceededError,
    brute_force_distributed,
    controller_table_bits,
    enumerate_bicliques_subset,
    verify_by_substitution,
    verify_closed_loop,
)
from boolsynth.formats import load_contract, load_network
from boolsynth.parser import parse_expr
from boolsynth.synthesis import centralized_synthesis, completeness_certificate, distributed_synthesis

from ._random_instances import random_contract, random_dag_network, random_forest_instance
from .conftest import FIXTURES, make_system, run_with_memory_limit


NET_FIXTURES = sorted(p.name.split(".")[0] for p in FIXTURES.glob("*.net.json"))


def always(net, value):
    return {
        s.name: Controller.constant(s.name, s.env_inputs, s.controls, value)
        for s in net.subsystems
    }


def assert_matches_substitution(net, controllers, contract):
    """The simulated verdict and first counterexample equal those of the
    reference route: existential substitution along the wiring."""
    result = verify_closed_loop(net, controllers, contract)
    assert result == verify_by_substitution(net, controllers, contract)
    return result.ok


def flip_one_bit(ctrl, rng):
    rows = [list(row) for row in ctrl.table]
    r, c = int(rng.integers(0, len(rows))), int(rng.integers(0, len(ctrl.controls)))
    rows[r][c] = not rows[r][c]
    return Controller(ctrl.subsystem, ctrl.inputs, ctrl.controls, tuple(map(tuple, rows)))


def sparse_net():
    """S0 has no environment inputs, S1 no controls, S2 only internal
    inputs; the network has no external inputs at all."""
    s0 = make_system("S0", ["u0"], [], {"y0": "u0"})
    s1 = make_system("S1", [], ["w1"], {"y1": "!w1"})
    s2 = make_system("S2", ["u2"], ["w2a", "w2b"], {"y2": "(w2a ^ w2b) & u2"})
    wiring = Interconnection(
        (Link("S0", "y0", "S1", "w1"), Link("S0", "y0", "S2", "w2a"), Link("S1", "y1", "S2", "w2b"))
    )
    return BooleanNetwork((s0, s1, s2), wiring)


class TestVerifyClosedLoop:
    def test_serial_chain_with_always_on(self, serial_chain):
        net, contract = serial_chain
        assert verify_closed_loop(net, always(net, True), contract).ok

    def test_counterexample_is_first_in_canonical_order(self, serial_chain):
        net, contract = serial_chain
        ctrls = always(net, True)
        ctrls["S1"] = Controller.constant(
            "S1", net.subsystem("S1").env_inputs, net.subsystem("S1").controls, False
        )
        result = verify_closed_loop(net, ctrls, contract)
        assert not result.ok
        assert result.counterexample is not None
        assert result.counterexample["e1"] is True
        assert result.counterexample["e2"] is False

    def test_empty_scope_guarantee(self, serial_chain):
        net, _ = serial_chain
        contract = ContractPair(
            BoolFunc.const(external_inputs(net), True),
            BoolFunc.const(all_outputs(net), True),
        )
        assert verify_closed_loop(net, always(net, False), contract).ok

    def test_missing_controller_rejected(self, serial_chain):
        net, contract = serial_chain
        with pytest.raises(ValueError):
            verify_closed_loop(net, {}, contract)

    def test_interface_mismatch_rejected(self, serial_chain):
        net, contract = serial_chain
        ctrls = always(net, True)
        ctrls["S2"] = Controller.constant("S2", VariableSet(["e2_from_y1", "e2"]), VariableSet(["u2"]))
        with pytest.raises(ValueError, match="interface"):
            verify_closed_loop(net, ctrls, contract)

    def test_agrees_with_composition_on_random_networks(self):
        rng = np.random.default_rng(41)
        verdicts = set()
        for _ in range(60):
            net = random_dag_network(rng)
            contract = random_contract(rng, net)
            out = distributed_synthesis(net, contract)
            if not out.success:
                continue
            assert assert_matches_substitution(net, out.controllers, contract)
            for name, ctrl in out.controllers.items():
                tampered = dict(out.controllers, **{name: flip_one_bit(ctrl, rng)})
                verdicts.add(assert_matches_substitution(net, tampered, contract))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("name", NET_FIXTURES)
    def test_fixtures_agree_with_substitution_under_tampering(self, name):
        net = load_network(FIXTURES / f"{name}.net.json")
        contract = load_contract(FIXTURES / f"{name}.contract.json", net)
        rng = np.random.default_rng(13)
        candidates = [always(net, True), always(net, False)]
        out = distributed_synthesis(net, contract)
        if out.success:
            candidates.append(out.controllers)
        central = centralized_synthesis(net, contract)
        if central is not None:
            candidates.append({central.subsystem: central})
        for controllers in candidates:
            assert_matches_substitution(net, controllers, contract)
            for owner, ctrl in controllers.items():
                if ctrl.controls:
                    tampered = dict(controllers, **{owner: flip_one_bit(ctrl, rng)})
                    assert_matches_substitution(net, tampered, contract)

    def test_two_parents_subsystem_without_external_inputs(self, two_parents):
        net, contract = two_parents
        assert assert_matches_substitution(net, always(net, True), contract)
        assert not assert_matches_substitution(net, always(net, False), contract)

    def test_subsystems_without_controls_or_environment(self):
        net = sparse_net()
        assert external_inputs(net) == VariableSet()
        contract = ContractPair(BoolFunc.const(VariableSet(), True), BoolFunc.var("y2"))
        assert assert_matches_substitution(net, always(net, True), contract)
        result = verify_closed_loop(net, always(net, False), contract)
        assert not result.ok and result.counterexample.bits == ()
        assert_matches_substitution(net, always(net, False), contract)

    def test_external_inputs_beyond_the_table_limit_are_refused(self):
        # Two subsystems of 16 environment inputs each: every table fits, but
        # simulating the closed loop needs vectors over 2^32 valuations.
        done = run_with_memory_limit(EVALUATOR_CHILD)
        assert done.returncode == 0, done.stderr
        assert "2^32 = 4294967296 cells" in done.stdout


EVALUATOR_CHILD = """
from boolsynth.boolfunc import BoolFunc, TableTooLargeError, VariableSet
from boolsynth.contracts import ContractPair
from boolsynth.network import BooleanNetwork, BooleanSystem, Controller
from boolsynth.oracle import verify_closed_loop

systems, controllers = [], {}
for name in ("S1", "S2"):
    env = VariableSet([f"{name}_e{i}" for i in range(16)])
    out = f"{name}_y"
    systems.append(BooleanSystem(
        name, VariableSet(), env, VariableSet([out]), {out: BoolFunc.const(env, True)}
    ))
    controllers[name] = Controller.constant(name, env, VariableSet())
net = BooleanNetwork(tuple(systems))
contract = ContractPair(BoolFunc.const(VariableSet(), True), BoolFunc.var("S1_y"))
try:
    verify_closed_loop(net, controllers, contract)
except TableTooLargeError as exc:
    print(exc)
"""


def random_central(rng, net):
    ext, controls = external_inputs(net), all_controls(net)
    table = rng.integers(0, 2, size=(1 << len(ext), len(controls))).astype(bool)
    return Controller("network", ext, controls, table)


def matches_flattened_route(net, central, contract):
    """A central controller simulated and composed on the network itself
    gives the verdict, counterexample and closed-loop functions of the
    reference route: the flattened network as its only subsystem."""
    flat = BooleanNetwork((flatten(net),))
    result = verify_closed_loop(net, {central.subsystem: central}, contract)
    assert result == verify_closed_loop(flat, {"network": central}, contract)
    assert compose(net, {central.subsystem: central}) == compose(flat, {"network": central})
    return result.ok


class TestCentralController:
    @pytest.mark.parametrize("name", NET_FIXTURES)
    def test_fixtures_match_the_flattened_route(self, name):
        net = load_network(FIXTURES / f"{name}.net.json")
        contract = load_contract(FIXTURES / f"{name}.contract.json", net)
        rng = np.random.default_rng(7)
        centrals = [random_central(rng, net) for _ in range(8)]
        synthesized = centralized_synthesis(net, contract)
        if synthesized is not None:
            assert matches_flattened_route(net, synthesized, contract)
        for central in centrals:
            matches_flattened_route(net, central, contract)

    def test_random_networks_match_the_flattened_route(self):
        rng = np.random.default_rng(59)
        verdicts = set()
        for _ in range(100):
            net = random_dag_network(rng)
            verdicts.add(matches_flattened_route(net, random_central(rng, net), random_contract(rng, net)))
        assert verdicts == {True, False}


class TestBruteForce:
    def test_serial_chain_found_and_verified(self, serial_chain):
        net, contract = serial_chain
        found = brute_force_distributed(net, contract)
        assert found is not None
        assert verify_closed_loop(net, found, contract).ok

    def test_xor_assumption_distributed_controller_exists(self, xor_assumption):
        net, contract = xor_assumption
        found = brute_force_distributed(net, contract)
        assert found is not None
        assert verify_closed_loop(net, found, contract).ok

    def test_false_guarantee_absent(self, serial_chain):
        net, _ = serial_chain
        contract = ContractPair(
            BoolFunc.const(external_inputs(net), True),
            BoolFunc.const(all_outputs(net), False),
        )
        assert brute_force_distributed(net, contract) is None

    def test_assumption_is_evaluated_once_per_search(self, serial_chain, monkeypatch):
        # The admissible mask does not depend on the controllers: a search
        # through all 2^6 candidates evaluates the assumption once.
        net, contract = serial_chain
        contract = ContractPair(contract.assumption, BoolFunc.const(all_outputs(net), False))
        calls = []
        evaluate_many = BoolFunc.evaluate_many

        def counting(self, assignments):
            if self is contract.assumption:
                calls.append(self)
            return evaluate_many(self, assignments)

        monkeypatch.setattr(BoolFunc, "evaluate_many", counting)
        assert brute_force_distributed(net, contract) is None
        assert len(calls) == 1

    def test_first_hit_is_lexicographically_least(self, serial_chain):
        net, _ = serial_chain
        # trivial contract: every controller tuple works, so the all-False
        # tables must be returned
        contract = ContractPair(
            BoolFunc.const(external_inputs(net), True),
            BoolFunc.const(all_outputs(net), True),
        )
        found = brute_force_distributed(net, contract)
        assert found is not None
        for ctrl in found.values():
            assert all(row == (False,) for row in ctrl.table)

    def test_enumeration_is_lazy(self):
        # 3 controls x 2^3 rows = 24 table bits, inside the budget; the
        # all-False table wins, so a lazy search builds one candidate.
        done = run_with_memory_limit(LAZY_SEARCH_CHILD)
        assert done.returncode == 0, done.stderr
        grown_kb, rows = done.stdout.split()
        assert rows == "False"
        assert int(grown_kb) < 100 * 1024

    def test_subsystems_without_controls_or_environment(self):
        # S1 has no controls, so its only table is the empty one.  S2 sees
        # (w2a, w2b) = (u0, !u0), so y2 = u2 and the least tables set u0 = 0
        # and u2 = 1 at row (0, 1) only.
        net = sparse_net()
        contract = ContractPair(BoolFunc.const(VariableSet(), True), BoolFunc.var("y2"))
        found = brute_force_distributed(net, contract)
        assert {name: ctrl.table.tolist() for name, ctrl in found.items()} == {
            "S0": [[False]], "S1": [[]] * 2, "S2": [[False], [True], [False], [False]]
        }
        assert verify_closed_loop(net, found, contract).ok

    def test_budget_is_enforced(self, serial_chain, monkeypatch):
        net, contract = serial_chain
        assert controller_table_bits(net) == 6
        monkeypatch.setattr(oracle, "MAX_CONTROLLER_BITS", 5)
        with pytest.raises(BudgetExceededError):
            brute_force_distributed(net, contract)

    def test_engine_success_confirmed_by_oracle(self, serial_chain, shared_or_guarantee):
        for net, contract in (serial_chain, shared_or_guarantee):
            out = distributed_synthesis(net, contract)
            assert out.success
            assert verify_closed_loop(net, out.controllers, contract).ok
            assert brute_force_distributed(net, contract) is not None

    def test_agreement_on_random_instances(self):
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(40):
            net = random_dag_network(rng)
            if controller_table_bits(net) > 14:
                continue
            contract = random_contract(rng, net)
            checked += 1
            found = brute_force_distributed(net, contract)
            if found is not None:
                assert verify_closed_loop(net, found, contract).ok
            out = distributed_synthesis(net, contract)
            if out.success:
                # one-sidedness: engine success implies a controller exists
                assert found is not None
            elif completeness_certificate(net, contract):
                assert found is None
        assert checked > 10


LAZY_SEARCH_CHILD = """
import resource

from boolsynth.boolfunc import BoolFunc, VariableSet
from boolsynth.contracts import ContractPair
from boolsynth.network import BooleanNetwork, BooleanSystem
from boolsynth.oracle import MAX_CONTROLLER_BITS, brute_force_distributed, controller_table_bits

controls, env = VariableSet(["u1", "u2", "u3"]), VariableSet(["e1", "e2", "e3"])
y = BoolFunc.var("u1") | BoolFunc.var("e1")
net = BooleanNetwork((BooleanSystem("S", controls, env, VariableSet(["y"]), {"y": y}),))
assert controller_table_bits(net) == MAX_CONTROLLER_BITS == 24
contract = ContractPair(BoolFunc.const(env, True), BoolFunc.const(VariableSet(["y"]), True))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
found = brute_force_distributed(net, contract)
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(grown, "True" if found["S"].table.any() else "False")
"""


class TestBicliqueOracle:
    def graph(self, rows):
        adjacency = np.array(rows, dtype=bool)
        n_left = int(np.log2(adjacency.shape[0]))
        n_right = int(np.log2(adjacency.shape[1]))
        left = VariableSet([f"l{i}" for i in range(n_left)])
        right = VariableSet([f"r{j}" for j in range(n_right)])
        return DistributionGraph(left, right, adjacency)

    def test_disjunction_graph_has_two_bicliques(self):
        g = self.graph([[False, True], [True, True]])
        assert enumerate_bicliques_subset(g) == frozenset(
            {
                (frozenset({1}), frozenset({0, 1})),
                (frozenset({0, 1}), frozenset({1})),
            }
        )

    def test_complete_graph_single_biclique(self):
        g = self.graph([[True, True], [True, True]])
        assert enumerate_bicliques_subset(g) == frozenset(
            {(frozenset({0, 1}), frozenset({0, 1}))}
        )

    def test_edgeless_graph_has_none(self):
        g = self.graph([[False, False], [False, False]])
        assert enumerate_bicliques_subset(g) == frozenset()

    def test_size_limit(self):
        big = np.ones((64, 64), dtype=bool)
        left = VariableSet([f"l{i}" for i in range(6)])
        right = VariableSet([f"r{j}" for j in range(6)])
        with pytest.raises(BudgetExceededError):
            enumerate_bicliques_subset(DistributionGraph(left, right, big))

    def test_budget_counts_subsets_of_the_smaller_side(self):
        # 32 x 32 is 1024 node pairs but 2^32 subsets: refused before any work
        square = np.zeros((32, 32), dtype=bool)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="2\\^32 x 32"):
            enumerate_bicliques_subset(self.graph(square.tolist()))
        assert time.perf_counter() - start < 1.0

    def test_maximality_by_definition_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            shape = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            adjacency = rng.integers(0, 2, size=(1 << shape[0], 1 << shape[1])).astype(bool)
            g = self.graph(adjacency.tolist())
            result = enumerate_bicliques_subset(g)
            n_left, n_right = adjacency.shape
            for left, right in result:
                # complete
                assert all(adjacency[i, j] for i in left for j in right)
                # maximal: no node can be added to either side
                for i in set(range(n_left)) - left:
                    assert not all(adjacency[i, j] for j in right)
                for j in set(range(n_right)) - right:
                    assert not all(adjacency[i, j] for i in left)
