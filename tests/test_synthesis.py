from __future__ import annotations

import operator
from functools import reduce
from sys import getrecursionlimit

import numpy as np
import pytest

from boolsynth.boolfunc import BoolFunc, Valuation, VariableSet, all_valuations, conjoin
from boolsynth.contracts import ContractPair, maximal_distributions, project_assumption
from boolsynth.formats import load_contract, load_network
from boolsynth.network import (
    BooleanNetwork,
    BooleanSystem,
    Interconnection,
    Link,
    all_outputs,
    classify_inputs,
    compose,
    external_inputs,
    flatten,
)
from boolsynth.oracle import verify_closed_loop
from boolsynth import contracts, network, synthesis
from boolsynth.parser import parse_expr
from boolsynth.synthesis import (
    TraceEntry,
    UnrealizableError,
    centralized_synthesis,
    check_realizable,
    completeness_certificate,
    distributed_synthesis,
    extract_controller,
    least_restrictive_assumption,
    rewire_to_parent_outputs,
    update_contract,
)

from ._random_instances import random_boolfunc, random_contract, random_dag_network
from .conftest import FIXTURES, make_system


def local_scope(sys):
    return sys.controls.union(sys.env_inputs)


class TestCheckRealizable:
    def test_free_output_realizable(self, serial_chain):
        net, _ = serial_chain
        s1 = net.subsystem("S1")
        assert check_realizable(s1, BoolFunc.var("e1"), BoolFunc.var("y1"))

    def test_conjunction_with_env_unrealizable(self, xor_assumption):
        net, _ = xor_assumption
        s1 = net.subsystem("S1")
        true_over_e1 = BoolFunc.const(VariableSet(["e1"]), True)
        assert not check_realizable(s1, true_over_e1, BoolFunc.var("y1"))

    def test_true_guarantee_always_realizable(self, shared_or_guarantee):
        net, _ = shared_or_guarantee
        for name in net.names:
            sys = net.subsystem(name)
            g = BoolFunc.const(sys.outputs, True)
            assert check_realizable(sys, BoolFunc.const(VariableSet(), True), g)

    def test_pinning_internal_inputs(self, serial_chain):
        net, _ = serial_chain
        s2 = net.subsystem("S2")
        a = BoolFunc.const(VariableSet(["e2"]), True)
        pin = VariableSet(["e2_from_y1"])
        assert check_realizable(s2, a & BoolFunc.exactly(Valuation(pin, (True,))), BoolFunc.var("y2"))
        assert not check_realizable(
            s2, a & BoolFunc.exactly(Valuation(pin, (False,))), BoolFunc.var("y2")
        )


class TestExtractController:
    def test_serial_chain_child_controller(self, serial_chain):
        net, _ = serial_chain
        s2 = net.subsystem("S2")
        assumption = BoolFunc.var("e2_from_y1")  # internal input pinned true
        ctrl = extract_controller(s2, assumption, BoolFunc.var("y2"))
        for env in all_valuations(s2.env_inputs):
            if assumption.evaluate(env.as_dict()):
                assert ctrl(env.as_dict()) == {"u2": True}

    def test_true_guarantee_gives_all_false_table(self, serial_chain):
        net, _ = serial_chain
        s1 = net.subsystem("S1")
        ctrl = extract_controller(
            s1, BoolFunc.const(VariableSet(["e1"]), True), BoolFunc.const(s1.outputs, True)
        )
        assert all(row == (False,) for row in ctrl.table)

    def test_root_controller_sets_output_when_admissible(self, serial_chain):
        net, _ = serial_chain
        s1 = net.subsystem("S1")
        ctrl = extract_controller(s1, BoolFunc.var("e1"), BoolFunc.var("y1"))
        assert ctrl({"e1": True}) == {"u1": True}

    def test_unrealizable_raises(self, xor_assumption):
        net, _ = xor_assumption
        s1 = net.subsystem("S1")
        with pytest.raises(UnrealizableError):
            extract_controller(
                s1, BoolFunc.const(VariableSet(["e1"]), True), BoolFunc.var("y1")
            )

    def test_tie_breaking_is_lexicographically_least(self):
        sys = make_system("S", ["u1", "u2"], ["e"], {"y": "u1 | u2 | e"})
        ctrl = extract_controller(
            sys, BoolFunc.const(VariableSet(["e"]), True), BoolFunc.var("y")
        )
        # e=False: smallest satisfying control is (False, True)
        assert ctrl({"e": False}) == {"u1": False, "u2": True}
        # e=True: anything works, all-False is least
        assert ctrl({"e": True}) == {"u1": False, "u2": False}


class TestLeastRestrictiveAssumption:
    def test_serial_chain_child(self, serial_chain):
        net, _ = serial_chain
        s2 = net.subsystem("S2")
        internal, _ = classify_inputs(net, "S2")
        lra = least_restrictive_assumption(
            s2, BoolFunc.const(VariableSet(["e2"]), True), BoolFunc.var("y2"), internal
        )
        assert lra.equivalent(BoolFunc.var("e2_from_y1"))

    def test_two_parent_sink(self, two_parents):
        net, _ = two_parents
        s3 = net.subsystem("S3")
        internal, _ = classify_inputs(net, "S3")
        lra = least_restrictive_assumption(
            s3, BoolFunc.const(VariableSet(), True), BoolFunc.var("y3"), internal
        )
        assert lra.equivalent(BoolFunc.var("e3_from_y1") | BoolFunc.var("e3_from_y2"))

    def test_no_internal_inputs_gives_empty_scope_constant(self, serial_chain):
        net, _ = serial_chain
        s1 = net.subsystem("S1")
        lra = least_restrictive_assumption(
            s1, BoolFunc.var("e1"), BoolFunc.var("y1"), VariableSet()
        )
        assert len(lra.scope) == 0 and lra.is_true

    def test_permissiveness_is_exact(self, shared_or_guarantee):
        # Membership in the LRA is equivalent to realizability with the
        # internal inputs pinned, pointwise.
        net, contract = shared_or_guarantee
        s2 = net.subsystem("S2")
        internal, _ = classify_inputs(net, "S2")
        a = BoolFunc.const(VariableSet(["e2"]), True)
        g = BoolFunc.var("y2")
        lra = least_restrictive_assumption(s2, a, g, internal)
        for val in all_valuations(internal):
            assert lra.evaluate(val.as_dict()) == check_realizable(s2, a & BoolFunc.exactly(val), g)

    def test_lra_is_false_when_no_control_wins(self, xor_assumption):
        net, _ = xor_assumption
        s1 = net.subsystem("S1")
        lra = least_restrictive_assumption(
            s1, BoolFunc.const(VariableSet(["e1"]), True), BoolFunc.var("y1"), VariableSet()
        )
        assert lra.is_false


def random_subset(rng, names) -> VariableSet:
    """A random subset of `names` in random order."""
    names = list(names)
    return VariableSet(names[i] for i in rng.permutation(len(names))[: rng.integers(0, len(names) + 1)])


def random_system(rng) -> BooleanSystem:
    """0-3 environment inputs, 0-2 controls, 1-3 outputs; each output reads
    a random subset of the inputs in random order."""
    controls = VariableSet(f"u{k}" for k in range(rng.integers(0, 3)))
    env = VariableSet(f"e{k}" for k in range(rng.integers(0, 4)))
    outputs = VariableSet(f"y{k}" for k in range(rng.integers(1, 4)))
    inputs = controls.union(env)
    functions = {y: random_boolfunc(rng, random_subset(rng, inputs)) for y in outputs}
    return BooleanSystem("S", controls, env, outputs, functions)


def record_output_bits(monkeypatch) -> list:
    """Patch `BooleanSystem.output_bits` to log ``(system name, outputs,
    packed tables)`` per call; returns the log."""
    calls = []
    original = BooleanSystem.output_bits

    def recording(sys, outputs):
        calls.append((sys.name, outputs, original(sys, outputs)))
        return calls[-1][2]

    monkeypatch.setattr(BooleanSystem, "output_bits", recording)
    return calls


class TestGameAgainstSubstitution:
    """The packed game against the existential route ``guarantee.substitute``."""

    @staticmethod
    def reference(sys, assumption, guarantee, internal):
        g_f = guarantee.substitute(sys.functions).extend(sys.env_inputs.union(sys.controls))
        can_win = g_f.project(sys.env_inputs)
        losing = assumption & ~can_win
        rows = []
        for e in all_valuations(sys.env_inputs):
            wins = [u for u in all_valuations(sys.controls) if g_f.evaluate(e.as_dict() | u.as_dict())]
            rows.append(wins[0].bits if wins else (False,) * len(sys.controls))
        return losing.is_false, ~losing.project(internal), rows

    def test_random_systems(self):
        rng = np.random.default_rng(2024)
        realizable = unrealizable = 0
        for _ in range(300):
            sys = random_system(rng)
            for g_scope in (VariableSet(), random_subset(rng, sys.outputs), random_subset(rng, sys.outputs)):
                guarantee = random_boolfunc(rng, g_scope)
                assumption = random_boolfunc(rng, random_subset(rng, sys.env_inputs))
                internal = random_subset(rng, sys.env_inputs)
                ok, lra, rows = self.reference(sys, assumption, guarantee, internal)
                assert check_realizable(sys, assumption, guarantee) == ok
                assert least_restrictive_assumption(sys, assumption, guarantee, internal) == lra
                if ok:
                    realizable += 1
                    ctrl = extract_controller(sys, assumption, guarantee)
                    assert [tuple(r) for r in ctrl.table.tolist()] == rows
                else:
                    unrealizable += 1
                    with pytest.raises(UnrealizableError):
                        extract_controller(sys, assumption, guarantee)
        assert realizable > 100 and unrealizable > 100

    def test_parity_guarantee_expands_each_cofactor_once(self, monkeypatch):
        # y0 ^ ... ^ y13 has 2^13 satisfying valuations, but at each depth
        # only two cofactors, the parity of the outputs left and its
        # complement, so the expansion reads the output tables O(14) times
        # (29: the last output's two literals are not kept) where the plain
        # expansion would read them 2^14 - 1 times.
        reads = []

        class Counted(tuple):
            def __getitem__(self, i):
                reads.append(i)
                return tuple.__getitem__(self, i)

        original = BooleanSystem.output_bits
        monkeypatch.setattr(BooleanSystem, "output_bits", lambda sys, outputs: Counted(original(sys, outputs)))
        rng = np.random.default_rng(14)
        controls, env = VariableSet(["u0", "u1"]), VariableSet(["e0", "e1", "e2"])
        outputs = VariableSet(f"y{k}" for k in range(14))
        guarantee = reduce(operator.xor, map(BoolFunc.var, outputs))
        verdicts = set()
        for _ in range(4):
            functions = {y: random_boolfunc(rng, random_subset(rng, controls.union(env))) for y in outputs}
            sys = BooleanSystem("S", controls, env, outputs, functions)
            assumption = random_boolfunc(rng, random_subset(rng, env))
            internal = random_subset(rng, env)
            ok, lra, rows = self.reference(sys, assumption, guarantee, internal)
            reads.clear()
            assert check_realizable(sys, assumption, guarantee) == ok
            assert len(reads) <= 2 * len(outputs) + 1
            assert least_restrictive_assumption(sys, assumption, guarantee, internal) == lra
            if ok:
                assert [tuple(r) for r in extract_controller(sys, assumption, guarantee).table.tolist()] == rows
            verdicts.add(ok)
        assert verdicts == {True, False}

    def test_internal_inputs_and_assumption_out_of_environment_order(self):
        # The LRA is projected in environment-input order and transposed
        # when `internal` lists its inputs otherwise; the assumption's scope
        # is a permutation of part of the environment inputs.  Over (e2, e0)
        # the LRA is e0 & !e2, which a missing transpose turns into e2 & !e0.
        sys = make_system("S", ["u"], ["e0", "e1", "e2"], {"y": "e0 & !e2 | u & e1"})
        assumption = parse_expr("!e1 | e2", VariableSet(["e2", "e1"]))
        guarantee = BoolFunc.var("y")
        for names, expected in [(["e2", "e0"], "e0 & !e2"), (["e0", "e2"], "e0 & !e2"),
                                (["e2", "e1", "e0"], "e1 | e0 & !e2")]:
            internal = VariableSet(names)
            lra = least_restrictive_assumption(sys, assumption, guarantee, internal)
            assert lra == self.reference(sys, assumption, guarantee, internal)[1]
            assert lra == parse_expr(expected, internal)

    def test_wide_output_set_with_a_narrow_guarantee(self):
        # 31 outputs: ranks over all of them would need a 2^31-cell guarantee
        # table; the game ranks only the guarantee's scope.
        sys = make_system("S", ["u"], ["e"], {f"y{k}": "u ^ e" if k == 3 else "u" for k in range(31)})
        net = BooleanNetwork((sys,))
        contract = ContractPair(BoolFunc.const(VariableSet(["e"]), True), BoolFunc.var("y3"))
        assert check_realizable(sys, contract.assumption, contract.guarantee)
        central = centralized_synthesis(net, contract)
        assert central is not None
        assert verify_closed_loop(net, {central.subsystem: central}, contract).ok

    @pytest.mark.parametrize(
        "fixture", ["serial_chain", "xor_assumption", "shared_or_guarantee", "two_parents"]
    )
    def test_each_subsystem_packs_each_scope_once(self, fixture, request, monkeypatch):
        net, contract = request.getfixturevalue(fixture)
        calls = record_output_bits(monkeypatch)
        extracted = []
        original = synthesis.extract_controller

        def extracting(*args):
            before = len(calls)
            ctrl = original(*args)
            extracted.append(len(calls) - before)
            return ctrl

        monkeypatch.setattr(synthesis, "extract_controller", extracting)
        out = distributed_synthesis(net, contract)
        first = {}
        for name, outputs, bits in calls:
            assert first.setdefault((name, outputs), bits) is bits
        assert {name for name, _ in first} == set(net.names)
        # each extraction after a success reads the G(f) its least
        # restrictive assumption was computed on, so it packs nothing
        assert extracted == ([0] * len(net.names) if out.success else [])

    def test_packed_tables_last_one_call(self, two_parents, monkeypatch):
        net, contract = two_parents
        calls = record_output_bits(monkeypatch)
        distributed_synthesis(net, contract)
        first_call = [bits for _, _, bits in calls]
        distributed_synthesis(net, contract)
        second_call = [bits for _, _, bits in calls[len(first_call):]]
        assert second_call and not any(a is b for a in first_call for b in second_call)
        assert all(not s._bits and not s._plans for s in net.subsystems)

    @pytest.mark.parametrize("stray", ["u1", "e2", "y1"])
    def test_assumption_over_non_environment_variables_refused(self, serial_chain, stray):
        net, _ = serial_chain
        s1 = net.subsystem("S1")
        assumption = BoolFunc.var("e1") & BoolFunc.var(stray)
        guarantee = BoolFunc.var("y1")
        with pytest.raises(ValueError, match="extension scope is missing"):
            check_realizable(s1, assumption, guarantee)
        with pytest.raises(ValueError, match="extension scope is missing"):
            least_restrictive_assumption(s1, assumption, guarantee, VariableSet())
        with pytest.raises(ValueError, match="extension scope is missing"):
            extract_controller(s1, assumption, guarantee)


class TestRewire:
    def test_chain_rewires_to_parent_output(self, serial_chain):
        net, _ = serial_chain
        lra = BoolFunc.var("e2_from_y1")
        assert rewire_to_parent_outputs(lra, net, "S2") == BoolFunc.var("y1")

    def test_empty_scope_unchanged(self, serial_chain):
        net, _ = serial_chain
        lra = BoolFunc.const(VariableSet(), True)
        assert rewire_to_parent_outputs(lra, net, "S2") == lra

    def test_two_parent_rewiring(self, two_parents):
        net, _ = two_parents
        lra = BoolFunc.var("e3_from_y1") | BoolFunc.var("e3_from_y2")
        rewired = rewire_to_parent_outputs(lra, net, "S3")
        assert rewired.equivalent(BoolFunc.var("y1") | BoolFunc.var("y2"))

    def test_undriven_variable_rejected(self, serial_chain):
        net, _ = serial_chain
        with pytest.raises(ValueError):
            rewire_to_parent_outputs(BoolFunc.var("e2"), net, "S2")


def random_wiring(rng) -> BooleanNetwork:
    """One or two parents with one to three outputs between them, driving one
    to three internal inputs of leaf L, so one output may drive several."""
    outputs = [f"y{k}" for k in range(int(rng.integers(1, 4)))]
    owner = {y: "P1" if k == 0 or rng.random() < 0.5 else "P2" for k, y in enumerate(outputs)}
    pins = [f"w{i}" for i in range(int(rng.integers(1, 4)))]
    sources = [outputs[int(rng.integers(len(outputs)))] for _ in pins]
    links = tuple(Link(owner[y], y, "L", w) for w, y in zip(pins, sources))
    parents = []
    for p in ("P1", "P2"):
        ys = VariableSet(y for y in outputs if owner[y] == p)
        if ys:
            functions = {y: BoolFunc.var(f"u{p}") for y in ys}
            parents.append(BooleanSystem(p, VariableSet([f"u{p}"]), VariableSet(), ys, functions))
    leaf = BooleanSystem("L", VariableSet(["u"]), VariableSet(["e", *pins]), VariableSet(["z"]),
                         {"z": BoolFunc.var("u")})
    return BooleanNetwork((*parents, leaf), Interconnection(links))


class TestRewireAgainstSubstitution:
    """Rewiring aliases each internal input to its driver: the same function
    as substituting the driving output for the input, fan-out included."""

    def test_random_wirings(self):
        rng = np.random.default_rng(12)
        fan_out = two_parents = empty = 0
        for _ in range(300):
            net = random_wiring(rng)
            assert not net.violations
            pins = net.subsystem("L").env_inputs.without(["e"])
            scope = VariableSet(w for w in pins if rng.random() < 0.7)
            constant = BoolFunc.const(VariableSet(), bool(rng.random() < 0.5))
            for lra in (random_boolfunc(rng, scope), constant):
                reference = lra.substitute({v: BoolFunc.var(net.drivers[v]) for v in lra.scope})
                rewired = rewire_to_parent_outputs(lra, net, "L")
                assert rewired.scope == reference.scope
                assert np.array_equal(rewired.table, reference.table)
                drivers = [net.drivers[v] for v in lra.scope]
                fan_out += len(set(drivers)) < len(drivers)
                parents = {l.from_sys for l in net.wiring.links if l.to_input in lra.scope}
                two_parents += len(parents) == 2
                empty += not lra.scope
        assert fan_out > 20 and two_parents > 20 and empty > 300


class TestUpdateContract:
    def test_assumption_unchanged_guarantee_strengthened(self, serial_chain):
        net, contract = serial_chain
        up = BoolFunc.const(VariableSet(["y1"]), True)
        new = update_contract(contract, up, BoolFunc.var("y1"))
        assert new.assumption == contract.assumption
        assert new.guarantee.equivalent(BoolFunc.var("y1"))

    def test_trivial_update(self, serial_chain):
        _, contract = serial_chain
        top = BoolFunc.const(VariableSet(), True)
        assert update_contract(contract, top, top).guarantee.is_true

    def test_equals_the_conjunction_on_random_wirings(self):
        # One AND of two broadcast views gives `up & lra_rewired`, scope and
        # table, whether or not `up` reads the parent outputs.
        rng = np.random.default_rng(5)
        shared = 0
        for _ in range(300):
            net = random_wiring(rng)
            pins = net.subsystem("L").env_inputs.without(["e"])
            rewired = rewire_to_parent_outputs(random_boolfunc(rng, random_subset(rng, pins)), net, "L")
            up = random_boolfunc(rng, random_subset(rng, [*all_outputs(net), "z2"]))
            contract = ContractPair(BoolFunc.var("e"), up)
            got = update_contract(contract, up, rewired)
            want = up & rewired
            assert got.assumption == contract.assumption
            assert got.guarantee.scope == want.scope
            assert np.array_equal(got.guarantee.table, want.table)
            shared += any(v in up.scope for v in rewired.scope)
        assert shared > 50


class TestDistributedSynthesis:
    def test_serial_chain_succeeds_with_expected_local_contracts(self, serial_chain):
        net, contract = serial_chain
        out = distributed_synthesis(net, contract)
        assert out.success
        assert set(out.controllers) == {"S1", "S2"}
        assert out.local_contracts["S2"].assumption.equivalent(BoolFunc.var("e2_from_y1"))
        assert out.local_contracts["S2"].guarantee.equivalent(BoolFunc.var("y2"))
        assert out.local_contracts["S1"].assumption.equivalent(BoolFunc.var("e1"))
        assert out.local_contracts["S1"].guarantee.equivalent(BoolFunc.var("y1"))

    def test_xor_assumption_fails_but_controllers_exist(self, xor_assumption):
        net, contract = xor_assumption
        out = distributed_synthesis(net, contract)
        assert not out.success
        assert out.controllers == {} and out.local_contracts == {}
        # the trace ends at the subsystem whose candidates ran out
        assert out.trace[-1].subsystem == "S1"
        assert out.trace[-1].lra.is_false
        # ... even though hand-written local contracts are realizable:
        s2, s1 = net.subsystem("S2"), net.subsystem("S1")
        pi2 = extract_controller(
            s2,
            parse_expr("e2 | e2_from_y1", s2.env_inputs),
            BoolFunc.var("y2"),
        )
        pi1 = extract_controller(s1, BoolFunc.var("e1"), BoolFunc.var("y1"))
        assert verify_closed_loop(net, {"S1": pi1, "S2": pi2}, contract).ok

    def test_shared_guarantee_succeeds_after_backtracking(self, shared_or_guarantee):
        net, contract = shared_or_guarantee
        out = distributed_synthesis(net, contract)
        assert out.success
        # first split (down=True, up=y1) fails at S1, second one succeeds
        attempts = [(t.subsystem, t.distribution) for t in out.trace]
        assert attempts == [("S2", 0), ("S1", 0), ("S2", 1), ("S1", 0)]
        assert verify_closed_loop(net, out.controllers, contract).ok

    def test_backtracking_projects_each_assumption_once(self, shared_or_guarantee, monkeypatch):
        import boolsynth.synthesis

        projected = []

        def counting(assumption, net, name):
            projected.append(name)
            return project_assumption(assumption, net, name)

        monkeypatch.setattr(boolsynth.synthesis, "project_assumption", counting)
        net, contract = shared_or_guarantee
        out = distributed_synthesis(net, contract)
        assert out.success and len(out.trace) > len(net.subsystems)
        assert sorted(projected) == sorted(net.names)

    def test_single_subsystem_degenerates_to_one_qsat(self):
        from boolsynth.network import BooleanNetwork

        sys = make_system("S", ["u"], ["e"], {"y": "e & u"})
        net = BooleanNetwork((sys,))
        contract = ContractPair(
            parse_expr("e", external_inputs(net)), parse_expr("y", all_outputs(net))
        )
        out = distributed_synthesis(net, contract)
        assert out.success
        assert centralized_synthesis(net, contract) is not None
        bad = ContractPair(
            BoolFunc.const(external_inputs(net), True), parse_expr("y", all_outputs(net))
        )
        assert not distributed_synthesis(net, bad).success
        assert centralized_synthesis(net, bad) is None

    @pytest.mark.parametrize("fixture", ["serial_chain", "xor_assumption", "shared_or_guarantee", "two_parents"])
    def test_central_synthesis_builds_the_plant_game_once(self, fixture, request, monkeypatch):
        net, contract = request.getfixturevalue(fixture)
        calls = []
        original = synthesis._winning
        monkeypatch.setattr(synthesis, "_winning", lambda *a: calls.append(a) or original(*a))
        controller = centralized_synthesis(net, contract)
        assert len(calls) == 1
        realizable = check_realizable(flatten(net), contract.assumption, contract.guarantee)
        assert (controller is not None) == realizable

    def test_two_parents_first_elimination_and_success(self, two_parents):
        net, contract = two_parents
        internal, _ = classify_inputs(net, "S3")
        s3 = net.subsystem("S3")
        gamma = maximal_distributions(contract.guarantee, net, "S3")[0]
        lra = least_restrictive_assumption(
            s3, BoolFunc.const(VariableSet(), True), gamma.down, internal
        )
        updated = update_contract(
            contract, gamma.up, rewire_to_parent_outputs(lra, net, "S3")
        )
        assert updated.assumption.is_true
        assert updated.guarantee.equivalent(BoolFunc.var("y1") | BoolFunc.var("y2"))

    def test_deterministic_outcomes(self, shared_or_guarantee):
        net, contract = shared_or_guarantee
        a = distributed_synthesis(net, contract)
        b = distributed_synthesis(net, contract)
        assert a == b

    def test_recorded_local_contracts_are_realized_by_their_controllers(
        self, serial_chain, shared_or_guarantee, two_parents
    ):
        for net, contract in (serial_chain, shared_or_guarantee, two_parents):
            out = distributed_synthesis(net, contract)
            assert out.success
            for name, lc in out.local_contracts.items():
                sys = net.subsystem(name)
                ctrl = out.controllers[name]
                for env in all_valuations(sys.env_inputs):
                    if not lc.assumption.evaluate(env.as_dict()):
                        continue
                    point = env.as_dict() | ctrl(env.as_dict())
                    outputs = {y: f.evaluate(point) for y, f in sys.functions.items()}
                    assert lc.guarantee.evaluate(outputs)

    @pytest.mark.parametrize(
        "fixture", ["serial_chain", "xor_assumption", "shared_or_guarantee", "two_parents"]
    )
    def test_controllers_are_extracted_once_from_the_local_contracts(
        self, fixture, request, monkeypatch
    ):
        net, contract = request.getfixturevalue(fixture)
        calls = []
        original = synthesis.extract_controller
        monkeypatch.setattr(
            synthesis, "extract_controller", lambda *a: calls.append(a) or original(*a)
        )
        out = distributed_synthesis(net, contract)
        if not out.success:
            assert fixture == "xor_assumption"
            assert calls == []
            return
        assert sorted(sys.name for sys, _, _ in calls) == sorted(net.names)
        for sys, assumption, guarantee in calls:
            assert out.local_contracts[sys.name] == ContractPair(assumption, guarantee)


def four_fixtures_and_random_dags(request) -> list:
    """The four net fixtures and 50 seeded random DAG instances."""
    names = ["serial_chain", "xor_assumption", "shared_or_guarantee", "two_parents"]
    instances = [request.getfixturevalue(name) for name in names]
    rng = np.random.default_rng(29)
    for _ in range(50):
        net = random_dag_network(rng)
        instances.append((net, random_contract(rng, net)))
    return instances


def refuse(*args):
    raise AssertionError("the search reads the network it searches")


class TestFactsReadOnce:
    """The search takes the leaf order and the wiring from the network and
    fixes each leaf's facts before its first attempt."""

    def test_no_second_leaf_order(self, request, monkeypatch):
        instances = four_fixtures_and_random_dags(request)
        expected = [distributed_synthesis(net, contract) for net, contract in instances]
        fresh = [BooleanNetwork(net.subsystems, net.wiring) for net, _ in instances]
        for net in fresh:
            net.topological  # the one peel order, and the report, cached before the search
        monkeypatch.setattr(network, "_leaf_order", refuse)
        for net, (_, contract), want in zip(fresh, instances, expected):
            assert distributed_synthesis(net, contract) == want

    def test_each_leaf_assumption_extended_once(self, request, monkeypatch):
        handed: dict[str, set] = {}
        original = synthesis.least_restrictive_assumption

        def recording(sys, assumption, guarantee, internal):
            assert assumption.scope == sys.env_inputs
            handed.setdefault(sys.name, set()).add(id(assumption))
            return original(sys, assumption, guarantee, internal)

        monkeypatch.setattr(synthesis, "least_restrictive_assumption", recording)
        attempts = 0
        for net, contract in four_fixtures_and_random_dags(request):
            handed.clear()
            attempts += len(distributed_synthesis(net, contract).trace)
            assert all(len(ids) == 1 for ids in handed.values())
        assert attempts > 54

    def test_distribution_reads_no_output_set(self, request, monkeypatch):
        instances = four_fixtures_and_random_dags(request)
        expected = [
            [maximal_distributions(contract.guarantee, net, name) for name in net.names]
            for net, contract in instances
        ]
        monkeypatch.setattr(contracts, "all_outputs", refuse)
        for (net, contract), want in zip(instances, expected):
            got = [maximal_distributions(contract.guarantee, net, name) for name in net.names]
            assert got == want


def memo_free_synthesize(net, leaves, guarantee, trace):
    """`synthesis._synthesize` as it was before its memos: every subproblem
    and every least restrictive assumption is computed afresh, and each
    strengthened guarantee is built by `update_contract` over its own union
    of scopes, not over the leaf's planned scope."""
    if not leaves:
        return {} if guarantee.is_true else None
    sys, internal, local_assumption, admissible, *_ = leaves[0]
    for idx, gamma in enumerate(synthesis.maximal_distributions(guarantee, net, sys.name)):
        lra = synthesis.least_restrictive_assumption(sys, admissible, gamma.down, internal)
        trace.append(TraceEntry(sys.name, idx, lra))
        if lra.is_false:
            continue
        contract = ContractPair(BoolFunc.const(VariableSet(), True), guarantee)
        local_contracts = memo_free_synthesize(
            net, leaves[1:],
            update_contract(contract, gamma.up, rewire_to_parent_outputs(lra, net, sys.name)).guarantee,
            trace,
        )
        if local_contracts is not None:
            local_contracts[sys.name] = ContractPair(local_assumption & lra, gamma.down)
            return local_contracts
    return None


def counting(monkeypatch, name: str) -> dict:
    """Count the calls the search makes to `synthesis.<name>`."""
    count = {"calls": 0}
    original = getattr(synthesis, name)

    def wrapper(*args):
        count["calls"] += 1
        return original(*args)

    monkeypatch.setattr(synthesis, name, wrapper)
    return count


def net_fixtures_and_random_dags() -> list:
    """Every net fixture, 150 seeded random DAGs of one to three subsystems
    and 150 of five, many of which backtrack, and 150 of five whose
    guarantee reads a random subset of the outputs, so that some leaves
    receive guarantees that read only part of their outputs."""
    instances = []
    for path in sorted(FIXTURES.glob("*.net.json")):
        net = load_network(path)
        instances.append((net, load_contract(path.with_name(path.name.replace(".net.", ".contract.")), net)))
    rng = np.random.default_rng(41)
    for subsystems in [None] * 150 + [5] * 150:
        net = random_dag_network(rng, subsystems)
        instances.append((net, random_contract(rng, net)))
    rng = np.random.default_rng(0)
    for _ in range(150):
        net = random_dag_network(rng, 5)
        outputs = VariableSet(y for y in all_outputs(net) if rng.random() < 0.5)
        instances.append((net, ContractPair(random_boolfunc(rng, external_inputs(net)),
                                            random_boolfunc(rng, outputs))))
    return instances


def backtracking_instance():
    """A five-subsystem DAG whose search makes 120 attempts before success."""
    rng = np.random.default_rng(11)
    net = random_dag_network(rng, 5)
    return net, random_contract(rng, net)


class TestSearchMemos:
    """Within one call the search replays the trace of a failed subproblem
    and reuses each leaf's least restrictive assumption per split-down
    table; outcomes stay those of the memo-free search."""

    def test_outcomes_equal_the_memo_free_search(self, monkeypatch):
        instances = net_fixtures_and_random_dags()
        distributions = counting(monkeypatch, "maximal_distributions")
        got = [distributed_synthesis(net, contract) for net, contract in instances]
        memoized_distributions = distributions["calls"]
        monkeypatch.setattr(synthesis, "_synthesize", memo_free_synthesize)
        distributions["calls"] = 0
        want = [distributed_synthesis(net, contract) for net, contract in instances]
        for out, ref in zip(got, want):
            assert out.success == ref.success
            assert [(t.subsystem, t.distribution, t.lra) for t in out.trace] == [
                (t.subsystem, t.distribution, t.lra) for t in ref.trace
            ]
            assert out.local_contracts == ref.local_contracts
            assert out.controllers == ref.controllers
        # failed subproblems were replayed, not searched again
        assert memoized_distributions < distributions["calls"]
        assert sum(not out.success for out in got) > 20
        assert sum(len(out.trace) > 5 for out in got) > 50

    def test_backtracking_reuses_least_restrictive_assumptions(self, monkeypatch):
        net, contract = backtracking_instance()
        lras = counting(monkeypatch, "least_restrictive_assumption")
        out = distributed_synthesis(net, contract)
        assert out.success and len(out.trace) == 120
        assert lras["calls"] < len(out.trace)

    def test_memos_last_one_call(self, monkeypatch):
        net, contract = backtracking_instance()
        lras = counting(monkeypatch, "least_restrictive_assumption")
        first = distributed_synthesis(net, contract)
        calls = lras["calls"]
        assert distributed_synthesis(net, contract) == first
        assert lras["calls"] == 2 * calls

    def test_a_failure_covers_every_stronger_guarantee(self):
        # The lemma a dominance memo would rest on: the search is monotone in
        # the guarantee, so if it fails for G it fails for any satisfiable
        # G & h.  Five random strengthenings of each failure in two pools.
        failures = cases = 0
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            for _ in range(200):
                net = random_dag_network(rng, 5)
                contract = random_contract(rng, net)
                if distributed_synthesis(net, contract).success:
                    continue
                failures += 1
                for _ in range(5):
                    stronger = contract.guarantee & random_boolfunc(rng, contract.guarantee.scope)
                    if not stronger.is_false:
                        cases += 1
                        out = distributed_synthesis(net, ContractPair(contract.assumption, stronger))
                        assert not out.success, (seed, failures)
        assert failures > 50 and cases > 200


def deep_chain(n: int, root: str) -> tuple[BooleanNetwork, ContractPair]:
    """A serial chain of `n` one-control subsystems, ``y_i = u_i & e_i`` with
    e_i driven by y_{i-1} and ``y_0 = root``, and the guarantee y_{n-1}."""
    systems = [make_system("S0", ["u0"], [], {"y0": root})]
    systems += [make_system(f"S{i}", [f"u{i}"], [f"e{i}"], {f"y{i}": f"u{i} & e{i}"}) for i in range(1, n)]
    links = tuple(Link(f"S{i - 1}", f"y{i - 1}", f"S{i}", f"e{i}") for i in range(1, n))
    net = BooleanNetwork(tuple(systems), Interconnection(links))
    return net, ContractPair(BoolFunc.const(VariableSet(), True), BoolFunc.var(f"y{n - 1}"))


class TestSearchDepth:
    """The search keeps one frame per leaf on a list, not on the
    interpreter's stack, so a chain deeper than the recursion limit is
    searched in process."""

    def test_realizable_chain_deeper_than_the_recursion_limit(self):
        n = getrecursionlimit() + 100
        net, contract = deep_chain(n, "u0")
        out = distributed_synthesis(net, contract)
        assert out.success
        # the deepest leaf, the root, first
        assert list(out.local_contracts) == [f"S{i}" for i in range(n)]
        assert all(lc.guarantee == BoolFunc.var(f"y{i}") for i, lc in enumerate(out.local_contracts.values()))
        assert verify_closed_loop(net, out.controllers, contract).ok

    def test_failing_chain_pops_every_frame(self):
        # The root cannot meet y0, so its only split fails, and each leaf
        # above it runs out of its one split in turn.
        n = getrecursionlimit() + 100
        net, contract = deep_chain(n, "u0 & !u0")
        out = distributed_synthesis(net, contract)
        assert not out.success and out.controllers == {} and out.local_contracts == {}
        assert [(t.subsystem, t.distribution) for t in out.trace] == [(f"S{i}", 0) for i in reversed(range(n))]
        assert out.trace[-1].lra.is_false
        assert not any(t.lra.is_false for t in out.trace[:-1])


class CountedScope(VariableSet):
    """A scope that counts its scans: each iteration and each `in` check."""

    def __iter__(self):
        self.scans += 1
        return super().__iter__()

    def __contains__(self, name):
        self.scans += 1
        return super().__contains__(name)


class TestLinearPlanning:
    """The search reads the network's output order through `peel_index`,
    built once, so no leaf and no attempt scans every output again."""

    @pytest.mark.parametrize("root", ["u0", "u0 & !u0"])
    def test_peel_outputs_scans_do_not_grow_with_the_chain(self, root):
        scans = []
        for n in (100, 2000):
            net, contract = deep_chain(n, root)
            counted = CountedScope._derived(tuple(net.peel_outputs))
            counted.scans = 0
            net.__dict__["peel_outputs"] = counted
            out = distributed_synthesis(net, contract)
            assert out.success == (root == "u0") and len(out.trace) == n
            scans.append(counted.scans)
        assert scans == [1, 1]


def peel_order(net) -> list[str]:
    """Every output, the subsystems children first, each one's outputs in
    declaration order."""
    return [y for sys in reversed(net.topological) for y in sys.outputs]


def handed_scope(net, initial: set, name: str) -> list[str]:
    """The scope of every guarantee the search hands to leaf `name`: the
    initial scope and the drivers of each peeled leaf's internal inputs,
    less the peeled leaves' outputs, in peel order."""
    leaves = list(reversed(net.topological))
    peeled = leaves[: [s.name for s in leaves].index(name)]
    added = {net.drivers[v] for s in peeled for v in s.env_inputs if v in net.drivers}
    gone = {y for s in peeled for y in s.outputs}
    return [y for y in peel_order(net) if (y in initial or y in added) and y not in gone]


class TestOneVariableOrder:
    """Each guarantee the search splits has its scope in the peel order, so
    the leaf's outputs lead and the distribution graph's relation is the
    guarantee itself; and every guarantee handed to one leaf within a call
    has one scope, fixed by the leaves peeled before it."""

    def test_every_split_guarantee_follows_the_peel_order(self, monkeypatch):
        instances = net_fixtures_and_random_dags()
        # fan_out: one output drives two inputs of one subsystem
        assert any(len(set(net.drivers.values())) < len(net.drivers) for net, _ in instances)
        seen = {"calls": 0, "views": 0, "partial": 0, "parents_added": 0}
        original = synthesis.maximal_distributions
        graph = contracts.build_distribution_graph

        def viewed(guarantee, net, name):
            result = graph(guarantee, net, name)
            if guarantee.scope[: len(result.left_scope)] == tuple(result.left_scope):
                assert result.relation is guarantee
                seen["views"] += 1
            return result

        def checking(guarantee, net, name):
            scope = list(guarantee.scope)
            assert scope == handed_scope(net, initial, name)
            read = [y for y in net.subsystem(name).outputs if y in guarantee.scope]
            assert scope[: len(read)] == read
            seen["calls"] += 1
            seen["partial"] += len(read) < len(net.subsystem(name).outputs)
            seen["parents_added"] += not set(scope) <= initial
            return original(guarantee, net, name)

        monkeypatch.setattr(synthesis, "maximal_distributions", checking)
        monkeypatch.setattr(contracts, "build_distribution_graph", viewed)
        for net, contract in instances:
            # an unsatisfiable assumption leaves the guarantee True over no outputs
            initial = set() if contract.assumption.is_false else set(contract.guarantee.scope)
            distributed_synthesis(net, contract)
        assert seen["calls"] > 3000 and seen["views"] > 3000
        # guarantees that do not read all of the leaf's outputs, and
        # strengthened guarantees that read parent outputs the original did not
        assert seen["partial"] > 50 and seen["parents_added"] > 50


class TestSearchMemory:
    def test_chain5_peak_stays_within_its_ratio_of_the_guarantee(self):
        # The search holds packed tables, 2^n / 8 bytes for n variables, and
        # splits the guarantee it receives without reordering it.  On the
        # compiled five-generator chain (n = 20) its tracemalloc peak is
        # 2.50 times the guarantee's packed bytes (328004 bytes); with bool
        # tables it was 1.14 times their 2^20 bytes, and the bound was 1.5
        # times that, four times looser than this one.
        import tracemalloc

        from boolsynth.eps import compile_to_network, load_topology

        net, contract = compile_to_network(load_topology(FIXTURES / "eps_chain5.topology.json"))
        packed_bytes = (1 << len(contract.guarantee.scope)) // 8
        tracemalloc.start()
        try:
            out = distributed_synthesis(net, contract)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.success
        assert peak <= 3 * packed_bytes


class TestVacuousContracts:
    def test_unsatisfiable_assumption_succeeds_vacuously(self):
        from boolsynth.network import BooleanNetwork

        sys = make_system("S", ["u"], ["e"], {"y": "e & u"})
        net = BooleanNetwork((sys,))
        contract = ContractPair(
            BoolFunc.const(external_inputs(net), False),
            parse_expr("y", all_outputs(net)),
        )
        out = distributed_synthesis(net, contract)
        assert out.success
        assert verify_closed_loop(net, out.controllers, contract).ok

    def test_false_guarantee_with_false_assumption_succeeds(self):
        # A False guarantee has no usable split, but with no admissible
        # environment any controller satisfies the contract, as brute force
        # confirms.
        from boolsynth.network import BooleanNetwork

        sys = make_system("S", ["u"], ["e"], {"y": "e & u"})
        net = BooleanNetwork((sys,))
        contract = ContractPair(
            BoolFunc.const(external_inputs(net), False),
            BoolFunc.const(all_outputs(net), False),
        )
        from boolsynth.oracle import brute_force_distributed

        out = distributed_synthesis(net, contract)
        assert out.success
        assert verify_closed_loop(net, out.controllers, contract).ok
        assert brute_force_distributed(net, contract) is not None

    @pytest.mark.parametrize("assume", [False, True])
    @pytest.mark.parametrize("guarantee", [False, True])
    def test_empty_network_agrees_with_central_and_brute_force(self, assume, guarantee):
        # No subsystem is left to peel at once, so the guarantee alone decides.
        from boolsynth.network import BooleanNetwork
        from boolsynth.oracle import brute_force_distributed

        net = BooleanNetwork(())
        contract = ContractPair(BoolFunc.const(VariableSet(), assume), BoolFunc.const(VariableSet(), guarantee))
        want = guarantee or not assume
        out = distributed_synthesis(net, contract)
        assert out.success == want
        assert (centralized_synthesis(net, contract) is not None) == want
        assert (brute_force_distributed(net, contract) is not None) == want
        if out.success:
            assert verify_closed_loop(net, out.controllers, contract).ok


class TestSoundnessTautology:
    def test_local_implications_entail_global_implication(self):
        # (AND_i (A_i -> G_i)) -> (AND_i A_i -> AND_i G_i) is a tautology
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            a = [random_boolfunc(rng, VariableSet([f"a{i}"])) for i in range(n)]
            g = [random_boolfunc(rng, VariableSet([f"g{i}"])) for i in range(n)]
            lhs = conjoin([ai.implies(gi) for ai, gi in zip(a, g)])
            rhs = conjoin(a).implies(conjoin(g))
            assert lhs.implies(rhs).is_true


class TestCompleteness:
    def test_certificates(self, serial_chain, xor_assumption, two_parents):
        for (net, contract), expected in [
            (serial_chain, True),
            (xor_assumption, False),
            (two_parents, False),
        ]:
            assert completeness_certificate(net, contract) == expected

    @pytest.mark.parametrize("assume", [False, True])
    @pytest.mark.parametrize("guarantee", [False, True])
    def test_constant_sides_over_the_empty_scope_are_certified(self, serial_chain, assume, guarantee):
        # A constant splits over any partition, the empty one included, so on
        # a forest the certificate holds whichever way the constants fall.
        from boolsynth.network import BooleanNetwork

        contract = ContractPair(BoolFunc.const(VariableSet(), assume), BoolFunc.const(VariableSet(), guarantee))
        for net in (serial_chain[0], BooleanNetwork(())):
            assert completeness_certificate(net, contract)

    def test_forest_with_conjunctive_contract_certified(self, shared_or_guarantee):
        net, _ = shared_or_guarantee
        contract = ContractPair(
            parse_expr("e1 & e2", external_inputs(net)),
            parse_expr("y1 & y2", all_outputs(net)),
        )
        assert completeness_certificate(net, contract)


class TestRandomSoundness:
    def test_every_success_verifies(self):
        rng = np.random.default_rng(17)
        successes = 0
        for _ in range(120):
            net = random_dag_network(rng)
            contract = random_contract(rng, net)
            out = distributed_synthesis(net, contract)
            if out.success:
                successes += 1
                funcs = compose(net, out.controllers)
                closed = contract.guarantee.substitute(
                    {y: funcs[y] for y in contract.guarantee.scope}
                )
                assert contract.assumption.implies(closed).is_true
                assert verify_closed_loop(net, out.controllers, contract).ok
        assert successes > 5  # the generator finds plenty of realizable cases
