from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest

from boolsynth.boolfunc import BoolFunc, TableTooLargeError, VariableSet, all_valuations
from boolsynth.network import (
    BooleanNetwork,
    BooleanSystem,
    Controller,
    IllPosedNetworkError,
    Interconnection,
    Link,
    all_controls,
    all_outputs,
    check_controllers,
    classify_inputs,
    compose,
    external_inputs,
    flatten,
    is_forest,
    remove_subsystem,
    validate,
)
from boolsynth.network import _leaf_order

from .conftest import make_system, serial_chain_net, shared_or_guarantee_net, two_parents_net


class TestBooleanSystem:
    def test_controls_env_must_be_disjoint(self):
        with pytest.raises(ValueError):
            make_system("S", ["u"], ["u"], {"y": "u"})

    def test_every_output_needs_a_function(self):
        cs, es = VariableSet(["u"]), VariableSet(["e"])
        with pytest.raises(ValueError):
            BooleanSystem("S", cs, es, VariableSet(["y"]), {})

    def test_function_scope_confined_to_inputs(self):
        cs, es = VariableSet(["u"]), VariableSet(["e"])
        rogue = BoolFunc.var("z")
        with pytest.raises(ValueError):
            BooleanSystem("S", cs, es, VariableSet(["y"]), {"y": rogue})

    def test_replace_checks_the_new_fields(self):
        sys = make_system("S", ["u"], ["e"], {"y": "u & e"})
        assert replace(sys) == sys and replace(sys) is not sys
        with pytest.raises(ValueError, match="output 'z' has no defining function"):
            replace(sys, outputs=VariableSet(["z"]))


class TestRecordMemory:
    def test_random_networks_stay_within_their_bytes(self):
        # A scope is a bare tuple and the frozen records are slotted, so 200
        # random networks hold about 2.7 kB each under tracemalloc; with a
        # name->position dict per scope and a __dict__ per record they held
        # 4.4 kB.
        import tracemalloc

        from ._random_instances import random_dag_network

        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            nets = [random_dag_network(rng) for _ in range(200)]
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held / len(nets) <= 3500


class TestOutputBits:
    def test_bits_hold_each_output_at_every_input_valuation(self):
        sys = make_system("S", ["u"], ["e1", "e2"], {"a": "u & e1", "b": "u | e2", "c": "e1 ^ e2"})
        outputs = VariableSet(["c", "a"])
        bits = sys.output_bits(outputs)
        assert len(bits) == 2
        for e in all_valuations(sys.env_inputs):
            for u in all_valuations(sys.controls):
                point = e.as_dict() | u.as_dict()
                cell = e.index() << len(sys.controls) | u.index()
                assert [table >> cell & 1 for table in bits] == [sys.functions[y].evaluate(point) for y in outputs]

    def test_bits_are_memoized_per_scope(self):
        sys = make_system("S", ["u"], ["e"], {"a": "u", "b": "e"})
        ab = sys.output_bits(VariableSet(["a", "b"]))
        assert sys.output_bits(VariableSet(["a", "b"])) is ab
        assert sys.output_bits(VariableSet(["b", "a"])) == ab[::-1]
        assert sys.output_bits(VariableSet()) == ()

    @pytest.mark.parametrize("n", [8, 9, 17])
    def test_every_output_is_packed_over_the_inputs(self, n):
        # env first, then controls: u is the last variable, so its table
        # over (u) is its table over the inputs
        sys = make_system("S", ["u"], [], {f"y{k}": "u" for k in range(n)})
        assert sys.output_bits(sys.outputs) == (0b10,) * n

    def test_unknown_output_rejected(self):
        sys = make_system("S", ["u"], [], {"y": "u"})
        with pytest.raises(ValueError, match="no outputs"):
            sys.output_bits(VariableSet(["z"]))

    def test_oversized_input_scope_refused_before_allocating(self):
        # Output functions may read a few inputs only; the packed tables span all.
        env = VariableSet(f"e{k}" for k in range(31))
        sys = BooleanSystem("S", VariableSet(["u"]), env, VariableSet(["y"]), {"y": BoolFunc.var("u")})
        with pytest.raises(TableTooLargeError, match=r"2\^32"):
            sys.output_bits(sys.outputs)


class TestValidate:
    def test_serial_chain_is_well_posed(self):
        assert validate(serial_chain_net()) == []

    def test_double_driver_reported(self):
        s1 = make_system("S1", ["u1"], ["e1"], {"y1": "u1"})
        s2 = make_system("S2", ["u2"], ["e2"], {"y2": "u2"})
        s3 = make_system("S3", ["u3"], ["e3", "w"], {"y3": "w & u3"})
        net = BooleanNetwork(
            (s1, s2, s3),
            Interconnection((Link("S1", "y1", "S3", "w"), Link("S2", "y2", "S3", "w"))),
        )
        report = validate(net)
        assert any("more than one driver" in p for p in report)

    def test_two_node_cycle_reported(self):
        s1 = make_system("S1", ["u1"], ["a"], {"y1": "a & u1"})
        s2 = make_system("S2", ["u2"], ["b"], {"y2": "b | u2"})
        net = BooleanNetwork(
            (s1, s2),
            Interconnection((Link("S1", "y1", "S2", "b"), Link("S2", "y2", "S1", "a"))),
        )
        assert any("cycle" in p for p in validate(net))

    def test_duplicate_variable_names_reported(self):
        s1 = make_system("S1", ["u1"], ["e1"], {"y1": "u1"})
        s2 = make_system("S2", ["u2"], ["e1"], {"y2": "u2"})
        assert any("declared in both" in p for p in validate(BooleanNetwork((s1, s2))))

    def test_dangling_link_reported(self):
        s1 = make_system("S1", ["u1"], ["e1"], {"y1": "u1"})
        net = BooleanNetwork((s1,), Interconnection((Link("S1", "y1", "SX", "w"),)))
        assert any("unknown subsystem" in p for p in validate(net))

    @pytest.mark.parametrize(
        "links, cyclic",
        [
            # a link into a duplicated name closes no cycle
            ((Link("S2", "y2", "S1", "a"),), False),
            # the duplicated name feeds a real cycle S2 <-> S3
            ((Link("S1", "y1", "S2", "b"), Link("S3", "y3", "S2", "b2"),
              Link("S2", "y2", "S3", "c")), True),
        ],
    )
    def test_cycle_verdict_with_a_duplicated_subsystem_name(self, links, cyclic):
        s1 = make_system("S1", ["u1"], ["a"], {"y1": "a & u1"})
        s1_again = make_system("S1", ["v1"], ["d"], {"z1": "d"})
        s2 = make_system("S2", ["u2"], ["b", "b2"], {"y2": "b | b2 | u2"})
        s3 = make_system("S3", ["u3"], ["c"], {"y3": "c & u3"})
        report = validate(BooleanNetwork((s1, s1_again, s2, s3), Interconnection(links)))
        assert "duplicate subsystem name 'S1'" in report
        assert ("interconnection structure contains a cycle" in report) == cyclic

    def test_ill_posed_refused_by_graph_operations(self):
        s1 = make_system("S1", ["u1"], ["a"], {"y1": "a & u1"})
        s2 = make_system("S2", ["u2"], ["b"], {"y2": "b | u2"})
        net = BooleanNetwork(
            (s1, s2),
            Interconnection((Link("S1", "y1", "S2", "b"), Link("S2", "y2", "S1", "a"))),
        )
        for graph_fact in (lambda: net.edges, lambda: net.topological, lambda: is_forest(net)):
            with pytest.raises(IllPosedNetworkError):
                graph_fact()


def leaves(net: BooleanNetwork) -> list[str]:
    """Subsystems that drive no other, in declaration order."""
    parents = {a for a, _ in net.edges}
    return [n for n in net.names if n not in parents]


def repeated_leaf_removal(names: list[str], pairs: set[tuple[str, str]]) -> list[str] | None:
    """Reference peel order: remove the first name, in declaration order, that
    drives no remaining name, until none is left; None once a cycle blocks."""
    rest, pairs, peeled = list(names), set(pairs), []
    while rest:
        leaf = next((n for n in rest if not any(a == n for a, _ in pairs)), None)
        if leaf is None:
            return None
        rest.remove(leaf)
        pairs = {(a, b) for a, b in pairs if b != leaf}
        peeled.append(leaf)
    return peeled


def random_link_set(rng: np.random.Generator) -> BooleanNetwork:
    """2 to 5 subsystems, each output wired to up to two inputs of each other
    subsystem at random; only the links decide whether the network is acyclic."""
    n = int(rng.integers(2, 6))
    links = [
        Link(f"S{i}", f"y{i}", f"S{j}", f"e{j}_{i}_{m}")
        for i in range(n) for j in range(n) if i != j
        for m in range(int(rng.choice(3, p=[0.7, 0.2, 0.1])))
    ]
    subsystems = tuple(
        make_system(f"S{j}", [f"u{j}"], [f"e{j}_{i}_{m}" for i in range(n) if i != j for m in range(2)],
                    {f"y{j}": f"u{j}"})
        for j in range(n)
    )
    return BooleanNetwork(subsystems, Interconnection(tuple(links)))


class TestSystemGraph:
    def test_serial_chain_graph(self):
        assert serial_chain_net().edges == (("S1", "S2"),)

    def test_two_parents_graph(self):
        assert two_parents_net().edges == (("S1", "S2"), ("S1", "S3"), ("S2", "S3"))

    def test_unwired_networks_have_no_edges(self):
        s1 = make_system("S1", ["u1"], ["e1"], {"y1": "u1"})
        s2 = make_system("S2", ["u2"], ["e2"], {"y2": "u2"})
        assert BooleanNetwork((s1, s2)).edges == ()

    def test_topological_order_exists_for_well_posed(self):
        assert [s.name for s in two_parents_net().topological] == ["S1", "S2", "S3"]

    def test_leaf_order_is_repeated_first_leaf_removal(self):
        rng = np.random.default_rng(17)
        seen = {True: 0, False: 0}
        for _ in range(150):
            net = random_link_set(rng)
            for subsystems in (net.subsystems, net.subsystems[::-1]):
                variant = BooleanNetwork(subsystems, net.wiring)
                pairs = {(l.from_sys, l.to_sys) for l in net.wiring.links}
                peeled = repeated_leaf_removal(list(variant.names), pairs)
                cyclic = "interconnection structure contains a cycle" in validate(variant)
                assert cyclic == (peeled is None)
                seen[cyclic] += 1
                if not cyclic:
                    assert validate(variant) == []
                    assert [s.name for s in variant.topological] == peeled[::-1]
                    assert variant.edges == tuple(
                        (a, b) for a in variant.names for b in variant.names if (a, b) in pairs
                    )
                    assert is_forest(variant) == all(
                        sum(b == n for _, b in pairs) <= 1 for n in variant.names
                    )
        assert min(seen.values()) > 50


def quadratic_leaf_order(names, edges) -> list[str] | None:
    """`network._leaf_order` before it became Kahn's algorithm, kept as the
    reference: one scan of the present nodes per leaf."""
    children = {n: {b for a, b in edges if a == n} for n in names}
    present, order = dict.fromkeys(names), []
    while present:
        leaf = next((n for n in present if present.keys().isdisjoint(children[n])), None)
        if leaf is None:
            return None
        del present[leaf]
        order.append(leaf)
    return order


def load_perfbench_instances():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "instances.py"
    spec = importlib.util.spec_from_file_location("perfbench_instances", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLeafOrder:
    def test_equals_the_quadratic_scan_on_random_digraphs(self):
        # Repeated names, self-loops, edges to undeclared names, acyclic and
        # cyclic graphs.
        rng = np.random.default_rng(31)
        outcomes = {True: 0, False: 0}
        for trial in range(3000):
            pool = [f"n{k}" for k in range(int(rng.integers(1, 9)))]
            names = [pool[k] for k in rng.integers(0, len(pool), int(rng.integers(0, 10)))]
            rank = {n: r for r, n in enumerate(rng.permutation(pool))}
            edges = [(pool[a], pool[b]) for a, b in rng.integers(0, len(pool), (int(rng.integers(0, 12)), 2))]
            if trial % 2:  # keep the graph acyclic: every edge follows one order
                edges = [(a, b) for a, b in edges if rank[a] < rank[b]]
            if trial % 7 == 0:
                edges.append(("undeclared", pool[0]))
            want = quadratic_leaf_order(names, edges)
            assert _leaf_order(names, edges) == want, (names, edges)
            outcomes[want is None] += 1
        assert min(outcomes.values()) > 500

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_equals_the_quadratic_scan_on_shuffled_benchmark_pools(self, seed):
        instances = load_perfbench_instances()
        rng = np.random.default_rng(seed)
        for net, _ in instances.random_dag_pool(np.random.default_rng(seed), 800):
            shuffled = BooleanNetwork(tuple(net.subsystems[i] for i in rng.permutation(len(net.subsystems))),
                                      net.wiring)
            want = quadratic_leaf_order(shuffled.names, shuffled.edges)
            assert _leaf_order(shuffled.names, shuffled.edges) == want
            assert [s.name for s in shuffled.topological] == want[::-1]

    def test_topological_on_a_long_serial_chain(self):
        n = 4000
        systems = [make_system("S0", ["u0"], [], {"y0": "u0"})] + [
            make_system(f"S{i}", [f"u{i}"], [f"w{i}"], {f"y{i}": f"u{i} & w{i}"}) for i in range(1, n)
        ]
        links = tuple(Link(f"S{i - 1}", f"y{i - 1}", f"S{i}", f"w{i}") for i in range(1, n))
        # declared children first, so every leaf is found at the end of the order
        net = BooleanNetwork(tuple(reversed(systems)), Interconnection(links))
        assert net.violations == ()
        assert [s.name for s in net.topological] == [f"S{i}" for i in range(n)]
        assert net.edges == tuple((f"S{i - 1}", f"S{i}") for i in range(n - 1, 0, -1))


class TestClassifyInputs:
    def test_serial_chain_s2(self):
        net = serial_chain_net()
        internal, external = classify_inputs(net, "S2")
        assert list(internal) == ["e2_from_y1"]
        assert list(external) == ["e2"]

    def test_root_has_no_internal_inputs(self):
        internal, _ = classify_inputs(serial_chain_net(), "S1")
        assert list(internal) == []

    def test_two_parent_sink_is_all_internal(self):
        net = two_parents_net()
        internal, external = classify_inputs(net, "S3")
        assert len(internal) == 2 and list(external) == []

    def test_partition_property(self):
        net = two_parents_net()
        for name in net.names:
            internal, external = classify_inputs(net, name)
            sys = net.subsystem(name)
            assert set(internal) | set(external) == set(sys.env_inputs)
            assert not set(internal) & set(external)

    def test_unknown_subsystem(self):
        with pytest.raises(KeyError):
            classify_inputs(serial_chain_net(), "SX")


class TestNetworkScopes:
    def test_declaration_order_computed_once(self):
        # the child is declared first, so declaration and evaluation orders differ
        child = make_system("C", ["uc", "vc"], ["ec", "c_from_p"], {"yc": "uc & c_from_p", "zc": "vc | ec"})
        parent = make_system("P", ["up"], ["ep"], {"yp": "up ^ ep"})
        net = BooleanNetwork((child, parent), Interconnection((Link("P", "yp", "C", "c_from_p"),)))
        assert external_inputs(net) == ("ec", "ep")
        assert all_outputs(net) == ("yc", "zc", "yp")
        assert all_controls(net) == ("uc", "vc", "up")
        for function in (external_inputs, all_outputs, all_controls):
            assert isinstance(function(net), VariableSet)
            assert function(net) is function(net) is getattr(net, function.__name__)

    def test_ill_posed_networks_are_refused_on_every_call(self):
        s1 = make_system("S1", ["u1"], ["e1"], {"y": "u1"})
        s2 = make_system("S2", ["u2"], ["e2"], {"y": "u2"})
        net = BooleanNetwork((s1, s2))
        for _ in range(2):
            with pytest.raises(IllPosedNetworkError):
                external_inputs(net)
            with pytest.raises(ValueError, match="duplicate variable names: y"):
                all_outputs(net)


class TestLeavesAndForest:
    def test_serial_chain(self):
        net = serial_chain_net()
        assert leaves(net) == ["S2"]
        assert is_forest(net)

    def test_two_parents(self):
        net = two_parents_net()
        assert leaves(net) == ["S3"]
        assert not is_forest(net)

    def test_edgeless_graph_all_leaves_and_forest(self):
        s = [make_system(f"S{i}", [f"u{i}"], [f"e{i}"], {f"y{i}": f"u{i}"}) for i in range(3)]
        net = BooleanNetwork(tuple(s))
        assert leaves(net) == ["S0", "S1", "S2"]
        assert is_forest(net)

    def test_empty_graph_is_forest(self):
        net = BooleanNetwork(())
        assert is_forest(net) and leaves(net) == [] and net.topological == ()


def constant_controllers(net, value=True):
    return {
        s.name: Controller.constant(s.name, s.env_inputs, s.controls, value)
        for s in net.subsystems
    }


class TestCompose:
    def test_serial_chain_with_always_on_controllers(self):
        net = serial_chain_net()
        funcs = compose(net, constant_controllers(net, True))
        assert funcs["y1"].is_true
        assert funcs["y2"].is_true

    def test_identity_network_echoes_constants_and_inputs(self):
        # Each subsystem copies (u_i, e_i) to its outputs; no wiring.
        systems = []
        for i in (1, 2):
            systems.append(
                make_system(
                    f"S{i}", [f"u{i}"], [f"e{i}"], {f"yu{i}": f"u{i}", f"ye{i}": f"e{i}"}
                )
            )
        net = BooleanNetwork(tuple(systems))
        funcs = compose(net, constant_controllers(net, True))
        assert funcs["yu1"].is_true and funcs["yu2"].is_true
        assert funcs["ye1"].equivalent(BoolFunc.var("e1"))
        assert funcs["ye2"].equivalent(BoolFunc.var("e2"))

    def test_empty_network_composes_to_nothing(self):
        assert compose(BooleanNetwork(()), {}) == {}

    def test_missing_controller_rejected(self):
        net = serial_chain_net()
        ctrls = constant_controllers(net)
        del ctrls["S2"]
        with pytest.raises(ValueError):
            compose(net, ctrls)

    def test_compose_scope_is_all_external_inputs(self):
        net = serial_chain_net()
        funcs = compose(net, constant_controllers(net))
        assert funcs["y2"].scope == external_inputs(net)

    def test_declaration_order_invariance(self):
        net = shared_or_guarantee_net()
        ctrls = constant_controllers(net)
        reordered = BooleanNetwork(tuple(reversed(net.subsystems)), net.wiring)
        a = compose(net, ctrls)
        b = compose(reordered, ctrls)
        for y in a:
            assert a[y].equivalent(b[y])

    def test_agrees_with_pointwise_simulation(self):
        net = shared_or_guarantee_net()
        ctrls = constant_controllers(net, True)
        funcs = compose(net, ctrls)
        ext = external_inputs(net)
        for bits in itertools.product([False, True], repeat=len(ext)):
            assign = dict(zip(ext, bits))
            y1 = assign["e1"] and True
            y2 = (assign["e2"] or True) and not y1
            assert funcs["y1"].evaluate(assign) == y1
            assert funcs["y2"].evaluate(assign) == y2

    def test_central_controller_sets_every_control(self):
        net = serial_chain_net()
        # u1 = e2 and u2 = e1, one row per (e1, e2) in rank order
        rows = [(e2, e1) for e1, e2 in itertools.product([False, True], repeat=2)]
        central = Controller("network", external_inputs(net), all_controls(net), rows)
        funcs = compose(net, {"network": central})
        e1, e2 = map(BoolFunc.var, ["e1", "e2"])
        assert funcs["y1"].equivalent(e2)
        assert funcs["y2"].equivalent(e1 & e2)

    @pytest.mark.parametrize(
        "inputs, controls", [(["e2", "e1"], ["u1", "u2"]), (["e1", "e2"], ["u2", "u1"])]
    )
    def test_reordered_central_controller_rejected(self, inputs, controls):
        net = serial_chain_net()
        central = Controller.constant("network", VariableSet(inputs), VariableSet(controls))
        with pytest.raises(ValueError, match="missing controller"):
            check_controllers(net, {"network": central})

    @pytest.mark.parametrize("beside", [["S1"], ["S1", "S2"]])
    def test_central_controller_beside_subsystem_controllers_rejected(self, beside):
        net = serial_chain_net()
        ctrls = {name: constant_controllers(net)[name] for name in beside}
        ctrls["network"] = Controller.constant("network", external_inputs(net), all_controls(net))
        with pytest.raises(ValueError, match="missing controller|no subsystem"):
            check_controllers(net, ctrls)

    def test_names_are_cached_and_unknown_controllers_refused(self):
        net = serial_chain_net()
        assert net.names is net.names and net.names == ("S1", "S2")
        ctrls = constant_controllers(net)
        ctrls["S3"] = Controller.constant("S3", VariableSet(), VariableSet(["u3"]))
        with pytest.raises(ValueError, match=r"controllers for no subsystem of the network: \['S3'\]"):
            check_controllers(net, ctrls)


class TestFlatten:
    def test_flattened_plant_matches_manual_elimination(self):
        net = serial_chain_net()
        plant = flatten(net)
        assert list(plant.env_inputs) == ["e1", "e2"]
        assert list(plant.controls) == ["u1", "u2"]
        # y2 = (e2 | u1) & u2 after eliminating the internal input
        u1, u2, e2 = map(BoolFunc.var, ["u1", "u2", "e2"])
        assert plant.functions["y2"].equivalent((e2 | u1) & u2)


class TestRemoveSubsystem:
    def test_remove_leaf(self):
        net = serial_chain_net()
        reduced = remove_subsystem(net, "S2")
        assert reduced.names == ("S1",)
        assert reduced.wiring.links == ()
        assert validate(reduced) == []

    def test_two_parents_reduces_to_shared_guarantee_network(self):
        reduced = remove_subsystem(two_parents_net(), "S3")
        assert reduced == shared_or_guarantee_net()

    def test_remove_last_subsystem(self):
        s1 = make_system("S1", ["u1"], ["e1"], {"y1": "u1"})
        net = BooleanNetwork((s1,))
        assert remove_subsystem(net, "S1").subsystems == ()

    def test_non_leaf_removal_rejected(self):
        with pytest.raises(ValueError):
            remove_subsystem(serial_chain_net(), "S1")

    def test_removal_never_breaks_well_posedness(self):
        net = two_parents_net()
        for leaf in leaves(net):
            assert validate(remove_subsystem(net, leaf)) == []


class TestController:
    def test_totality_enforced(self):
        with pytest.raises(ValueError):
            Controller("S", VariableSet(["e"]), VariableSet(["u"]), ((True,),))

    def test_lookup_and_control_function(self):
        ctrl = Controller(
            "S",
            VariableSet(["e1", "e2"]),
            VariableSet(["u"]),
            ((False,), (True,), (True,), (False,)),
        )
        assert ctrl({"e1": False, "e2": True}) == {"u": True}
        f = ctrl.control_function("u")
        assert f.evaluate({"e1": True, "e2": False})
        assert not f.evaluate({"e1": True, "e2": True})

    def test_table_is_one_read_only_bool_array(self):
        rows = ((False, True), (True, True))
        ctrl = Controller("S", VariableSet(["e"]), VariableSet(["u", "v"]), rows)
        assert ctrl.table.dtype == bool and ctrl.table.shape == (2, 2)
        assert ctrl.table.tolist() == [list(r) for r in rows]
        assert not ctrl.table.flags.writeable and ctrl.table.flags.c_contiguous
        source = np.array(rows)
        assert not np.shares_memory(Controller("S", ctrl.inputs, ctrl.controls, source).table, source)

    @pytest.mark.parametrize(
        "table",
        [((True,), (True, False)), ((True, False), (True, False)), (True, False), np.zeros((2, 1, 1))],
        ids=["jagged", "too-many-controls", "flat", "three-axes"],
    )
    def test_malformed_tables_are_refused(self, table):
        with pytest.raises(ValueError):
            Controller("S", VariableSet(["e"]), VariableSet(["u"]), table)

    def test_equality_and_hash_compare_tables(self):
        inputs, controls = VariableSet(["e"]), VariableSet(["u"])
        a = Controller("S", inputs, controls, ((False,), (True,)))
        b = Controller("S", inputs, controls, np.array([[False], [True]]))
        assert a == b and hash(a) == hash(b)
        assert a != Controller("S", inputs, controls, ((True,), (True,)))
        assert a != Controller("T", inputs, controls, ((False,), (True,)))
        assert Controller.constant("S", inputs, controls, True) == Controller("S", inputs, controls, ((True,),) * 2)
