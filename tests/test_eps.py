from __future__ import annotations

import itertools
import json
import re

import numpy as np
import pytest

from boolsynth.boolfunc import BoolFunc, TableTooLargeError, conjoin
from boolsynth.eps import (
    PowerEdge,
    PowerNode,
    PowerTopology,
    TopologyError,
    _default_partition,
    all_closed,
    all_healthy,
    bus_status,
    compile_to_network,
    live_path,
    load_topology,
)
from boolsynth.network import all_outputs, external_inputs, flatten, is_forest, validate
from boolsynth.oracle import verify_closed_loop
from boolsynth.synthesis import (
    centralized_synthesis,
    completeness_certificate,
    distributed_synthesis,
)

from ._random_instances import random_topology
from .conftest import COLLIDING_TOPOLOGIES, FIXTURES, run_with_memory_limit


def chain_topology(k: int) -> PowerTopology:
    """The k-generator EPS chain for k <= 6: the six-generator fixture
    restricted to the components numbered k or less."""
    six = load_topology(FIXTURES / "eps_chain6.topology.json")
    nodes = [n for n in six.nodes if int(re.search(r"\d+", n.name).group()) <= k]
    names = {n.name for n in nodes}
    edges = [e for e in six.edges if e.a in names and e.b in names]
    contactors = {e.contactor for e in edges}
    return PowerTopology(tuple(nodes), tuple(edges), tuple(f for f in six.feeders if f in contactors))


def bus_chain_topology(n: int) -> PowerTopology:
    """`n` AC buses in a row, joined by contactors, with no generator."""
    nodes = tuple(PowerNode(f"B{i}", "bus", "ac") for i in range(n))
    edges = tuple(PowerEdge(f"B{i}", f"B{i + 1}", f"k{i}") for i in range(n - 1))
    return PowerTopology(nodes, edges)


def mini_topology():
    """gen --k1-- bus --solid-- rect --k2-- dc bus, plus a transformer stub."""
    nodes = (
        PowerNode("GEN", "generator", "ac"),
        PowerNode("BUS", "bus", "ac"),
        PowerNode("TR", "transformer", "ac"),
        PowerNode("RU", "rectifier", "dc"),
        PowerNode("DC", "bus", "dc"),
    )
    edges = (
        PowerEdge("GEN", "BUS", "k1"),
        PowerEdge("BUS", "TR", None),
        PowerEdge("TR", "RU", None),
        PowerEdge("RU", "DC", "k2"),
    )
    return PowerTopology(nodes, edges)


class TestLoadTopology:
    def test_bundled_fixture_loads(self):
        topo = load_topology(FIXTURES / "eps_tree.topology.json")
        gens = [n for n in topo.nodes if n.kind == "generator"]
        buses = [n for n in topo.nodes if n.kind == "bus"]
        rects = [n for n in topo.nodes if n.kind == "rectifier"]
        assert len(gens) >= 2 and len(buses) >= 2 and len(rects) >= 2

    def test_empty_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(TopologyError):
            load_topology(path)

    def test_duplicate_contactor_names_rejected(self, tmp_path):
        doc = {
            "nodes": [
                {"name": "G", "kind": "generator", "current": "ac"},
                {"name": "B", "kind": "bus", "current": "ac"},
                {"name": "C", "kind": "bus", "current": "ac"},
            ],
            "edges": [
                {"a": "G", "b": "B", "contactor": "C1"},
                {"a": "B", "b": "C", "contactor": "C1"},
            ],
        }
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TopologyError, match="duplicate contactor"):
            load_topology(path)

    def test_unknown_kind_rejected(self):
        with pytest.raises(TopologyError):
            PowerTopology((PowerNode("X", "capacitor", "ac"),), ())


class TestLivePath:
    def test_closed_contactor_connects(self):
        topo = mini_topology()
        h, c = all_healthy(topo), all_closed(topo)
        assert live_path(topo, h, c, "GEN", "BUS")

    def test_open_contactor_disconnects(self):
        topo = mini_topology()
        h, c = all_healthy(topo), all_closed(topo)
        c["k1"] = False
        assert not live_path(topo, h, c, "GEN", "BUS")

    def test_failed_end_node_breaks_the_path(self):
        topo = mini_topology()
        h, c = all_healthy(topo), all_closed(topo)
        h["GEN"] = False
        assert not live_path(topo, h, c, "GEN", "BUS")

    def test_failed_transformer_blocks_midpath(self):
        topo = mini_topology()
        h, c = all_healthy(topo), all_closed(topo)
        assert live_path(topo, h, c, "GEN", "DC")
        h["TR"] = False
        assert not live_path(topo, h, c, "GEN", "DC")

    def test_unknown_component_rejected(self):
        topo = mini_topology()
        with pytest.raises(KeyError):
            live_path(topo, all_healthy(topo), all_closed(topo), "GEN", "NOPE")


class TestDummyNodes:
    def junction_topology(self):
        # two generators meet a bus through a dummy wire junction
        nodes = (
            PowerNode("GA", "generator", "ac"),
            PowerNode("GB", "generator", "ac"),
            PowerNode("J", "dummy", "ac"),
            PowerNode("B", "bus", "ac"),
        )
        edges = (
            PowerEdge("GA", "J", "ka"),
            PowerEdge("GB", "J", "kb"),
            PowerEdge("J", "B", None),
        )
        return PowerTopology(nodes, edges)

    def test_dummy_nodes_carry_no_health_bit_and_never_fail(self):
        topo = self.junction_topology()
        assert "J" not in topo.health_names
        h, c = all_healthy(topo), all_closed(topo)
        assert live_path(topo, h, c, "GA", "B")
        h["GA"] = False
        assert bus_status(topo, h, c, "B")  # still fed by GB through J
        h["GB"] = False
        assert not bus_status(topo, h, c, "B")

    def test_junction_compiles_with_coupling_output(self):
        topo = self.junction_topology()
        net, contract = compile_to_network(topo)
        (sys,) = net.subsystems
        assert "couple_GA_GB" in sys.outputs
        # closing both generator contactors couples the AC sources
        point = {"GA": True, "GB": True, "ka": True, "kb": True}
        assert sys.functions["couple_GA_GB"].evaluate(point)
        assert not contract.guarantee.evaluate(
            {"B": True, "couple_GA_GB": True}
        )
        # realizable: keep at most one generator contactor closed, so the
        # junction never bridges the two sources
        out = distributed_synthesis(net, contract)
        assert out.success
        assert verify_closed_loop(net, out.controllers, contract).ok
        ctrl = out.controllers[net.names[0]]
        for row in ctrl.table:
            assert sum(row[ctrl.controls.index(k)] for k in ("ka", "kb")) <= 1


class TestBusStatus:
    def test_adjacent_healthy_generator(self):
        topo = mini_topology()
        assert bus_status(topo, all_healthy(topo), all_closed(topo), "BUS")

    def test_all_contactors_open(self):
        topo = mini_topology()
        assert not bus_status(topo, all_healthy(topo), all_closed(topo, False), "BUS")

    def test_bus_behind_failed_rectifier_is_unpowered(self):
        topo = mini_topology()
        h, c = all_healthy(topo), all_closed(topo)
        h["RU"] = False
        assert not bus_status(topo, h, c, "DC")

    def test_non_bus_rejected(self):
        topo = mini_topology()
        with pytest.raises(ValueError):
            bus_status(topo, all_healthy(topo), all_closed(topo), "GEN")


class TestCompile:
    def test_bundled_fixture_compiles_to_tree(self):
        topo = load_topology(FIXTURES / "eps_tree.topology.json")
        net, contract = compile_to_network(topo)
        assert validate(net) == []
        assert len(net.subsystems) == 3
        assert is_forest(net)
        assert completeness_certificate(net, contract)

    def test_single_group_partition_is_centralized(self):
        topo = load_topology(FIXTURES / "eps_tree.topology.json")
        members = [n.name for n in topo.nodes]
        net, contract = compile_to_network(topo, [("ALL", members)])
        assert len(net.subsystems) == 1
        assert net.wiring.links == ()
        out = distributed_synthesis(net, contract)
        assert out.success
        assert centralized_synthesis(net, contract) is not None
        # the contract does not depend on the grouping
        default_net, default_contract = compile_to_network(topo)
        assert contract.assumption.equivalent(default_contract.assumption)
        assert contract.guarantee.equivalent(default_contract.guarantee)

    def test_split_solid_link_becomes_interconnection(self):
        topo = mini_topology()
        net, _ = compile_to_network(
            topo, [("P", ["GEN", "BUS"]), ("Q", ["TR", "RU", "DC"])]
        )
        (link,) = net.wiring.links
        assert link.from_sys == "P" and link.to_sys == "Q"
        assert link.from_output == "BUS"  # attach node is a bus: reuse its output
        assert link.to_input == "Q_from_BUS"

    def test_generator_below_a_feed_rejected(self):
        # a generator in the receiving group could back-feed the parent,
        # which the one-directional encoding cannot express
        nodes = (
            PowerNode("G1", "generator", "ac"),
            PowerNode("B1", "bus", "ac"),
            PowerNode("G2", "generator", "ac"),
            PowerNode("B2", "bus", "ac"),
        )
        edges = (
            PowerEdge("G1", "B1", "k1"),
            PowerEdge("B1", "B2", "k2"),
            PowerEdge("G2", "B2", "k3"),
        )
        topo = PowerTopology(nodes, edges, feeders=("k2",))
        with pytest.raises(TopologyError, match="same distance"):
            compile_to_network(topo)

    def test_multiple_attach_points_rejected(self):
        nodes = (
            PowerNode("G1", "generator", "ac"),
            PowerNode("B1", "bus", "ac"),
            PowerNode("B2", "bus", "ac"),
            PowerNode("D", "bus", "dc"),
        )
        edges = (
            PowerEdge("G1", "B1", "k1"),
            PowerEdge("B1", "B2", None),
            PowerEdge("B1", "D", "k2"),
            PowerEdge("B2", "D", "k3"),
        )
        topo = PowerTopology(nodes, edges, feeders=("k2", "k3"))
        with pytest.raises(TopologyError, match="attach"):
            compile_to_network(topo)

    def test_two_parent_groups_feeding_one_child_rejected(self):
        # A diamond: P feeds Q and R, which both feed S, so power leaving S's
        # region through one parent could come back through the other.
        nodes = (
            PowerNode("G", "generator", "ac"),
            PowerNode("BP", "bus", "ac"),
            PowerNode("BQ", "bus", "ac"),
            PowerNode("BR", "bus", "ac"),
            PowerNode("BS", "bus", "ac"),
        )
        edges = (
            PowerEdge("G", "BP", "k0"),
            PowerEdge("BP", "BQ", "k1"),
            PowerEdge("BP", "BR", "k2"),
            PowerEdge("BQ", "BS", "k3"),
            PowerEdge("BR", "BS", "k4"),
        )
        partition = [("P", ["G", "BP"]), ("Q", ["BQ"]), ("R", ["BR"]), ("S", ["BS"])]
        with pytest.raises(TopologyError, match=r"feeders into S attach .*\['BQ', 'BR'\]"):
            compile_to_network(PowerTopology(nodes, edges), partition)

    def test_group_unreachable_from_generation_rejected(self):
        nodes = (
            PowerNode("G", "generator", "ac"),
            PowerNode("B1", "bus", "ac"),
            PowerNode("B2", "bus", "ac"),
            PowerNode("B3", "bus", "ac"),
        )
        edges = (PowerEdge("G", "B1", "k1"), PowerEdge("B2", "B3", "k2"))
        topo = PowerTopology(nodes, edges, feeders=("k2",))
        with pytest.raises(TopologyError, match=r"\['S1', 'S2'\] .* unreachable from any generator group"):
            compile_to_network(topo)

    def test_crossings_without_generation_rejected(self):
        nodes = (PowerNode("B1", "bus", "ac"), PowerNode("B2", "bus", "ac"))
        topo = PowerTopology(nodes, (PowerEdge("B1", "B2", "k1"),), feeders=("k1",))
        with pytest.raises(TopologyError, match="no group contains a generator"):
            compile_to_network(topo)

    def test_generatorless_topology_refused_before_sizing_the_guarantee(self):
        # 31 buses: the guarantee alone would need 2^31 cells.
        topo = bus_chain_topology(31)
        with pytest.raises(TopologyError, match="topology has no generators"):
            compile_to_network(topo)

    def test_generatorless_single_group_refused(self):
        topo = bus_chain_topology(2)
        with pytest.raises(TopologyError, match="nothing can be powered"):
            compile_to_network(topo, [("ALL", ["B0", "B1"])])

    def test_duplicate_group_name_rejected(self):
        topo = load_topology(FIXTURES / "eps_tree.topology.json")
        names = [n.name for n in topo.nodes]
        partition = [("A", names[:2]), ("A", names[2:])]
        with pytest.raises(TopologyError, match="'A' more than once"):
            compile_to_network(topo, partition)

    @pytest.mark.parametrize("case", sorted(COLLIDING_TOPOLOGIES))
    def test_generated_output_name_given_twice_is_refused_before_compiling(
        self, case, tmp_path, monkeypatch
    ):
        import boolsynth.eps

        def no_compile(*args):
            raise AssertionError("a group was compiled")

        monkeypatch.setattr(boolsynth.eps, "_group_tables", no_compile)
        doc, name = COLLIDING_TOPOLOGIES[case]
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TopologyError, match=f"group 'S0' .*{name}"):
            compile_to_network(load_topology(path))

    # (fixture or None for the mini topology, partition or None for the
    # default one); the single-group chain at k=4 has 27 inputs, too many
    # for tables per output or a pointwise sweep.  The last two mini cases
    # hold a group over one variable (GEN's health, exporting feed_GEN) and
    # one over two (DC: its crossing contactor and its feed bit).
    CASES = [
        (None, [("P", ["GEN", "BUS"]), ("Q", ["TR", "RU", "DC"])]),
        (None, [("P", ["GEN", "BUS", "TR"]), ("Q", ["RU", "DC"])]),
        (None, [("P", ["GEN"]), ("Q", ["BUS", "TR", "RU", "DC"])]),
        (None, [("P", ["GEN", "BUS", "TR", "RU"]), ("Q", ["DC"])]),
        ("eps_tree", None),
        ("eps_tree", "single"),
        ("eps_chain4", None),
    ]
    # Seeded random multi-group topologies and partitions that compile.
    RANDOM_CASES = 200

    def cases(self):
        """(topology, partition, sweep the flattened plant?): CASES, then
        RANDOM_CASES random draws, skipping those the compiler refuses."""
        for fixture, partition in self.CASES:
            topo = mini_topology() if fixture is None else load_topology(FIXTURES / f"{fixture}.topology.json")
            if partition is None:
                partition = _default_partition(topo)
            elif partition == "single":
                partition = [("ALL", [n.name for n in topo.nodes])]
            yield topo, partition, fixture is None
        rng = np.random.default_rng(20161)
        found = 0
        while found < self.RANDOM_CASES:
            topo, partition = random_topology(rng)
            if len(partition) > 1 and compiles(topo, partition):
                found += 1
                yield topo, partition, True

    def test_compiled_outputs_match_live_path_oracle_exhaustively(self):
        # Every output of every group against the pointwise live-path
        # semantics, on all valuations of the group's inputs.  Groups over
        # one and two variables have tables shorter than the byte they are
        # unpacked from, so a padding bit read as a valuation shows here.
        scope_sizes = set()
        for topo, partition, sweep_plant in self.cases():
            net, _ = compile_to_network(topo, partition)
            members = dict(partition)
            for sys in net.subsystems:
                local, feed_of, reference = group_reference(topo, sys, members[sys.name])
                assert set(reference) == set(sys.outputs)
                scope = sys.controls.union(sys.env_inputs)
                scope_sizes.add(len(scope))
                for bits in itertools.product([False, True], repeat=len(scope)):
                    point = dict(zip(scope, bits))
                    health = {h: point[feed_of.get(h, h)] for h in local.health_names}
                    closed = {c: point[c] for c in local.contactor_names}
                    for y in sys.outputs:
                        got = sys.functions[y].evaluate(point)
                        assert got == reference[y](health, closed), (partition, y, point)
            if sweep_plant:
                # and the flattened plant against the whole topology
                plant = flatten(net)
                hs, cs = topo.health_names, topo.contactor_names
                for bits in itertools.product([False, True], repeat=len(hs) + len(cs)):
                    h = dict(zip(hs, bits[: len(hs)]))
                    c = dict(zip(cs, bits[len(hs):]))
                    for b in topo.bus_names:
                        assert plant.functions[b].evaluate({**h, **c}) == bus_status(topo, h, c, b), (partition, b)
        assert {1, 2} <= scope_sizes

    def test_chain6_root_group_matches_live_path_oracle_on_a_sample(self):
        # The root group spans 17 variables, so its packed live sets run to
        # 2048 words; a seeded sample of valuations across all of them
        # checks the bit order past the first word.
        topo = load_topology(FIXTURES / "eps_chain6.topology.json")
        partition = _default_partition(topo)
        net, _ = compile_to_network(topo, partition)
        root = max(net.subsystems, key=lambda sys: len(sys.controls) + len(sys.env_inputs))
        scope = root.controls.union(root.env_inputs)
        assert len(scope) == 17
        local, feed_of, reference = group_reference(topo, root, dict(partition)[root.name])
        ranks = np.random.default_rng(17).choice(1 << len(scope), size=512, replace=False)
        for rank in ranks.tolist():
            point = {v: bool(rank >> (len(scope) - 1 - i) & 1) for i, v in enumerate(scope)}
            health = {h: point[feed_of.get(h, h)] for h in local.health_names}
            closed = {c: point[c] for c in local.contactor_names}
            for y in root.outputs:
                assert root.functions[y].evaluate(point) == reference[y](health, closed), (y, rank)


def compiles(topo, partition) -> bool:
    try:
        compile_to_network(topo, partition)
    except TopologyError:
        return False
    return True


def group_reference(topo, sys, members):
    """The group's own topology and a pointwise reference per output.

    The topology holds the group's members and inner edges plus, per attach
    node of an incoming crossing, that node as a generator whose health is
    the subsystem's feed bit (`feed_of` maps the node to the bit).  Bus bits
    follow `bus_status`, coupling bits `live_path` between the two sources,
    feed bits a live path from the attach node to a healthy generator.
    """
    inside = set(members)
    feed_of = {}
    for e in topo.edges:
        for p, q in ((e.a, e.b), (e.b, e.a)):
            if q in inside and p not in inside and f"{sys.name}_from_{p}" in sys.env_inputs:
                feed_of[p] = f"{sys.name}_from_{p}"
    nodes = [topo.node(m) for m in members]
    nodes += [PowerNode(p, "generator", topo.node(p).current) for p in feed_of]
    edges = [e for e in topo.edges if {e.a, e.b} <= inside | set(feed_of) and {e.a, e.b} & inside]
    local = PowerTopology(nodes, edges)
    generators = [n.name for n in nodes if n.kind == "generator"]

    def powered(node):
        return lambda h, c: any(h[g] and live_path(local, h, c, node, g) for g in generators)

    reference = {b: (lambda h, c, b=b: bus_status(local, h, c, b)) for b in members if topo.node(b).kind == "bus"}
    ac = [m for m in members if topo.node(m).kind == "generator" and topo.node(m).current == "ac"]
    for s, t in itertools.combinations(ac, 2):
        reference[f"couple_{s}_{t}"] = lambda h, c, s=s, t=t: live_path(local, h, c, s, t)
    for y in sys.outputs:
        if y.startswith("feed_"):
            reference[y] = powered(y[len("feed_"):])
    return local, feed_of, reference


class TestEndToEnd:
    def test_distributed_synthesis_succeeds_and_verifies(self):
        topo = load_topology(FIXTURES / "eps_tree.topology.json")
        net, contract = compile_to_network(topo)
        out = distributed_synthesis(net, contract)
        assert out.success
        assert verify_closed_loop(net, out.controllers, contract).ok
        assert centralized_synthesis(net, contract) is not None

    def test_assumption_and_guarantee_shape(self):
        topo = load_topology(FIXTURES / "eps_tree.topology.json")
        net, contract = compile_to_network(topo)
        ext = external_inputs(net)
        # at least one generator and one rectifier per side must be healthy
        a = contract.assumption
        assert not a.evaluate({v: False for v in ext})
        healthy = {v: True for v in ext}
        assert a.evaluate(healthy)
        assert not a.evaluate({**healthy, "G1": False, "G2": False})
        assert not a.evaluate({**healthy, "R1A": False, "R1B": False})
        assert not a.evaluate({**healthy, "R2A": False, "R2B": False})
        assert a.evaluate({**healthy, "G2": False, "R1B": False, "R2B": False})
        # the guarantee demands all buses and forbids AC coupling
        outs = all_outputs(net)
        good = {v: False for v in outs}
        good.update({"B1": True, "B2": True, "D1": True, "D2": True})
        assert contract.guarantee.evaluate(good)
        assert not contract.guarantee.evaluate({**good, "D1": False})
        assert not contract.guarantee.evaluate({**good, "couple_G1_G2": True})

    def test_guarantee_equals_conjoined_literals(self):
        # The guarantee is built as one cube; conjoining its literals one at
        # a time and extending over the outputs, in the order the search
        # peels them, is the reference.
        tree = load_topology(FIXTURES / "eps_tree.topology.json")
        cases = [(tree, None), (tree, "single")]
        cases += [(chain_topology(k), None) for k in range(1, 6)]
        cases += [(chain_topology(k), "single") for k in range(1, 4)]
        for topo, partition in cases:
            if partition == "single":
                partition = [("ALL", [n.name for n in topo.nodes])]
            net, contract = compile_to_network(topo, partition)
            outs = net.peel_outputs
            assert set(outs) == set(all_outputs(net))
            couples = [y for y in outs if y.startswith("couple_")]
            want = conjoin(
                [BoolFunc.var(b) for b in topo.bus_names] + [~BoolFunc.var(c) for c in couples]
            ).extend(outs)
            assert contract.guarantee.scope == want.scope
            assert contract.guarantee == want, (len(topo.bus_names), partition)

    def test_oversized_guarantee_is_refused_before_compiling(self, monkeypatch):
        # The seven-generator chain's guarantee spans 7 buses, 21 coupling
        # bits and 7 DC buses.  Compiling a group fails the test, so a
        # missing guard allocates nothing here.
        import boolsynth.eps

        def no_compile(*args):
            raise AssertionError("a group was compiled")

        monkeypatch.setattr(boolsynth.eps, "_group_tables", no_compile)
        with pytest.raises(TableTooLargeError, match=r"2\^35"):
            compile_to_network(load_topology(FIXTURES / "eps_chain7.topology.json"))

    def test_oversized_group_is_refused(self):
        # The six-generator chain as one group has 41 inputs.
        done = run_with_memory_limit(
            "import sys\n"
            "from boolsynth.eps import compile_to_network, load_topology\n"
            "topo = load_topology(sys.argv[1])\n"
            "try:\n"
            "    compile_to_network(topo, [('ALL', [n.name for n in topo.nodes])])\n"
            "except ValueError as exc:\n"
            "    print(type(exc).__name__, exc)\n",
            str(FIXTURES / "eps_chain6.topology.json"),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("TableTooLargeError")
        assert "2^41" in done.stdout

    def test_oversized_coupling_count_is_refused_before_naming(self):
        # 3000 AC generators on one bus have about 4.5M coupling pairs:
        # naming them would take more than the child's address space.
        done = run_with_memory_limit(
            "from boolsynth.eps import PowerEdge, PowerNode, PowerTopology, compile_to_network\n"
            "gens = [PowerNode(f'G{i}', 'generator', 'ac') for i in range(3000)]\n"
            "edges = [PowerEdge(g.name, 'B', f'k{i}') for i, g in enumerate(gens)]\n"
            "try:\n"
            "    compile_to_network(PowerTopology([*gens, PowerNode('B', 'bus', 'ac')], edges))\n"
            "except ValueError as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("TableTooLargeError")
        assert "2^4498501 cells" in done.stdout

    def test_each_network_is_validated_once(self, monkeypatch):
        import boolsynth.network

        validated = []

        def counting(net):
            validated.append(net)
            return validate(net)

        monkeypatch.setattr(boolsynth.network, "validate", counting)
        topo = load_topology(FIXTURES / "eps_tree.topology.json")
        net, contract = compile_to_network(topo)
        assert distributed_synthesis(net, contract).success
        # synthesis walks one leaf order of this network and builds no other
        assert validated == [net]
