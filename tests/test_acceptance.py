"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import itertools
import json
import time

import numpy as np
import pytest

from boolsynth.boolfunc import BoolFunc, VariableSet, all_valuations
from boolsynth.cli import cli_main
from boolsynth.contracts import build_distribution_graph, maximal_distributions
from boolsynth.eps import bus_status, compile_to_network, live_path, load_topology
from boolsynth.network import (
    BooleanNetwork,
    all_outputs,
    classify_inputs,
    compose,
    external_inputs,
    flatten,
)
from boolsynth.oracle import (
    brute_force_distributed,
    controller_table_bits,
    enumerate_bicliques_subset,
    verify_closed_loop,
)
from boolsynth.parser import parse_expr
from boolsynth.synthesis import (
    centralized_synthesis,
    completeness_certificate,
    distributed_synthesis,
    extract_controller,
    least_restrictive_assumption,
    rewire_to_parent_outputs,
    update_contract,
)

from ._random_instances import random_contract, random_dag_network, random_forest_instance
from .conftest import (
    FIXTURES,
    make_system,
    serial_chain_net,
    shared_or_guarantee_net,
    two_parents_net,
    xor_assumption_net,
    make_contract,
)


def report(number: int, description: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"
    print(f"criterion {number:2d}: PASS  {description} ({elapsed:.2f}s)")


def test_criterion_01_serial_chain_end_to_end():
    started = time.monotonic()
    net = serial_chain_net()
    contract = make_contract(net, "e1", "y2")
    out = distributed_synthesis(net, contract)
    assert out.success

    lc2 = out.local_contracts["S2"]
    assert lc2.assumption.equivalent(BoolFunc.var("e2_from_y1"))
    assert lc2.guarantee.equivalent(BoolFunc.var("y2"))
    # the child's assumption names its internal input; on the wire it is y1
    assert rewire_to_parent_outputs(
        lc2.assumption.project(VariableSet(["e2_from_y1"])), net, "S2"
    ).equivalent(BoolFunc.var("y1"))
    lc1 = out.local_contracts["S1"]
    assert lc1.assumption.equivalent(BoolFunc.var("e1"))
    assert lc1.guarantee.equivalent(BoolFunc.var("y1"))

    funcs = compose(net, out.controllers)
    ext = external_inputs(net)
    checked = 0
    for val in all_valuations(ext):
        assign = val.as_dict()
        if assign["e1"]:
            assert funcs["y2"].evaluate(assign)
        checked += 1
    assert checked == 4
    report(1, "serial chain: success, exact local contracts, closed loop", started, 1.0)


def test_criterion_02_xor_assumption_sound_but_incomplete():
    started = time.monotonic()
    net = xor_assumption_net()
    contract = make_contract(net, "e1 ^ e2", "y2")
    out = distributed_synthesis(net, contract)
    assert not out.success

    found = brute_force_distributed(net, contract)
    assert found is not None
    assert verify_closed_loop(net, found, contract).ok

    # controllers extracted from the hand-written local contracts also work
    s1, s2 = net.subsystem("S1"), net.subsystem("S2")
    pi1 = extract_controller(s1, BoolFunc.var("e1"), BoolFunc.var("y1"))
    pi2 = extract_controller(
        s2, parse_expr("e2 | e2_from_y1", s2.env_inputs), BoolFunc.var("y2")
    )
    assert verify_closed_loop(net, {"S1": pi1, "S2": pi2}, contract).ok
    report(2, "xor assumption: engine fails, controllers exist", started, 1.0)


def test_criterion_03_shared_guarantee_distributions_and_verdict():
    started = time.monotonic()
    net = shared_or_guarantee_net()
    contract = make_contract(net, "true", "y1 | y2")
    dists = maximal_distributions(contract.guarantee, net, "S2")
    sigs = {(d.down.to_expr(), d.up.to_expr()) for d in dists}
    assert sigs == {("y2", "true"), ("true", "y1")}

    engine = distributed_synthesis(net, contract).success
    oracle = brute_force_distributed(net, contract) is not None
    assert engine == oracle
    report(3, "shared guarantee: exact splits, engine verdict matches oracle", started, 1.0)


def test_criterion_04_two_parent_elimination():
    started = time.monotonic()
    net = two_parents_net()
    contract = make_contract(net, "true", "y3")

    s3 = net.subsystem("S3")
    internal, _ = classify_inputs(net, "S3")
    (gamma,) = maximal_distributions(contract.guarantee, net, "S3")
    lra = least_restrictive_assumption(
        s3, BoolFunc.const(VariableSet(), True), gamma.down, internal
    )
    updated = update_contract(
        contract, gamma.up, rewire_to_parent_outputs(lra, net, "S3")
    )
    assert updated.assumption.is_true
    assert updated.guarantee.equivalent(BoolFunc.var("y1") | BoolFunc.var("y2"))

    from boolsynth.network import remove_subsystem

    assert remove_subsystem(net, "S3") == shared_or_guarantee_net()
    report(4, "two parents: updated contract [true, y1|y2], residual network", started, 1.0)


def test_criterion_05_assumption_projection_properties():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    names = ["p", "q", "r", "s", "t", "w"]
    violations = 0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        scope = VariableSet(names[:n])
        a = BoolFunc(scope, rng.integers(0, 2, size=1 << n).astype(bool))
        n_blocks = int(rng.integers(2, min(n, 3) + 1))
        cuts = sorted(rng.choice(range(1, n), size=n_blocks - 1, replace=False))
        bounds = [0, *cuts, n]
        blocks = [VariableSet(names[bounds[i]:bounds[i + 1]]) for i in range(n_blocks)]
        projections = [a.project(b) for b in blocks]

        # containment: A implies the product of its per-block projections
        product = projections[0]
        for p in projections[1:]:
            product = product & p
        if not a.implies(product).is_true:
            violations += 1

        # maximality: every point of a projection extends to a global point
        restrictions = [
            {tuple(val[v] for v in b) for val in a.satisfying_valuations()}
            for b in blocks
        ]
        for b, proj, seen in zip(blocks, projections, restrictions):
            for val in proj.satisfying_valuations():
                if tuple(val.bits) not in seen:
                    violations += 1
    assert violations == 0
    report(5, "projection containment and maximality, 500 random assumptions", started, 10.0)


def test_criterion_06_distribution_matches_biclique_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(202)
    mismatches = 0
    for _ in range(200):
        n_left = int(rng.integers(1, 4))
        n_right = int(rng.integers(1, 4))
        left = make_system("L", ["uL"], ["eL"], {f"a{i}": "uL" for i in range(n_left)})
        right = make_system("R", ["uR"], ["eR"], {f"b{j}": "uR" for j in range(n_right)})
        net = BooleanNetwork((left, right))
        outs = all_outputs(net)
        g = BoolFunc(outs, rng.integers(0, 2, size=1 << len(outs)).astype(bool))
        graph = build_distribution_graph(g, net, "L")
        got = {
            (
                frozenset(v.index() for v in d.down.satisfying_valuations()),
                frozenset(v.index() for v in d.up.satisfying_valuations()),
            )
            for d in maximal_distributions(g, net, "L")
        }
        if got != set(enumerate_bicliques_subset(graph)):
            mismatches += 1
    assert mismatches == 0
    report(6, "maximal distributions equal subset-pair biclique oracle, 200 cases", started, 30.0)


def test_criterion_07_soundness_on_random_networks():
    started = time.monotonic()
    rng = np.random.default_rng(303)
    violations = 0
    successes = 0
    for _ in range(200):
        net = random_dag_network(rng)
        contract = random_contract(rng, net)
        out = distributed_synthesis(net, contract)
        if out.success:
            successes += 1
            if not verify_closed_loop(net, out.controllers, contract).ok:
                violations += 1
    assert violations == 0
    assert successes > 10
    report(
        7,
        f"soundness: {successes} successes all verified over 200 random networks",
        started,
        60.0,
    )


def test_criterion_08_completeness_on_random_forests():
    started = time.monotonic()
    rng = np.random.default_rng(404)
    mismatches = 0
    for _ in range(200):
        net, contract = random_forest_instance(rng)
        assert completeness_certificate(net, contract)
        assert controller_table_bits(net) <= 24
        engine = distributed_synthesis(net, contract).success
        oracle = brute_force_distributed(net, contract) is not None
        if engine != oracle:
            mismatches += 1
    assert mismatches == 0
    report(8, "completeness: engine verdict equals oracle on 200 certified forests", started, 120.0)


def test_criterion_09_power_system_fixture():
    started = time.monotonic()
    topo = load_topology(FIXTURES / "eps_tree.topology.json")
    net, contract = compile_to_network(topo)
    assert completeness_certificate(net, contract)

    # compilation faithfulness, exhaustively over every health/contactor state
    plant = flatten(net)
    hs, cs = topo.health_names, topo.contactor_names
    n = len(hs) + len(cs)
    ranks = np.arange(1 << n, dtype=np.int64)
    assigns = {
        v: ((ranks >> (n - 1 - i)) & 1).astype(np.int64)
        for i, v in enumerate([*hs, *cs])
    }
    compiled = {y: plant.functions[y].evaluate_many(assigns) for y in plant.outputs}
    guarantee_bits = contract.guarantee.evaluate_many(compiled)
    ac_sources = [x.name for x in topo.nodes if x.kind == "generator" and x.current == "ac"]
    for index in range(1 << n):
        bits = [(index >> (n - 1 - i)) & 1 for i in range(n)]
        h = dict(zip(hs, map(bool, bits[: len(hs)])))
        c = dict(zip(cs, map(bool, bits[len(hs):])))
        for b in topo.bus_names:
            assert bool(compiled[b][index]) == bus_status(topo, h, c, b)
        coupled = any(
            live_path(topo, h, c, s, t) for s, t in itertools.combinations(ac_sources, 2)
        )
        all_powered = all(bus_status(topo, h, c, b) for b in topo.bus_names)
        assert bool(guarantee_bits[index]) == (all_powered and not coupled)

    out = distributed_synthesis(net, contract)
    assert out.success
    assert verify_closed_loop(net, out.controllers, contract).ok
    assert (centralized_synthesis(net, contract) is not None) == out.success
    report(9, "power-system fixture: faithful compilation, synthesis, central agreement", started, 60.0)


def test_criterion_10_determinism(tmp_path):
    started = time.monotonic()
    serial = [
        str(FIXTURES / "serial_chain.net.json"),
        str(FIXTURES / "serial_chain.contract.json"),
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["synthesize", *serial, "--out", str(a)]) == 0
    assert cli_main(["synthesize", *serial, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    ea, eb = tmp_path / "ea.json", tmp_path / "eb.json"
    topology = str(FIXTURES / "eps_tree.topology.json")
    assert cli_main(["eps", topology, "--out", str(ea)]) == 0
    assert cli_main(["eps", topology, "--out", str(eb)]) == 0
    assert ea.read_bytes() == eb.read_bytes()

    net = shared_or_guarantee_net()
    contract = make_contract(net, "true", "y1 | y2")
    first = distributed_synthesis(net, contract)
    second = distributed_synthesis(net, contract)
    assert first == second
    assert [
        (t.subsystem, t.distribution, t.lra.to_expr()) for t in first.trace
    ] == [(t.subsystem, t.distribution, t.lra.to_expr()) for t in second.trace]

    rng1, rng2 = np.random.default_rng(77), np.random.default_rng(77)
    for _ in range(20):
        n1, c1 = random_forest_instance(rng1)
        n2, c2 = random_forest_instance(rng2)
        assert distributed_synthesis(n1, c1) == distributed_synthesis(n2, c2)
    report(10, "determinism: byte-identical controller files and traces", started, 60.0)
