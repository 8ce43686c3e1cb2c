"""The packed closed-loop walk against the dense simulator it replaced.

`verify_closed_loop` must give the dense simulator's verdict and first
counterexample, and `compose` and `flatten` its functions, scopes included,
on the benchmark's random DAG pools, on controller sets with one bit
flipped, on every fixture's central controller and on the EPS chains.
"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

from boolsynth.eps import compile_to_network
from boolsynth.formats import controllers_document, dumps, load_contract, load_network, parse_controllers_document
from boolsynth.network import Controller, compose, flatten
from boolsynth.oracle import verify_closed_loop
from boolsynth.synthesis import centralized_synthesis, distributed_synthesis

from . import _dense_walk as dense
from .conftest import FIXTURES
from .test_eps import chain_topology
from .test_network import load_perfbench_instances

NET_FIXTURES = ["serial_chain", "xor_assumption", "shared_or_guarantee", "two_parents", "fan_out"]


def flip_one_bit(ctrl: Controller, rng: np.random.Generator) -> Controller:
    """`ctrl` with one control bit of one row flipped."""
    row, bit = int(rng.integers(len(ctrl.ranks))), int(rng.integers(len(ctrl.controls)))
    ranks = list(ctrl.ranks)
    ranks[row] ^= 1 << bit
    return Controller._from_ranks(ctrl.subsystem, ctrl.inputs, ctrl.controls, tuple(ranks))


def assert_verifies_as_dense(net, controllers, contract) -> bool:
    result = verify_closed_loop(net, controllers, contract)
    assert (result.ok, result.counterexample) == dense.verify(net, controllers, contract)
    return result.ok


def fixture(name: str):
    net = load_network(FIXTURES / f"{name}.net.json")
    return net, load_contract(FIXTURES / f"{name}.contract.json", net)


@pytest.mark.parametrize("seed", [0, 1])
def test_benchmark_pool_verifies_and_composes_as_dense(seed):
    pool = load_perfbench_instances().random_dag_pool(np.random.default_rng(seed), 800)
    rng = np.random.default_rng(seed)
    verdicts = {True: 0, False: 0}
    for i, (net, contract) in enumerate(pool):
        out = distributed_synthesis(net, contract)
        if not out.success:
            continue
        assert assert_verifies_as_dense(net, out.controllers, contract)
        for _ in range(2):
            name = net.names[int(rng.integers(len(net.names)))]
            if net.subsystem(name).controls:
                tampered = dict(out.controllers, **{name: flip_one_bit(out.controllers[name], rng)})
                verdicts[assert_verifies_as_dense(net, tampered, contract)] += 1
        if i % 8 == 0:
            assert compose(net, out.controllers) == dense.compose(net, out.controllers)
            assert flatten(net) == dense.flatten(net)
    assert verdicts[True] > 100 and verdicts[False] > 100, verdicts


@pytest.mark.parametrize("name", NET_FIXTURES)
def test_fixture_central_controllers_verify_and_compose_as_dense(name):
    net, contract = fixture(name)
    central = centralized_synthesis(net, contract)
    assert central is not None
    controllers = {central.subsystem: central}
    assert assert_verifies_as_dense(net, controllers, contract)
    assert compose(net, controllers) == dense.compose(net, controllers)
    assert flatten(net) == dense.flatten(net)
    rng = np.random.default_rng(3)
    rejected = 0
    for _ in range(20):
        rejected += not assert_verifies_as_dense(net, {central.subsystem: flip_one_bit(central, rng)}, contract)
    assert rejected


@pytest.mark.parametrize("k", range(1, 7))
def test_eps_chains_verify_and_compose_as_dense(k):
    net, contract = compile_to_network(chain_topology(k))
    out = distributed_synthesis(net, contract)
    assert out.success
    assert assert_verifies_as_dense(net, out.controllers, contract)
    assert compose(net, out.controllers) == dense.compose(net, out.controllers)
    if k <= 4:  # the dense walk refuses more than 30 free variables
        assert flatten(net) == dense.flatten(net)
    rng = np.random.default_rng(k)
    root = net.topological[0].name
    tampered = dict(out.controllers, **{root: flip_one_bit(out.controllers[root], rng)})
    assert_verifies_as_dense(net, tampered, contract)


def round_trip(net, contract):
    """Synthesize, verify, write the controller document, read it back and
    verify what was read."""
    out = distributed_synthesis(net, contract)
    assert out.success and verify_closed_loop(net, out.controllers, contract).ok
    mode, read = parse_controllers_document(json.loads(dumps(controllers_document(net, out))), net)
    assert mode == "distributed" and read == out.controllers
    assert verify_closed_loop(net, read, contract).ok


def test_synthesis_verification_and_documents_use_no_arrays(monkeypatch):
    pool = load_perfbench_instances().random_dag_pool(np.random.default_rng(0), 20)
    net, contract = next((n, c) for n, c in pool if distributed_synthesis(n, c).success)
    topology = chain_topology(2)
    group = [("ALL", [node.name for node in topology.nodes])]
    monkeypatch.setitem(sys.modules, "numpy", None)  # `import numpy` now raises ImportError
    round_trip(net, contract)
    round_trip(*compile_to_network(topology, group))
