"""Seeded instance generators for the benchmark.

Everything here is a pure function of its arguments and a
``numpy.random.Generator``, so the same seed gives the same inputs.  The
generators build only on the public ``boolsynth`` API.
"""

from __future__ import annotations

import numpy as np

from boolsynth.boolfunc import BoolFunc, VariableSet, conjoin
from boolsynth.contracts import ContractPair
from boolsynth.network import (
    BooleanNetwork,
    BooleanSystem,
    Controller,
    Interconnection,
    Link,
    all_outputs,
    external_inputs,
)

# ---------------------------------------------------------------------------
# EPS chain: k AC generators, each with its own bus, buses tied in a chain,
# and per bus two rectifiers behind feeder contactors supplying one DC bus.


def _tie_name(i: int) -> str:
    # The first tie keeps the name used by the two-generator fixture.
    return "k_tie" if i == 1 else f"k_tie{i}"


def chain_topology(k: int) -> dict:
    """Topology document of the k-generator chain (k=2 is the EPS fixture)."""
    if k < 1:
        raise ValueError("the chain needs at least one generator")
    nodes = [{"name": f"G{i}", "kind": "generator", "current": "ac"} for i in range(1, k + 1)]
    nodes += [{"name": f"B{i}", "kind": "bus", "current": "ac"} for i in range(1, k + 1)]
    edges = [{"a": f"G{i}", "b": f"B{i}", "contactor": f"k_g{i}"} for i in range(1, k + 1)]
    edges += [{"a": f"B{i}", "b": f"B{i + 1}", "contactor": _tie_name(i)} for i in range(1, k)]
    feeders = []
    for i in range(1, k + 1):
        for side in ("A", "B"):
            nodes.append({"name": f"R{i}{side}", "kind": "rectifier", "current": "dc"})
        nodes.append({"name": f"D{i}", "kind": "bus", "current": "dc"})
        for side in ("A", "B"):
            contactor = f"k_r{i}{side.lower()}"
            edges.append({"a": f"B{i}", "b": f"R{i}{side}", "contactor": contactor})
            feeders.append(contactor)
        for side in ("A", "B"):
            edges.append({"a": f"R{i}{side}", "b": f"D{i}", "solid": True})
    return {"nodes": nodes, "edges": edges, "feeders": feeders}


def single_group_partition(topology: dict) -> dict:
    """Partition document that compiles the whole topology as one group."""
    return {"groups": [{"name": "ALL", "nodes": [n["name"] for n in topology["nodes"]]}]}


def permuted(topology: dict, rng: np.random.Generator) -> dict:
    """The same circuit with node and edge declaration order shuffled."""
    nodes = [topology["nodes"][i] for i in rng.permutation(len(topology["nodes"]))]
    edges = [topology["edges"][i] for i in rng.permutation(len(topology["edges"]))]
    return {"nodes": nodes, "edges": edges, "feeders": list(topology["feeders"])}


# ---------------------------------------------------------------------------
# Library-entry instances.


def _random_func(rng: np.random.Generator, scope: VariableSet, density: float = 0.5) -> BoolFunc:
    return BoolFunc(scope, rng.random(1 << len(scope)) < density)


def _simulate_outputs(sys: BooleanSystem, table: np.ndarray, env_bits: dict) -> dict:
    """Vectorised outputs of one subsystem under a controller table.

    `env_bits` maps each environment input to a 0/1 array over the external
    valuations; `table` has one row per environment valuation."""
    rank = np.zeros_like(next(iter(env_bits.values())))
    for v in sys.env_inputs:
        rank = (rank << 1) | env_bits[v]
    point = dict(env_bits)
    for j, u in enumerate(sys.controls):
        point[u] = table[rank, j].astype(np.int64)
    return {y: f.evaluate_many(point).astype(np.int64) for y, f in sys.functions.items()}


def _reached(outputs: VariableSet, values: dict, admissible: np.ndarray) -> np.ndarray:
    rank = np.zeros(admissible.shape, dtype=np.int64)
    for y in outputs:
        rank = (rank << 1) | values[y]
    hit = np.zeros(1 << len(outputs), dtype=bool)
    hit[rank[admissible]] = True
    return hit


# wide_forest: per subsystem 8 controls, 3 external inputs and 5 outputs;
# the child reads 4 of the parent's outputs through pins.
FOREST_CONTROLS, FOREST_EXTERNAL, FOREST_OUTPUTS, FOREST_PINS = 8, 3, 5, 4
FOREST_SLACK = 0.25  # share of unreached output valuations a guarantee also allows


def wide_forest_pair(
    rng: np.random.Generator,
) -> tuple[BooleanNetwork, ContractPair, dict[str, Controller]]:
    """A parent->child pair with a contract planted around a random
    controller pair, returned with that witness.

    The assumption and guarantee are per-subsystem conjunctions, so the
    completeness certificate holds and distributed synthesis must succeed:
    the planted controllers realize the contract.  Each local guarantee is
    the set of output valuations the planted loop reaches on admissible
    inputs, widened by a random FOREST_SLACK share of the other valuations.
    """
    names = ("P", "C")
    systems, tables = [], {}
    for s in names:
        controls = VariableSet(f"{s}_u{j}" for j in range(FOREST_CONTROLS))
        env = [f"{s}_e{j}" for j in range(FOREST_EXTERNAL)]
        if s == "C":
            env += [f"C_w{j}" for j in range(FOREST_PINS)]
        env = VariableSet(env)
        outputs = VariableSet(f"{s}_y{j}" for j in range(FOREST_OUTPUTS))
        scope = controls.union(env)
        systems.append(
            BooleanSystem(s, controls, env, outputs, {y: _random_func(rng, scope) for y in outputs})
        )
        tables[s] = rng.random((1 << len(env), FOREST_CONTROLS)) < 0.5
    pins = rng.permutation(FOREST_OUTPUTS)[:FOREST_PINS]
    links = tuple(Link("P", f"P_y{int(p)}", "C", f"C_w{j}") for j, p in enumerate(pins))
    net = BooleanNetwork(tuple(systems), Interconnection(links))

    ext = external_inputs(net)
    m = len(ext)
    ranks = np.arange(1 << m, dtype=np.int64)
    bits = {v: (ranks >> (m - 1 - i)) & 1 for i, v in enumerate(ext)}
    assumptions = []
    for s in systems:
        block = VariableSet(v for v in ext if v.startswith(f"{s.name}_e"))
        local = _random_func(rng, block, density=0.75)
        if local.is_false:
            local = BoolFunc.const(block, True)
        assumptions.append(local)
    assumption = conjoin(assumptions).extend(ext)
    admissible = assumption.evaluate_many(bits)

    values = dict(bits)
    values.update(_simulate_outputs(systems[0], tables["P"], values))
    for link in links:
        values[link.to_input] = values[link.from_output]
    values.update(_simulate_outputs(systems[1], tables["C"], values))
    guarantees = []
    for s in systems:
        reached = _reached(s.outputs, values, admissible)
        guarantees.append(BoolFunc(s.outputs, reached | (rng.random(reached.size) < FOREST_SLACK)))
    contract = ContractPair(assumption, conjoin(guarantees).extend(all_outputs(net)))
    witness = {
        s.name: Controller(s.name, s.env_inputs, s.controls, tuple(map(tuple, tables[s.name])))
        for s in systems
    }
    return net, contract, witness


# Every random DAG has the same shape multiset, arranged at random: per
# subsystem 1-2 controls and outputs, 0-2 external inputs and up to two
# pins, 7 outputs in total.  Run time grows two- to threefold per extra
# output, so a fixed total keeps instance times comparable across seeds.
DAG_CONTROLS = (1, 1, 2, 2, 2)
DAG_EXTERNAL = (0, 1, 1, 2, 2)
DAG_OUTPUTS = (1, 1, 1, 2, 2)
DAG_DENSITY = 0.4  # share of true rows in the contract's tables
DAG_PINS = (0, 1, 2, 2)  # for subsystems 1..4; subsystem 0 has no predecessor


def random_dag(
    rng: np.random.Generator, shape: list[tuple[int, int, int, int]]
) -> tuple[BooleanNetwork, ContractPair]:
    """A random DAG network with a random contract, all as full tables.

    `shape` gives, per subsystem, its (controls, external inputs, outputs,
    pins) counts; each pin is wired from an output of a distinct earlier
    subsystem.  Output functions, wiring sources and the contract are drawn
    at random, so the verdict may go either way.
    """
    systems, links = [], []
    for i, (n_u, n_ext, n_y, n_pins) in enumerate(shape):
        env = [f"e{i}_{j}" for j in range(n_ext)]
        for src in sorted(int(s) for s in rng.permutation(i)[:n_pins]):
            pin = f"w{i}_{src}"
            env.append(pin)
            links.append(Link(f"S{src}", f"y{src}_{int(rng.integers(0, shape[src][2]))}", f"S{i}", pin))
        controls = VariableSet(f"u{i}_{j}" for j in range(n_u))
        env = VariableSet(env)
        outputs = VariableSet(f"y{i}_{j}" for j in range(n_y))
        scope = controls.union(env)
        systems.append(
            BooleanSystem(f"S{i}", controls, env, outputs, {y: _random_func(rng, scope) for y in outputs})
        )
    net = BooleanNetwork(tuple(systems), Interconnection(tuple(links)))
    contract = ContractPair(
        _random_func(rng, external_inputs(net), DAG_DENSITY),
        _random_func(rng, all_outputs(net), DAG_DENSITY),
    )
    return net, contract


def random_dag_pool(rng: np.random.Generator, size: int) -> list[tuple[BooleanNetwork, ContractPair]]:
    """`size` random DAGs of five subsystems with the fixed shape multiset."""
    pool = []
    for _ in range(size):
        pins = [DAG_PINS[j] for j in rng.permutation(len(DAG_PINS))]
        while pins[0] > 1:  # subsystem 1 has a single predecessor
            pins = [DAG_PINS[j] for j in rng.permutation(len(DAG_PINS))]
        columns = [[c[j] for j in rng.permutation(len(c))] for c in (DAG_CONTROLS, DAG_EXTERNAL, DAG_OUTPUTS)]
        shape = list(zip(*columns, [0] + pins))
        pool.append(random_dag(rng, shape))
    return pool
