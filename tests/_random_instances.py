"""Deterministic random networks and contracts for the property suites."""

from __future__ import annotations

import numpy as np

from boolsynth.boolfunc import BoolFunc, VariableSet, conjoin
from boolsynth.contracts import ContractPair
from boolsynth.eps import NODE_KINDS, PowerEdge, PowerNode, PowerTopology
from boolsynth.network import (
    BooleanNetwork,
    BooleanSystem,
    Interconnection,
    Link,
    all_outputs,
    external_inputs,
)


def random_boolfunc(rng: np.random.Generator, scope: VariableSet) -> BoolFunc:
    return BoolFunc(scope, rng.integers(0, 2, size=1 << len(scope)).astype(bool))


def random_dag_network(rng: np.random.Generator, subsystems: int | None = None) -> BooleanNetwork:
    """`subsystems` subsystems (one to three at random if None), up to two
    controls/inputs/outputs each, random DAG wiring (edges only from earlier
    to later subsystems)."""
    n = int(rng.integers(1, 4)) if subsystems is None else subsystems
    specs = []
    for i in range(n):
        n_u = int(rng.integers(1, 3))
        n_ext = int(rng.integers(0, 3))
        n_y = int(rng.integers(1, 3))
        specs.append((n_u, n_ext, n_y))
    links: list[Link] = []
    systems: list[BooleanSystem] = []
    for i, (n_u, n_ext, n_y) in enumerate(specs):
        controls = [f"u{i}_{k}" for k in range(n_u)]
        env = [f"e{i}_{k}" for k in range(n_ext)]
        # wire from a random output of each earlier subsystem, sometimes
        for j in range(i):
            if len(env) >= 2:
                break
            if rng.random() < 0.5:
                src_y = int(rng.integers(0, specs[j][2]))
                pin = f"w{i}_{j}"
                env.append(pin)
                links.append(Link(f"S{j}", f"y{j}_{src_y}", f"S{i}", pin))
        cs, es = VariableSet(controls), VariableSet(env)
        scope = cs.union(es)
        outputs = VariableSet(f"y{i}_{k}" for k in range(n_y))
        functions = {y: random_boolfunc(rng, scope) for y in outputs}
        systems.append(BooleanSystem(f"S{i}", cs, es, outputs, functions))
    return BooleanNetwork(tuple(systems), Interconnection(tuple(links)))


def random_contract(rng: np.random.Generator, net: BooleanNetwork) -> ContractPair:
    return ContractPair(
        random_boolfunc(rng, external_inputs(net)),
        random_boolfunc(rng, all_outputs(net)),
    )


def random_forest_instance(rng: np.random.Generator) -> tuple[BooleanNetwork, ContractPair]:
    """A forest-shaped network with a per-subsystem conjunctive contract.

    Sizes stay inside the brute-force budget: one control each, at most one
    external input and at most one parent.  Local guarantees are drawn
    satisfiable so the instance is not vacuous by construction.
    """
    n = int(rng.integers(1, 4))
    parent = [None] + [
        (int(rng.integers(0, i)) if rng.random() < 0.6 else None) for i in range(1, n)
    ]
    systems: list[BooleanSystem] = []
    links: list[Link] = []
    assumptions: list[BoolFunc] = []
    guarantees: list[BoolFunc] = []
    for i in range(n):
        controls = [f"u{i}"]
        env = [f"e{i}"] if rng.random() < 0.8 else []
        if parent[i] is not None:
            pin = f"w{i}"
            env.append(pin)
            links.append(Link(f"S{parent[i]}", f"y{parent[i]}", f"S{i}", pin))
        cs, es = VariableSet(controls), VariableSet(env)
        scope = cs.union(es)
        outputs = VariableSet([f"y{i}"])
        systems.append(
            BooleanSystem(f"S{i}", cs, es, outputs, {f"y{i}": random_boolfunc(rng, scope)})
        )
        ext = VariableSet([f"e{i}"]) if f"e{i}" in es else VariableSet()
        if ext:
            assumptions.append(random_boolfunc(rng, ext))
        while True:
            g = random_boolfunc(rng, outputs)
            if not g.is_false:
                guarantees.append(g)
                break
    net = BooleanNetwork(tuple(systems), Interconnection(tuple(links)))
    contract = ContractPair(
        conjoin(assumptions).extend(external_inputs(net)),
        conjoin(guarantees).extend(all_outputs(net)),
    )
    return net, contract


# generator, rectifier, transformer, bus, dummy: mostly sources and loads
KIND_WEIGHTS = (0.3, 0.1, 0.1, 0.4, 0.1)


def random_topology(rng: np.random.Generator) -> tuple[PowerTopology, list[tuple[str, list[str]]]]:
    """A connected power topology of three to six nodes, with at most ten
    health and contactor bits, and a random partition of it into up to three
    groups.  Many draws are refused by the compiler; the rest are small
    enough to sweep pointwise."""
    while True:
        n = int(rng.integers(3, 7))
        nodes = [
            PowerNode(f"N{i}", str(rng.choice(NODE_KINDS, p=KIND_WEIGHTS)), str(rng.choice(["ac", "dc"])))
            for i in range(n)
        ]
        pairs = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        if rng.random() < 0.5:
            a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
            if (a, b) not in pairs:
                pairs.append((a, b))
        edges = [
            PowerEdge(f"N{a}", f"N{b}", f"k{a}_{b}" if rng.random() < 0.6 else None)
            for a, b in pairs
        ]
        topo = PowerTopology(tuple(nodes), tuple(edges))
        if len(topo.health_names) + len(topo.contactor_names) <= 10:
            break
    group = rng.integers(0, 3, size=n)
    partition = [
        (f"P{g}", [f"N{i}" for i in range(n) if group[i] == g]) for g in sorted(set(group.tolist()))
    ]
    return topo, partition
