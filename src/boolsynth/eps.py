"""Electric power system topologies compiled to boolean networks.

A topology is an undirected graph of generators, rectifiers, transformers,
buses and dummy junction nodes, with contactor-gated or solid edges.
Generators, rectifiers and transformers carry health bits (environment
inputs); contactors are open/closed (control inputs).  A bus is powered
when a live path connects it to a healthy generator: every component on the
path (endpoints included) is online and every contactor on it is closed.

Compilation groups nodes into subsystems, one per connected component after
removing the designated feeder edges (or per an explicit partition).  Feed
direction across groups is derived from generator placement; each crossing
becomes an interconnection link carrying the parent-side attach node's
power-availability bit.  Outputs are bus-status bits, plus one auxiliary
coupling bit ``couple_<s>_<t>`` per same-group pair of AC sources so the
"no AC coupling" requirement stays a function of outputs, plus a feed bit
``feed_<node>`` per attach node that is not a bus.  Each group is described
once, where its feed is oriented; the subsystems, the wiring and the
guarantee read their names from that description, and a group whose
generated names repeat one of its outputs is refused.  The table-size guard
counts the outputs before any name is built.

The compositional encoding is exact only when power cannot re-enter a group
region it left, so compilation rejects topologies where (a) a crossing
cannot be oriented because both its groups are at the same distance from
generation, which refuses every generator below a crossing, or (b) the
crossings entering a group leave from more than one parent node: feed
enters each group at one node.  Dummy nodes never fail.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .boolfunc import BoolFunc, VariableSet, _full, _variable_pattern, check_name, check_table_size, conjoin
from .contracts import ContractPair
from .formats import array_field, read_document
from .network import (
    BooleanNetwork,
    BooleanSystem,
    Interconnection,
    Link,
    external_inputs,
)

__all__ = [
    "NODE_KINDS",
    "HEALTH_KINDS",
    "PowerNode",
    "PowerEdge",
    "PowerTopology",
    "TopologyError",
    "load_topology",
    "load_partition",
    "live_path",
    "bus_status",
    "all_healthy",
    "all_closed",
    "compile_to_network",
]

NODE_KINDS = ("generator", "rectifier", "transformer", "bus", "dummy")
HEALTH_KINDS = ("generator", "rectifier", "transformer")


class TopologyError(ValueError):
    """Malformed or uncompilable power topology."""


@dataclass(frozen=True)
class PowerNode:
    name: str
    kind: str
    current: str  # "ac" or "dc"


@dataclass(frozen=True)
class PowerEdge:
    a: str
    b: str
    contactor: str | None = None  # None means a solid link

    @property
    def solid(self) -> bool:
        return self.contactor is None


@dataclass(frozen=True)
class PowerTopology:
    nodes: tuple[PowerNode, ...]
    edges: tuple[PowerEdge, ...]
    feeders: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "feeders", tuple(self.feeders))
        names = [n.name for n in self.nodes]
        for n in self.nodes:
            check_name(n.name)
            if n.kind not in NODE_KINDS:
                raise TopologyError(f"node {n.name!r} has unknown kind {n.kind!r}")
            if n.current not in ("ac", "dc"):
                raise TopologyError(f"node {n.name!r} has unknown current tag {n.current!r}")
        dupes = sorted(n for n, count in Counter(names).items() if count > 1)
        if dupes:
            raise TopologyError(f"duplicate node names: {', '.join(dupes)}")
        contactors = [e.contactor for e in self.edges if e.contactor is not None]
        dupes = sorted(c for c, count in Counter(contactors).items() if count > 1)
        if dupes:
            raise TopologyError(f"duplicate contactor names: {', '.join(dupes)}")
        clash = sorted(set(contactors) & set(names))
        if clash:
            raise TopologyError(f"names used for both nodes and contactors: {', '.join(clash)}")
        name_set = set(names)
        for e in self.edges:
            if e.contactor is not None:
                check_name(e.contactor)
            for end in (e.a, e.b):
                if end not in name_set:
                    raise TopologyError(f"edge endpoint {end!r} is not a declared node")
            if e.a == e.b:
                raise TopologyError(f"edge connects {e.a!r} to itself")
        contactor_set = set(contactors)
        for f in self.feeders:
            if f not in contactor_set:
                raise TopologyError(f"feeder {f!r} is not a contactor edge")

    @cached_property
    def _by_name(self) -> dict[str, PowerNode]:
        """Each node by its name, computed on first use."""
        return {n.name: n for n in self.nodes}

    def node(self, name: str) -> PowerNode:
        node = self._by_name.get(name)
        if node is None:
            raise KeyError(f"no component named {name!r}")
        return node

    @property
    def contactor_names(self) -> tuple[str, ...]:
        return tuple(e.contactor for e in self.edges if e.contactor is not None)

    @property
    def health_names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes if n.kind in HEALTH_KINDS)

    @property
    def bus_names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes if n.kind == "bus")


def load_topology(path) -> PowerTopology:
    """Read a topology document (JSON: nodes, edges, feeders)."""
    doc = read_document(path, TopologyError)
    try:
        nodes = tuple(
            PowerNode(str(n["name"]), str(n["kind"]), str(n["current"]))
            for n in array_field(doc, "nodes", path, error=TopologyError)
        )
        edges = []
        for e in array_field(doc, "edges", path, error=TopologyError):
            if "contactor" in e:
                edges.append(PowerEdge(str(e["a"]), str(e["b"]), str(e["contactor"])))
            elif e.get("solid"):
                edges.append(PowerEdge(str(e["a"]), str(e["b"]), None))
            else:
                raise TopologyError(f"edge {e!r} is neither a contactor nor marked solid")
        feeders = tuple(str(f) for f in array_field(doc, "feeders", path, default=[], error=TopologyError))
    except (KeyError, TypeError, AttributeError) as exc:
        raise TopologyError(f"{path}: malformed topology document ({exc!r})") from exc
    return PowerTopology(nodes, tuple(edges), feeders)


def load_partition(path) -> list[tuple[str, list[str]]]:
    """Read an explicit grouping: {"groups": [{"name", "nodes": [...]}]}."""
    doc = read_document(path, TopologyError)
    try:
        return [
            (str(g["name"]), [str(n) for n in array_field(g, "nodes", path, error=TopologyError)])
            for g in array_field(doc, "groups", path, error=TopologyError)
        ]
    except (KeyError, TypeError) as exc:
        raise TopologyError(f"{path}: malformed partition document ({exc!r})") from exc


def all_healthy(topo: PowerTopology) -> dict[str, bool]:
    return {n: True for n in topo.health_names}


def all_closed(topo: PowerTopology, closed: bool = True) -> dict[str, bool]:
    return {c: closed for c in topo.contactor_names}


def _check_states(
    topo: PowerTopology, health: Mapping[str, bool], contactors: Mapping[str, bool]
) -> None:
    if set(health) != set(topo.health_names):
        raise ValueError("health state must cover exactly the failable components")
    if set(contactors) != set(topo.contactor_names):
        raise ValueError("contactor state must cover exactly the contactors")


def _passable_nodes(topo: PowerTopology, health: Mapping[str, bool]) -> set[str]:
    return {
        n.name
        for n in topo.nodes
        if n.kind not in HEALTH_KINDS or health[n.name]
    }


def _reachable(
    nodes: set[str],
    edges: Sequence[tuple[str, str, bool]],
    start: set[str],
) -> set[str]:
    """Connected closure of `start` over passable nodes and conducting edges."""
    adj: dict[str, list[str]] = {n: [] for n in nodes}
    for a, b, conducting in edges:
        if conducting and a in nodes and b in nodes:
            adj[a].append(b)
            adj[b].append(a)
    seen = set(n for n in start if n in nodes)
    frontier = list(seen)
    while frontier:
        n = frontier.pop()
        for m in adj[n]:
            if m not in seen:
                seen.add(m)
                frontier.append(m)
    return seen


def live_path(
    topo: PowerTopology,
    health: Mapping[str, bool],
    contactors: Mapping[str, bool],
    a: str,
    b: str,
) -> bool:
    """True iff a path connects `a` and `b` with every component on it online
    (endpoints included) and every contactor on it closed.

    Health and closure are per-node/per-edge, so a live walk contains a live
    simple path; connectivity over the passable subgraph is equivalent.
    """
    topo.node(a), topo.node(b)
    _check_states(topo, health, contactors)
    passable = _passable_nodes(topo, health)
    if a not in passable or b not in passable:
        return False
    edges = [
        (e.a, e.b, e.solid or contactors[e.contactor]) for e in topo.edges
    ]
    return b in _reachable(passable, edges, {a})


def bus_status(
    topo: PowerTopology,
    health: Mapping[str, bool],
    contactors: Mapping[str, bool],
    bus: str,
) -> bool:
    """Powered iff some healthy generator has a live path to the bus."""
    if topo.node(bus).kind != "bus":
        raise ValueError(f"{bus!r} is not a bus")
    return any(
        health[n.name] and live_path(topo, health, contactors, bus, n.name)
        for n in topo.nodes
        if n.kind == "generator"
    )


# ---------------------------------------------------------------------------
# Compilation


def _default_partition(topo: PowerTopology) -> list[tuple[str, list[str]]]:
    feeder_set = set(topo.feeders)
    nodes = {n.name for n in topo.nodes}
    edges = [
        (e.a, e.b, e.contactor not in feeder_set) for e in topo.edges
    ]
    groups: list[tuple[str, list[str]]] = []
    assigned: set[str] = set()
    for n in topo.nodes:
        if n.name in assigned:
            continue
        comp = _reachable(nodes, edges, {n.name})
        members = [m.name for m in topo.nodes if m.name in comp]
        assigned |= comp
        groups.append((f"S{len(groups)}", members))
    return groups


def _validate_partition(
    topo: PowerTopology, partition: Sequence[tuple[str, Sequence[str]]]
) -> list[tuple[str, list[str]]]:
    seen: set[str] = set()
    out: list[tuple[str, list[str]]] = []
    for name, members in partition:
        check_name(name)
        if any(name == other for other, _ in out):
            raise TopologyError(f"partition names group {name!r} more than once")
        members = [str(m) for m in members]
        for m in members:
            topo.node(m)
            if m in seen:
                raise TopologyError(f"partition assigns {m!r} to more than one group")
            seen.add(m)
        out.append((name, members))
    missing = sorted({n.name for n in topo.nodes} - seen)
    if missing:
        raise TopologyError(f"partition does not cover: {', '.join(missing)}")
    return out


@dataclass(frozen=True)
class _Group:
    """One group, described once its feed is oriented: the compiled
    subsystem, its wiring and the guarantee read every name from it."""

    name: str
    members: tuple[str, ...]
    local_edges: tuple[PowerEdge, ...]
    incoming: tuple[tuple[PowerEdge, str], ...]  # (crossing, inner endpoint)
    controls: VariableSet  # local contactors, then incoming crossing contactors
    env: VariableSet  # health bits, then the feed bit, if the group is fed
    buses: tuple[str, ...]
    ac_sources: tuple[str, ...]
    couplings: tuple[str, ...]  # couple_<s>_<t> per pair of AC sources
    exports: tuple[str, ...]  # non-bus attach nodes that child groups read
    outputs: VariableSet  # buses, then couplings, then feed_<p> per export
    link: Link | None  # the parent output the feed bit reads


def _orient_groups(
    topo: PowerTopology, partition: list[tuple[str, list[str]]]
) -> list[_Group]:
    """Split edges into local and cross, derive feed direction per cross
    edge, and describe each group.

    Refuses a topology without generators, one whose guarantee would span
    too many outputs (counted before any name is built), and a group whose
    generated output names (``couple_<s>_<t>``, ``feed_<node>``) repeat
    another of its outputs.
    """
    group_of = {m: name for name, members in partition for m in members}
    gen_groups = {
        group_of[n.name] for n in topo.nodes if n.kind == "generator"
    }
    cross = [e for e in topo.edges if group_of[e.a] != group_of[e.b]]
    if not gen_groups:
        raise TopologyError(
            "cross-group edges exist but no group contains a generator" if cross
            else "topology has no generators; nothing can be powered"
        )

    # Breadth-first depth from the generator-bearing groups fixes power-flow
    # direction; equal depths would leave a crossing unoriented.  Every
    # generator group sits at depth 0, so no generator is ever fed.
    adj: dict[str, set[str]] = {name: set() for name, _ in partition}
    for e in cross:
        adj[group_of[e.a]].add(group_of[e.b])
        adj[group_of[e.b]].add(group_of[e.a])
    depth = {g: 0 for g in gen_groups}
    frontier = [name for name, _ in partition if name in gen_groups]
    while frontier:
        nxt: list[str] = []
        for g in frontier:
            for h in sorted(adj[g]):
                if h not in depth:
                    depth[h] = depth[g] + 1
                    nxt.append(h)
        frontier = nxt
    unreached = [name for name, _ in partition if name not in depth and adj[name]]
    if unreached:
        raise TopologyError(
            f"groups {unreached} are wired to others but unreachable from any generator group"
        )

    incoming: dict[str, list[tuple[PowerEdge, str]]] = {name: [] for name, _ in partition}
    attach: dict[str, set[str]] = {name: set() for name, _ in partition}
    for e in cross:
        ga, gb = group_of[e.a], group_of[e.b]
        if depth[ga] == depth[gb]:
            raise TopologyError(
                f"cannot orient feed between {ga} and {gb}: both are at the same "
                "distance from generation"
            )
        parent_node, child_node = (e.a, e.b) if depth[ga] < depth[gb] else (e.b, e.a)
        incoming[group_of[child_node]].append((e, child_node))
        attach[group_of[child_node]].add(parent_node)

    # Feed enters each group at one node.  Feed from two parent nodes would
    # let power re-enter a region it left, which the one-directional
    # encoding cannot express.
    for name, _ in partition:
        if len(attach[name]) > 1:
            raise TopologyError(
                f"feeders into {name} attach at multiple parent nodes "
                f"{sorted(attach[name])}; power could re-enter the region"
            )

    parent = {name: next(iter(attach[name]), None) for name, _ in partition}
    # The output a child's feed reads: the attach node's bus bit, or a feed
    # bit its group exports.
    source = {
        p: p if topo.node(p).kind == "bus" else f"feed_{p}"
        for p in parent.values()
        if p is not None
    }
    exports: dict[str, list[str]] = {name: [] for name, _ in partition}
    for p in parent.values():
        if p is not None and source[p] != p and p not in exports[group_of[p]]:
            exports[group_of[p]].append(p)

    nodes = {name: [topo.node(m) for m in members] for name, members in partition}
    buses = {g: tuple(n.name for n in ns if n.kind == "bus") for g, ns in nodes.items()}
    ac_sources = {
        g: tuple(n.name for n in ns if n.kind == "generator" and n.current == "ac")
        for g, ns in nodes.items()
    }
    # The guarantee spans every output: refuse by count, before naming any.
    pairs = {g: len(a) * (len(a) - 1) // 2 for g, a in ac_sources.items()}
    check_table_size(sum(len(buses[g]) + pairs[g] + len(exports[g]) for g in nodes))

    groups = []
    for name, members in partition:
        local = tuple(
            e for e in topo.edges if group_of[e.a] == name and group_of[e.b] == name
        )
        crossings = [e for e, _ in incoming[name]]
        p = parent[name]
        feed = [] if p is None else [f"{name}_from_{p}"]
        couplings = tuple(f"couple_{s}_{t}" for s, t in combinations(ac_sources[name], 2))
        try:
            outputs = VariableSet(
                [*buses[name], *couplings, *(source[q] for q in exports[name])]
            )
        except ValueError as exc:
            raise TopologyError(f"group {name!r} names an output twice ({exc})") from None
        groups.append(
            _Group(
                name, tuple(members), local, tuple(incoming[name]),
                controls=VariableSet(
                    [e.contactor for e in [*local, *crossings] if e.contactor is not None]
                ),
                env=VariableSet([n.name for n in nodes[name] if n.kind in HEALTH_KINDS] + feed),
                buses=buses[name], ac_sources=ac_sources[name], couplings=couplings,
                exports=tuple(exports[name]), outputs=outputs,
                link=None if p is None else Link(group_of[p], source[p], name, feed[0]),
            )
        )
    return groups


def _group_tables(topo: PowerTopology, group: _Group) -> list[int]:
    """Packed truth tables over ``env + controls`` for the group's outputs, in
    order: bus-status bits, then coupling bits, then exported feed bits.
    That is the input order of `BooleanSystem.output_bits`, so the local
    game reads these tables as they are.

    Liveness is bit-sliced: each node's live set is one int in the layout of
    `BoolFunc.bits`, bit i for the valuation of rank i over the scope, first
    variable most significant.  Each variable is its pattern
    (`boolfunc._variable_pattern`), the fixpoint runs on these ints, and the
    output sets are the tables the subsystem adopts; they agree with
    `live_path` and `bus_status` pointwise.
    """
    scope = group.env.union(group.controls)
    n = len(scope)
    check_table_size(n)
    always = _full(n)
    bit = {v: _variable_pattern(n, n - 1 - i) for i, v in enumerate(scope)}

    # Feed entering via the attach node behaves like a generator glued to
    # the child-side endpoints of the incoming crossings.
    passable: dict[object, int] = {
        m: bit[m] if topo.node(m).kind in HEALTH_KINDS else always for m in group.members
    }
    feed = ("feed",)
    edges = [(e.a, e.b, e) for e in group.local_edges] + [(feed, q, e) for e, q in group.incoming]
    sources = [m for m in group.members if topo.node(m).kind == "generator"]
    if group.link is not None:
        passable[feed] = bit[group.link.to_input]
        sources.append(feed)
    # Per directed arc, the valuations under which it carries power into its
    # head: shared by the generator fixpoint and every AC-source reach.
    arcs: dict[object, list[tuple[object, int]]] = {m: [] for m in passable}
    for a, b, e in edges:
        for x, y in ((a, b), (b, a)):
            arcs[x].append((y, passable[y] if e.solid else bit[e.contactor] & passable[y]))
    live = _propagate(passable, arcs, sources)
    reach = {s: _propagate(passable, arcs, [s]) for s in group.ac_sources[:-1]}
    return (
        [live[b] for b in group.buses]
        + [reach[s][t] for s, t in combinations(group.ac_sources, 2)]
        + [live[p] for p in group.exports]
    )


def _propagate(
    passable: Mapping[object, int],
    arcs: Mapping[object, Sequence[tuple[object, int]]],
    seeds: Sequence[object],
) -> dict[object, int]:
    """Per node, the packed valuations under which it is connected to a seed
    over passable nodes (seeds included) and conducting arcs: a worklist
    fixpoint that re-examines only the arcs out of a node whose set grew."""
    live = dict.fromkeys(passable, 0)
    for s in seeds:
        live[s] = passable[s]
    work = deque(seeds)
    queued = set(work)
    while work:
        x = work.popleft()
        queued.discard(x)
        have = live[x]
        for y, gate in arcs[x]:
            # OR and compare: no complement, whose negative int would cost a
            # sign-extended pass over every word.
            grown = live[y] | (have & gate)
            if grown != live[y]:
                live[y] = grown
                if y not in queued:
                    queued.add(y)
                    work.append(y)
    return live


def compile_to_network(
    topo: PowerTopology,
    partition: Sequence[tuple[str, Sequence[str]]] | None = None,
) -> tuple[BooleanNetwork, ContractPair]:
    """Compile a topology into a boolean network plus its global contract.

    One subsystem per group: controls are the group's contactors (crossing
    contactors belong to the receiving group), environment inputs are health
    bits plus feed bits wired from parent outputs, outputs are bus-status
    bits, same-group AC-coupling bits and, where an attach node is not
    itself a bus, a dedicated feed bit.

    The contract: assume at least one generator is healthy and, per
    feeder-separated island containing rectifiers, at least one of them is
    healthy; guarantee every bus powered and no AC-source pair coupled.  The
    guarantee's scope is `BooleanNetwork.peel_outputs`, the order the
    distributed search keeps.
    """
    if partition is None:
        groups_spec = _default_partition(topo)
    else:
        groups_spec = _validate_partition(topo, partition)
    groups = _orient_groups(topo, groups_spec)
    generators = [n.name for n in topo.nodes if n.kind == "generator"]

    systems = []
    for g in groups:
        scope = g.env.union(g.controls)
        tables = _group_tables(topo, g)
        functions = {y: BoolFunc._wrap(scope, t) for y, t in zip(g.outputs, tables)}
        systems.append(BooleanSystem(g.name, g.controls, g.env, g.outputs, functions))
    links = tuple(g.link for g in groups if g.link is not None)
    net = BooleanNetwork(tuple(systems), Interconnection(links))
    if net.violations:
        raise TopologyError("compiled network is ill-posed: " + "; ".join(net.violations))

    assumption = conjoin(
        ~BoolFunc.cube(names, dict.fromkeys(names, False))
        for names in [generators, *_rectifier_sides(topo)]
    ).extend(external_inputs(net))
    literals = {b: True for g in groups for b in g.buses}
    literals |= {c: False for g in groups for c in g.couplings}
    guarantee = BoolFunc.cube(net.peel_outputs, literals)
    return net, ContractPair(assumption, guarantee)


def _rectifier_sides(topo: PowerTopology) -> list[list[str]]:
    """Rectifier clusters per feeder-separated island of the diagram.

    The assumption's per-side redundancy clauses come from the topology, not
    from the synthesis partition, so the global contract is the same however
    the network is grouped."""
    out = []
    for _, members in _default_partition(topo):
        rects = [m for m in members if topo.node(m).kind == "rectifier"]
        if rects:
            out.append(rects)
    return out
