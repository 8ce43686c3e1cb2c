"""Memoryless boolean subsystems wired into acyclic networks.

A subsystem maps control and environment inputs to outputs through one
boolean function per output.  Networks connect subsystem outputs to other
subsystems' environment inputs; the induced system graph must be a DAG.
Environment inputs driven by a wire are *internal*, the rest *external*.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property
from heapq import heappop, heappush

import numpy as np

from .boolfunc import BoolFunc, VariableSet, _gather, _packed_cells, check_name, check_table_size, valuation_ranks

__all__ = [
    "BooleanSystem",
    "Link",
    "Interconnection",
    "BooleanNetwork",
    "Controller",
    "IllPosedNetworkError",
    "validate",
    "classify_inputs",
    "is_forest",
    "check_controllers",
    "axis_seeds",
    "closed_loop_values",
    "compose",
    "flatten",
    "remove_subsystem",
    "external_inputs",
    "all_outputs",
    "all_controls",
]


class IllPosedNetworkError(ValueError):
    """Operation requires a well-posed network but validation found problems."""

    def __init__(self, violations: Iterable[str]):
        self.violations = tuple(violations)
        super().__init__("ill-posed network: " + "; ".join(self.violations))


@dataclass(frozen=True, slots=True)
class BooleanSystem:
    """A memoryless subsystem ``(controls, env_inputs, outputs, functions)``.

    `functions` maps each output name to its defining BoolFunc, whose scope
    must lie inside ``controls + env_inputs``.  Controls and environment
    inputs are disjoint.  The system is frozen, so the packed tables of each
    output scope over its inputs are computed once and kept, as
    `output_bits`, and so are the masks that the local game of `synthesis`
    plans per assumption (`_plans`).
    """

    name: str
    controls: VariableSet
    env_inputs: VariableSet
    outputs: VariableSet
    functions: dict[str, BoolFunc]
    _bits: dict[VariableSet, tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _plans: dict[tuple, tuple] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_name(self.name)
        overlap = [v for v in self.controls if v in self.env_inputs]
        if overlap:
            raise ValueError(f"{self.name}: controls and env_inputs overlap: {overlap}")
        allowed = set(self.controls) | set(self.env_inputs)
        ordered: dict[str, BoolFunc] = {}
        for y in self.outputs:
            if y in allowed:
                raise ValueError(f"{self.name}: output {y!r} is also an input")
            if y not in self.functions:
                raise ValueError(f"{self.name}: output {y!r} has no defining function")
            f = self.functions[y]
            stray = [v for v in f.scope if v not in allowed]
            if stray:
                raise ValueError(
                    f"{self.name}: function for {y!r} mentions non-input variables {stray}"
                )
            ordered[y] = f
        extra = [y for y in self.functions if y not in self.outputs]
        if extra:
            raise ValueError(f"{self.name}: functions for undeclared outputs {extra}")
        object.__setattr__(self, "functions", ordered)

    def _fresh(self) -> "BooleanSystem":
        """This system with empty memos, copied without checking it again."""
        copy = object.__new__(BooleanSystem)
        for f in fields(BooleanSystem):
            object.__setattr__(copy, f.name, getattr(self, f.name) if f.init else {})
        return copy

    def output_bits(self, outputs: VariableSet) -> tuple[int, ...]:
        """Each output of `outputs`, in that order, as a packed table over the
        inputs, environment inputs first, then controls: bit
        ``e * 2^|controls| + u`` is the output at environment valuation ``e``
        and control valuation ``u``.  Computed on first use per scope."""
        bits = self._bits.get(outputs)
        if bits is None:
            stray = [y for y in outputs if y not in self.outputs]
            if stray:
                raise ValueError(f"{self.name} has no outputs {stray}")
            inputs = self.env_inputs.union(self.controls)
            bits = self._bits[outputs] = tuple(self.functions[y].extend(inputs).bits for y in outputs)
        return bits


@dataclass(frozen=True, slots=True)
class Link:
    """One wire: an output of `from_sys` drives an env input of `to_sys`."""

    from_sys: str
    from_output: str
    to_sys: str
    to_input: str


@dataclass(frozen=True, slots=True)
class Interconnection:
    links: tuple[Link, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", tuple(self.links))


@dataclass(frozen=True)
class BooleanNetwork:
    """Subsystems plus interconnection.  Construction never raises on wiring
    problems; `validate` reports them and well-posedness-requiring operations
    refuse to run until the report is empty.  The network is frozen, so its
    report is computed once and cached as `violations`, and so are the wiring,
    the system graph, the evaluation order and the output order of a
    well-posed one, as `drivers`, `edges`, `topological` and `peel_outputs`."""

    subsystems: tuple[BooleanSystem, ...]
    wiring: Interconnection = field(default_factory=Interconnection)

    def __post_init__(self) -> None:
        object.__setattr__(self, "subsystems", tuple(self.subsystems))

    def subsystem(self, name: str) -> BooleanSystem:
        position = self._positions.get(name)
        if position is None:
            raise KeyError(f"no subsystem named {name!r}")
        return self.subsystems[position]

    @cached_property
    def _positions(self) -> dict[str, int]:
        """Each subsystem name's first declaration index, computed on first use."""
        positions: dict[str, int] = {}
        for i, s in enumerate(self.subsystems):
            positions.setdefault(s.name, i)
        return positions

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.subsystems)

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """The `validate` report of this network, computed on first use."""
        return tuple(validate(self))

    @cached_property
    def drivers(self) -> dict[str, str]:
        """Each internal input's driving output, computed on first use and
        shared, so not to be mutated; refuses an ill-posed network."""
        _require_well_posed(self)
        return {l.to_input: l.from_output for l in self.wiring.links}

    @cached_property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """The system graph: each wired (parent, child) pair once, ordered by
        the declaration order of the parent, then of the child; computed on
        first use; refuses an ill-posed network."""
        _require_well_posed(self)
        position = self._positions
        return tuple(sorted(
            {(l.from_sys, l.to_sys) for l in self.wiring.links},
            key=lambda e: (position[e[0]], position[e[1]]),
        ))

    @cached_property
    def topological(self) -> tuple[BooleanSystem, ...]:
        """The subsystems, parents before children, computed on first use:
        the peel order backwards."""
        by_name = {s.name: s for s in self.subsystems}
        return tuple(by_name[n] for n in reversed(_leaf_order(self.names, self.edges)))

    @cached_property
    def peel_outputs(self) -> VariableSet:
        """Every output in the order distributed synthesis peels the
        subsystems, `topological` backwards, each subsystem's outputs in
        declaration order; computed on first use.  The search keeps every
        guarantee's scope in this order, so the outputs of the leaf it
        peels next lead."""
        return VariableSet._derived(tuple(y for s in reversed(self.topological) for y in s.outputs))


def validate(net: BooleanNetwork) -> list[str]:
    """Well-posedness report; an empty list means the network is well-posed.

    Checks subsystem-name and global variable-name uniqueness, that every
    wire references existing outputs/inputs, that no environment input has
    two drivers, and that the induced system graph is acyclic.
    """
    problems: list[str] = []
    names = [s.name for s in net.subsystems]
    for n in sorted(n for n, count in Counter(names).items() if count > 1):
        problems.append(f"duplicate subsystem name {n!r}")

    seen: dict[str, str] = {}
    for s in net.subsystems:
        for v in s.controls + s.env_inputs + s.outputs:
            if v in seen:
                problems.append(f"variable {v!r} declared in both {seen[v]} and {s.name}")
            else:
                seen[v] = s.name

    name_set = set(names)
    good_links: list[Link] = []
    for l in net.wiring.links:
        ok = True
        if l.from_sys not in name_set:
            problems.append(f"link references unknown subsystem {l.from_sys!r}")
            ok = False
        elif l.from_output not in net.subsystem(l.from_sys).outputs:
            problems.append(f"link source {l.from_sys}.{l.from_output} is not an output")
            ok = False
        if l.to_sys not in name_set:
            problems.append(f"link references unknown subsystem {l.to_sys!r}")
            ok = False
        elif l.to_input not in net.subsystem(l.to_sys).env_inputs:
            problems.append(f"link target {l.to_sys}.{l.to_input} is not an environment input")
            ok = False
        if ok and l.from_sys == l.to_sys:
            problems.append(f"link from {l.from_sys} to itself")
            ok = False
        if ok:
            good_links.append(l)

    targets = Counter((l.to_sys, l.to_input) for l in good_links)
    for t in sorted(t for t, count in targets.items() if count > 1):
        problems.append(f"environment input {t[0]}.{t[1]} has more than one driver")

    # Cycle check over the links that at least reference real endpoints.
    if _leaf_order(names, [(l.from_sys, l.to_sys) for l in good_links]) is None:
        problems.append("interconnection structure contains a cycle")
    return problems


def _require_well_posed(net: BooleanNetwork) -> None:
    if net.violations:
        raise IllPosedNetworkError(net.violations)


def classify_inputs(net: BooleanNetwork, name: str) -> tuple[VariableSet, VariableSet]:
    """Split a subsystem's environment inputs into (internal, external)."""
    env, drivers = net.subsystem(name).env_inputs, net.drivers
    return env.restricted_to(drivers), env.without(drivers)


def _leaf_order(names: Sequence[str], edges: Sequence[tuple[str, str]]) -> list[str] | None:
    """Leaves in peeling order: repeatedly the first node, in declaration order,
    with no edge to a node still present; None when a cycle leaves no such node.
    A repeated name counts once, at its first declaration, and edges naming
    no node are ignored.

    Kahn's algorithm on the reversed graph: a node's count is its number of
    distinct children still present, and a min-heap of declaration indices
    holds the nodes whose count is zero."""
    index: dict[str, int] = {}
    for n in names:
        index.setdefault(n, len(index))
    children: list[set[int]] = [set() for _ in index]
    parents: list[list[int]] = [[] for _ in index]
    for a, b in edges:
        i, j = index.get(a), index.get(b)
        if i is not None and j is not None and j not in children[i]:
            children[i].add(j)
            parents[j].append(i)
    pending = [len(c) for c in children]
    leaves = [i for i, count in enumerate(pending) if not count]  # ascending: a heap
    order = []
    while leaves:
        i = heappop(leaves)
        order.append(i)
        for p in parents[i]:
            pending[p] -= 1
            if not pending[p]:
                heappush(leaves, p)
    if len(order) < len(index):
        return None
    declared = list(index)
    return [declared[i] for i in order]


def is_forest(net: BooleanNetwork) -> bool:
    """True iff every subsystem has at most one parent in the system graph
    (a DAG, the network being well-posed)."""
    children = [b for _, b in net.edges]
    return len(children) == len(set(children))


def external_inputs(net: BooleanNetwork) -> VariableSet:
    """All external environment inputs, in declaration order."""
    drivers = net.drivers
    return VariableSet(v for s in net.subsystems for v in s.env_inputs if v not in drivers)


def all_outputs(net: BooleanNetwork) -> VariableSet:
    return VariableSet(v for s in net.subsystems for v in s.outputs)


def all_controls(net: BooleanNetwork) -> VariableSet:
    return VariableSet(v for s in net.subsystems for v in s.controls)


@dataclass(frozen=True, eq=False)
class Controller:
    """Total lookup table from environment-input valuations to control values.

    `table` is a read-only bool array of shape ``(2^|inputs|, |controls|)``:
    row ``k`` holds the control bits, in control declaration order, chosen
    at the input valuation of lexicographic rank ``k``.  Any array-like of
    that shape is accepted and copied.
    """

    subsystem: str
    inputs: VariableSet
    controls: VariableSet
    table: np.ndarray

    def __post_init__(self) -> None:
        want = (1 << len(self.inputs), len(self.controls))
        table = np.array(self.table, dtype=bool, order="C")  # a jagged table raises ValueError
        if table.shape != want:
            raise ValueError(
                f"controller for {self.subsystem} has a table of shape {table.shape}, expected {want}"
            )
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @classmethod
    def constant(
        cls, subsystem: str, inputs: VariableSet, controls: VariableSet, value: bool = False
    ) -> "Controller":
        return cls(subsystem, inputs, controls, np.full((1 << len(inputs), len(controls)), bool(value)))

    def __call__(self, env: Mapping[str, bool]) -> dict[str, bool]:
        return dict(zip(self.controls, self.table[valuation_ranks(env[v] for v in self.inputs)].tolist()))

    def control_function(self, control: str) -> BoolFunc:
        """The chosen value of one control as a BoolFunc of the inputs."""
        return BoolFunc(self.inputs, self.table[:, self.controls.index(control)])

    def _key(self) -> tuple:
        return self.subsystem, self.inputs, self.controls, self.table.tobytes()

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if isinstance(other, Controller) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


def check_controllers(net: BooleanNetwork, controllers: Mapping[str, Controller]) -> None:
    """Raise unless `controllers` is one controller per subsystem, reading its
    environment inputs and setting its controls, or a single central
    controller reading all external inputs and setting all controls."""
    if len(controllers) == 1:
        (ctrl,) = controllers.values()
        if ctrl.inputs == external_inputs(net) and ctrl.controls == all_controls(net):
            return
    for sys in net.subsystems:
        if sys.name not in controllers:
            raise ValueError(f"missing controller for subsystem {sys.name!r}")
        ctrl = controllers[sys.name]
        if ctrl.inputs != sys.env_inputs or ctrl.controls != sys.controls:
            raise ValueError(f"controller for {sys.name!r} does not match its interface")
    extra = [name for name in controllers if name not in net.names]
    if extra:
        raise ValueError(f"controllers for no subsystem of the network: {extra}")


def axis_seeds(free: VariableSet) -> dict[str, np.ndarray]:
    """Seeds for `closed_loop_values`: ``free[i]`` varies along axis ``i``
    only, so a value computed from them spans the axes of its cone and
    broadcasts to the table over `free`."""
    n = len(free)
    check_table_size(n)
    return {
        v: np.array([False, True]).reshape([2 if j == i else 1 for j in range(n)])
        for i, v in enumerate(free)
    }


def closed_loop_values(
    net: BooleanNetwork,
    seeds: Mapping[str, np.ndarray],
    controllers: Mapping[str, Controller],
) -> dict[str, np.ndarray]:
    """The network's one closed-loop walk: a bool array per variable, from
    `seeds`, broadcasting arrays for the external inputs and every control
    that no controller (one per subsystem, or one central one) sets.

    In topological order, each internal input is its driver's value, each
    controller's rows are gathered once at the rank of its own inputs, and
    the outputs whose functions share a scope are gathered at once from
    their packed tables, stacked once per walk, with one rank array per
    scope.
    """
    check_table_size(len(seeds))
    values: dict[str, np.ndarray] = dict(seeds)
    drivers = net.drivers
    setter = {u: name for name, c in controllers.items() for u in c.controls}
    pending = dict(controllers)
    for sys in net.topological:
        values.update({v: values[drivers[v]] for v in sys.env_inputs if v in drivers})
        for u in sys.controls:
            ctrl = pending.pop(setter.get(u), None)
            if ctrl is not None:
                rows = ctrl.table[valuation_ranks(values[v] for v in ctrl.inputs)]
                values.update((c, rows[..., i]) for i, c in enumerate(ctrl.controls))
        shared: dict[VariableSet, list[str]] = {}
        for y, f in sys.functions.items():
            shared.setdefault(f.scope, []).append(y)
        for scope, ys in shared.items():
            cells = _packed_cells([sys.functions[y] for y in ys])
            values.update(zip(ys, _gather(cells, valuation_ranks(values[v] for v in scope))))
    return values


def compose(
    net: BooleanNetwork, controllers: Mapping[str, Controller]
) -> dict[str, BoolFunc]:
    """Closed-loop output functions over all external inputs.

    Substitutes the controllers, one per subsystem or one central one, into
    the output functions and eliminates internal inputs along the wiring;
    every returned function is scoped over the full external-input set.
    """
    check_controllers(net, controllers)
    ext = external_inputs(net)
    values = closed_loop_values(net, axis_seeds(ext), controllers)
    grid = (2,) * len(ext)
    return {y: BoolFunc(ext, np.broadcast_to(values[y], grid)) for y in all_outputs(net)}


def flatten(net: BooleanNetwork) -> BooleanSystem:
    """The network itself as one boolean system, "network" (controls stay
    free).  Each output function is scoped over the external inputs and
    controls it reads through the wiring."""
    ext, controls = external_inputs(net), all_controls(net)
    free = ext.union(controls)
    values = closed_loop_values(net, axis_seeds(free), {})
    functions = {}
    for y in all_outputs(net):
        shape = np.broadcast_shapes(np.shape(values[y]), (1,) * len(free))
        functions[y] = BoolFunc([v for v, n in zip(free, shape) if n == 2], values[y])
    return BooleanSystem("network", controls, ext, all_outputs(net), functions)


def remove_subsystem(net: BooleanNetwork, name: str) -> BooleanNetwork:
    """Delete a leaf subsystem and every link into it."""
    parents = {a for a, _ in net.edges}
    if name not in net.names:
        raise KeyError(f"no subsystem named {name!r}")
    if name in parents:
        raise ValueError(f"cannot remove {name!r}: it is not a leaf of the system graph")
    remaining = tuple(s for s in net.subsystems if s.name != name)
    links = tuple(l for l in net.wiring.links if l.to_sys != name)
    return BooleanNetwork(remaining, Interconnection(links))
