"""Memoryless boolean subsystems wired into acyclic networks.

A subsystem maps control and environment inputs to outputs through one
boolean function per output.  Networks connect subsystem outputs to other
subsystems' environment inputs; the induced system graph must be a DAG.
Environment inputs driven by a wire are *internal*, the rest *external*.
A controller is one control rank per input valuation; only its two array
edges, the constructor from an unpacked table and `Controller.table`,
import numpy, when they are called.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property
from heapq import heappop, heappush

from .boolfunc import (BoolFunc, VariableSet, _composed, _extended, _variable_pattern, check_name,
                       check_table_size, valuation_bits)

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
    "closed_loop",
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
    plans per assumption (`_plans`).  The copies that distributed synthesis
    makes for one call (`_fresh`) also keep the game's table G(f) per local
    guarantee (`_wins`), so that a controller is extracted from the table
    its least restrictive assumption was computed on.
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
    _wins: dict[BoolFunc, int] | None = field(default=None, init=False, repr=False, compare=False)

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
        """This system with empty memos, `_wins` among them, copied without
        checking it again."""
        copy = object.__new__(BooleanSystem)
        for name, init in _SYSTEM_FIELDS:
            object.__setattr__(copy, name, getattr(self, name) if init else {})
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
            inputs = VariableSet._derived(self.env_inputs + self.controls)
            bits = self._bits[outputs] = tuple(_extended(self.functions[y], inputs) for y in outputs)
        return bits


_SYSTEM_FIELDS = tuple((f.name, f.init) for f in fields(BooleanSystem))
"""Each field of `BooleanSystem` and whether `__init__` sets it: the rest
are memos, which `_fresh` empties."""


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
    well-posed one, as `drivers`, `edges`, `topological`, `peel_outputs` and
    `peel_index`, and its names, external inputs, outputs and controls in
    declaration order."""

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

    @cached_property
    def names(self) -> tuple[str, ...]:
        """The subsystem names in declaration order, computed on first use."""
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

    @cached_property
    def peel_index(self) -> dict[str, int]:
        """Each output's position in `peel_outputs`, computed on first use:
        the search sorts scopes by it and looks outputs up in it."""
        return {y: i for i, y in enumerate(self.peel_outputs)}

    @cached_property
    def external_inputs(self) -> VariableSet:
        """All external environment inputs, in declaration order, computed
        on first use; refuses an ill-posed network."""
        drivers = self.drivers
        return VariableSet(v for s in self.subsystems for v in s.env_inputs if v not in drivers)

    @cached_property
    def all_outputs(self) -> VariableSet:
        """Every output, in declaration order, computed on first use."""
        return VariableSet(v for s in self.subsystems for v in s.outputs)

    @cached_property
    def all_controls(self) -> VariableSet:
        """Every control, in declaration order, computed on first use."""
        return VariableSet(v for s in self.subsystems for v in s.controls)


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
    return net.external_inputs


def all_outputs(net: BooleanNetwork) -> VariableSet:
    return net.all_outputs


def all_controls(net: BooleanNetwork) -> VariableSet:
    return net.all_controls


@dataclass(frozen=True, slots=True, init=False)
class Controller:
    """Total lookup table from environment-input valuations to control values.

    `ranks` holds one int per input valuation, in rank order: row ``k`` is
    the rank of the control valuation chosen at the input valuation of
    lexicographic rank ``k``, the first control the most significant bit.
    The constructor takes the table unpacked, any array-like of shape
    ``(2^|inputs|, |controls|)`` whose row ``k`` holds those control bits in
    declaration order, and keeps only the ranks; `table` unpacks them again.
    """

    subsystem: str
    inputs: VariableSet
    controls: VariableSet
    ranks: tuple[int, ...]

    def __init__(self, subsystem: str, inputs: VariableSet, controls: VariableSet, table) -> None:
        import numpy as np
        want = (1 << len(inputs), len(controls))
        table = np.array(table, dtype=bool)  # a jagged table raises ValueError
        if table.shape != want:
            raise ValueError(
                f"controller for {subsystem} has a table of shape {table.shape}, expected {want}"
            )
        weights = np.left_shift(1, np.arange(len(controls) - 1, -1, -1, dtype=np.int64))
        _init_controller(self, subsystem, inputs, controls, tuple((table @ weights).tolist()))

    @classmethod
    def _from_ranks(cls, subsystem: str, inputs: VariableSet, controls: VariableSet,
                    ranks: tuple[int, ...]) -> "Controller":
        """Adopt `ranks`, one control rank per input valuation, unchecked."""
        ctrl = object.__new__(cls)
        _init_controller(ctrl, subsystem, inputs, controls, ranks)
        return ctrl

    @classmethod
    def constant(
        cls, subsystem: str, inputs: VariableSet, controls: VariableSet, value: bool = False
    ) -> "Controller":
        rank = (1 << len(controls)) - 1 if value else 0
        return cls._from_ranks(subsystem, inputs, controls, (rank,) * (1 << len(inputs)))

    @property
    def table(self) -> np.ndarray:
        """The ranks unpacked to a fresh read-only, C-contiguous bool array
        of shape ``(2^|inputs|, |controls|)``, computed on each access for
        tests: the library reads the ranks."""
        import numpy as np
        table = np.ascontiguousarray(valuation_bits(self.ranks, len(self.controls)).T)
        table.setflags(write=False)
        return table

    def __call__(self, env: Mapping[str, bool]) -> dict[str, bool]:
        row = 0
        for v in self.inputs:
            row = row << 1 | bool(env[v])
        rank, m = self.ranks[row], len(self.controls)
        return {c: bool(rank >> (m - 1 - i) & 1) for i, c in enumerate(self.controls)}

    def control_function(self, control: str) -> BoolFunc:
        """The chosen value of one control as a BoolFunc of the inputs."""
        shift = len(self.controls) - 1 - self.controls.index(control)
        return BoolFunc._wrap(self.inputs, sum(1 << k for k, rank in enumerate(self.ranks) if rank >> shift & 1))


def _init_controller(ctrl: Controller, *values) -> None:
    for attr, value in zip(("subsystem", "inputs", "controls", "ranks"), values):
        object.__setattr__(ctrl, attr, value)


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
    extra = [name for name in controllers if name not in net._positions]
    if extra:
        raise ValueError(f"controllers for no subsystem of the network: {extra}")


def closed_loop(
    net: BooleanNetwork, free: VariableSet, controllers: Mapping[str, Controller]
) -> dict[str, BoolFunc]:
    """The network's one closed-loop walk: every output as a function of
    `free`, the external inputs and every control that no controller (one per
    subsystem, or one central one) sets.  Each output's function spans its
    cone, the variables of `free` it reads through the wiring and the
    controllers, in `free` order, so a value is never wider than its cone.

    In topological order each output is closed in two steps.  Where its
    subsystem's own controller sets controls that it reads, it becomes a
    table over the subsystem's environment inputs, ``exists u. f(e, u) &
    [u = ctrl(e)]``: the cell of each environment row at the controller's
    rank (`_under_controller`).  Then its inputs outside `free`, internal
    inputs and the controls a central controller sets, are replaced by
    their values (`_substituted`, `boolfunc._composed`).  Cones are masks
    over `free` while the walk runs, first variable most significant, and
    each mask becomes a scope once.
    """
    n = len(free)
    cone = {v: 1 << (n - 1 - i) for i, v in enumerate(free)}
    scopes: dict[int, VariableSet] = {}
    drivers = net.drivers
    setter = {u: ctrl for ctrl in controllers.values() for u in ctrl.controls}
    values: dict[str, BoolFunc] = {}
    for sys in net.topological:
        env, controls = sys.env_inputs, sys.controls
        for v in env:
            if v in drivers:
                values[v], cone[v] = values[drivers[v]], cone[drivers[v]]
        ctrl = controllers.get(sys.name)
        cells = None
        if ctrl is not None and ctrl.inputs == env and ctrl.controls == controls:
            if controls:
                inputs, m, read = VariableSet._derived(env + controls), len(controls), set(controls)
                cells = [k << m | rank for k, rank in enumerate(ctrl.ranks)]
                env_cone = 0
                for v in env:
                    env_cone |= cone[v]
        else:
            for u in controls:
                if u in setter:
                    values[u] = f = setter[u].control_function(u)
                    cone[u] = 0
                    for v in f.scope:
                        cone[u] |= cone[v]
        for y, f in sys.functions.items():
            if cells is not None and not read.isdisjoint(f.scope):
                f = BoolFunc._wrap(env, _under_controller(_extended(f, inputs), len(inputs), cells))
                mask = env_cone
            else:
                mask = 0
                for v in f.scope:
                    mask |= cone[v]
            scope = scopes.get(mask)
            if scope is None:
                scope = scopes[mask] = VariableSet._derived(tuple(v for v in free if mask & cone[v]))
            values[y], cone[y] = _substituted(f, scope, values), mask
    return {y: values[y] for sys in net.subsystems for y in sys.outputs}


def _under_controller(bits: int, n: int, cells: list[int]) -> int:
    """The table over `n` inputs, environment inputs first, read at `cells`,
    one cell per environment row, as a table over the environment inputs."""
    data = bits.to_bytes(((1 << n) + 7) >> 3, "little")
    closed = 0
    for k, c in enumerate(cells):
        if data[c >> 3] >> (c & 7) & 1:
            closed |= 1 << k
    return closed


def _substituted(f: BoolFunc, cone: VariableSet, values: Mapping[str, BoolFunc]) -> BoolFunc:
    """`f` over `cone`, with each variable outside `cone` replaced by its
    function in `values`, a function over part of `cone`: `_composed` with
    a mux per variable up to the last replaced one, that variable's pattern
    on `cone` where it is in `cone` and its value put on `cone` otherwise."""
    scope = f.scope
    last = len(scope)
    while last and scope[last - 1] in cone:
        last -= 1
    if not last:
        return BoolFunc._wrap(cone, _extended(f, cone))
    k = len(cone)
    check_table_size(k)
    muxes = [_variable_pattern(k, k - 1 - cone.index(v)) if v in cone else _extended(values[v], cone)
             for v in scope[:last]]
    return BoolFunc._wrap(cone, _composed(f, muxes, cone))


def compose(
    net: BooleanNetwork, controllers: Mapping[str, Controller]
) -> dict[str, BoolFunc]:
    """Closed-loop output functions over all external inputs.

    Substitutes the controllers, one per subsystem or one central one, into
    the output functions and eliminates internal inputs along the wiring
    (`closed_loop`); every returned function is scoped over the full
    external-input set.
    """
    check_controllers(net, controllers)
    ext = external_inputs(net)
    check_table_size(len(ext))
    return {y: f.extend(ext) for y, f in closed_loop(net, ext, controllers).items()}


def flatten(net: BooleanNetwork) -> BooleanSystem:
    """The network itself as one boolean system, "network" (controls stay
    free).  Each output function is scoped over the external inputs and
    controls it reads through the wiring."""
    ext, controls = external_inputs(net), all_controls(net)
    functions = closed_loop(net, ext.union(controls), {})
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
