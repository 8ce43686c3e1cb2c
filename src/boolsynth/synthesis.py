"""Realizability checking and recursive distributed controller synthesis.

A local contract is realizable when for every admissible environment
valuation some control valuation makes the guarantee hold; the witness of
that forall-exists question is a controller table.  Realizability, the
least restrictive assumption and extraction all read one matrix, G(f(u, e))
with a row per environment valuation and a column per control valuation.
A subsystem's output functions never change, so the matrix is a gather from
the guarantee's flat table at the subsystem's memoized rank table
(`BooleanSystem.output_ranks`), not a fresh composition per attempt;
`distributed_synthesis` searches on a fresh copy of each subsystem, so these
tables last for one call.  The distributed procedure peels leaf subsystems
off the system graph in one fixed order, the network's topological order
backwards: it projects the assumption once per leaf, tries each maximal
guarantee split, constrains the leaf's internal inputs by the least
restrictive assumption, turns that constraint into a guarantee for the
remaining subsystems by aliasing each internal input to its driving output,
and recurses, backtracking over splits.  Every least restrictive assumption
of a leaf spans the leaf's internal inputs, so the plan of that aliasing
(`_rewiring`: the driving outputs and, under fan-out, the einsum axes) is
made once per leaf, and each attempt only applies it (`_rewired`).  The
search yields one local contract per subsystem; a controller is extracted
from each of them once the search has succeeded.

The outputs follow one order as well, `BooleanNetwork.peel_outputs`: the
leaves in peel order, each leaf's outputs in declaration order.  The
guarantee is put in that order once per call (the EPS compile already emits
it so), and every guarantee the search builds keeps its scope a subsequence
of it.  So the leaf being peeled leads: its distribution graph is a reshape
of the guarantee's table, a split's remainder needs no reordering, and the
strengthened guarantee is one `boolfunc._combined` AND of the remainder,
which spans the rest of the guarantee's scope, and the rewired assumption,
which spans the leaf's driving outputs: one scope per leaf, planned once.

The assumption never changes, so the search's state is the leaf and the
guarantee.  Each leaf keeps two memos, dicts made per call and keyed by table
bytes (nogood recording limited to exact repeats).  A failed guarantee
records the trace slice it appended, and a repeat replays that slice, so the
trace still lists every attempt.  A least restrictive assumption, keyed by
the split's local guarantee, is computed and rewired once and reused.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .boolfunc import BoolFunc, Valuation, VariableSet, _combined, valuation_bits
from .contracts import (
    ContractPair,
    check_contract,
    conjunctive_decomposition,
    maximal_distributions,
    project_assumption,
)
from .network import (
    BooleanNetwork,
    BooleanSystem,
    Controller,
    classify_inputs,
    flatten,
    is_forest,
)

__all__ = [
    "UnrealizableError",
    "TraceEntry",
    "SynthesisOutcome",
    "check_realizable",
    "extract_controller",
    "least_restrictive_assumption",
    "rewire_to_parent_outputs",
    "update_contract",
    "distributed_synthesis",
    "centralized_synthesis",
    "completeness_certificate",
]


class UnrealizableError(ValueError):
    """Controller extraction was asked for an unrealizable contract."""


@dataclass(frozen=True)
class TraceEntry:
    """One synthesis attempt: which subsystem, which split, which LRA."""

    subsystem: str
    distribution: int
    lra: BoolFunc


@dataclass(frozen=True)
class SynthesisOutcome:
    """Result of the recursive procedure: on success, one controller and one
    realizable local contract per subsystem; the trace logs every attempt."""

    success: bool
    controllers: dict[str, Controller]
    local_contracts: dict[str, ContractPair]
    trace: tuple[TraceEntry, ...]


def _guarantee_over_inputs(sys: BooleanSystem, guarantee: BoolFunc) -> np.ndarray:
    """G(f(u, e)) as a bool array with one row per environment valuation and
    one column per control valuation: a gather from G's flat table."""
    return guarantee.table.reshape(-1)[sys.output_ranks(guarantee.scope)]


def _losing(sys: BooleanSystem, assumption: BoolFunc, win: np.ndarray) -> np.ndarray:
    """Flat mask over environment valuations: admissible, yet no control
    valuation makes `win` hold.  `assumption` must be over `sys.env_inputs`."""
    return np.greater(assumption.extend(sys.env_inputs).table.reshape(-1), win.any(axis=1))


def check_realizable(sys: BooleanSystem, assumption: BoolFunc, guarantee: BoolFunc) -> bool:
    """Decide ``forall e exists u: A(e) -> G(f(u, e))``.

    `assumption` is over environment inputs (internal-input constraints may
    be conjoined in), and any other variable in it is refused with
    ValueError; `guarantee` is over outputs.
    """
    return not _losing(sys, assumption, _guarantee_over_inputs(sys, guarantee)).any()


def extract_controller(sys: BooleanSystem, assumption: BoolFunc, guarantee: BoolFunc) -> Controller:
    """Total controller table; on each admissible row the guarantee holds.

    Ties break to the lexicographically least control valuation that
    satisfies the guarantee; rows where none exists get all-False controls
    and must be inadmissible, otherwise the contract is unrealizable.
    """
    env, ctr = sys.env_inputs, sys.controls
    win = _guarantee_over_inputs(sys, guarantee)
    bad = _losing(sys, assumption, win)
    if bad.any():
        witness = Valuation.from_index(env, int(np.argmax(bad)))
        raise UnrealizableError(
            f"{sys.name}: no control satisfies the guarantee at admissible input ({witness})"
        )
    # argmax picks column 0, all-False, on a row that no control wins
    choice = np.argmax(win, axis=1)
    return Controller(sys.name, env, ctr, valuation_bits(choice, len(ctr)).T)


def least_restrictive_assumption(
    sys: BooleanSystem,
    assumption: BoolFunc,
    guarantee: BoolFunc,
    internal: VariableSet,
) -> BoolFunc:
    """The set of internal-input valuations under which the local contract is
    realizable, as a function over `internal`, a subset of the environment
    inputs.

    Constant False means no internal valuation helps; internal valuations
    outside the satisfying set make the guarantee unachievable.  Computed as
    ``forall e_ext: A -> exists u: G(f)``, i.e. the complement of the
    projection onto `internal` of the losing set ``A & ~exists u: G(f)``;
    `BoolFunc.project` refuses variables outside the environment inputs.
    """
    losing = _losing(sys, assumption, _guarantee_over_inputs(sys, guarantee))
    return ~BoolFunc._wrap(sys.env_inputs, losing).project(internal)


def _rewiring(internal: VariableSet, net: BooleanNetwork, name: str) -> tuple:
    """How `_rewired` puts a function over `internal`, driven inputs of
    subsystem `name`, onto the parent outputs driving them: those outputs,
    each once, in order of first use, and the einsum axis of each input, or
    None when no two inputs share a driver, so the table is kept as it is."""
    undriven = [v for v in internal if v not in net.drivers]
    if undriven:
        raise ValueError(f"{name}.{undriven[0]} has no driving link; cannot rewire onto parent outputs")
    drivers = [net.drivers[v] for v in internal]
    parents = VariableSet._derived(tuple(dict.fromkeys(drivers)))
    axes = None if len(parents) == len(drivers) else [parents.index(y) for y in drivers]
    return parents, axes


def _rewired(lra: BoolFunc, rewiring: tuple) -> BoolFunc:
    """`lra` on the parent outputs of `rewiring`, a `_rewiring` of its scope;
    inputs that one output drives read the einsum diagonal."""
    parents, axes = rewiring
    table = lra.table if axes is None else np.einsum(lra.table, axes, range(len(parents)))
    return BoolFunc._wrap(parents, table)


def rewire_to_parent_outputs(lra: BoolFunc, net: BooleanNetwork, name: str) -> BoolFunc:
    """`lra` over the parent outputs driving its internal inputs: each input is
    aliased to its driver, so inputs that one output drives read the diagonal."""
    return _rewired(lra, _rewiring(lra.scope, net, name))


def update_contract(contract: ContractPair, up: BoolFunc, lra_rewired: BoolFunc) -> ContractPair:
    """Contract for the remaining subsystems: the assumption is unchanged and
    the guarantee becomes the remainder split strengthened by the rewired
    least restrictive assumption, over `up`'s scope followed by the parent
    outputs it does not read."""
    return ContractPair(contract.assumption, up & lra_rewired)


def distributed_synthesis(net: BooleanNetwork, contract: ContractPair) -> SynthesisOutcome:
    """Recursive leaf-elimination synthesis with backtracking over splits.

    The search finds one realizable local contract per subsystem, or fails
    after exhausting every split at some leaf; on success each subsystem's
    controller is extracted from its local contract, once.  The
    trace logs each attempt in exploration order, so on failure its tail
    shows the subsystem whose candidates ran out.  Under an unsatisfiable
    assumption any controller satisfies ``A -> G``: the guarantee becomes True.
    """
    check_contract(net, contract)
    guarantee = contract.guarantee
    if contract.assumption.is_false:
        guarantee = BoolFunc.const(VariableSet(), True)
    # into the search's one output order: a copy at most once per call, and
    # none for a compiled EPS guarantee, which is built in that order
    scope = net.peel_outputs.restricted_to(guarantee.scope)
    guarantee = guarantee.extend(scope)
    # Per leaf, in peel order: the system, its internal inputs, its local
    # assumption and that over its environment inputs, the rewiring of its
    # internal inputs, the scope of every guarantee it hands on, and its two
    # memos.  None depends on the path to the leaf.  Each system is a fresh
    # copy, so the rank tables it memoizes last for this call.
    leaves = []
    for sys in reversed(net.topological):
        local = project_assumption(contract.assumption, net, sys.name)
        internal = sys.env_inputs.restricted_to(net.drivers)
        rewiring = _rewiring(internal, net, sys.name)
        scope = net.peel_outputs.restricted_to([*scope.without(sys.outputs), *rewiring[0]])
        leaves.append((replace(sys), internal, local, local.extend(sys.env_inputs),
                       rewiring, scope, {}, {}))
    trace: list[TraceEntry] = []
    local_contracts = _synthesize(net, leaves, guarantee, trace)
    if local_contracts is None:
        return SynthesisOutcome(False, {}, {}, tuple(trace))
    systems = {sys.name: sys for sys, *_ in leaves}
    controllers = {
        name: extract_controller(systems[name], lc.assumption, lc.guarantee)
        for name, lc in local_contracts.items()
    }
    return SynthesisOutcome(True, controllers, local_contracts, tuple(trace))


def _synthesize(
    net: BooleanNetwork, leaves: list, guarantee: BoolFunc, trace: list[TraceEntry]
) -> dict[str, ContractPair] | None:
    """The local contract of every leaf in `leaves`, or None once every split
    of some leaf has failed.  With no leaf left, the guarantee that remains
    has an empty scope and decides alone: true succeeds, false fails.

    The first leaf's facts are fixed per call, so the guarantee alone
    decides the answer.  `failed` maps the bytes of each guarantee that
    failed here to the trace slice it appended; a repeat replays that slice.
    A table is copied into a key only once the leaf has failed, so a leaf
    that never fails copies nothing.  `lras` maps split-down table bytes to
    the least restrictive assumption of that local guarantee and to it
    rewired onto the parent outputs, or None when it is False.
    """
    if not leaves:
        return {} if guarantee.is_true else None
    sys, internal, local_assumption, admissible, rewiring, scope, failed, lras = leaves[0]
    key = None
    if failed:
        key = guarantee.table.tobytes()
        if key in failed:
            trace.extend(failed[key])
            return None
    start = len(trace)
    for idx, gamma in enumerate(maximal_distributions(guarantee, net, sys.name)):
        down = gamma.down.table.tobytes()
        known = lras.get(down)
        if known is None:
            lra = least_restrictive_assumption(sys, admissible, gamma.down, internal)
            known = lras[down] = lra, None if lra.is_false else _rewired(lra, rewiring)
        lra, rewired = known
        trace.append(TraceEntry(sys.name, idx, lra))
        if rewired is None:
            continue
        local_contracts = _synthesize(
            net, leaves[1:], _combined(np.logical_and, scope, gamma.up, rewired), trace)
        if local_contracts is not None:
            local_contracts[sys.name] = ContractPair(local_assumption & lra, gamma.down)
            return local_contracts
    if key is None:
        key = guarantee.table.tobytes()
    failed[key] = trace[start:]
    return None


def centralized_synthesis(net: BooleanNetwork, contract: ContractPair) -> Controller | None:
    """One controller for the whole network (all controls read all external
    inputs), or None when even full information does not suffice."""
    check_contract(net, contract)
    try:
        return extract_controller(flatten(net), contract.assumption, contract.guarantee)
    except UnrealizableError:
        return None


def completeness_certificate(net: BooleanNetwork, contract: ContractPair) -> bool:
    """True when a failure of `distributed_synthesis` proves that no
    distributed controller exists: the assumption splits conjunctively over
    per-subsystem external inputs, the guarantee splits conjunctively over
    per-subsystem outputs, and the system graph is a forest."""
    check_contract(net, contract)
    if not is_forest(net):
        return False
    ext_blocks = []
    out_blocks = []
    for s in net.subsystems:
        _, ext = classify_inputs(net, s.name)
        block = contract.assumption.scope.restricted_to(ext)
        if block:
            ext_blocks.append(block)
        block = contract.guarantee.scope.restricted_to(s.outputs)
        if block:
            out_blocks.append(block)
    # a side with no block has an empty scope: a constant splits over any partition
    sides = ((contract.assumption, ext_blocks), (contract.guarantee, out_blocks))
    return all(not blocks or conjunctive_decomposition(f, blocks) is not None for f, blocks in sides)
