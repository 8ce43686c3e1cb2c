"""Realizability checking and distributed controller synthesis.

A local contract is realizable when for every admissible environment
valuation some control valuation makes the guarantee hold; the witness of
that forall-exists question is a controller table.  Realizability, the
least restrictive assumption and extraction all read one packed table,
G(f(u, e)) over the subsystem's inputs, environment inputs first, so each
environment valuation owns a row of cells, one per control valuation
(`_winning`).  A subsystem's output functions never change, so each is
packed over the inputs once (`BooleanSystem.output_bits`) and G(f) is G
with its outputs replaced by those tables (`boolfunc._composed`), not a
fresh composition per attempt.  The masks an attempt reads of the assumption
and the internal inputs are planned once per leaf as well (`_plan`), so
the losing set ``A & ~exists u: G(f)`` of each internal valuation is one
OR-fold of the rows and one AND (`_losing`).  `distributed_synthesis`
searches on a fresh copy of each subsystem, so these tables last for one
call.  The distributed procedure peels leaf subsystems off the system graph
in one fixed order, the network's topological order backwards: it projects
the assumption once per leaf, tries each maximal guarantee split, constrains
the leaf's internal inputs by the least restrictive assumption, turns that
constraint into a guarantee for the remaining subsystems by aliasing each
internal input to its driving output, and descends, backtracking over
splits.  Every least restrictive assumption of a leaf spans the leaf's
internal inputs, so the plan of that aliasing (`_rewiring`: the driving
outputs and, under fan-out, the cells of the diagonal) is made once per
leaf, and each attempt only applies it (`_rewired`).  The search yields one
local contract per subsystem; a controller is extracted from each of them
once the search has succeeded.

The outputs follow one order as well, `BooleanNetwork.peel_outputs`: the
leaves in peel order, each leaf's outputs in declaration order.  The
guarantee is put in that order once per call (the EPS compile already emits
it so), and every guarantee the search builds keeps its scope a subsequence
of it.  So the leaf being peeled leads: its distribution graph's relation is
the guarantee itself, a split's remainder needs no reordering, and the
strengthened guarantee is one `boolfunc._combined` AND of the remainder,
which spans the rest of the guarantee's scope, and the rewired assumption,
which spans the leaf's driving outputs: one scope per leaf, planned once
and sorted by `BooleanNetwork.peel_index`, so planning is linear.

The assumption never changes, so the search's state is one stack of
frames, one per leaf entered, each with its guarantee.  Each leaf keeps
two memos, dicts made per call and keyed by packed tables (nogood
recording limited to exact repeats).  A failed guarantee records the trace
slice it appended, and a repeat replays that slice, so the trace still
lists every attempt.  A least restrictive assumption, keyed by the split's
local guarantee, is computed and rewired once and reused.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_

from .boolfunc import (
    BoolFunc,
    Valuation,
    VariableSet,
    _cofactors,
    _combined,
    _composed,
    _extended,
    _variable_pattern,
)
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
    """Result of distributed synthesis: on success, one controller and one
    realizable local contract per subsystem; the trace logs every attempt."""

    success: bool
    controllers: dict[str, Controller]
    local_contracts: dict[str, ContractPair]
    trace: tuple[TraceEntry, ...]


def _winning(sys: BooleanSystem, guarantee: BoolFunc) -> int:
    """G(f(u, e)) packed over the system's inputs, environment inputs then
    controls: G with each output replaced by its packed table
    (`BooleanSystem.output_bits`, `boolfunc._composed`).  On the search's
    per-call copies of the systems it is kept per guarantee (`_wins`), so
    the extraction after a success reads the table its least restrictive
    assumption was computed on."""
    wins = sys._wins
    win = None if wins is None else wins.get(guarantee)
    if win is None:
        inputs = VariableSet._derived(sys.env_inputs + sys.controls)
        win = _composed(guarantee, sys.output_bits(guarantee.scope), inputs)
        if wins is not None:
            wins[guarantee] = win
    return win


def _plan(sys: BooleanSystem, assumption: BoolFunc, internal: VariableSet) -> tuple:
    """What the game reads of `assumption` and `internal` on the packed
    inputs of `sys`, where environment valuation e owns the row of cells
    ``e * 2^|controls|`` onwards, one per control valuation: the shifts that
    OR each row into its first cell, and per valuation of `internal` the
    first cells of the admissible rows that extend it.  Made once per
    (assumption, internal) and kept on the system."""
    plan = sys._plans.get((assumption, internal))
    if plan is None:
        env, controls = sys.env_inputs, sys.controls
        stray = [v for v in internal if v not in env]
        if stray:
            raise ValueError(f"cannot project onto variables outside scope: {stray}")
        missing = [v for v in assumption.scope if v not in env]
        if missing:
            raise ValueError(f"extension scope is missing {missing}")
        n = len(env) + len(controls)
        firsts = _extended(assumption, VariableSet._derived(env + controls))
        for k in range(len(controls)):
            firsts ^= firsts & _variable_pattern(n, k)
        cylinders = [firsts]
        for v in internal:  # split each cylinder on v, false first
            pattern = _variable_pattern(n, n - 1 - env.index(v))
            cylinders = [half for c in cylinders for half in (c ^ (c & pattern), c & pattern)]
        plan = sys._plans[(assumption, internal)] = tuple(1 << k for k in range(len(controls))), cylinders
    return plan


def _losing(sys: BooleanSystem, assumption: BoolFunc, win: int, internal: VariableSet) -> list[int]:
    """Per valuation of `internal`, the first cells of the admissible rows
    that extend it and that `win`, a `_winning` table, leaves empty: the
    losing set ``A & ~exists u: G(f)``, one OR-fold of the rows and one AND
    per valuation."""
    folds, cylinders = _plan(sys, assumption, internal)
    for shift in folds:
        win |= win >> shift
    return [cells ^ (cells & win) for cells in cylinders]


def check_realizable(sys: BooleanSystem, assumption: BoolFunc, guarantee: BoolFunc) -> bool:
    """Decide ``forall e exists u: A(e) -> G(f(u, e))``.

    `assumption` is over environment inputs (internal-input constraints may
    be conjoined in), and any other variable in it is refused with
    ValueError; `guarantee` is over outputs.
    """
    return not _losing(sys, assumption, _winning(sys, guarantee), VariableSet())[0]


def extract_controller(sys: BooleanSystem, assumption: BoolFunc, guarantee: BoolFunc) -> Controller:
    """Total controller table; on each admissible row the guarantee holds.

    Ties break to the lexicographically least control valuation that
    satisfies the guarantee, the lowest set cell of the environment
    valuation's row of `_winning`, whose rank is the controller's row; rows
    where none exists get all-False controls and must be inadmissible,
    otherwise the contract is unrealizable.
    """
    env, ctr = sys.env_inputs, sys.controls
    win = _winning(sys, guarantee)
    (lost,) = _losing(sys, assumption, win, VariableSet())
    if lost:
        witness = Valuation.from_index(env, ((lost & -lost).bit_length() - 1) >> len(ctr))
        raise UnrealizableError(
            f"{sys.name}: no control satisfies the guarantee at admissible input ({witness})"
        )
    rows = _cofactors(win, len(env) + len(ctr), len(env))
    return Controller._from_ranks(sys.name, env, ctr,
                                  tuple((row & -row).bit_length() - 1 if row else 0 for row in rows))


def least_restrictive_assumption(
    sys: BooleanSystem,
    assumption: BoolFunc,
    guarantee: BoolFunc,
    internal: VariableSet,
) -> BoolFunc:
    """The set of internal-input valuations under which the local contract is
    realizable, as a function over `internal`, a subset of the environment
    inputs, computed on packed tables.

    Constant False means no internal valuation helps; internal valuations
    outside the satisfying set make the guarantee unachievable.  Computed as
    ``forall e_ext: A -> exists u: G(f)``, the valuations whose losing set
    (`_losing`) is empty; variables of `internal` outside the environment
    inputs are refused with ValueError.
    """
    lost = _losing(sys, assumption, _winning(sys, guarantee), internal)
    return BoolFunc._wrap(internal, sum(1 << i for i, cells in enumerate(lost) if not cells))


def _rewiring(internal: VariableSet, net: BooleanNetwork, name: str) -> tuple:
    """How `_rewired` puts a function over `internal`, driven inputs of
    subsystem `name`, onto the parent outputs driving them: those outputs,
    each once, in order of first use, and per valuation of them the rank of
    the internal valuation that copies it (the diagonal), or None when no
    two inputs share a driver, so the table is kept as it is."""
    undriven = [v for v in internal if v not in net.drivers]
    if undriven:
        raise ValueError(f"{name}.{undriven[0]} has no driving link; cannot rewire onto parent outputs")
    drivers = [net.drivers[v] for v in internal]
    parents = VariableSet._derived(tuple(dict.fromkeys(drivers)))
    if len(parents) == len(drivers):
        return parents, None
    shifts = [len(parents) - 1 - parents.index(y) for y in drivers]
    diagonal = [sum((p >> b & 1) << (len(shifts) - 1 - k) for k, b in enumerate(shifts))
                for p in range(1 << len(parents))]
    return parents, diagonal


def _rewired(lra: BoolFunc, rewiring: tuple) -> BoolFunc:
    """`lra` on the parent outputs of `rewiring`, a `_rewiring` of its scope;
    inputs that one output drives read the diagonal."""
    parents, diagonal = rewiring
    if diagonal is None:
        return BoolFunc._wrap(parents, lra.bits)
    return BoolFunc._wrap(parents, sum(1 << p for p, r in enumerate(diagonal) if lra.bits >> r & 1))


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
    """Leaf-elimination synthesis with backtracking over splits.

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
    order = net.peel_index.__getitem__
    scope = VariableSet._derived(tuple(sorted(guarantee.scope, key=order)))
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
        scope = VariableSet._derived(tuple(sorted({*scope.without(sys.outputs), *rewiring[0]}, key=order)))
        leaves.append((sys._fresh(), internal, local, local.extend(sys.env_inputs),
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
    """The local contract of every leaf in `leaves`, deepest first, or None
    once every split of the first leaf has failed: basic backtrack (Knuth,
    TAOCP 4B, Algorithm 7.2.2B) on a stack of one frame per leaf entered,
    which holds its guarantee, splits, trace start and the split tried.
    Past the last leaf the guarantee has an empty scope: true succeeds.

    A leaf's facts are fixed per call, so its guarantee alone decides the
    answer.  `failed` maps the packed table of each guarantee that failed
    at a leaf to the trace slice it appended; a repeat replays that slice.
    It is looked up only once the leaf has failed, so a leaf that never
    fails hashes no table.  `lras` maps the packed table of a split's local
    guarantee to its least restrictive assumption and to that rewired onto
    the parent outputs, or None when it is False.
    """
    frames: list[list] = []
    while True:
        if guarantee is not None:  # enter leaf len(frames)
            if len(frames) == len(leaves):
                if guarantee.is_true:
                    pairs = zip(reversed(leaves), reversed(frames))
                    return {s.name: ContractPair(a & lra, down) for (s, _, a, *_), (*_, lra, down) in pairs}
            elif (failed := leaves[len(frames)][6]) and guarantee.bits in failed:
                trace.extend(failed[guarantee.bits])
            else:
                splits = enumerate(maximal_distributions(guarantee, net, leaves[len(frames)][0].name))
                frames.append([guarantee, splits, len(trace), None, None])
            guarantee = None
        if not frames:
            return None
        sys, internal, _, admissible, rewiring, scope, failed, lras = leaves[len(frames) - 1]
        frame = frames[-1]
        split = next(frame[1], None)
        if split is None:
            failed[frame[0].bits] = trace[frame[2]:]
            frames.pop()
            continue
        idx, gamma = split
        known = lras.get(gamma.down.bits)
        if known is None:
            lra = least_restrictive_assumption(sys, admissible, gamma.down, internal)
            known = lras[gamma.down.bits] = lra, None if lra.is_false else _rewired(lra, rewiring)
        lra, rewired = known
        trace.append(TraceEntry(sys.name, idx, lra))
        if rewired is not None:
            frame[3:] = lra, gamma.down
            guarantee = _combined(and_, scope, gamma.up, rewired)


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
