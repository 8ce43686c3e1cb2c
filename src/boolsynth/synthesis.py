"""Realizability checking and recursive distributed controller synthesis.

A local contract is realizable when for every admissible environment
valuation some control valuation makes the guarantee hold; the witness of
that forall-exists question is a controller table.  Realizability, the
least restrictive assumption and extraction all read one packed table,
G(f(u, e)) over the subsystem's inputs, environment inputs first, so each
environment valuation owns a row of cells, one per control valuation
(`_winning`).  A subsystem's output functions never change, so each is
packed over the inputs once (`BooleanSystem.output_bits`) and G(f) is a
Shannon expansion of G over its outputs, one AND per branch, not a fresh
composition per attempt.  The masks an attempt reads of the assumption
and the internal inputs are planned once per leaf as well (`_plan`), so
the losing set ``A & ~exists u: G(f)`` of each internal valuation is one
OR-fold of the rows and one AND (`_losing`).  `distributed_synthesis`
searches on a fresh copy of each subsystem, so these tables last for one
call.  The distributed procedure peels leaf subsystems off the system graph
in one fixed order, the network's topological order backwards: it projects
the assumption once per leaf, tries each maximal guarantee split, constrains
the leaf's internal inputs by the least restrictive assumption, turns that
constraint into a guarantee for the remaining subsystems by aliasing each
internal input to its driving output, and recurses, backtracking over
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
which spans the leaf's driving outputs: one scope per leaf, planned once.

The assumption never changes, so the search's state is the leaf and the
guarantee.  Each leaf keeps two memos, dicts made per call and keyed by
packed tables (nogood recording limited to exact repeats).  A failed
guarantee records the trace slice it appended, and a repeat replays that
slice, so the trace still lists every attempt.  A least restrictive
assumption, keyed by the split's local guarantee, is computed and rewired
once and reused.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_

import numpy as np

from .boolfunc import (
    BoolFunc,
    Valuation,
    VariableSet,
    _cofactors,
    _combined,
    _full,
    _variable_pattern,
    valuation_bits,
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
    """Result of the recursive procedure: on success, one controller and one
    realizable local contract per subsystem; the trace logs every attempt."""

    success: bool
    controllers: dict[str, Controller]
    local_contracts: dict[str, ContractPair]
    trace: tuple[TraceEntry, ...]


def _winning(sys: BooleanSystem, guarantee: BoolFunc) -> int:
    """G(f(u, e)) packed over the system's inputs, environment inputs then
    controls: the Shannon expansion of G over its outputs, from the first,
    with each branch on output y ANDed with y's packed table
    (`BooleanSystem.output_bits`) or its complement.  A constant branch ends
    the expansion, so a cube costs one AND per output.  A cofactor whose
    branches both expand to non-constant tables is expanded once however
    many branches reach it (memo keyed by the cofactor and its depth), so a
    parity of k outputs costs O(k) ANDs.  A cofactor with a constant branch
    is one AND away from its other branch and is not kept: keeping a cube's
    chain of them would hold a table over all inputs per output, 220 MB
    more for central synthesis of the four-generator EPS chain."""
    full = _full(len(sys.env_inputs) + len(sys.controls))
    outputs = sys.output_bits(guarantee.scope)
    memo: dict[tuple[int, int], int] = {}

    def expand(bits: int, i: int, width: int) -> int:
        if not bits:
            return 0
        if bits == (1 << width) - 1:
            return full
        win = memo.get((bits, i))
        if win is None:
            width >>= 1
            lo, hi = expand(bits & ((1 << width) - 1), i + 1, width), expand(bits >> width, i + 1, width)
            if lo == hi:
                return lo
            f = outputs[i]
            win = (hi & f) | (lo & (full ^ f))
            if lo not in (0, full) and hi not in (0, full):
                memo[bits, i] = win
        return win

    return expand(guarantee.bits, 0, 1 << len(guarantee.scope))


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
        n = len(env) + len(controls)
        firsts = assumption.extend(env).extend(env.union(controls)).bits
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
    valuation's row of `_winning`; rows where none exists get all-False
    controls and must be inadmissible, otherwise the contract is
    unrealizable.
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
    choice = np.array([(row & -row).bit_length() - 1 if row else 0 for row in rows])
    return Controller(sys.name, env, ctr, valuation_bits(choice, len(ctr)).T)


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
    """The local contract of every leaf in `leaves`, or None once every split
    of some leaf has failed.  With no leaf left, the guarantee that remains
    has an empty scope and decides alone: true succeeds, false fails.

    The first leaf's facts are fixed per call, so the guarantee alone
    decides the answer.  `failed` maps the packed table of each guarantee
    that failed here to the trace slice it appended; a repeat replays that
    slice.  It is looked up only once the leaf has failed, so a leaf that
    never fails hashes no table.  `lras` maps the packed table of a split's
    local guarantee to its least restrictive assumption and to that rewired
    onto the parent outputs, or None when it is False.
    """
    if not leaves:
        return {} if guarantee.is_true else None
    sys, internal, local_assumption, admissible, rewiring, scope, failed, lras = leaves[0]
    if failed and guarantee.bits in failed:
        trace.extend(failed[guarantee.bits])
        return None
    start = len(trace)
    for idx, gamma in enumerate(maximal_distributions(guarantee, net, sys.name)):
        known = lras.get(gamma.down.bits)
        if known is None:
            lra = least_restrictive_assumption(sys, admissible, gamma.down, internal)
            known = lras[gamma.down.bits] = lra, None if lra.is_false else _rewired(lra, rewiring)
        lra, rewired = known
        trace.append(TraceEntry(sys.name, idx, lra))
        if rewired is None:
            continue
        local_contracts = _synthesize(net, leaves[1:], _combined(and_, scope, gamma.up, rewired), trace)
        if local_contracts is not None:
            local_contracts[sys.name] = ContractPair(local_assumption & lra, gamma.down)
            return local_contracts
    failed[guarantee.bits] = trace[start:]
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
