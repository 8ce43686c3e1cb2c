"""Brute-force reference procedures for validating the synthesis engine.

Everything here trades efficiency for obviousness: distributed synthesis by
exhaustive enumeration of controller tuples, closed-loop verification over
every external valuation at once, on the packed tables of the network's one
closed-loop walk (`closed_loop`), or, for ``verify --oracle``, by existential
substitution along the wiring, and maximal-biclique enumeration by subset
closure.  All of it is bounded to desk scale.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass

from .boolfunc import BoolFunc, Valuation, VariableSet, _extended, _set_cells, check_table_size
from .contracts import ContractPair, DistributionGraph, check_contract
from .network import (
    BooleanNetwork,
    BooleanSystem,
    Controller,
    check_controllers,
    closed_loop,
    external_inputs,
)

__all__ = [
    "BudgetExceededError",
    "VerificationResult",
    "controller_table_bits",
    "brute_force_distributed",
    "verify_closed_loop",
    "verify_by_substitution",
    "enumerate_bicliques_subset",
]


# Cap on the exhaustive controller search: the summed table size
# ``sum_i |U_i| * 2^|E_i|`` of all controllers.
MAX_CONTROLLER_BITS = 24
# Cap on the subset biclique oracle: 2^(smaller side) subsets times the
# larger side.
MAX_BICLIQUE_WORK = 1 << 16


class BudgetExceededError(ValueError):
    """The requested enumeration is larger than the oracle's budget."""


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    counterexample: Valuation | None = None

    def __bool__(self) -> bool:
        return self.ok


def controller_table_bits(net: BooleanNetwork) -> int:
    return sum(len(s.controls) * (1 << len(s.env_inputs)) for s in net.subsystems)


def verify_closed_loop(
    net: BooleanNetwork,
    controllers: Mapping[str, Controller],
    contract: ContractPair,
) -> VerificationResult:
    """Exhaustively check assumption -> guarantee over all external valuations.

    The closed loop of the controllers is the network's one walk,
    `closed_loop`, on packed tables.  Returns the first counterexample in
    canonical order, if any.
    """
    check_contract(net, contract)
    check_controllers(net, controllers)
    ext, violated = external_inputs(net), _violations(net, contract)(controllers)
    return _verdict(ext, (violated & -violated).bit_length() - 1 if violated else None)


def _violations(net: BooleanNetwork, contract: ContractPair) -> Callable[[Mapping[str, Controller]], int]:
    """Controllers that pass `check_controllers` -> the packed table over the
    external inputs of the admissible valuations their closed loop does not
    guarantee, ``A & ~G(closed loop)``.  The admissible table is made once.

    G is expanded over its outputs, from the first, along the branches that
    admissible valuations reach: a branch on output y splits the valuations
    that reach it by y's closed-loop table.  A branch ends when no valuation
    reaches it or its cofactor is constant; the valuations that reach a
    false cofactor violate the contract."""
    ext = external_inputs(net)
    check_table_size(len(ext))
    admissible = contract.assumption.extend(ext).bits
    guarantee, outputs = contract.guarantee.bits, contract.guarantee.scope

    def violations(controllers: Mapping[str, Controller]) -> int:
        values = closed_loop(net, ext, controllers)
        closed = [_extended(values[y], ext) for y in outputs]

        def expand(bits: int, i: int, width: int, reach: int) -> int:
            if not bits:
                return reach
            if bits.bit_length() == width and bits.bit_count() == width:
                return 0
            width >>= 1
            high = reach & closed[i]
            violated = expand(bits >> width, i + 1, width, high) if high else 0
            if reach != high:
                violated |= expand(bits & ((1 << width) - 1), i + 1, width, reach ^ high)
            return violated

        return expand(guarantee, 0, 1 << len(outputs), admissible) if admissible else 0

    return violations


def _verdict(ext: VariableSet, first: int | None) -> VerificationResult:
    """The result for `first`, the rank of the first valuation of `ext` that
    violates the contract, or None when none does."""
    if first is None:
        return VerificationResult(True)
    return VerificationResult(False, Valuation.from_index(ext, first))


def verify_by_substitution(
    net: BooleanNetwork,
    controllers: Mapping[str, Controller],
    contract: ContractPair,
) -> VerificationResult:
    """`verify_closed_loop` by existential substitution along the wiring,
    independently of `closed_loop`: the reference of ``verify --oracle``.
    In topological order, each output function has its controls, then its
    internal inputs, replaced by `BoolFunc.substitute`."""
    check_contract(net, contract)
    check_controllers(net, controllers)
    setter = {u: c for c in controllers.values() for u in c.controls}
    closed: dict[str, BoolFunc] = {}
    for sys in net.topological:
        controls = {u: setter[u].control_function(u) for u in sys.controls}
        drivers = {v: closed[net.drivers[v]] for v in sys.env_inputs if v in net.drivers}
        for y, f in sys.functions.items():
            closed[y] = f.substitute(controls).substitute(drivers)
    guarantee = contract.guarantee.substitute({y: closed[y] for y in contract.guarantee.scope})
    violated = ~contract.assumption.implies(guarantee).extend(external_inputs(net))
    return _verdict(violated.scope, next(_set_cells(violated.bits), None))


def brute_force_distributed(
    net: BooleanNetwork, contract: ContractPair
) -> dict[str, Controller] | None:
    """Search every tuple of local controller tables for one whose closed
    loop satisfies the contract; None when the search space is exhausted.

    Returns the first hit in lexicographic table order (subsystems in
    declaration order, rows in valuation order, all-False first).
    """
    check_contract(net, contract)
    bits = controller_table_bits(net)
    if bits > MAX_CONTROLLER_BITS:
        raise BudgetExceededError(
            f"controller search needs {bits} table bits, budget allows {MAX_CONTROLLER_BITS}"
        )
    violations = _violations(net, contract)
    for controllers in _candidates(net.subsystems):
        if not violations(controllers):
            return controllers
    return None


def _candidates(systems: tuple[BooleanSystem, ...]) -> Iterator[dict[str, Controller]]:
    """Every tuple of controller tables for `systems` in lexicographic order,
    an odometer over table codes, the first subsystem's counting slowest.
    Table number `code` is its flattened row-major bit string, first bit
    most significant, so row k's control rank is one field of the code and
    0 is the all-False table.  Lazy: 2^24 table codes built up front would
    take hundreds of megabytes before the first try."""
    def table(s: BooleanSystem, code: int) -> Controller:
        m = len(s.controls)
        ranks = tuple(code >> (k * m) & ((1 << m) - 1) for k in reversed(range(1 << len(s.env_inputs))))
        return Controller._from_ranks(s.name, s.env_inputs, s.controls, ranks)

    last = [(1 << (len(s.controls) << len(s.env_inputs))) - 1 for s in systems]
    zeros = [table(s, 0) for s in systems]
    codes, tables = [0] * len(systems), list(zeros)
    while True:
        yield {s.name: c for s, c in zip(systems, tables)}
        i = len(systems) - 1
        while i >= 0 and codes[i] == last[i]:
            codes[i], tables[i] = 0, zeros[i]
            i -= 1
        if i < 0:
            return
        codes[i] += 1
        tables[i] = table(systems[i], codes[i])


def enumerate_bicliques_subset(graph: DistributionGraph) -> frozenset[tuple[frozenset[int], frozenset[int]]]:
    """Maximal bicliques (both sides nonempty) by subset closure.

    For every nonempty subset of the smaller side, intersect the other
    side's neighborhoods, close back, and keep the resulting pair.  Exact
    but exponential in the smaller side; refuses graphs whose work,
    2^(smaller side) subsets times the larger side, exceeds
    `MAX_BICLIQUE_WORK`.
    """
    n_left, n_right = 1 << len(graph.left_scope), 1 << len(graph.right_scope)
    small, large = sorted((n_left, n_right))
    if large << small > MAX_BICLIQUE_WORK:
        raise BudgetExceededError(
            f"biclique oracle limited to {MAX_BICLIQUE_WORK} subset steps, got 2^{small} x {large}"
        )
    # Neighbourhoods as int bit sets: the rows are slices of the relation's
    # table, and the columns those slices transposed.
    row = (1 << n_right) - 1
    left_nbr = [graph.relation.bits >> (i * n_right) & row for i in range(n_left)]
    right_nbr = [sum((nbr >> j & 1) << i for i, nbr in enumerate(left_nbr)) for j in range(n_right)]
    transposed = n_right < n_left
    if transposed:
        left_nbr, right_nbr, n_left, n_right = right_nbr, left_nbr, n_right, n_left

    found: set[tuple[frozenset[int], frozenset[int]]] = set()
    full_right = (1 << n_right) - 1
    for subset in range(1, 1 << n_left):
        common = full_right
        for i in range(n_left):
            if (subset >> i) & 1:
                common &= left_nbr[i]
        if common == 0:
            continue
        closure = (1 << n_left) - 1
        for j in range(n_right):
            if (common >> j) & 1:
                closure &= right_nbr[j]
        pair = (frozenset(_set_cells(closure)), frozenset(_set_cells(common)))
        found.add(pair if not transposed else (pair[1], pair[0]))
    return frozenset(found)
