"""Brute-force reference procedures for validating the synthesis engine.

Everything here trades efficiency for obviousness: distributed synthesis by
exhaustive enumeration of controller tuples, closed-loop verification by
simulating every external valuation at once (`closed_loop_values`, the
network's one closed-loop walk) or, for ``verify --oracle``, by existential
substitution along the wiring, and maximal-biclique enumeration by subset
closure.  All of it is bounded to desk scale.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .boolfunc import BoolFunc, Valuation, VariableSet, _gather, _packed_cells, valuation_bits, valuation_ranks
from .contracts import ContractPair, DistributionGraph, check_contract
from .network import (
    BooleanNetwork,
    BooleanSystem,
    Controller,
    axis_seeds,
    check_controllers,
    closed_loop_values,
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

    The controller tables are simulated on every external valuation at once
    by `closed_loop_values`.  Returns the first counterexample in canonical
    order, if any.
    """
    check_contract(net, contract)
    check_controllers(net, controllers)
    return _verdict(external_inputs(net), _violations(net, contract)(controllers))


def _violations(
    net: BooleanNetwork, contract: ContractPair
) -> Callable[[Mapping[str, Controller]], np.ndarray]:
    """Controllers that pass `check_controllers` -> the mask of admissible
    valuations their closed loop does not guarantee, each external input on
    an axis of its own.  The seeds, the admissible mask and the guarantee's
    packed table are made once."""
    seeds = axis_seeds(external_inputs(net))
    admissible = contract.assumption.evaluate_many(seeds)
    scope, cells = contract.guarantee.scope, _packed_cells([contract.guarantee])

    def violations(controllers: Mapping[str, Controller]) -> np.ndarray:
        values = closed_loop_values(net, seeds, controllers)
        return admissible & ~_gather(cells, valuation_ranks(values[y] for y in scope))[0]

    return violations


def _verdict(ext: VariableSet, violated: np.ndarray) -> VerificationResult:
    """The result for a violation mask that broadcasts to the table over
    `ext`, whose C order is canonical valuation order."""
    if not violated.any():
        return VerificationResult(True)
    grid = np.broadcast_to(violated, (2,) * len(ext))
    return VerificationResult(False, Valuation.from_index(ext, int(np.argmax(grid))))


def verify_by_substitution(
    net: BooleanNetwork,
    controllers: Mapping[str, Controller],
    contract: ContractPair,
) -> VerificationResult:
    """`verify_closed_loop` by existential substitution along the wiring,
    independently of `closed_loop_values`: the reference of ``verify
    --oracle``.  In topological order, each output function has its controls,
    then its internal inputs, replaced by `BoolFunc.substitute`."""
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
    ext = external_inputs(net)
    return _verdict(ext, ~contract.assumption.implies(guarantee).extend(ext).table)


@lru_cache(maxsize=65536)
def _decode_table(code: int, env_count: int, control_count: int) -> np.ndarray:
    """Controller table number `code` in lexicographic order: the flattened
    row-major bit string (first bit most significant) counts up with `code`,
    so 0 is the all-False table."""
    table = valuation_bits(code, (1 << env_count) * control_count).reshape(1 << env_count, control_count)
    table.setflags(write=False)
    return table


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
        if not violations(controllers).any():
            return controllers
    return None


def _candidates(systems: tuple[BooleanSystem, ...]) -> Iterator[dict[str, Controller]]:
    """Every tuple of controller tables for `systems` in lexicographic order,
    the first subsystem's table counting slowest.  Lazy: 2^24 table codes
    built up front would take hundreds of megabytes before the first try."""
    if not systems:
        yield {}
        return
    s = systems[0]
    ne, nc = len(s.env_inputs), len(s.controls)
    for code in range(1 << ((1 << ne) * nc)):
        ctrl = Controller(s.name, s.env_inputs, s.controls, _decode_table(code, ne, nc))
        for rest in _candidates(systems[1:]):
            yield {s.name: ctrl, **rest}


def enumerate_bicliques_subset(graph: DistributionGraph) -> frozenset[tuple[frozenset[int], frozenset[int]]]:
    """Maximal bicliques (both sides nonempty) by subset closure.

    For every nonempty subset of the smaller side, intersect the other
    side's neighborhoods, close back, and keep the resulting pair.  Exact
    but exponential in the smaller side; refuses graphs whose work,
    2^(smaller side) subsets times the larger side, exceeds
    `MAX_BICLIQUE_WORK`.
    """
    adjacency = graph.adjacency
    n_left, n_right = adjacency.shape
    transposed = n_right < n_left
    if transposed:
        adjacency = adjacency.T
        n_left, n_right = n_right, n_left
    if n_right << n_left > MAX_BICLIQUE_WORK:
        raise BudgetExceededError(
            f"biclique oracle limited to {MAX_BICLIQUE_WORK} subset steps, "
            f"got 2^{n_left} x {n_right}"
        )

    # Python ints as bit sets: numpy indices would overflow past bit 63.
    left_nbr = [sum(1 << j for j in np.flatnonzero(adjacency[i]).tolist()) for i in range(n_left)]
    right_nbr = [sum(1 << i for i in np.flatnonzero(adjacency[:, j]).tolist()) for j in range(n_right)]

    def members(mask: int) -> frozenset[int]:
        return frozenset(i for i in range(max(n_left, n_right)) if (mask >> i) & 1)

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
        pair = (members(closure), members(common))
        found.add(pair if not transposed else (pair[1], pair[0]))
    return frozenset(found)
