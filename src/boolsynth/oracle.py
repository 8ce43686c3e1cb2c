"""Brute-force reference procedures for validating the synthesis engine.

Everything here trades efficiency for obviousness: distributed synthesis by
exhaustive enumeration of controller tuples, closed-loop verification by
simulating every external valuation (vectorized over all of them at once,
by forward evaluation along the wiring), and maximal-biclique enumeration
by subset closure.  All of it is bounded to desk scale.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .boolfunc import Valuation, VariableSet, check_table_size, valuation_bits, valuation_ranks
from .contracts import ContractPair, DistributionGraph, check_contract
from .network import (
    BooleanNetwork,
    BooleanSystem,
    Controller,
    check_controllers,
    external_inputs,
    system_graph,
    topological_order,
)

__all__ = [
    "BudgetExceededError",
    "VerificationResult",
    "controller_table_bits",
    "brute_force_distributed",
    "verify_closed_loop",
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

    Every controller table is simulated on all external valuations at once,
    resolving internal wiring by forward evaluation, independently of the
    symbolic composition path.  Returns the first counterexample in
    canonical order, if any.
    """
    check_contract(net, contract)
    check_controllers(net, controllers)
    evaluator = _VectorEvaluator(net, contract)
    violated = evaluator.violations(controllers)
    if not violated.any():
        return VerificationResult(True)
    return VerificationResult(False, Valuation.from_index(evaluator.ext, int(np.argmax(violated))))


class _VectorEvaluator:
    """Vectorized closed-loop evaluation over all external valuations at once.

    Built once per network and contract, whose admissible mask it computes
    once; `outputs_for` takes controllers that pass `check_controllers`, one
    per subsystem or one central one, and returns each variable's bool value
    array indexed by external-valuation rank.
    """

    def __init__(self, net: BooleanNetwork, contract: ContractPair):
        self.net = net
        self.guarantee = contract.guarantee
        self.ext = external_inputs(net)
        m = len(self.ext)
        check_table_size(m)
        self.ext_bits = dict(zip(self.ext, valuation_bits(np.arange(1 << m), m)))
        self.admissible = np.broadcast_to(contract.assumption.evaluate_many(self.ext_bits), (1 << m,))
        self.order = topological_order(system_graph(net))

    def outputs_for(self, controllers: Mapping[str, Controller]) -> dict[str, np.ndarray]:
        """Values of every external input, environment input, control and
        output.  Each control comes from the controller that sets it, whose
        rows are gathered once, at the rank of its own inputs, when the first
        subsystem it drives is evaluated; each subsystem computes one flat
        index per distinct function scope."""
        values: dict[str, np.ndarray] = dict(self.ext_bits)
        drivers = self.net.drivers
        setter = {u: name for name, c in controllers.items() for u in c.controls}
        pending = dict(controllers)
        for name in self.order:
            sys = self.net.subsystem(name)
            values.update({v: values[drivers[v]] for v in sys.env_inputs if v in drivers})
            for u in sys.controls:
                ctrl = pending.pop(setter[u], None)
                if ctrl is not None:
                    rows = ctrl.table[valuation_ranks(values[v] for v in ctrl.inputs)]
                    values.update(zip(ctrl.controls, rows.T))
            ranks: dict[VariableSet, np.ndarray] = {}
            for y, f in sys.functions.items():
                if f.scope not in ranks:
                    ranks[f.scope] = valuation_ranks(values[v] for v in f.scope)
                values[y] = f.table.reshape(-1)[ranks[f.scope]]
        return values

    def violations(self, controllers: Mapping[str, Controller]) -> np.ndarray:
        """Mask over external-valuation ranks: admissible but not guaranteed."""
        return self.admissible & ~self.guarantee.evaluate_many(self.outputs_for(controllers))


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
    evaluator = _VectorEvaluator(net, contract)
    for controllers in _candidates(net.subsystems):
        if not evaluator.violations(controllers).any():
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
