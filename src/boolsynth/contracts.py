"""Assumption/guarantee pairs and guarantee distribution.

Distributing a guarantee between one subsystem and the rest amounts to
enumerating the maximal complete bipartite subgraphs (bicliques) of the
admissibility graph whose left nodes are the subsystem's output valuations
and whose right nodes are the remaining outputs' valuations, with an edge
wherever the combined valuation satisfies the guarantee.

The maximal bicliques are the formal concepts of that bipartite context
(Ganter & Wille, *Formal Concept Analysis*, 1999).  They are enumerated by
Close-by-One (Kuznetsov 1993) over the smaller side of the adjacency
matrix, usually the leaf's few output valuations.  Each closure is one
vectorized pass over the matrix and at most (smaller side) closures are
tried per concept, so the larger side only sets the width of a numpy row.
The splits are then sorted canonically, so split indices do not depend on
the enumeration order.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import prod

import numpy as np

from .boolfunc import BoolFunc, VariableSet
from .network import BooleanNetwork, all_outputs, classify_inputs, external_inputs

__all__ = [
    "ContractPair",
    "Distribution",
    "DistributionGraph",
    "check_contract",
    "project_assumption",
    "build_distribution_graph",
    "maximal_distributions",
    "distributions_from_graph",
    "conjunctive_decomposition",
]

from dataclasses import dataclass


@dataclass(frozen=True)
class ContractPair:
    """An assumption over (external) environment inputs and a guarantee over
    outputs; the closed loop must satisfy ``assumption -> guarantee``."""

    assumption: BoolFunc
    guarantee: BoolFunc


@dataclass(frozen=True)
class Distribution:
    """A guarantee split: `down` constrains one subsystem's outputs, `up` the
    remaining outputs, such that any pair of allowed valuations jointly
    satisfies the original guarantee."""

    down: BoolFunc
    up: BoolFunc


@dataclass(frozen=True)
class DistributionGraph:
    """Bipartite admissibility graph of a guarantee split.

    ``adjacency[i, j]`` is True iff left valuation ``i`` (over `left_scope`)
    and right valuation ``j`` (over `right_scope`) jointly satisfy the
    guarantee.  Valuation indices are lexicographic ranks.  A writable
    adjacency is copied; a read-only one, such as a view of a function's
    table, is kept as given, so its memory must not change through
    another view.  The search's adjacency is such a view: every guarantee
    it splits lists the leaf's outputs first (`BooleanNetwork.peel_outputs`),
    so the guarantee's table reshapes into the graph.
    """

    left_scope: VariableSet
    right_scope: VariableSet
    adjacency: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.adjacency, dtype=bool)
        want = (1 << len(self.left_scope), 1 << len(self.right_scope))
        if arr.shape != want:
            raise ValueError(f"adjacency shape {arr.shape} does not match scopes {want}")
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "adjacency", arr)


def check_contract(net: BooleanNetwork, contract: ContractPair) -> None:
    """Raise unless the assumption is over external inputs and the guarantee
    over outputs of `net`."""
    ext = external_inputs(net)
    outs = all_outputs(net)
    bad = [v for v in contract.assumption.scope if v not in ext]
    if bad:
        raise ValueError(f"assumption mentions non-external variables: {bad}")
    bad = [v for v in contract.guarantee.scope if v not in outs]
    if bad:
        raise ValueError(f"guarantee mentions non-output variables: {bad}")


def project_assumption(assumption: BoolFunc, net: BooleanNetwork, name: str) -> BoolFunc:
    """Least-restrictive local assumption: the projection of the global
    assumption onto the subsystem's external inputs.

    Variables outside the assumption's scope (including inputs of deleted
    subsystems) are unconstrained, so the result is the projection onto the
    overlap, cylindrically extended over the subsystem's external inputs.
    """
    _, ext = classify_inputs(net, name)
    overlap = assumption.scope.restricted_to(ext)
    return assumption.project(overlap).extend(ext)


def build_distribution_graph(
    guarantee: BoolFunc, net: BooleanNetwork, name: str
) -> DistributionGraph:
    stray = [v for v in guarantee.scope if not any(v in s.outputs for s in net.subsystems)]
    if stray:
        raise ValueError(f"guarantee mentions non-output variables: {stray}")
    left = net.subsystem(name).outputs
    right = guarantee.scope.without(left)
    # Axes ordered left-major so a reshape yields the bipartite adjacency: a
    # view of the guarantee's table when its scope already starts with
    # `left`, a copy otherwise.
    table = guarantee.extend(left.union(right)).table
    adjacency = table.reshape(1 << len(left), 1 << len(right))
    return DistributionGraph(left, right, adjacency)


def _maximal_bicliques(adjacency: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """All maximal bicliques with both sides nonempty, as (left, right) bool
    masks over the adjacency's rows and columns.

    Close-by-One over the rows of the smaller side ``m``: the closure of a
    row set S is the set of rows that hold on every column of
    ``m[S].all(0)``, a reduction masked by those columns.  A child extent,
    the closure of the parent's extent plus row j, is kept only when it
    agrees with the parent below j, so each concept is generated exactly
    once.  The root's intent is every column, so a child of the root takes
    row j itself as its intent, a view of `adjacency`.
    """
    m = np.asarray(adjacency, dtype=bool)
    transposed = m.shape[0] > m.shape[1]
    if transposed:
        m = m.T
    root = m.all(1)
    concepts: list[tuple[np.ndarray, np.ndarray]] = []
    if root.any() and m.shape[1]:
        concepts.append((root, np.ones(m.shape[1], dtype=bool)))
    # None stands for the root's all-True intent
    stack: list[tuple[np.ndarray, np.ndarray | None, int]] = [(root, None, 0)]
    while stack:
        extent, intent, start = stack.pop()
        if intent is not None and intent.any():
            concepts.append((extent, intent))
        for j in range(start, m.shape[0]):
            if extent[j]:
                continue
            child_intent = m[j] if intent is None else intent & m[j]
            child_extent = m.all(1, where=child_intent)
            if np.array_equal(child_extent[:j], extent[:j]):
                stack.append((child_extent, child_intent, j + 1))
    return [(i, e) for e, i in concepts] if transposed else concepts


def distributions_from_graph(graph: DistributionGraph) -> list[Distribution]:
    """Distributions from a prebuilt graph, in canonical order: most
    permissive first (descending product of side sizes), ties broken by the
    lexicographically least left satisfying set."""
    pairs = _maximal_bicliques(graph.adjacency)
    # A maximal biclique's left side determines its right side, so the left
    # index list breaks every tie.
    pairs.sort(key=lambda lr: (-np.count_nonzero(lr[0]) * np.count_nonzero(lr[1]),
                               np.flatnonzero(lr[0]).tolist()))
    return [
        Distribution(BoolFunc._wrap(graph.left_scope, l), BoolFunc._wrap(graph.right_scope, r))
        for l, r in pairs
    ]


def maximal_distributions(
    guarantee: BoolFunc, net: BooleanNetwork, name: str
) -> list[Distribution]:
    """All maximal guarantee splits between subsystem `name` and the rest.

    Empty-sided splits (a False local or remainder guarantee) are excluded;
    an empty result means the guarantee admits no usable split.
    """
    return distributions_from_graph(build_distribution_graph(guarantee, net, name))


def conjunctive_decomposition(
    f: BoolFunc, partition: Sequence[VariableSet]
) -> list[BoolFunc] | None:
    """Per-block projections of `f` if their conjunction equals `f`, else None.

    `partition` must cover the scope of `f` disjointly.  As `f` implies that
    conjunction, they are equal iff `|f|` is the product of the parts' counts.
    """
    covered: list[str] = []
    for block in partition:
        covered.extend(block)
    if len(covered) != len(set(covered)):
        raise ValueError("partition blocks overlap")
    if set(covered) != set(f.scope):
        raise ValueError("partition does not cover the scope exactly")
    parts = [f.project(block) for block in partition]
    return parts if f.count_satisfying() == prod(p.count_satisfying() for p in parts) else None
