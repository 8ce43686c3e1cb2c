"""Assumption/guarantee pairs and guarantee distribution.

Distributing a guarantee between one subsystem and the rest amounts to
enumerating the maximal complete bipartite subgraphs (bicliques) of the
admissibility graph whose left nodes are the subsystem's output valuations
and whose right nodes are the remaining outputs' valuations, with an edge
wherever the combined valuation satisfies the guarantee.

The maximal bicliques are the formal concepts of that bipartite context
(Ganter & Wille, *Formal Concept Analysis*, 1999).  They are enumerated by
Close-by-One (Kuznetsov 1993) over the lines of the smaller side of the
adjacency matrix, usually the leaf's few output valuations.  The guarantee's
packed table is that matrix row after row, so a row is a piece of its int
and a column, for a tall matrix, a cofactor over the other side.  A closure
is one AND and compare per line and at most (smaller side) closures are
tried per concept, so the larger side only sets the width of an int.  The
splits are then sorted canonically, so split indices do not depend on the
enumeration order; their int masks are the packed tables of the two sides.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from math import prod

import numpy as np

from .boolfunc import BoolFunc, VariableSet, _cofactors, _full
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


@dataclass(frozen=True, slots=True)
class ContractPair:
    """An assumption over (external) environment inputs and a guarantee over
    outputs; the closed loop must satisfy ``assumption -> guarantee``."""

    assumption: BoolFunc
    guarantee: BoolFunc


@dataclass(frozen=True, slots=True)
class Distribution:
    """A guarantee split: `down` constrains one subsystem's outputs, `up` the
    remaining outputs, such that any pair of allowed valuations jointly
    satisfies the original guarantee."""

    down: BoolFunc
    up: BoolFunc


@dataclass(frozen=True, slots=True)
class DistributionGraph:
    """Bipartite admissibility graph of a guarantee split.

    Left valuation ``i`` (over `left_scope`) and right valuation ``j`` (over
    `right_scope`) are adjacent iff they jointly satisfy the guarantee;
    valuation indices are lexicographic ranks.  The graph is held as
    `relation`, the guarantee over `left_scope` followed by `right_scope`,
    whose packed table is the adjacency matrix row after row: cell
    ``i * 2^|right_scope| + j``.  The search's relation is the guarantee
    itself: every guarantee it splits lists the leaf's outputs first
    (`BooleanNetwork.peel_outputs`).  An adjacency matrix given in place of
    the relation is packed into one, and `adjacency` unpacks the matrix on
    demand.
    """

    left_scope: VariableSet
    right_scope: VariableSet
    relation: BoolFunc

    def __post_init__(self) -> None:
        if not isinstance(self.relation, BoolFunc):
            arr = np.asarray(self.relation, dtype=bool)
            want = (1 << len(self.left_scope), 1 << len(self.right_scope))
            if arr.shape != want:
                raise ValueError(f"adjacency shape {arr.shape} does not match scopes {want}")
            object.__setattr__(self, "relation", BoolFunc(self.left_scope.union(self.right_scope), arr))

    @property
    def adjacency(self) -> np.ndarray:
        """The adjacency matrix, a fresh read-only bool array of shape
        ``(2^|left_scope|, 2^|right_scope|)``."""
        return self.relation.table.reshape(1 << len(self.left_scope), 1 << len(self.right_scope))


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
    outputs = net.peel_outputs
    stray = [v for v in guarantee.scope if v not in outputs]
    if stray:
        raise ValueError(f"guarantee mentions non-output variables: {stray}")
    left = net.subsystem(name).outputs
    # The relation is the guarantee itself when its scope already starts
    # with `left`, and the guarantee reordered otherwise.
    if guarantee.scope[:len(left)] == left:
        return DistributionGraph(left, VariableSet._derived(guarantee.scope[len(left):]), guarantee)
    right = guarantee.scope.without(left)
    return DistributionGraph(left, right, guarantee.extend(left.union(right)))


def _concepts(lines: list[int], full: int) -> list[tuple[int, int]]:
    """Close-by-One over `lines`, int masks of the cells each line holds,
    with `full` the mask of every cell: each (extent, intent) with both
    masks nonempty, where the extent is a set of lines and the intent the
    cells they all hold.

    The closure of an intent is the set of lines that hold all of it, one
    AND and compare per line.  A child, the closure of the parent's intent
    ANDed with line j, is kept only when its extent agrees with the
    parent's below j, so each concept is generated exactly once.
    """
    marked = [(line, 1 << k) for k, line in enumerate(lines)]
    root = sum(bit for line, bit in marked if line == full)
    concepts = [(root, full)] if root else []
    stack = [(root, full, 0)]
    while stack:
        extent, intent, start = stack.pop()
        for j in range(start, len(lines)):
            if extent >> j & 1:
                continue
            child = intent & lines[j]
            if not child:
                continue
            closure = 0
            for line, bit in marked:
                if line & child == child:
                    closure |= bit
            if (closure ^ extent) & ((1 << j) - 1) == 0:
                concepts.append((closure, child))
                stack.append((closure, child, j + 1))
    return concepts


def _maximal_bicliques(graph: DistributionGraph) -> list[tuple[int, int]]:
    """All maximal bicliques with both sides nonempty, as (left, right) int
    masks over the left and right valuations, in canonical order: most
    permissive first (descending product of side sizes), ties broken by the
    lexicographically least left index list.

    The concepts of the lines of the smaller side (`_concepts`): the rows,
    which are the relation's table cut into pieces, or for a tall graph the
    columns, the rows of the relation with the right scope moved first, that
    is its cofactors over the right valuations.
    """
    left, right, relation = graph.left_scope, graph.right_scope, graph.relation
    n = len(left) + len(right)
    if len(left) > len(right):
        lines = _cofactors(relation.extend(right.union(left)).bits, n, len(right))
        concepts = [(intent, extent) for extent, intent in _concepts(lines, _full(len(left)))]
    else:
        concepts = _concepts(_cofactors(relation.bits, n, len(left)), _full(len(right)))
    if len(concepts) < 2:
        return concepts
    sizes = [left_mask.bit_count() * right_mask.bit_count() for left_mask, right_mask in concepts]
    if len(set(sizes)) == len(sizes):
        return [concepts[k] for k in sorted(range(len(concepts)), key=lambda k: -sizes[k])]
    # A maximal biclique's left side determines its right side, so the left
    # index list breaks every tie; it is built only for tied sizes.
    tied = {size for size, count in Counter(sizes).items() if count > 1}
    order = sorted(range(len(concepts)), key=lambda k: (
        -sizes[k], _members(concepts[k][0]) if sizes[k] in tied else ()))
    return [concepts[k] for k in order]


def _members(mask: int) -> list[int]:
    """The indices of the set bits of `mask`, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def distributions_from_graph(graph: DistributionGraph) -> list[Distribution]:
    """Distributions from a prebuilt graph, in canonical order: most
    permissive first (descending product of side sizes), ties broken by the
    lexicographically least left satisfying set."""
    return [
        Distribution(BoolFunc._wrap(graph.left_scope, l), BoolFunc._wrap(graph.right_scope, r))
        for l, r in _maximal_bicliques(graph)
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
    The blocks are projected in scope order, each from what the blocks before
    it leave once quantified away, so a block that leads the scope costs one
    pass over a table that halves with each of its variables.
    """
    covered: list[str] = []
    for block in partition:
        covered.extend(block)
    if len(covered) != len(set(covered)):
        raise ValueError("partition blocks overlap")
    if set(covered) != set(f.scope):
        raise ValueError("partition does not cover the scope exactly")
    rest, parts = f, {}
    for block in sorted(partition, key=lambda b: min(map(f.scope.index, b), default=-1)):
        parts[block] = rest.project(block)
        rest = rest.project(rest.scope.without(block))
    counts = prod(parts[block].count_satisfying() for block in partition)
    return [parts[block] for block in partition] if f.count_satisfying() == counts else None
