"""Assumption/guarantee pairs and guarantee distribution.

Distributing a guarantee between one subsystem and the rest amounts to
enumerating the maximal complete bipartite subgraphs (bicliques) of the
admissibility graph whose left nodes are the subsystem's output valuations
and whose right nodes are the remaining outputs' valuations, with an edge
wherever the combined valuation satisfies the guarantee.

The maximal bicliques are the formal concepts of that bipartite context
(Ganter & Wille, *Formal Concept Analysis*, 1999).  They are enumerated by
Close-by-One (Kuznetsov 1993) over the lines of the smaller side of the
adjacency matrix, usually the leaf's few output valuations, each line
packed into a Python int.  A closure is one AND and compare per line and
at most (smaller side) closures are tried per concept, so the larger side
only sets the width of an int.  The splits are then sorted canonically, so
split indices do not depend on the enumeration order, and their masks are
unpacked into truth tables.
"""

from __future__ import annotations

from collections import Counter
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


@dataclass(frozen=True, slots=True)
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
    outputs = net.peel_outputs
    stray = [v for v in guarantee.scope if v not in outputs]
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


def _concepts(lines: list[int], full: int) -> list[tuple[int, int, int]]:
    """Close-by-One over `lines`, int masks of the cells each line holds,
    with `full` the mask of every cell: each (extent, intent, line) with both
    masks nonempty, where the extent is a set of lines, the intent the cells
    they all hold, and line the index of a line equal to the intent, or -1.

    The closure of an intent is the set of lines that hold all of it, one
    AND and compare per line.  A child, the closure of the parent's intent
    ANDed with line j, is kept only when its extent agrees with the
    parent's below j, so each concept is generated exactly once.
    """
    root = sum(1 << k for k, line in enumerate(lines) if line == full)
    concepts = [(root, full, (root & -root).bit_length() - 1)] if root else []
    stack = [(root, full, 0)]
    while stack:
        extent, intent, start = stack.pop()
        for j in range(start, len(lines)):
            if extent >> j & 1:
                continue
            child = intent & lines[j]
            if not child:
                continue
            closure, equal = 0, -1
            for k, line in enumerate(lines):
                if line & child == child:
                    closure |= 1 << k
                    if line == child:
                        equal = k
            if (closure ^ extent) & ((1 << j) - 1) == 0:
                concepts.append((closure, child, equal))
                stack.append((closure, child, j + 1))
    return concepts


def _cells(masks: list[tuple[int, int]]) -> list[np.ndarray]:
    """Bits 0 to size - 1 of each (mask, size) pair as bool cells: views of
    one fresh array, unpacked in one call from the masks padded to bytes."""
    packed = b"".join(mask.to_bytes((size + 7) // 8, "little") for mask, size in masks)
    cells = np.unpackbits(np.frombuffer(packed, np.uint8), bitorder="little").view(bool)
    views, start = [], 0
    for _, size in masks:
        views.append(cells[start:start + size])
        start += (size + 7) // 8 * 8
    return views


def _maximal_bicliques(adjacency: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """All maximal bicliques with both sides nonempty, as (left, right) bool
    masks over the adjacency's rows and columns, in canonical order: most
    permissive first (descending product of side sizes), ties broken by the
    lexicographically least left index list.

    The concepts of the lines of the smaller side, the rows or, for a tall
    matrix, the columns (`_concepts`).  One `np.packbits` of the lines,
    copied to contiguous rows first if they are not, turns each line into a
    Python int whose bit i is the line's cell i, and sizes come from
    `int.bit_count`.  Masks become tables only on return; an intent equal
    to a line is returned as a view of that line of `adjacency`.
    """
    m = np.asarray(adjacency, dtype=bool)
    transposed = m.shape[0] > m.shape[1]
    m = m.T if transposed else m
    packed = np.packbits(np.ascontiguousarray(m), axis=1, bitorder="little")
    n, width = m.shape
    step = packed.shape[1]
    data = memoryview(packed.reshape(-1))
    lines = [int.from_bytes(data[i:i + step], "little") for i in range(0, n * step, step)]
    concepts = _concepts(lines, (1 << width) - 1)
    cells = _cells([(extent, n) for extent, _, _ in concepts]
                   + [(intent, width) for _, intent, line in concepts if line < 0])
    intents = iter(cells[len(concepts):])
    tables = [(cells[k], m[line] if line >= 0 else next(intents))
              for k, (_, _, line) in enumerate(concepts)]
    if transposed:
        tables = [(left, right) for right, left in tables]
    if len(tables) < 2:
        return tables
    sizes = [extent.bit_count() * intent.bit_count() for extent, intent, _ in concepts]
    # A maximal biclique's left side determines its right side, so the left
    # index list breaks every tie; it is built only for tied sizes.
    tied = {size for size, count in Counter(sizes).items() if count > 1}
    order = sorted(range(len(tables)), key=lambda k: (
        -sizes[k], np.flatnonzero(tables[k][0]).tolist() if sizes[k] in tied else ()))
    return [tables[k] for k in order]


def distributions_from_graph(graph: DistributionGraph) -> list[Distribution]:
    """Distributions from a prebuilt graph, in canonical order: most
    permissive first (descending product of side sizes), ties broken by the
    lexicographically least left satisfying set."""
    return [
        Distribution(BoolFunc._wrap(graph.left_scope, l), BoolFunc._wrap(graph.right_scope, r))
        for l, r in _maximal_bicliques(graph.adjacency)
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
