"""Splitting a guarantee between one subsystem and the rest.

A split (down, up) is usable when every pair of allowed valuations jointly
satisfies the guarantee; the maximal splits are exactly the maximal
bicliques of a bipartite admissibility graph.

Run:  python demos/03_guarantee_distribution.py
"""

from pathlib import Path

from boolsynth import (
    all_valuations,
    build_distribution_graph,
    enumerate_bicliques_subset,
    maximal_distributions,
)
from boolsynth.formats import load_contract, load_network

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

net = load_network(FIXTURES / "shared_or_guarantee.net.json")
contract = load_contract(FIXTURES / "shared_or_guarantee.contract.json", net)
print("guarantee:", contract.guarantee.to_expr())

# The admissibility graph for splitting at S2: left nodes are S2's output
# valuations, right nodes the remaining outputs' valuations, edges where
# the combination satisfies y1 | y2.
graph = build_distribution_graph(contract.guarantee, net, "S2")
print("left scope:", list(graph.left_scope), "| right scope:", list(graph.right_scope))
print("adjacency:")
for i, lv in enumerate(all_valuations(graph.left_scope)):
    row = " ".join("1" if graph.adjacency[i, j] else "." for j in range(graph.adjacency.shape[1]))
    print(f"  {lv}: {row}")

# A disjunctive guarantee admits two maximal splits; neither dominates.
for k, d in enumerate(maximal_distributions(contract.guarantee, net, "S2")):
    print(f"split {k}: down = {d.down.to_expr():8s} up = {d.up.to_expr()}")

# The subset-closure oracle enumerates the same maximal bicliques from
# first principles.
print("oracle biclique count:", len(enumerate_bicliques_subset(graph)))
