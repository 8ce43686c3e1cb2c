"""Boolean networks: wiring subsystems, validation, graphs, closed loops.

Run:  python demos/02_networks_and_composition.py
"""

from pathlib import Path

from boolsynth import (
    Controller,
    classify_inputs,
    compose,
    external_inputs,
    is_forest,
    validate,
)
from boolsynth.formats import load_network

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

# Two memoryless subsystems in series: S1 computes y1 = u1 from its control,
# and S2 computes y2 = (e2 | y1) & u2, receiving y1 on the wire named
# e2_from_y1.
net = load_network(FIXTURES / "serial_chain.net.json")
print("well-posedness report:", validate(net) or "clean")

# The network is its own system graph: one edge per wired (parent, child)
# pair.  Synthesis peels leaves off it in one order, the topological order
# (parents first) backwards.
print("system graph edges:", net.edges)
print("peel order:", [s.name for s in reversed(net.topological)], "| forest?", is_forest(net))

internal, external = classify_inputs(net, "S2")
print("S2 internal inputs:", list(internal), "| external:", list(external))

# Implementing controllers closes the loop.  Constant controllers are the
# simplest: here both subsystems drive their control high.
always_on = {
    s.name: Controller.constant(s.name, s.env_inputs, s.controls, True)
    for s in net.subsystems
}
closed = compose(net, always_on)
print("external inputs:", list(external_inputs(net)))
for y, f in closed.items():
    print(f"closed-loop {y} =", f.to_expr())
