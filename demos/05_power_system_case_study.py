"""Aircraft-style electric power system: topology to distributed controllers.

The bundled topology has two AC generators feeding two AC buses (with a
cross-tie), and two DC buses each fed through a redundant rectifier pair.
Health bits are the environment, contactors the controls; the contract
assumes one healthy generator plus one healthy rectifier per side and
guarantees all buses powered with no AC coupling.

Run:  python demos/05_power_system_case_study.py
"""

from pathlib import Path

from boolsynth import (
    centralized_synthesis,
    completeness_certificate,
    distributed_synthesis,
    is_forest,
    verify_closed_loop,
)
from boolsynth.eps import all_closed, all_healthy, bus_status, compile_to_network, load_topology

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

topo = load_topology(FIXTURES / "eps_tree.topology.json")
print("components:", ", ".join(f"{n.name}({n.kind})" for n in topo.nodes))

# Raw live-path semantics: what powers the left DC bus when everything is
# healthy but only some contactors close?
h = all_healthy(topo)
c = all_closed(topo, False)
c.update({"k_g1": True, "k_r1a": True})
print("D1 powered with only k_g1,k_r1a closed:", bus_status(topo, h, c, "D1"))

# Compile: one subsystem per feeder-separated island, feed bits on the wires.
net, contract = compile_to_network(topo)
print("subsystems:", net.names)
print("feed edges:", net.edges, "| tree?", is_forest(net))
print("assumption:", contract.assumption.count_satisfying(), "admissible health states")
print("certificate:", completeness_certificate(net, contract))

outcome = distributed_synthesis(net, contract)
print("distributed synthesis:", "success" if outcome.success else "failure")
print("closed loop verified:", verify_closed_loop(net, outcome.controllers, contract).ok)
print("centralized agrees:", centralized_synthesis(net, contract) is not None)

# The S0 controller decides the generator and tie contactors from the two
# health bits alone.  A single healthy generator powers both AC buses
# through the tie; with both healthy, the chosen table still feeds the tie
# from one generator and keeps the other's contactor open, which is what
# prevents AC coupling.
ctrl = outcome.controllers["S0"]
print("S0 controller (inputs", list(ctrl.inputs), "-> controls", list(ctrl.controls), "):")
for k, row in enumerate(ctrl.table.astype(int)):
    env = format(k, f"0{len(ctrl.inputs)}b")
    bits = "".join(map(str, row))
    print(f"  env {env} -> {bits}")
