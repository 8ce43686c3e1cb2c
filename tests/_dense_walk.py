"""The dense closed-loop simulator, kept as a reference for the packed walk.

Before `network.closed_loop` ran on packed tables, the library simulated the
closed loop on bool arrays: every free variable varies along an axis of its
own (`axis_seeds`), each controller's rows are gathered at the rank of its
inputs, each output's table at the rank of its scope, and the values
broadcast to the cone of what they read.  The functions here are that
simulator and the `verify_closed_loop`, `compose` and `flatten` built on it,
reading controllers and functions only through their unpacked tables.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from boolsynth.boolfunc import BoolFunc, Valuation, VariableSet, valuation_ranks
from boolsynth.contracts import ContractPair
from boolsynth.network import BooleanNetwork, BooleanSystem, Controller, all_controls, all_outputs, external_inputs


def axis_seeds(free: VariableSet) -> dict[str, np.ndarray]:
    """``free[i]`` varies along axis ``i`` only."""
    n = len(free)
    return {
        v: np.array([False, True]).reshape([2 if j == i else 1 for j in range(n)])
        for i, v in enumerate(free)
    }


def _gather(f: BoolFunc, values: Mapping[str, np.ndarray]) -> np.ndarray:
    return f.table.reshape(-1)[valuation_ranks(values[v] for v in f.scope)]


def closed_loop_values(
    net: BooleanNetwork, seeds: Mapping[str, np.ndarray], controllers: Mapping[str, Controller]
) -> dict[str, np.ndarray]:
    """A bool array per variable, from `seeds` for the external inputs and
    every control that no controller sets."""
    values: dict[str, np.ndarray] = dict(seeds)
    setter = {u: name for name, c in controllers.items() for u in c.controls}
    pending = dict(controllers)
    for sys in net.topological:
        values.update({v: values[net.drivers[v]] for v in sys.env_inputs if v in net.drivers})
        for u in sys.controls:
            ctrl = pending.pop(setter.get(u), None)
            if ctrl is not None:
                rows = ctrl.table[valuation_ranks(values[v] for v in ctrl.inputs)]
                values.update((c, rows[..., i]) for i, c in enumerate(ctrl.controls))
        for y, f in sys.functions.items():
            values[y] = _gather(f, values)
    return values


def verify(net: BooleanNetwork, controllers: Mapping[str, Controller],
           contract: ContractPair) -> tuple[bool, Valuation | None]:
    """The verdict and the first counterexample in canonical order."""
    ext = external_inputs(net)
    seeds = axis_seeds(ext)
    values = closed_loop_values(net, seeds, controllers)
    violated = _gather(contract.assumption, seeds) & ~_gather(contract.guarantee, values)
    violated = np.broadcast_to(violated, (2,) * len(ext))
    if not violated.any():
        return True, None
    return False, Valuation.from_index(ext, int(np.argmax(violated)))


def compose(net: BooleanNetwork, controllers: Mapping[str, Controller]) -> dict[str, BoolFunc]:
    ext = external_inputs(net)
    values = closed_loop_values(net, axis_seeds(ext), controllers)
    return {y: BoolFunc(ext, np.broadcast_to(values[y], (2,) * len(ext))) for y in all_outputs(net)}


def flatten(net: BooleanNetwork) -> BooleanSystem:
    """Each output over the axes its array spans: the free variables of its
    cone, in free order."""
    ext, controls = external_inputs(net), all_controls(net)
    free = ext.union(controls)
    values = closed_loop_values(net, axis_seeds(free), {})
    functions = {}
    for y in all_outputs(net):
        shape = np.broadcast_shapes(np.shape(values[y]), (1,) * len(free))
        functions[y] = BoolFunc([v for v, n in zip(free, shape) if n == 2], values[y])
    return BooleanSystem("network", controls, ext, all_outputs(net), functions)
