"""JSON document formats for networks, contracts, controllers and reports.

Network file::

    {"subsystems": [{"name": str, "controls": [str], "env_inputs": [str],
                     "outputs": [{"name": str, "expr": str}]}],
     "wiring": [{"from_sys": str, "from_output": str,
                 "to_sys": str, "to_input": str}]}

Output expressions are parsed over the subsystem's controls followed by its
environment inputs.  Every name is an identifier other than ``true`` and
``false``, which expressions read as the constants.

Contract file::

    {"assumptions": [expr, ...], "guarantees": [expr, ...]}

Assumptions are parsed over all external inputs, guarantees over all
outputs (declaration order); multiple entries are conjoined into a single
assumption-guarantee pair.

Controller file (written by synthesis, read back for verification)::

    {"mode": "distributed" | "central",
     "controllers": [{"subsystem": str, "inputs": [str], "controls": [str],
                      "rows": [{"env": bits, "controls": bits}]}],
     "local_contracts": [{"subsystem": str, "assumption": expr,
                          "guarantee": expr}],
     "trace": [{"subsystem": str, "distribution": int, "lra": expr}]}

Bit strings use "0"/"1" in variable order; rows are listed in valuation
order, so row k belongs to the environment valuation of rank k, and its
"env" label must be that valuation's bit string.
"""

from __future__ import annotations

import json
from collections.abc import Mapping

import numpy as np

from .boolfunc import BoolFunc, VariableSet
from .contracts import ContractPair
from .network import (
    BooleanNetwork,
    BooleanSystem,
    Controller,
    Interconnection,
    Link,
    all_controls,
    all_outputs,
    external_inputs,
)
from .parser import parse_expr
from .synthesis import SynthesisOutcome

__all__ = [
    "load_network",
    "load_contract",
    "controllers_document",
    "central_document",
    "parse_controllers_document",
    "load_controllers",
    "dump_document",
    "read_document",
    "array_field",
]


class FormatError(ValueError):
    """A document does not match its schema."""


def read_document(path, error: type[ValueError] = FormatError) -> dict:
    """Parse a JSON document whose top level is an object; a file that is
    not such a document raises `error` naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: not valid JSON ({exc})") from exc
        except RecursionError:
            raise error(f"{path}: JSON nested too deeply to read") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: the document must be a JSON object")
    return doc


def _field(doc, key, context, error: type[ValueError] = FormatError):
    try:
        return doc[key]
    except (KeyError, TypeError, IndexError):
        raise error(f"{context}: missing field {key!r}") from None


def array_field(doc, key, context, default=None, error: type[ValueError] = FormatError) -> list:
    """`doc[key]`, which must be a JSON array; `default` stands in for an
    absent key when given, otherwise the key is required."""
    if default is not None and key not in doc:
        return default
    value = _field(doc, key, context, error)
    if not isinstance(value, list):
        raise error(f"{context}: field {key!r} must be a JSON array")
    return value


def load_network(path) -> BooleanNetwork:
    doc = read_document(path)
    systems = []
    for entry in array_field(doc, "subsystems", path):
        name = str(_field(entry, "name", path))
        controls = VariableSet(str(v) for v in array_field(entry, "controls", name))
        env = VariableSet(str(v) for v in array_field(entry, "env_inputs", name))
        scope = controls.union(env)
        outputs = []
        functions = {}
        for out in array_field(entry, "outputs", name):
            y = str(_field(out, "name", name))
            outputs.append(y)
            functions[y] = parse_expr(str(_field(out, "expr", y)), scope)
        systems.append(BooleanSystem(name, controls, env, VariableSet(outputs), functions))
    links = tuple(
        Link(
            str(_field(w, "from_sys", "wiring")),
            str(_field(w, "from_output", "wiring")),
            str(_field(w, "to_sys", "wiring")),
            str(_field(w, "to_input", "wiring")),
        )
        for w in array_field(doc, "wiring", path, default=[])
    )
    return BooleanNetwork(tuple(systems), Interconnection(links))


def load_contract(path, net: BooleanNetwork) -> ContractPair:
    """Parse a contract against `net`; entries conjoin into a single pair."""
    doc = read_document(path)
    ext = external_inputs(net)
    outs = all_outputs(net)
    assumption = BoolFunc.const(ext, True)
    for text in array_field(doc, "assumptions", path):
        assumption = assumption & parse_expr(str(text), ext)
    guarantee = BoolFunc.const(outs, True)
    for text in array_field(doc, "guarantees", path):
        guarantee = guarantee & parse_expr(str(text), outs)
    return ContractPair(assumption, guarantee)


def _env_label(k: int, n: int) -> str:
    """The bit string of the valuation of rank `k` over `n` inputs."""
    return format(k, f"0{n}b") if n else ""


def _controller_entry(ctrl: Controller) -> dict:
    n, m = len(ctrl.inputs), len(ctrl.controls)
    bits = (ctrl.table.view(np.uint8) + 48).tobytes().decode()  # "0"/"1", row after row
    return {
        "subsystem": ctrl.subsystem,
        "inputs": list(ctrl.inputs),
        "controls": list(ctrl.controls),
        "rows": [
            {"env": _env_label(k, n), "controls": bits[k * m:(k + 1) * m]}
            for k in range(len(ctrl.table))
        ],
    }


def controllers_document(net: BooleanNetwork, outcome: SynthesisOutcome) -> dict:
    """Serialize a successful distributed synthesis outcome."""
    order = [s.name for s in net.subsystems if s.name in outcome.controllers]
    return {
        "mode": "distributed",
        "controllers": [_controller_entry(outcome.controllers[n]) for n in order],
        "local_contracts": [
            {
                "subsystem": n,
                "assumption": outcome.local_contracts[n].assumption.to_expr(),
                "guarantee": outcome.local_contracts[n].guarantee.to_expr(),
            }
            for n in order
        ],
        "trace": trace_document(outcome),
    }


def trace_document(outcome: SynthesisOutcome) -> list[dict]:
    return [
        {"subsystem": t.subsystem, "distribution": t.distribution, "lra": t.lra.to_expr()}
        for t in outcome.trace
    ]


def central_document(controller: Controller) -> dict:
    return {
        "mode": "central",
        "controllers": [_controller_entry(controller)],
        "local_contracts": [],
        "trace": [],
    }


def parse_controllers_document(doc: Mapping, net: BooleanNetwork) -> tuple[str, dict[str, Controller]]:
    """Rebuild controllers from a document; returns (mode, by-subsystem map).

    The mode is "distributed" (the default) or "central", and each
    subsystem has at most one entry.  Distributed entries must match the
    named subsystem's interface; a central document holds exactly one
    controller, over all external inputs and all controls.  Row k must be
    labelled with the bit string of the input valuation of rank k.
    """
    mode = doc.get("mode", "distributed")
    if mode not in ("distributed", "central"):
        raise FormatError(f"unknown controller document mode {mode!r}")
    entries = array_field(doc, "controllers", "controllers")
    if mode == "central" and len(entries) != 1:
        raise FormatError(f"a central document holds one controller, found {len(entries)}")
    controllers: dict[str, Controller] = {}
    for entry in entries:
        name = str(_field(entry, "subsystem", "controller"))
        if name in controllers:
            raise FormatError(f"more than one controller for subsystem {name!r}")
        inputs = VariableSet(str(v) for v in array_field(entry, "inputs", name))
        controls = VariableSet(str(v) for v in array_field(entry, "controls", name))
        if mode == "distributed":
            try:
                sys = net.subsystem(name)
            except KeyError:
                raise FormatError(f"controller for unknown subsystem {name!r}") from None
            interface = (sys.env_inputs, sys.controls)
        else:
            interface = (external_inputs(net), all_controls(net))
        if (inputs, controls) != interface:
            raise FormatError(f"{name}: controller interface does not match the network")
        rows_doc = array_field(entry, "rows", name)
        if len(rows_doc) != 1 << len(inputs):
            raise FormatError(f"{name}: expected {1 << len(inputs)} rows, found {len(rows_doc)}")
        rows = []
        for k, row in enumerate(rows_doc):
            env, bits = (str(_field(row, key, name)) for key in ("env", "controls"))
            if env != _env_label(k, len(inputs)):
                raise FormatError(f"{name}: row {k} has env {env!r}, expected {_env_label(k, len(inputs))!r}")
            if len(bits) != len(controls) or bits.strip("01"):
                raise FormatError(f"{name}: row {k} control bits {bits!r} are malformed")
            rows.append(bits)
        controllers[name] = Controller(name, inputs, controls, [[ch == "1" for ch in bits] for bits in rows])
    return mode, controllers


def load_controllers(path, net: BooleanNetwork) -> tuple[str, dict[str, Controller]]:
    return parse_controllers_document(read_document(path), net)


def dump_document(path, doc: Mapping) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
