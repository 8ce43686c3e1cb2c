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

Assumptions may mention external inputs and guarantees outputs; each side's
entries are conjoined into one function over the variables they mention, in
declaration order, so a large network's contract can be small.

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
import os
import stat
from collections.abc import Iterator, Mapping
from json.encoder import encode_basestring_ascii as _quote

from .boolfunc import VariableSet, conjoin
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
from .parser import _parsed, parse_expr
from .synthesis import SynthesisOutcome

__all__ = [
    "load_network",
    "load_contract",
    "controllers_document",
    "central_document",
    "parse_controllers_document",
    "load_controllers",
    "dump_document",
    "dumps",
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
    """Parse a contract against `net`, each side over what it mentions."""
    doc = read_document(path)
    sides = []
    for key, names in (("assumptions", external_inputs(net)), ("guarantees", all_outputs(net))):
        known = set(names)
        f = conjoin(_parsed(str(text), known) for text in array_field(doc, key, path))
        sides.append(f.extend(names.restricted_to(f.scope)))
    return ContractPair(*sides)


def _env_labels(n: int) -> Iterator[str]:
    """The bit strings of the valuations over `n` inputs, in rank order."""
    if not n:
        return iter(("",))
    spec = f"0{n}b"
    return (format(k, spec) for k in range(1 << n))


def _controller_entry(ctrl: Controller) -> dict:
    m = len(ctrl.controls)
    spec = f"0{m}b"
    return {
        "subsystem": ctrl.subsystem,
        "inputs": list(ctrl.inputs),
        "controls": list(ctrl.controls),
        "rows": [
            {"env": env, "controls": format(rank, spec) if m else ""}
            for env, rank in zip(_env_labels(len(ctrl.inputs)), ctrl.ranks)
        ],
    }


def controllers_document(net: BooleanNetwork, outcome: SynthesisOutcome,
                         trace: list[dict] | None = None) -> dict:
    """Serialize a successful distributed synthesis outcome.  `trace` is
    `trace_document(outcome)` when the caller already built it, so that no
    LRA is printed twice."""
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
        "trace": trace_document(outcome) if trace is None else trace,
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
        for k, (row, label) in enumerate(zip(rows_doc, _env_labels(len(inputs)))):
            env, bits = (str(_field(row, key, name)) for key in ("env", "controls"))
            if env != label:
                raise FormatError(f"{name}: row {k} has env {env!r}, expected {label!r}")
            if len(bits) != len(controls) or bits.strip("01"):
                raise FormatError(f"{name}: row {k} control bits {bits!r} are malformed")
            rows.append(bits)
        controllers[name] = Controller._from_ranks(name, inputs, controls, tuple(int(bits or "0", 2) for bits in rows))
    return mode, controllers


def load_controllers(path, net: BooleanNetwork) -> tuple[str, dict[str, Controller]]:
    return parse_controllers_document(read_document(path), net)


def dumps(doc) -> str:
    """`json.dumps(doc, indent=2)`, byte for byte, without its pure-Python
    encoder, which `indent` forces.

    Dicts, lists and tuples (`VariableSet` among them) are walked here and
    strings escaped by json's own ASCII escaper; numbers, `None`, the
    booleans and non-string keys go to `json.dumps`, so every value it
    refuses, such as a set or a numpy bool, raises the same `TypeError`.  A
    document that contains itself raises `RecursionError`, where
    `json.dumps` raises `ValueError`.
    """
    parts: list[str] = []
    _encode(doc, "\n", parts.append)
    return "".join(parts)


def _encode(value, newline: str, emit) -> None:
    """Emit `value` as `dumps` does, its lines after the first starting
    with `newline` (a line break and the current indent)."""
    if isinstance(value, str):
        emit(_quote(value))
    elif isinstance(value, dict):
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                key = _key(key)
            emit(f"{separator}{_quote(key)}: ")
            _encode(item, inner, emit)
            separator = "," + inner
        emit(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            emit(separator)
            _encode(item, inner, emit)
            separator = "," + inner
        emit(newline + "]")
    else:
        emit(json.dumps(value))


def _key(key) -> str:
    """A non-string dict key as `json.dumps` writes it, before quoting."""
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def dump_document(path, doc: Mapping) -> None:
    """Write `dumps(doc)` and a line break to `path`.

    An existing file is rewritten in place, keeping its inode and
    permissions, and a regular file is then truncated to the document's
    length; a new one is created as `open(path, "w")` creates it.  Opening
    without truncating spares the file system freeing and reallocating the
    file's blocks on every rewrite.  Like the truncate-then-write it
    replaces, the write is not atomic: a failure part way through can leave
    a mix of the old and new documents, which is why every document is
    checked before it is used.  A target that is not a regular file (a
    pipe, a terminal, `os.devnull`) is written and never truncated.
    """
    data = (dumps(doc) + "\n").encode("ascii")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()
