from __future__ import annotations

import json
import os
import random

import numpy as np
import pytest

from boolsynth.boolfunc import VariableSet
from boolsynth.formats import (
    FormatError,
    central_document,
    controllers_document,
    dump_document,
    dumps,
    load_contract,
    load_controllers,
    load_network,
    parse_controllers_document,
)
from boolsynth.network import all_outputs, external_inputs
from boolsynth.oracle import verify_closed_loop
from boolsynth.synthesis import centralized_synthesis, distributed_synthesis

from .conftest import FIXTURES, make_contract, serial_chain_net


def test_network_file_matches_programmatic_construction():
    net = load_network(FIXTURES / "serial_chain.net.json")
    assert net == serial_chain_net()


def test_contract_scopes_are_the_mentioned_variables_in_declaration_order(tmp_path):
    net = load_network(FIXTURES / "serial_chain.net.json")
    contract = load_contract(FIXTURES / "serial_chain.contract.json", net)
    assert contract.assumption.scope == ("e1",)
    assert contract.guarantee.scope == ("y2",)
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps({"assumptions": ["e2 | e1"], "guarantees": ["y2", "y1"]}))
    contract = load_contract(path, net)
    assert contract.assumption.scope == external_inputs(net) == ("e1", "e2")
    assert contract.guarantee.scope == all_outputs(net) == ("y1", "y2")
    path.write_text(json.dumps({"assumptions": [], "guarantees": ["true"]}))
    contract = load_contract(path, net)
    assert contract.assumption.scope == contract.guarantee.scope == ()
    assert contract.assumption.is_true and contract.guarantee.is_true


def test_contract_on_a_wide_network_spans_only_what_it_mentions(tmp_path):
    # 40 external inputs and 40 outputs: a side over all of either would
    # be a truth table over 40 variables, past the table guard.
    systems = [{"name": f"S{i}", "controls": [f"u{i}"], "env_inputs": [f"e{i}"],
                "outputs": [{"name": f"y{i}", "expr": f"u{i} & e{i}"}]} for i in range(40)]
    net_path, contract_path = tmp_path / "wide.net.json", tmp_path / "wide.contract.json"
    net_path.write_text(json.dumps({"subsystems": systems}))
    contract_path.write_text(json.dumps({"assumptions": ["e31", "e7"], "guarantees": ["y39 | y2"]}))
    net = load_network(net_path)
    assert len(external_inputs(net)) == len(all_outputs(net)) == 40
    contract = load_contract(contract_path, net)
    assert contract.assumption.scope == ("e7", "e31")
    assert contract.guarantee.scope == ("y2", "y39")
    assert contract.assumption.bits == 0b1000 and contract.guarantee.bits == 0b1110


def test_multiple_contract_entries_are_conjoined(tmp_path):
    net = load_network(FIXTURES / "serial_chain.net.json")
    path = tmp_path / "multi.json"
    path.write_text(json.dumps({"assumptions": ["e1", "e2"], "guarantees": ["y1", "y2"]}))
    contract = load_contract(path, net)
    from boolsynth.boolfunc import BoolFunc

    assert contract.assumption.equivalent(BoolFunc.var("e1") & BoolFunc.var("e2"))
    assert contract.guarantee.equivalent(BoolFunc.var("y1") & BoolFunc.var("y2"))


def test_distributed_document_roundtrip(tmp_path):
    net = serial_chain_net()
    contract = make_contract(net, "e1", "y2")
    outcome = distributed_synthesis(net, contract)
    path = tmp_path / "ctrl.json"
    dump_document(path, controllers_document(net, outcome))
    mode, controllers = load_controllers(path, net)
    assert mode == "distributed"
    assert controllers == outcome.controllers
    assert verify_closed_loop(net, controllers, contract).ok


def test_central_document_roundtrip(tmp_path):
    net = serial_chain_net()
    contract = make_contract(net, "e1", "y2")
    controller = centralized_synthesis(net, contract)
    path = tmp_path / "central.json"
    dump_document(path, central_document(controller))
    mode, controllers = load_controllers(path, net)
    assert mode == "central"
    (loaded,) = controllers.values()
    assert loaded == controller


def test_malformed_rows_rejected(tmp_path):
    net = serial_chain_net()
    contract = make_contract(net, "e1", "y2")
    outcome = distributed_synthesis(net, contract)
    doc = controllers_document(net, outcome)
    doc["controllers"][0]["rows"] = doc["controllers"][0]["rows"][:-1]
    path = tmp_path / "short.json"
    dump_document(path, doc)
    with pytest.raises(FormatError):
        load_controllers(path, net)


def test_missing_fields_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"subsystems": [{"name": "S"}]}))
    with pytest.raises(FormatError):
        load_network(path)


def test_mismatched_interface_rejected(tmp_path):
    net = serial_chain_net()
    contract = make_contract(net, "e1", "y2")
    outcome = distributed_synthesis(net, contract)
    doc = controllers_document(net, outcome)
    doc["controllers"][0]["subsystem"] = "S2"
    doc["controllers"][1]["subsystem"] = "S1"
    path = tmp_path / "swapped.json"
    dump_document(path, doc)
    with pytest.raises(FormatError, match="interface"):
        load_controllers(path, net)


@pytest.mark.parametrize(
    "in_entry, change, message",
    [
        (False, {"mode": "bogus"}, "mode 'bogus'"),
        (False, {"controllers": []}, "found 0"),
        (True, {"inputs": ["e2", "e1"]}, "interface"),
        (True, {"controls": ["u1"]}, "interface"),
    ],
)
def test_ambiguous_central_documents_rejected(in_entry, change, message):
    net = serial_chain_net()
    doc = central_document(centralized_synthesis(net, make_contract(net, "e1", "y2")))
    (doc["controllers"][0] if in_entry else doc).update(change)
    with pytest.raises(FormatError, match=message):
        parse_controllers_document(doc, net)


def test_duplicate_subsystem_rejected():
    net = serial_chain_net()
    doc = controllers_document(net, distributed_synthesis(net, make_contract(net, "e1", "y2")))
    doc["controllers"].append(doc["controllers"][0])
    with pytest.raises(FormatError, match="more than one controller"):
        parse_controllers_document(doc, net)


# Characters that exercise every escape: quotes, backslash, controls,
# non-ASCII (one and two UTF-16 units) and plain ASCII.
_ALPHABET = 'ab Z09"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\U0001f600'


def _random_string(rng: random.Random) -> str:
    return "".join(rng.choice(_ALPHABET) for _ in range(rng.randrange(6)))


def _random_scalar(rng: random.Random):
    return rng.choice([
        lambda: None, lambda: True, lambda: False,
        lambda: rng.randrange(-10**20, 10**20), lambda: rng.randrange(-3, 3),
        lambda: rng.uniform(-1e6, 1e6), lambda: rng.choice([0.0, -0.0, 1e300, 1e-300, 0.1]),
        lambda: rng.choice([float("nan"), float("inf"), float("-inf")]),
        lambda: _random_string(rng),
    ])()


def _random_key(rng: random.Random):
    if rng.random() < 0.8:
        return _random_string(rng)
    return rng.choice([None, True, False, rng.randrange(-99, 99), rng.uniform(-9, 9), float("nan")])


def _random_value(rng: random.Random, depth: int):
    kind = rng.randrange(6) if depth else 0
    if kind == 0:
        return _random_scalar(rng)
    n = rng.randrange(4)  # empty containers included
    if kind == 1:
        return {_random_key(rng): _random_value(rng, depth - 1) for _ in range(n)}
    if kind == 2:
        return [_random_value(rng, depth - 1) for _ in range(n)]
    if kind == 3:
        return tuple(_random_value(rng, depth - 1) for _ in range(n))
    if kind == 4:
        return VariableSet(f"v{k}" for k in rng.sample(range(10), n))
    return rng.choice(["", " ", '"', "\x00", "\u00ff"]) + _random_string(rng)


@pytest.mark.parametrize("seed", range(40))
def test_dumps_matches_json_dumps_with_indent(seed):
    rng = random.Random(seed)
    for _ in range(25):
        doc = _random_value(rng, rng.randrange(5))
        assert dumps(doc) == json.dumps(doc, indent=2)


def test_dumps_matches_the_controller_documents():
    net = serial_chain_net()
    contract = make_contract(net, "e1", "y2")
    for doc in (controllers_document(net, distributed_synthesis(net, contract)),
                central_document(centralized_synthesis(net, contract))):
        assert dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("bad", [
    np.bool_(True), np.int64(1), {1, 2}, frozenset(), b"bytes", object(),
    {(1, 2): "tuple key"}, {"k": [1, {"deep": {3}}]}, [np.array([1])],
])
def test_dumps_refuses_what_json_dumps_refuses(bad):
    with pytest.raises(TypeError) as expected:
        json.dumps(bad, indent=2)
    with pytest.raises(TypeError) as got:
        dumps(bad)
    assert str(got.value) == str(expected.value)


def test_shorter_document_rewrites_a_longer_file_in_place(tmp_path):
    path = tmp_path / "doc.json"
    dump_document(path, {"rows": ["0" * 64] * 32})
    inode, size = os.stat(path).st_ino, os.path.getsize(path)
    short = {"mode": "central"}
    dump_document(path, short)
    assert path.read_bytes() == (json.dumps(short, indent=2) + "\n").encode()
    assert os.path.getsize(path) < size
    assert os.stat(path).st_ino == inode


def test_new_document_gets_the_mode_open_gives(tmp_path):
    previous = os.umask(0o027)
    try:
        dump_document(tmp_path / "new.json", {})
        with open(tmp_path / "reference.json", "w"):
            pass
    finally:
        os.umask(previous)
    modes = {os.stat(tmp_path / name).st_mode for name in ("new.json", "reference.json")}
    assert modes == {0o100640}


def test_existing_document_keeps_its_permissions(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("x" * 100)
    path.chmod(0o600)
    dump_document(path, [])
    assert path.read_text() == "[]\n"
    assert os.stat(path).st_mode == 0o100600
