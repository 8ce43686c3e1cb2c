from __future__ import annotations

import json

import pytest

from boolsynth.formats import (
    FormatError,
    central_document,
    controllers_document,
    dump_document,
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


def test_contract_scopes_span_the_network():
    net = load_network(FIXTURES / "serial_chain.net.json")
    contract = load_contract(FIXTURES / "serial_chain.contract.json", net)
    assert contract.assumption.scope == external_inputs(net)
    assert contract.guarantee.scope == all_outputs(net)


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
