from __future__ import annotations

import json
import sys
import time

import pytest

from boolsynth.boolfunc import BoolFunc
from boolsynth.cli import cli_main
from boolsynth.formats import central_document, dump_document, load_contract, load_network
from boolsynth.network import BooleanSystem, Controller, closed_loop_values, flatten
from boolsynth.synthesis import SynthesisOutcome, centralized_synthesis

from .conftest import COLLIDING_TOPOLOGIES, FIXTURES, run_with_memory_limit

SERIAL = [str(FIXTURES / "serial_chain.net.json"), str(FIXTURES / "serial_chain.contract.json")]
XOR = [str(FIXTURES / "xor_assumption.net.json"), str(FIXTURES / "xor_assumption.contract.json")]
SHARED = [
    str(FIXTURES / "shared_or_guarantee.net.json"),
    str(FIXTURES / "shared_or_guarantee.contract.json"),
]
FAN_OUT = [str(FIXTURES / "fan_out.net.json"), str(FIXTURES / "fan_out.contract.json")]
TOPOLOGY = str(FIXTURES / "eps_tree.topology.json")


def patch_everywhere(monkeypatch, function, replacement):
    """Rebind `function` in every boolsynth module that binds it, so no call
    escapes `replacement`."""
    name = function.__name__
    for module in list(sys.modules.values()):
        if module.__name__.startswith("boolsynth") and getattr(module, name, None) is function:
            monkeypatch.setattr(module, name, replacement)


def counting_flatten(monkeypatch) -> list:
    """Count the calls of `flatten`; returns the list of networks flattened."""
    calls = []
    patch_everywhere(monkeypatch, flatten, lambda net: calls.append(net) or flatten(net))
    return calls


class TestValidateCommand:
    def test_well_posed_network(self, capsys):
        assert cli_main(["validate", SERIAL[0]]) == 0
        assert "well-posed" in capsys.readouterr().out

    def test_ill_posed_network(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "serial_chain.net.json").read_text())
        doc["wiring"].append(dict(doc["wiring"][0]))  # same input driven twice
        bad = tmp_path / "bad.net.json"
        bad.write_text(json.dumps(doc))
        assert cli_main(["validate", str(bad)]) == 2
        assert "driver" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert cli_main(["validate", "/nonexistent.net.json"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSynthesizeCommand:
    def test_realizable_writes_controllers(self, tmp_path, capsys):
        out_file = tmp_path / "ctrl.json"
        code = cli_main(["synthesize", *SERIAL, "--out", str(out_file), "--oracle"])
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["mode"] == "distributed"
        assert {c["subsystem"] for c in doc["controllers"]} == {"S1", "S2"}
        assert "agrees" in capsys.readouterr().out

    def test_unrealizable_exits_one_with_trace(self, capsys):
        assert cli_main(["synthesize", *XOR]) == 1
        out = capsys.readouterr().out
        assert "failure" in out
        assert "S1" in out and "lra = false" in out

    def test_central_flag(self, tmp_path):
        out_file = tmp_path / "central.json"
        assert cli_main(["synthesize", *SERIAL, "--central", "--out", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["mode"] == "central"
        (entry,) = doc["controllers"]
        assert entry["inputs"] == ["e1", "e2"]
        assert entry["controls"] == ["u1", "u2"]

    def test_json_report(self, capsys):
        assert cli_main(["synthesize", *SHARED, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["success"] is True
        assert report["completeness_certificate"] is False

    @pytest.mark.parametrize("argv", [["synthesize", *SERIAL], ["eps", TOPOLOGY]])
    def test_central_success_is_verified(self, argv, capsys):
        assert cli_main([*argv, "--central", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["success"] is True
        assert report["closed_loop_verified"] is True

    @pytest.mark.parametrize("argv", [["synthesize", *SERIAL], ["eps", TOPOLOGY]])
    def test_central_run_flattens_once(self, argv, monkeypatch, capsys):
        calls = counting_flatten(monkeypatch)
        assert cli_main([*argv, "--central", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["closed_loop_verified"] is True
        assert len(calls) == 1

    def test_oracle_disagreement_has_its_own_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr("boolsynth.cli.brute_force_distributed", lambda *args: None)
        assert cli_main(["synthesize", *SERIAL, "--oracle"]) == 3
        assert "oracle cross-check: DISAGREES" in capsys.readouterr().out

    def test_success_failing_verification_writes_no_document(self, tmp_path, monkeypatch, capsys):
        # all controls held off keep y2 false, against the guarantee y2
        def switched_off(net, contract):
            controllers = {s.name: Controller.constant(s.name, s.env_inputs, s.controls) for s in net.subsystems}
            return SynthesisOutcome(True, controllers, {}, ())

        monkeypatch.setattr("boolsynth.cli.distributed_synthesis", switched_off)
        out_file = tmp_path / "ctrl.json"
        assert cli_main(["synthesize", *SERIAL, "--out", str(out_file), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["success"] is True and report["closed_loop_verified"] is False
        assert "out" not in report
        assert not out_file.exists()


class TestFanOut:
    """S1's output y1 drives both of S2's inputs a and b."""

    @pytest.mark.parametrize("flags", [[], ["--central"]])
    def test_synthesized_document_verifies(self, tmp_path, capsys, flags):
        out = tmp_path / "controllers.json"
        argv = ["synthesize", *FAN_OUT, "--oracle", "--json", "--out", str(out), *flags]
        assert cli_main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["closed_loop_verified"] is True
        assert report["oracle"] == {"ran": True, "oracle_realizable": True, "agrees": True}
        assert cli_main(["verify", *FAN_OUT, str(out), "--oracle"]) == 0

    def test_leaf_assumption_rewired_onto_the_shared_driver(self, capsys):
        assert cli_main(["synthesize", *FAN_OUT, "--json"]) == 0
        trace = json.loads(capsys.readouterr().out)["trace"]
        assert [(t["subsystem"], t["lra"]) for t in trace] == [("S2", "a & b"), ("S1", "true")]


class TestVerifyCommand:
    def test_verify_fresh_controllers(self, tmp_path):
        out_file = tmp_path / "ctrl.json"
        assert cli_main(["synthesize", *SERIAL, "--out", str(out_file)]) == 0
        assert cli_main(["verify", *SERIAL, str(out_file)]) == 0

    def test_tampered_controller_fails_with_counterexample(self, tmp_path, capsys):
        out_file = tmp_path / "ctrl.json"
        cli_main(["synthesize", *SERIAL, "--out", str(out_file)])
        doc = json.loads(out_file.read_text())
        for entry in doc["controllers"]:
            if entry["subsystem"] == "S1":
                entry["rows"] = [{"env": r["env"], "controls": "0"} for r in entry["rows"]]
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli_main(["verify", *SERIAL, str(tampered)]) == 1
        assert "violated at" in capsys.readouterr().out

    def test_verify_central_controller(self, tmp_path):
        out_file = tmp_path / "central.json"
        cli_main(["synthesize", *SERIAL, "--central", "--out", str(out_file)])
        assert cli_main(["verify", *SERIAL, str(out_file)]) == 0

    def test_verify_central_oracle_cross_check(self, tmp_path, capsys):
        out_file = tmp_path / "central.json"
        cli_main(["synthesize", *SERIAL, "--central", "--out", str(out_file)])
        capsys.readouterr()
        assert cli_main(["verify", *SERIAL, str(out_file), "--oracle"]) == 0
        assert "symbolic cross-check: agrees" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [[], ["--oracle"]])
    def test_verify_central_controller_on_the_network(self, tmp_path, monkeypatch, capsys, flags):
        out_file = tmp_path / "central.json"
        assert cli_main(["synthesize", *SERIAL, "--central", "--out", str(out_file)]) == 0
        calls = counting_flatten(monkeypatch)
        assert cli_main(["verify", *SERIAL, str(out_file), *flags]) == 0
        assert calls == []

    def test_central_controller_checked_independently_of_the_flattening(self, tmp_path, monkeypatch, capsys):
        # A flattening in which the plant's y2 reads !u1: the controller
        # synthesized against it sets u1 = 0, which the network itself
        # defeats at e1=T, e2=F (y2 = (e2 | u1) & u2).
        def miswired(net):
            plant = flatten(net)
            functions = dict(plant.functions, y2=~BoolFunc.var("u1"))
            return BooleanSystem(plant.name, plant.controls, plant.env_inputs, plant.outputs, functions)

        patch_everywhere(monkeypatch, flatten, miswired)
        out_file = tmp_path / "central.json"
        assert cli_main(["synthesize", *SERIAL, "--central", "--json", "--out", str(out_file)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["success"] is True and report["closed_loop_verified"] is False
        assert not out_file.exists()
        # the unverified controller is not written by synthesize, so write it here
        net = load_network(SERIAL[0])
        contract = load_contract(SERIAL[1], net)
        dump_document(out_file, central_document(centralized_synthesis(net, contract)))
        assert cli_main(["verify", *SERIAL, str(out_file), "--json", "--oracle"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["counterexample"] == "e1=T, e2=F"
        assert report["oracle"] == {"ran": True, "agrees": True}

    def test_verify_oracle_cross_check(self, tmp_path, capsys):
        out_file = tmp_path / "ctrl.json"
        cli_main(["synthesize", *SERIAL, "--out", str(out_file)])
        capsys.readouterr()
        assert cli_main(["verify", *SERIAL, str(out_file), "--oracle"]) == 0
        assert "symbolic cross-check: agrees" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", [[], ["--central"]])
    def test_oracle_is_independent_of_the_closed_loop_walk(self, tmp_path, monkeypatch, capsys, mode):
        # A walk that flips y2 whenever controllers drive the loop: the
        # simulation then rejects a correct controller, and only the
        # substitution route still accepts it.
        out_file = tmp_path / "ctrl.json"
        assert cli_main(["synthesize", *SERIAL, *mode, "--out", str(out_file)]) == 0

        def flipped(net, seeds, controllers):
            values = closed_loop_values(net, seeds, controllers)
            return dict(values, y2=~values["y2"]) if controllers else values

        patch_everywhere(monkeypatch, closed_loop_values, flipped)
        capsys.readouterr()
        assert cli_main(["verify", *SERIAL, str(out_file), "--oracle"]) == 3
        assert "symbolic cross-check: DISAGREES" in capsys.readouterr().out
        assert cli_main(["synthesize", *SERIAL, *mode, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["success"] is True and report["closed_loop_verified"] is False


class TestDistributeCommand:
    def test_lists_both_splits(self, capsys):
        assert cli_main(["distribute", *SHARED, "--subsystem", "S2"]) == 0
        out = capsys.readouterr().out
        assert "2 maximal distribution(s)" in out
        assert "down = y2 | up = true" in out
        assert "down = true | up = y1" in out

    def test_unknown_subsystem(self, capsys):
        assert cli_main(["distribute", *SHARED, "--subsystem", "SX"]) == 2

    def test_oracle_cross_check(self, capsys):
        assert cli_main(["distribute", *SHARED, "--subsystem", "S2", "--oracle"]) == 0
        assert "biclique cross-check: agrees" in capsys.readouterr().out

    def test_oracle_over_budget_is_skipped(self, tmp_path, capsys):
        # S1's 2^4 valuations against S2's 2^5 need 2^16 x 32 subset steps,
        # above the oracle's budget: the splits are still listed.
        def system(name, prefix, outputs):
            return {"name": name, "controls": [f"u{prefix}"], "env_inputs": [f"e{prefix}"],
                    "outputs": [{"name": f"{prefix}{k}", "expr": f"u{prefix} ^ e{prefix}" if k else f"u{prefix}"}
                                for k in range(outputs)]}

        net = tmp_path / "wide.net.json"
        net.write_text(json.dumps({"subsystems": [system("S1", "y", 4), system("S2", "z", 5)]}))
        contract = tmp_path / "wide.ctr.json"
        contract.write_text(json.dumps({"assumptions": [], "guarantees": ["y0 | z0"]}))
        argv = ["distribute", str(net), str(contract), "--subsystem", "S1", "--oracle"]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "2 maximal distribution(s) for S1:" in out
        assert "biclique cross-check skipped: biclique oracle limited to 65536 subset steps" in out
        assert cli_main([*argv, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["distributions"]) == 2
        assert report["oracle"] == {"ran": False, "reason": "biclique oracle limited to 65536 subset steps, got 2^16 x 32"}


class TestEpsCommand:
    def test_end_to_end(self, tmp_path, capsys):
        out_file = tmp_path / "eps.json"
        assert cli_main(["eps", TOPOLOGY, "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "completeness certificate: True" in out
        assert "closed loop verified: True" in out
        doc = json.loads(out_file.read_text())
        assert {c["subsystem"] for c in doc["controllers"]} == {"S0", "S1", "S2"}

    def test_central_agrees_on_realizability(self, capsys):
        assert cli_main(["eps", TOPOLOGY, "--central"]) == 0
        assert "realizable" in capsys.readouterr().out

    def test_oracle_skipped_over_budget(self, capsys):
        assert cli_main(["eps", TOPOLOGY, "--oracle"]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_explicit_partition(self, tmp_path):
        topo = json.loads((FIXTURES / "eps_tree.topology.json").read_text())
        members = [n["name"] for n in topo["nodes"]]
        part = tmp_path / "partition.json"
        part.write_text(json.dumps({"groups": [{"name": "ALL", "nodes": members}]}))
        assert cli_main(["eps", TOPOLOGY, "--partition", str(part), "--json"]) == 0

    def test_partition_naming_a_group_twice(self, tmp_path, capsys):
        topo = json.loads((FIXTURES / "eps_tree.topology.json").read_text())
        members = [n["name"] for n in topo["nodes"]]
        part = tmp_path / "partition.json"
        groups = [{"name": "A", "nodes": members[:2]}, {"name": "A", "nodes": members[2:]}]
        part.write_text(json.dumps({"groups": groups}))
        assert cli_main(["eps", TOPOLOGY, "--partition", str(part)]) == 2
        assert "group 'A' more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(COLLIDING_TOPOLOGIES))
    def test_generated_output_name_given_twice(self, case, tmp_path, capsys):
        doc, name = COLLIDING_TOPOLOGIES[case]
        topo = tmp_path / "topology.json"
        topo.write_text(json.dumps(doc))
        assert cli_main(["eps", str(topo)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: group 'S0'") and name in line

    def test_five_generator_chain(self, capsys):
        # the EPS k-chain at k=5: a regression instance for the biclique,
        # composition and compile layers together
        start = time.perf_counter()
        code = cli_main(["eps", str(FIXTURES / "eps_chain5.topology.json"), "--json"])
        elapsed = time.perf_counter() - start
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["success"] is True
        assert report["closed_loop_verified"] is True
        assert elapsed < 5.0

    def test_six_generator_chain(self, capsys):
        # the top of the benchmark's k-ladder: a 2^27-cell guarantee, so a
        # regression instance for the projection, counting and cube kernels
        code = cli_main(["eps", str(FIXTURES / "eps_chain6.topology.json"), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["success"] is True
        assert report["closed_loop_verified"] is True

    def test_seven_generator_chain_is_refused_by_size(self):
        # Its guarantee needs 2^35 cells; the child's 1 GiB address-space
        # limit turns a missing guard into a failure, not a full machine.
        start = time.perf_counter()
        done = run_with_memory_limit(
            "import sys\nfrom boolsynth.cli import cli_main\nsys.exit(cli_main(sys.argv[1:]))\n",
            "eps", str(FIXTURES / "eps_chain7.topology.json"),
        )
        elapsed = time.perf_counter() - start
        assert done.returncode == 2, done.stderr
        assert "2^35 = 34359738368 cells" in done.stderr
        assert elapsed < 2.0

    def test_out_of_memory_is_an_input_error_not_unrealizable(self, tmp_path):
        # One group of all 20 nodes of the four-generator chain is within the
        # table guard, yet its compile outgrows the child's 1 GiB address
        # space; exit 1 would claim the contract unrealizable.
        pytest.importorskip("resource")
        topology = FIXTURES / "eps_chain4.topology.json"
        nodes = [n["name"] for n in json.loads(topology.read_text())["nodes"]]
        partition = tmp_path / "one_group.partition.json"
        partition.write_text(json.dumps({"groups": [{"name": "ALL", "nodes": nodes}]}))
        done = run_with_memory_limit(
            "import runpy\nrunpy.run_module('boolsynth', run_name='__main__')\n",
            "eps", str(topology), "--partition", str(partition),
        )
        assert done.returncode == 2, done.stderr
        assert "error: out of memory" in done.stderr
        assert "Traceback" not in done.stderr

    def test_central_five_generator_chain_is_refused_by_size(self):
        # Its flattened plant spans 34 external inputs and controls.
        done = run_with_memory_limit(
            "import sys\nfrom boolsynth.cli import cli_main\nsys.exit(cli_main(sys.argv[1:]))\n",
            "eps", str(FIXTURES / "eps_chain5.topology.json"), "--central",
        )
        assert done.returncode == 2, done.stderr
        assert "2^34 = 17179869184 cells" in done.stderr

    def test_generatorless_topology_is_refused(self, tmp_path, capsys):
        buses = [f"B{i}" for i in range(31)]
        topo = tmp_path / "buses.topology.json"
        topo.write_text(json.dumps({
            "nodes": [{"name": b, "kind": "bus", "current": "ac"} for b in buses],
            "edges": [{"a": a, "b": b, "contactor": f"k{i}"} for i, (a, b) in enumerate(zip(buses, buses[1:]))],
        }))
        assert cli_main(["eps", str(topo)]) == 2
        assert "generators" in capsys.readouterr().err

    def test_malformed_topology(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert cli_main(["eps", str(bad)]) == 2

    def test_malformed_partition_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.partition.json"
        bad.write_text("{")
        assert cli_main(["eps", TOPOLOGY, "--partition", str(bad)]) == 2
        assert str(bad) in capsys.readouterr().err


class TestDegenerateInputs:
    @pytest.mark.parametrize("command", ["validate", "eps"])
    def test_deeply_nested_json_is_refused(self, tmp_path, capsys, command):
        deep = tmp_path / "deep.json"
        deep.write_text('{"subsystems": ' + "[" * 100000 + "]" * 100000 + "}")
        assert cli_main([command, str(deep)]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("guarantee", ["(" * 2000 + "y1" + ")" * 2000, "!" * 5000 + "y1"])
    def test_deeply_nested_expression_is_refused(self, tmp_path, capsys, guarantee):
        contract = tmp_path / "deep.ctr.json"
        contract.write_text(json.dumps({"assumptions": ["true"], "guarantees": [guarantee]}))
        assert cli_main(["synthesize", SERIAL[0], str(contract)]) == 2
        assert "nested deeper than" in capsys.readouterr().err

    def test_network_too_deep_for_the_search_is_an_input_error(self, tmp_path):
        # The search recurses once per subsystem; 1500 of them pass the
        # interpreter's recursion limit on a realizable contract, which exit
        # 1 would call unrealizable.
        net = tmp_path / "deep.net.json"
        net.write_text(json.dumps({"subsystems": [
            {"name": f"S{i}", "controls": [f"u{i}"], "env_inputs": [],
             "outputs": [{"name": "y", "expr": "u0"}] if i == 0 else []}
            for i in range(1500)
        ]}))
        contract = tmp_path / "deep.contract.json"
        contract.write_text(json.dumps({"assumptions": [], "guarantees": ["y"]}))
        done = run_with_memory_limit(
            "import runpy\nrunpy.run_module('boolsynth', run_name='__main__')\n",
            "synthesize", str(net), str(contract),
        )
        assert done.returncode == 2, done.stderr
        assert [line for line in done.stderr.splitlines() if line.startswith("error:")] == [done.stderr.strip()]
        assert "Traceback" not in done.stderr

    def test_empty_network_is_trivially_realizable(self, tmp_path):
        net = tmp_path / "empty.net.json"
        net.write_text(json.dumps({"subsystems": [], "wiring": []}))
        contract = tmp_path / "empty.ctr.json"
        contract.write_text(json.dumps({"assumptions": ["true"], "guarantees": ["true"]}))
        assert cli_main(["validate", str(net)]) == 0
        assert cli_main(["synthesize", str(net), str(contract)]) == 0

    @pytest.mark.parametrize("flags", [[], ["--central"]])
    def test_empty_network_with_false_guarantee_is_unrealizable(self, tmp_path, capsys, flags):
        net = tmp_path / "empty.net.json"
        net.write_text(json.dumps({"subsystems": []}))
        contract = tmp_path / "false.ctr.json"
        contract.write_text(json.dumps({"assumptions": [], "guarantees": ["false"]}))
        out_file = tmp_path / "ctrl.json"
        argv = ["synthesize", str(net), str(contract), "--oracle", "--json", "--out", str(out_file)]
        assert cli_main([*argv, *flags]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["success"] is False
        assert report["completeness_certificate"] is True
        assert report["oracle"] == {"ran": True, "oracle_realizable": False, "agrees": True}
        assert not out_file.exists()

    def test_vacuous_contract_agrees_with_oracle(self, tmp_path, capsys):
        # no admissible environment: any controller meets even a False guarantee
        contract = tmp_path / "vacuous.ctr.json"
        contract.write_text(json.dumps({"assumptions": ["false"], "guarantees": ["false"]}))
        assert cli_main(["synthesize", SERIAL[0], str(contract), "--oracle", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["success"] and report["closed_loop_verified"]
        assert report["oracle"] == {"ran": True, "oracle_realizable": True, "agrees": True}


@pytest.mark.parametrize("word", ["true", "false"])
class TestReservedNames:
    """``true`` and ``false`` are constants in expressions, so no name."""

    @pytest.mark.parametrize("command", ["validate", "synthesize"])
    def test_network_input_named_after_a_constant(self, tmp_path, capsys, word, command):
        net = tmp_path / "net.json"
        contract = tmp_path / "contract.json"
        system = {"name": "S", "controls": ["u"], "env_inputs": [word],
                  "outputs": [{"name": "y", "expr": f"{word} | u"}]}
        net.write_text(json.dumps({"subsystems": [system]}))
        contract.write_text(json.dumps({"assumptions": [], "guarantees": ["y"]}))
        argv = [command, str(net)] + ([str(contract)] if command == "synthesize" else [])
        assert cli_main(argv) == 2
        assert f"{word!r} is the constant {word}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["B2", "k_tie"])
    def test_topology_name_after_a_constant(self, tmp_path, capsys, word, name):
        topo = tmp_path / "topology.json"
        text = (FIXTURES / "eps_tree.topology.json").read_text()
        topo.write_text(text.replace(f'"{name}"', f'"{word}"'))
        assert cli_main(["eps", str(topo)]) == 2
        assert f"{word!r} is the constant {word}" in capsys.readouterr().err


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert cli_main([]) == 2

    def test_unknown_command(self, capsys):
        assert cli_main(["frobnicate"]) == 2


def _documents(tmp_path) -> dict:
    """One valid document of each kind the command line reads."""
    ctrl = tmp_path / "ctrl.json"
    assert cli_main(["synthesize", *SERIAL, "--out", str(ctrl)]) == 0
    topology = json.loads((FIXTURES / "eps_tree.topology.json").read_text())
    return {
        "network": json.loads((FIXTURES / "serial_chain.net.json").read_text()),
        "contract": json.loads((FIXTURES / "serial_chain.contract.json").read_text()),
        "controllers": json.loads(ctrl.read_text()),
        "topology": topology,
        "partition": {"groups": [{"name": "ALL", "nodes": [n["name"] for n in topology["nodes"]]}]},
    }


def _run_with(tmp_path, capsys, docs: dict, kind: str, text: str | None = None) -> tuple[int, str]:
    """Write the documents, the one of `kind` as raw `text` when given, and
    run the command that reads `kind`: `eps` for a topology or partition,
    `verify` otherwise.  Returns the exit code and stderr."""
    paths = {k: tmp_path / f"{k}.json" for k in docs}
    for k, doc in docs.items():
        paths[k].write_text(text if k == kind and text is not None else json.dumps(doc))
    if kind in ("topology", "partition"):
        argv = ["eps", str(paths["topology"]), "--partition", str(paths["partition"])]
    else:
        argv = ["verify", str(paths["network"]), str(paths["contract"]), str(paths["controllers"])]
    capsys.readouterr()
    code = cli_main(argv)
    return code, capsys.readouterr().err


class TestDocumentValidation:
    @pytest.mark.parametrize("kind", ["network", "topology"])
    def test_valid_documents_pass(self, tmp_path, capsys, kind):
        docs = _documents(tmp_path)
        assert _run_with(tmp_path, capsys, docs, kind)[0] == 0

    @pytest.mark.parametrize(
        "kind, path, field, value",
        [
            ("network", ["subsystems", 0], "controls", 5),
            ("network", ["subsystems", 0], "outputs", "y1"),
            ("network", [], "wiring", {}),
            ("contract", [], "assumptions", "e1"),
            ("contract", [], "guarantees", 5),
            ("controllers", [], "controllers", {}),
            ("controllers", ["controllers", 0], "rows", 5),
            ("controllers", ["controllers", 0], "inputs", "e1"),
            ("topology", [], "nodes", 5),
            ("topology", [], "feeders", "k_r1a"),
            ("partition", [], "groups", {}),
            ("partition", ["groups", 0], "nodes", "G1"),
        ],
    )
    def test_list_fields_must_be_arrays(self, tmp_path, capsys, kind, path, field, value):
        docs = _documents(tmp_path)
        target = docs[kind]
        for key in path:
            target = target[key]
        target[field] = value
        code, err = _run_with(tmp_path, capsys, docs, kind)
        assert code == 2
        assert f"{field!r} must be a JSON array" in err

    @pytest.mark.parametrize("kind", ["network", "contract", "controllers", "topology", "partition"])
    @pytest.mark.parametrize("text", ["{", "[]", "5"])
    def test_documents_must_be_json_objects(self, tmp_path, capsys, kind, text):
        code, err = _run_with(tmp_path, capsys, _documents(tmp_path), kind, text)
        assert code == 2
        assert str(tmp_path / f"{kind}.json") in err


class TestAmbiguousControllerDocuments:
    def _verify(self, tmp_path, capsys, doc) -> tuple[int, str]:
        docs = _documents(tmp_path)
        docs["controllers"] = doc
        return _run_with(tmp_path, capsys, docs, "controllers")

    def _synthesized(self, tmp_path, *flags) -> dict:
        out = tmp_path / "synthesized.json"
        assert cli_main(["synthesize", *SERIAL, *flags, "--out", str(out)]) == 0
        return json.loads(out.read_text())

    def test_unknown_mode(self, tmp_path, capsys):
        doc = self._synthesized(tmp_path, "--central")
        doc["mode"] = "bogus"
        code, err = self._verify(tmp_path, capsys, doc)
        assert code == 2 and "'bogus'" in err

    @pytest.mark.parametrize("flipped_first", [True, False])
    def test_subsystem_listed_twice(self, tmp_path, capsys, flipped_first):
        doc = self._synthesized(tmp_path)
        (good,) = [c for c in doc["controllers"] if c["subsystem"] == "S1"]
        flipped = dict(good, rows=[dict(r, controls="0" if r["controls"] == "1" else "1") for r in good["rows"]])
        if flipped_first:
            doc["controllers"].insert(0, flipped)
        else:
            doc["controllers"].append(flipped)
        code, err = self._verify(tmp_path, capsys, doc)
        assert code == 2 and "more than one controller for subsystem 'S1'" in err

    @pytest.mark.parametrize("count", [0, 2])
    def test_central_document_holds_one_controller(self, tmp_path, capsys, count):
        doc = self._synthesized(tmp_path, "--central")
        doc["controllers"] = doc["controllers"] * count
        code, err = self._verify(tmp_path, capsys, doc)
        assert code == 2 and f"found {count}" in err

    def test_env_labels_must_be_bit_strings(self, tmp_path, capsys):
        doc = self._synthesized(tmp_path)
        for entry in doc["controllers"]:
            entry["rows"] = [dict(row, env="zz") for row in entry["rows"]]
        code, err = self._verify(tmp_path, capsys, doc)
        assert code == 2 and "S1: row 0 has env 'zz', expected '0'" in err

    def test_rows_must_be_listed_in_valuation_order(self, tmp_path, capsys):
        doc = self._synthesized(tmp_path)
        (s2,) = [c for c in doc["controllers"] if c["subsystem"] == "S2"]
        s2["rows"].reverse()
        code, err = self._verify(tmp_path, capsys, doc)
        assert code == 2 and "S2: row 0 has env '11', expected '00'" in err

    @pytest.mark.parametrize("field, value", [("inputs", ["e2", "e1"]), ("controls", ["u2", "u1"])])
    def test_central_interface_is_all_external_inputs_and_controls(self, tmp_path, capsys, field, value):
        doc = self._synthesized(tmp_path, "--central")
        doc["controllers"][0][field] = value
        code, err = self._verify(tmp_path, capsys, doc)
        assert code == 2 and "interface" in err
