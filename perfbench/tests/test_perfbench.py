"""Self-tests of the benchmark: generators, tracing, the gate, smoke runs.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import instances
import run
import tracing
from boolsynth.network import all_outputs, external_inputs
from boolsynth.oracle import verify_closed_loop
from boolsynth.synthesis import completeness_certificate

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_chain_k2_is_the_eps_fixture():
    with open(os.path.join(ROOT, "fixtures", "eps_tree.topology.json"), encoding="utf-8") as fh:
        assert instances.chain_topology(2) == json.load(fh)


def test_permutation_keeps_the_circuit():
    base = instances.chain_topology(3)
    shuffled = instances.permuted(base, np.random.default_rng(5))
    key = lambda d: sorted(json.dumps(x, sort_keys=True) for x in d)  # noqa: E731
    assert key(shuffled["nodes"]) == key(base["nodes"])
    assert key(shuffled["edges"]) == key(base["edges"])
    assert shuffled != base


def test_generators_are_deterministic_in_the_seed():
    a = instances.random_dag_pool(np.random.default_rng(7), 3)[2]
    b = instances.random_dag_pool(np.random.default_rng(7), 3)[2]
    assert a[0].names == b[0].names
    assert a[1].guarantee == b[1].guarantee and a[1].assumption == b[1].assumption
    fa = instances.wide_forest_pair(np.random.default_rng(7))
    fb = instances.wide_forest_pair(np.random.default_rng(7))
    assert fa[1].guarantee == fb[1].guarantee


def test_wide_forest_pair_is_planted():
    rng = np.random.default_rng(3)
    for _ in range(3):
        net, contract, witness = instances.wide_forest_pair(rng)
        assert [len(s.controls) for s in net.subsystems] == [8, 8]
        assert len(external_inputs(net)) == 6
        assert completeness_certificate(net, contract)
        assert verify_closed_loop(net, witness, contract).ok


def test_random_dag_shape():
    for net, _ in instances.random_dag_pool(np.random.default_rng(11), 40):
        assert len(net.subsystems) == 5
        assert len(all_outputs(net)) <= 10
        for s in net.subsystems:
            assert 1 <= len(s.controls) <= 2 and 1 <= len(s.outputs) <= 2
            pins = [v for v in s.env_inputs if v.startswith("w")]
            assert len(pins) <= 2 and len(s.env_inputs) - len(pins) <= 2


def test_tail_needs_ten_samples_beyond():
    assert run.tail_value(90.0, [float(i) for i in range(100)]) == (89.0, 10)
    assert run.tail_value(90.0, [float(i) for i in range(99)]) is None
    assert [run.samples_for_tail(p) for p in (80.0, 90.0, 95.0)] == [50, 100, 200]


def test_self_times_subtract_traced_children():
    spans = [tracing.Span("instance", "instance", 0.0, None, 0),
             tracing.Span("cli.main", "boolsynth.cli.cli_main", 1.0, 0, 0),
             tracing.Span("network.validate", "boolsynth.network.validate", 2.0, 1, 0)]
    for span, end in zip(spans, (10.0, 9.0, 4.0)):
        span.end = end
    assert tracing.self_times(spans) == [2.0, 6.0, 2.0]
    metrics, accounting = tracing.layer_metrics(spans, {})
    assert metrics["cli.self_s"] == 6.0 and metrics["trace.untraced_s"] == 2.0
    assert metrics["network.validate_calls"] == 1
    assert accounting["max_gap_s"] == 0.0


def test_tracer_uninstall_restores_the_program():
    import boolsynth.boolfunc
    import boolsynth.cli
    import boolsynth.network

    before = (boolsynth.cli.distributed_synthesis, boolsynth.network.validate,
              boolsynth.boolfunc.BoolFunc.substitute)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert boolsynth.cli.distributed_synthesis is not before[0]
        assert boolsynth.network.validate is not before[1]
    finally:
        tracer.uninstall()
    after = (boolsynth.cli.distributed_synthesis, boolsynth.network.validate,
             boolsynth.boolfunc.BoolFunc.substitute)
    assert after == before


def test_counts_are_observed_without_extra_spans():
    import boolsynth.cli

    net, contract, witness = instances.wide_forest_pair(np.random.default_rng(2))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run_instance(0, boolsynth.cli.verify_closed_loop, net, witness, contract)
    finally:
        tracer.uninstall()
    verify = next(s for s in tracer.spans if s.name == "oracle.verify")
    assert all(s.start <= verify.end for s in tracer.spans if s is not verify and s.name != "instance")
    metrics, _ = tracing.layer_metrics(tracer.spans, {})
    assert metrics["oracle.valuations"] == 1 << len(external_inputs(net))


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS


def test_spec_json_matches_the_code():
    import ladder
    import workloads

    with open(os.path.join(BENCH, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec["workloads"]) == set(run.WORKLOAD_NAMES + run.EXTRA_WORKLOAD_NAMES)
    for name, doc in spec["workloads"].items():
        assert doc["tail_percentile"] == workloads.WORKLOADS[name].tail_percentile
    assert (spec["ladder"]["budget_s"], spec["ladder"]["memory_mb"], spec["ladder"]["k_max"]) == (
        ladder.RUNG_BUDGET_S, ladder.RUNG_MEMORY_MB, ladder.K_MAX)
    named = {m for row in spec["layer_to_end_to_end"] for m in row["layer_metrics"]}
    assert named <= set(tracing.PER_LAYER_UNITS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES + run.EXTRA_WORKLOAD_NAMES)
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = set(tracing.PER_LAYER_UNITS) if trace else set(run.E2E_UNITS) - {"instance_s.tail"}
    assert expected <= set(result["metrics"])
    if not trace:
        assert result["metrics"]["eps_max_k"]["value"] == 2  # the smoke ladder stops at k=2


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eps_coarse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
