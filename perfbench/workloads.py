"""The benchmark's workloads: inputs from a seed, one timed call per
instance, and the correctness gate.

Each workload builds a pool of instances in `setup` (the timed phase cycles
through it), runs one instance in `run` and judges the result in `check`,
which returns None or the reason the instance failed.  `post_check` runs
after the timed phase and re-verifies written controller documents.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import boolsynth.cli as cli
from boolsynth import eps, formats, oracle

import instances

COARSE_K = 2         # eps_coarse: the k=2 chain as one 13-variable group
EPS_POOL = 8         # declaration-order permutations per run
FOREST_POOL = 48     # planted parent->child pairs per run
DAG_POOL = 800       # random DAGs per run

# Each workload reports one fixed tail percentile, the highest that its
# usual sample count in a run supports with at least ten samples beyond it;
# a run times at least `min_samples` instances so that it always does.


class EpsWorkload:
    """`boolsynth eps <topology> --partition <one group> --json --out FILE`,
    in process, on the COARSE_K chain."""

    name = "eps_coarse"
    entry = "boolsynth.cli.cli_main(['eps', topology, '--partition', partition, '--json', '--out', file])"
    tail_percentile = 90.0

    def setup(self, seed: int, workdir: str) -> list[dict]:
        rng = np.random.default_rng(seed)
        base = instances.chain_topology(COARSE_K)
        pool = []
        for i in range(EPS_POOL):
            topo = instances.permuted(base, rng)
            inst = {"topology": os.path.join(workdir, f"topology{i}.json"),
                    "partition": os.path.join(workdir, f"partition{i}.json"),
                    "out": os.path.join(workdir, f"controllers{i}.json")}
            _write_json(inst["topology"], topo)
            _write_json(inst["partition"], instances.single_group_partition(topo))
            inst["argv"] = ["eps", inst["topology"], "--partition", inst["partition"],
                            "--json", "--out", inst["out"]]
            pool.append(inst)
        return pool

    def run(self, inst: dict):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.cli_main(inst["argv"])
        return code, buf.getvalue()

    def check(self, inst: dict, result) -> str | None:
        code, text = result
        if code != cli.EXIT_OK:
            return f"exit code {code}, expected {cli.EXIT_OK} (realizable)"
        report = json.loads(text)
        if report.get("success") is not True:
            return "not realizable, expected realizable"
        if report.get("closed_loop_verified") is not True:
            return "closed loop not verified"
        return None

    def post_check(self, pool: list[dict]) -> list[str]:
        """Re-verify each written controller document against a fresh
        compile of its topology."""
        problems = []
        for inst in pool:
            if not os.path.exists(inst["out"]):
                continue
            topo = eps.load_topology(inst["topology"])
            net, contract = eps.compile_to_network(topo, eps.load_partition(inst["partition"]))
            _, controllers = formats.load_controllers(inst["out"], net)
            if not oracle.verify_closed_loop(net, controllers, contract).ok:
                problems.append(f"{inst['out']}: written controllers violate the contract")
        return problems

    def succeeded(self, result) -> bool:
        return result[0] == cli.EXIT_OK

    def subsystems(self, inst: dict, result) -> int:
        return len(json.loads(result[1])["subsystems"])


class LibraryWorkload:
    """The library path of `boolsynth synthesize`, without file I/O:
    completeness certificate, distributed synthesis, closed-loop check."""

    entry = ("boolsynth.cli.completeness_certificate -> boolsynth.cli.distributed_synthesis"
             " -> boolsynth.cli.verify_closed_loop")

    def __init__(self, name: str, planted: bool, tail_percentile: float):
        self.name, self.planted, self.tail_percentile = name, planted, tail_percentile

    def setup(self, seed: int, workdir: str) -> list[tuple]:
        rng = np.random.default_rng(seed)
        if self.planted:
            return [instances.wide_forest_pair(rng)[:2] for _ in range(FOREST_POOL)]
        return instances.random_dag_pool(rng, DAG_POOL)

    def run(self, inst: tuple):
        net, contract = inst
        cert = cli.completeness_certificate(net, contract)
        outcome = cli.distributed_synthesis(net, contract)
        verified = None
        if outcome.success:
            verified = cli.verify_closed_loop(net, outcome.controllers, contract).ok
        return cert, outcome.success, verified

    def check(self, inst: tuple, result) -> str | None:
        cert, success, verified = result
        if success and not verified:
            return "synthesized controllers fail closed-loop verification"
        if self.planted and not cert:
            return "completeness certificate does not hold on a planted instance"
        if self.planted and not success:
            return "synthesis failed on a planted (realizable) instance"
        return None

    def post_check(self, pool) -> list[str]:
        return []

    def succeeded(self, result) -> bool:
        return result[1]

    def subsystems(self, inst: tuple, result) -> int:
        return len(inst[0].subsystems)


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


WORKLOADS = {
    w.name: w
    for w in (
        EpsWorkload(),
        LibraryWorkload("wide_forest", planted=True, tail_percentile=95.0),
        LibraryWorkload("random_dag", planted=False, tail_percentile=95.0),
    )
}
