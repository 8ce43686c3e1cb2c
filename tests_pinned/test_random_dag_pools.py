"""Pinned outcomes of distributed synthesis on the benchmark's random DAG pools.

Tier-1 covers small instances; this suite runs `random_dag_pool` from
`perfbench/instances.py` (read, not changed) for seeds 0, 1 and 7, 800
five-subsystem DAGs each, and compares a SHA-256 of every outcome with a
digest recorded before the search memoized failed subproblems and least
restrictive assumptions.  A change to the search that alters any trace
entry, success flag, controller or local contract changes the digest.

Run with ``python -m pytest tests_pinned`` (15-20 s on two cores).
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from boolsynth import synthesis
from boolsynth.formats import controllers_document, trace_document
from boolsynth.synthesis import distributed_synthesis

ROOT = Path(__file__).resolve().parent.parent
POOL_SIZE = 800

# per seed: sha256 of the outcomes listed by `outcome_record`, and the number
# of least restrictive assumptions computed (20339, 21495 and 22920 before
# the search memoized them)
PINNED = {
    0: ("80dd4155e3df0f23c348083bcfc54e38eb795e0d0db0c6d987815f8fe5739c5c", 10042),
    1: ("d9b45645e62494107adff4c0ed1e288cd86c48dbb4686539cc8e4ae9f8a934e1", 10471),
    7: ("4a8b78f6af0d9889fd4401f1d941dd0fd3d2da4667ba973b14b67447206fe03c", 10778),
}


def load_instances():
    spec = importlib.util.spec_from_file_location("perfbench_instances", ROOT / "perfbench" / "instances.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def outcome_record(net, outcome) -> dict:
    """Success flag, trace document, controller document and local contracts
    (scope and truth table) of one outcome."""
    return {
        "success": outcome.success,
        "trace": trace_document(outcome),
        "controllers": controllers_document(net, outcome),
        "local_contracts": {
            name: [
                [list(side.scope), np.packbits(side.table.reshape(-1)).tobytes().hex()]
                for side in (lc.assumption, lc.guarantee)
            ]
            for name, lc in sorted(outcome.local_contracts.items())
        },
    }


def pool_digest(seed: int) -> str:
    instances = load_instances()
    digest = hashlib.sha256()
    for net, contract in instances.random_dag_pool(np.random.default_rng(seed), POOL_SIZE):
        record = outcome_record(net, distributed_synthesis(net, contract))
        digest.update(json.dumps(record, sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_pool_outcomes_and_lra_calls_match_pinned(seed, monkeypatch):
    calls = 0
    original = synthesis.least_restrictive_assumption

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(synthesis, "least_restrictive_assumption", counting)
    assert (pool_digest(seed), calls) == PINNED[seed]
