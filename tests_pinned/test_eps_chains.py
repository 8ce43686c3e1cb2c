"""Pinned `boolsynth eps` reports and controller documents for the chains.

`tests/golden/` snapshots the k=2..5 chains byte for byte; this suite adds
k=1 and k=6 and compares SHA-256 digests of, per chain, the `eps --json`
report (without its `out` path, which names a temporary file) and the
`--out` controller document.  The chains are `chain_topology(k)` from
`perfbench/instances.py` (read, not changed).  The digests were recorded
before the search fixed one variable order per call and the EPS compile
began emitting its guarantee in that order.

Run with ``python -m pytest tests_pinned`` (a few seconds; the k=6 chain
needs about 400 MB).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from boolsynth.cli import cli_main

from test_random_dag_pools import load_instances

# per k: sha256 of the JSON report without "out", sha256 of the document
PINNED = {
    1: (
        "659a177a25fcdf41e38d70e47bd67eea1d226e01d762615b11da701e6e8dd86f",
        "ccbc39fb17134e27063397229541fb21957d6a6fd42e7b369232c20f27c7f5ad",
    ),
    2: (
        "33b9902edef69de290f3c69951cfb8f76431a80c33437b1a7bb6c43c4ba1960f",
        "faab7a8935a5dead1b0279d306458fa55d000e038e69d31691a7abb4522a0da5",
    ),
    3: (
        "8dfadc3fd6dc84361b959de5ea85ea0960c5407770f3b166c0e18c695e6c51f5",
        "b27e8cbc0dbb7ecc12ae9da4e6deab5a51757fe3f99fac3815e84062628e9367",
    ),
    4: (
        "765b07487a68d6684c9e5440a2ef9d555fdc0e3e3c7defc35c6ffe7dbf307c5c",
        "342a8d3e12e0fb732d8747d8184240457c4091f5036a0025675b8ba2d6140b25",
    ),
    5: (
        "9f058d8720ce2ccf7a4384e82bee75e59a4a70e295271f5b016065c689cec063",
        "5d7765092edcc542a1c27f11df82af771bb8e8d6505785fd2246a3625ec42db5",
    ),
    6: (
        "053e9d8a4519dd8061c10f7aa1e557dd9fa885f6af4087b089ad349398a649eb",
        "6f67eb78d7015174af74ccd179febef2473780c6bf44fb92d090ab11b166099b",
    ),
}


def eps_digests(k: int, tmp_path) -> tuple[str, str]:
    topology = tmp_path / f"chain{k}.topology.json"
    topology.write_text(json.dumps(load_instances().chain_topology(k)))
    document = tmp_path / f"chain{k}.controllers.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = cli_main(["eps", str(topology), "--json", "--out", str(document)])
    report = json.loads(stdout.getvalue())
    assert (status, report["closed_loop_verified"], report.pop("out")) == (0, True, str(document))
    return (
        hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest(),
        hashlib.sha256(document.read_bytes()).hexdigest(),
    )


@pytest.mark.parametrize("k", sorted(PINNED))
def test_eps_chain_report_and_document_match_pinned(k, tmp_path):
    assert eps_digests(k, tmp_path) == PINNED[k]
