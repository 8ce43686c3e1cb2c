"""Byte snapshots of the command line's reports and documents.

Each case runs one `boolsynth` command in process and compares its exit
code, its standard output and any document it writes with the files under
``tests/golden/``, byte for byte.  The temporary directory is written as
``<tmp>`` so the snapshots do not depend on where the test runs.

To record the snapshots again, for a change that is meant to alter the
output, run from the repository root::

    PYTHONPATH=src python -m tests.test_golden
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from boolsynth.cli import cli_main

from .conftest import FIXTURES

GOLDEN = Path(__file__).resolve().parent / "golden"
NETS = {
    "serial_chain": ("S1", "S2"),
    "xor_assumption": ("S1", "S2"),
    "shared_or_guarantee": ("S1", "S2"),
    "two_parents": ("S1", "S2", "S3"),
}
CHAINS = (2, 3, 4, 5)


def _net_args(net: str) -> list[str]:
    return [str(FIXTURES / f"{net}.net.json"), str(FIXTURES / f"{net}.contract.json")]


def _chain_document(k: int) -> dict:
    """The k-generator chain: the six-generator fixture restricted to the
    components numbered k or less."""
    six = json.loads((FIXTURES / "eps_chain6.topology.json").read_text())
    keep = {n["name"] for n in six["nodes"] if int("".join(filter(str.isdigit, n["name"]))) <= k}
    edges = [e for e in six["edges"] if e["a"] in keep and e["b"] in keep]
    contactors = {e.get("contactor") for e in edges}
    return {
        "nodes": [n for n in six["nodes"] if n["name"] in keep],
        "edges": edges,
        "feeders": [f for f in six["feeders"] if f in contactors],
    }


def _inputs(tmp: Path) -> dict[str, str]:
    """Topology and partition files of the EPS cases, written under `tmp`."""
    paths = {"eps_tree": str(FIXTURES / "eps_tree.topology.json")}
    for k in CHAINS:
        doc = _chain_document(k)
        paths[f"chain{k}"] = str(tmp / f"chain{k}.topology.json")
        Path(paths[f"chain{k}"]).write_text(json.dumps(doc))
        if k == 2:
            single = {"groups": [{"name": "ALL", "nodes": [n["name"] for n in doc["nodes"]]}]}
            paths["chain2_single"] = str(tmp / "chain2.partition.json")
            Path(paths["chain2_single"]).write_text(json.dumps(single))
    return paths


def cases(tmp: Path) -> list[tuple[str, list[str], str | None]]:
    """(name, argv, the document the command writes or None)."""
    inputs = _inputs(tmp)
    out: list[tuple[str, list[str], str | None]] = []
    for net, subsystems in NETS.items():
        for mode, flags in (("distributed", []), ("central", ["--central"])):
            doc = str(tmp / f"{net}.{mode}.json")
            out.append((f"synthesize.{net}.{mode}",
                        ["synthesize", *_net_args(net), *flags, "--oracle", "--json", "--out", doc], doc))
        for s in subsystems:
            out.append((f"distribute.{net}.{s}",
                        ["distribute", *_net_args(net), "--subsystem", s, "--oracle", "--json"], None))
    single = ["--partition", inputs["chain2_single"]]
    eps_runs = [("eps_tree", "distributed", []), ("eps_tree", "central", ["--central"])]
    eps_runs += [(f"chain{k}", "distributed", []) for k in CHAINS]
    eps_runs += [("chain2", "single_group", single)]
    for topo, mode, flags in eps_runs:
        doc = str(tmp / f"eps.{topo}.{mode}.json")
        out.append((f"eps.{topo}.{mode}", ["eps", inputs[topo], *flags, "--json", "--out", doc], doc))
    return out


def _run(argv: list[str], tmp: Path) -> tuple[bytes, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return f"{code}\n".encode(), buf.getvalue().replace(str(tmp), "<tmp>").encode()


def run_case(argv: list[str], doc: str | None, tmp: Path) -> dict[str, bytes]:
    """The case's snapshot files: exit code and stdout and, when it wrote a
    document, the document and the exit code and stdout of `verify --oracle`
    on it (synthesize cases only: an EPS run has no network file)."""
    files = dict(zip(("exit", "stdout"), _run(argv, tmp)))
    if doc is not None and Path(doc).exists():
        files["doc.json"] = Path(doc).read_bytes()
        if argv[0] == "synthesize":
            verify = ["verify", argv[1], argv[2], doc, "--oracle", "--json"]
            files["verify.exit"], files["verify.stdout"] = _run(verify, tmp)
    return files


def test_outputs_match_snapshots(tmp_path):
    recorded = {p.name for p in GOLDEN.iterdir()}
    produced = set()
    for name, argv, doc in cases(tmp_path):
        for suffix, data in run_case(argv, doc, tmp_path).items():
            produced.add(f"{name}.{suffix}")
            path = GOLDEN / f"{name}.{suffix}"
            assert path.is_file(), f"no snapshot {path.name}"
            assert path.read_bytes() == data, f"{path.name} differs from its snapshot"
    assert produced == recorded


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, doc in cases(Path(tmp)):
            for suffix, data in run_case(argv, doc, Path(tmp)).items():
                (GOLDEN / f"{name}.{suffix}").write_bytes(data)


if __name__ == "__main__":
    _record()
