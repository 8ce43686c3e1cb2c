"""The runtime imports only the standard library.  Every layer computes on
packed ints; numpy is imported only when one of the seven array edges of
`boolfunc` and `network`, where arrays come in or go out, is called."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from .conftest import FIXTURES, run_with_memory_limit

SOURCES = Path(__file__).resolve().parent.parent / "src" / "boolsynth"

ARRAY_EDGES = {
    "boolfunc": {"valuation_ranks", "valuation_bits", "BoolFunc.__init__", "BoolFunc.table",
                 "BoolFunc.evaluate_many"},
    "network": {"Controller.__init__", "Controller.table"},
}


def numpy_importers(tree: ast.Module) -> list[str | None]:
    """The qualified name of the function around each numpy import in
    `tree`, or None for an import that runs when the module is loaded."""
    found = []

    def visit(node: ast.AST, names: list[str], in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            else:
                modules = [child.module or ""] if isinstance(child, ast.ImportFrom) else []
            if any(module.split(".")[0] == "numpy" for module in modules):
                found.append(".".join(names) if in_function else None)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*names, child.name], in_function or not isinstance(child, ast.ClassDef))
            else:
                visit(child, names, in_function)

    visit(tree, [], False)
    return found


@pytest.mark.parametrize("module", sorted(path.stem for path in SOURCES.glob("*.py")))
def test_only_the_array_edges_import_numpy(module):
    importers = numpy_importers(ast.parse((SOURCES / f"{module}.py").read_text(encoding="utf-8")))
    assert None not in importers, f"{module} imports numpy when it is loaded"
    assert set(importers) == ARRAY_EDGES.get(module, set())


def test_the_importer_finder_sees_module_level_and_nested_imports():
    tree = ast.parse("import numpy\nclass A:\n    def f(self):\n        from numpy import ones\n"
                     "    import numpy.linalg\ndef g():\n    import json\n")
    assert numpy_importers(tree) == [None, "A.f", None]


CLI_RUN = """
import contextlib, io, json, os, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # `import numpy` raises ImportError
from boolsynth.cli import cli_main
os.chdir(sys.argv[2])
runs = []
for argv in json.loads(sys.argv[3]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    runs.append([argv, code, out.getvalue(), err.getvalue()])
documents = {name: open(name, encoding="utf-8").read() for name in sorted(os.listdir("."))}
print(json.dumps({"runs": runs, "documents": documents, "numpy": repr(sys.modules.get("numpy"))}))
"""


def test_every_command_runs_without_numpy(tmp_path):
    """With numpy blocked before boolsynth is imported, every command prints
    and writes what it does with numpy importable."""
    nets = {name: (str(FIXTURES / f"{name}.net.json"), str(FIXTURES / f"{name}.contract.json"))
            for name in ("serial_chain", "shared_or_guarantee")}
    argvs = [["validate", nets["serial_chain"][0]]]
    for name, (net, contract) in nets.items():
        argvs += [
            ["synthesize", net, contract, "--oracle", "--json", "--out", f"{name}.distributed.json"],
            ["synthesize", net, contract, "--central", "--oracle", "--out", f"{name}.central.json"],
            ["verify", net, contract, f"{name}.distributed.json", "--oracle"],
            ["verify", net, contract, f"{name}.central.json", "--oracle", "--json"],
            ["distribute", net, contract, "--subsystem", "S1", "--oracle"],
        ]
    argvs += [
        ["eps", str(FIXTURES / "eps_tree.topology.json"), "--oracle"],
        ["eps", str(FIXTURES / "eps_chain4.topology.json"), "--central", "--json", "--out", "chain4.json"],
    ]
    reports = {}
    for mode in ("blocked", "free"):
        (tmp_path / mode).mkdir()
        run = run_with_memory_limit(CLI_RUN, mode, str(tmp_path / mode), json.dumps(argvs))
        assert run.returncode == 0, run.stderr
        reports[mode] = json.loads(run.stdout)
    blocked, free = reports["blocked"], reports["free"]
    assert blocked.pop("numpy") == "None"
    assert free.pop("numpy") == "None"  # no command imports numpy
    assert [code for _, code, _, _ in free["runs"]] == [0] * len(argvs)
    assert len(free["documents"]) == 5
    assert blocked == free
