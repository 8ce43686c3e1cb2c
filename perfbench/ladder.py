"""EPS k-ladder: the largest chain solved within a fixed per-rung budget.

Rungs k = 1, 2, 3, ... run one at a time, each in a child process with a
wall-clock budget and a self-imposed address-space limit.  The ladder stops
at the first rung that is not solved.  A rung's outcome is `solved`,
`timeout` (killed at the budget), `memory` (MemoryError under the limit),
`wrong` (a verdict other than a verified success) or `crash`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

RUNG_BUDGET_S = 5.0      # wall seconds per rung, interpreter start-up included
RUNG_MEMORY_MB = 1024    # RLIMIT_AS of each rung's process
K_MAX = 6                # the ladder's ceiling


def run_ladder(run_py: str, workdir: str, k_max: int = K_MAX) -> tuple[int, list[dict]]:
    """Climb the ladder; returns (largest solved k, one record per rung)."""
    rungs: list[dict] = []
    best = 0
    for k in range(1, k_max + 1):
        cmd = [sys.executable, run_py, "--rung", str(k), "--workdir", workdir]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=RUNG_BUDGET_S)
            outcome = _outcome(out)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            outcome = "timeout"
        rung = {"k": k, "outcome": outcome, "seconds": time.perf_counter() - start}
        if outcome == "crash":
            rung["stderr_tail"] = err.strip().splitlines()[-1:]
        rungs.append(rung)
        if outcome != "solved":
            break
        best = k
    return best, rungs


def _outcome(out: str) -> str:
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])["outcome"]
    except (IndexError, ValueError, KeyError, TypeError):
        return "crash"


def rung_main(k: int, workdir: str) -> int:
    """Child side of one rung: solve the generated k-chain through the CLI."""
    limit = RUNG_MEMORY_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    # Backstop in case the parent is gone: the kernel stops a runaway rung.
    cpu = int(RUNG_BUDGET_S) + 2
    resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu))
    try:
        import boolsynth.cli as cli

        import instances

        topology = os.path.join(workdir, f"chain{k}.json")
        with open(topology, "w", encoding="utf-8") as fh:
            json.dump(instances.chain_topology(k), fh)
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.cli_main(["eps", topology, "--json", "--out", os.path.join(workdir, f"chain{k}.out.json")])
        seconds = time.perf_counter() - start
        report = json.loads(buf.getvalue()) if code in (cli.EXIT_OK, cli.EXIT_UNREALIZABLE) else {}
    except MemoryError:
        print(json.dumps({"outcome": "memory"}))
        return 3
    ok = code == cli.EXIT_OK and report.get("success") is True and report.get("closed_loop_verified") is True
    print(json.dumps({"outcome": "solved" if ok else "wrong", "seconds": seconds}))
    return 0 if ok else 1
