from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from boolsynth.boolfunc import VariableSet
from boolsynth.contracts import ContractPair
from boolsynth.network import BooleanNetwork, BooleanSystem, Interconnection, Link
from boolsynth.network import all_outputs, external_inputs
from boolsynth.parser import parse_expr

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CHILD_MEMORY = 1 << 30  # address-space limit of `run_with_memory_limit`, bytes


def run_with_memory_limit(source: str, *args: str) -> subprocess.CompletedProcess:
    """Run Python `source` (with `args` as sys.argv[1:]) in a child process
    whose address space is capped at CHILD_MEMORY, with this checkout's
    sources importable.  Tests of the table-size guard run there, so a
    missing guard fails with a MemoryError instead of exhausting the
    machine."""
    prologue = (
        "import resource\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({CHILD_MEMORY}, {CHILD_MEMORY}))\n"
    )
    env = dict(os.environ)
    src = str(FIXTURES.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", prologue + source, *args],
        env=env, capture_output=True, text=True, timeout=60,
    )


def _ac(name: str, kind: str) -> dict:
    return {"name": name, "kind": kind, "current": "ac"}


def _wire(a: str, b: str, contactor: str) -> dict:
    return {"a": a, "b": b, "contactor": contactor}


# Topology documents in which a generated output name of group S0 repeats
# another of its outputs, each with the repeated name.
COLLIDING_TOPOLOGIES = {
    # a bus named like the coupling bit of the two generators feeding it
    "bus_named_couple": ({
        "nodes": [_ac("G1", "generator"), _ac("G2", "generator"), _ac("couple_G1_G2", "bus")],
        "edges": [_wire("G1", "couple_G1_G2", "k1"), _wire("G2", "couple_G1_G2", "k2")],
    }, "couple_G1_G2"),
    # the pairs (a, b_c) and (a_b, c) both name their coupling bit couple_a_b_c
    "pairs_named_alike": ({
        "nodes": [_ac(g, "generator") for g in ("a", "b_c", "a_b", "c")] + [_ac("B", "bus")],
        "edges": [_wire(g, "B", f"k_{g}") for g in ("a", "b_c", "a_b", "c")],
    }, "couple_a_b_c"),
    # a bus named like the feed bit exported for the dummy node J
    "bus_named_feed": ({
        "nodes": [_ac("G1", "generator"), _ac("J", "dummy"), _ac("B2", "bus"), _ac("feed_J", "bus")],
        "edges": [_wire("G1", "J", "k1"), _wire("J", "B2", "kf"), _wire("G1", "feed_J", "k2")],
        "feeders": ["kf"],
    }, "feed_J"),
}


def make_system(name, controls, env_inputs, outputs):
    """Build a subsystem from {output: expression} over controls + env."""
    cs, es = VariableSet(controls), VariableSet(env_inputs)
    scope = cs.union(es)
    return BooleanSystem(
        name,
        cs,
        es,
        VariableSet(list(outputs)),
        {y: parse_expr(expr, scope) for y, expr in outputs.items()},
    )


def make_contract(net, assumption, guarantee):
    return ContractPair(
        parse_expr(assumption, external_inputs(net)),
        parse_expr(guarantee, all_outputs(net)),
    )


def serial_chain_net() -> BooleanNetwork:
    """Two-subsystem chain: y1 = u1 feeds S2, y2 = (e2 | y1) & u2."""
    s1 = make_system("S1", ["u1"], ["e1"], {"y1": "u1"})
    s2 = make_system("S2", ["u2"], ["e2", "e2_from_y1"], {"y2": "(e2 | e2_from_y1) & u2"})
    return BooleanNetwork((s1, s2), Interconnection((Link("S1", "y1", "S2", "e2_from_y1"),)))


def xor_assumption_net() -> BooleanNetwork:
    """Same chain but y1 = e1 & u1; paired with the non-conjunctive e1 ^ e2
    assumption it defeats completeness."""
    s1 = make_system("S1", ["u1"], ["e1"], {"y1": "e1 & u1"})
    s2 = make_system("S2", ["u2"], ["e2", "e2_from_y1"], {"y2": "(e2 | e2_from_y1) & u2"})
    return BooleanNetwork((s1, s2), Interconnection((Link("S1", "y1", "S2", "e2_from_y1"),)))


def shared_or_guarantee_net() -> BooleanNetwork:
    """Chain where the guarantee y1 | y2 couples both subsystems' outputs."""
    s1 = make_system("S1", ["u1"], ["e1"], {"y1": "e1 & u1"})
    s2 = make_system("S2", ["u2"], ["e2", "e2_from_y1"], {"y2": "(e2 | u2) & !e2_from_y1"})
    return BooleanNetwork((s1, s2), Interconnection((Link("S1", "y1", "S2", "e2_from_y1"),)))


def two_parents_net() -> BooleanNetwork:
    """Adds S3 fed by both S1 and S2, so the system graph is not a forest."""
    s1 = make_system("S1", ["u1"], ["e1"], {"y1": "e1 & u1"})
    s2 = make_system("S2", ["u2"], ["e2", "e2_from_y1"], {"y2": "(e2 | u2) & !e2_from_y1"})
    s3 = make_system("S3", ["u3"], ["e3_from_y1", "e3_from_y2"], {"y3": "e3_from_y1 | e3_from_y2"})
    wiring = Interconnection(
        (
            Link("S1", "y1", "S2", "e2_from_y1"),
            Link("S1", "y1", "S3", "e3_from_y1"),
            Link("S2", "y2", "S3", "e3_from_y2"),
        )
    )
    return BooleanNetwork((s1, s2, s3), wiring)


@pytest.fixture
def serial_chain():
    net = serial_chain_net()
    return net, make_contract(net, "e1", "y2")


@pytest.fixture
def xor_assumption():
    net = xor_assumption_net()
    return net, make_contract(net, "e1 ^ e2", "y2")


@pytest.fixture
def shared_or_guarantee():
    net = shared_or_guarantee_net()
    return net, make_contract(net, "true", "y1 | y2")


@pytest.fixture
def two_parents():
    net = two_parents_net()
    return net, make_contract(net, "true", "y3")
