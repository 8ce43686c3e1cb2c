"""Command-line interface.

Subcommands::

    validate   <net>                              well-posedness report
    synthesize <net> <contract> [--central] [--out FILE] [--oracle] [--json]
    verify     <net> <contract> <controllers> [--oracle] [--json]
    distribute <net> <contract> --subsystem NAME [--oracle] [--json]
    eps        <topology> [--partition FILE] [--central] [--out FILE]
               [--oracle] [--json]

Exit codes: 0 success/realizable, 1 unrealizable or verification failure,
2 input or usage error, including an instance whose truth tables would
exceed ``boolfunc.MAX_TABLE_CELLS`` (`TableTooLargeError`, a ValueError),
that runs out of memory (`MemoryError`) or that nests past the interpreter's
recursion limit (`RecursionError`), 3 the ``--oracle`` cross-check
disagrees.
``--oracle`` cross-checks the command's result against an independent
reference: brute-force controller enumeration for synthesize/eps and the
subset biclique oracle for distribute, each only when the instance fits its
budget (otherwise the report says the cross-check was skipped and why), and
existential substitution along the wiring for verify.  Every synthesized
controller, central or distributed, is verified on the closed loop of the
network itself before it is reported, and `verify` checks a controller
document the same way: a central controller is simulated on the network it
controls, not on the flattened system it was synthesized against.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import eps as eps_mod
from . import formats
from .boolfunc import _set_cells
from .contracts import ContractPair, build_distribution_graph, distributions_from_graph
from .network import BooleanNetwork, all_outputs, external_inputs
from .oracle import (
    BudgetExceededError,
    brute_force_distributed,
    enumerate_bicliques_subset,
    verify_by_substitution,
    verify_closed_loop,
)
from .synthesis import (
    centralized_synthesis,
    completeness_certificate,
    distributed_synthesis,
)

EXIT_OK = 0
EXIT_UNREALIZABLE = 1
EXIT_INPUT_ERROR = 2
EXIT_ORACLE_DISAGREES = 3


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(formats.dumps(report))
    else:
        for line in lines:
            print(line)


def _oracle_cross_check(net: BooleanNetwork, contract: ContractPair, claimed: bool) -> dict:
    try:
        found = brute_force_distributed(net, contract)
    except BudgetExceededError as exc:
        return {"ran": False, "reason": str(exc)}
    return {"ran": True, "oracle_realizable": found is not None, "agrees": (found is not None) == claimed}


def _cmd_validate(args) -> int:
    net = formats.load_network(args.network)
    problems = list(net.violations)
    report = {"command": "validate", "well_posed": not problems, "violations": problems}
    _emit(report, args.json, ["well-posed" if not problems else "ill-posed:"] + [f"  - {p}" for p in problems])
    return EXIT_OK if not problems else EXIT_INPUT_ERROR


def _synthesize_and_report(args, net: BooleanNetwork, contract: ContractPair,
                           report: dict, lines: list[str]) -> int:
    """Shared by `synthesize` and `eps`: central or distributed synthesis,
    closed-loop verification of a success, the controller document of a
    verified one, the oracle cross-check and the report."""
    if args.central:
        controller = centralized_synthesis(net, contract)
        success = controller is not None
        lines.append(f"centralized synthesis: {'realizable' if success else 'unrealizable'}")
        if success:
            controllers = {controller.subsystem: controller}
    else:
        outcome = distributed_synthesis(net, contract)
        success = outcome.success
        report["trace"] = formats.trace_document(outcome)
        lines.append(f"distributed synthesis: {'success' if success else 'failure'}")
        if success:
            controllers = outcome.controllers
        else:
            lines.append("trace:")
            lines.extend(f"  {t['subsystem']} split#{t['distribution']}: lra = {t['lra']}" for t in report["trace"])
            if report["completeness_certificate"]:
                lines.append("completeness certificate holds: no distributed controller exists")
    report["success"] = success
    verified = False
    if success:
        verified = verify_closed_loop(net, controllers, contract).ok
        report["closed_loop_verified"] = verified
        lines.append(f"closed loop verified: {verified}")
        if args.out and verified:
            document = (formats.central_document(controller) if args.central
                        else formats.controllers_document(net, outcome, report["trace"]))
            formats.dump_document(args.out, document)
            report["out"] = args.out
            lines.append(f"controller document written to {args.out}")
    agrees = True
    if args.oracle:
        check = _oracle_cross_check(net, contract, success)
        report["oracle"] = check
        if check["ran"]:
            agrees = check["agrees"]
            lines.append(f"oracle cross-check: {'agrees' if agrees else 'DISAGREES'}")
        else:
            lines.append(f"oracle cross-check skipped: {check['reason']}")
    _emit(report, args.json, lines)
    if not agrees:
        return EXIT_ORACLE_DISAGREES
    return EXIT_OK if success and verified else EXIT_UNREALIZABLE


def _cmd_synthesize(args) -> int:
    net = formats.load_network(args.network)
    contract = formats.load_contract(args.contract, net)
    cert = completeness_certificate(net, contract)
    report = {"command": "synthesize", "central": args.central, "completeness_certificate": cert}
    return _synthesize_and_report(args, net, contract, report, [f"completeness certificate: {cert}"])


def _cmd_verify(args) -> int:
    net = formats.load_network(args.network)
    contract = formats.load_contract(args.contract, net)
    _, controllers = formats.load_controllers(args.controllers, net)
    result = verify_closed_loop(net, controllers, contract)
    ok, counterexample = result.ok, result.counterexample
    report = {"command": "verify", "ok": ok,
              "counterexample": str(counterexample) if counterexample else None}
    lines = ["closed loop satisfies the contract" if ok
             else f"contract violated at {counterexample}"]
    agrees = True
    if args.oracle:
        agrees = verify_by_substitution(net, controllers, contract) == result
        report["oracle"] = {"ran": True, "agrees": agrees}
        lines.append(f"symbolic cross-check: {'agrees' if agrees else 'DISAGREES'}")
    _emit(report, args.json, lines)
    if not agrees:
        return EXIT_ORACLE_DISAGREES
    return EXIT_OK if ok else EXIT_UNREALIZABLE


def _cmd_distribute(args) -> int:
    net = formats.load_network(args.network)
    contract = formats.load_contract(args.contract, net)
    if args.subsystem not in net.names:
        print(f"unknown subsystem {args.subsystem!r}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    graph = build_distribution_graph(contract.guarantee, net, args.subsystem)
    dists = distributions_from_graph(graph)
    report = {
        "command": "distribute",
        "subsystem": args.subsystem,
        "distributions": [
            {"down": d.down.to_expr(), "up": d.up.to_expr()} for d in dists
        ],
    }
    lines = [f"{len(dists)} maximal distribution(s) for {args.subsystem}:"]
    for k, d in enumerate(dists):
        lines.append(f"  {k}: down = {d.down.to_expr()} | up = {d.up.to_expr()}")
    agrees = True
    if args.oracle:
        try:
            want = set(enumerate_bicliques_subset(graph))
        except BudgetExceededError as exc:
            report["oracle"] = {"ran": False, "reason": str(exc)}
            lines.append(f"biclique cross-check skipped: {exc}")
        else:
            got = {tuple(frozenset(_set_cells(f.bits)) for f in (d.down, d.up)) for d in dists}
            agrees = got == want
            report["oracle"] = {"ran": True, "agrees": agrees}
            lines.append(f"biclique cross-check: {'agrees' if agrees else 'DISAGREES'}")
    _emit(report, args.json, lines)
    return EXIT_OK if agrees else EXIT_ORACLE_DISAGREES


def _cmd_eps(args) -> int:
    topo = eps_mod.load_topology(args.topology)
    partition = eps_mod.load_partition(args.partition) if args.partition else None
    net, contract = eps_mod.compile_to_network(topo, partition)
    cert = completeness_certificate(net, contract)
    lines = [
        f"compiled {len(net.subsystems)} subsystem(s): " + ", ".join(net.names),
        "system graph edges: " + (", ".join(f"{a}->{b}" for a, b in net.edges) or "(none)"),
        f"external inputs: {len(external_inputs(net))}, controls: "
        f"{sum(len(s.controls) for s in net.subsystems)}, outputs: {len(all_outputs(net))}",
        f"completeness certificate: {cert}",
    ]
    report: dict = {
        "command": "eps",
        "subsystems": list(net.names),
        "edges": [list(e) for e in net.edges],
        "completeness_certificate": cert,
        "central": args.central,
    }
    return _synthesize_and_report(args, net, contract, report, lines)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="boolsynth",
        description="Distributed controller synthesis for boolean networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check well-posedness of a network file")
    p.add_argument("network")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("synthesize", help="synthesize controllers for a contract")
    p.add_argument("network")
    p.add_argument("contract")
    p.add_argument("--central", action="store_true", help="single full-information controller")
    p.add_argument("--out", help="write the controller document here")
    p.add_argument("--oracle", action="store_true", help="cross-check with brute force")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("verify", help="verify a controller document against a contract")
    p.add_argument("network")
    p.add_argument("contract")
    p.add_argument("controllers")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check by existential substitution along the wiring")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("distribute", help="list maximal guarantee distributions")
    p.add_argument("network")
    p.add_argument("contract")
    p.add_argument("--subsystem", required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check against the biclique oracle")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_distribute)

    p = sub.add_parser("eps", help="compile a power topology, then synthesize and verify")
    p.add_argument("topology")
    p.add_argument("--partition", help="explicit grouping file")
    p.add_argument("--central", action="store_true")
    p.add_argument("--out", help="write the controller document here")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eps)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError:
        print("error: out of memory: the instance's tables do not fit this process", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RecursionError:
        print("error: too deep: the instance nests past the interpreter's recursion limit", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
