"""Command line driver.

    msolv <subcommand> <contract.msol> [spec.spec] [options]

Subcommands expose the pipeline stage by stage: parse, ptg, neighbourhood,
simulate, check (compositionality rule, then the safety rule per property),
and oracle (exhaustive fixed-size search). Exit codes: 0 safe, 1 any
counterexample, 2 usage or tool error (including budget exhaustion).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import ast_nodes
from .checker import (DEFAULT_BUDGET_SECS, DEFAULT_BUDGET_STATES, DEFAULT_ORACLE_BUDGET_SECS,
                      Trace, Verdict, check_spec, global_oracle, trace_to_json,
                      verdict_to_json)
from .errors import InputError, MsolvError, TooFewUsers
from .localization import rule_neighbourhood
from .parser import parse
from .properties import parse_spec
from .ptg import build_ptg, taint_summary
from .semantics import Action, DataDomain, init_state, step
from .validator import validate

EXIT_SAFE = 0
EXIT_CEX = 1
EXIT_ERROR = 2


def _build_argparser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="msolv", description="MicroSol parameterized safety checker")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str, spec: bool = False,
                width: bool = False, fmt: bool = False):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(handler=handler)
        sp.add_argument("contract", help="MicroSol source file (.msol)")
        if spec:
            sp.add_argument("spec", help="spec file with an invariant and properties")
        if width:
            sp.add_argument("--width", type=int, default=8, metavar="W",
                            help="data domain width in bits, 1 to 64 (default 8)")
        if fmt:
            sp.add_argument("--format", choices=("json", "text"), default="json")
        return sp

    sp = command("parse", _cmd_parse, "parse and validate; report the layout")
    sp.add_argument("--dump-ast", action="store_true", help="print the AST as JSON")

    sp = command("ptg", _cmd_ptg, "taint summary and participation graph")
    sp.add_argument("--dot", action="store_true", help="print the graph as DOT")

    command("neighbourhood", _cmd_neighbourhood, "representative address sets", spec=True)

    sp = command("simulate", _cmd_simulate, "run a JSON trace through the semantics", width=True)
    sp.add_argument("--trace", required=True, metavar="FILE",
                    help="JSON list of {tx, clients, args}")
    sp.add_argument("--users", type=int, default=4, metavar="N")

    sp = command("check", _cmd_check, "compositionality then safety proof rules",
                 spec=True, width=True, fmt=True)
    sp.add_argument("--budget-states", type=int, default=DEFAULT_BUDGET_STATES, metavar="S")
    sp.add_argument("--budget-secs", type=float, default=DEFAULT_BUDGET_SECS, metavar="T")
    sp.add_argument("--assume-invariant", action="store_true",
                    help="skip the compositionality gate and run the safety "
                         "rule directly; Safe then certifies the local bundle "
                         "only (cross-check with the oracle)")

    sp = command("oracle", _cmd_oracle, "exhaustive check at a fixed user count",
                 spec=True, width=True, fmt=True)
    sp.add_argument("--users", type=int, default=4, metavar="N")
    sp.add_argument("--budget-states", type=int, default=DEFAULT_BUDGET_STATES, metavar="S")
    sp.add_argument("--budget-secs", type=float, default=DEFAULT_ORACLE_BUDGET_SECS, metavar="T")
    return p


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise InputError(f"{path}: not UTF-8: {e}") from None


def _load_bundle(path: str):
    return validate(parse(_read_text(path)))


def _load_spec(path: str, layout):
    """The parsed spec; each of its warnings goes to stderr as one line."""
    spec = parse_spec(_read_text(path), layout)
    for warning in spec.warnings:
        print(f"msolv: warning: {warning}", file=sys.stderr)
    return spec


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _render_verdict_text(name: str, verdict: Verdict) -> str:
    lines = [f"{name}: {verdict.result.upper()}"]
    if verdict.reason:
        lines.append(f"  reason: {verdict.reason}")
    if verdict.result == "safe":
        lines.append(f"  reachable control states: {len(verdict.invariant)}")
    if verdict.trace is not None:
        lines.append(f"  trace ({len(verdict.trace)} action(s)):")
        lines.append(f"    0. initial {_fmt_state(verdict.trace.states[0])}")
        for i, (act, st) in enumerate(
                zip(verdict.trace.actions, verdict.trace.states[1:]), start=1):
            args = ",".join(map(str, act.args))
            clients = ",".join(map(str, act.clients))
            lines.append(f"    {i}. {act.tx}(clients={clients}; args={args}) "
                         f"-> {_fmt_state(st)}")
    st = verdict.stats
    lines.append(f"  stats: states={st.states} transitions={st.transitions} "
                 f"seconds={st.seconds}")
    return "\n".join(lines)


def _fmt_state(s) -> str:
    if s.is_bottom:
        return "s_bottom"
    c = s.control
    users = " ".join(f"{u.id}:{list(u.map_vals)}" for u in s.users)
    return f"roles={list(c.roles)} data={list(c.data)} ctor={c.ctor_done} [{users}]"


def _cmd_parse(args) -> int:
    bundle = _load_bundle(args.contract)
    if args.dump_ast:
        _print_json(ast_nodes.to_json(bundle.unit))
        return EXIT_SAFE
    layout = bundle.layout
    _print_json({
        "contracts": [c.name for c in bundle.unit.contracts],
        "layout": {"roles": list(layout.roles), "data": list(layout.data),
                   "maps": list(layout.maps)},
        "transactions": {name: {"clients": bundle.signature(name).clients,
                                "args": bundle.signature(name).args}
                         for name in bundle.tx_order},
    })
    return EXIT_SAFE


def _cmd_ptg(args) -> int:
    bundle = _load_bundle(args.contract)
    summary = taint_summary(bundle)
    graph = build_ptg(summary)
    if args.dot:
        print(graph.to_dot())
        return EXIT_SAFE
    _print_json({
        "summary": {"args": sorted(summary.args), "roles": sorted(summary.roles),
                    "lits": sorted(summary.lits)},
        "graph": graph.to_json(),
    })
    return EXIT_SAFE


def _cmd_neighbourhood(args) -> int:
    bundle = _load_bundle(args.contract)
    spec = _load_spec(args.spec, bundle.layout)
    graph = build_ptg(taint_summary(bundle))
    theta = spec.invariant
    base, comp = rule_neighbourhood(graph, theta)
    _print_json({
        "saturating": {"exp": sorted(base.exp), "trans": sorted(base.trans),
                       "impl": sorted(base.impl),
                       "addresses": list(base.addresses)},
        "compositionality": list(comp),
        "safety": {prop.name: list(rule_neighbourhood(graph, theta, prop)[1])
                   for prop in spec.properties},
    })
    return EXIT_SAFE


def _load_actions(path: str, bundle, domain: DataDomain) -> list[Action]:
    """A simulate trace: a JSON list of {tx, clients, args} objects whose
    client and argument counts match the transaction's signature and whose
    arguments lie in the data domain."""
    try:
        raw = json.loads(_read_text(path))
    except ValueError as e:
        raise InputError(f"{path}: not JSON: {e}") from None
    if not isinstance(raw, list):
        raise InputError(f"{path}: expected a JSON list of actions")
    actions = []
    for i, entry in enumerate(raw):
        where = f"{path}: entry {i}"
        if not isinstance(entry, dict) or not isinstance(entry.get("tx"), str):
            raise InputError(f"{where} is not an object with a \"tx\" name")
        sig = bundle.signature(entry["tx"])
        clients, targs = entry.get("clients", []), entry.get("args", [])
        if not (isinstance(clients, list) and isinstance(targs, list)
                and len(clients) == sig.clients and len(targs) == sig.args
                and all(type(c) is int for c in clients)
                and all(type(a) is int and 0 <= a < domain.limit for a in targs)):
            raise InputError(
                f"{where}: {sig.name} takes {sig.clients} integer client(s) and "
                f"{sig.args} argument(s) in [0, {domain.limit})")
        actions.append(Action(entry["tx"], tuple(clients), tuple(targs)))
    return actions


def _cmd_simulate(args) -> int:
    bundle = _load_bundle(args.contract)
    domain = DataDomain(args.width)
    actions = _load_actions(args.trace, bundle, domain)
    states = [init_state(bundle, range(args.users))]
    for action in actions:
        if states[-1].is_bottom:
            break
        states.append(step(bundle, states[-1], action, domain))
    trace = Trace(tuple(states), tuple(actions[:len(states) - 1]))
    _print_json({"trace": trace_to_json(trace)})
    return EXIT_SAFE


def _emit_verdicts(results: dict[str, Verdict], fmt: str) -> int:
    """Print named verdicts and map them to the exit code: 2 if any ran out
    of budget, else 0 if all are safe, else 1."""
    if fmt == "json":
        _print_json({name: verdict_to_json(v) for name, v in results.items()})
    else:
        print("\n".join(_render_verdict_text(n, v) for n, v in results.items()))
    if any(v.result == "exhausted" for v in results.values()):
        return EXIT_ERROR
    if all(v.is_safe for v in results.values()):
        return EXIT_SAFE
    return EXIT_CEX


def _cmd_check(args) -> int:
    bundle = _load_bundle(args.contract)
    domain = DataDomain(args.width)
    spec = _load_spec(args.spec, bundle.layout)
    graph = build_ptg(taint_summary(bundle))
    results = check_spec(bundle, graph, spec, domain, assume_invariant=args.assume_invariant,
                         budget_states=args.budget_states, budget_secs=args.budget_secs)
    return _emit_verdicts(results, args.format)


def _cmd_oracle(args) -> int:
    bundle = _load_bundle(args.contract)
    domain = DataDomain(args.width)
    if args.users < 2:
        raise TooFewUsers("oracle needs at least 2 users")
    spec = _load_spec(args.spec, bundle.layout)
    results = {prop.name: global_oracle(bundle, args.users, prop, domain,
                                        budget_states=args.budget_states,
                                        budget_secs=args.budget_secs)
               for prop in spec.properties}
    return _emit_verdicts(results, args.format)


def main(argv: list[str] | None = None) -> int:
    parser = _build_argparser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code not in (0, None) else 0
    try:
        return args.handler(args)
    except MsolvError as e:
        print(f"msolv: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as e:
        print(f"msolv: {e}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print("msolv: input nested too deeply", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
