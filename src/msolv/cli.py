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
from .checker import (Verdict, check_compositional, check_safety, global_oracle,
                      verdict_to_json, _action_json, _state_json)
from .errors import MsolvError
from .localization import extend_neighbourhood, saturating_neighbourhood
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

    def common(sp, with_spec: bool):
        sp.add_argument("contract", help="MicroSol source file (.msol)")
        if with_spec:
            sp.add_argument("spec", help="spec file with an invariant and properties")
        sp.add_argument("--width", type=int, default=8, metavar="W",
                        help="data domain width in bits (default 8)")
        sp.add_argument("--format", choices=("json", "text"), default="json")

    sp = sub.add_parser("parse", help="parse and validate; report the layout")
    common(sp, with_spec=False)
    sp.add_argument("--dump-ast", action="store_true", help="print the AST as JSON")

    sp = sub.add_parser("ptg", help="taint summary and participation graph")
    common(sp, with_spec=False)
    sp.add_argument("--dot", action="store_true", help="print the graph as DOT")

    sp = sub.add_parser("neighbourhood", help="representative address sets")
    common(sp, with_spec=True)

    sp = sub.add_parser("simulate", help="run a JSON trace through the semantics")
    common(sp, with_spec=False)
    sp.add_argument("--trace", required=True, metavar="FILE",
                    help="JSON list of {tx, clients, args}")
    sp.add_argument("--users", type=int, default=4, metavar="N")

    sp = sub.add_parser("check", help="compositionality then safety proof rules")
    common(sp, with_spec=True)
    sp.add_argument("--budget-states", type=int, default=10_000_000, metavar="S")
    sp.add_argument("--budget-secs", type=float, default=60.0, metavar="T")
    sp.add_argument("--assume-invariant", action="store_true",
                    help="skip the compositionality gate and run the safety "
                         "rule directly; Safe then certifies the local bundle "
                         "only (cross-check with the oracle)")

    sp = sub.add_parser("oracle", help="exhaustive check at a fixed user count")
    common(sp, with_spec=True)
    sp.add_argument("--users", type=int, default=4, metavar="N")
    sp.add_argument("--budget-states", type=int, default=10_000_000, metavar="S")
    sp.add_argument("--budget-secs", type=float, default=300.0, metavar="T")
    return p


def _load_bundle(path: str):
    with open(path, encoding="utf-8") as fh:
        return validate(parse(fh.read()))


def _load_spec(path: str, layout):
    with open(path, encoding="utf-8") as fh:
        return parse_spec(fh.read(), layout)


def _emit(payload: dict, fmt: str, renderer) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        print(renderer(payload))


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


def report(verdict: Verdict, fmt: str = "json", name: str = "check") -> str:
    """Render a verdict: the published JSON schema, or an aligned
    human-readable text with numbered, replayable trace steps."""
    if fmt == "json":
        return json.dumps(verdict_to_json(verdict), indent=2)
    return _render_verdict_text(name, verdict)


def _cmd_parse(args) -> int:
    bundle = _load_bundle(args.contract)
    if args.dump_ast:
        print(json.dumps(ast_nodes.to_json(bundle.unit), indent=2))
        return EXIT_SAFE
    layout = bundle.layout
    payload = {
        "contracts": [c.name for c in bundle.unit.contracts],
        "layout": {"roles": list(layout.roles), "data": list(layout.data),
                   "maps": list(layout.maps)},
        "transactions": {name: {"clients": bundle.signature(name).clients,
                                "args": bundle.signature(name).args}
                         for name in bundle.tx_order},
    }
    _emit(payload, args.format, lambda p: json.dumps(p, indent=2))
    return EXIT_SAFE


def _cmd_ptg(args) -> int:
    bundle = _load_bundle(args.contract)
    summary = taint_summary(bundle)
    graph = build_ptg(summary)
    if args.dot:
        print(graph.to_dot())
        return EXIT_SAFE
    payload = {
        "summary": {"args": sorted(summary.args), "roles": sorted(summary.roles),
                    "lits": sorted(summary.lits)},
        "graph": graph.to_json(),
    }
    _emit(payload, args.format, lambda p: json.dumps(p, indent=2))
    return EXIT_SAFE


def _cmd_neighbourhood(args) -> int:
    bundle = _load_bundle(args.contract)
    spec = _load_spec(args.spec, bundle.layout)
    graph = build_ptg(taint_summary(bundle))
    theta = spec.invariant
    base = saturating_neighbourhood(graph, theta.role_guard_indices,
                                    theta.lit_guard_addresses)
    payload = {
        "saturating": {"exp": sorted(base.exp), "trans": sorted(base.trans),
                       "impl": sorted(base.impl),
                       "addresses": list(base.addresses)},
        "compositionality": list(extend_neighbourhood(base, "compositionality")),
        "safety": {},
    }
    for prop in spec.properties:
        nb = saturating_neighbourhood(
            graph, theta.role_guard_indices | prop.role_guard_indices,
            theta.lit_guard_addresses | prop.lit_guard_addresses)
        payload["safety"][prop.name] = list(extend_neighbourhood(nb, "safety",
                                                                 k=prop.k))
    _emit(payload, args.format, lambda p: json.dumps(p, indent=2))
    return EXIT_SAFE


def _cmd_simulate(args) -> int:
    bundle = _load_bundle(args.contract)
    domain = DataDomain(args.width)
    with open(args.trace, encoding="utf-8") as fh:
        raw = json.load(fh)
    state = init_state(bundle, range(args.users))
    out = [{"state": _state_json(state)}]
    for entry in raw:
        action = Action(entry["tx"], tuple(entry.get("clients", ())),
                        tuple(entry.get("args", ())))
        state = step(bundle, state, action, domain)
        out.append({"action": _action_json(action), "state": _state_json(state)})
        if state.is_bottom:
            break
    _emit({"trace": out}, args.format, lambda p: json.dumps(p, indent=2))
    return EXIT_SAFE


def _emit_verdicts(results: dict[str, Verdict], fmt: str) -> int:
    """Print named verdicts and map them to the exit code: 2 if any ran out
    of budget, else 0 if all are safe, else 1."""
    payload = {name: verdict_to_json(v) for name, v in results.items()}
    _emit(payload, fmt,
          lambda p: "\n".join(_render_verdict_text(n, v) for n, v in results.items()))
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
    budgets = {"budget_states": args.budget_states, "budget_secs": args.budget_secs}
    results: dict[str, Verdict] = {}
    proceed = True
    if not args.assume_invariant:
        comp = check_compositional(bundle, graph, spec.invariant, domain, **budgets)
        results["compositionality"] = comp
        proceed = comp.is_safe
    if proceed:
        for prop in spec.properties:
            results[prop.name] = check_safety(
                bundle, graph, spec.invariant, prop, domain,
                require_interference_invariant=False, **budgets)
    return _emit_verdicts(results, args.format)


def _cmd_oracle(args) -> int:
    bundle = _load_bundle(args.contract)
    domain = DataDomain(args.width)
    if args.users < 2:
        print("oracle needs at least 2 users", file=sys.stderr)
        return EXIT_ERROR
    spec = _load_spec(args.spec, bundle.layout)
    results: dict[str, Verdict] = {}
    for prop in spec.properties:
        results[prop.name] = global_oracle(bundle, args.users, prop, domain,
                                           budget_states=args.budget_states,
                                           budget_secs=args.budget_secs)
    return _emit_verdicts(results, args.format)


def main(argv: list[str] | None = None) -> int:
    parser = _build_argparser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code not in (0, None) else 0
    handlers = {
        "parse": _cmd_parse,
        "ptg": _cmd_ptg,
        "neighbourhood": _cmd_neighbourhood,
        "simulate": _cmd_simulate,
        "check": _cmd_check,
        "oracle": _cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except MsolvError as e:
        print(f"msolv: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as e:
        print(f"msolv: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
