"""One benchmark job, run as a child process of perfbench/run.py.

    python3 perfbench/job.py PROBE MODE cli ARG...
    python3 perfbench/job.py PROBE MODE participation SEED

``cli`` calls ``msolv.cli.main([ARG...])`` exactly as the ``msolv`` console
script does. ``participation`` computes the semantic participation of every
auction action at N=5, width 2, in an order shuffled by SEED, and prints
each action's participants and coverage violations as JSON. Either way the
interpreter then exits normally with the return code, so the job's wall
time includes interpreter teardown.

PROBE receives a JSON object of ``time.monotonic()`` stamps, which on Linux
share one clock with the parent process: ``import_done`` (``import msolv``
finished), ``first_checker_call`` (first call into check_compositional,
check_safety, global_oracle or semantic_pt), ``main_returned`` and
``probe_done``. MODE ``plain`` adds nothing else. MODE ``objects`` adds
the number of live objects once main has returned. MODE ``spans`` wraps the
msolv layers in perfbench/tracer.py and adds their span aggregates; the
wrappers' frames stay alive wherever msolv leaks frames, so live objects
and teardown are counted without them.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

CHECKER_LAYER = (("checker", "check_compositional"), ("checker", "check_safety"),
                 ("checker", "global_oracle"), ("ptg", "semantic_pt"))


def _mark_first_checker_call(probe: dict) -> None:
    from tracer import rebind

    for module, func in CHECKER_LAYER:
        fn = getattr(sys.modules[f"msolv.{module}"], func)

        def marked(*args, _fn=fn, **kwargs):
            if "first_checker_call" not in probe:
                probe["first_checker_call"] = time.monotonic()
            return _fn(*args, **kwargs)

        rebind(fn, marked)


def _participation(seed: int) -> int:
    import random

    import msolv

    with open(os.path.join(ROOT, "tests", "data", "auction.msol"), encoding="utf-8") as fh:
        bundle = msolv.load(fh.read())
    graph = msolv.build_ptg(msolv.taint_summary(bundle))
    domain = msolv.DataDomain(2)
    actions = list(msolv.enumerate_actions(bundle, range(5), domain))
    random.Random(seed).shuffle(actions)
    rows = []
    for act in actions:
        pt = msolv.semantic_pt(bundle, 5, act, domain)
        rows.append({"action": [act.tx, list(act.clients), list(act.args)],
                     "explicit": sorted(map(list, pt.explicit)),
                     "transient": sorted(map(list, pt.transient)),
                     "implicit": sorted(pt.implicit),
                     "participants": sorted(pt.participants),
                     "violations": msolv.coverage_violations(graph, pt)})
    rows.sort(key=lambda r: r["action"])
    print(json.dumps(rows, indent=1))
    return 0


def main() -> int:
    probe_path, mode, kind, *rest = sys.argv[1:]
    import msolv.cli

    probe = {"import_done": time.monotonic()}
    tracer = None
    if mode == "spans":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    _mark_first_checker_call(probe)
    if kind == "cli":
        rc = msolv.cli.main(rest)
    else:
        rc = _participation(int(rest[0]))
    probe["main_returned"] = time.monotonic()
    if mode == "objects":
        import gc

        probe["live_objects"] = len(gc.get_objects())
    if tracer is not None:
        probe["layers"] = tracer.report()
    probe["probe_done"] = time.monotonic()
    with open(probe_path, "w", encoding="utf-8") as fh:
        json.dump(probe, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
