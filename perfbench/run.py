"""The msolv benchmark: verdict workloads timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload is a fixed set of jobs; one
*round* runs every job once, in an order shuffled by the seed, each job as
its own child process (perfbench/job.py), one at a time. Rounds repeat until
S seconds have passed. Every job's output goes through the correctness gate
(see ``check_job``); a job that fails it counts in ``failed``.

With ``--trace 0`` the jobs run untraced and the end-to-end metrics are
reported. With ``--trace 1`` traced rounds (job mode ``spans``) alternate
with untraced ones (mode ``objects``): the span metrics come from the
traced rounds, the ``cli.*`` metrics from the untraced ones, and
``trace.overhead_s`` is the difference between their median ``verdict_s``. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The environment, the per-round samples and every metric are also written
to ``perfbench/out/``. perfbench/RATIONALE.md says why each workload and
metric exists.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
EXPECTED = BENCH / "expected"
JOB = BENCH / "job.py"
CONTRACT = "tests/data/auction.msol"
REQUIRED = ("src/msolv/cli.py", CONTRACT, "tests/data/auction.spec",
            "tests/data/bad.spec", "tests/data/p2.spec", "tests/data/p2_weak.spec")
# Every run ends well inside three minutes, also when a job hangs.
RUN_DEADLINE_S = 150.0


@dataclass(frozen=True)
class Job:
    name: str
    kind: str                      # "cli" or "participation"
    argv: tuple[str, ...] = ()
    # verdict name -> (result, trace length in actions, or None for no trace)
    expect: dict = field(default_factory=dict)
    spec: str = ""                 # spec whose invariant local traces replay under
    width: int = 0
    oracle: bool = False           # oracle traces replay without the invariant

    @property
    def exit_code(self) -> int:
        return 0 if all(r == "safe" for r, _ in self.expect.values()) else 1


SAFE = ("safe", None)


def _check(name: str, spec: str, width: int, expect: dict, *flags: str) -> Job:
    return Job(name, "cli", ("check", CONTRACT, f"tests/data/{spec}", "--width",
                             str(width), *flags), expect, spec, width)


# Expected verdicts and trace lengths come from tests/test_acceptance.py and
# tests/test_checker.py; the exact verdict JSON is in perfbench/expected/.
WORKLOADS: dict[str, tuple[Job, ...]] = {
    "check-safe": (
        _check("auction-w3", "auction.spec", 3,
               {"compositionality": SAFE, "property-1": SAFE}),),
    "oracle": (
        Job("oracle-n6-w3", "cli",
            ("oracle", CONTRACT, "tests/data/auction.spec", "--users", "6",
             "--width", "3"),
            {"property-1": SAFE}, "auction.spec", 3, oracle=True),),
    "check-short": (
        _check("bad-w3", "bad.spec", 3, {"compositionality": ("cex_invariant", 2)}),
        _check("p2-w3", "p2.spec", 3, {"compositionality": ("cex_invariant", 3)}),
        _check("p2weak-w3-assume", "p2_weak.spec", 3,
               {"property-1": ("cex_property", 3)}, "--assume-invariant"),
        _check("p2-w3-assume", "p2.spec", 3, {"property-1": SAFE},
               "--assume-invariant"),
        _check("auction-w2", "auction.spec", 2,
               {"compositionality": SAFE, "property-1": SAFE}),
    ),
    "participation": (Job("participation-n5-w2", "participation"),),
}

# Per-layer metrics read from span aggregates: metric -> (spans, field, unit).
SPAN_METRICS = {
    "parser.parse_s": (("parser.parse",), "self_s", "s"),
    "validator.validate_s": (("validator.validate",), "self_s", "s"),
    "properties.parse_spec_s": (("properties.parse_spec",), "self_s", "s"),
    "ptg.taint_summary_s": (("ptg.taint_summary",), "self_s", "s"),
    "ptg.build_ptg_s": (("ptg.build_ptg",), "self_s", "s"),
    "localization.neighbourhood_s": (("localization.saturating_neighbourhood",
                                      "localization.extend_neighbourhood"), "self_s", "s"),
    "localization.allowed_vectors_s": (("localization.allowed_vectors",), "self_s", "s"),
    "localization.allowed_vectors_calls": (("localization.allowed_vectors",), "calls", "count"),
    "semantics.explore_s": (("semantics.explore",), "self_s", "s"),
    "semantics.explore_calls": (("semantics.explore",), "calls", "count"),
    "semantics.explore_leaves": (("semantics.explore",), "count", "count"),
    "semantics.step_s": (("semantics.step",), "self_s", "s"),
    "semantics.step_calls": (("semantics.step",), "calls", "count"),
    "properties.eval_split_s": (("properties.eval_split",), "self_s", "s"),
    "properties.eval_split_calls": (("properties.eval_split",), "calls", "count"),
    "properties.eval_guarded_s": (("properties.eval_guarded",), "self_s", "s"),
    "properties.eval_guarded_calls": (("properties.eval_guarded",), "calls", "count"),
    "properties.check_universal_s": (("properties.check_universal",), "self_s", "s"),
    "properties.check_universal_calls": (("properties.check_universal",), "calls", "count"),
    "checker.compositional_s": (("checker.check_compositional",), "total_s", "s"),
    "checker.safety_s": (("checker.check_safety",), "total_s", "s"),
    "checker.oracle_s": (("checker.global_oracle",), "total_s", "s"),
    "checker.verdict_to_json_s": (("checker.verdict_to_json",), "self_s", "s"),
    "ptg.semantic_pt_s": (("ptg.semantic_pt",), "self_s", "s"),
    "ptg.semantic_pt_calls": (("ptg.semantic_pt",), "calls", "count"),
    "ptg.coverage_violations": (("ptg.coverage_violations",), "count", "count"),
}
OTHER_LAYER_UNITS = {
    "cli.start_s": "s", "cli.teardown_s": "s", "cli.live_objects": "count",
    "checker.self_s": "s", "checker.states": "count", "checker.transitions": "count",
    "checker.eval_split_per_state": "calls/state", "semantics.leaves_per_explore": "leaves/call",
    "semantics.step_revert_share": "ratio", "trace.overhead_s": "s",
}
# Counts that must repeat exactly between traced rounds.
EXACT_COUNTS = ("checker.states", "checker.transitions", "semantics.explore_calls",
                "semantics.step_calls")
# Counts that repeat only up to a race in the class engine: pool threads that
# miss the unlocked allowed-vector cache on the same control both fill it,
# and each duplicate fill costs one allowed_vectors call and 2**width
# eval_split calls. A difference is reported, not failed.
RACY_COUNTS = ("properties.eval_split_calls", "localization.allowed_vectors_calls")
# Traced-run completeness: (workload, layer count, the verdict count it must equal).
COMPLETENESS = (("check-safe", "semantics.explore_leaves", "checker.transitions"),
                ("oracle", "semantics.step_calls", "checker.transitions"))


@dataclass
class JobResult:
    job: Job
    mode: str                      # job.py MODE: plain, objects or spans
    launch: float
    exit: float
    rss_kb: int
    stdout: str
    probe: dict | None
    problems: list[str]

    @property
    def wall(self) -> float:
        return self.exit - self.launch

    @property
    def probe_s(self) -> float:
        """Time the probe itself spent after main returned."""
        return self.probe["probe_done"] - self.probe["main_returned"]


# ------------------------------------------------------------------ running

def run_job(job: Job, mode: str, seed: int, deadline: float) -> JobResult:
    probe_path, out_path, err_path = OUT / "probe.json", OUT / "stdout", OUT / "stderr"
    probe_path.unlink(missing_ok=True)
    args = list(job.argv) if job.kind == "cli" else [str(seed)]
    cmd = [sys.executable, str(JOB), str(probe_path), mode, job.kind, *args]
    # The program runs in its default configuration: one engine thread per CPU.
    env = {k: v for k, v in os.environ.items() if k != "MSOLV_THREADS"}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        launch = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - launch))
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            exit_ = time.monotonic()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    probe = None
    problems = [f"killed at the run deadline after {exit_ - launch:.1f}s"]
    if ready:
        probe = json.loads(probe_path.read_text()) if probe_path.exists() else None
        problems = check_job(job, rc, stdout, probe)
    stderr = err_path.read_text(encoding="utf-8", errors="replace").strip()
    if problems and stderr:
        problems.append(f"stderr: {stderr[-2000:]}")
    return JobResult(job, mode, launch, exit_, usage.ru_maxrss, stdout, probe, problems)


# --------------------------------------------------------- correctness gate

@functools.cache
def _msolv():
    """msolv from the checkout and the auction bundle, for trace replay."""
    sys.path.insert(0, str(ROOT / "src"))
    import msolv

    return msolv, msolv.load((ROOT / CONTRACT).read_text())


def _trace_from_json(msolv, entries: list):
    def state(s):
        c = s["control"]
        control = msolv.BOTTOM if c == "bottom" else msolv.ControlState(
            tuple(c["roles"]), tuple(c["data"]), c["ctor_done"])
        return msolv.BundleState(control, tuple(
            msolv.UserRecord(u["id"], tuple(u["maps"])) for u in s["users"]))

    states = tuple(state(e["state"]) for e in entries)
    actions = tuple(msolv.Action(e["action"]["tx"], tuple(e["action"]["clients"]),
                                 tuple(e["action"]["args"])) for e in entries[1:])
    return msolv.Trace(states, actions)


def _replay(job: Job, entries: list) -> None:
    msolv, bundle = _msolv()
    theta = None
    if not job.oracle:
        spec_text = (ROOT / "tests" / "data" / job.spec).read_text()
        theta = msolv.parse_spec(spec_text, bundle.layout).invariant
    msolv.replay_trace(bundle, _trace_from_json(msolv, entries),
                       msolv.DataDomain(job.width), theta=theta)


def expected_text(job: Job, stdout: str) -> str:
    """The job's output in the form kept in perfbench/expected/: compact
    JSON, with ``stats`` removed from each verdict."""
    payload = json.loads(stdout)
    if job.kind == "cli":
        for verdict in payload.values():
            verdict.pop("stats", None)
    return json.dumps(payload, separators=(",", ":")) + "\n"


def check_job(job: Job, rc: int, stdout: str, probe: dict | None) -> list[str]:
    """Why the job's output is wrong; empty when it passes the gate."""
    problems = []
    if rc != job.exit_code:
        problems.append(f"exit code {rc}, expected {job.exit_code}")
    if probe is None or "first_checker_call" not in probe:
        return problems + ["the job never reached the checker layer"]
    try:
        return problems + _check_output(job, stdout)
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        return problems + [f"malformed output: {type(e).__name__}: {e}"]


def _check_output(job: Job, stdout: str) -> list[str]:
    problems = []
    payload = json.loads(stdout)
    if job.kind == "participation":
        bad = [(row["action"], row["violations"]) for row in payload if row["violations"]]
        if bad:
            problems.append(f"coverage violations: {bad}")
    else:
        got = {name: (v.get("result"), len(v["trace"]) - 1 if "trace" in v else None)
               for name, v in payload.items()}
        if got != job.expect:
            problems.append(f"verdicts {got}, expected {job.expect}")
        for name, v in payload.items():
            if "trace" in v:
                try:
                    _replay(job, v["trace"])
                except ValueError as e:
                    problems.append(f"{name}: trace does not replay: {e}")
    want = (EXPECTED / f"{job.name}.json").read_text()
    if expected_text(job, stdout) != want:
        problems.append("output differs from perfbench/expected/")
    return problems


# ------------------------------------------------------------------ metrics

def _tail(samples: list[float]) -> tuple[float, str]:
    """The 90th percentile, interpolated between the two nearest samples.

    A percentile with at least ten samples beyond it needs eleven or more
    samples, and a run gets 3 to 13. Below eleven none exists; at eleven to
    thirteen it is the 10th to 23rd percentile. A run whose round count
    crosses eleven would then switch from the maximum to a low percentile,
    so the benchmark reports p90 at every sample count and prints the count.
    """
    if len(samples) == 1:
        return samples[0], "the only sample"
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[-1]
    return p90, f"p90 of {len(samples)} samples"


def _round_wall(rnd: list[JobResult]) -> float:
    return sum(r.wall for r in rnd)


def end_to_end(rounds: list[list[JobResult]], attempted: int, failed: int):
    rounds = [rnd for rnd in rounds
              if all(r.probe and "first_checker_call" in r.probe for r in rnd)]
    if not rounds:
        return {}, {}
    walls = [_round_wall(rnd) for rnd in rounds]
    setups = [sum(r.probe["first_checker_call"] - r.launch for r in rnd)
              for rnd in rounds]
    tail, basis = _tail(walls)
    metrics = {
        "verdict_s": (statistics.median(walls), "s"),
        "verdict_s_tail": (tail, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r.rss_kb for rnd in rounds for r in rnd) / 1024, "MB"),
        "verdicts_ok": ((attempted - failed) / attempted, "share"),
    }
    return metrics, {"verdict_s": walls, "setup_s": setups, "verdict_s_tail": basis}


def layer_counts(rnd: list[JobResult]) -> dict[str, float]:
    """Span-based values of one traced round, summed over its jobs."""
    spans: dict[str, dict] = {}
    for r in rnd:
        for name, agg in r.probe["layers"]["spans"].items():
            s = spans.setdefault(name, dict.fromkeys(agg, 0))
            for k, v in agg.items():
                s[k] += v
    m: dict[str, float] = {}
    for metric, (names, fld, _) in SPAN_METRICS.items():
        m[metric] = sum(spans.get(n, {}).get(fld, 0) for n in names)
    verdicts = [v for r in rnd if r.job.kind == "cli" for v in json.loads(r.stdout).values()]
    m["checker.states"] = sum(v["stats"]["states"] for v in verdicts)
    m["checker.transitions"] = sum(v["stats"]["transitions"] for v in verdicts)
    m["checker.self_s"] = sum(r.probe["layers"]["checker_self_s"] for r in rnd)
    m["checker.eval_split_per_state"] = (m["properties.eval_split_calls"] / m["checker.states"]
                                         if m["checker.states"] else 0.0)
    m["semantics.leaves_per_explore"] = (m["semantics.explore_leaves"] / m["semantics.explore_calls"]
                                         if m["semantics.explore_calls"] else 0.0)
    reverts = spans.get("semantics.step", {}).get("count", 0)
    m["semantics.step_revert_share"] = (reverts / m["semantics.step_calls"]
                                        if m["semantics.step_calls"] else 0.0)
    return m


def cli_counts(rnd: list[JobResult]) -> dict[str, float]:
    """Process-level values of one untraced round, summed over its jobs."""
    return {"cli.start_s": sum(r.probe["import_done"] - r.launch for r in rnd),
            # From main() returning to exit, less the probe's own object count.
            "cli.teardown_s": sum(r.exit - r.probe["probe_done"] for r in rnd),
            "cli.live_objects": sum(r.probe["live_objects"] for r in rnd)}


def per_layer(workload: str, rounds: list[list[JobResult]]):
    traced = [rnd for rnd in rounds if rnd[0].mode == "spans"]
    plain = [rnd for rnd in rounds if rnd[0].mode == "objects"]
    per_round = [layer_counts(rnd) for rnd in traced]
    problems, warnings = [], []
    for name in EXACT_COUNTS + RACY_COUNTS:
        values = {m[name] for m in per_round}
        if len(values) > 1:
            (problems if name in EXACT_COUNTS else warnings).append(
                f"{name} differs between traced rounds: {sorted(values)}")
    for wl, count, verdict_count in COMPLETENESS:
        if wl != workload:
            continue
        for m in per_round:
            if m[count] != m[verdict_count]:
                problems.append(f"{count} = {m[count]} but {verdict_count} = "
                                f"{m[verdict_count]}: a wrapper missed a binding")
    metrics = {}
    for values in (per_round, [cli_counts(rnd) for rnd in plain]):
        for name in values[0]:
            unit = SPAN_METRICS[name][2] if name in SPAN_METRICS else OTHER_LAYER_UNITS[name]
            metrics[name] = (statistics.median_low(m[name] for m in values), unit)

    def wall(rnds):
        return statistics.median(sum(r.wall - r.probe_s for r in rnd) for rnd in rnds)

    metrics["trace.overhead_s"] = (wall(traced) - wall(plain), "s")
    return metrics, problems, warnings, per_round


# --------------------------------------------------------------------- main

def environment() -> dict:
    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    # Jobs run with MSOLV_THREADS unset, so the engine uses os.cpu_count() threads.
    return {"nproc": len(os.sched_getaffinity(0)), "engine_threads": os.cpu_count(),
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "cpu_model": cpu, "platform": platform.platform()}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    missing = [f for f in REQUIRED if not (ROOT / f).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not an msolv checkout; missing {missing}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment()
    print("env:", json.dumps(env), flush=True)

    deadline = time.monotonic() + RUN_DEADLINE_S
    # Untimed warm-up: byte-compile msolv and load the interpreter from disk.
    subprocess.run([sys.executable, str(JOB), str(OUT / "probe.json"), "plain", "cli",
                    "parse", CONTRACT], cwd=ROOT, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=60)

    rng = random.Random(args.seed)
    rounds: list[list[JobResult]] = []
    min_rounds = 2 if args.trace else 1
    started = time.monotonic()
    durations: list[float] = []
    # Start a round only if a typical round still ends within the run.
    while (len(rounds) < min_rounds or time.monotonic() - started
           + statistics.median(durations) <= args.seconds):
        mode = "plain" if not args.trace else ("spans", "objects")[len(rounds) % 2]
        jobs = list(WORKLOADS[args.workload])
        rng.shuffle(jobs)
        t0 = time.monotonic()
        rnd = [run_job(job, mode, rng.randrange(1 << 32), deadline) for job in jobs]
        durations.append(time.monotonic() - t0)
        rounds.append(rnd)
        if any(r.problems for r in rnd) or time.monotonic() > deadline:
            break

    results = [r for rnd in rounds for r in rnd]
    attempted = len(results)
    failed = sum(1 for r in results if r.problems)
    problems = [f"{r.job.name}: {p}" for r in results for p in r.problems]
    samples: dict = {}
    if args.trace and failed:
        metrics = {}
    elif args.trace:
        metrics, extra, warnings, samples["layers"] = per_layer(args.workload, rounds)
        problems += extra
        for line in warnings:
            print("WARN", line)
        samples["warnings"] = warnings
    else:
        metrics, samples = end_to_end(rounds, attempted, failed)
    for line in problems:
        print("FAIL", line)
    if "verdict_s_tail" in samples:
        print("verdict_s_tail basis:", samples["verdict_s_tail"])
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "rounds": len(rounds),
              "samples": samples, "problems": problems, "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
