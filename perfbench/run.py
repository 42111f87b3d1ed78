"""navlog benchmark: seeded, closed-loop workloads measured from outside.

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --workload defects --seed 1 --seconds 25

Run from the repository root.  One client issues requests back to back for
`--seconds` seconds.  A request is one in-process `navlog.cli.run_cli(argv)`
call or one library call; the program sees only the generated input files
and argv.  Every answer is checked against the benchmark's own reference
deciders (reference.py) after the timed part.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
requests untraced for half the time, replays exactly those requests with
spans around the program's public functions (tracing.py), and prints the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object; the lines before it give every metric with its
unit.  A results file with the run's metadata goes to
.perfbench/results/.  The exit code is 1 when any answer is wrong, 2 when
the program cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import plans  # noqa: E402
import tracing  # noqa: E402

# Seed kept out of every tuning run; later claims must also hold on it.
HELD_OUT_SEED = 90001
SETUP_REPEATS = 9
OUT_DIR = ROOT / ".perfbench"

END_TO_END = {
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "throughput_rps": ("1/s", "higher"),
    "ok_share": ("share", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Per-layer metric -> (unit, better, the (end-to-end metric, workload)
# pairs it should move, the workloads where it should move nothing).  Each
# pair was read off a traced run of the shipped mix: the layer holds a
# visible share of the self time of the requests at that workload's median
# (p50) or around its 11th slowest request (tail); README.md gives the shares.
_P50, _TAIL, _RPS, _OK, _RSS = ("latency_p50_ms", "latency_tail_ms",
                                "throughput_rps", "ok_share", "peak_rss_mb")
_CLI = ([(_P50, "theory")], [])
_PARSE = ([(_P50, "beliefs")], [])
_RENDER = ([(_P50, "theory")], [])
_VALIDATE = ([(_P50, "beliefs"), (_RPS, "fuzz")], [])
_CHECK_STRATEGY = ([(_RPS, "fuzz")], [])
_WITNESS = ([(_P50, "search"), (_TAIL, "search"), (_OK, plans.DEFECTS)], ["beliefs"])
_VERDICT = ([(_RPS, "fuzz"), (_P50, "search"), (_TAIL, "search")], [])
_TABLE = ([(_TAIL, "search")], [])
_RECALL = ([(_TAIL, "beliefs"), (_P50, "beliefs"), (_RPS, "fuzz"), (_TAIL, "search")],
           ["theory"])
_VERIFY = ([(_P50, "beliefs"), (_OK, plans.DEFECTS)], [])
_PROOF = ([(_P50, "theory"), (_TAIL, "theory"), (_RSS, "theory")],
          ["search", "beliefs", "fuzz"])
_CANONICAL = ([(_P50, "theory")], [])
_FUZZ = ([(_RPS, "fuzz")], [])
LAYERS = {
    "cli.self_ms": ("ms", "lower", *_CLI),
    "syntax.parse_ms": ("ms", "lower", *_PARSE),
    "syntax.parse_calls": ("count", "lower", *_PARSE),
    "syntax.render_ms": ("ms", "lower", *_RENDER),
    "core.validate_ms": ("ms", "lower", *_VALIDATE),
    "core.check_strategy_ms": ("ms", "lower", *_CHECK_STRATEGY),
    "core.check_strategy_calls": ("count", "lower", *_CHECK_STRATEGY),
    "amnesic.witness_ms": ("ms", "lower", *_WITNESS),
    "amnesic.witness_calls": ("count", "lower", *_WITNESS),
    "amnesic.examined": ("count", "lower", *_WITNESS),
    "amnesic.examined_per_s": ("1/s", "higher", *_WITNESS),
    "amnesic.failed": ("count", "lower", *_WITNESS),
    "amnesic.verdict_ms": ("ms", "lower", *_VERDICT),
    "amnesic.verdict_calls": ("count", "lower", *_VERDICT),
    "amnesic.table_ms": ("ms", "lower", *_TABLE),
    "recall.check_ms": ("ms", "lower", *_RECALL),
    "recall.check_calls": ("count", "lower", *_RECALL),
    "recall.beliefs": ("count", "lower", *_RECALL),
    "recall.beliefs_per_s": ("1/s", "higher", *_RECALL),
    "recall.winning_ratio": ("share", "higher", *_RECALL),
    "recall.verify_ms": ("ms", "lower", *_VERIFY),
    "recall.failed": ("count", "lower", *_VERIFY),
    "proof.saturate_ms": ("ms", "lower", *_PROOF),
    "proof.saturate_calls": ("count", "lower", *_PROOF),
    "proof.derived_atoms": ("count", "lower", *_PROOF),
    "proof.atoms_per_s": ("1/s", "higher", *_PROOF),
    "proof.explain_ms": ("ms", "lower", *_PROOF),
    "canonical.build_ms": ("ms", "lower", *_CANONICAL),
    "canonical.states": ("count", "lower", *_CANONICAL),
    "canonical.truth_lemma_ms": ("ms", "lower", *_CANONICAL),
    "canonical.truth_lemma_atoms": ("count", "higher", *_CANONICAL),
    "fuzz.campaign_ms": ("ms", "lower", *_FUZZ),
    "fuzz.checks": ("count", "higher", *_FUZZ),
    "fuzz.checks_per_s": ("1/s", "higher", *_FUZZ),
    "trace.overhead_share": ("share", "lower", [], []),
}

FAILURE_KINDS = ("wrong", "crash", "bad_exit", "timeout")


class RequestTimeout(BaseException):
    """Raised by SIGALRM inside a request that outlives the time limit.

    A BaseException, so that the program's own `except Exception` handlers
    cannot swallow it."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


@dataclass
class Record:
    request: plans.Request
    outcome: plans.Outcome
    seconds: float
    failure: Optional[str] = None      # timeout or crash, found while issuing
    problem: Optional[str] = None      # filled in when judged


def import_program() -> None:
    """(Re-)import navlog from src/ so that each set-up pays for the import."""
    src = ROOT / "src"
    if not (src / "navlog" / "cli.py").is_file():
        raise ImportError(f"navlog sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "navlog" or n.startswith("navlog.")]:
        del sys.modules[name]
    importlib.import_module("navlog")
    importlib.import_module("navlog.cli")


def set_up(workload: str, seed: int, scale: str, workdir: Path):
    """Import the program, generate the inputs, write the files; timed as a
    whole, SETUP_REPEATS times, and the median reported."""
    stored = None
    if scale == "full":
        expected = json.loads((HERE / "expected.json").read_text())
        stored = expected.get(workload, {}).get(str(seed))
    times = []
    holder: Dict[str, plans.Answers] = {}
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        import_program()
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        plan = plans.build(workload, seed, scale, workdir, lambda: holder["answers"])
        for name, text in plan.files.items():
            (workdir / name).write_text(text)
        times.append(time.perf_counter() - start)
    holder["answers"] = plans.Answers(plan, stored)
    return plan, times


def issue(req: plans.Request, limit: float) -> Record:
    # Each request starts from a collected heap, as a fresh CLI process
    # would, so one request's garbage is not collected inside the next.
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    outcome = plans.Outcome(None, "", "")
    failure = None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if req.argv is not None:
                    outcome.rc = sys.modules["navlog.cli"].run_cli(req.argv)
                else:
                    outcome.result = req.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except RequestTimeout:
        failure = "timeout"
    except Exception:    # the request's own failure, recorded as a crash
        failure = "crash"
        err.write(traceback.format_exc(limit=3))
    seconds = time.perf_counter() - start
    outcome.stdout, outcome.stderr = out.getvalue(), err.getvalue()
    if failure is None and "Traceback" in outcome.stderr:
        failure = "crash"
    return Record(req, outcome, seconds, failure)


def closed_loop(plan: plans.Plan, seconds: float, limit: float) -> tuple:
    """Issue requests back to back until `seconds` have passed."""
    records: List[Record] = []
    follow_ups: List[plans.Request] = []
    cycle_at = -len(plan.prologue)
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        if follow_ups:
            req = follow_ups.pop()
        elif cycle_at < 0:
            req = plan.prologue[cycle_at + len(plan.prologue)]
            cycle_at += 1
        else:
            req = plan.cycle[cycle_at % len(plan.cycle)]
            cycle_at += 1
        rec = issue(req, limit)
        records.append(rec)
        if rec.failure is None and req.follow is not None:
            nxt = req.follow(rec.outcome)
            if nxt is not None:
                follow_ups.append(nxt)
    return records, time.perf_counter() - start


def judge(records: List[Record], inject_wrong: bool) -> None:
    """Classify each record that did not already time out or crash.  Every
    request here documents exit code 0 (no --fail-on-false, valid input)."""
    for k, rec in enumerate(records):
        if rec.failure is not None:
            continue
        out = rec.outcome
        if inject_wrong and k == 0:
            out = plans.Outcome(out.rc, "{}", out.stderr, ["injected wrong answer"])
        bad_exit = out.rc not in (None, 0)
        if bad_exit and not out.stdout:
            rec.failure = "bad_exit"
        elif (problem := rec.request.judge(out)):
            rec.failure, rec.problem = "wrong", problem
        elif bad_exit:
            rec.failure = "bad_exit"


def tail(latencies_ms: List[float]) -> tuple:
    """The highest percentile that still has at least 10 requests above it:
    the 11th slowest request.  Returns (percentile, value)."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100 * (n - 10) / n, ordered[n - 11]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def source_identity() -> dict:
    """Git SHA when the checkout is a repository, and a digest of the
    program's sources either way (an exported checkout has no history)."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if done.returncode == 0:
                sha = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "navlog").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def summarise(records: List[Record]) -> dict:
    kinds: Dict[str, Dict[str, int]] = {}
    failures = []
    work: Dict[str, float] = {}
    for rec in records:
        row = kinds.setdefault(rec.request.kind, {"attempted": 0, "failed": 0,
                                                  "seconds": 0.0})
        row["attempted"] += 1
        row["seconds"] += rec.seconds
        if rec.failure:
            row["failed"] += 1
            failures.append({"request": rec.request.name, "kind": rec.failure,
                             "detail": rec.problem})
        elif rec.request.work is not None:
            for key, value in rec.request.work(rec.outcome).items():
                work[key] = work.get(key, 0.0) + value
    return {"kinds": kinds, "failures": failures, "work": work}


def pin_to_one_cpu() -> Optional[int]:
    """Keep the client on one CPU: on a shared host the CPUs differ in speed
    from moment to moment, and a run the scheduler moves between them
    measures the moves.  Returns the CPU, or None where pinning is not
    available."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run(args) -> int:
    workdir = OUT_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results_dir = OUT_DIR / "results"
    cpu = pin_to_one_cpu()
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        try:
            plan, setup_times = set_up(args.workload, args.seed, args.scale, workdir)
        except ImportError as e:
            print(f"perfbench: cannot import the program: {e}", file=sys.stderr)
            return 2
        if args.trace:
            records, window = closed_loop(plan, args.seconds / 2, args.time_limit)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = []
                for k, rec in enumerate(records):
                    tracer.request = k
                    traced.append(issue(rec.request, args.time_limit))
            finally:
                tracer.uninstall()
            judged = records + traced
        else:
            records, window = closed_loop(plan, args.seconds, args.time_limit)
            judged = records
        rss = peak_rss_mb()
        judge(judged, args.inject_wrong)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(judged)
    failed = sum(1 for r in judged if r.failure)
    wrong = sum(1 for r in judged if r.failure == "wrong")
    info = summarise(judged)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "time_limit_s": args.time_limit,
        "scale": args.scale, "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
        **source_identity(),
        "attempted": attempted, "failed": failed, "wrong_answers": wrong,
        "failed_share": failed / attempted if attempted else 0.0,
        "failures_by_kind": {k: sum(1 for f in info["failures"] if f["kind"] == k)
                             for k in FAILURE_KINDS},
        "requests_by_kind": info["kinds"], "failures": info["failures"],
        "work_counters": info["work"], "setup_times_s": setup_times,
        "requests": [[r.request.name, round(r.seconds, 6), r.failure] for r in judged],
    }
    lines = []
    if args.trace:
        untraced_s = sum(r.seconds for r in records)
        traced_s = sum(r.seconds for r in traced)
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_share"] = traced_s / untraced_s - 1
        units = {k: LAYERS[k][0] for k in metrics}
        self_s = tracer.self_ms_total() / 1000
        # Self times sum to the traced time inside spans, so they should
        # differ from the untraced request time by no more than the overhead
        # (2% slack for run-to-run noise between the two passes).
        accounted = abs(self_s - untraced_s) <= abs(traced_s - untraced_s) + 0.02 * untraced_s
        report["trace"] = {
            "untraced_request_s": untraced_s, "traced_request_s": traced_s,
            "self_s_total": self_s, "accounted_within_overhead": accounted,
            "self_s_by_span": dict(tracer.self_s), "calls_by_span": dict(tracer.calls),
            "spans": len(tracer.spans),
            "predictions": {k: {"moves": v[2], "unchanged_on": v[3]}
                            for k, v in LAYERS.items()},
        }
        results_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(results_dir / f"SPANS_{args.workload}_s{args.seed}.json")
        lines.append(f"tracing overhead {100 * metrics['trace.overhead_share']:.1f}% "
                     f"({untraced_s:.3f} s untraced, {traced_s:.3f} s traced); "
                     f"per-layer self times sum to {self_s:.3f} s, "
                     f"{'within' if accounted else 'OUTSIDE'} the overhead of the "
                     f"untraced time")
    else:
        latencies = [1000 * r.seconds for r in records]
        p, tail_ms = tail(latencies)
        answered = sum(1 for r in records if not r.failure)
        metrics = {
            "latency_p50_ms": statistics.median(latencies),
            "latency_tail_ms": tail_ms,
            "throughput_rps": answered / window,
            "ok_share": answered / len(records),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": rss,
        }
        units = {k: END_TO_END[k][0] for k in metrics}
        report.update({"window_s": window, "tail_percentile": p,
                       "latency_samples": len(latencies)})
        lines.append(f"tail is p{p:.1f} of {len(latencies)} requests; "
                     f"failed_share {report['failed_share']:.4f}; "
                     f"wrong_answers {wrong}")
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json").write_text(
        json.dumps(report, indent=2))

    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    for line in lines:
        print(f"{args.workload} {line}")
    for kind in FAILURE_KINDS:
        names = sorted({f["request"] for f in info["failures"] if f["kind"] == kind})
        if names:
            print(f"{args.workload} failed ({kind}): {', '.join(names)}")
    for f in info["failures"]:
        if f["kind"] == "wrong":
            print(f"{args.workload} WRONG {f['request']}: {f['detail']}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 1 if wrong else 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for workload in plans.WORKLOADS + (plans.DEFECTS,):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--time-limit", str(args.time_limit),
               "--scale", args.scale]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{workload}: exit code {done.returncode}")
            status = max(status, done.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=plans.WORKLOADS + (plans.DEFECTS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--time-limit", type=float, default=8.0,
                        help="per-request limit in seconds; past it the request "
                             "is interrupted and counted as a timeout")
    parser.add_argument("--scale", choices=tuple(plans.SIZES), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    parser.add_argument("--inject-wrong", action="store_true",
                        help="corrupt the first answer before judging "
                             "(self-test of the correctness gate)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
