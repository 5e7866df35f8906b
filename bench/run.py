"""The repo benchmark: six workloads from blend kernel to shard router.

Two ways to run it, from the repository root:

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    With ``--trace``: one pass of one workload, in one child process
    that this one waits for together with everything it started.
    ``--trace 0`` measures the end-to-end metrics with tracing off;
    ``--trace 1`` is the traced pass that gives the per-layer metrics.
    The last line of standard output is one JSON object: ``correct``,
    ``attempted``, ``failed``, ``metrics``.

``python3 bench/run.py [--seed N] [--workload NAME] [--repeat R] [--quick] [--out PATH]``
    Without ``--trace``: every workload (or the one named), each pass in
    its own child process (fresh allocator, an honest peak RSS, no cache
    bleed), first untraced then traced; prints every metric by name with
    its unit, writes the runs to ``--out`` (default
    ``bench/out/latest.json``, the input of ``compare.py``) and appends
    them as one line to ``bench/out/history.jsonl``.

See ``bench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MODULES = {
    "engine_gstg_orbit": "engine_workloads",
    "engine_baseline_orbit": "engine_workloads",
    "gateway_novel_views": "serve_workloads",
    "gateway_replay": "serve_workloads",
    "cluster_replay": "serve_workloads",
    "sim_sweep": "sim_workload",
}
QUICK_SECONDS = 1.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run this one pass of --workload: "
                        "0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="about a tenth of the work: a smoke run, not a measurement")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload, seeds seed..seed+R-1")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the runs")
    parser.add_argument("--supervised", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    return args


# -- one pass, leaving no process behind ---------------------------------

PASS_TIMEOUT_S = 170.0   # the contract allows a run 180 s
LINGER_S = 5.0           # for helpers that end by themselves once the pass has
TERM_GRACE_S = 3.0       # between asking a process to stop and killing it


def _session_members(session: int) -> "dict[int, tuple[str, int]]":
    """pid -> (state, parent pid) of every process in ``session``."""
    members = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue  # ended while we were looking
        if int(fields[3]) == session:
            members[int(entry)] = (fields[0], int(fields[1]))
    return members


def _reap() -> None:
    """Collect every child of this process that has ended."""
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


def _wait_for_session(session: int, patience_s: float) -> None:
    """Return once no process of ``session`` is left: wait ``patience_s``
    for them to end by themselves, ask what remains to stop (a backend
    drains and frees its shared memory on SIGTERM; the resource tracker
    ignores it and ends after its clients), then kill."""
    me = os.getpid()
    deadline = time.perf_counter() + patience_s
    escalation = [signal.SIGTERM, signal.SIGKILL]
    while True:
        _reap()
        alive = {
            pid for pid, (state, parent) in _session_members(session).items()
            # A zombie that is not ours is init's to collect; it runs nothing.
            if state != "Z" or parent == me
        }
        if not alive:
            return
        if time.perf_counter() > deadline:
            for pid in alive:
                try:
                    os.kill(pid, escalation[0])
                except ProcessLookupError:
                    pass
            if len(escalation) > 1:
                del escalation[0]
                deadline = time.perf_counter() + TERM_GRACE_S
        time.sleep(0.005)


def run_supervised(args: argparse.Namespace) -> int:
    """Run one pass in a child process with a session of its own, and do
    not return while any process of that session lives.

    The program under test starts helpers the pass cannot wait for from
    inside: ``SharedRenderCache`` brings up multiprocessing's resource
    tracker, which ends only *after* its last client has exited, and a
    pass that dies half-way would orphan a ``LocalFleet``'s backends.
    This process adopts whatever the pass orphans (child subreaper), so
    it can wait for each of them, and kills what does not end.
    """
    if not (SRC / "repro").is_dir():
        print(f"bench/run.py: no program to measure at {SRC}", file=sys.stderr)
        return 2
    try:  # PR_SET_CHILD_SUBREAPER; without it orphans go to init, and we poll
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass
    # A polite kill of this process unwinds through the ``finally`` below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    child = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "run.py"), *sys.argv[1:], "--supervised"],
        cwd=ROOT, start_new_session=True,
    )
    code, patience = 1, 0.0
    try:
        code = child.wait(timeout=PASS_TIMEOUT_S)
        patience = LINGER_S
    except subprocess.TimeoutExpired:
        print(f"bench/run.py: pass not done in {PASS_TIMEOUT_S} s", file=sys.stderr)
    finally:
        _wait_for_session(child.pid, patience)
    return code if code >= 0 else 1


# -- one workload, in this process ---------------------------------------

def run_workload(args: argparse.Namespace) -> int:
    import_start = time.perf_counter()
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import importlib

    import harness
    module = importlib.import_module(MODULES[args.workload])
    import_s = time.perf_counter() - import_start

    spec = harness.load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.quick:
        seconds = min(seconds, QUICK_SECONDS)
    traced = bool(args.trace)
    run = module.run_traced if traced else module.run_end_to_end
    outcome = run(args.workload, args.seed, seconds, args.quick)
    measured = outcome["metrics"]

    if traced:
        log = outcome.pop("span_log")
        log.write(harness.OUT_DIR / f"trace-{args.workload}.jsonl")
        declared = spec["per_layer"]
        for metric in declared:
            name = metric["name"]
            if harness.applies(name, args.workload) != (name in measured):
                raise RuntimeError(
                    f"{args.workload}: per-layer metric {name} "
                    f"{'missing' if name not in measured else 'unexpected'}"
                )
            measured.setdefault(name, 0.0)
    else:
        declared = spec["end_to_end"]
        # Everything before the first timed op: imports, then the median
        # of the repeated set-ups.
        measured["setup_s"] = import_s + statistics.median(outcome["setup_s"])
    unknown = set(measured) - {metric["name"] for metric in declared}
    if unknown:
        raise RuntimeError(f"{args.workload}: undeclared metrics {sorted(unknown)}")

    metrics = {}
    for metric in declared:
        value = float(measured[metric["name"]])
        if not math.isfinite(value):
            raise RuntimeError(f"{args.workload}: {metric['name']} is {value}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        if not traced or harness.applies(metric["name"], args.workload):
            print(f"{metric['name']:36s} {value:16.6f} {metric['unit']}")
    detail = {
        "workload": args.workload,
        "trace": int(traced),
        "seed": args.seed,
        "seconds": seconds,
        "quick": args.quick,
        "checked": outcome["checked"],
        "samples": outcome.get("samples", {}),
        "setup_repeats": len(outcome.get("setup_s", [])),
    }
    print("detail " + json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": outcome["failed"] == 0 and outcome["checked"] > 0,
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


# -- every workload, one child process each ------------------------------

def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def run_child(workload: str, trace: int, seed: int, args) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} (trace {trace}, seed {seed}) failed")
    lines = done.stdout.strip().splitlines()
    row = json.loads(lines[-1])
    row.update(json.loads(lines[-2].removeprefix("detail ")))
    return row


def run_all(args: argparse.Namespace) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    import numpy

    meta = {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "quick": args.quick,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):  # fixed order
        if args.workload not in (None, workload):
            continue
        for trace in (0, 1):
            # Per-layer numbers come from fixed op counts: one traced run.
            for seed in range(args.seed, args.seed + (1 if trace else args.repeat)):
                row = run_child(workload, trace, seed, args)
                row.update(meta)
                runs.append(row)
                n = row["samples"].get("frame_ms", row["attempted"])
                print(f"== {workload} trace={trace} seed={seed} n={n} "
                      f"failed={row['failed']}/{row['attempted']} correct={row['correct']}")
                for name, metric in row["metrics"].items():
                    if trace and metric["value"] == 0.0:
                        continue  # a layer this workload does not run
                    print(f"   {name:36s} {metric['value']:16.6f} {metric['unit']}")
    document = {"meta": meta, "runs": runs}
    out = args.out or BENCH_DIR / "out" / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    history = BENCH_DIR / "out" / "history.jsonl"
    history.parent.mkdir(parents=True, exist_ok=True)
    with open(history, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(document) + "\n")
    print(f"wrote {out}")
    return 0 if all(row["correct"] for row in runs) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.trace is None:
        return run_all(args)
    return run_workload(args) if args.supervised else run_supervised(args)


if __name__ == "__main__":
    sys.exit(main())
