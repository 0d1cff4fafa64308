"""Benchmark entry point: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: exact-pushforward, arch-slice, global-heights, lemma-suite (see
README.md).  The workload runs in a child process (``workload.py``) with
an address-space cap and a wall-clock deadline, so a runaway input ends as
failed operations.  With ``--trace 0`` the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics; with ``--trace 1`` the child wraps the
program's layers and the metrics are the per-layer ones.  The line before
it gives the digest of the first round's program outputs, equal for a
traced and an untraced run of the same seed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import METRICS

HERE = Path(__file__).resolve().parent
UNITS = {name: unit for name, unit, _ in METRICS}
WORKLOADS = ("exact-pushforward", "arch-slice", "global-heights", "lemma-suite")

# set-up is timed in this many processes that stop once ready, and in the
# measured one; the median is reported
SETUP_SAMPLES = 4
ADDRESS_SPACE_BYTES = 3 << 30
SETUP_DEADLINE_S = 20


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def run_child(args, extra: list[str], deadline: float):
    """Start workload.py, wait at most ``deadline`` seconds; return
    (events, seconds from start to the ready event or None, finished)."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, preexec_fn=_cap_address_space)
    finished = True
    try:
        out, err = proc.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        finished = False
    if proc.returncode != 0:
        finished = False
        sys.stderr.write(err[-4000:])
    events = []
    for line in out.splitlines():
        try:
            ev = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(ev, dict) and "event" in ev:
            events.append(ev)
    ready = next((ev["t"] - t0 for ev in events if ev["event"] == "ready"), None)
    return events, ready, finished


def summarize(events, finished: bool, setup_samples: list[float], trace: bool):
    ready = next(ev for ev in events if ev["event"] == "ready")
    ops = [ev for ev in events if ev["event"] == "op"]
    rounds = [ev for ev in events if ev["event"] == "round"]
    done = next((ev for ev in events if ev["event"] == "done"), None)
    check_failures = [ev for ev in events if ev["event"] == "check_failed"]
    for ev in check_failures:
        sys.stderr.write(f"check failed: {ev['what']}: {ev['detail']}\n")

    per_round = ready["ops_per_round"]
    rounds_started = max([len(rounds)] + [ev["round"] for ev in ops]) or 1
    attempted = rounds_started * per_round
    returned = sum(ev["count"] for ev in ops)
    failed = sum(ev["failed"] for ev in ops) + (attempted - returned)
    correct = bool(finished and done and rounds and not check_failures)

    if trace:
        metrics = {}
        for name, value in sorted(((done or {}).get("per_layer") or {}).items()):
            metrics[name] = {"value": value, "unit": UNITS[name]}
    else:
        timed_s = sum(ev["latency_s"] for ev in ops)
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "ops_per_s": {"value": returned / timed_s if timed_s else 0.0,
                          "unit": "ops/s"},
            "latency_p50_s": {"value": statistics.median(ev["latency_s"] for ev in ops)
                              if ops else 0.0, "unit": "s"},
            "peak_rss_mb": {"value": (done or {}).get("peak_rss_mb", 0.0), "unit": "MB"},
            "certified_error_sum": {"value": rounds[0]["error_sum"] if rounds else 0.0,
                                    "unit": "nats"},
        }
    digest = rounds[0]["digest"] if rounds else None
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, digest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="relesc benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (HERE.parent / "src" / "relesc" / "__init__.py").is_file():
        print(f"error: no relesc sources under {HERE.parent / 'src'}", file=sys.stderr)
        return 2

    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            events, ready, finished = run_child(args, ["--setup-only"], SETUP_DEADLINE_S)
            if ready is None or not finished:
                print("error: set-up failed", file=sys.stderr)
                return 2
            setup_samples.append(ready)
    deadline = 2 * args.seconds + 60
    events, ready, finished = run_child(args, [], deadline)
    if ready is None:
        print("error: the workload did not get through set-up", file=sys.stderr)
        return 2
    setup_samples.append(ready)
    result, digest = summarize(events, finished, setup_samples, bool(args.trace))
    print(json.dumps({"outputs_digest": digest}))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
