"""Benchmark of ksq, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: classify-mix, grid-verify, witness-hunt, scan-regions (see
perfbench/README.md).  The workload runs in its own Python process
(worker.py) built from this checkout's src/.  Set-up time is taken as the
median over SETUP_PROBES extra processes that stop once they are ready,
plus the measuring process itself.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.  A fuller record,
including the machine and library versions, is written to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
SCRATCH = os.path.join(HERE, "out")
WORKLOADS = ("classify-mix", "grid-verify", "witness-hunt", "scan-regions")
SETUP_PROBES = 4
DEADLINE_S = 170.0

END_TO_END = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


class WorkerError(RuntimeError):
    pass


def spawn(args: list, deadline: float) -> dict:
    """Run worker.py to completion and return its last stdout line as JSON."""
    env = dict(os.environ)
    env["PERFBENCH_SPAWNED"] = repr(time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args], stdout=subprocess.PIPE, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()), text=True,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError("worker ran past the deadline and was killed") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    start = time.monotonic()
    load = os.getloadavg()
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="reduced inputs (smoke test only)")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ksq", "__init__.py")):
        print(f"error: no ksq sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    scratch = os.path.join(SCRATCH, f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--scratch", scratch]
    if args.small:
        common.append("--small")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = start + DEADLINE_S
    try:
        setups = [spawn(common + ["--seconds", "0", "--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        run_args = common + ["--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            run_args += ["--spans", os.path.join(RESULTS, tag + ".spans.jsonl")]
        result = spawn(run_args, deadline)
    except WorkerError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    setups.append(result["setup_s"])
    result["setup_samples_s"] = setups
    result["setup_s"] = statistics.median(setups)
    result["env"]["loadavg_at_start"] = load
    with open(os.path.join(RESULTS, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
