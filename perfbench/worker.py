"""One workload in one Python process: set up, measure, check, report.

Started by run.py with the monotonic time at which it was spawned, so
that set-up time counts from process start.  With --setup-only the
process stops once the first timed operation could run and reports only
its set-up time.  Otherwise the timed phase runs whole rounds until
--seconds of round time have passed (and at least two rounds), the
outputs are checked and one JSON object is printed as the last line of
stdout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_ROUNDS = 2


def import_ksq():
    """Import ksq from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, SRC)
    import ksq

    if not os.path.realpath(ksq.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"ksq was imported from {ksq.__file__}, not from {SRC}")
    return ksq


def blas_info() -> dict:
    """BLAS library, version and thread count of the loaded numpy."""
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = blas.get("name")
        info["blas_version"] = blas.get("version")
    except (KeyError, TypeError):
        info["blas"] = info["blas_version"] = None
    info["blas_threads"] = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                break
    info["blas_env"] = {k: os.environ[k] for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    return info


def commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def percentile_tail(values: list) -> dict:
    """The highest of p90/p95/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    for q in (99.9, 99.0, 95.0, 90.0):
        if n * (1.0 - q / 100.0) >= 10:
            k = min(n - 1, int(round(q / 100.0 * (n - 1))))
            return {"percentile": q, "value_ms": ordered[k] * 1e3, "samples": n}
    return {"percentile": None, "value_ms": None, "samples": n}


def timed_phase(workload, seconds: float):
    """Whole rounds until `seconds` of round time have passed.

    Each round's outputs are checked right after it, outside its timing,
    and then dropped, so that kept outputs do not grow peak_rss_mb with
    the number of rounds.
    """
    latencies, per_round, raised = [], [], []
    problems, failed = [], 0
    while len(per_round) < MIN_ROUNDS or sum(w for _, w, _ in per_round) < seconds:
        reqs = workload.round(len(per_round))
        records, ops = [], 0
        cpu0, start = time.process_time(), time.perf_counter()
        for req in reqs:
            t0 = time.perf_counter()
            try:
                out = req.call()
            except Exception as exc:  # the run goes on; the fault is reported
                out = exc
            latencies.append(time.perf_counter() - t0)
            if isinstance(out, Exception):
                raised.append((f"{req.label}: {type(out).__name__}: {out}", req.ops))
            else:
                records.append((req, out))
            ops += req.ops
        per_round.append((ops, time.perf_counter() - start, time.process_time() - cpu0))
        found, bad = workload.check(records)
        problems += found
        failed += bad
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "latencies": latencies, "per_round": per_round, "raised": raised,
        "problems": problems, "failed": failed, "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None) -> int:
    spawned = float(os.environ.get("PERFBENCH_SPAWNED", time.monotonic()))
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="reduced inputs, for the smoke tests")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--scratch", required=True)
    p.add_argument("--spans", default=None, help="write the traced spans here")
    args = p.parse_args(argv)

    import_ksq()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.small, args.scratch)
    workload.warm_up()
    setup_s = time.monotonic() - spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(SRC)
    trace_t0 = time.perf_counter()
    try:
        run = timed_phase(workload, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()

    found, failed = workload.finish()
    problems = run["problems"] + found
    failed += run["failed"] + sum(ops for _, ops in run["raised"])
    for line in problems[:50]:
        print(f"check: {line}", file=sys.stderr)
    for line, _ in run["raised"][:50]:
        print(f"raised: {line}", file=sys.stderr)

    lat = run["latencies"]
    ops = sum(o for o, _, _ in run["per_round"])
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": not problems,
        "attempted": ops,
        "failed": failed,
        "problems": len(problems),
        "rounds": len(run["per_round"]),
        "requests": len(lat),
        "timed_s": sum(w for _, w, _ in run["per_round"]),
        "cpu_s": sum(c for _, _, c in run["per_round"]),
        "setup_s": setup_s,
        # medians over rounds, so that a burst of load from other processes
        # during one round does not move the run's figure
        "ops_per_s": statistics.median(o / w for o, w, _ in run["per_round"]),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_quartiles_ms": [q * 1e3 for q in statistics.quantiles(lat, n=4)],
        "latency_tail": percentile_tail(lat),
        "cpu_ms_per_op": statistics.median(c * 1e3 / o for o, _, c in run["per_round"]),
        "peak_rss_mb": run["peak_rss_mb"],
        "per_round": run["per_round"],
        "env": {
            "commit": commit(),
            "python": platform.python_version(),
            **blas_info(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
        },
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.dump(args.spans, trace_t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
