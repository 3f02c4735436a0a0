"""Benchmark entry point for polygreen.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own fresh worker
process (``worker.py``) with BLAS/OpenMP threads capped at 1: one
closed-loop caller.  Five extra fresh processes time set-up alone, so
``setup_s`` is the median of six set-ups.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics
from a traced run.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 when every correctness
check passed, 2 when one failed (the result is still printed), 1 when the
benchmark could not run (nothing is printed on stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracing import tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5
DEADLINE_S = 170.0     # one workload's whole run, kept under 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(argv: list[str], timeout: float) -> dict:
    cmd = [sys.executable, WORKER] + argv
    try:
        proc = subprocess.run(cmd, cwd=OUT, env=worker_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        # subprocess.run kills the worker and waits for it before raising
        raise BenchError(f"worker timed out after {exc.timeout:.0f} s: {' '.join(argv)}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def machine_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "thread_caps": {var: "1" for var in THREAD_VARS},
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> tuple[dict, dict]:
    """(final-line payload, detail) for one workload."""
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    probes = [run_worker(common + ["--setup-only"], deadline - time.monotonic())
              for _ in range(SETUP_PROBES)]
    spans = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl")
    traced = ["--trace", "1", "--spans", spans] if trace else []
    res = run_worker(common + traced, deadline - time.monotonic())
    setups = [p["setup_s"] for p in probes] + [res["setup_s"]]
    raw_setups = [p["raw_setup_s"] for p in probes] + [res["raw_setup_s"]]

    checks = res["checks"]
    failed = sum(not c["ok"] for c in checks)
    errors = [c["error"] for c in checks if c["error"] is not None]
    oracle_error = max(errors) if errors else None
    walls = res["walls"]
    tail = tail_percentile(walls)
    detail = {
        "workload": name,
        "seed": seed,
        "inputs": res["inputs"],
        "solve_s_samples": walls,
        "solve_s_tail": {"percentile": tail[0], "value": tail[1]} if tail else None,
        "setup_s_samples": setups,
        "raw_setup_s_median": statistics.median(raw_setups),
        "oracle_error": oracle_error,
        "fail_rate": failed / len(checks),
        "failed_checks": [c for c in checks if not c["ok"]],
        "check_details": sorted({f"{c['op']}: {c['detail']}" for c in checks}),
        "op_seconds": res["op_seconds"],
        "op_raw_seconds": res["op_raw_seconds"],
        "raw_solve_s_median": statistics.median(sum(i.values()) for i in res["op_raw_seconds"][:len(walls)]),
        "speed_samples": res["speed_samples"],
    }
    if trace:
        layers = dict(res["layers"])
        traced_s = statistics.median(res["traced_walls"])
        untraced_s = statistics.median(walls)
        layers["trace.solve_s"] = traced_s
        layers["trace.untraced_solve_s"] = untraced_s
        layers["trace.overhead_s"] = traced_s - untraced_s
        layers["gate.oracle_error"] = oracle_error if oracle_error is not None else 0.0
        detail["trace_info"] = res["trace_info"]
        detail["traced_solve_s_samples"] = res["traced_walls"]
        detail["spans_file"] = os.path.relpath(spans, ROOT)
        values = layers
    else:
        values = {
            "solve_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    payload = {"correct": failed == 0, "attempted": len(checks), "failed": failed, "values": values}
    return payload, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        if not os.path.isfile(os.path.join(SRC, "polygreen", "__init__.py")):
            raise BenchError(f"no polygreen sources under {SRC}")
        names = [w["name"] for w in spec["workloads"]]
        wanted = names if args.workload == "all" else [args.workload]
        if any(w not in names for w in wanted):
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
        metrics = spec["per_layer" if args.trace else "end_to_end"]
        os.makedirs(OUT, exist_ok=True)
        start = time.monotonic()
        results = []
        for name in wanted:
            deadline = start + DEADLINE_S * (len(results) + 1)
            payload, detail = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            out = {}
            for m in metrics:
                if m["name"] not in payload["values"]:
                    raise BenchError(f"workload {name} produced no metric {m['name']}")
                out[m["name"]] = {"value": payload["values"][m["name"]], "unit": m["unit"]}
            detail["machine"] = machine_info()
            print(json.dumps({"detail": detail}))
            results.append((name, payload, out, detail))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        _, payload, out, _ = results[0]
    else:
        print_table(results, metrics)
        payload = {
            "correct": all(p["correct"] for _, p, _, _ in results),
            "attempted": sum(p["attempted"] for _, p, _, _ in results),
            "failed": sum(p["failed"] for _, p, _, _ in results),
        }
        out = {f"{name}.{k}": v for name, _, o, _ in results for k, v in o.items()}
    print(json.dumps({"correct": payload["correct"], "attempted": payload["attempted"],
                      "failed": payload["failed"], "metrics": out}))
    return 0 if payload["correct"] else 2


def print_table(results, metrics) -> None:
    width = max(len(m["name"]) for m in metrics) + 2
    print("metric".ljust(width) + "unit".ljust(8) + "".join(n.rjust(14) for n, _, _, _ in results))
    for m in metrics:
        row = m["name"].ljust(width) + m["unit"].ljust(8)
        row += "".join(f"{o[m['name']]['value']:14.6g}" for _, _, o, _ in results)
        print(row)
    row = "oracle_error".ljust(width) + "1".ljust(8)
    print(row + "".join(f"{d['oracle_error'] or 0.0:14.6g}" for _, _, _, d in results))
    row = "fail_rate".ljust(width) + "1".ljust(8)
    print(row + "".join(f"{d['fail_rate']:14.6g}" for _, _, _, d in results))


if __name__ == "__main__":
    sys.exit(main())
