"""One benchmark worker: a fresh process that runs one workload closed-loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only] [--spans FILE]

Set-up (import of polygreen, input generation, first-call warm-up) is
timed from the top of this file and normalised for host speed
(``hostspeed``), like every operation.  Then whole instances of the workload run
back to back while the next one still fits in ``--seconds`` (at least two).
With ``--trace 1`` the first instance runs untraced and the rest run with
the tracing wrappers installed.  The correctness gate runs afterwards,
outside the timed region.  The last stdout line is a JSON result.
"""

import os
import sys
import time

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402

SETUP_SPEED = hostspeed.HostSpeed(hostspeed.python_probe, hostspeed.PYTHON_REF_S, 0.01).__enter__()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402


def _fail(message: str) -> None:
    print(f"worker: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    src = os.path.join(os.path.dirname(HERE), "src")
    import polygreen

    if not os.path.abspath(polygreen.__file__).startswith(src + os.sep):
        _fail(f"polygreen imported from {polygreen.__file__}, not from {src}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}")
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    wl.warmup(inputs)
    SETUP_SPEED.__exit__(None, None, None)
    raw, norm = SETUP_SPEED.seconds()
    before = SETUP_SPEED.start - T_START
    setup = {"setup_s": before + norm, "raw_setup_s": before + raw}
    if args.setup_only:
        print(json.dumps(setup))
        return

    walls, traced_walls, instances, raw_walls = [], [], [], []
    tracer = None
    begin = time.perf_counter()
    while True:
        if args.trace and walls and tracer is None:
            import tracing

            tracer = tracing.Tracer()
            for obj, attr, span in wl.traced_callables(inputs):
                tracer.wrap_attribute(obj, attr, span)
            tracer.install(tracing.layer_targets())
        if tracer is not None:
            tracer.instance = len(traced_walls)
        wall, records = workloads.run_instance(wl, inputs)
        (traced_walls if tracer is not None else walls).append(wall)
        instances.append(records)
        raw_walls.append(sum(r["wall_seconds"] for r in records))
        elapsed = time.perf_counter() - begin
        if len(instances) >= 2 and elapsed + statistics.median(raw_walls) > args.seconds:
            break
    if tracer is not None:
        tracer.restore()

    # correctness gate, outside the timed region
    checks = []
    for records in instances:
        for rec in records:
            if rec["exc"] is not None:
                checks.append({"op": rec["op"], "ok": False, "error": None, "detail": rec["exc"]})
                continue
            try:
                ok, err, detail = wl.check(rec["arg"], rec["result"])
            except Exception as e:  # unparsable output fails the check
                ok, err, detail = False, None, f"check raised {type(e).__name__}: {e}"
            checks.append({"op": rec["op"], "ok": bool(ok), "error": err, "detail": detail})
    for op, ok, err, detail in wl.extra_checks(inputs):
        checks.append({"op": op, "ok": bool(ok), "error": err, "detail": detail})

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "inputs": wl.describe(inputs),
        **setup,
        "walls": walls,
        "traced_walls": traced_walls,
        "op_seconds": [{r["op"]: r["seconds"] for r in records} for records in instances],
        "op_raw_seconds": [{r["op"]: r["raw_seconds"] for r in records} for records in instances],
        "speed_samples": sum(r["speed_samples"] for records in instances for r in records),
        "checks": checks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        traced_wall = sum(r["wall_seconds"] for records in instances[len(walls):] for r in records)
        layers, info = tracing.layer_metrics(tracer.spans, len(traced_walls), traced_wall)
        result["layers"] = layers
        result["trace_info"] = dict(info, missing_targets=tracer.missing)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
