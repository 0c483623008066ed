"""Run one workload in this process and print its outcome as one JSON line.

run.py starts this script in a fresh interpreter for every workload run and
for every set-up probe; it is not meant to be run by hand.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 [--setup-only]

Set-up is the imports plus the seeded input generation; the JSON line
carries the monotonic time at which it ended, so that the parent, which
noted the time it started this process, can measure set-up from process
start.  The loop is closed: one operation at a time, the next one starting
when the previous one returns, in whole rounds until --seconds have passed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def blas_threads() -> dict:
    """Thread counts reported by every OpenBLAS this process has loaded."""
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def host_ticks() -> dict:
    """Machine-wide CPU ticks from /proc/stat: time stolen by the hypervisor,
    and all ticks, to tell host noise from the program's own variation."""
    with open("/proc/stat", encoding="utf-8") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return {"steal": fields[7] if len(fields) > 7 else 0, "total": sum(fields)}


def run_op(op):
    """One timed call: (output, latency, error message or None)."""
    t0 = time.perf_counter()
    try:
        out, err = op.run(), None
    except Exception as exc:  # a failed operation is counted, not fatal
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter() - t0, err


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import bellselftest
    if Path(bellselftest.__file__).resolve().parent != ROOT / "src" / "bellselftest":
        print(f"error: imported bellselftest from {bellselftest.__file__}, "
              f"not from this checkout", file=sys.stderr)
        return 2
    import workloads
    from bellselftest import cli

    runs_dir = HERE / "runs"
    runs_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_end = time.monotonic()
        if args.setup_only:
            print(json.dumps({"setup_end": setup_end}))
            return 0
        record = {"setup_end": setup_end, "inputs": wl.describe(),
                  "threads": {"blas": blas_threads(),
                              "SELFTEST_NUM_THREADS": os.environ.get("SELFTEST_NUM_THREADS"),
                              "sweep_workers": cli._num_threads()}}
        record.update(measure(wl, args.seconds, tracing.Tracer() if args.trace else None))
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(record))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(wl, seconds: float, tracer) -> dict:
    """Whole rounds until `seconds` have passed.  With a tracer, every
    operation runs twice back to back, untraced and traced in alternating
    order, so the tracing overhead is measured on identical work."""
    latencies, errors = [], []
    attempted = failed = rounds = 0
    plain_s = traced_s = 0.0
    ticks0, cpu0 = host_ticks(), time.process_time()
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        ops = wl.ops()
        outputs, raised = [], []
        for i, op in enumerate(ops):
            if tracer is None:
                out, lat, err = run_op(op)
            else:
                order = (False, True) if (i + rounds) % 2 == 0 else (True, False)
                for traced in order:
                    if traced:
                        tracer.install()
                        try:
                            out, lat, err = tracer.call(
                                "op", run_op, (op,),
                                attrs=lambda a, r, fam=op.family: {"family": fam})
                        finally:
                            tracer.uninstall()
                        traced_s += lat
                    else:
                        out, lat, err = run_op(op)
                        plain_s += lat
            latencies.append([op.name, op.family, lat, True])
            outputs.append(out)
            raised.append(err)
        if tracer is not None:      # certificate evaluations happen in the checks
            tracer.install()
        try:
            found = wl.check(outputs)
        except Exception as exc:  # outputs too broken to check: all count as wrong
            found = [[f"check raised {type(exc).__name__}: {exc}"]] * len(ops)
        finally:
            if tracer is not None:
                tracer.uninstall()
        for entry, op, err, errs in zip(latencies[-len(ops):], ops, raised, found):
            attempted += 1
            if err is not None or errs:
                failed += 1
                entry[3] = False
                errors.append({"round": rounds, "op": op.name, "raised": err,
                               "wrong": list(errs)})
        rounds += 1
    wall = time.perf_counter() - start
    ticks1 = host_ticks()
    ok = [lat for _, _, lat, good in latencies if good]
    result = {"wall_s": wall, "cpu_s": time.process_time() - cpu0,
              "host_steal_share": (ticks1["steal"] - ticks0["steal"])
              / max(ticks1["total"] - ticks0["total"], 1),
              "rounds": rounds, "attempted": attempted, "failed": failed,
              "correct": not any(e["wrong"] for e in errors), "errors": errors,
              "latencies": latencies}
    if tracer is None:
        op_time = sum(lat for _, _, lat, _ in latencies)
        result["metrics"] = {
            "ops_per_s": len(ok) / op_time if op_time else 0.0,
            "op_p50_s": statistics.median(ok) if ok else 0.0,
        }
    else:
        metrics = tracing.layer_metrics(tracer, rounds)
        metrics["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0) if plain_s else 0.0
        result["metrics"] = metrics
    return result


if __name__ == "__main__":
    sys.exit(main())
