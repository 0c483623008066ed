"""Benchmark entry point: one workload per invocation, from a checkout's root.

    python3 perfbench/run.py --workload bounds|membership|devices \
        --seed N --seconds S --trace 0|1

The workload runs in a fresh interpreter (worker.py) so that set-up and
peak memory belong to that workload alone.  With --trace 0 the last line of
standard output is the end-to-end result; set-up time is the median of
SETUP_PROBES extra interpreters that only set up, plus the measuring one.
With --trace 1 it carries the per-layer numbers instead.  Every run also
writes its full record (inputs, thread counts, each latency, each error) to
perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bounds", "membership", "devices")
SETUP_PROBES = 2
WORKER_TIMEOUT_S = 170.0
END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def _worker(args, setup_only: bool, timeout: float) -> tuple[dict, float]:
    """Start worker.py, wait for it, and return its JSON line and start time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout,
                          cwd=ROOT, check=False)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1]), started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bellselftest" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'bellselftest'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe, started = _worker(args, True, deadline - time.monotonic())
                setup.append(probe["setup_end"] - started)
        record, started = _worker(args, False, deadline - time.monotonic())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": value, "unit": tracing.unit_of(name)}
                   for name, value in record["metrics"].items()}
    else:
        setup.append(record["setup_end"] - started)
        values = dict(record["metrics"], setup_s=statistics.median(setup),
                      peak_rss_mb=record["peak_rss_mb"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setup, reported=metrics)
    runs = HERE / "runs"
    runs.mkdir(exist_ok=True)
    out = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    threads = record["threads"]
    print(f"threads: blas {threads['blas']}, SELFTEST_NUM_THREADS="
          f"{threads['SELFTEST_NUM_THREADS']} (sweep workers {threads['sweep_workers']})")
    print(f"rounds {record['rounds']}, record {out.relative_to(ROOT)}")
    for err in record["errors"][:5]:
        print(f"failed: {err}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
