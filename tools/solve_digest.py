"""Print one line per conic solve of the benchmark's bound and membership rounds.

    python3 tools/solve_digest.py [--seeds 7 8 11 12 ...]

Run from any directory; the checkout is the one that holds this file.  For
each seed (default 7, 8 and 11-18) it runs one round of the ``bounds`` and
one of the ``membership`` workload of perfbench/workloads.py, with OpenBLAS
held at one thread, and prints, per ``ConicData.solve``, its status, the
primal and dual values as ``float.hex``, the iteration count and the sha256
of the certificate's bytes ("-" without one).  Two checkouts solve these
400 problems bit for bit alike when their outputs are equal.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 8, 11, 12, 13, 14, 15, 16, 17, 18)
WORKLOADS = ("bounds", "membership")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=SEEDS)
    args = parser.parse_args(argv)

    os.environ["OPENBLAS_NUM_THREADS"] = "1"     # before numpy loads OpenBLAS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    moments = workloads.moments
    if Path(moments.__file__).resolve().parents[1] != ROOT / "src" / "bellselftest":
        print(f"error: imported bellselftest from {moments.__file__}, "
              f"not from this checkout", file=sys.stderr)
        return 2

    solve = moments.ConicData.solve

    def digest(conic):
        sol = solve(conic)
        cert = "-" if sol.certificate is None else \
            hashlib.sha256(sol.certificate.tobytes()).hexdigest()
        print(sol.status.value, float(sol.primal_value).hex(), float(sol.dual_value).hex(),
              sol.iterations, cert)
        return sol

    moments.ConicData.solve = digest
    with tempfile.TemporaryDirectory() as workdir:
        for seed in args.seeds:
            for name in WORKLOADS:
                print(f"# seed {seed} {name}")
                for op in workloads.WORKLOADS[name](seed, workdir).ops():
                    op.run()
    return 0


if __name__ == "__main__":
    sys.exit(main())
