"""Print one line per conic solve of the benchmark's bound and membership rounds.

    python3 tools/solve_digest.py [--seeds 7 8 11 12 ...] [--against FILE]

Run from any directory; the checkout is the one that holds this file.  For
each seed (default 7, 8 and 11-18) it runs one round of the ``bounds`` and
one of the ``membership`` workload of perfbench/workloads.py, with OpenBLAS
held at one thread, and prints, per ``ConicData.solve``, its status, the
primal and dual values as ``float.hex``, the iteration count and the sha256
of the certificate's bytes ("-" without one).  Two checkouts solve these
400 problems bit for bit alike when their outputs are equal.

With ``--against FILE``, a digest saved from another checkout, it prints
instead each solve whose status or iteration count differs from FILE's,
the number of identical lines and the largest change in a primal or dual
value, and exits 1 when a status, an iteration count or the list of solves
differs.
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


def digest_lines(seeds) -> list:
    """The digest's lines, a "# seed S workload" header before each round."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"     # before numpy loads OpenBLAS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    moments = workloads.moments
    if Path(moments.__file__).resolve().parents[1] != ROOT / "src" / "bellselftest":
        raise ImportError(f"imported bellselftest from {moments.__file__}, "
                          f"not from this checkout")

    lines = []
    solve = moments.ConicData.solve

    def digest(conic):
        sol = solve(conic)
        cert = "-" if sol.certificate is None else \
            hashlib.sha256(sol.certificate.tobytes()).hexdigest()
        lines.append(f"{sol.status.value} {float(sol.primal_value).hex()} "
                     f"{float(sol.dual_value).hex()} {sol.iterations} {cert}")
        return sol

    moments.ConicData.solve = digest
    try:
        with tempfile.TemporaryDirectory() as workdir:
            for seed in seeds:
                for name in WORKLOADS:
                    lines.append(f"# seed {seed} {name}")
                    for op in workloads.WORKLOADS[name](seed, workdir).ops():
                        op.run()
    finally:
        moments.ConicData.solve = solve
    return lines


def compare(saved: list, lines: list) -> int:
    """Print how ``lines`` differ from ``saved``; 1 when a status, an
    iteration count or the list of solves differs, else 0."""
    headers = [(i, line) for i, line in enumerate(lines) if line.startswith("#")]
    if len(saved) != len(lines) or any(saved[i] != line for i, line in headers):
        print(f"the solves differ: {len(saved)} saved lines against {len(lines)}")
        return 1
    moved, identical, largest = 0, 0, 0.0
    where, count = "", 0
    for old, new in zip(saved, lines):
        if new.startswith("#"):
            where, count = new[2:], 0
            continue
        count += 1
        identical += old == new
        old_f, new_f = old.split(), new.split()
        if (old_f[0], old_f[3]) != (new_f[0], new_f[3]):
            moved += 1
            print(f"{where} solve {count}: {old_f[0]} in {old_f[3]} -> "
                  f"{new_f[0]} in {new_f[3]} iterations")
        for a, b in zip(old_f[1:3], new_f[1:3]):
            # a NaN (no value) adds nothing: max keeps largest against it
            largest = max(largest, abs(float.fromhex(a) - float.fromhex(b)))
    solves = len(lines) - len(headers)
    print(f"{solves} solves: {moved} differ in status or iterations, {identical} lines "
          f"identical, largest value change {largest:.3g}")
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=SEEDS)
    parser.add_argument("--against", type=Path, metavar="FILE",
                        help="compare with a digest saved from another checkout")
    args = parser.parse_args(argv)
    saved = args.against.read_text().splitlines() if args.against else None
    try:
        lines = digest_lines(args.seeds)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if saved is not None:
        return compare(saved, lines)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
