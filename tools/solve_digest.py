"""Print one line per conic solve of the benchmark's bound and membership rounds.

    python3 tools/solve_digest.py [--seeds 7 8 11 12 ...] [--against FILE]

Run from any directory; the checkout is the one that holds this file, so to
digest another checkout, copy this file into its ``tools/``.  For each seed
(default 7, 8 and 11-18) it runs one round of the ``bounds`` and of the
``membership`` workload of perfbench/workloads.py, with OpenBLAS held at one
thread.  Each line is tagged with the round's position of its operation and
the operation's name, then a tab:

- per ``ConicData.solve``: its status, the primal and dual values as
  ``float.hex``, the iteration count, the sha256 of the certificate's bytes
  ("-" without one) and the cone's block sizes ("-" without blocks);
- per operation, after its solves: "= " and the operation's answer (the
  status it returns).

A "# seed S workload" header opens each round.  Two checkouts solve these
problems bit for bit alike when their outputs are equal.

With ``--against FILE``, a digest saved from another checkout, it matches
the lines by (seed, workload, operation) and prints instead each operation
whose solves were added or removed or whose answer differs, each solve whose
status or iteration count differs, the number of identical solve lines and
the largest change in a primal or dual value.  It exits 1 when any of these
differ.
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


def _answer(out) -> str:
    """The status an operation returns: a membership result's, or the
    first field of a bound's (status, value)."""
    status = out.status if hasattr(out, "status") else out[0]
    return getattr(status, "value", status)


def digest_lines(seeds) -> list:
    """The digest's lines, a "# seed S workload" header before each round."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"     # before numpy loads OpenBLAS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    moments = workloads.moments
    if Path(moments.__file__).resolve().parents[1] != ROOT / "src" / "bellselftest":
        raise ImportError(f"imported bellselftest from {moments.__file__}, "
                          f"not from this checkout")

    lines, tag = [], [""]
    solve = moments.ConicData.solve

    def digest(conic):
        sol = solve(conic)
        cert = "-" if sol.certificate is None else \
            hashlib.sha256(sol.certificate.tobytes()).hexdigest()
        blocks = ",".join(map(str, conic.cone.blocks)) or "-"
        lines.append(f"{tag[0]}\t{sol.status.value} {float(sol.primal_value).hex()} "
                     f"{float(sol.dual_value).hex()} {sol.iterations} {cert} {blocks}")
        return sol

    moments.ConicData.solve = digest
    try:
        with tempfile.TemporaryDirectory() as workdir:
            for seed in seeds:
                for name in WORKLOADS:
                    lines.append(f"# seed {seed} {name}")
                    for i, op in enumerate(workloads.WORKLOADS[name](seed, workdir).ops()):
                        tag[0] = f"{i} {op.name}"
                        lines.append(f"{tag[0]}\t= {_answer(op.run())}")
    finally:
        moments.ConicData.solve = solve
    return lines


def _by_op(lines: list) -> dict:
    """{(header, op tag): (solve lines, answer)}, in the order of the lines."""
    ops, header = {}, ""
    for line in lines:
        if line.startswith("#"):
            header = line[2:]
            continue
        tag, fields = line.split("\t", 1)
        entry = ops.setdefault((header, tag), [[], None])
        if fields.startswith("= "):
            entry[1] = fields[2:]
        else:
            entry[0].append(fields)
    return ops


def compare(saved: list, lines: list) -> int:
    """Print how ``lines`` differ from ``saved``, matched by (seed,
    workload, operation); 1 when an operation's solves were added or
    removed, its answer or a solve's status or iteration count differs,
    else 0."""
    old_ops, new_ops = _by_op(saved), _by_op(lines)
    differ = moved = identical = solves = 0
    largest = 0.0
    for key in [*old_ops, *(k for k in new_ops if k not in old_ops)]:
        where = f"{key[0]} op {key[1]}"
        (old, old_answer), (new, new_answer) = (
            ops.get(key, ([], "missing")) for ops in (old_ops, new_ops))
        if len(old) != len(new):
            differ += 1
            change = "removed" if len(new) < len(old) else "added"
            print(f"{where}: solves {change}, {len(old)} -> {len(new)}")
        if old_answer != new_answer:
            differ += 1
            print(f"{where}: answer {old_answer} -> {new_answer}")
        for count, (a, b) in enumerate(zip(old, new), 1):
            solves += 1
            identical += a == b
            old_f, new_f = a.split(), b.split()
            if (old_f[0], old_f[3]) != (new_f[0], new_f[3]):
                moved += 1
                print(f"{where} solve {count}: {old_f[0]} in {old_f[3]} -> "
                      f"{new_f[0]} in {new_f[3]} iterations")
            for x, y in zip(old_f[1:3], new_f[1:3]):
                # a NaN (no value) adds nothing: max keeps largest against it
                largest = max(largest, abs(float.fromhex(x) - float.fromhex(y)))
    print(f"{solves} solves matched: {moved} differ in status or iterations, "
          f"{identical} lines identical, largest value change {largest:.3g}; "
          f"{differ} differences in operations' solve lists or answers")
    return 1 if moved or differ else 0


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
