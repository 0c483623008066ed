"""Command-line workflows: protocol synthesis, simulation, verification,
Bell-expression bounds and membership tests, plus two reproducible demos.

Exit codes: 0 pass/feasible, 1 fail/infeasible, 2 structural error.  All file
outputs are deterministic (sorted keys, 17-significant-digit floats) so reruns
are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from fractions import Fraction

import numpy as np

from . import _jsonio, hardy, qmath, scenario, selftest, tree
from .npa import membership as npa_membership
from .npa import moments, seesaw
from .npa.sdp import Status
from .scenario import (
    CHSH_SHAPE,
    SINGLE_SOURCE_CHSH_SHAPE,
    Realization,
    ScenarioShape,
    behavior_of,
    observed,
)

EXIT_PASS, EXIT_FAIL, EXIT_ERROR = 0, 1, 2


class StructuralError(ValueError):
    """Bad inputs (schema violations, invalid parameter ranges)."""


def _num_threads() -> int:
    """Sweep workers: always 1, since demo rows run one at a time in the
    calling thread.  Kept because the benchmark records it."""
    return 1


def _sweep(fn, items):
    """In-order map of fn over items.  Kept as a function because the
    benchmark's tracer wraps it."""
    return [fn(it) for it in items]


def _parse_coeffs(text: str) -> np.ndarray:
    vals = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            vals.append(float(Fraction(part)))
        except (ValueError, ZeroDivisionError) as exc:
            raise StructuralError(f"bad coefficient {part!r}") from exc
    return np.array(vals)


def _check_bounds(lo, up):
    """(l, u) or None; the range is checked by ``build_moment_problem``."""
    if lo is None and up is None:
        return None
    if lo is None or up is None:
        raise StructuralError("provide both --l and --u or neither")
    return (float(lo), float(up))


_REQUIRED_KEYS = {
    "realization.v1": ("shape", "dims", "states", "alice", "bob"),
    "protocol.v1": ("d", "coeffs", "root", "edges", "perEdge", "compressedGroups"),
    "observed.v1": ("shape", "table"),
    "behavior.v1": ("shape", "tensor"),
}


def _load_json(path: str, expect_version: str | None = None) -> dict:
    try:
        obj = _jsonio.load(path)
    except FileNotFoundError as exc:
        raise StructuralError(f"no such file: {path}") from exc
    except ValueError as exc:
        raise StructuralError(f"{path}: not valid JSON ({exc})") from exc
    if expect_version:
        if obj.get("version") != expect_version:
            raise StructuralError(
                f"{path}: /version is {obj.get('version')!r}, "
                f"expected {expect_version!r}")
        for key in _REQUIRED_KEYS.get(expect_version, ()):
            if key not in obj:
                raise StructuralError(f"{path}: /{key} is missing")
    return obj


def _write_json(obj, path: str | None) -> None:
    if path:
        _jsonio.dump(obj, path)
    else:
        print(_jsonio.dumps(obj))


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.8f}" if isinstance(v, float) else v for v in row])


def read_csv(path: str) -> tuple[list, list]:
    """Read back a demo CSV: header plus float-typed rows where possible."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        for raw in reader:
            row = []
            for cell in raw:
                try:
                    row.append(float(cell))
                except ValueError:
                    row.append(cell)
            rows.append(row)
    return header, rows


# ---------------------------------------------------------------- subcommands

def cmd_protocol(args) -> int:
    coeffs = _parse_coeffs(args.coeffs)
    try:
        sv = tree.SchmidtVector(coeffs)
        proto = tree.protocol_of(sv)
    except tree.MaximallyEntangledError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"covering tree rooted at {proto.tree.root}, edges:")
    print("  " + ", ".join(str(e) for e in proto.tree.edges))
    print(f"{'edge':>10} {'w':>12} {'theta':>12} {'p':>12} {'swapped':>8}")
    for et in proto.per_edge:
        print(f"{str(et.edge):>10} {et.w:12.8f} {et.theta:12.8f} "
              f"{et.p:12.8f} {str(et.swapped):>8}")
    print("compressed groups: " + "; ".join(str(list(g)) for g in proto.groups))
    if args.out:
        _jsonio.dump(proto.to_json(), args.out)
    return EXIT_PASS


def cmd_simulate(args) -> int:
    r = Realization.from_json(_load_json(args.realization, "realization.v1"))
    r.validate()
    beh = behavior_of(r)
    beh.validate()
    # restrict first: a shape that cannot be observed must leave no file behind
    obs = observed(beh) if args.out_observed else None
    if args.out_behavior:
        _jsonio.dump(beh.to_json(), args.out_behavior)
    if obs is not None:
        _jsonio.dump(obs.to_json(), args.out_observed)
    if not args.out_behavior and not args.out_observed:
        print(_jsonio.dumps(beh.to_json()))
    return EXIT_PASS


def cmd_verify(args) -> int:
    r = Realization.from_json(_load_json(args.realization, "realization.v1"))
    if (args.protocol is None) == (args.w is None):
        raise StructuralError("provide exactly one of --protocol or --w")
    if args.protocol:
        proto = tree.QuditProtocol.from_json(_load_json(args.protocol, "protocol.v1"))
        report = selftest.verify_qudit(r, proto)
    else:
        report = selftest.verify_qubit(r, args.w)
    _write_json(report.to_json(), args.out)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _event(value, shape: ScenarioShape, field: str) -> tuple:
    """An event [s, t, a, b, x, y] of ``field``: six integers, each in range."""
    sizes = (shape.ns, shape.nt, shape.na, shape.nb, shape.nx, shape.ny)
    if not isinstance(value, (list, tuple)) or len(value) != 6 or not all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool) and 0 <= v < n
            for v, n in zip(value, sizes)):
        raise StructuralError(f"{field}: event {value!r} must be six integers "
                              f"[s, t, a, b, x, y], each below {list(sizes)}")
    return tuple(int(v) for v in value)


def _pairs(value, field: str, what: str) -> list:
    """``value``, which must be a list of two-item lists ``what``."""
    if not isinstance(value, list):
        raise StructuralError(f"{field} must be a list of {what} pairs, got {value!r}")
    for item in value:
        if not isinstance(item, list) or len(item) != 2:
            raise StructuralError(f"{field}: {item!r} is not a pair {what}")
    return value


def _problem_from_spec(obj) -> moments.MomentProblem:
    if not isinstance(obj, dict):
        raise StructuralError(f"problem spec must be a JSON object, got {obj!r}")
    if not isinstance(obj.get("shape"), dict):
        raise StructuralError(f"shape must be an object, got {obj.get('shape')!r}")
    shape = ScenarioShape.from_json(obj["shape"])
    level = qmath.json_count(obj["level"], "level", 1)
    basis = moments.MomentBasis(shape, level)

    def expr(terms, field):
        out = moments.zero_expr()
        for event, coeff in _pairs(terms, field, "[event, coefficient]"):
            coeff = qmath.json_number(coeff, field)
            out = out + coeff * basis.prob_expr(*_event(event, shape, field))
        return out

    weights = obj.get("weights")
    if weights is not None:
        blocks = [f"{s},{t}" for s in range(shape.ns) for t in range(shape.nt)]
        if not isinstance(weights, dict) or set(weights) != set(blocks):
            raise StructuralError(f"weights must have exactly the keys {blocks}, "
                                  f"got {weights!r}")
        weights = {tuple(int(v) for v in k.split(",")): qmath.json_number(w, "weights")
                   for k, w in weights.items()}
    zeros = obj.get("zeros", [])
    if not isinstance(zeros, list):
        raise StructuralError(f"zeros must be a list of events, got {zeros!r}")
    constraints = _pairs(obj.get("valueConstraints", []), "valueConstraints",
                         "[terms, value]")
    return moments.build_moment_problem(
        shape, level, weights=weights,
        zeros=[_event(z, shape, "zeros") for z in zeros],
        value_constraints=[(expr(terms, "valueConstraints"),
                            qmath.json_number(const, "valueConstraints"))
                           for terms, const in constraints],
        objective=expr(obj.get("objective", []), "objective"),
        residual_bounds=obj.get("residualBounds"))


def _preset_problem(name: str, w: float | None, level: int,
                    bounds) -> moments.MomentProblem:
    if name == "chsh":
        if w is not None:
            raise StructuralError("--w has no effect with preset chsh")
        if bounds is None:
            shape = SINGLE_SOURCE_CHSH_SHAPE
            basis = moments.MomentBasis(shape, level)
            obj = moments.zero_expr()
            for x in range(2):
                for y in range(2):
                    sgn = -1.0 if x * y else 1.0
                    obj = obj + 0.25 * sgn * moments.correlator_expr(basis, 0, 0, x, y)
            return moments.build_moment_problem(shape, level, weights={(0, 0): 1.0},
                                                objective=obj)
        shape = CHSH_SHAPE
        basis = moments.MomentBasis(shape, level)
        obj = moments.chsh_objective(basis)
        return moments.build_moment_problem(shape, level, weights=None,
                                            objective=obj, residual_bounds=bounds)
    if name == "tilted-hardy":
        if w is None:
            raise StructuralError("preset tilted-hardy needs --w")
        w = hardy._check_w(w, closed=False)
        if bounds is None:
            shape = SINGLE_SOURCE_CHSH_SHAPE
            basis = moments.MomentBasis(shape, level)
            return moments.build_moment_problem(
                shape, level, weights={(0, 0): 1.0},
                zeros=moments.hardy_zero_events(shape),
                objective=moments.tilted_hardy_objective(basis, w))
        shape = CHSH_SHAPE
        basis = moments.MomentBasis(shape, level)
        weights = {(s, t): 0.25 for s in range(2) for t in range(2)}
        return moments.build_moment_problem(
            shape, level, weights=weights,
            zeros=moments.hardy_zero_events(shape),
            objective=moments.tilted_hardy_objective(basis, w),
            residual_bounds=bounds)
    raise StructuralError(f"unknown preset {name!r}")


def cmd_bound(args) -> int:
    bounds = _check_bounds(args.l, args.u)
    if (args.preset is None) == (args.problem is None):
        raise StructuralError("provide exactly one of --preset or --problem")
    if args.problem:
        for flag, value in (("--l/--u", bounds), ("--w", args.w)):
            if value is not None:
                raise StructuralError(
                    f"{flag} has no effect with --problem; set it in the problem file")
        problem = _problem_from_spec(_load_json(args.problem))
    else:
        problem = _preset_problem(args.preset, args.w, args.level, bounds)
    sol = moments.solve_sdp(problem)
    if sol.status is not Status.OPTIMAL:
        print(f"solver status: {sol.status.value}", file=sys.stderr)
        return EXIT_FAIL if sol.status is Status.PRIMAL_INFEASIBLE else EXIT_ERROR
    print(f"{sol.value:.8f}")
    if args.out:
        payload = {"problem": problem.to_json(), "solution": sol.to_json()}
        _jsonio.dump(payload, args.out)
    return EXIT_PASS


def cmd_membership(args) -> int:
    obj = _load_json(args.observed, "observed.v1")
    try:
        obs = scenario.ObservedBehavior.from_json(obj)
    except ValueError as exc:
        raise StructuralError(f"{args.observed}: {exc}") from exc
    bounds = _check_bounds(args.l, args.u)
    result = npa_membership.membership_test(obs, args.level, residual_bounds=bounds)
    print(result.status.value)
    if result.status is npa_membership.MembershipStatus.INFEASIBLE:
        if args.certificate_out and result.certificate is not None:
            _jsonio.dump(result.certificate.to_json(), args.certificate_out)
        return EXIT_FAIL
    if result.status is npa_membership.MembershipStatus.UNKNOWN:
        return EXIT_ERROR
    return EXIT_PASS


def _demo_chsh(args) -> int:
    offs = np.linspace(-0.3, 0.3, args.grid)
    beta = np.pi / 4

    def row(off):
        alpha = np.pi / 4 + off
        r = scenario.chsh_counterexample(alpha, beta)
        beh = behavior_of(r)
        lo, up = scenario.residual_bounds(beh)
        dist = scenario.trace_distance(r.cq.states[(0, 0)], r.cq.states[(1, 1)])
        return [float(alpha), scenario.chsh_value(beh), lo, up, dist]

    rows = _sweep(row, list(offs))
    path = os.path.join(args.out, "chsh_counterexample.csv")
    _write_csv(path, ["alpha", "chshValue", "l", "u", "traceDistance_rho00_rho11"], rows)
    print(f"wrote {path}")
    return EXIT_PASS


def _demo_hardy(args) -> int:
    ws = [-0.2, 0.0, 0.25, 0.5, 0.75] if args.w_grid is None \
        else [hardy._check_w(v, closed=False) for v in args.w_grid.split(",")]

    def row(w):
        r = hardy.canonical_realization(w)
        vrep = selftest.verify_qubit(r, w)
        ss = seesaw.seesaw_tilted_hardy(w)
        shape = SINGLE_SOURCE_CHSH_SHAPE
        basis = moments.MomentBasis(shape, 2)
        bound, _ = moments.max_value(
            shape, 2, moments.tilted_hardy_objective(basis, w),
            zeros=moments.hardy_zero_events(shape), weights={(0, 0): 1.0})
        return [float(w), hardy.q_of_w(w), ss.value, bound,
                "true" if vrep.passed else "false"]

    rows = _sweep(row, ws)
    path = os.path.join(args.out, "hardy_selftest.csv")
    _write_csv(path, ["w", "qFormula", "seesaw", "sdpBound", "pass"], rows)
    print(f"wrote {path}")
    return EXIT_PASS


def cmd_demo(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    if args.name == "chsh-counterexample":
        return _demo_chsh(args)
    if args.name == "hardy-selftest":
        return _demo_hardy(args)
    raise StructuralError(f"unknown demo {args.name!r}")


# --------------------------------------------------------------------- parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each ``parse_args`` call
    returns a fresh namespace, so nothing carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="bellselftest",
        description="Self-testing protocols for Bell scenarios with untrusted sources")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("protocol", help="synthesize a qudit self-testing protocol")
    p.add_argument("--coeffs", required=True,
                   help="comma-separated Schmidt coefficients (fractions allowed)")
    p.add_argument("--out", help="write protocol.v1 JSON here")
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("simulate", help="behavior tensor of a realization file")
    p.add_argument("--realization", required=True)
    p.add_argument("--out-behavior")
    p.add_argument("--out-observed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="verify a realization against a protocol")
    p.add_argument("--realization", required=True)
    p.add_argument("--protocol", help="protocol.v1 JSON (qudit verification)")
    p.add_argument("--w", type=float, help="tilted Hardy parameter (qubit verification)")
    p.add_argument("--out", help="write report.v1 JSON here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", help="SDP upper bound on a Bell expression")
    p.add_argument("--preset", choices=["chsh", "tilted-hardy"])
    p.add_argument("--problem", help="problem spec JSON")
    p.add_argument("--w", type=float)
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--l", type=float, default=None)
    p.add_argument("--u", type=float, default=None)
    p.add_argument("--out", help="write sdp.v1 problem/solution dump here")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("membership", help="quantum membership of an observed table")
    p.add_argument("--observed", required=True)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--l", type=float, default=None)
    p.add_argument("--u", type=float, default=None)
    p.add_argument("--certificate-out")
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("demo", help="reproducible demo sweeps with CSV artifacts")
    p.add_argument("name", choices=["chsh-counterexample", "hardy-selftest"])
    p.add_argument("--out", default="demo-out")
    p.add_argument("--grid", type=int, default=13)
    p.add_argument("--w-grid", default=None,
                   help="comma-separated w values for hardy-selftest")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StructuralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
