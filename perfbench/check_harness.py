"""Tests of the benchmark's own checks: each check is fed a deliberately wrong
answer and must report it, and the measuring loop must count it as a failed
operation.  The file name keeps the repository's pytest run from collecting
it; run it with

    python3 perfbench/check_harness.py
"""

from __future__ import annotations

import math
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from bellselftest import scenario, selftest, tree  # noqa: E402
from bellselftest.npa import membership  # noqa: E402

Q0 = checks.q_of_w(0.0)


def test_q_of_w_matches_closed_form_points():
    assert abs(checks.q_of_w(0.0) - (5 ** 1.5 - 11) / 2) < 1e-15
    assert abs(checks.q_of_w(1.0) - 1.0) < 1e-15
    assert abs(checks.w_of_pair(1.0, 1.0) + 0.25) < 1e-15


def test_bound_flags_wrong_status_and_low_value():
    assert checks.bound("Optimal", Q0, Q0) == []
    assert checks.bound("MaxIterations", Q0, Q0)
    assert checks.bound("Optimal", Q0 - 1e-6, Q0)


def test_four_block_split_flags_mismatch():
    assert checks.four_block_split(Q0 / 4, Q0) == []
    assert checks.four_block_split(Q0 / 4 + 1e-6, Q0)


def test_chsh_chain_flags_each_property():
    good = [1 / math.sqrt(2), 0.76, 0.83, 0.88]
    assert checks.chsh_chain(good) == [[], [], [], []]
    assert checks.chsh_chain([0.70] + good[1:])[0]          # not 1/sqrt2 at l = u
    assert checks.chsh_chain(good[:2] + [0.75, 0.88])[2]    # decreased
    assert checks.chsh_chain(good[:3] + [1.01])[3]          # above 1


def test_membership_expectations():
    assert checks.expected_membership("si", None, (0.25, 0.25)) == "Feasible"
    assert checks.expected_membership("pr", 1.0, None) == "Feasible"
    assert checks.expected_membership("pr", 1.0, (0.2, 0.3)) == "Infeasible"
    assert checks.expected_membership("noisy", 0.8, (0.25, 0.25)) == "Infeasible"
    assert checks.expected_membership("noisy", 0.6, (0.2, 0.3)) == "Feasible"
    assert checks.expected_membership("noisy", 0.8, (0.2, 0.3)) is None
    assert checks.membership("Feasible", "Infeasible", False)
    assert checks.membership("Unknown", None, False)
    assert checks.membership("Infeasible", "Infeasible", False)   # no certificate
    assert checks.membership("Infeasible", None, True) == []


def test_certificate_flags_both_sides():
    assert checks.certificate(-1.0, [0.0, 0.3]) == []
    assert checks.certificate(0.1, [0.3])
    assert checks.certificate(-1.0, [0.3, -1e-6])


def test_covering_tree_flags_bad_trees():
    c = [0.5, 0.3, 0.3, 0.2]
    assert checks.covering_tree(c, [(0, 1), (0, 2), (0, 3)]) == []
    assert checks.covering_tree(c, [(0, 1), (1, 2), (0, 3)])     # equal coefficients
    assert checks.covering_tree(c, [(0, 1), (0, 2)])             # too few edges
    assert checks.covering_tree(c, [(0, 1), (0, 1), (0, 3)])     # not connected


def _small_device():
    sv = tree.SchmidtVector(np.array([3.0, 2.0, 1.0]))
    proto = tree.protocol_of(sv)
    real = selftest.canonical_qudit_realization(sv.coeffs, proto, restarts=2)
    return sv.coeffs, proto.tree.edges, scenario.behavior_of(real).tensor


def test_device_checks_flag_wrong_behavior():
    coeffs, edges, tensor = _small_device()
    assert checks.behavior(tensor) == []
    assert checks.edge_conditions(tensor, coeffs, edges) == []
    bad = tensor.copy()
    bad[0, 0, 0, 0, 0, 0] -= 1e-3
    assert checks.behavior(bad)
    moved = tensor.copy()
    moved[0, 0, 0, 0, 1, 1] += 1e-6       # edge 0's violation entry
    assert checks.edge_conditions(moved, coeffs, edges)
    zero = tensor.copy()
    zero[0, 0, 0, 0, 2, 2] = 1e-8         # edge 0's p(00|x1 x1) zero
    assert checks.edge_conditions(zero, coeffs, edges)


def test_extracted_and_exit_code():
    assert checks.extracted([0.6, 0.8], [0.6, 0.8]) == []
    assert checks.extracted([0.6, 0.8 + 1e-6], [0.6, 0.8])
    assert checks.exit_code(0, 0) == [] and checks.exit_code(0, 1)


def test_demo_row_flags_each_column():
    q = checks.q_of_w(0.25)
    row = {"w": "0.25", "qFormula": f"{q:.8f}", "seesaw": f"{q:.8f}",
           "sdpBound": f"{q:.8f}", "pass": "true"}
    assert checks.demo_row(row) == []
    for key, value in (("qFormula", f"{q + 1e-6:.8f}"), ("seesaw", f"{q - 2e-6:.8f}"),
                       ("seesaw", f"{q + 1e-7:.8f}"), ("sdpBound", f"{q - 1e-6:.8f}"),
                       ("pass", "false")):
        assert checks.demo_row(dict(row, **{key: value})), key


def test_bounds_check_flags_wrong_outputs():
    wl = workloads.Bounds(0, "")
    single = [("Optimal", checks.q_of_w(w) + 1e-9) for w in wl.four_w + wl.l3_w]
    four = [("Optimal", (checks.q_of_w(w) + 1e-9) / 4) for w in wl.four_w]
    chain = [("Optimal", v) for v in (1 / math.sqrt(2), 0.74, 0.78, 0.83, 0.88)]
    right = single + four + chain
    assert len(right) == len(wl.ops())
    assert all(e == [] for e in wl.check(right)), wl.check(right)
    wrong = list(right)
    i = len(single)
    wrong[i] = ("Optimal", right[i][1] + 1e-5)      # four-block != single / 4
    assert wl.check(wrong)[i]


def test_membership_check_flags_wrong_status_and_certificate():
    wl = workloads.Membership(0, "")
    # one source-independent table, the noisy PR box with v > 1/sqrt2, the PR box
    wl.cases = wl.cases[:3] + wl.cases[12:18]
    results = [membership.membership_test(o, lvl, residual_bounds=iv)
               for lvl, _, _, o, iv in wl.cases]
    assert all(e == [] for e in wl.check(results))
    flipped = list(results)
    flipped[0] = membership.MembershipResult(membership.MembershipStatus.INFEASIBLE)
    assert wl.check(flipped)[0]
    bad = [i for i, r in enumerate(results) if r.certificate is not None][0]
    cert = results[bad].certificate
    forged = membership.Certificate(y=-cert.y, row_spec=cert.row_spec, shape=cert.shape)
    broken = list(results)
    broken[bad] = membership.MembershipResult(results[bad].status, certificate=forged)
    assert wl.check(broken)[bad]


class _Fake:
    """A workload whose second operation returns a wrong answer and whose
    third raises."""

    def ops(self):
        def boom():
            raise ValueError("boom")
        return [workloads.Op("right", "f", lambda: 1), workloads.Op("wrong", "f", lambda: 2),
                workloads.Op("raises", "f", boom)]

    def check(self, outputs):
        return [[] if out == 1 else ["wrong"] for out in outputs[:2]] + [[]]


def test_measure_counts_wrong_and_raising_operations():
    res = worker.measure(_Fake(), 0.0, None)
    assert (res["attempted"], res["failed"], res["correct"]) == (3, 2, False)
    assert res["metrics"]["ops_per_s"] > 0
    res = worker.measure(_Fake(), 0.0, worker.tracing.Tracer())
    assert (res["attempted"], res["failed"]) == (3, 2)


def test_devices_check_flags_wrong_exit_codes():
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.Devices(0, tmp)
        errors = wl.check([{"protocol": 2}] * len(wl.devices) + [2])
        assert all(errors)
        dev = wl.devices[-1]       # d = 16: no simulate step
        rc = {"protocol": 0, "verify": 1, "verify_perturbed": 0}
        with open(wl.path(dev.tag, "protocol"), "w", encoding="utf-8") as fh:
            fh.write('{"edges": []}')
        assert wl.check_trip(dev, rc)


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
