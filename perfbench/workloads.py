"""The benchmark's three workloads.

Each workload makes its inputs from a seed when it is constructed, lists one
round of operations with ``ops()``, and checks a round's outputs with
``check(outputs)``, which returns one list of error messages per operation.
A round always holds the same operations in the same order; only the
seeded parameters differ between seeds.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import checks
from bellselftest import _jsonio, cli, scenario, selftest, tree
from bellselftest.npa import membership, moments
from bellselftest.scenario import CHSH_SHAPE, SINGLE_SOURCE_CHSH_SHAPE


@dataclass
class Op:
    name: str
    family: str
    run: Callable[[], object]


def _read_json(path: str):
    """Outputs are read back with the standard library, not the program's
    own reader, so that the checks do not run program code."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cli(argv: list) -> int:
    """cli.main with its standard output captured, as a caller scripting the
    command line would see it."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# ------------------------------------------------------------------ bounds

# Seeded parameters jitter a little around fixed nominal values: a seed
# changes the inputs but hardly the solver's iteration counts, so that the
# spread between seeds measures the program, not the draw.
JITTER = 0.002
L3_W = (-0.1, 0.15, 0.4)          # level-3 grid
FOUR_BLOCK_W = (0.0, 0.5)         # plus two seeded w near -0.03 and 0.03
NEAR_ZERO_W = (-0.03, 0.03)
CHSH_HALF_WIDTHS = (0.0, 0.03, 0.06, 0.10, 0.15)


def _tilted_hardy(w: float, level: int, four_block: bool):
    shape = CHSH_SHAPE if four_block else SINGLE_SOURCE_CHSH_SHAPE
    weights = {(s, t): 1.0 / (shape.ns * shape.nt)
               for s in range(shape.ns) for t in range(shape.nt)}
    basis = moments.MomentBasis(shape, level)
    value, sol = moments.max_value(shape, level, moments.tilted_hardy_objective(basis, w),
                                   zeros=moments.hardy_zero_events(shape), weights=weights)
    return sol.status.value, value


def _chsh(interval):
    basis = moments.MomentBasis(CHSH_SHAPE, 2)
    value, sol = moments.max_value(CHSH_SHAPE, 2, moments.chsh_objective(basis),
                                   residual_bounds=interval)
    return sol.status.value, value


class Bounds:
    """SDP upper bounds.

    The operation mix puts the median latency among the three four-block
    solves at w near 0, which take the same number of iterations whatever the
    seed: seven faster solves (single-source level 2 at every four-block w,
    level 3 on the w grid) sit below them and six slower ones (four-block
    at w = 0.5, five CHSH intervals) above them."""

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        def jitter(v):
            return v + float(rng.uniform(-JITTER, JITTER))
        self.l3_w = [jitter(w) for w in L3_W]
        near = [jitter(w) for w in NEAR_ZERO_W]
        self.four_w = [near[0], FOUR_BLOCK_W[0], near[1], FOUR_BLOCK_W[1]]
        self.intervals = [(0.25 - jitter(h), 0.25 + jitter(h)) if h else (0.25, 0.25)
                          for h in CHSH_HALF_WIDTHS]

    def describe(self) -> dict:
        return {"hardy_l3_w": self.l3_w, "hardy_l2_w": self.four_w,
                "fourblock_l2_w": self.four_w, "chsh_l2_intervals": self.intervals}

    def ops(self) -> list:
        out = [Op(f"hardy_l2 w={w}", "hardy_l2", lambda w=w: _tilted_hardy(w, 2, False))
               for w in self.four_w]
        out += [Op(f"hardy_l3 w={w}", "hardy_l3", lambda w=w: _tilted_hardy(w, 3, False))
                for w in self.l3_w]
        out += [Op(f"fourblock_l2 w={w}", "fourblock_l2",
                   lambda w=w: _tilted_hardy(w, 2, True)) for w in self.four_w]
        out += [Op(f"chsh_l2 {lo},{up}", "chsh_l2", lambda iv=(lo, up): _chsh(iv))
                for lo, up in self.intervals]
        return out

    def check(self, outputs: list) -> list:
        n4, n3 = len(self.four_w), len(self.l3_w)
        single, l3 = outputs[:n4], outputs[n4:n4 + n3]
        four, chain = outputs[n4 + n3:2 * n4 + n3], outputs[2 * n4 + n3:]
        errors = [checks.bound(*out, checks.q_of_w(w)) for out, w in zip(single, self.four_w)]
        errors += [checks.bound(*out, checks.q_of_w(w)) for out, w in zip(l3, self.l3_w)]
        for out, ref, w in zip(four, single, self.four_w):
            errs = checks.bound(*out, 0.25 * checks.q_of_w(w))
            if not errs and ref[0] == "Optimal":
                errs = checks.four_block_split(out[1], ref[1])
            errors.append(errs)
        chain_errors = [[] if status == "Optimal" else [f"status {status}, expected Optimal"]
                        for status, _ in chain]
        if not any(chain_errors):
            chain_errors = checks.chsh_chain([v for _, v in chain])
        return errors + chain_errors


# -------------------------------------------------------------- membership

MEMBERSHIP_INTERVALS = (None, (0.25, 0.25), (0.2, 0.3))
V_LOW, V_HIGH = (0.55, 0.6), (0.8, 0.85)   # either side of 1/sqrt2


def _projector(rng, d: int = 2) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def source_independent_table(rng) -> np.ndarray:
    """p(stab|st) = p(st) tr(rho A_{a|s} (x) B_{b|t}) for a random full-rank
    two-qubit state, random rank-one qubit measurements and p(st) = 1/4."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T + 0.05 * np.eye(4)
    rho /= np.trace(rho).real
    eye = np.eye(2)
    alice = [(e, eye - e) for e in (_projector(rng), _projector(rng))]
    bob = [(e, eye - e) for e in (_projector(rng), _projector(rng))]
    table = np.empty((2, 2, 2, 2))
    for s in range(2):
        for t in range(2):
            for a in range(2):
                for b in range(2):
                    op = np.kron(alice[s][a], bob[t][b])
                    table[s, t, a, b] = 0.25 * np.trace(rho @ op).real
    return table


def noisy_pr_table(v: float) -> np.ndarray:
    """p(stab|st) = (1/4) [v PR(ab|st) + (1 - v) / 4]."""
    table = np.empty((2, 2, 2, 2))
    for s in range(2):
        for t in range(2):
            for a in range(2):
                for b in range(2):
                    pr = 0.5 if (a + b) % 2 == (s * t) % 2 else 0.0
                    table[s, t, a, b] = 0.25 * (v * pr + (1.0 - v) / 4.0)
    return table


class Membership:
    """Membership tests of a seeded stream of observed tables, each under no
    residual bound, l = u = 1/4 and (0.2, 0.3).

    Six level-1 tables and two level-2 tables: the six fast unbounded
    level-1 tests and the six slow level-2 tests flank the twelve bounded
    level-1 tests, so the median latency falls in the middle of those."""

    LEVEL_KINDS = {1: ("si", "si", "noisy_low", "noisy_low", "noisy_high", "pr"),
                   2: ("si", "pr")}

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.tables = []   # (level, kind, v, table)
        for level, kinds in self.LEVEL_KINDS.items():
            for kind in kinds:
                if kind == "si":
                    self.tables.append((level, "si", None, source_independent_table(rng)))
                elif kind == "pr":
                    self.tables.append((level, "pr", 1.0, noisy_pr_table(1.0)))
                else:
                    v = float(rng.uniform(*(V_LOW if kind == "noisy_low" else V_HIGH)))
                    self.tables.append((level, "noisy", v, noisy_pr_table(v)))
        self.cases = [(level, kind, v, scenario.ObservedBehavior(CHSH_SHAPE, table), iv)
                      for level, kind, v, table in self.tables
                      for iv in MEMBERSHIP_INTERVALS]

    def describe(self) -> dict:
        return {"tables": [{"level": lvl, "kind": kind, "v": v}
                           for lvl, kind, v, _ in self.tables],
                "intervals": list(MEMBERSHIP_INTERVALS)}

    def ops(self) -> list:
        return [Op(f"member_l{lvl} {kind} v={v} {iv}", f"member_l{lvl}",
                   lambda o=o, lvl=lvl, iv=iv: membership.membership_test(
                       o, lvl, residual_bounds=iv))
                for lvl, kind, v, o, iv in self.cases]

    def check(self, outputs: list) -> list:
        errors = []
        for (lvl, kind, v, _, iv), res in zip(self.cases, outputs):
            expected = checks.expected_membership(kind, v, iv)
            errors.append(checks.membership(res.status.value, expected,
                                            res.certificate is not None))
        for i, ((lvl, _, _, obs, iv), res) in enumerate(zip(self.cases, outputs)):
            if res.status.value != "Infeasible" or res.certificate is None:
                continue
            own = res.certificate.evaluate(obs)
            feasible = [res.certificate.evaluate(o2)
                        for (l2, _, _, o2, iv2), r2 in zip(self.cases, outputs)
                        if l2 == lvl and iv2 == iv and r2.status.value == "Feasible"]
            errors[i] += checks.certificate(own, feasible)
        return errors


# ----------------------------------------------------------------- devices

FIGURE2 = "1/6,1/8,1/6,1/6,1/8,1/4"
D16_LEVELS = 4   # distinct coefficient values at d = 16, so most edges share a tilt


def distinct_coeffs(rng, d: int) -> list:
    """d coefficients 0.25 apart, each jittered."""
    return [1.0 + 0.25 * k + float(rng.uniform(-JITTER, JITTER)) for k in range(d)]


def shared_coeffs(rng, d: int, levels: int) -> list:
    """d coefficients taking `levels` jittered values 0.5 apart.  Index 0
    holds the lowest value, which fixes the set of tilts; the other indices
    take the values in seeded order."""
    vals = [1.0 + 0.5 * k + float(rng.uniform(-JITTER, JITTER)) for k in range(levels)]
    rest = [vals[i % levels] for i in range(1, d)]
    return [vals[0]] + [rest[i] for i in rng.permutation(d - 1)]


@dataclass
class Device:
    tag: str
    coeffs_text: str
    simulate: bool
    perturb_index: int
    perturb_eps: float

    @property
    def coeffs(self) -> np.ndarray:
        c = np.array([float(Fraction(p)) for p in self.coeffs_text.split(",")])
        return c / np.linalg.norm(c)


class Devices:
    """Qudit round trips through cli.main, plus the hardy-selftest demo.

    One operation is one round trip: protocol, canonical device written as
    realization.v1, simulate (d = 6 and 8 only), verify, and verify of a
    perturbed copy.  Each step's output is kept on disk for the checks."""

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.dir = workdir
        specs = [("d6", FIGURE2, True),
                 ("d8", ",".join(repr(c) for c in distinct_coeffs(rng, 8)), True),
                 ("d16", ",".join(repr(c) for c in shared_coeffs(rng, 16, D16_LEVELS)), False)]
        self.devices = []
        for tag, text, sim in specs:
            d = len(text.split(","))
            self.devices.append(Device(tag, text, sim, int(rng.integers(d)),
                                       float(rng.uniform(1e-3, 1e-2))))

    def path(self, tag: str, kind: str) -> str:
        return os.path.join(self.dir, f"{tag}_{kind}.json")

    def describe(self) -> dict:
        out = []
        for dev in self.devices:
            c = dev.coeffs
            edges = tree.build_tree(tree.SchmidtVector(c)).edges
            tilts = {round(checks.w_of_pair(c[a], c[b]), 12) for a, b in edges}
            out.append({"tag": dev.tag, "d": len(c), "coeffs": dev.coeffs_text,
                        "edges": len(edges), "distinct_tilts": len(tilts),
                        "simulate": dev.simulate, "perturb_index": dev.perturb_index,
                        "perturb_eps": dev.perturb_eps})
        return {"devices": out, "demo": "hardy-selftest, default w grid and seed"}

    @staticmethod
    def perturbed(real: scenario.Realization, dev: Device) -> scenario.Realization:
        """The device with one Schmidt coefficient scaled by (1 + eps) and the
        state renormalized; the measurements are unchanged."""
        d = real.cq.dims[0]
        c = dev.coeffs.copy()
        c[dev.perturb_index] *= 1.0 + dev.perturb_eps
        c /= np.linalg.norm(c)
        psi = np.zeros(d * d, dtype=complex)
        psi[np.arange(d) * (d + 1)] = c
        cq = scenario.ClassicalQuantumState(real.shape, real.cq.dims,
                                            {(0, 0): np.outer(psi, psi.conj())})
        return scenario.Realization(cq=cq, alice=real.alice, bob=real.bob)

    def round_trip(self, dev: Device) -> dict:
        """Exit codes of the CLI steps of one round trip."""
        p = functools.partial(self.path, dev.tag)
        rcs = {"protocol": _cli(["protocol", "--coeffs", dev.coeffs_text,
                                 "--out", p("protocol")])}
        proto = tree.QuditProtocol.from_json(_jsonio.load(p("protocol")))
        real = selftest.canonical_qudit_realization(proto.coeffs, proto)
        _jsonio.dump(real.to_json(), p("realization"))
        if dev.simulate:
            rcs["simulate"] = _cli(["simulate", "--realization", p("realization"),
                                    "--out-behavior", p("behavior")])
        rcs["verify"] = _cli(["verify", "--realization", p("realization"),
                              "--protocol", p("protocol"), "--out", p("report")])
        _jsonio.dump(self.perturbed(real, dev).to_json(), p("perturbed"))
        rcs["verify_perturbed"] = _cli(["verify", "--realization", p("perturbed"),
                                        "--protocol", p("protocol")])
        return rcs

    def demo(self) -> int:
        return _cli(["demo", "hardy-selftest", "--out", os.path.join(self.dir, "demo")])

    def ops(self) -> list:
        out = [Op(f"{dev.tag} round trip", f"trip_{dev.tag}",
                  lambda dev=dev: self.round_trip(dev)) for dev in self.devices]
        return out + [Op("demo hardy-selftest", "demo", self.demo)]

    def check_trip(self, dev: Device, rcs: dict) -> list:
        p = functools.partial(self.path, dev.tag)
        errs = checks.exit_code(rcs.get("protocol"), 0)
        if errs:
            return errs
        edges = [tuple(e) for e in _read_json(p("protocol"))["edges"]]
        errs += checks.covering_tree(dev.coeffs, edges)
        if dev.simulate:
            errs += checks.exit_code(rcs.get("simulate"), 0)
            if rcs.get("simulate") == 0:
                tensor = np.asarray(_read_json(p("behavior"))["tensor"], dtype=float)
                errs += checks.behavior(tensor)
                errs += checks.edge_conditions(tensor, dev.coeffs, edges)
        errs += checks.exit_code(rcs.get("verify"), 0)
        if rcs.get("verify") == 0:
            report = _read_json(p("report"))
            errs += checks.extracted(report["extractedCoefficients"]["0,0"], dev.coeffs)
        errs += [f"perturbed device: {e}"
                 for e in checks.exit_code(rcs.get("verify_perturbed"), 1)]
        return errs

    def check_demo(self, rc) -> list:
        errs = checks.exit_code(rc, 0)
        if errs:
            return errs
        with open(os.path.join(self.dir, "demo", "hardy_selftest.csv"),
                  newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 5:
            errs.append(f"{len(rows)} demo rows, expected 5")
        for row in rows:
            errs += checks.demo_row(row)
        return errs

    def check(self, outputs: list) -> list:
        trips, demo_rc = outputs[:-1], outputs[-1]
        return ([self.check_trip(dev, rcs) for dev, rcs in zip(self.devices, trips)]
                + [self.check_demo(demo_rc)])


WORKLOADS = {"bounds": Bounds, "membership": Membership, "devices": Devices}
