"""In-memory spans around the program's public functions.

The benchmark, not the program, records the spans: ``Tracer.install`` swaps
each traced function for a wrapper in every loaded ``bellselftest`` module
that holds a reference to it, and ``Tracer.uninstall`` puts the originals
back, so untraced operations run the unmodified code.  Spans stay in memory;
``layer_metrics`` turns them into the per-layer numbers at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute, span name); attribute "Class.method" patches a method
TRACED = (
    ("bellselftest.npa.monomials", "build_basis", "monomials.basis"),
    ("bellselftest.npa.moments", "build_moment_problem", "moments.build"),
    ("bellselftest.npa.moments", "to_conic", "moments.to_conic"),
    ("bellselftest.npa.moments", "ConicData.lift_block", "moments.lift"),
    ("bellselftest.npa.sdp", "solve_conic", "sdp.solve"),
    ("bellselftest.npa.membership", "membership_test", "membership.test"),
    ("bellselftest.npa.membership", "Certificate.evaluate", "membership.cert_eval"),
    ("bellselftest.hardy", "maximize_tilted", "hardy.maximize"),
    ("bellselftest.selftest", "canonical_qudit_realization", "selftest.canonical_qudit"),
    ("bellselftest.selftest", "verify_qudit", "selftest.verify_qudit"),
    ("bellselftest.selftest", "verify_qubit", "selftest.verify_qubit"),
    ("bellselftest.qmath", "jordan_blocks", "qmath.jordan"),
    ("bellselftest.scenario", "behavior_of", "scenario.behavior_of"),
    ("bellselftest.tree", "protocol_of", "tree.protocol"),
    ("bellselftest.npa.seesaw", "seesaw_tilted_hardy", "seesaw.total"),
    ("bellselftest._jsonio", "dump", "jsonio.dump"),
    ("bellselftest._jsonio", "load", "jsonio.load"),
    ("bellselftest.cli", "main", "cli.main"),
)

OP_FAMILIES = ("hardy_l2", "hardy_l3", "fourblock_l2", "chsh_l2", "member_l1", "member_l2")


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _behavior_attrs(args, result) -> dict:
    r = args[0]
    sh = r.shape
    da, db = r.cq.dims
    # behavior_of keeps one complex128 (da*db)^2 operator per (a, b, x, y)
    n_ops = sh.nx * sh.ny * sh.na * sh.nb
    return {"entries": int(result.tensor.size),
            "kron_bytes": n_ops * (da * db) ** 2 * 16}


ATTRS = {
    "monomials.basis": lambda args, res: {"words": len(res)},
    "moments.to_conic": lambda args, res: {"rows": res.a_mat.shape[0],
                                           "vars": res.a_mat.shape[1]},
    "sdp.solve": lambda args, res: {"iterations": res.iterations},
    "membership.test": lambda args, res: {"infeasible": int(res.status.value == "Infeasible")},
    "scenario.behavior_of": _behavior_attrs,
    "jsonio.dump": lambda args, res: {"bytes": os.path.getsize(args[1])},
    "jsonio.load": lambda args, res: {"bytes": os.path.getsize(args[0])},
    "selftest.canonical_qudit": lambda args, res: {"edges": len(args[1].per_edge)},
}


class Tracer:
    """Span recorder.  Thread-aware: each thread keeps its own stack of open
    spans, and items of the CLI's sweep pool are parented to the sweep."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cholesky_failures = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, attrs=None, parent=None):
        """Run fn inside a span and return its result."""
        stack = self._stack()
        sid = next(self._ids)   # atomic in CPython, so safe from the sweep's threads
        span = Span(sid, name, parent if parent is not None else (stack[-1] if stack else None),
                    threading.get_ident(), 0.0)
        stack.append(sid)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if attrs is not None:
            span.attrs.update(attrs(args, result))
        return result

    def _wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)
        return wrapper

    def _wrap_sweep(self, sweep):
        @functools.wraps(sweep)
        def traced_sweep(fn, items):
            def run():
                sid = self._stack()[-1]
                return sweep(lambda it: self.call("cli.sweep_item", fn, (it,), parent=sid),
                             items)
            return self.call("cli.sweep", run)
        return traced_sweep

    def _wrap_cho_factor(self, cho_factor):
        @functools.wraps(cho_factor)
        def counted(*args, **kwargs):
            try:
                return cho_factor(*args, **kwargs)
            except np.linalg.LinAlgError:
                with self._lock:
                    self.cholesky_failures += 1
                raise
        return counted

    # ------------------------------------------------------------ patching
    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "bellselftest" or mod_name.startswith("bellselftest.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def install(self) -> None:
        for mod_name, attr, name in TRACED:
            mod = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                setattr(cls, meth, self._wrap(name, original))
                self._patches.append((cls, meth, original))
            else:
                original = getattr(mod, attr)
                self._replace_everywhere(original, self._wrap(name, original))
        cli = importlib.import_module("bellselftest.cli")
        self._replace_everywhere(cli._sweep, self._wrap_sweep(cli._sweep))
        sdp = importlib.import_module("bellselftest.npa.sdp")
        self._replace_everywhere(sdp.cho_factor, self._wrap_cho_factor(sdp.cho_factor))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------- metrics

def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name == "trace.overhead_pct":
        return "%"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(("_ratio", "_per_edge")):
        return "ratio"
    if "bytes" in name:
        return "B"
    return "count"


def _self_times(spans: list[Span]) -> dict:
    child_time: dict = {}
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] = child_time.get(sp.parent, 0.0) + sp.duration
    return {sp.sid: sp.duration - child_time.get(sp.sid, 0.0) for sp in spans}


def _ancestor_family(sp: Span, by_id: dict) -> str | None:
    node = sp
    while node is not None:
        fam = node.attrs.get("family")
        if fam is not None:
            return fam
        node = by_id.get(node.parent)
    return None


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer numbers per traced round: seconds and counts are totals over
    a round divided by the round count; rows, vars and ratios are means."""
    spans = tracer.spans
    by_id = {sp.sid: sp for sp in spans}
    self_t = _self_times(spans)
    per = max(rounds, 1)

    def named(name):
        return [sp for sp in spans if sp.name == name]

    def total(name):
        return sum(sp.duration for sp in named(name)) / per

    def self_total(name):
        return sum(self_t[sp.sid] for sp in named(name)) / per

    def attr_sum(name, key):
        return sum(sp.attrs.get(key, 0) for sp in named(name)) / per

    def attr_mean(name, key):
        vals = [sp.attrs[key] for sp in named(name) if key in sp.attrs]
        return sum(vals) / len(vals) if vals else 0.0

    solves = named("sdp.solve")
    iterations = sum(sp.attrs.get("iterations", 0) for sp in solves)
    solve_s = sum(sp.duration for sp in solves)
    by_family = {fam: 0.0 for fam in OP_FAMILIES}
    for sp in solves:
        fam = _ancestor_family(sp, by_id)
        if fam in by_family:
            by_family[fam] += sp.duration

    canon = named("selftest.canonical_qudit")
    canon_ids = {sp.sid for sp in canon}
    nested_max = sum(1 for sp in named("hardy.maximize") if sp.parent in canon_ids)
    canon_edges = sum(sp.attrs.get("edges", 0) for sp in canon)

    sweeps = named("cli.sweep")
    demo_wall = sum(by_id[sp.parent].duration for sp in sweeps if sp.parent in by_id)
    busy = sum(sp.duration for sp in named("cli.sweep_item"))

    m = {
        "monomials.basis_s": total("monomials.basis"),
        "monomials.words": attr_sum("monomials.basis", "words"),
        "moments.build_s": total("moments.build"),
        "moments.to_conic_s": total("moments.to_conic"),
        "moments.rows": attr_mean("moments.to_conic", "rows"),
        "moments.vars": attr_mean("moments.to_conic", "vars"),
        "moments.lift_s": total("moments.lift"),
        "sdp.solve_s": solve_s / per,
        "sdp.solves": len(solves) / per,
        "sdp.iterations": iterations / per,
        "sdp.iter_s": solve_s / iterations if iterations else 0.0,
        "sdp.cholesky_failures": tracer.cholesky_failures / per,
    }
    for fam in OP_FAMILIES:
        m[f"sdp.solve_s.{fam}"] = by_family[fam] / per
    m.update({
        "membership.test_s": total("membership.test"),
        "membership.infeasible": attr_sum("membership.test", "infeasible"),
        "membership.cert_eval_s": total("membership.cert_eval"),
        "hardy.maximize_s": total("hardy.maximize"),
        "hardy.maximize_calls": len(named("hardy.maximize")) / per,
        "hardy.maximize_calls_per_edge": nested_max / canon_edges if canon_edges else 0.0,
        "selftest.canonical_qudit_s": self_total("selftest.canonical_qudit"),
        "selftest.verify_qudit_s": total("selftest.verify_qudit"),
        "selftest.verify_qubit_s": total("selftest.verify_qubit"),
        "qmath.jordan_s": total("qmath.jordan"),
        "scenario.behavior_of_s": total("scenario.behavior_of"),
        "scenario.behavior_entries": attr_sum("scenario.behavior_of", "entries"),
        "scenario.kron_bytes_computed": attr_sum("scenario.behavior_of", "kron_bytes"),
        "tree.protocol_s": total("tree.protocol"),
        "seesaw.total_s": total("seesaw.total"),
        "seesaw.alternating_s": self_total("seesaw.total"),
        "jsonio.dump_s": total("jsonio.dump"),
        "jsonio.load_s": total("jsonio.load"),
        "jsonio.bytes": (attr_sum("jsonio.dump", "bytes") + attr_sum("jsonio.load", "bytes")),
        "cli.self_s": self_total("cli.main"),
        "cli.sweep_busy_ratio": busy / demo_wall if demo_wall else 0.0,
        "trace.spans": len(spans) / per,
    })
    return m
