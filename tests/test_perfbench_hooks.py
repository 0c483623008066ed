"""The names the benchmark under perfbench/ patches or calls must exist."""

import importlib
from pathlib import Path

import pytest

from bellselftest import _jsonio, cli, hardy, selftest
from bellselftest.npa import moments, sdp, seesaw
from bellselftest.scenario import SINGLE_SOURCE_CHSH_SHAPE
from bellselftest.tree import QuditProtocol

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    maximize, sweep = hardy.maximize_tilted, cli._sweep
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert hardy.maximize_tilted is not maximize
    finally:
        tracer.uninstall()
    assert hardy.maximize_tilted is maximize and cli._sweep is sweep
    assert cli._num_threads() >= 1


def test_traced_solve_records_each_layer(monkeypatch):
    """A decorator on to_conic or solve_conic, or a Cholesky moved off
    sdp.cho_factor, must not hide a solve from the tracer."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    cho_factor, factored = sdp.cho_factor, []

    def counting(*args, **kwargs):
        factored.append(1)
        return cho_factor(*args, **kwargs)

    monkeypatch.setattr(sdp, "cho_factor", counting)
    basis = moments.MomentBasis(SINGLE_SOURCE_CHSH_SHAPE, 1)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        moments.max_value(SINGLE_SOURCE_CHSH_SHAPE, 1,
                          moments.correlator_expr(basis, 0, 0, 0, 0), weights={(0, 0): 1.0})
    finally:
        tracer.uninstall()
    names = [sp.name for sp in tracer.spans]
    assert names.count("moments.to_conic") == 1
    assert names.count("sdp.solve") == 1
    assert factored
    assert sdp.cho_factor is counting


def test_traced_seesaw_records_its_search(monkeypatch):
    """The see-saw must call the search through ``hardy.maximize_tilted``, or
    the tracer's ``hardy.maximize_s`` reads 0 without any error."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        seesaw.seesaw_tilted_hardy(0.3)
    finally:
        tracer.uninstall()
    assert [sp.name for sp in tracer.spans].count("hardy.maximize") == 1


@pytest.mark.parametrize("name", ["bounds", "membership", "devices"])
def test_workload_runs_and_checks_clean(monkeypatch, tmp_path, name):
    """Every benchmark operation runs once against the current signatures and
    its outputs pass the workload's own checks."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    assert sorted(workloads.WORKLOADS) == ["bounds", "devices", "membership"]
    wl = workloads.WORKLOADS[name](0, str(tmp_path))
    errors = wl.check([op.run() for op in wl.ops()])
    assert errors and all(e == [] for e in errors), errors


def test_traced_round_trip_records_file_io(monkeypatch, tmp_path):
    """Every file the CLI and the workload write or read goes through
    ``_jsonio.dump`` and ``_jsonio.load``, so the tracer's ``jsonio`` spans
    count the bytes on disk; a write past ``dump`` would read 0 silently.
    Each ``verify --protocol`` records one ``qmath.jordan`` span, its single
    stacked Jordan decomposition, under its ``selftest.verify_qudit`` span."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    proto_path, real_path = tmp_path / "protocol.json", tmp_path / "realization.json"
    report_path = tmp_path / "report.json"
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cli.main(["protocol", "--coeffs", "1/6,1/8,1/6,1/6,1/8,1/4",
                         "--out", str(proto_path)]) == 0
        proto = QuditProtocol.from_json(_jsonio.load(proto_path))
        real = selftest.canonical_qudit_realization(proto.coeffs, proto)
        _jsonio.dump(real.to_json(), real_path)
        assert cli.main(["verify", "--realization", str(real_path),
                         "--protocol", str(proto_path), "--out", str(report_path)]) == 0
    finally:
        tracer.uninstall()

    def io(name):
        return sorted(sp.attrs["bytes"] for sp in tracer.spans if sp.name == name)

    verifies = [sp.sid for sp in tracer.spans if sp.name == "selftest.verify_qudit"]
    assert len(verifies) == 1
    assert [sp.parent for sp in tracer.spans if sp.name == "qmath.jordan"] == verifies

    size = {p: p.stat().st_size for p in (proto_path, real_path, report_path)}
    assert io("jsonio.dump") == sorted(size.values())
    # the protocol is read here, as the workload does, and again by verify
    assert io("jsonio.load") == sorted([size[proto_path]] * 2 + [size[real_path]])
    assert min(size.values()) > 0
