"""The names the benchmark under perfbench/ patches or calls must exist."""

import importlib
from pathlib import Path

import pytest

from bellselftest import cli, hardy
from bellselftest.npa import moments, sdp, seesaw
from bellselftest.scenario import SINGLE_SOURCE_CHSH_SHAPE

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
        moments.max_value(SINGLE_SOURCE_CHSH_SHAPE, 1, moments.chsh_objective(basis),
                          weights={(0, 0): 1.0})
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
        seesaw.seesaw_tilted_hardy(0.3, restarts=2)
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
