"""The names the benchmark under perfbench/ patches or calls must exist."""

import importlib
from pathlib import Path

from bellselftest import cli, hardy
from bellselftest.npa import moments, sdp
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
