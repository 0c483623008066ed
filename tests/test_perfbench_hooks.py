"""The names the benchmark under perfbench/ patches or calls must exist."""

import importlib
from pathlib import Path

from bellselftest import cli, hardy

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
