"""The benchmark's tracer binds to names in the package: each must exist.

``perfbench/tracing.py`` wraps functions that semimarkov modules look up at
call time, and ``uninstall`` must put every original back.  A renamed or
removed name, or a changed signature on the simulator's per-draw path, would
otherwise surface only in the slow benchmark smoke test
(``python -m pytest perfbench``).
"""

import importlib
from pathlib import Path

from semimarkov import cli, dwell, fitting
from semimarkov.presets import success_model
from semimarkov.simulate import SimulationConfig, simulate_sequence

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bindings(tracing):
    """Every (namespace, name) the instrumentation replaces, with its value."""
    names = [(module, attr) for _, bindings, _ in tracing._BOUNDARIES
             for module, attr in bindings]
    names += [(cli, "fit_exponential"), (fitting, "fit_exponential")]
    found = {(id(module), attr): getattr(module, attr) for module, attr in names}
    found.update({(id(dwell._FITTERS), family): fn for family, fn in dwell._FITTERS.items()})
    return found


def test_tracer_wraps_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    instrumentation.install()
    try:
        wrapped = _bindings(tracing)
        assert all(wrapped[key] is not fn for key, fn in before.items())
        tracer.begin_pass(0)
        simulate_sequence(success_model(), SimulationConfig(duration_s=60.0, seed=3))
        stats, _ = tracer.end_pass()
    finally:
        instrumentation.uninstall()
    assert all(_bindings(tracing)[key] is fn for key, fn in before.items())
    # sample_dwell reaches the wrapped quantile for every non-IG draw
    assert stats["dwell.sample"][0] > 0 and stats["dwell.quantile"][0] > 0
