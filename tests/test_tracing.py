"""The benchmark's span tracer still finds and restores every wrapped name."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("pv_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_wraps_and_uninstall_restores():
    tracing = _load_tracing()
    targets = [
        (importlib.import_module(f"pvbounds.{mod}"), attr)
        for mod, attr, _, _ in tracing.TARGETS
    ]
    before = [getattr(mod, attr) for mod, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, attr), fn in zip(targets, before):
            assert getattr(mod, attr) is not fn, f"{mod.__name__}.{attr} not wrapped"
        characters = importlib.import_module("pvbounds.characters")
        assert len(characters.enumerate_characters(5)) == 4
        assert tracer.count("characters.enumerate") == 1
    finally:
        tracer.uninstall()
    for (mod, attr), fn in zip(targets, before):
        assert getattr(mod, attr) is fn, f"{mod.__name__}.{attr} not restored"


def test_traced_spans_stay_on_the_call_paths():
    """The benchmark requires these spans on its desk-sweep, identities and
    large-q paths; a call path that no longer reaches a wrapped name fails
    here, not only in a benchmark run."""
    tracing = _load_tracing()
    harness = importlib.import_module("pvbounds.harness")
    characters = importlib.import_module("pvbounds.characters")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.section = "sweep"
        harness.sweep_modulus(1999, ("even", "odd"), harness.DEFAULT_BOUNDS)
        tracer.section = "twist"
        harness.twist_check_range(491, 492, workers=1)
        tracer.section = "label"
        characters.character_from_label(1999, (5,))
        tracer.section = "crossover"
        harness.verify_all(suites=("crossover",))
    finally:
        tracer.uninstall()
    assert tracer.count("characters.enumerate", "sweep") >= 1
    assert tracer.count("characters.enumerate", "twist") >= 1
    assert tracer.count("characters.from_label", "label") >= 1
    assert tracer.count("bounds.crossover", "crossover") == 2
    assert tracer.count("bounds.evaluate", "crossover") >= 1
