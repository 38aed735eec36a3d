"""The benchmark tracer's targets: each one exists, and uninstall restores it.

A refactor that renames or moves a function ``perfbench/tracing.py`` wraps
would otherwise show only in a traced benchmark run.
"""

import gc
import importlib.util
from pathlib import Path

from mvtrust import autodiff

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_target_and_uninstall_restores_it():
    tracing = _load_tracing()
    targets = [(owner, attr) for _, owner, attr in tracing.TARGETS]
    targets.append((autodiff.Adam, "__init__"))
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets if attr not in owner.__dict__]
    assert not missing, f"tracer targets not found: {missing}"
    originals = [owner.__dict__[attr] for owner, attr in targets]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        installed = [owner.__dict__[attr] for owner, attr in targets]
    finally:
        tracer.uninstall()

    assert all(now is not raw for now, raw in zip(installed, originals))
    restored = [owner.__dict__[attr] for owner, attr in targets]
    assert all(now is raw for now, raw in zip(restored, originals))
    assert tracer._on_gc not in gc.callbacks
