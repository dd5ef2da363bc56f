"""perfbench times opdsim from outside, looking functions up by name.

A renamed target is skipped there with only a `# not wrapped` line, and its
per-layer metrics or the experiment `session_ms_*` go missing.  These tests
make such a rename fail the suite instead.
"""

import importlib.util
from pathlib import Path

from opdsim import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    # Loaded by path and never instantiated: `Tracer()` registers a fork hook.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_target_resolves():
    tracing = _tracing()
    missing = [
        f"{module}.{path}"
        for module, path, _name, _kind in tracing.TARGETS
        if tracing._resolve(module, path) is None
    ]
    assert missing == []


def test_experiment_session_hooks_exist():
    assert callable(cli._worker_run)
    assert callable(cli._run_many)
