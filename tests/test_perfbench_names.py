"""perfbench times opdsim from outside, looking functions up by name.

A renamed target is skipped there with only a `# not wrapped` line, and its
per-layer metrics or the experiment `session_ms_*` go missing.  These tests
make such a rename fail the suite instead.
"""

import collections
import importlib.util
from pathlib import Path

from opdsim import cli
from opdsim.engine import StrategyConfig, run_session
from opdsim.triage import CalibratedTriageBackend
from opdsim.waitqueue import AdaptiveQueue

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


def _count_targets(monkeypatch, wanted) -> collections.Counter:
    """Wrap each TARGETS entry whose span name passes `wanted` on its owner,
    as perfbench does, with a counter; returns the counts by span name."""
    tracing = _tracing()
    calls = collections.Counter()
    for module, path, name, _kind in tracing.TARGETS:
        if not wanted(name):
            continue
        owner, attr = tracing._resolve(module, path)

        def counting(*args, _fn=getattr(owner, attr), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)
    return calls


def _agentic_session(dataset42):
    patients, history = dataset42
    res = run_session(
        patients, history, StrategyConfig(strategy="agentic"), seed=1, collect_trace=True
    )
    events = collections.Counter(row["event"] for row in res.trace)
    assert events["enqueue"] > 0 and events["consult_start"] > 0
    return events


def test_triage_spans_count_a_session(dataset42, monkeypatch):
    # Wrap the triage targets on their class, as perfbench does, so that the
    # `triage.*` per-layer metrics cannot silently read 0.
    calls = _count_targets(monkeypatch, lambda name: name.startswith("triage."))
    # Sweeps draw drift checks in blocks, through a method TARGETS does not
    # name, so the scalar `triage.assess_drift` reads 0 on a session.
    batch = CalibratedTriageBackend.assess_drift_batch

    def counting_batch(*args, **kwargs):
        calls["assess_drift_batch"] += 1
        return batch(*args, **kwargs)

    monkeypatch.setattr(CalibratedTriageBackend, "assess_drift_batch", counting_batch)
    events = _agentic_session(dataset42)
    assert calls["triage.triage_face_value"] == events["enqueue"]
    assert calls["assess_drift_batch"] > 0
    assert calls["triage.assess_history_escalation"] > 0


def test_layer_spans_count_a_session(dataset42, monkeypatch):
    # The per-layer metrics of the pool, the assignment and the engine read
    # these counts; folding one of these calls into its caller would make
    # its layer read 0 without any error.
    calls = _count_targets(monkeypatch, lambda name: not name.startswith("triage."))
    events = _agentic_session(dataset42)
    assert calls["assignment.assign"] == events["enqueue"]
    assert calls["waitqueue.priority_score"] == events["enqueue"]
    assert calls["waitqueue.enqueue"] == events["enqueue"]
    assert calls["waitqueue.dequeue_next"] == events["consult_start"]
    assert calls["engine.consult_start"] == events["consult_start"]
    assert calls["waitqueue.reassess_tick"] > 0
    assert calls["engine.load_of"] > 0
    # `arrivals.trajectories_per_session` is sample_poisson_process's calls
    # per sample_arrivals call.
    assert calls["arrivals.sample_arrivals"] == 1
    assert calls["arrivals.sample_poisson_process"] >= 1


def test_pool_spans_count_a_token_session(dataset42, monkeypatch):
    # The token arms' pool keeps a per-desk index instead of the slot table;
    # token_sessions' `waitqueue.*` metrics must still count its calls, and
    # the consult handlers' spans theirs.
    spans = ("engine.consult_start", "engine.on_consult_end")
    calls = _count_targets(monkeypatch, lambda name: name.startswith("waitqueue.") or name in spans)
    patients, history = dataset42
    for strategy in ("fcfs", "rule_based"):
        calls.clear()
        res = run_session(
            patients, history, StrategyConfig(strategy=strategy), seed=1, collect_trace=True
        )
        events = collections.Counter(row["event"] for row in res.trace)
        assert events["enqueue"] > 0 and events["consult_start"] > 0
        assert calls["waitqueue.enqueue"] == events["enqueue"]
        assert calls["waitqueue.dequeue_next"] == events["consult_start"]
        assert calls["waitqueue.reassess_tick"] == 0
        assert calls["engine.consult_start"] == events["consult_start"]
        assert calls["engine.on_consult_end"] == len(res.served)


def test_pool_length_counts_its_entries(dataset42, monkeypatch):
    # perfbench's `reassess_tick.entries` and `dequeue_next.entries_scanned`
    # read `len(queue)`; it must stay the number of waiting entries.
    checked = []
    for name in ("enqueue", "dequeue_next", "reassess_tick"):
        method = getattr(AdaptiveQueue, name)

        def checking(self, *args, _method=method, **kwargs):
            assert len(self) == len(self.entries())
            out = _method(self, *args, **kwargs)
            assert len(self) == len(self.entries())
            checked.append(len(self))
            return out

        monkeypatch.setattr(AdaptiveQueue, name, checking)
    patients, history = dataset42
    for strategy in ("agentic", "fcfs"):  # the slot table and the per-desk index
        checked.clear()
        run_session(patients, history, StrategyConfig(strategy=strategy), seed=1)
        assert max(checked) > 0
