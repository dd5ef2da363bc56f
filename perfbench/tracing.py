"""Spans around the calls into each opdsim module, recorded from outside.

Every target is replaced under the name its caller looks it up by: `engine`
imports `assign`, `priority_score` and `sample_arrivals` by name, and
`AdaptiveQueue.reassess_tick` calls `waitqueue.priority_score`, so both
`priority_score` names are wrapped.  Methods are wrapped on their class, which
is how the engine's event-loop handlers (`_Session.on_*`) are reached.

A span has a name, start and end (perf_counter_ns), the index of the span
that was open when it started (its parent, -1 for a root), and the seed of
the session it belongs to.  Self time, the span's duration minus what its
child spans cover, is summed per name as each span closes.  The first
RETAIN_SPANS spans to close are kept in memory and written out by `dump`.

A target whose name no longer exists is listed in `missing` and skipped; the
metrics that depend on it are reported as absent instead of crashing.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import time

SPAN = "span"
COUNT = "count"  # counts calls, records no span (hot or nested helpers)
RETAIN_SPANS = 100_000  # raw spans kept for `dump`; later ones only add to the sums

# (module, attribute path, span name, kind)
TARGETS = (
    ("opdsim.patients", "generate_dataset", "patients.generate_dataset", SPAN),
    ("opdsim.cli", "generate_dataset", "patients.generate_dataset", SPAN),
    ("opdsim.cli", "dataset_to_dict", "patients.dataset_roundtrip", SPAN),
    ("opdsim.cli", "dataset_from_dict", "patients.dataset_roundtrip", SPAN),
    ("opdsim.cli", "main", "cli.main", SPAN),
    ("opdsim.cli", "summarize_runs", "stats.summarize_runs", SPAN),
    ("opdsim.cli", "run_session", "engine.run_session", SPAN),
    ("opdsim.engine", "run_session", "engine.run_session", SPAN),
    ("opdsim.engine", "_Session.run", "engine.loop", SPAN),
    ("opdsim.engine", "_Session.on_arrival", "engine.on_arrival", SPAN),
    ("opdsim.engine", "_Session.on_reg_done", "engine.on_reg_done", SPAN),
    ("opdsim.engine", "_Session.on_reassess", "engine.on_reassess", SPAN),
    ("opdsim.engine", "_Session.on_dispatch", "engine.on_dispatch", SPAN),
    ("opdsim.engine", "_Session.on_consult_end", "engine.on_consult_end", SPAN),
    ("opdsim.engine", "_Session._finish", "engine._finish", SPAN),
    ("opdsim.engine", "_Session.load_of", "engine.load_of", SPAN),
    ("opdsim.engine", "_Session._start_consult", "engine.consult_start", COUNT),
    ("opdsim.engine", "sample_arrivals", "arrivals.sample_arrivals", SPAN),
    ("opdsim.arrivals", "sample_poisson_process", "arrivals.sample_poisson_process", COUNT),
    ("opdsim.engine", "CalibratedTriageBackend.triage_face_value", "triage.triage_face_value", SPAN),
    ("opdsim.engine", "CalibratedTriageBackend.assess_drift", "triage.assess_drift", SPAN),
    (
        "opdsim.engine",
        "CalibratedTriageBackend.assess_history_escalation",
        "triage.assess_history_escalation",
        SPAN,
    ),
    ("opdsim.engine", "assign", "assignment.assign", SPAN),
    ("opdsim.engine", "priority_score", "waitqueue.priority_score", SPAN),
    ("opdsim.waitqueue", "priority_score", "waitqueue.priority_score", SPAN),
    ("opdsim.engine", "AdaptiveQueue.reassess_tick", "waitqueue.reassess_tick", SPAN),
    ("opdsim.engine", "AdaptiveQueue.dequeue_next", "waitqueue.dequeue_next", SPAN),
    ("opdsim.engine", "AdaptiveQueue.enqueue", "waitqueue.enqueue", SPAN),
)

# Spans whose call carries the session seed (positional index 3 or `seed=`).
SESSION_SPANS = {"engine.run_session"}


def _pool_size(args, kwargs) -> int:
    return len(args[0])  # the AdaptiveQueue the method was called on


# Extra counters taken at the call: span name -> (counter name, function).
CALL_COUNTERS = {
    "waitqueue.reassess_tick": ("waitqueue.reassess_tick.entries", _pool_size),
    "waitqueue.dequeue_next": ("waitqueue.dequeue_next.entries_scanned", _pool_size),
}
# Counters taken from the result: span name -> (counter name, predicate).
RESULT_COUNTERS = {
    "triage.assess_drift": ("triage.assess_drift.fired", lambda r: r is not None),
}


def _resolve(module: str, path: str):
    """(owner, attribute) for `module.path`, or None when a part is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []  # (index, name id, start, end, parent, session)
        self.missing: set[str] = set()
        self.present: set[str] = set()
        self.sid = None
        self._stack: list[list[int]] = []  # [span index, child ns] of open spans
        self._next = 0
        self._installed: list[tuple] = []  # (owner, attr, original, had_own)
        # A forked worker inherits the wrappers; it runs untraced instead.
        os.register_at_fork(after_in_child=self.uninstall)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def _count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        nid = self._name_id(name)
        stack, spans, calls, self_ns = self._stack, self.spans, self.calls, self.self_ns
        clock = time.perf_counter_ns
        session = name in SESSION_SPANS
        on_call = CALL_COUNTERS.get(name)
        on_result = RESULT_COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                tracer._count(on_call[0], on_call[1](args, kwargs))
            outer_sid = tracer.sid
            if session:
                tracer.sid = kwargs["seed"] if "seed" in kwargs else args[3]
            index = tracer._next
            tracer._next = index + 1
            parent = stack[-1] if stack else None
            frame = [index, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                calls[nid] += 1
                self_ns[nid] += dur - frame[1]
                if len(spans) < RETAIN_SPANS:
                    spans.append(
                        (index, nid, t0, t1, -1 if parent is None else parent[0], tracer.sid)
                    )
                tracer.sid = outer_sid
            if on_result is not None and on_result[1](result):
                tracer._count(on_result[0])
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        nid = self._name_id(name)
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._installed:
            return
        for module, path, name, kind in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.missing.add(f"{module}.{path}")
                continue
            self.present.add(name)
            self._name_id(name)
            owner, attr = found
            original = getattr(owner, attr)
            had_own = attr in vars(owner)
            make = self._span_wrapper if kind == SPAN else self._count_wrapper
            setattr(owner, attr, make(original, name))
            self._installed.append((owner, attr, original, had_own))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original, had_own = self._installed.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results -----------------------------------------------------------

    def calls_of(self, name: str) -> int:
        return self.calls[self._ids[name]] if name in self._ids else 0

    def self_ms_of(self, name: str) -> float:
        return self.self_ns[self._ids[name]] / 1e6 if name in self._ids else 0.0

    def dump(self, path, header: dict) -> None:
        """Write the retained spans as gzipped JSON lines after a header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            head = dict(header, names=self.names, fields=["index", "name", "start_ns", "end_ns", "parent", "session"])
            f.write(json.dumps(head) + "\n")
            for index, nid, t0, t1, parent, sid in sorted(self.spans):
                f.write(f"[{index},{nid},{t0},{t1},{parent},{json.dumps(sid)}]\n")


def layer_metrics(tracer: Tracer, sessions: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of `sessions` traced sessions.

    `.calls` is a count per session and `.ms` self time per session, except
    `patients.generate_dataset.ms`, which is per call.  A metric whose span
    was never wrapped is left out.
    """
    n = max(sessions, 1)
    out: dict[str, tuple[float, str]] = {}

    def has(*names):
        return all(name in tracer.present for name in names)

    def per_session_calls(metric, name):
        if has(name):
            out[metric] = (tracer.calls_of(name) / n, "count")

    def per_session_ms(metric, name):
        if has(name):
            out[metric] = (tracer.self_ms_of(name) / n, "ms")

    def ratio(metric, num, den, unit="ratio"):
        out[metric] = (num / den if den else 0.0, unit)

    if has("patients.generate_dataset"):
        calls = tracer.calls_of("patients.generate_dataset")
        ratio("patients.generate_dataset.ms", tracer.self_ms_of("patients.generate_dataset"), calls, "ms")
    per_session_calls("patients.dataset_roundtrip.calls", "patients.dataset_roundtrip")
    per_session_ms("patients.dataset_roundtrip.ms", "patients.dataset_roundtrip")

    per_session_ms("arrivals.sample_arrivals.ms", "arrivals.sample_arrivals")
    if has("arrivals.sample_arrivals", "arrivals.sample_poisson_process"):
        ratio(
            "arrivals.trajectories_per_session",
            tracer.calls_of("arrivals.sample_poisson_process"),
            tracer.calls_of("arrivals.sample_arrivals"),
            "count",
        )

    for fn in ("triage_face_value", "assess_drift", "assess_history_escalation"):
        per_session_calls(f"triage.{fn}.calls", f"triage.{fn}")
        per_session_ms(f"triage.{fn}.ms", f"triage.{fn}")
    if has("triage.assess_drift"):
        ratio(
            "triage.drift_fire_ratio",
            tracer.counters.get("triage.assess_drift.fired", 0),
            tracer.calls_of("triage.assess_drift"),
        )

    per_session_calls("assignment.assign.calls", "assignment.assign")
    per_session_ms("assignment.assign.ms", "assignment.assign")

    for fn in ("reassess_tick", "dequeue_next", "priority_score", "enqueue"):
        per_session_calls(f"waitqueue.{fn}.calls", f"waitqueue.{fn}")
        per_session_ms(f"waitqueue.{fn}.ms", f"waitqueue.{fn}")
    for span, (counter, _) in CALL_COUNTERS.items():
        if has(span):
            out[counter] = (tracer.counters.get(counter, 0) / n, "count")

    for kind in ("arrival", "reg_done", "reassess", "dispatch", "consult_end"):
        per_session_calls(f"engine.events.{kind}", f"engine.on_{kind}")
        per_session_ms(f"engine.on_{kind}.ms", f"engine.on_{kind}")
    per_session_ms("engine._finish.ms", "engine._finish")
    per_session_calls("engine.load_of.calls", "engine.load_of")
    per_session_ms("engine.load_of.ms", "engine.load_of")
    per_session_ms("engine.loop_self.ms", "engine.loop")
    per_session_ms("engine.run_session.ms", "engine.run_session")
    if has("engine.consult_start", "engine.on_dispatch"):
        ratio(
            "engine.dispatch_useful_ratio",
            tracer.calls_of("engine.consult_start"),
            tracer.calls_of("engine.on_dispatch"),
        )

    per_session_ms("stats.summarize_runs.ms", "stats.summarize_runs")
    per_session_ms("cli.self.ms", "cli.main")
    return out
