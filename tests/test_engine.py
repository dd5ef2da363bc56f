"""End-to-end session tests: conservation, determinism, golden pins, ablations."""

import collections
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opdsim import engine
from opdsim.engine import (
    ABLATION_VARIANTS,
    SessionMetrics,
    StrategyConfig,
    run_experiment,
    run_session,
)
from opdsim.errors import ValidationError, require_number
from opdsim.assignment import Physician, PhysicianStatus
from opdsim.patients import N_PATIENTS, Specialty, UrgencyLevel
from opdsim.triage import DriftParams

STRATEGIES = ("fcfs", "rule_based", "agentic")

FACE_COMPOSITION = {"critical": 13, "high": 36, "medium": 158, "low": 161}

# Frozen regression pins for dataset seed 42, session seed 7.  The trace is
# hashed as the CSV the CLI would write; metrics as canonical JSON.
GOLDEN_SEED = 7
GOLDEN_FCFS_TRACE = "9cd1cf22be11eae40f95d616ed7ed63dda01a7b5dd740a33fd4a2fa041a9c646"
GOLDEN_FCFS_METRICS = "d7e535719ba06cfb91361442963e24c56824efb7692f1db4611c1b029cdb9b10"
GOLDEN_FCFS_ROWS = 1380
GOLDEN_FCFS_SERVED = 252
GOLDEN_AGENTIC_TRACE = "14058ec0e2267f1336b9d238a23d76f111858517c66bcc4cb20cac09bb88e2e4"
GOLDEN_AGENTIC_METRICS = "351485062a3e707a047947debf301a75d2fa3e4b143ce6aec54e517ce09634f2"
GOLDEN_AGENTIC_ROWS = 1774
GOLDEN_AGENTIC_SERVED = 216
GOLDEN_AGENTIC_ESCALATIONS = 238
GOLDEN_RULE_BASED_TRACE = "e5c58f6f3d0f1c14998d4bf29a48078e860b2004c2047aae3e87010b4c595083"
GOLDEN_RULE_BASED_METRICS = "9bfdec911aca7c59ccfd18f210430ee6fbabc9d55d847ab85374769a0d5a62e3"
GOLDEN_RULE_BASED_ROWS = 1322
GOLDEN_RULE_BASED_SERVED = 223
# A history check that can miss: each miss draws a second uniform for drift.
GOLDEN_MEMORY_MISS_METRICS = "2ce76a7379206b563e780e21afd447af3b6da8a7e4937ebbed31963eed347cd7"
GOLDEN_MEMORY_MISS_ESCALATIONS = 230
GOLDEN_ABLATION_METRICS = {
    "no_memory": "003b2036e70a1290c2edd72e52836c8ccc9d96cc03bcbd4330b350f931d2af5d",
    "no_drift": "8776e76c2a13ef6d93e7456811ac55dc033b4e6580d9de1317d12b3330101db6",
}
# Ten rooms, two per specialty: per-desk dispatch across twin rooms, and a
# pool the agentic arm drains while rooms are still idle.
TWIN_ROOMS = [
    Physician(f"R{i + 1:02d}", spec) for i, spec in enumerate(s for s in Specialty for _ in range(2))
]
GOLDEN_TWIN_ROOM_METRICS = {
    "fcfs": "be0f26efa803b49c742b68c42d9834b91eecda370bd9c498c7d79750d7fb15e3",
    "rule_based": "b8eb157d13489f75ed48f28aad0dca5f3beaa68ffda2296e85d85d8945b87ae6",
    "agentic": "c8e6416e03b8e4e1c9d5f4ab5b7137b739479b7a4ebee7578dee888dc72943e9",
}

# Registration desks at their edges: a single desk; six desks with exact
# (std 0) registrations; and a 45-minute session on two exact desks, where
# registrations finish after closing and later arrivals still find a free
# desk.  (arm, config) -> (metrics digest, trace digest).
GOLDEN_DESK_CONFIGS = {
    "one_desk": dict(registration_desks=1),
    "six_exact_desks": dict(registration_desks=6, registration_std=0.0),
    "short_two_exact_desks": dict(session_minutes=45.0, registration_desks=2, registration_std=0.0),
}
GOLDEN_DESK_SESSIONS = {
    ("fcfs", "one_desk"): (
        "d11de037f2dbfc86e918d96f84d9a0b71fac1ded5a644bac6c005dff7333c343",
        "da50d763ac95c921a864fd2ae540a33aefffea7307f9431fc7170754da5d3b19",
    ),
    ("rule_based", "one_desk"): (
        "ecdf51a470b17041c2d7de1aaadf5eaa2d514d313523d018ceaf1bbbf0b154c3",
        "7aaaee8ee1aac9c96670c31f8997f8c570cf47352db931a00bf05ed272ce1351",
    ),
    ("agentic", "one_desk"): (
        "3fd61692a14e06b01a5f3ec95bbaa718589c80cc7f278b643b493f06556e6467",
        "810329f1a098a454ad372b5b0ba9a3d08566bd883322641866a34cd8fb8062ae",
    ),
    ("fcfs", "six_exact_desks"): (
        "a6cecab2585e11b17e8712e9265d519207486932fb8f29e411fb71ea168ce141",
        "2427ab12b2a3d55f221056c93f3288ec446b22044f5ad3a84bf88486f51fbd2f",
    ),
    ("rule_based", "six_exact_desks"): (
        "24bf43bd14e0bd958db0ad2db39500d4ab1e1623b5fb5b98b28cb8e1b4df6e77",
        "c3880a6535081b95d27baff0308bfc5769edc70edc25db6480921f9567178525",
    ),
    ("agentic", "six_exact_desks"): (
        "bdfee3ab6e2e10f51570022be1a3916bb9e9d13ffc61f9d8e2bb9977708d728c",
        "188e0e8a88042ecc3fbfd5cd2c5ae5a4e420b12e32eb4c4d881b2593fe4b8e84",
    ),
    ("fcfs", "short_two_exact_desks"): (
        "41b16dc418901c22e1acd8cb555cb422456c165da73fd0e9c12409be62d194e5",
        "d84882956b9d48856af9ee947478e6c7ea29dd5a4900dbc3f55a979717b1df70",
    ),
    ("rule_based", "short_two_exact_desks"): (
        "831468a56b845867126f47cdcb8ca09f6ca1ce734b562ae29ec86034cc3d5e2f",
        "368d7b22ca3c0b8495981464022623cadf9bb0829952811241a0c43fd34911f6",
    ),
    ("agentic", "short_two_exact_desks"): (
        "ef65d798fcd10b093de207246ceaa5e293b1bb2a68c399f1c4c9bf88e8461b41",
        "d443b8dc397ba1b0d454fb9f2e05de2201702d9218d420f497af268a9203e98a",
    ),
}
# Seed 1000 with arrivals in bursts of four every 4 min, exact registrations
# and each consult at its level's mean, so rooms often free at one instant.
# arm -> (visits served, visits sharing their consult end, metrics, trace).
GOLDEN_SAME_INSTANT_SESSIONS = {
    "fcfs": (
        260, 133,
        "2ebe6c8b46e3906baedbbd4571fee86c6e5cd65fd8067a82678caa9c4ee01c39",
        "1830f5113a78521543560294afbbe594bc1416f96eaa4e9510561339c68f0a79",
    ),
    "rule_based": (
        236, 63,
        "c76d67510819097c6fc06ac82f8ebc72e025dca26880da918b0819822beeda9d",
        "0d677fc6d6bda959b47d02f8d6683cb5fa05e28d8a907fa41a01e8b971a0266e",
    ),
    "agentic": (
        229, 143,
        "3de450c9d4add2456f3e5cd36dfd6611e1d0cb7e47f928969c49a952affd9a94",
        "8d6cbf6c5dc6caa5094fe236c391711926129ebe889f012291ced6f646f8288e",
    ),
}

TRACE_FIELDS = ["time", "event", "patient_id", "physician_id", "detail"]
TRACE_EVENTS = {"arrival", "reg_done", "enqueue", "escalation", "consult_start", "consult_end"}


def _trace_hash(trace):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=TRACE_FIELDS)
    writer.writeheader()
    for row in trace:
        writer.writerow(row)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _metrics_hash(metrics):
    blob = json.dumps(metrics.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _arrive_in_bursts_of_four(monkeypatch):
    times = np.repeat(np.arange(N_PATIENTS // 4) * 4.0, 4)
    monkeypatch.setattr(engine, "sample_arrivals", lambda *args: times)


# ------------------------------------------------------------ conservation


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_conservation_and_causality(dataset42, strategy):
    patients, history = dataset42
    for seed in range(10):
        res = run_session(patients, history, StrategyConfig(strategy=strategy), seed)
        m = res.metrics
        assert m.served_count + m.unserved_count == N_PATIENTS
        assert sum(m.final_composition.values()) == N_PATIENTS
        assert m.served_count == len(res.served)
        assert sum(m.per_physician_served.values()) == m.served_count

        seen = set()
        for v in res.served:
            assert v.patient_id not in seen, "patient served twice"
            seen.add(v.patient_id)
            assert v.consult_end > v.consult_start
            assert v.consult_start >= v.registered_at
            assert v.registered_at <= v.level_entered_at <= v.consult_start
            assert v.effective_urgency.rank >= v.face_urgency.rank


def test_escalations_monotone_within_patient(dataset42):
    patients, history = dataset42
    for seed in range(5):
        res = run_session(patients, history, StrategyConfig(strategy="agentic"), seed)
        by_patient = {}
        for ev in res.escalations:
            by_patient.setdefault(ev.patient_id, []).append(ev)
        for events in by_patient.values():
            for ev in events:
                assert ev.to_level.rank == ev.from_level.rank + 1 or ev.cause == "memory"
                assert ev.to_level.rank > ev.from_level.rank
            times = [ev.time for ev in events]
            ranks = [ev.to_level.rank for ev in events]
            assert times == sorted(times)
            assert ranks == sorted(ranks) and len(set(ranks)) == len(ranks)
        memory_events = [ev for ev in res.escalations if ev.cause == "memory"]
        assert len(memory_events) == len({ev.patient_id for ev in memory_events})


def test_lost_patient_fails_accounting(dataset42, monkeypatch):
    # A patient who arrives but is never registered, queued or served must
    # not slip through: the engine checks exact conservation itself.
    patients, history = dataset42
    stage = engine.registration_stage

    def drop_first(*args):
        entrants, late, never = stage(*args)
        return entrants[1:], late, never

    monkeypatch.setattr(engine, "registration_stage", drop_first)
    with pytest.raises(ValidationError, match="accounting"):
        run_session(patients, history, StrategyConfig(strategy="fcfs"), seed=1)


def test_duplicate_physician_ids_rejected(dataset42):
    patients, history = dataset42
    roster = [Physician("D1", Specialty.GENERAL_MEDICINE), Physician("D1", Specialty.SURGERY)]
    for strategy in STRATEGIES:
        with pytest.raises(ValidationError, match="unique"):
            run_session(patients, history, StrategyConfig(strategy=strategy), 1, roster=roster)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_duplicate_patient_ids_rejected_before_the_session(dataset42, monkeypatch, strategy):
    # A shared id would only break the accounting after a whole session, so
    # the cohort is refused before anything is simulated.
    patients, history = dataset42
    twin = dataclasses.replace(patients[1], patient_id=patients[0].patient_id)
    monkeypatch.setattr(engine._Session, "run", lambda *args: pytest.fail("session simulated"))
    with pytest.raises(ValidationError, match="patient ids must be unique"):
        run_session([patients[0], twin, *patients[2:]], history, StrategyConfig(strategy=strategy), 1000)


@pytest.mark.parametrize(
    "n_patients, roster, match",
    [
        (N_PATIENTS - 1, None, f"{N_PATIENTS}-patient cohort, got {N_PATIENTS - 1}"),
        (N_PATIENTS, [], "empty roster"),
    ],
    ids=["short-cohort", "empty-roster"],
)
def test_session_refuses_a_short_cohort_or_an_empty_roster(dataset42, n_patients, roster, match):
    # An empty roster is refused, not read as "use the default".
    patients, history = dataset42
    with pytest.raises(ValidationError, match=match):
        run_session(patients[:n_patients], history, StrategyConfig(), 1, roster=roster)


def test_experiment_refuses_zero_runs(dataset42):
    with pytest.raises(ValidationError, match="n_runs must be at least 1"):
        run_experiment(*dataset42, StrategyConfig(), n_runs=0, base_seed=1000)


def test_unserved_appear_at_face_level(dataset42):
    # A session too short to drain the queue must still account for everyone.
    patients, history = dataset42
    cfg = StrategyConfig(strategy="fcfs", session_minutes=60.0)
    res = run_session(patients, history, cfg, seed=3)
    m = res.metrics
    assert m.unserved_count > 0
    assert m.served_count + m.unserved_count == N_PATIENTS
    assert sum(m.final_composition.values()) == N_PATIENTS


# ------------------------------------------------------------ determinism


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_same_seed_reproduces_everything(dataset42, strategy):
    patients, history = dataset42
    cfg = StrategyConfig(strategy=strategy)
    a = run_session(patients, history, cfg, seed=11, collect_trace=True)
    b = run_session(patients, history, cfg, seed=11, collect_trace=True)
    assert a.metrics.to_dict() == b.metrics.to_dict()
    assert a.trace == b.trace
    assert a.escalations == b.escalations


def test_different_seeds_diverge(dataset42):
    patients, history = dataset42
    cfg = StrategyConfig(strategy="agentic")
    a = run_session(patients, history, cfg, seed=1)
    b = run_session(patients, history, cfg, seed=2)
    assert a.metrics.to_dict() != b.metrics.to_dict()


def test_trace_schema_and_ordering(dataset42):
    patients, history = dataset42
    res = run_session(patients, history, StrategyConfig(strategy="agentic"),
                      seed=GOLDEN_SEED, collect_trace=True)
    times = [row["time"] for row in res.trace]
    assert times == sorted(times)
    assert {row["event"] for row in res.trace} <= TRACE_EVENTS
    assert all(list(row) == TRACE_FIELDS for row in res.trace)
    assert res.trace[0] == {
        "time": 0.059551,
        "event": "arrival",
        "patient_id": "P0173",
        "physician_id": "",
        "detail": "",
    }


# ------------------------------------------------------------ golden pins


def test_golden_fcfs_session(dataset42):
    patients, history = dataset42
    res = run_session(patients, history, StrategyConfig(strategy="fcfs"),
                      seed=GOLDEN_SEED, collect_trace=True)
    assert len(res.trace) == GOLDEN_FCFS_ROWS
    assert res.metrics.served_count == GOLDEN_FCFS_SERVED
    assert res.metrics.escalation_count == 0
    assert _trace_hash(res.trace) == GOLDEN_FCFS_TRACE
    assert _metrics_hash(res.metrics) == GOLDEN_FCFS_METRICS


def test_golden_agentic_session(dataset42):
    patients, history = dataset42
    res = run_session(patients, history, StrategyConfig(strategy="agentic"),
                      seed=GOLDEN_SEED, collect_trace=True)
    assert len(res.trace) == GOLDEN_AGENTIC_ROWS
    assert res.metrics.served_count == GOLDEN_AGENTIC_SERVED
    assert res.metrics.escalation_count == GOLDEN_AGENTIC_ESCALATIONS
    assert _trace_hash(res.trace) == GOLDEN_AGENTIC_TRACE
    assert _metrics_hash(res.metrics) == GOLDEN_AGENTIC_METRICS


def test_golden_rule_based_session(dataset42):
    patients, history = dataset42
    res = run_session(patients, history, StrategyConfig(strategy="rule_based"),
                      seed=GOLDEN_SEED, collect_trace=True)
    assert len(res.trace) == GOLDEN_RULE_BASED_ROWS
    assert res.metrics.served_count == GOLDEN_RULE_BASED_SERVED
    assert res.metrics.escalation_count == 0
    assert _trace_hash(res.trace) == GOLDEN_RULE_BASED_TRACE
    assert _metrics_hash(res.metrics) == GOLDEN_RULE_BASED_METRICS


def test_golden_agentic_memory_miss_session(dataset42):
    patients, history = dataset42
    cfg = StrategyConfig(strategy="agentic", drift=DriftParams(p_history_escalation=0.5))
    res = run_session(patients, history, cfg, seed=GOLDEN_SEED)
    assert res.metrics.escalation_count == GOLDEN_MEMORY_MISS_ESCALATIONS
    assert _metrics_hash(res.metrics) == GOLDEN_MEMORY_MISS_METRICS


@pytest.mark.parametrize("variant", sorted(GOLDEN_ABLATION_METRICS))
def test_golden_agentic_ablation_session(dataset42, variant):
    patients, history = dataset42
    cfg = StrategyConfig(strategy="agentic", **ABLATION_VARIANTS[variant])
    res = run_session(patients, history, cfg, seed=GOLDEN_SEED)
    assert _metrics_hash(res.metrics) == GOLDEN_ABLATION_METRICS[variant]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_golden_twin_room_session(dataset42, strategy):
    patients, history = dataset42
    res = run_session(patients, history, StrategyConfig(strategy=strategy),
                      seed=GOLDEN_SEED, roster=TWIN_ROOMS)
    assert _metrics_hash(res.metrics) == GOLDEN_TWIN_ROOM_METRICS[strategy]


@pytest.mark.parametrize("strategy, desks", sorted(GOLDEN_DESK_SESSIONS))
def test_golden_registration_desk_session(dataset42, strategy, desks):
    patients, history = dataset42
    cfg = StrategyConfig(strategy=strategy, **GOLDEN_DESK_CONFIGS[desks])
    res = run_session(patients, history, cfg, seed=GOLDEN_SEED, collect_trace=True)
    assert (_metrics_hash(res.metrics), _trace_hash(res.trace)) == GOLDEN_DESK_SESSIONS[
        (strategy, desks)
    ]


@pytest.mark.parametrize("strategy", sorted(GOLDEN_SAME_INSTANT_SESSIONS))
def test_golden_same_instant_consult_ends(dataset42, monkeypatch, strategy):
    # Consult ends at one instant commute: the order they pop in moves no byte.
    patients, history = dataset42
    _arrive_in_bursts_of_four(monkeypatch)
    for level in UrgencyLevel:
        monkeypatch.setattr(level, "consult", (level.consult[0], 0.0))
    cfg = StrategyConfig(strategy=strategy, registration_std=0.0)
    res = run_session(patients, history, cfg, seed=1000, collect_trace=True)
    ends = collections.Counter(v.consult_end for v in res.served)
    shared = sum(n for n in ends.values() if n > 1)
    assert (len(res.served), shared, _metrics_hash(res.metrics), _trace_hash(res.trace)) == (
        GOLDEN_SAME_INSTANT_SESSIONS[strategy]
    )


@pytest.mark.parametrize("strategy", ["fcfs", "rule_based"])
def test_token_arms_start_the_desk_minimum(dataset42, strategy):
    # Each consult at desk D starts the patient with the smallest key among
    # those enqueued to D and not yet called: (enqueue time, id) for fcfs,
    # with the presenting class in front for rule_based.
    patients, history = dataset42
    face_rank = {p.patient_id: p.face_urgency.rank for p in patients}

    def key(pid, enqueued):
        order = (enqueued, pid)
        return (-face_rank[pid], *order) if strategy == "rule_based" else order

    for seed in (1000, 1001, 1002):
        res = run_session(patients, history, StrategyConfig(strategy=strategy), seed,
                          collect_trace=True)
        waiting: dict[str, dict[str, float]] = {}
        visits = iter(res.served)
        for row in res.trace:
            if row["event"] == "enqueue":
                waiting.setdefault(row["physician_id"], {})[row["patient_id"]] = row["time"]
            elif row["event"] == "consult_start":
                visit = next(visits)
                assert (visit.patient_id, visit.physician_id) == (
                    row["patient_id"], row["physician_id"])
                desk = waiting[visit.physician_id]
                assert visit.patient_id == min(desk, key=lambda pid: key(pid, desk[pid]))
                del desk[visit.patient_id]
        assert next(visits, None) is None


# ------------------------------------------------------------ configuration


def test_non_agentic_strategies_force_flags_off():
    cfg = StrategyConfig(strategy="fcfs", memory_enabled=True, drift_enabled=True)
    assert not cfg.memory_enabled and not cfg.drift_enabled
    agentic = StrategyConfig(strategy="agentic")
    assert agentic.memory_enabled and agentic.drift_enabled


def test_config_validation_and_round_trip():
    with pytest.raises(ValidationError):
        StrategyConfig(strategy="lifo")
    with pytest.raises(ValidationError):
        StrategyConfig(registration_desks=0)
    with pytest.raises(ValidationError):
        StrategyConfig(session_minutes=-1)
    # A NaN mean would make every registration draw resample forever, and a
    # NaN session never closes.
    for field in ("registration_mean", "session_minutes"):
        with pytest.raises(ValidationError):
            StrategyConfig(**{field: float("nan")})
    cfg = StrategyConfig(strategy="rule_based", session_minutes=300.0)
    assert StrategyConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("value, accepted", [
    (0.0, True), (-2.5, True), (5e-324, True), (sys.float_info.max, True),
    (-sys.float_info.max, True), (3, True), (10**300, True), (np.float64(1.5), True),
    (Fraction(1, 3), True),
    (math.inf, False), (-math.inf, False), (math.nan, False), (np.float64(math.inf), False),
    (True, False), (False, False), (10**400, False), ("5", False), (None, False),
])
def test_require_number_verdicts(value, accepted):
    if accepted:
        require_number("x", value)
    else:
        with pytest.raises(ValidationError, match="x must be a finite number"):
            require_number("x", value)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_metrics_dict_is_asdict_and_owns_its_nested_dicts(dataset42, strategy):
    # dataclasses.asdict stays the reference: the same keys in field order and
    # the same values, so the metrics JSON keeps its bytes.
    for seed in (1000, 1001, 1002):
        metrics = run_session(*dataset42, StrategyConfig(strategy=strategy), seed).metrics
        got, want = metrics.to_dict(), dataclasses.asdict(metrics)
        assert list(got) == list(want) == [f.name for f in dataclasses.fields(SessionMetrics)]
        assert json.dumps(got) == json.dumps(want)
        nested = [key for key, value in got.items() if isinstance(value, dict)]
        assert len(nested) == 4
        for key in nested:
            got[key].clear()
        assert dataclasses.asdict(metrics) == want


def test_registration_mean_defaults_by_strategy():
    assert StrategyConfig(strategy="agentic").registration_mean == pytest.approx(3.3)
    assert StrategyConfig(strategy="fcfs").registration_mean == pytest.approx(5.5)
    assert StrategyConfig(strategy="rule_based").registration_mean == pytest.approx(5.5)


def test_config_is_frozen_once_checked():
    # A field set after construction would skip every check: a NaN session
    # would serve nobody without an error, and a strategy string would reach
    # the engine unresolved.  Replacing a field checks the new config afresh.
    cfg = StrategyConfig(strategy="fcfs")
    assert (cfg.strategy, cfg.registration_mean) == (engine.Strategy.FCFS, 5.5)
    assert not cfg.memory_enabled and not cfg.drift_enabled
    for f in dataclasses.fields(cfg):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, f.name, getattr(cfg, f.name))
    with pytest.raises(ValidationError):
        dataclasses.replace(cfg, session_minutes=float("nan"))
    assert StrategyConfig.from_dict(cfg.to_dict()) == cfg


# ------------------------------------------------------------ ablations


def test_flags_off_reproduces_face_composition(dataset42):
    patients, history = dataset42
    cfg = StrategyConfig(strategy="agentic", memory_enabled=False, drift_enabled=False)
    res = run_session(patients, history, cfg, seed=5)
    m = res.metrics
    assert m.escalation_count == 0
    assert m.drift_event_count == 0
    assert m.memory_escalation_count == 0
    assert m.final_composition == FACE_COMPOSITION


@pytest.mark.parametrize("variant", sorted(ABLATION_VARIANTS))
def test_without_drift_no_sweep_runs_and_priorities_stay_at_enqueue(dataset42, monkeypatch, variant):
    # The sweep is the only refresh of the wait term, and memory escalation
    # rides inside it.  Without drift no sweep runs, so each dequeue reads
    # every priority as computed at enqueue; with drift the sweeps move them.
    patients, history = dataset42
    sweeps, at_enqueue = [], []
    reassess_tick, dequeue_next = engine.AdaptiveQueue.reassess_tick, engine.AdaptiveQueue.dequeue_next

    def sweep(queue, *args):
        sweeps.append(args[0])
        return reassess_tick(queue, *args)

    def dequeue(queue, *args):
        at_enqueue.append(queue.priorities() == [e.priority for e in queue.entries()])
        return dequeue_next(queue, *args)

    monkeypatch.setattr(engine.AdaptiveQueue, "reassess_tick", sweep)
    monkeypatch.setattr(engine.AdaptiveQueue, "dequeue_next", dequeue)
    cfg = StrategyConfig(strategy="agentic", **ABLATION_VARIANTS[variant])
    served = sum(run_session(patients, history, cfg, seed).metrics.served_count for seed in range(1000, 1003))
    assert len(at_enqueue) == served > 600
    drift = cfg.drift_enabled
    assert bool(sweeps) == drift and all(at_enqueue) != drift


def test_drift_only_never_uses_memory(dataset42):
    patients, history = dataset42
    cfg = StrategyConfig(strategy="agentic", memory_enabled=False, drift_enabled=True)
    res = run_session(patients, history, cfg, seed=5)
    assert res.metrics.memory_escalation_count == 0
    assert res.metrics.drift_event_count > 0
    assert res.metrics.escalation_count == res.metrics.drift_event_count


@pytest.mark.parametrize("memory", [True, False])
def test_memory_switch_decides_which_entries_carry_a_record(dataset42, monkeypatch, memory):
    # The engine hands each entry the record its assessor may see; with memory
    # off none carries one, so sweeps run drift checks and no chart check.
    patients, history = dataset42
    enqueued, calls = [], collections.Counter()

    def spy(cls, name, note):
        method = getattr(cls, name)

        def wrapper(self, *args):
            note(self, *args)
            return method(self, *args)

        monkeypatch.setattr(cls, name, wrapper)

    spy(engine.AdaptiveQueue, "enqueue", lambda q, entry: enqueued.append(entry))
    for name in ("assess_history_escalation", "assess_drift_batch"):
        spy(engine.CalibratedTriageBackend, name, lambda b, *a, name=name: calls.update([name]))
    cfg = StrategyConfig(strategy="agentic", memory_enabled=memory)
    run_session(patients, history, cfg, seed=5)
    assert len(enqueued) > 200
    carried = {e.patient_id: e.record for e in enqueued if e.record is not None}
    if memory:
        assert carried and all(history[pid] is r for pid, r in carried.items())
        assert carried.keys() == {e.patient_id for e in enqueued if e.patient.has_history}
        assert calls["assess_history_escalation"] > 0
    else:
        assert carried == {} and calls["assess_history_escalation"] == 0
    assert calls["assess_drift_batch"] > 0


def test_run_ablations_covers_all_variants(dataset42):
    patients, history = dataset42
    out = {
        name: run_experiment(patients, history, StrategyConfig(strategy="agentic", **flags),
                             n_runs=2, base_seed=100)
        for name, flags in ABLATION_VARIANTS.items()
    }
    assert set(out) == {"full", "no_memory", "no_drift", "neither"}
    for runs in out.values():
        assert len(runs) == 2
    for r in out["neither"]:
        assert r.metrics.escalation_count == 0
        assert r.metrics.final_composition == FACE_COMPOSITION
    for r in out["no_memory"]:
        assert r.metrics.memory_escalation_count == 0
    for r in out["no_drift"]:
        assert r.metrics.escalation_count == 0


# ------------------------------------------------------------ reassessment


def test_reassessment_ticks_stop_when_nothing_is_pending(dataset42, monkeypatch):
    # Each tick schedules the next only while other events are pending, so a
    # session that never closes still ends once everyone has been seen.
    patients, history = dataset42
    ticks = []
    on_reassess = engine._Session.on_reassess

    def counting(self, t, desk_events_ahead):
        ticks.append(t)
        on_reassess(self, t, desk_events_ahead)

    monkeypatch.setattr(engine._Session, "on_reassess", counting)
    cfg = StrategyConfig(strategy="agentic", session_minutes=1e6)
    res = run_session(patients, history, cfg, seed=GOLDEN_SEED)
    assert res.metrics.unserved_count == 0
    last_end = max(v.consult_end for v in res.served)
    assert 0 < len(ticks) <= int(last_end / cfg.drift.check_interval) + 1


# ------------------------------------------------------------ fairness


def test_fcfs_round_robin_fairness_on_full_drain(dataset42):
    # With a session long enough to serve everyone, round-robin assignment
    # spreads patients evenly across the roster.
    patients, history = dataset42
    cfg = StrategyConfig(strategy="fcfs", session_minutes=2000.0)
    res = run_session(patients, history, cfg, seed=4)
    m = res.metrics
    assert m.unserved_count == 0
    counts = m.per_physician_served.values()
    assert max(counts) - min(counts) <= 1


# ------------------------------------------------------------ experiments


def test_run_experiment_seed_ladder(dataset42):
    patients, history = dataset42
    cfg = StrategyConfig(strategy="rule_based")
    runs = run_experiment(patients, history, cfg, n_runs=3, base_seed=1000)
    assert [r.metrics.seed for r in runs] == [1000, 1001, 1002]
    assert all(isinstance(r.metrics, SessionMetrics) for r in runs)
    assert all(r.metrics.strategy == "rule_based" for r in runs)
    # Repeatable wholesale.
    again = run_experiment(patients, history, cfg, n_runs=3, base_seed=1000)
    assert [r.metrics.to_dict() for r in runs] == [r.metrics.to_dict() for r in again]


def test_metrics_round_trip(dataset42):
    # The CLI summarizes runs from their JSON-ready metrics dicts.
    patients, history = dataset42
    res = run_session(patients, history, StrategyConfig(strategy="fcfs"), seed=1)
    clone = SessionMetrics(**json.loads(json.dumps(res.metrics.to_dict())))
    assert clone == res.metrics


# ------------------------------------------------------------ session result


def _reference_metrics(res, patients, config, seed, roster):
    """The session figures as an earlier `_finish` computed them: one Python
    list per level, and each patient's final level taken as their last
    escalation's target, else the presenting level."""
    served = res.served
    n = len(patients)
    final = {p.patient_id: p.face_urgency for p in patients}
    final.update((ev.patient_id, ev.to_level) for ev in res.escalations)
    composition = {lvl.value: 0 for lvl in UrgencyLevel}
    for lvl in final.values():
        composition[lvl.value] += 1

    def _mean(x):
        return float(np.mean(x)) if len(x) else None

    reg_waits = np.array([v.wait_from_registration for v in served])
    crit_waits = [
        v.wait_from_level_entry for v in served if v.effective_urgency is UrgencyLevel.CRITICAL
    ]
    pct10 = pct15 = None
    if crit_waits:
        pct10 = 100.0 * sum(1 for w in crit_waits if w < 10.0) / len(crit_waits)
        pct15 = 100.0 * sum(1 for w in crit_waits if w < 15.0) / len(crit_waits)
    drift_n = sum(1 for e in res.escalations if e.cause == "drift")
    memory_n = sum(1 for e in res.escalations if e.cause == "memory")
    matches = [v for v in served if v.specialty_matched]
    return SessionMetrics(
        strategy=config.strategy.value,
        seed=seed,
        session_minutes=config.session_minutes,
        served_count=len(served),
        unserved_count=n - len(served),
        throughput_per_hour=len(served) / (config.session_minutes / 60.0),
        avg_wait=_mean(reg_waits),
        median_wait=float(np.median(reg_waits)) if len(reg_waits) else None,
        p95_wait=float(np.percentile(reg_waits, 95)) if len(reg_waits) else None,
        wait_by_face={
            lvl.value: _mean([v.wait_from_registration for v in served if v.face_urgency is lvl])
            for lvl in UrgencyLevel
        },
        wait_by_effective={
            lvl.value: _mean(
                [v.wait_from_level_entry for v in served if v.effective_urgency is lvl]
            )
            for lvl in UrgencyLevel
        },
        critical_wait_mean=_mean(crit_waits),
        pct_critical_within_10=pct10,
        pct_critical_within_15=pct15,
        critical_served=len(crit_waits),
        critical_effective_count=composition["critical"],
        drift_event_count=drift_n,
        memory_escalation_count=memory_n,
        escalation_count=drift_n + memory_n,
        final_composition=composition,
        specialty_match_rate=(len(matches) / len(served)) if served else None,
        per_physician_served={
            p.physician_id: sum(1 for v in served if v.physician_id == p.physician_id)
            for p in roster
        },
    ).to_dict()


RESULT_CASES = {
    "default": ({}, None),
    "short_two_exact_desks": (
        dict(session_minutes=45.0, registration_desks=2, registration_std=0.0), None
    ),
    "two_minutes": (dict(session_minutes=2.0), None),
    "twin_rooms": ({}, TWIN_ROOMS),
}


@pytest.mark.parametrize("case", sorted(RESULT_CASES))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_session_metrics_match_reference(dataset42, strategy, case):
    patients, history = dataset42
    overrides, roster = RESULT_CASES[case]
    config = StrategyConfig(strategy=strategy, **overrides)
    for seed in (1000, 1001, 1002):
        res = run_session(patients, history, config, seed, roster=roster)
        want = _reference_metrics(res, patients, config, seed, roster or engine.default_roster())
        assert res.metrics.to_dict() == want
        # The waits behind the figures, as waits.json writes them.
        assert res.overall_waits == [v.wait_from_registration for v in res.served]
        assert res.critical_waits == [
            v.wait_from_level_entry for v in res.served if v.effective_urgency is UrgencyLevel.CRITICAL
        ]


def _median_p95_hex(x):
    """(`engine._median_p95`, NumPy's median and 95th percentile), each as `.hex()`."""
    got = tuple(v.hex() for v in engine._median_p95(np.array(x, float)))
    return got, (float(np.median(x)).hex(), float(np.percentile(x, 95)).hex())


def _wait_like_arrays(n_arrays, seed):
    """Fixed edge cases, then seeded arrays of sizes 1-400: spread waits, and
    those waits rounded, integer-valued, all equal, half zeros, subnormal, or
    drawn from a few values."""
    yield from ([0.0], [5e-324], [7.25], [1.0, 2.0], [0.0, 5e-324], [3.5, 3.5], [0.0] * 40)
    rng = np.random.default_rng(seed)
    for k in range(n_arrays):
        x = rng.exponential(30.0, int(rng.integers(1, 401)))
        kind = k % 7
        if kind == 1:
            x = np.round(x, 2)
        elif kind == 2:
            x = np.floor(x)
        elif kind == 3:
            x = np.full(len(x), x[0])
        elif kind == 4:
            x[rng.random(len(x)) < 0.5] = 0.0
        elif kind == 5:
            x = x * 1e-310
        elif kind == 6:
            x = rng.choice(x[:4], len(x))
        yield x


def test_median_p95_matches_numpy_bit_for_bit():
    # `_finish` takes median_wait and p95_wait from one sort; NumPy's pair
    # stays the oracle here, because its first call imports numpy.ma.
    mismatched = [x for x in _wait_like_arrays(5000, seed=36) if len(set(_median_p95_hex(x))) != 1]
    assert not mismatched


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300).map(lambda w: w + 0.0), min_size=1, max_size=400))
def test_median_p95_matches_numpy_on_arbitrary_floats(x):
    # `+ 0.0` turns -0.0 into 0.0: NumPy's partition and sort may pick
    # different signs of a zero middle element.  A wait is a difference and never -0.0.
    got, want = _median_p95_hex(x)
    assert got == want


def test_median_p95_of_nan_is_nan():
    assert _median_p95_hex([3.0, math.nan, 1.0, 2.0]) == (("nan", "nan"), ("nan", "nan"))


@pytest.mark.parametrize("case", sorted(RESULT_CASES) + sorted(GOLDEN_DESK_CONFIGS))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_traced_and_untraced_runs_agree(dataset42, strategy, case):
    # The trace is built after the loop, which runs the same way traced or
    # not; asking for it may change nothing else.
    patients, history = dataset42
    overrides, roster = RESULT_CASES.get(case) or (GOLDEN_DESK_CONFIGS[case], None)
    config = StrategyConfig(strategy=strategy, **overrides)
    for seed in (1000, 1001, 1002):
        traced, untraced = (
            run_session(patients, history, config, seed, roster=roster, collect_trace=on)
            for on in (True, False)
        )
        assert traced.trace and not untraced.trace
        assert traced.metrics.to_dict() == untraced.metrics.to_dict()
        assert traced.served == untraced.served
        assert traced.escalations == untraced.escalations


@pytest.mark.parametrize("case", sorted(RESULT_CASES))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_trace_has_one_row_per_event_in_time_order(dataset42, monkeypatch, strategy, case):
    # A row per arrival and escalation, two per registrant (reg_done and
    # enqueue) and two per visit (consult start and end), so arrivals +
    # 2·registrants + escalations + 2·served rows, in time order.
    # Arrivals and registrants are counted where the desks take them.
    patients, history = dataset42
    overrides, roster = RESULT_CASES[case]
    config = StrategyConfig(strategy=strategy, **overrides)
    stage, sizes = engine.registration_stage, []

    def counting_stage(arrivals, *args):
        entrants, late, never = stage(arrivals, *args)
        sizes.append((len(arrivals), len(entrants)))
        return entrants, late, never

    monkeypatch.setattr(engine, "registration_stage", counting_stage)
    for seed in (1000, 1001, 1002):
        sizes.clear()
        res = run_session(patients, history, config, seed, roster=roster, collect_trace=True)
        [(arrivals, registrants)] = sizes
        escalations, served = len(res.escalations), len(res.served)
        assert collections.Counter(row["event"] for row in res.trace) == collections.Counter(
            arrival=arrivals, reg_done=registrants, enqueue=registrants,
            escalation=escalations, consult_start=served, consult_end=served,
        )
        times = [row["time"] for row in res.trace]
        assert times == sorted(times)


# At one instant the loop ends consults, then sweeps the pool, then takes
# registrations (each enqueued at once), and dispatches last.  Arrivals change
# nothing in the loop; the trace lists them just before dispatch.
SAME_INSTANT_ORDER = ("consult_end", "escalation", "reg_done", "arrival", "consult_start")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_rows_at_one_instant_keep_the_loop_order(dataset42, monkeypatch, strategy):
    # Whole-minute arrivals, exact four-minute registrations at one desk,
    # four-minute ticks and consults lasting their level's mean put every
    # two kinds of event at some instant together.
    patients, history = dataset42
    monkeypatch.setattr(engine, "sample_arrivals", lambda *args: np.arange(N_PATIENTS, dtype=float))
    monkeypatch.setattr(engine, "_normals", lambda rng: itertools.repeat(0.0))
    config = StrategyConfig(strategy=strategy, registration_desks=1, registration_mean=4.0,
                            registration_std=0.0, drift=DriftParams(check_interval=4.0))
    res = run_session(patients, history, config, 1000, collect_trace=True,
                      roster=[Physician("R00", Specialty.GENERAL_MEDICINE)])
    together = set()
    for _, rows in itertools.groupby(res.trace, key=lambda row: row["time"]):
        rows = list(rows)
        for row, after in zip(rows, rows[1:] + [None]):
            if row["event"] == "reg_done":
                assert (after["event"], after["patient_id"]) == ("enqueue", row["patient_id"])
        ranks = [SAME_INSTANT_ORDER.index(row["event"]) for row in rows if row["event"] != "enqueue"]
        assert ranks == sorted(ranks)
        together.update(itertools.combinations(sorted(set(ranks)), 2))
    kinds = {row["event"] for row in res.trace} - {"enqueue"}
    assert together == set(itertools.combinations(sorted(map(SAME_INSTANT_ORDER.index, kinds)), 2))
    assert ("escalation" in kinds) == (strategy == "agentic")


# ------------------------------------------------------------ dispatch


@pytest.mark.parametrize("case", sorted(RESULT_CASES))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_dispatch_starts_a_consult(dataset42, monkeypatch, strategy, case):
    # Dispatch is asked for only when a room can start a consult, so each
    # call comes before closing and starts at least one.
    patients, history = dataset42
    overrides, roster = RESULT_CASES[case]
    config = StrategyConfig(strategy=strategy, **overrides)
    calls, started = [], []
    on_dispatch, start = engine._Session.on_dispatch, engine._Session._start_consult

    def counting_dispatch(self, t):
        calls.append(t)
        on_dispatch(self, t)

    def counting_start(self, t, room, entry):
        started.append(len(calls))
        start(self, t, room, entry)

    monkeypatch.setattr(engine._Session, "on_dispatch", counting_dispatch)
    monkeypatch.setattr(engine._Session, "_start_consult", counting_start)
    for seed in (1000, 1001, 1002):
        calls.clear()
        started.clear()
        res = run_session(patients, history, config, seed, roster=roster)
        assert len(started) == len(res.served)
        assert all(t < config.session_minutes for t in calls)
        assert set(started) == set(range(1, len(calls) + 1))


def _roster_walk_dispatch(self, t):
    """`_Session.on_dispatch` as it was before the token arms recorded their
    ready rooms: every call walks the whole roster."""
    pooled, queue = self.pooled, self.queue
    for room, physician in enumerate(self.roster):
        if physician.status is not PhysicianStatus.IDLE:
            continue
        if not (len(queue) if pooled else physician.queue_length):
            continue
        entry = queue.dequeue_next(None if pooled else physician.physician_id)
        desk = self.roster[self.position[entry.assigned_physician]]
        desk.queue_length -= 1
        if pooled and desk.queue_length + 1 == self.longest:  # a longest desk shrank
            self.longest = max(1, max([p.queue_length for p in self.roster]))
        self._start_consult(t, room, entry)


# Each case as (config overrides, roster, whether arrivals come in bursts of
# four).  Bursts on four exact desks end four registrations at one instant,
# so several rooms become ready together, in assignment order, not roster order.
DISPATCH_CASES = {
    **{case: (overrides, roster, False) for case, (overrides, roster) in RESULT_CASES.items()},
    **{case: (overrides, None, False) for case, overrides in GOLDEN_DESK_CONFIGS.items()},
    "twin_rooms_reversed": ({}, TWIN_ROOMS[::-1], False),
    "bursts_of_four": (dict(registration_std=0.0), None, True),
    "bursts_of_four_twin_rooms_reversed": (dict(registration_std=0.0), TWIN_ROOMS[::-1], True),
}


@pytest.mark.parametrize("case", sorted(DISPATCH_CASES))
@pytest.mark.parametrize("strategy", ["fcfs", "rule_based"])
def test_token_dispatch_matches_the_roster_walk(dataset42, monkeypatch, strategy, case):
    # A token room can start exactly when its setter recorded it, and the
    # recorded rooms start in roster order, so the session equals one whose
    # every dispatch walks the roster.
    patients, history = dataset42
    overrides, roster, bursts = DISPATCH_CASES[case]
    if bursts:
        _arrive_in_bursts_of_four(monkeypatch)
    config = StrategyConfig(strategy=strategy, **overrides)
    for seed in range(1000, 1005):
        got = run_session(patients, history, config, seed, roster=roster, collect_trace=True)
        with monkeypatch.context() as m:
            m.setattr(engine._Session, "on_dispatch", _roster_walk_dispatch)
            want = run_session(patients, history, config, seed, roster=roster, collect_trace=True)
        assert got.served == want.served
        assert got.escalations == want.escalations
        assert got.trace == want.trace
        assert got.metrics.to_dict() == want.metrics.to_dict()
        if bursts:  # some dispatch started several rooms
            assert len({v.consult_start for v in got.served}) < len(got.served)


# ------------------------------------------------------------ end state


def _break_after_closing(monkeypatch, breach):
    """Apply `breach(session, physician)` once, at the first consult end at
    or after closing, when no consult can start any more."""
    on_consult_end = engine._Session.on_consult_end
    done = []

    def breaching(self, t, room):
        on_consult_end(self, t, room)
        if t >= self.config.session_minutes and not done:
            breach(self, self.roster[room])
            done.append(t)

    monkeypatch.setattr(engine._Session, "on_consult_end", breaching)
    return done


def _drop_from_desk_index(session, physician):
    desks = session.queue.by_desk()
    next(es for es in desks.values() if es).popitem()


def _shorten_shortest_queue(session, physician):
    # Not the longest, so that only the queue-length clause breaks.
    desk = min((q for q in session.roster if q.queue_length), key=lambda q: q.queue_length)
    desk.queue_length -= 1


END_STATE_BREACHES = {
    "room_left_busy": ("fcfs", lambda s, p: setattr(p, "status", PhysicianStatus.BUSY)),
    "idle_count": ("rule_based", lambda s, p: setattr(s, "idle", s.idle - 1)),
    "queue_length": ("fcfs", lambda s, p: setattr(p, "queue_length", p.queue_length + 1)),
    "pooled_queue_length": ("agentic", _shorten_shortest_queue),
    "desk_index": ("rule_based", _drop_from_desk_index),
    "longest": ("agentic", lambda s, p: setattr(s, "longest", s.longest + 1)),
}


@pytest.mark.parametrize("breach", sorted(END_STATE_BREACHES))
def test_end_state_breach_fails_accounting(dataset42, monkeypatch, breach):
    # At close every room is idle and counted so, each desk's queue length
    # matches its waiting entries and the per-desk index, and the pooled
    # arm's longest queue is current; a breach of any fails the run.
    patients, history = dataset42
    strategy, act = END_STATE_BREACHES[breach]
    done = _break_after_closing(monkeypatch, act)
    with pytest.raises(ValidationError, match="accounting"):
        run_session(patients, history, StrategyConfig(strategy=strategy), seed=1)
    assert done


# ------------------------------------------------------------ closing boundary

# Seed 1000, each arm closed at the middle consult end in (100, 300) of its
# 360-minute run, with the visits it serves: a room frees exactly at closing.
CLOSING_AT_A_CONSULT_END = {"fcfs": (203.22277167962434, 138), "agentic": (191.9305402594464, 123)}


@pytest.mark.parametrize("strategy", sorted(CLOSING_AT_A_CONSULT_END))
def test_no_consult_starts_at_closing(dataset42, strategy):
    patients, history = dataset42
    close, n_served = CLOSING_AT_A_CONSULT_END[strategy]
    full = run_session(patients, history, StrategyConfig(strategy=strategy), seed=1000)
    ends = sorted(v.consult_end for v in full.served if 100 < v.consult_end < 300)
    assert ends[len(ends) // 2] == close
    res = run_session(patients, history, StrategyConfig(strategy=strategy, session_minutes=close), seed=1000)
    assert res.metrics.served_count == n_served
    assert max(v.consult_start for v in res.served) < close


def test_consult_started_at_closing_fails_accounting(dataset42, monkeypatch):
    # The pooled arm dispatches after any instant that asks for it; asking at
    # the consult end that is closing starts a consult at closing.
    patients, history = dataset42
    close, _ = CLOSING_AT_A_CONSULT_END["agentic"]
    done = _break_after_closing(monkeypatch, lambda s, p: setattr(s, "dispatch_due", True))
    with pytest.raises(ValidationError, match="accounting.*closing"):
        run_session(patients, history, StrategyConfig(strategy="agentic", session_minutes=close), seed=1000)
    assert done == [close]
