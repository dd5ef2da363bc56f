"""Tests for the waiting pool: priority formula, dequeue order, reassessment."""

import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from opdsim.engine import StrategyConfig
from opdsim.errors import ValidationError
from opdsim.patients import (
    AgeBand,
    Patient,
    Specialty,
    UrgencyLevel,
)
from opdsim.triage import CalibratedTriageBackend, DriftParams
from opdsim.waitqueue import (
    CAUSE_DRIFT,
    CAUSE_MEMORY,
    AdaptiveQueue,
    EscalationEvent,
    PriorityWeights,
    QueueEntry,
    _escalate,
    priority_score,
)

TOL = 1e-12

ALWAYS_DRIFT = DriftParams(p_high=1.0, p_medium=1.0, p_low=1.0, history_multiplier=1.0)
NEVER_DRIFT = DriftParams(p_high=0.0, p_medium=0.0, p_low=0.0, p_history_escalation=0.0)


def _patient(pid="P9001", urgency=UrgencyLevel.LOW, acuity=2, has_history=False):
    return Patient(
        patient_id=pid,
        age=40,
        age_band=AgeBand.ADULT,
        gender="M",
        locality="urban",
        language="Hindi",
        payment="cash",
        complaint="persistent cough",
        face_urgency=urgency,
        face_acuity=acuity,
        required_specialty=Specialty.GENERAL_MEDICINE,
        has_history=has_history,
    )


def _entry(pid="P9001", t=0.0, urgency=UrgencyLevel.LOW, acuity=2,
           physician=None, record=None, patient=None):
    p = patient if patient is not None else _patient(pid, urgency, acuity, record is not None)
    return QueueEntry(
        patient=p,
        enqueue_time=t,
        face_urgency=urgency,
        current_urgency=urgency,
        current_acuity=acuity,
        assigned_physician=physician,
        record=record,
    )


def _backend(params, seed=0):
    return CalibratedTriageBackend(np.random.default_rng(seed), params=params)


# ---------------------------------------------------------------- priority


def test_priority_critical_idle_anchor():
    # Top-urgency patient, max acuity, no wait yet, idle physician.
    e = _entry(urgency=UrgencyLevel.CRITICAL, acuity=10, t=0.0)
    assert abs(priority_score(e, now=0.0, physician_load=0.0) - 0.80) < TOL


def test_priority_low_saturated_anchor():
    # Lowest urgency, min acuity, wait past the horizon, fully loaded desk.
    e = _entry(urgency=UrgencyLevel.LOW, acuity=1, t=0.0)
    assert abs(priority_score(e, now=150.0, physician_load=1.0) - 0.1925) < TOL


def test_priority_wait_term_saturates():
    e = _entry(urgency=UrgencyLevel.MEDIUM, acuity=5, t=0.0)
    at_horizon = priority_score(e, now=120.0, physician_load=0.5)
    assert priority_score(e, now=240.0, physician_load=0.5) == at_horizon
    assert priority_score(e, now=500.0, physician_load=0.5) == at_horizon
    assert priority_score(e, now=119.0, physician_load=0.5) < at_horizon


def test_priority_monotone_in_each_component():
    base = _entry(urgency=UrgencyLevel.MEDIUM, acuity=5, t=0.0)
    p0 = priority_score(base, now=30.0, physician_load=0.5)

    hotter = _entry(urgency=UrgencyLevel.HIGH, acuity=5, t=0.0)
    assert priority_score(hotter, now=30.0, physician_load=0.5) > p0

    sicker = _entry(urgency=UrgencyLevel.MEDIUM, acuity=6, t=0.0)
    assert priority_score(sicker, now=30.0, physician_load=0.5) > p0

    assert priority_score(base, now=60.0, physician_load=0.5) > p0

    # Busier desk means a smaller idle-capacity term.
    assert priority_score(base, now=30.0, physician_load=0.9) < p0


@given(
    level=st.sampled_from(list(UrgencyLevel)),
    acuity=st.integers(min_value=1, max_value=10),
    wait=st.floats(min_value=0.0, max_value=600.0, allow_nan=False),
    load=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_priority_bounded(level, acuity, wait, load):
    e = _entry(urgency=level, acuity=acuity, t=0.0)
    p = priority_score(e, now=wait, physician_load=load)
    assert 0.0 <= p <= 1.0


def test_priority_rejects_time_before_enqueue():
    e = _entry(t=10.0)
    with pytest.raises(ValidationError):
        priority_score(e, now=5.0, physician_load=0.0)


def test_priority_weights_validated():
    with pytest.raises(ValidationError):
        PriorityWeights(urgency=0.5, acuity=0.2, waiting=0.2, load=0.15)
    with pytest.raises(ValidationError):
        PriorityWeights(wait_horizon=0.0)
    with pytest.raises(ValidationError):
        PriorityWeights(wait_horizon=float("nan"))
    with pytest.raises(ValidationError):
        StrategyConfig.from_dict({"weights": {"urgency": 0.45, "bogus": 1}})
    w = PriorityWeights(urgency=0.5, acuity=0.2, waiting=0.2, load=0.1, wait_cap=0.4)
    assert StrategyConfig.from_dict(StrategyConfig(weights=w).to_dict()).weights == w


# ---------------------------------------------------------------- dequeue


def test_enqueue_duplicate_rejected():
    q = AdaptiveQueue()
    q.enqueue(_entry("P0001", t=1.0))
    with pytest.raises(ValidationError):
        q.enqueue(_entry("P0001", t=2.0))


def _ranked(pid, t, priority, **kw):
    e = _entry(pid, t=t, **kw)
    e.priority = priority
    return e


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["enqueue_time", "priority"])
@pytest.mark.parametrize("pooled", [True, False])
def test_enqueue_refuses_a_non_finite_time_or_priority(pooled, field, value):
    # A dequeued slot reads -inf, so a live one must hold finite values; and
    # both kinds of pool must agree on where a NaN priority would go.
    q = AdaptiveQueue(pooled=pooled)
    kept = _ranked("P0001", 0.0, 0.5, physician="D1")
    q.enqueue(kept)
    bad = _ranked("P0002", 1.0, 0.4, physician="D1")
    setattr(bad, field, value)
    with pytest.raises(ValidationError, match="finite"):
        q.enqueue(bad)
    assert q.entries() == [kept]
    assert q.dequeue_next(None if pooled else "D1") is kept
    assert len(q) == 0


def test_dequeue_fcfs_takes_earliest():
    # fcfs leaves every priority at 0.0, so enqueue time decides.
    q = AdaptiveQueue()
    for pid, t in [("P0003", 3.0), ("P0001", 1.0), ("P0002", 2.0)]:
        q.enqueue(_entry(pid, t=t))
    first = q.dequeue_next()
    assert first.patient_id == "P0001"
    assert [e.patient_id for e in q.entries()] == ["P0003", "P0002"]


def test_dequeue_rule_based_prefers_presenting_class():
    # rule_based ranks by presenting class: a later, hotter presenter wins.
    q = AdaptiveQueue()
    q.enqueue(_ranked("P0001", 0.0, float(UrgencyLevel.LOW.rank)))
    q.enqueue(_ranked("P0002", 50.0, float(UrgencyLevel.CRITICAL.rank)))
    assert q.dequeue_next().patient_id == "P0002"


def test_dequeue_rule_based_fifo_within_class():
    q = AdaptiveQueue()
    q.enqueue(_ranked("P0001", 5.0, float(UrgencyLevel.MEDIUM.rank)))
    q.enqueue(_ranked("P0002", 3.0, float(UrgencyLevel.MEDIUM.rank)))
    assert q.dequeue_next().patient_id == "P0002"


def test_dequeue_agentic_highest_priority_wins():
    q = AdaptiveQueue()
    q.enqueue(_ranked("P0001", 0.0, 0.5))
    q.enqueue(_ranked("P0002", 5.0, 0.9))
    assert q.dequeue_next().patient_id == "P0002"


def test_dequeue_agentic_tie_breaks_on_arrival_then_id():
    q = AdaptiveQueue()
    q.enqueue(_ranked("P0002", 1.0, 0.7))
    q.enqueue(_ranked("P0001", 3.0, 0.7))
    assert q.dequeue_next().patient_id == "P0002"

    q2 = AdaptiveQueue()
    q2.enqueue(_ranked("P0002", 1.0, 0.7))
    q2.enqueue(_ranked("P0001", 1.0, 0.7))
    assert q2.dequeue_next().patient_id == "P0001"


def test_dequeue_scoped_to_physician():
    # Scope filters before ranking: the pool-wide best is left alone.
    q = AdaptiveQueue(pooled=False)
    q.enqueue(_ranked("P0001", 5.0, 0.1, physician="GM-1"))
    q.enqueue(_ranked("P0002", 1.0, 0.9, physician="GM-2"))
    q.enqueue(_ranked("P0003", 9.0, 0.1, physician="GM-1"))
    assert q.dequeue_next(physician_id="GM-1").patient_id == "P0001"
    assert [e.patient_id for e in q.entries()] == ["P0002", "P0003"]


def test_dequeue_empty_queue_is_contract_violation():
    q = AdaptiveQueue()
    with pytest.raises(ValidationError):
        q.dequeue_next()
    by_desk = AdaptiveQueue(pooled=False)
    by_desk.enqueue(_entry("P0001", t=0.0, physician="GM-2"))
    with pytest.raises(ValidationError):
        by_desk.dequeue_next(physician_id="GM-1")


@pytest.mark.parametrize("pooled", [True, False])
def test_dequeue_of_the_other_kind_is_refused(pooled):
    # A pooled pool is dequeued whole and a per-desk pool by desk; the other
    # kind is refused and leaves the pool as it was.
    q = AdaptiveQueue(pooled=pooled)
    q.enqueue(_ranked("P0001", 0.0, 0.5, physician="GM-1"))
    q.enqueue(_ranked("P0002", 1.0, 0.9, physician="GM-1"))
    with pytest.raises(ValidationError, match="dequeued"):
        q.dequeue_next("GM-1" if pooled else None)
    assert [e.patient_id for e in q.entries()] == ["P0001", "P0002"]
    assert q.dequeue_next(None if pooled else "GM-1").patient_id == "P0002"


def test_sweep_of_a_per_desk_pool_is_refused():
    # Only the agentic arm's pooled pool is reassessed.
    q = AdaptiveQueue(pooled=False)
    sweep = dict(backend=_backend(ALWAYS_DRIFT), load_of=lambda pid: 0.0)
    with pytest.raises(ValidationError, match="swept"):
        q.reassess_tick(5.0, **sweep)
    e = _entry("P0001", t=0.0, physician="GM-1")
    q.enqueue(e)
    with pytest.raises(ValidationError, match="swept"):
        q.reassess_tick(5.0, **sweep)
    assert (e.current_urgency, e.priority) == (UrgencyLevel.LOW, 0.0)
    assert q.dequeue_next("GM-1") is e


@pytest.mark.parametrize("now, load, match", [
    (math.nan, 0.0, "finite"),
    (math.inf, 0.0, "finite"),
    (-math.inf, 0.0, "finite"),
    (5.0, math.nan, "finite"),
    (0.5, 0.0, "precedes an enqueue"),
])
def test_a_refused_sweep_writes_no_slot(now, load, match):
    # A NaN load or time would otherwise reach the slot table, where a NaN
    # priority is taken first; ALWAYS_DRIFT shows that no check ran either.
    q = AdaptiveQueue()
    a = _ranked("P0001", 0.0, 0.2, physician="GM-1")
    b = _ranked("P0002", 1.0, 0.6, physician="GM-2")
    q.enqueue(a)
    q.enqueue(b)
    loads = {"GM-1": 0.0, "GM-2": load}
    with pytest.raises(ValidationError, match=match):
        q.reassess_tick(now, _backend(ALWAYS_DRIFT), load_of=loads.__getitem__)
    assert [(e.current_urgency, e.priority) for e in (a, b)] == [
        (UrgencyLevel.LOW, 0.2), (UrgencyLevel.LOW, 0.6),
    ]
    assert q.priorities() == [0.2, 0.6]
    assert [q.dequeue_next() for _ in range(2)] == [b, a]


# ---------------------------------------------------------------- escalation


def test_apply_escalation_updates_entry():
    e = _entry("P0001", t=0.0, urgency=UrgencyLevel.LOW, acuity=2)
    ev = _escalate(e, 30.0, UrgencyLevel.MEDIUM, CAUSE_DRIFT, "worsened")
    assert ev.from_level is UrgencyLevel.LOW and ev.to_level is UrgencyLevel.MEDIUM
    assert e.current_urgency is UrgencyLevel.MEDIUM
    assert e.current_acuity == UrgencyLevel.MEDIUM.escalation_acuity
    assert e.level_entry_time == 30.0
    assert e.face_urgency is UrgencyLevel.LOW  # presenting class untouched


def test_escalation_log_strictly_increasing():
    e = _entry("P0001", t=0.0, urgency=UrgencyLevel.LOW, acuity=2)
    log = [
        _escalate(e, 30.0, UrgencyLevel.MEDIUM, CAUSE_DRIFT, ""),
        _escalate(e, 35.0, UrgencyLevel.HIGH, CAUSE_DRIFT, ""),
        _escalate(e, 40.0, UrgencyLevel.CRITICAL, CAUSE_MEMORY, ""),
    ]
    times = [ev.time for ev in log]
    ranks = [ev.to_level.rank for ev in log]
    assert times == sorted(times) and len(set(times)) == 3
    assert ranks == sorted(ranks) and len(set(ranks)) == 3


def test_apply_escalation_must_raise_level():
    e = _entry("P0001", t=0.0, urgency=UrgencyLevel.HIGH, acuity=7)
    with pytest.raises(ValidationError):
        _escalate(e, 10.0, UrgencyLevel.HIGH, CAUSE_DRIFT, "")
    with pytest.raises(ValidationError):
        _escalate(e, 10.0, UrgencyLevel.MEDIUM, CAUSE_DRIFT, "")
    assert (e.current_urgency, e.current_acuity, e.level_entry_time) == (
        UrgencyLevel.HIGH, 7, 0.0)


# ---------------------------------------------------------------- reassessment


def test_reassess_memory_fires_once_then_ceiling(dataset42):
    patients, history = dataset42
    pid, record = next(
        (pid, r) for pid, r in history.items()
        if r.escalation_rule.target is UrgencyLevel.CRITICAL
    )
    patient = next(p for p in patients if p.patient_id == pid)
    q = AdaptiveQueue()
    e = _entry(t=0.0, urgency=patient.face_urgency, acuity=patient.face_acuity,
               record=record, patient=patient)
    q.enqueue(e)
    backend = _backend(DriftParams(p_low=1.0, p_medium=1.0, p_high=1.0,
                                   p_history_escalation=1.0))
    first = q.reassess_tick(5.0, backend, load_of=lambda pid: 0.0)
    assert len(first) == 1
    assert first[0].cause == CAUSE_MEMORY
    assert first[0].to_level is UrgencyLevel.CRITICAL
    assert e.current_urgency is UrgencyLevel.CRITICAL
    assert e.level_entry_time == 5.0
    # Next sweep: the history check already fired and critical cannot drift.
    second = q.reassess_tick(10.0, backend, load_of=lambda pid: 0.0)
    assert second == []


def test_reassess_asks_the_chart_until_the_rule_fires(dataset42):
    # At p = 0.5 the history check misses some sweeps; once it fires the
    # entry holds the rule's target, so the pool never asks again.
    patients, history = dataset42
    pid, record = next(
        (pid, r) for pid, r in history.items()
        if r.escalation_rule.target is UrgencyLevel.CRITICAL
    )
    patient = next(p for p in patients if p.patient_id == pid)
    q = AdaptiveQueue()
    e = _entry(t=0.0, urgency=patient.face_urgency, acuity=patient.face_acuity,
               record=record, patient=patient)
    q.enqueue(e)
    backend = _backend(DriftParams(p_low=0.0, p_medium=0.0, p_high=0.0,
                                   p_history_escalation=0.5), seed=4)
    answers = []
    assess = backend.assess_history_escalation

    def counting(patient, record):
        answers.append(assess(patient, record))
        return answers[-1]

    backend.assess_history_escalation = counting
    events = []
    for k in range(1, 41):
        events += q.reassess_tick(5.0 * k, backend, load_of=lambda pid: 0.0)
    fired = [a for a in answers if a is not None]
    assert fired == [record.escalation_rule]
    assert answers[-1] is not None
    assert len(answers) > 1  # seed 4 misses at least once before it fires
    assert [ev.cause for ev in events] == [CAUSE_MEMORY]
    assert e.current_urgency is UrgencyLevel.CRITICAL
    assert e.current_acuity == UrgencyLevel.CRITICAL.escalation_acuity


def test_reassess_memory_preempts_drift_same_sweep(dataset42):
    # A certain-to-fire drift check must be skipped on the sweep where the
    # history rule escalates the same patient.
    patients, history = dataset42
    pid, record = next(
        (pid, r) for pid, r in history.items()
        if r.escalation_rule.target is UrgencyLevel.HIGH
    )
    patient = next(p for p in patients if p.patient_id == pid)
    q = AdaptiveQueue()
    e = _entry(t=0.0, urgency=patient.face_urgency, acuity=patient.face_acuity,
               record=record, patient=patient)
    q.enqueue(e)
    backend = _backend(DriftParams(p_low=1.0, p_medium=1.0, p_high=1.0,
                                   p_history_escalation=1.0))
    events = q.reassess_tick(5.0, backend, load_of=lambda pid: 0.0)
    assert [ev.cause for ev in events] == [CAUSE_MEMORY]
    assert e.current_urgency is UrgencyLevel.HIGH


def test_reassess_drift_climbs_one_level_per_sweep():
    q = AdaptiveQueue()
    e = _entry("P0001", t=0.0, urgency=UrgencyLevel.LOW, acuity=2)
    q.enqueue(e)
    backend = _backend(ALWAYS_DRIFT)
    seen = []
    for tick in (5.0, 10.0, 15.0, 20.0):
        seen += q.reassess_tick(tick, backend, load_of=lambda pid: 0.0)
    # Three sweeps climb low -> medium -> high -> critical; the fourth finds
    # the entry at the ceiling and leaves it alone.
    assert [ev.to_level for ev in seen] == [
        UrgencyLevel.MEDIUM, UrgencyLevel.HIGH, UrgencyLevel.CRITICAL,
    ]
    assert all(ev.cause == CAUSE_DRIFT for ev in seen)
    assert e.current_acuity == UrgencyLevel.CRITICAL.escalation_acuity


def test_reassess_refreshes_all_priorities():
    q = AdaptiveQueue()
    a = _entry("P0001", t=0.0, urgency=UrgencyLevel.LOW, acuity=2, physician="GM-1")
    b = _entry("P0002", t=10.0, urgency=UrgencyLevel.HIGH, acuity=8, physician="GM-2")
    q.enqueue(a)
    q.enqueue(b)
    loads = {"GM-1": 0.25, "GM-2": 1.0}
    backend = _backend(NEVER_DRIFT)
    events = q.reassess_tick(30.0, backend, load_of=loads.__getitem__)
    assert events == []
    assert q.priorities() == [
        priority_score(entry, 30.0, loads[entry.assigned_physician]) for entry in (a, b)
    ]


def test_reassess_memory_skipped_once_target_reached(dataset42):
    # If the entry already sits at (or above) the record's target level the
    # history rule has nothing to add, so drift is consulted instead.
    patients, history = dataset42
    pid, record = next(
        (pid, r) for pid, r in history.items()
        if r.escalation_rule.target is UrgencyLevel.HIGH
    )
    patient = next(p for p in patients if p.patient_id == pid)
    q = AdaptiveQueue()
    e = _entry(t=0.0, urgency=UrgencyLevel.HIGH, acuity=7, record=record,
               patient=patient)
    q.enqueue(e)
    backend = _backend(DriftParams(p_low=1.0, p_medium=1.0, p_high=1.0,
                                   p_history_escalation=1.0))
    events = q.reassess_tick(5.0, backend, load_of=lambda pid: 0.0)
    assert [ev.cause for ev in events] == [CAUSE_DRIFT]
    assert e.current_urgency is UrgencyLevel.CRITICAL


# ---------------------------------------------------------------- reference sweep


def _reference_escalate(entry, now, target, cause, reason):
    event = EscalationEvent(now, entry.patient_id, entry.current_urgency, target, cause, reason)
    entry.current_urgency = target
    entry.current_acuity = target.escalation_acuity
    entry.level_entry_time = now
    return event


def _reference_tick(queue, now, backend, load_of):
    """The per-entry sweep the columns replaced: one scalar check at a time,
    escalating the entries of `queue`, a per-desk pool, in place."""
    events = []
    for entry in queue.entries():
        escalated_by_memory = False
        record = entry.record
        if record is not None and record.escalation_rule.target.rank > entry.current_urgency.rank:
            rule = backend.assess_history_escalation(entry.patient, record)
            if rule is not None:
                events.append(
                    _reference_escalate(entry, now, rule.target, CAUSE_MEMORY, rule.reason)
                )
                escalated_by_memory = True
        if not escalated_by_memory and entry.current_urgency is not UrgencyLevel.CRITICAL:
            new_level = backend.assess_drift(entry.current_urgency, record is not None)
            if new_level is not None:
                events.append(
                    _reference_escalate(
                        entry, now, new_level, CAUSE_DRIFT, "deterioration while waiting"
                    )
                )
    for entry in queue.entries():
        entry.priority = priority_score(
            entry, now, load_of(entry.assigned_physician), queue.weights
        )
    return events


def _reference_pop(queue, physician_id=None):
    """The scan dequeue_next made before the columns, over the whole of
    `queue`, a per-desk pool, or one desk of it; pops through the per-desk
    path, which keeps that scan."""
    pool = [e for e in queue.entries()
            if physician_id is None or e.assigned_physician == physician_id]
    best = min(pool, key=lambda e: (-e.priority, e.enqueue_time, e.patient_id))
    return queue.dequeue_next(best.assigned_physician)


DESKS = ("D1", "D2", "D3", "D4")


def _random_entry(rng, patient, history, t, memory=True):
    """An entry of random level, acuity, desk and priority; with `memory` on,
    a patient with a record carries it."""
    level = list(UrgencyLevel)[int(rng.integers(0, 4))]
    record = history.get(patient.patient_id)
    if record is not None and rng.random() < 0.5:
        # A visible record whose target is at or above the entry's level.
        target = record.escalation_rule.target
        below = list(UrgencyLevel)[int(rng.integers(0, target.rank + 1))]
        level = target if rng.random() < 0.3 else below
    e = _entry(t=t, urgency=level, acuity=int(rng.integers(1, 11)),
               physician=DESKS[int(rng.integers(0, len(DESKS)))],
               record=record if memory else None, patient=patient)
    e.priority = float(rng.random())
    return e


@pytest.mark.parametrize("p_history", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("memory_enabled", [True, False])
@pytest.mark.parametrize("seed", [1, 2])
def test_reassess_matches_reference_sweep(dataset42, p_history, memory_enabled, seed):
    # Seeded pools of mixed levels (criticals included), several desks, and
    # history-visible entries, swept by the column code and by the reference
    # on twin backends, with enqueues and pooled dequeues between sweeps.  A
    # 1.5x multiplier caps p_medium's history probability at 1.
    patients, history = dataset42
    rng = np.random.default_rng(seed)
    shuffled = [patients[i] for i in rng.permutation(len(patients))]
    cohort = (
        [p for p in shuffled if p.patient_id not in history][:60]
        + [p for p in shuffled if p.patient_id in history][:40]
    )
    arrivals = iter(cohort[i] for i in rng.permutation(len(cohort)))
    params = DriftParams(p_low=0.2, p_medium=0.7, p_high=0.1, history_multiplier=1.5,
                         p_history_escalation=p_history)
    fast, ref = AdaptiveQueue(), AdaptiveQueue(pooled=False)
    fast_backend, ref_backend = _backend(params, seed), _backend(params, seed)
    t = 0.0
    n_events = n_memory = 0
    for tick in range(1, 13):
        for patient in [next(arrivals, None) for _ in range(int(rng.integers(3, 12)))]:
            if patient is None:
                continue
            t += float(rng.random())
            e = _random_entry(rng, patient, history, t, memory_enabled)
            fast.enqueue(e)
            ref.enqueue(copy.deepcopy(e))
        for _ in range(int(rng.integers(0, 4))):
            if len(ref):
                assert fast.dequeue_next().patient_id == _reference_pop(ref).patient_id
        loads = {d: float(x) for d, x in zip(DESKS, rng.uniform(-0.2, 1.2, len(DESKS)))}
        t = max(t, 5.0 * tick)
        got = fast.reassess_tick(t, fast_backend, loads.__getitem__)
        want = _reference_tick(ref, t, ref_backend, loads.__getitem__)
        assert got == want
        assert [e.patient_id for e in fast.entries()] == [e.patient_id for e in ref.entries()]
        for a, p, b in zip(fast.entries(), fast.priorities(), ref.entries()):
            assert (a.current_urgency, a.current_acuity, a.level_entry_time) == (
                b.current_urgency, b.current_acuity, b.level_entry_time)
            assert p.hex() == b.priority.hex()
        assert fast_backend.rng.bit_generator.state == ref_backend.rng.bit_generator.state
        n_events += len(got)
        n_memory += sum(ev.cause == CAUSE_MEMORY for ev in got)
    assert n_events > 0
    assert (n_memory > 0) == (memory_enabled and p_history > 0)
    while len(ref):
        assert fast.dequeue_next().patient_id == _reference_pop(ref).patient_id


# ---------------------------------------------------------------- pool edges


def _twins(entries, pooled=True):
    """A pool under test and a reference twin, a per-desk pool holding deep
    copies."""
    fast, ref = AdaptiveQueue(pooled=pooled), AdaptiveQueue(pooled=False)
    for e in entries:
        fast.enqueue(e)
        ref.enqueue(copy.deepcopy(e))
    return fast, ref


def _assert_same_pool(fast, ref):
    """Same entries in the same order; a pooled pool's priorities are read
    from its slot table, the only place its sweeps refresh them."""
    assert [e.patient_id for e in fast.entries()] == [e.patient_id for e in ref.entries()]
    for a, p, b in zip(fast.entries(), fast.priorities(), ref.entries()):
        assert (a.current_urgency, a.current_acuity, a.level_entry_time, p.hex()) == (
            b.current_urgency, b.current_acuity, b.level_entry_time, b.priority.hex())


def _sweep_twins(fast, ref, backends, t, loads):
    got = fast.reassess_tick(t, backends[0], loads.__getitem__)
    want = _reference_tick(ref, t, backends[1], loads.__getitem__)
    assert got == want
    assert backends[0].rng.bit_generator.state == backends[1].rng.bit_generator.state
    _assert_same_pool(fast, ref)


def _pop_twins(fast, ref, desk=None):
    got = fast.dequeue_next(desk).patient_id
    assert got == _reference_pop(ref, desk).patient_id
    _assert_same_pool(fast, ref)
    return got


def test_pool_past_64_and_128_entries_matches_reference(dataset42):
    # The pool's storage grows in steps; sweeps and pooled dequeues on each
    # side of 64 and 128 entries must agree with the reference.
    patients, history = dataset42
    rng = np.random.default_rng(11)
    cohort = iter(patients[i] for i in rng.permutation(len(patients)))
    params = DriftParams(p_low=0.1, p_medium=0.3, p_high=0.05, p_history_escalation=0.5)
    backends = (_backend(params, 11), _backend(params, 11))
    loads = dict(zip(DESKS, (0.0, 0.25, 0.5, 1.0)))
    fast, ref = _twins([])
    t, sizes = 0.0, []
    for batch, pops in ((70, 3), (70, 5), (60, 4)):
        for _ in range(batch):
            t += 0.05
            e = _random_entry(rng, next(cohort), history, t)
            fast.enqueue(e)
            ref.enqueue(copy.deepcopy(e))
        sizes.append(len(fast))
        t += 1.0
        _sweep_twins(fast, ref, backends, t, loads)
        for _ in range(pops):
            _pop_twins(fast, ref)
    assert sizes[0] > 64 and max(sizes) > 128
    while len(ref):
        _pop_twins(fast, ref)


def test_exact_priority_ties_go_to_enqueue_time_then_id():
    # Five entries share one priority: earliest enqueue first, then id.
    entries = [
        _ranked(pid, t, 0.5, physician="D1")
        for pid, t in [("P0005", 3.0), ("P0004", 1.0), ("P0001", 2.0), ("P0003", 1.0), ("P0002", 1.0)]
    ]
    entries.insert(2, _ranked("P0009", 9.0, 0.75, physician="D2"))
    fast, ref = _twins(entries)
    order = [_pop_twins(fast, ref) for _ in range(len(entries))]
    assert order == ["P0009", "P0002", "P0003", "P0004", "P0001", "P0005"]


def test_sweep_made_ties_go_to_enqueue_time_then_id():
    # Same level, acuity and desk: once every wait term has saturated, a
    # sweep gives the entries the same priority, whatever they held before.
    spec = [("P0006", 4.0), ("P0005", 0.0), ("P0004", 2.0), ("P0003", 0.0), ("P0002", 2.0)]
    entries = [
        _ranked(pid, t, 0.1 * k, urgency=UrgencyLevel.MEDIUM, acuity=5, physician="D1")
        for k, (pid, t) in enumerate(spec)
    ]
    entries.append(_ranked("P0001", 1.0, 0.0, urgency=UrgencyLevel.HIGH, acuity=7, physician="D2"))
    fast, ref = _twins(entries)
    backends = (_backend(NEVER_DRIFT), _backend(NEVER_DRIFT))
    _sweep_twins(fast, ref, backends, 200.0, {"D1": 0.5, "D2": 0.5})
    tied = [p for e, p in zip(fast.entries(), fast.priorities()) if e.assigned_physician == "D1"]
    assert len(set(tied)) == 1 and len(tied) == 5
    order = [_pop_twins(fast, ref) for _ in range(len(entries))]
    assert order == ["P0001", "P0003", "P0005", "P0002", "P0004", "P0006"]


@pytest.mark.parametrize("first_pop_desk", [None, "D1"])
def test_reenqueue_of_a_dequeued_id(first_pop_desk):
    # An id may return to the pool once it has left it; the new entry is
    # ranked as the newest, and the old one leaves no trace.  A pool popped
    # whole (first_pop_desk None) is swept too; a per-desk pool pops by desk.
    pooled = first_pop_desk is None
    fast, ref = _twins([
        _ranked("P0001", 0.0, 0.9, physician="D1"),
        _ranked("P0002", 1.0, 0.4, physician="D2"),
        _ranked("P0003", 2.0, 0.4, physician="D1"),
    ], pooled)

    def pop(desk):
        return _pop_twins(fast, ref, None if pooled else desk)

    assert pop(first_pop_desk) == "P0001"
    with pytest.raises(ValidationError):
        fast.enqueue(_ranked("P0002", 3.0, 0.1))
    back = _ranked("P0001", 3.0, 0.4, physician="D2")
    fast.enqueue(back)
    ref.enqueue(copy.deepcopy(back))
    _assert_same_pool(fast, ref)
    assert [pop(desk) for desk in ("D2", "D1", "D2")] == ["P0002", "P0003", "P0001"]
    again = _ranked("P0001", 4.0, 0.0, physician="D1")
    fast.enqueue(again)
    ref.enqueue(copy.deepcopy(again))
    if pooled:
        backends = (_backend(NEVER_DRIFT), _backend(NEVER_DRIFT))
        _sweep_twins(fast, ref, backends, 10.0, {"D1": 0.0, "D2": 0.0})
    assert pop("D1") == "P0001"
    assert len(fast) == 0


# ---------------------------------------------------------------- dequeue differential

_POOL_IDS = [f"P{k:04d}" for k in range(1, 9)]
# enqueue: id, clock step (0 makes exact enqueue-time ties), desk, level,
# priority; one draw from the product is cheaper than one per field.
_ENQUEUE = st.sampled_from(list(itertools.product(
    ["enqueue"], _POOL_IDS, [0.0, 0.0, 1.0], DESKS[:3], list(UrgencyLevel), [0.0, 0.5, 0.5],
)))
_POOLED_OPS = st.one_of(_ENQUEUE, _ENQUEUE, st.just(("pop", None)), st.just(("sweep",)))
_PER_DESK_OPS = st.one_of(_ENQUEUE, _ENQUEUE, st.sampled_from([("pop", d) for d in DESKS[:3]]))


def _run_pool_ops(q, ops):
    """Apply `ops` to `q`: enqueues (a repeated id is refused while queued
    and comes back once dequeued), dequeues, each of which must return the
    entry a plain min over the whole pool or the desk picks, and sweeps."""
    backend = _backend(DriftParams(p_low=0.3, p_medium=0.3, p_high=0.3))
    loads = dict(zip(DESKS, (0.0, 0.5, 1.0, 0.25)))
    t = 0.0
    for op in ops:
        if op[0] == "enqueue":
            _, pid, step, desk, level, priority = op
            if any(e.patient_id == pid for e in q.entries()):
                with pytest.raises(ValidationError):
                    q.enqueue(_ranked(pid, t, priority, physician=desk))
                continue
            t += step
            q.enqueue(_ranked(pid, t, priority, urgency=level, acuity=2 * level.rank + 1,
                              physician=desk))
        elif op[0] == "pop":
            desk = op[1]
            pool = [e for e in q.entries() if desk is None or e.assigned_physician == desk]
            if not pool:
                with pytest.raises(ValidationError):
                    q.dequeue_next(desk)
                continue
            live = {e.patient_id: p for e, p in zip(q.entries(), q.priorities())}
            want = min(pool, key=lambda e: (-live[e.patient_id], e.enqueue_time, e.patient_id))
            assert q.dequeue_next(desk) is want
            assert want not in q.entries()
        else:
            q.reassess_tick(t, backend, load_of=loads.__getitem__)


# No shrink phase: a failing example is reported as found, since shrinking
# one of these op lists has taken minutes.
_DIFFERENTIAL = settings(derandomize=True, max_examples=75, deadline=None,
                         phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])


@_DIFFERENTIAL
@given(ops=st.lists(_POOLED_OPS, min_size=10, max_size=60))
def test_dequeues_match_a_full_pool_min(ops):
    # Enqueues, pooled dequeues and sweeps, in any order.
    _run_pool_ops(AdaptiveQueue(), ops)


@_DIFFERENTIAL
@given(ops=st.lists(_PER_DESK_OPS, min_size=10, max_size=60))
def test_per_desk_dequeues_match_a_desk_min(ops):
    # Enqueues and per-desk dequeues in any order; after them the per-desk
    # index holds the pool's entries under their desks.
    q = AdaptiveQueue(pooled=False)
    _run_pool_ops(q, ops)
    index = q.by_desk()
    assert sorted(e.patient_id for es in index.values() for e in es.values()) == sorted(
        e.patient_id for e in q.entries())
    assert all(e.assigned_physician == d for d, es in index.items() for e in es.values())
