"""Known answers: identities every sample path obeys, and limits where the
outcome of a session is known without simulating it."""

import collections
import dataclasses
import math

import pytest

from opdsim.assignment import Physician, default_roster
from opdsim.engine import StrategyConfig, run_session
from opdsim.patients import Specialty, UrgencyLevel
from opdsim.triage import DriftParams

SEEDS = (1000, 1001, 1002)
CRITICAL = UrgencyLevel.CRITICAL.rank


def _enqueue_times(res) -> dict[str, float]:
    return {row["patient_id"]: row["time"] for row in res.trace if row["event"] == "enqueue"}


@pytest.mark.parametrize("strategy", ["fcfs", "rule_based", "agentic"])
@pytest.mark.parametrize("seed", SEEDS)
def test_littles_law_on_the_sample_path(dataset42, strategy, seed):
    # Little (1961) on one path: the area under the pool-length curve up to
    # closing equals the time each patient spent in the pool, a patient
    # still waiting at closing counted up to closing.
    patients, history = dataset42
    config = StrategyConfig(strategy=strategy)
    res = run_session(patients, history, config, seed, collect_trace=True)
    close = config.session_minutes

    area, length, last = 0.0, 0, 0.0
    for row in res.trace:
        if row["event"] not in ("enqueue", "consult_start"):
            continue
        assert last <= row["time"] < close
        area += length * (row["time"] - last)
        length += 1 if row["event"] == "enqueue" else -1
        last = row["time"]
        assert length >= 0
    area += length * (close - last)

    enqueued = _enqueue_times(res)
    served = {v.patient_id for v in res.served}
    pool_time = sum(v.consult_start - v.registered_at for v in res.served)
    pool_time += sum(close - t for pid, t in enqueued.items() if pid not in served)
    assert served <= enqueued.keys()
    assert length == len(enqueued) - len(served)
    # Trace times carry six decimals.
    assert area == pytest.approx(pool_time, rel=1e-9, abs=1e-6 * len(res.trace))


@pytest.mark.parametrize("seed", SEEDS)
def test_certain_drift_climbs_one_level_per_tick(dataset42, seed):
    # With every drift check certain to fire and no chart checks, each sweep
    # raises every waiting patient one level, so a patient's escalations are
    # the sweeps they sat through, capped at the levels left to critical.
    patients, history = dataset42
    drift = DriftParams(p_high=1.0, p_medium=1.0, p_low=1.0)
    config = StrategyConfig(strategy="agentic", memory_enabled=False, drift=drift)
    res = run_session(patients, history, config, seed, collect_trace=True)
    close, step = config.session_minutes, drift.check_interval
    ticks = [step * k for k in range(1, int(close / step) + 1)]

    # A sweep runs before the registrations and the dispatch of its own
    # instant: it sees a patient enqueued before it and one called at it.
    left = {v.patient_id: v.consult_start for v in res.served}
    face = {p.patient_id: p.face_urgency.rank for p in patients}
    escalations = collections.Counter(ev.patient_id for ev in res.escalations)
    enqueued = _enqueue_times(res)
    assert escalations.keys() <= enqueued.keys()
    assert res.metrics.memory_escalation_count == 0
    for pid, t in enqueued.items():
        until = left.get(pid, close)
        waited = sum(1 for tick in ticks if t < tick <= until)
        assert escalations[pid] == min(waited, CRITICAL - face[pid]), pid
    assert sum(escalations.values()) > 0


def _ample_rooms(n: int) -> list[Physician]:
    specialties = list(Specialty)
    return [Physician(f"R{k:02d}", specialties[k % len(specialties)]) for k in range(n)]


# rule_based is left out: it parks a patient at the shortest exact-specialty
# queue even when that room is busy and another is idle.
@pytest.mark.parametrize("strategy", ["fcfs", "agentic"])
@pytest.mark.parametrize("seed", SEEDS)
def test_ample_capacity_means_no_wait(dataset42, strategy, seed):
    # A desk per patient and 60 rooms: everyone registered before closing is
    # called the moment they join the pool, before any sweep can see them.
    patients, history = dataset42
    config = StrategyConfig(strategy=strategy, registration_desks=len(patients))
    res = run_session(patients, history, config, seed, roster=_ample_rooms(60))
    m = res.metrics
    assert all(v.consult_start == v.registered_at for v in res.served)
    assert m.avg_wait == 0.0 and m.p95_wait == 0.0
    assert m.escalation_count == 0 and res.escalations == []
    faces = collections.Counter(p.face_urgency.value for p in patients)
    assert m.final_composition == {lvl.value: faces[lvl.value] for lvl in UrgencyLevel}
    assert m.served_count + m.unserved_count == len(patients)
    assert math.isclose(m.served_count, len(patients), rel_tol=0.05)


@pytest.mark.parametrize("seed", SEEDS)
def test_one_room_one_desk_fcfs_is_a_single_server_queue(dataset42, seed):
    # One desk and one room: fcfs calls patients in registration order, each
    # as soon as both they and the room are ready (Lindley's recursion).
    patients, history = dataset42
    config = StrategyConfig(strategy="fcfs", registration_desks=1)
    res = run_session(patients, history, config, seed,
                      roster=[Physician("R00", Specialty.GENERAL_MEDICINE)], collect_trace=True)
    served = res.served
    assert len(served) > 40
    registered = list(_enqueue_times(res))
    assert [v.patient_id for v in served] == registered[: len(served)]
    free = -math.inf
    for v in served:
        assert v.consult_start == max(v.registered_at, free)
        free = v.consult_end
    assert served[0].consult_start == served[0].registered_at


def _relabelled(patients, history):
    """The cohort with every patient id's P replaced by Q, order kept."""
    rename = {p.patient_id: "Q" + p.patient_id[1:] for p in patients}
    assert sorted(rename.values()) == [rename[k] for k in sorted(rename)]
    return (
        [dataclasses.replace(p, patient_id=rename[p.patient_id]) for p in patients],
        {rename[k]: dataclasses.replace(r, patient_id=rename[k]) for k, r in history.items()},
    )


@pytest.mark.parametrize("strategy", ["fcfs", "rule_based", "agentic"])
@pytest.mark.parametrize("seed", (1000, 1003))
def test_metrics_do_not_depend_on_labels(dataset42, strategy, seed):
    # Ids only break ties, and renaming P->Q and D->E keeps their order, so
    # every metric is unchanged; per-room counts are compared by position.
    patients, history = dataset42
    roster = default_roster()
    renamed = [dataclasses.replace(p, physician_id="E" + p.physician_id[1:]) for p in roster]
    config = StrategyConfig(strategy=strategy)
    a = run_session(patients, history, config, seed, roster=roster).metrics.to_dict()
    b = run_session(*_relabelled(patients, history), config, seed, roster=renamed).metrics.to_dict()
    rooms_a, rooms_b = a.pop("per_physician_served"), b.pop("per_physician_served")
    assert list(rooms_b) == [p.physician_id for p in renamed]
    assert list(rooms_a.values()) == list(rooms_b.values())
    assert a == b
