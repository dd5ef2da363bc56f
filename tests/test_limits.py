"""Known answers: identities every sample path obeys, and limits where the
outcome of a session is known without simulating it."""

import collections
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opdsim import arrivals, engine
from opdsim.assignment import Physician, default_roster
from opdsim.engine import StrategyConfig, run_session
from opdsim.patients import Specialty, UrgencyLevel
from opdsim.triage import DriftParams
from opdsim.waitqueue import PriorityWeights

SEEDS = (1000, 1001, 1002)
CRITICAL = UrgencyLevel.CRITICAL.rank


class _Cohort(tuple):
    """The canonical cohort under a short name: Hypothesis shows every argument
    of a failing example, and a repr of 368 patients makes it warn instead."""

    def __repr__(self) -> str:
        return "dataset42"


@pytest.fixture(scope="module")
def cohort(dataset42):
    return _Cohort(dataset42)


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


ONE_TERM = {"fcfs": PriorityWeights(urgency=0.0, acuity=0.0, waiting=1.0, load=0.0),
            "rule_based": PriorityWeights(urgency=1.0, acuity=0.0, waiting=0.0, load=0.0)}


@pytest.mark.parametrize("token", sorted(ONE_TERM))
@pytest.mark.parametrize("specialty", [Specialty.GENERAL_MEDICINE, Specialty.SURGERY])
def test_one_term_agentic_arm_serves_as_its_token_arm(dataset42, token, specialty):
    # One room, no drift or memory, the same registration time: with no
    # sweep the wait term stays 0 and the pool keeps enqueue order, as fcfs
    # does; weighted on urgency alone it ranks by presenting class, as
    # rule_based does.  The pooled path then serves exactly as the per-desk one.
    patients, history = dataset42
    room = [Physician("R00", specialty)]
    same = dict(memory_enabled=False, drift_enabled=False,
                registration_mean=engine.REG_MEAN_MANUAL)
    pooled = StrategyConfig(strategy="agentic", weights=ONE_TERM[token], **same)
    for seed in (1000, 1001, 1002):
        a = run_session(patients, history, pooled, seed, roster=room, collect_trace=True)
        b = run_session(patients, history, StrategyConfig(strategy=token, **same), seed,
                        roster=room, collect_trace=True)
        assert a.served == b.served and a.trace == b.trace
        assert a.metrics.to_dict() == b.metrics.to_dict() | {"strategy": "agentic"}


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


def _times_only(shape, c):
    return tuple((t * c, rate) for t, rate in shape)


def _each(values, c):
    return tuple(x * c for x in values)


def _one(x, c):
    return x * c


# Every minute-valued constant outside the config, with how to scale it: the
# arrival shape's breakpoint times (its rates are rescaled to the cohort
# size), the registration and consult floors, the critical-wait thresholds,
# and each level's consult (mean, std).  The config's minute fields are
# scaled in `_scaled_config`.
MINUTE_CONSTANTS = [
    (arrivals, "DEFAULT_SHAPE", _times_only),
    (engine, "REG_MIN", _one),
    (engine, "CONSULT_MIN", _one),
    (engine, "WITHIN_CRITICAL_FAST", _one),
    (engine, "WITHIN_CRITICAL_OK", _one),
    *((level, "consult", _each) for level in UrgencyLevel),
]


def _scaled_config(cfg: StrategyConfig, c: float) -> StrategyConfig:
    return dataclasses.replace(
        cfg,
        registration_mean=cfg.registration_mean * c,
        registration_std=cfg.registration_std * c,
        session_minutes=cfg.session_minutes * c,
        drift=dataclasses.replace(cfg.drift, check_interval=cfg.drift.check_interval * c),
        weights=dataclasses.replace(cfg.weights, wait_horizon=cfg.weights.wait_horizon * c),
    )


def _scaled_run(patients, history, cfg, seed, c):
    """The session with every minute-valued constant multiplied by `c`."""
    with pytest.MonkeyPatch.context() as mp:
        for owner, name, scale in MINUTE_CONSTANTS:
            mp.setattr(owner, name, scale(getattr(owner, name), c))
        arrivals.default_profile.cache_clear()
        try:
            return run_session(patients, history, _scaled_config(cfg, c), seed)
        finally:
            arrivals.default_profile.cache_clear()


def _expected_metrics(m: dict, c: float) -> dict:
    def times(x):
        return None if x is None else x * c

    want = dict(m, throughput_per_hour=m["throughput_per_hour"] / c)
    for key in ("session_minutes", "avg_wait", "median_wait", "p95_wait", "critical_wait_mean"):
        want[key] = times(m[key])
    for key in ("wait_by_face", "wait_by_effective"):
        want[key] = {level: times(w) for level, w in m[key].items()}
    return want


# Multiplying by a power of two is exact in binary floating point, and every
# formula on a session's path commutes with it (the exponential scale, the
# interpolated rate, mean + std * z, the ratios in the priority), so scaling
# every minute by c = 2^k scales every event time by exactly c.
@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    k=st.sampled_from([-2, -1, 1, 2, 3]),  # c = 1 would compare a session with itself
    strategy=st.sampled_from(["fcfs", "rule_based", "agentic", "agentic"]),
    seed=st.integers(1000, 1009),
    desks=st.sampled_from([2, 4, 6]),
    p_history=st.sampled_from([1.0, 0.5]),
    memory=st.booleans(),
)
def test_scaling_every_minute_by_a_power_of_two_scales_every_time(
    cohort, k, strategy, seed, desks, p_history, memory
):
    patients, history = cohort
    c = 2.0**k
    cfg = StrategyConfig(strategy=strategy, registration_desks=desks, memory_enabled=memory,
                         drift=DriftParams(p_history_escalation=p_history))
    base = run_session(patients, history, cfg, seed)
    scaled = _scaled_run(patients, history, cfg, seed, c)
    assert scaled.metrics.to_dict() == _expected_metrics(base.metrics.to_dict(), c)
    assert scaled.served == [
        dataclasses.replace(
            v, registered_at=v.registered_at * c, level_entered_at=v.level_entered_at * c,
            consult_start=v.consult_start * c, consult_end=v.consult_end * c,
        )
        for v in base.served
    ]
    assert scaled.escalations == [dataclasses.replace(e, time=e.time * c) for e in base.escalations]
    assert scaled.overall_waits == [w * c for w in base.overall_waits]
    assert scaled.critical_waits == [w * c for w in base.critical_waits]
    # The scaled constants are restored.
    assert UrgencyLevel.LOW.consult == (5.0, 1.5) and engine.REG_MIN == 0.5
    assert arrivals.default_profile().end_time == 360.0


CLOSING_CONFIGS = {
    "default": {},
    "one_desk": dict(registration_desks=1),
    "eight_desks": dict(registration_desks=8),
    "exact_registration": dict(registration_std=0.0),
    "memory_off": dict(memory_enabled=False),
}


def _before(res, close):
    """What a session did strictly before `close`: its trace rows, its served
    visits (in consult-start order) and its escalations."""
    return (
        [row for row in res.trace if row["time"] < close],
        [v for v in res.served if v.consult_start < close],
        [e for e in res.escalations if e.time < close],
    )


# Nothing a session does before it closes may depend on when it closes
# (local causality; Fujimoto 1990): closed at T' < 360 it replays the
# 360-minute session up to T'.  The short run also sweeps at T' itself, so
# the two are compared strictly before it.
@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    strategy=st.sampled_from(["fcfs", "rule_based", "agentic"]),
    case=st.sampled_from(sorted(CLOSING_CONFIGS)),
    seed=st.integers(1000, 1005),
    close=st.integers(4, 1436).map(lambda quarters: quarters / 4),  # exact in six decimals
)
def test_a_session_closed_early_replays_the_long_one(cohort, strategy, case, seed, close):
    patients, history = cohort
    config = StrategyConfig(strategy=strategy, **CLOSING_CONFIGS[case])
    full = run_session(patients, history, config, seed, collect_trace=True)
    short_config = dataclasses.replace(config, session_minutes=close)
    short = run_session(patients, history, short_config, seed, collect_trace=True)
    before = _before(full, close)
    assert _before(short, close) == before
    assert short.served == before[1]  # no consult starts at or after closing
