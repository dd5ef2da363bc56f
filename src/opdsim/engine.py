"""Single-session discrete-event simulation of the outpatient department.

One run covers a 360-minute morning session: 368 walk-ins arrive along a
morning-peaked intensity, pass through a bank of registration desks, wait in
a shared pool partitioned across six physicians, and are seen in an order
decided by the active queueing strategy.  After closing time no new consults
start; consults already underway finish, everyone else counts as unserved.

Event ordering at equal timestamps is fixed (consult-end, reassessment,
registration-done, arrival, dispatch) so runs are exactly reproducible for a
given seed and configuration.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import functools
import heapq
import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .arrivals import default_profile, sample_arrivals
from .assignment import Physician, PhysicianStatus, assign, default_roster
from .errors import ValidationError, require_number
from .patients import HistoryRecord, N_PATIENTS, Patient, UrgencyLevel
from .patients import seeded_stream as _stream
from .triage import CalibratedTriageBackend, DriftParams
from .waitqueue import (
    AdaptiveQueue,
    CAUSE_DRIFT,
    CAUSE_MEMORY,
    EscalationEvent,
    PriorityWeights,
    QueueEntry,
    priority_score,
)

SESSION_MINUTES = 360.0
N_REGISTRATION_DESKS = 4

# Registration service time (minutes): manual desks vs. assisted intake used
# under the agentic strategy.
REG_MEAN_MANUAL = 5.5
REG_MEAN_ASSISTED = 3.3
REG_STD = 2.0
REG_MIN = 0.5

# Consult durations are `UrgencyLevel.consult` of the level held when called,
# floored here.
CONSULT_MIN = 1.0

# Same-timestamp precedence on the event heap: finish consults first so freed
# desks are visible, then reassess.  `_Session.run` merges in the rest.
_EVT_CONSULT_END = 0
_EVT_REASSESS = 1

# RNG purpose streams within one run's seed.
_STREAM_ARRIVALS = 0
_STREAM_PAIRING = 1
_STREAM_REGISTRATION = 2
_STREAM_CONSULT = 3
_STREAM_BACKEND = 4

WITHIN_CRITICAL_FAST = 10.0
WITHIN_CRITICAL_OK = 15.0


class Strategy(enum.Enum):
    FCFS = "fcfs"
    RULE_BASED = "rule_based"
    AGENTIC = "agentic"


@dataclass
class StrategyConfig:
    """Everything that varies between experimental arms.

    Non-agentic strategies have no reassessment loop, so memory and drift
    flags are forced off for them.
    """

    strategy: Strategy = Strategy.AGENTIC
    memory_enabled: bool = True
    drift_enabled: bool = True
    registration_desks: int = N_REGISTRATION_DESKS
    registration_mean: float | None = None
    registration_std: float = REG_STD
    session_minutes: float = SESSION_MINUTES
    drift: DriftParams = field(default_factory=DriftParams)
    weights: PriorityWeights = field(default_factory=PriorityWeights)

    def __post_init__(self):
        try:
            self.strategy = Strategy(self.strategy)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"unknown strategy {self.strategy!r}") from exc
        if type(self.registration_desks) is not int:
            raise ValidationError(
                f"registration_desks must be an integer, got {self.registration_desks!r}"
            )
        for name in ("memory_enabled", "drift_enabled"):
            if not isinstance(getattr(self, name), bool):
                raise ValidationError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if self.strategy is not Strategy.AGENTIC:
            self.memory_enabled = False
            self.drift_enabled = False
        if self.registration_mean is None:
            self.registration_mean = (
                REG_MEAN_ASSISTED if self.strategy is Strategy.AGENTIC else REG_MEAN_MANUAL
            )
        if self.registration_desks < 1:
            raise ValidationError("need at least one registration desk")
        for name in ("registration_mean", "registration_std", "session_minutes"):
            require_number(name, getattr(self, name))
        # Durations are redrawn until they reach REG_MIN, which takes over 700
        # draws each once REG_MIN lies more than 3 std above the mean.
        far = self.registration_std > 0 and self.registration_mean + 3 * self.registration_std < REG_MIN
        if self.registration_mean <= 0 or self.registration_std < 0 or far:
            raise ValidationError("bad registration time parameters")
        if self.session_minutes <= 0:
            raise ValidationError("session must have positive length")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self) | {"strategy": self.strategy.value}

    @staticmethod
    def from_dict(d: dict) -> "StrategyConfig":
        d = dict(d)
        try:
            if "drift" in d:
                d["drift"] = DriftParams(**d["drift"])
            if "weights" in d:
                d["weights"] = PriorityWeights(**d["weights"])
            return StrategyConfig(**d)
        except TypeError as exc:
            raise ValidationError(f"bad config: {exc}") from exc


@dataclass
class ServedVisit:
    patient_id: str
    face_urgency: UrgencyLevel
    effective_urgency: UrgencyLevel
    required_specialty: str
    physician_id: str
    physician_specialty: str
    registered_at: float
    level_entered_at: float
    consult_start: float
    consult_end: float

    @property
    def wait_from_registration(self) -> float:
        return self.consult_start - self.registered_at

    @property
    def wait_from_level_entry(self) -> float:
        return self.consult_start - self.level_entered_at

    @property
    def specialty_matched(self) -> bool:
        return self.required_specialty == self.physician_specialty


@dataclass
class SessionMetrics:
    strategy: str
    seed: int
    session_minutes: float
    served_count: int
    unserved_count: int
    throughput_per_hour: float
    avg_wait: float | None
    median_wait: float | None
    p95_wait: float | None
    wait_by_face: dict[str, float | None]
    # Waits by the urgency held at consult, measured from the moment the
    # patient entered that level (registration, or the escalation instant).
    wait_by_effective: dict[str, float | None]
    critical_wait_mean: float | None
    pct_critical_within_10: float | None
    pct_critical_within_15: float | None
    critical_served: int
    critical_effective_count: int
    drift_event_count: int
    memory_escalation_count: int
    escalation_count: int
    final_composition: dict[str, int]
    specialty_match_rate: float | None
    per_physician_served: dict[str, int]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class SessionResult:
    metrics: SessionMetrics
    escalations: list[EscalationEvent]
    served: list[ServedVisit]
    # Per visit in consult-start order, the wait from registration, and for
    # visits called at critical only, the wait from entering that level.
    overall_waits: list[float]
    critical_waits: list[float]
    trace: list[dict] = field(default_factory=list)


def _normals(rng: np.random.Generator):
    """Standard normals drawn 256 at a time, equal in value and order to scalar
    draws.  Only service times read these streams, so leftovers are harmless."""
    while True:
        yield from rng.standard_normal(256).tolist()


def _positive_normal(z, mean: float, std: float, floor: float) -> float:
    """Normal draw resampled until it clears the floor (service times).
    `mean + std * z` is what `Generator.normal(mean, std)` makes of the same z."""
    if std == 0:
        return max(mean, floor)
    while True:
        x = mean + std * next(z)
        if x >= floor:
            return x


def registration_stage(arrivals, rng: np.random.Generator, config: StrategyConfig):
    """The registration desks, run ahead of the event loop.  Nothing downstream
    feeds back into them, so they are the multi-server FIFO recursion of Kiefer
    & Wolfowitz (1955) over `arrivals`, (time, patient) in arrival order: each
    patient takes the desk that frees first, at once if it is free at their
    arrival (even after closing), and nobody waits for a desk that frees at or
    after closing.  Registrations start, and draw their durations, in arrival
    order.  Returns the registrations that end before closing, then those that
    end at or after it, too late to join the consult queue, each as (done time,
    patient) in (time, start order); and the number of patients who never
    reached a desk."""
    draw = functools.partial(
        _positive_normal, _normals(rng), config.registration_mean, config.registration_std, REG_MIN
    )
    # heap of the times desks free up; a desk beyond the arrival count is never taken
    free_at = [-math.inf] * min(config.registration_desks, len(arrivals))
    started, unregistered = [], 0
    for t, patient in arrivals:
        if t < free_at[0] and free_at[0] >= config.session_minutes:
            unregistered += 1
            continue
        end = min(max(t, free_at[0]) + draw(), sys.float_info.max)  # an overflow ends after closing
        heapq.heapreplace(free_at, end)
        started.append((end, len(started), patient))
    done = [(end, patient) for end, _, patient in sorted(started)]
    k = sum(end < config.session_minutes for end, _ in done)
    return done[:k], done[k:], unregistered


class _Session:
    def __init__(self, patients, history, config, seed, roster, backend, collect_trace):
        self.patients = patients
        self.history = history
        self.config = config
        self.seed = seed
        self.roster = roster
        self.by_id = {p.physician_id: p for p in roster}
        self.backend = backend
        self.collect_trace = collect_trace

        self.consult_z = _normals(_stream(seed, _STREAM_CONSULT))

        self.strategy = config.strategy.value
        self.pooled = config.strategy is Strategy.AGENTIC
        self.queue = AdaptiveQueue(config.weights, self.pooled)
        self.rr_cursor = 0
        self.longest = 1  # max(1, longest desk queue), for load_of in the pooled arm
        self.idle = len(roster)  # rooms without a consult

        self.heap: list = []  # consult ends and reassessment ticks
        self._seq = itertools.count()
        self.dispatch_due = False

        self.served: list[ServedVisit] = []
        self.escalations: list[EscalationEvent] = []
        self.trace: list[dict] = []

    # -- plumbing ---------------------------------------------------------

    def push(self, time: float, precedence: int, payload=None):
        heapq.heappush(self.heap, (time, precedence, next(self._seq), payload))

    def record(self, time: float, kind: str, patient_id: str = "", physician_id: str = "", detail: str = ""):
        # Called only when collect_trace is on: untraced runs format nothing.
        self.trace.append(
            {
                "time": round(time, 6),
                "event": kind,
                "patient_id": patient_id,
                "physician_id": physician_id,
                "detail": detail,
            }
        )

    def load_of(self, physician_id: str) -> float:
        return self.by_id[physician_id].queue_length / self.longest

    # -- handlers ---------------------------------------------------------

    def on_arrival(self, t: float, patient: Patient):  # traced runs only; see run()
        self.record(t, "arrival", patient.patient_id)

    def on_reg_done(self, t: float, patient: Patient):
        if self.collect_trace:
            self.record(t, "reg_done", patient.patient_id)
        urgency, acuity = self.backend.triage_face_value(patient)
        visible = patient.has_history and self.config.memory_enabled  # where the switch acts
        physician = assign(patient, self.roster, self.strategy, self.rr_cursor)
        self.rr_cursor += 1  # only round-robin reads it
        physician.queue_length += 1
        entry = QueueEntry(  # positional, in field order: the record is the visible one
            patient, t, urgency, urgency, acuity, physician.physician_id,
            self.history.get(patient.patient_id) if visible else None,
        )
        # The pool serves the highest priority first, so the priority is the
        # strategy's rank: the composite score, the presenting class, or (for
        # fcfs) nothing, which leaves enqueue order.  Only agentic reads loads.
        if self.pooled:
            self.longest = max(self.longest, physician.queue_length)
            entry.priority = priority_score(
                entry, t, self.load_of(physician.physician_id), self.config.weights
            )
        elif self.config.strategy is Strategy.RULE_BASED:
            entry.priority = float(urgency.rank)
        self.queue.enqueue(entry)
        if self.collect_trace:
            self.record(t, "enqueue", patient.patient_id, physician.physician_id)
        if (self.idle if self.pooled else physician.status is PhysicianStatus.IDLE):
            self.dispatch_due = True  # a room can take this patient now

    def on_reassess(self, t: float, desk_events_ahead: bool):
        events = self.queue.reassess_tick(t, self.backend, self.load_of)
        self.escalations += events
        for ev in events if self.collect_trace else ():  # no details to format otherwise
            self.record(t, "escalation", ev.patient_id, detail=f"{ev.from_level.value}->{ev.to_level.value}:{ev.cause}")
        # With nothing else pending no patient can join the pool, so later
        # ticks would only sweep an empty one.
        nxt = t + self.config.drift.check_interval
        pending = self.heap or self.dispatch_due or desk_events_ahead
        if pending and nxt <= self.config.session_minutes:
            self.push(nxt, _EVT_REASSESS)

    def on_dispatch(self, t: float):
        # Asked for only before closing, when a room can start a consult.
        # FCFS and rule-based patients wait at the desk they were assigned
        # to (token counters / specialty rooms).  The agentic orchestrator
        # instead hands whichever room frees up the highest-priority patient
        # in the shared pool; its assignment feeds the load-score terms only.
        pooled, queue = self.pooled, self.queue
        for physician in self.roster:
            if physician.status is not PhysicianStatus.IDLE:
                continue
            if not (len(queue) if pooled else physician.queue_length):
                continue
            entry = queue.dequeue_next(None if pooled else physician.physician_id)
            desk = self.by_id[entry.assigned_physician]
            desk.queue_length -= 1
            if pooled and desk.queue_length + 1 == self.longest:  # a longest desk shrank
                self.longest = max(1, max([p.queue_length for p in self.roster]))
            self._start_consult(t, physician, entry)

    def _start_consult(self, t: float, physician: Physician, entry: QueueEntry):
        physician.status = PhysicianStatus.BUSY
        self.idle -= 1
        level, patient = entry.current_urgency, entry.patient
        dur = _positive_normal(self.consult_z, *level.consult, CONSULT_MIN)
        # In field order; an enum's `_value_` is its `value`, read without the property.
        self.served.append(ServedVisit(
            patient.patient_id, entry.face_urgency, level, patient.required_specialty._value_,
            physician.physician_id, physician.specialty._value_,
            entry.enqueue_time, entry.level_entry_time, t, t + dur,
        ))
        if self.collect_trace:
            self.record(t, "consult_start", patient.patient_id, physician.physician_id, level.value)
        self.push(t + dur, _EVT_CONSULT_END, physician)

    def on_consult_end(self, t: float, physician: Physician):
        physician.status = PhysicianStatus.IDLE
        self.idle += 1
        if self.collect_trace:
            self.record(t, "consult_end", physician_id=physician.physician_id)
        waiting = len(self.queue) if self.pooled else physician.queue_length
        if waiting and t < self.config.session_minutes:
            self.dispatch_due = True  # someone can take the freed room

    # -- main loop --------------------------------------------------------

    def run(self):
        n = len(self.patients)
        times = sample_arrivals(default_profile(), _stream(self.seed, _STREAM_ARRIVALS))
        order = _stream(self.seed, _STREAM_PAIRING).permutation(n)
        arrivals = [(t, self.patients[i]) for t, i in zip(times.tolist(), order.tolist())]
        regs, late, self.unregistered = registration_stage(
            arrivals, _stream(self.seed, _STREAM_REGISTRATION), self.config
        )
        self.late_registrations = len(late)

        # The reassessment loop exists only when drift monitoring is on;
        # memory escalation rides inside it, so memory alone (drift off)
        # produces no escalations at all.  Each tick schedules the next.
        first = self.config.drift.check_interval
        if self.config.drift_enabled and first <= self.config.session_minutes:
            self.push(first, _EVT_REASSESS)

        # Merge three time-ordered sources; at equal t the heap's events come
        # first, then registrations done, then arrivals.  Dispatch runs once,
        # after the last event at an instant that asked for it.  Arrivals only
        # write trace rows, so untraced runs skip them; `t_reg` alone says
        # whether a patient can still join the pool.
        heap = self.heap
        regs = [(math.inf, None), *reversed(regs)]  # both taken from the end
        arrivals = [(math.inf, None), *(reversed(arrivals) if self.collect_trace else ())]
        t = -math.inf
        while True:
            t_reg, t_arr = regs[-1][0], arrivals[-1][0]
            t_heap = heap[0][0] if heap else math.inf
            if self.dispatch_due and t < t_heap and t < t_reg and t < t_arr:
                self.dispatch_due = False
                self.on_dispatch(t)
            elif t_heap <= t_reg and t_heap <= t_arr:
                if t_heap == math.inf:
                    break
                t, kind, _seq, payload = heapq.heappop(heap)
                if kind == _EVT_CONSULT_END:
                    self.on_consult_end(t, payload)
                else:
                    self.on_reassess(t, t_reg < math.inf)
            elif t_reg <= t_arr:
                t, patient = regs.pop()
                self.on_reg_done(t, patient)
            else:
                t, patient = arrivals.pop()
                self.on_arrival(t, patient)

        return self._finish()

    # -- metrics ----------------------------------------------------------

    def _finish(self) -> SessionResult:
        cfg = self.config
        served = self.served
        n = len(self.patients)
        # One row per visit, in consult-start order.  Each per-level figure
        # takes its visits by mask, so np.mean sums them in that order.
        rows = [
            (v.patient_id, v.physician_id, v.consult_start - v.registered_at,
             v.consult_start - v.level_entered_at, v.face_urgency.rank,
             v.effective_urgency.rank, v.required_specialty == v.physician_specialty)
            for v in served
        ]
        ids, physicians, reg_waits, level_waits, face, effective, matched = list(zip(*rows)) or [()] * 7
        waiting = self.queue.entries()
        # Every patient ends served, pooled, unregistered, or registered
        # after closing.
        accounted = len(served) + len(waiting) + self.unregistered + self.late_registrations
        if accounted != n or len(set(ids)) != len(served):
            raise ValidationError(f"patient accounting is inconsistent: {accounted} of {n}")
        # At close every room is idle, each desk's queue length counts its waiting
        # entries (in the token arms' per-desk index too), and `longest` is current.
        queues = collections.Counter(e.assigned_physician for e in waiting)
        indexed = queues if self.pooled else {d: len(es) for d, es in self.queue.by_desk().items()}
        lengths = [p.queue_length for p in self.roster]
        if self.idle != len(lengths) or (self.pooled and self.longest != max(1, *lengths)) or any(
            p.status is not PhysicianStatus.IDLE
            or not p.queue_length == queues[p.physician_id] == indexed.get(p.physician_id, 0)
            for p in self.roster
        ):
            raise ValidationError("patient accounting is inconsistent: rooms or queues at close")

        # Each patient's final rank: at consult if served, current if still
        # waiting, else as presented.
        final = {p.patient_id: p.face_urgency.rank for p in self.patients}
        final.update(zip(ids, effective))
        final.update((e.patient_id, e.current_urgency.rank) for e in waiting)
        counts = np.bincount(list(final.values()), minlength=len(UrgencyLevel)).tolist()
        if sum(counts) != n:
            raise ValidationError("composition does not cover the cohort")
        composition = {lvl.value: counts[lvl.rank] for lvl in UrgencyLevel}

        reg_waits, level_waits = np.array(reg_waits, float), np.array(level_waits, float)
        face, effective = np.array(face, np.intp), np.array(effective, np.intp)
        crit_waits = level_waits[effective == UrgencyLevel.CRITICAL.rank]

        def _mean(x) -> float | None:
            return float(np.mean(x)) if len(x) else None

        causes = collections.Counter(e.cause for e in self.escalations)
        per_physician = collections.Counter(physicians)
        metrics = SessionMetrics(
            strategy=cfg.strategy.value,
            seed=self.seed,
            session_minutes=cfg.session_minutes,
            served_count=len(served),
            unserved_count=n - len(served),
            throughput_per_hour=len(served) / (cfg.session_minutes / 60.0) if served else 0.0,
            avg_wait=_mean(reg_waits),
            median_wait=float(np.median(reg_waits)) if len(reg_waits) else None,
            p95_wait=float(np.percentile(reg_waits, 95)) if len(reg_waits) else None,
            wait_by_face={lvl.value: _mean(reg_waits[face == lvl.rank]) for lvl in UrgencyLevel},
            wait_by_effective={
                lvl.value: _mean(level_waits[effective == lvl.rank]) for lvl in UrgencyLevel
            },
            critical_wait_mean=_mean(crit_waits),
            # A percentage is the mean of 100s and 0s: exactly 100.0 * k / n.
            pct_critical_within_10=_mean(100.0 * (crit_waits < WITHIN_CRITICAL_FAST)),
            pct_critical_within_15=_mean(100.0 * (crit_waits < WITHIN_CRITICAL_OK)),
            critical_served=len(crit_waits),
            critical_effective_count=composition[UrgencyLevel.CRITICAL.value],
            drift_event_count=causes[CAUSE_DRIFT],
            memory_escalation_count=causes[CAUSE_MEMORY],
            escalation_count=causes[CAUSE_DRIFT] + causes[CAUSE_MEMORY],
            final_composition=composition,
            specialty_match_rate=_mean(matched),
            per_physician_served={pid: per_physician[pid] for pid in self.by_id},
        )
        return SessionResult(
            metrics=metrics, escalations=self.escalations, served=served,
            overall_waits=reg_waits.tolist(), critical_waits=crit_waits.tolist(), trace=self.trace,
        )


def run_session(
    patients: list[Patient],
    history: dict[str, HistoryRecord],
    config: StrategyConfig,
    seed: int,
    roster: list[Physician] | None = None,
    collect_trace: bool = False,
) -> SessionResult:
    """Simulate one session and return its metrics, escalation log, and
    served-visit detail.  Deterministic in (config, seed, dataset, roster)."""
    if len(patients) != N_PATIENTS:
        raise ValidationError(f"expected the {N_PATIENTS}-patient cohort, got {len(patients)}")
    roster = [
        dataclasses.replace(p, status=PhysicianStatus.IDLE, queue_length=0)
        for p in (default_roster() if roster is None else roster)
    ]
    if not roster:
        raise ValidationError("empty roster")
    if len({p.physician_id for p in roster}) != len(roster):
        raise ValidationError("physician ids must be unique")
    backend = CalibratedTriageBackend(_stream(seed, _STREAM_BACKEND), config.drift)
    return _Session(patients, history, config, seed, roster, backend, collect_trace).run()


def run_experiment(
    patients,
    history,
    config: StrategyConfig,
    n_runs: int,
    base_seed: int,
    **kwargs,
) -> list[SessionResult]:
    """`n_runs` independent sessions seeded base_seed, base_seed+1, ..."""
    if n_runs < 1:
        raise ValidationError("n_runs must be at least 1")
    return [run_session(patients, history, config, base_seed + i, **kwargs) for i in range(n_runs)]


ABLATION_VARIANTS = {
    "full": dict(memory_enabled=True, drift_enabled=True),
    "no_memory": dict(memory_enabled=False, drift_enabled=True),
    "no_drift": dict(memory_enabled=True, drift_enabled=False),
    "neither": dict(memory_enabled=False, drift_enabled=False),
}
