"""Single-session discrete-event simulation of the outpatient department.

One run covers a 360-minute morning session: 368 walk-ins arrive along a
morning-peaked intensity, pass through a bank of registration desks, wait in
a shared pool partitioned across six physicians, and are seen in an order
decided by the active queueing strategy.  After closing time no new consults
start; consults already underway finish, everyone else counts as unserved.

Event ordering at equal timestamps is fixed (consult-end, reassessment,
registration-done, dispatch) so runs are exactly reproducible for a given
seed and configuration.  Consult ends at one instant commute, so they pop in
room order.  A trace is built after the loop, in the same order of kinds.
"""

from __future__ import annotations

import bisect
import collections
import dataclasses
import enum
import heapq
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .arrivals import default_profile, sample_arrivals
from .assignment import _BUSY, _IDLE, Physician, assign, default_roster
from .errors import ValidationError, require_number
from .patients import _LEVELS, HistoryRecord, N_PATIENTS, Patient, UrgencyLevel
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

# The event heap holds (time, room position) consult ends and (time, _TICK)
# reassessment ticks, so at one instant consult ends pop first, in room order.
_TICK = math.inf

# RNG purpose streams within one run's seed.
_STREAM_ARRIVALS = 0
_STREAM_PAIRING = 1
_STREAM_REGISTRATION = 2
_STREAM_CONSULT = 3
_STREAM_BACKEND = 4

WITHIN_CRITICAL_FAST = 10.0
WITHIN_CRITICAL_OK = 15.0

# Bound once: on CPython 3.11 an enum member read through its class is slow.
_CRITICAL_RANK = UrgencyLevel.CRITICAL.rank


class Strategy(enum.Enum):
    FCFS = "fcfs"
    RULE_BASED = "rule_based"
    AGENTIC = "agentic"


@dataclass(frozen=True)
class StrategyConfig:
    """Everything that varies between experimental arms; immutable once checked.

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
        # The strategy, the token arms' flags and the default registration mean
        # are resolved before validation, past the frozen dataclass's __setattr__.
        try:
            object.__setattr__(self, "strategy", Strategy(self.strategy))
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
            object.__setattr__(self, "memory_enabled", False)
            object.__setattr__(self, "drift_enabled", False)
        if self.registration_mean is None:
            mean = REG_MEAN_ASSISTED if self.strategy is Strategy.AGENTIC else REG_MEAN_MANUAL
            object.__setattr__(self, "registration_mean", mean)
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


@dataclass(slots=True)
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
        """`dataclasses.asdict`'s dict without its recursive deep copy: the
        fields in order, each nested dict copied."""
        return {k: dict(v) if type(v) is dict else v for k, v in vars(self).items()}


# The columns of a trace row, in order; the trace CSV's header.
TRACE_FIELDS = ("time", "event", "patient_id", "physician_id", "detail")


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
    `mean + std * z` is what `Generator.normal(mean, std)` makes of the same z;
    with no spread it is `max(mean, floor)`, read without a draw.  Python floats
    overflow to inf without a warning."""
    if std == 0:
        return max(mean, floor)
    while True:
        x = mean + std * next(z)
        if x >= floor:
            return x


def _median_p95(x: np.ndarray) -> tuple[float, float]:
    """`np.median(x)` and `np.percentile(x, 95)` of a non-empty float array, to
    the bit but for a zero's sign, from one sort; NumPy's pair imports `numpy.ma`
    on first use.  The median is the middle element or `np.mean`'s `(a + b) / 2`.
    p95 is the linear method: index `(n - 1) * 0.95`, then `_lerp`'s two
    branches.  NaN sorts last and is then both answers, as in NumPy."""
    s = np.sort(x).tolist()
    n, last = len(s), s[-1]
    if last != last:
        return last, last
    h = n // 2
    median = s[h] if n % 2 else (s[h - 1] + s[h]) / 2
    v = (n - 1) * 0.95
    if v >= n - 1:
        return median, last
    i = int(v)
    g, a, b = v - i, s[i], s[i + 1]
    return median, b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


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
    z, mean, std = _normals(rng), config.registration_mean, config.registration_std
    close, big, replace = config.session_minutes, sys.float_info.max, heapq.heapreplace
    # heap of the times desks free up; a desk beyond the arrival count is never taken
    free_at = [-math.inf] * min(config.registration_desks, len(arrivals))
    started, unregistered = [], 0
    for t, patient in arrivals:
        free = free_at[0]
        if t < free:
            if free >= close:
                unregistered += 1
                continue
            t = free
        end = t + _positive_normal(z, mean, std, REG_MIN)
        if end > big:  # an overflow ends after closing
            end = big
        replace(free_at, end)
        started.append((end, len(started), patient))
    started.sort()
    k = bisect.bisect_left(started, (close,))  # (close,) sorts before (close, i, patient)
    done = [(end, patient) for end, _, patient in started]
    return done[:k], done[k:], unregistered


class _Session:
    def __init__(self, patients, history, config, seed, roster, backend):
        self.patients = patients
        self.history = history
        self.config = config
        self.seed = seed
        self.roster = roster
        self.position = {p.physician_id: i for i, p in enumerate(roster)}
        self.backend = backend

        self.consult_z = _normals(_stream(seed, _STREAM_CONSULT))

        self.strategy = config.strategy._value_
        self.pooled = config.strategy is Strategy.AGENTIC
        self.rule_based = config.strategy is Strategy.RULE_BASED
        self.queue = AdaptiveQueue(config.weights, self.pooled)
        self.longest = 1  # max(1, longest desk queue), for loads and assignment in the pooled arm
        self.idle = len(roster)  # rooms without a consult

        self.heap: list = []  # consult ends and reassessment ticks
        self.dispatch_due = False
        self.ready: set[int] = set()  # token arms: the rooms that can start a consult now

        self.served: list[ServedVisit] = []
        self.escalations: list[EscalationEvent] = []
        self.desks: list[str] = []  # each registrant's assigned desk, in registration order

    # -- plumbing ---------------------------------------------------------

    def load_of(self, physician_id: str) -> float:
        return self.roster[self.position[physician_id]].queue_length / self.longest

    # -- handlers ---------------------------------------------------------

    def on_arrival(self, t: float, patient: Patient) -> tuple:  # one trace row; see _trace
        return (t, "arrival", patient.patient_id, "", "")

    def on_reg_done(self, t: float, patient: Patient):
        urgency, acuity = self.backend.triage_face_value(patient)
        visible = patient.has_history and self.config.memory_enabled  # where the switch acts
        physician = assign(patient, self.roster, self.strategy, len(self.desks), self.longest)
        physician.queue_length += 1
        self.desks.append(physician.physician_id)
        entry = QueueEntry(  # positional, in field order: the record is the visible one
            patient, t, urgency, urgency, acuity, physician.physician_id,
            self.history.get(patient.patient_id) if visible else None,
        )
        # The pool serves the highest priority first, so the priority is the
        # strategy's rank: the composite score, the presenting class, or (for
        # fcfs) nothing, which leaves enqueue order.  Only agentic reads loads.
        if self.pooled:  # the load is load_of's, read in place
            if physician.queue_length > self.longest:
                self.longest = physician.queue_length
            entry.priority = priority_score(
                entry, t, physician.queue_length / self.longest, self.config.weights
            )
        elif self.rule_based:
            entry.priority = float(urgency.rank)
        self.queue.enqueue(entry)
        if (self.idle if self.pooled else physician.status is _IDLE):
            self.dispatch_due = True  # a room can take this patient now
            if not self.pooled:
                self.ready.add(self.position[physician.physician_id])

    def on_reassess(self, t: float, desk_events_ahead: bool):
        events = self.queue.reassess_tick(t, self.backend, self.load_of)
        self.escalations += events
        # With nothing else pending no patient can join the pool, so later
        # ticks would only sweep an empty one.
        nxt = t + self.config.drift.check_interval
        pending = self.heap or self.dispatch_due or desk_events_ahead
        if pending and nxt <= self.config.session_minutes:
            heapq.heappush(self.heap, (nxt, _TICK))

    def on_dispatch(self, t: float):
        # Asked for only before closing, when a room can start a consult.
        # FCFS and rule-based patients wait at the desk they were assigned
        # to (token counters / specialty rooms).  The agentic orchestrator
        # instead hands whichever room frees up the highest-priority patient
        # in the shared pool; its assignment feeds the load-score terms only.
        # A token room is ready exactly when its setter recorded it; the rooms
        # start in roster order, since each draws its consult duration in turn.
        queue, roster = self.queue, self.roster
        if not self.pooled:
            ready, self.ready = sorted(self.ready), set()
            for i in ready:
                physician = roster[i]
                physician.queue_length -= 1
                self._start_consult(t, i, queue.dequeue_next(physician.physician_id))
            return
        for i, physician in enumerate(roster):
            if physician.status is not _IDLE or not len(queue):
                continue
            entry = queue.dequeue_next()
            desk = roster[self.position[entry.assigned_physician]]
            desk.queue_length -= 1
            if desk.queue_length + 1 == self.longest:  # a longest desk shrank
                self.longest = max(1, max([p.queue_length for p in roster]))
            self._start_consult(t, i, entry)

    def _start_consult(self, t: float, room: int, entry: QueueEntry):
        physician = self.roster[room]
        physician.status = _BUSY
        self.idle -= 1
        level, patient = entry.current_urgency, entry.patient
        dur = _positive_normal(self.consult_z, *level.consult, CONSULT_MIN)
        # In field order.
        self.served.append(ServedVisit(
            patient.patient_id, entry.face_urgency, level, patient.required_specialty._value_,
            physician.physician_id, physician.specialty._value_,
            entry.enqueue_time, entry.level_entry_time, t, t + dur,
        ))
        heapq.heappush(self.heap, (t + dur, room))

    def on_consult_end(self, t: float, room: int):
        physician = self.roster[room]
        physician.status = _IDLE
        self.idle += 1
        waiting = len(self.queue) if self.pooled else physician.queue_length
        if waiting and t < self.config.session_minutes:
            self.dispatch_due = True  # someone can take the freed room
            if not self.pooled:
                self.ready.add(room)

    # -- main loop --------------------------------------------------------

    def run(self, collect_trace: bool):
        times = sample_arrivals(default_profile(), _stream(self.seed, _STREAM_ARRIVALS))
        order = _stream(self.seed, _STREAM_PAIRING).permutation(len(self.patients))
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
            heapq.heappush(self.heap, (first, _TICK))

        # Merge two time-ordered sources; at equal t the heap's events come first,
        # then registrations done.  Dispatch runs once, after the last event at an
        # instant that asked for it.  `t_reg` says whether a patient can still join.
        heap = self.heap
        pending = [(math.inf, None), *reversed(regs)]  # taken from the end
        t = -math.inf
        while True:
            t_reg = pending[-1][0]
            t_heap = heap[0][0] if heap else math.inf
            if self.dispatch_due and t < t_heap and t < t_reg:
                self.dispatch_due = False
                self.on_dispatch(t)
            elif t_heap <= t_reg:
                if t_heap == math.inf:
                    break
                t, code = heapq.heappop(heap)
                if code == _TICK:
                    self.on_reassess(t, t_reg < math.inf)
                else:
                    self.on_consult_end(t, code)
            else:
                t, patient = pending.pop()
                self.on_reg_done(t, patient)

        return self._finish(self._trace(arrivals, regs) if collect_trace else [])

    def _trace(self, arrivals, regs) -> list[dict]:
        """Trace rows from what the loop left: each source in its own order, and the
        sources in the loop's order at one instant (consult ends, escalations, reg_done
        with its enqueue, arrivals, consult starts), so a stable sort by time replays it."""
        rows = [(v.consult_end, "consult_end", "", v.physician_id, "") for v in self.served]
        rows += [
            (e.time, "escalation", e.patient_id, "", f"{e.from_level._value_}->{e.to_level._value_}:{e.cause}")
            for e in self.escalations
        ]
        for (t, patient), desk in zip(regs, self.desks, strict=True):
            rows += [(t, "reg_done", patient.patient_id, "", ""), (t, "enqueue", patient.patient_id, desk, "")]
        rows += [self.on_arrival(t, patient) for t, patient in arrivals]
        rows += [
            (v.consult_start, "consult_start", v.patient_id, v.physician_id, v.effective_urgency._value_)
            for v in self.served
        ]
        rows.sort(key=lambda row: row[0])  # stable: equal times keep the order above
        return [dict(zip(TRACE_FIELDS, (round(row[0], 6), *row[1:]))) for row in rows]

    # -- metrics ----------------------------------------------------------

    def _finish(self, trace: list[dict]) -> SessionResult:
        cfg = self.config
        served = self.served
        n = len(self.patients)
        # One row per visit, in consult-start order.  Each per-level figure
        # takes its visits by mask, so `_mean` sums them in that order.
        rows = [
            (v.patient_id, v.physician_id, v.consult_start, v.consult_start - v.registered_at,
             v.consult_start - v.level_entered_at, v.face_urgency.rank,
             v.effective_urgency.rank, v.required_specialty == v.physician_specialty)
            for v in served
        ]
        ids, physicians, starts, reg_waits, level_waits, face, effective, matched = list(zip(*rows)) or [()] * 8
        waiting = self.queue.entries()
        # Every patient ends served, pooled, unregistered, or registered
        # after closing.
        accounted = len(served) + len(waiting) + self.unregistered + self.late_registrations
        if accounted != n or len(set(ids)) != len(served):
            raise ValidationError(f"patient accounting is inconsistent: {accounted} of {n}")
        if served and max(starts) >= cfg.session_minutes:
            raise ValidationError("patient accounting is inconsistent: a consult started at closing")
        # At close every room is idle, each desk's queue length counts its waiting
        # entries (in the token arms' per-desk index too), and `longest` is current.
        queues = collections.Counter(e.assigned_physician for e in waiting)
        indexed = queues if self.pooled else {d: len(es) for d, es in self.queue.by_desk().items()}
        lengths = [p.queue_length for p in self.roster]
        if self.idle != len(lengths) or (self.pooled and self.longest != max(1, *lengths)) or any(
            p.status is not _IDLE
            or not p.queue_length == queues[p.physician_id] == indexed.get(p.physician_id, 0)
            for p in self.roster
        ):
            raise ValidationError("patient accounting is inconsistent: rooms or queues at close")

        # Each patient's final rank: at consult if served, current if still
        # waiting, else as presented.
        final = {p.patient_id: p.face_urgency.rank for p in self.patients}
        final.update(zip(ids, effective))
        final.update((e.patient.patient_id, e.current_urgency.rank) for e in waiting)
        counts = np.bincount(list(final.values()), minlength=len(_LEVELS)).tolist()
        if sum(counts) != n:
            raise ValidationError("composition does not cover the cohort")
        composition = {lvl._value_: counts[lvl.rank] for lvl in _LEVELS}

        reg_waits, level_waits = np.array(reg_waits, float), np.array(level_waits, float)
        face, effective = np.array(face, np.intp), np.array(effective, np.intp)
        crit_waits = level_waits[effective == _CRITICAL_RANK]
        median, p95 = _median_p95(reg_waits) if len(reg_waits) else (None, None)

        def _mean(x) -> float | None:  # np.mean's bits: add.reduce, then one division
            return float(x.sum() / len(x)) if len(x) else None

        causes = collections.Counter(e.cause for e in self.escalations)
        per_physician = collections.Counter(physicians)
        metrics = SessionMetrics(
            strategy=cfg.strategy._value_,
            seed=self.seed,
            session_minutes=cfg.session_minutes,
            served_count=len(served),
            unserved_count=n - len(served),
            throughput_per_hour=len(served) / (cfg.session_minutes / 60.0) if served else 0.0,
            avg_wait=_mean(reg_waits),
            median_wait=median,
            p95_wait=p95,
            wait_by_face={lvl._value_: _mean(reg_waits[face == lvl.rank]) for lvl in _LEVELS},
            wait_by_effective={lvl._value_: _mean(level_waits[effective == lvl.rank]) for lvl in _LEVELS},
            critical_wait_mean=_mean(crit_waits),
            # A percentage is the mean of 100s and 0s: exactly 100.0 * k / n.
            pct_critical_within_10=_mean(100.0 * (crit_waits < WITHIN_CRITICAL_FAST)),
            pct_critical_within_15=_mean(100.0 * (crit_waits < WITHIN_CRITICAL_OK)),
            critical_served=len(crit_waits),
            critical_effective_count=counts[_CRITICAL_RANK],
            drift_event_count=causes[CAUSE_DRIFT],
            memory_escalation_count=causes[CAUSE_MEMORY],
            escalation_count=causes[CAUSE_DRIFT] + causes[CAUSE_MEMORY],
            final_composition=composition,
            specialty_match_rate=_mean(np.array(matched, bool)),
            per_physician_served={pid: per_physician[pid] for pid in self.position},
        )
        return SessionResult(
            metrics=metrics, escalations=self.escalations, served=served,
            overall_waits=reg_waits.tolist(), critical_waits=crit_waits.tolist(), trace=trace,
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
    if len({p.patient_id for p in patients}) != len(patients):
        raise ValidationError("patient ids must be unique")
    roster = [Physician(p.physician_id, p.specialty) for p in (default_roster() if roster is None else roster)]
    if not roster:
        raise ValidationError("empty roster")
    if len({p.physician_id for p in roster}) != len(roster):
        raise ValidationError("physician ids must be unique")
    backend = CalibratedTriageBackend(_stream(seed, _STREAM_BACKEND), config.drift)
    return _Session(patients, history, config, seed, roster, backend).run(collect_trace)


def run_experiment(
    patients,
    history,
    config: StrategyConfig,
    n_runs: int,
    base_seed: int,
) -> list[SessionResult]:
    """`n_runs` independent sessions seeded base_seed, base_seed+1, ..."""
    if n_runs < 1:
        raise ValidationError("n_runs must be at least 1")
    return [run_session(patients, history, config, base_seed + i) for i in range(n_runs)]


ABLATION_VARIANTS = {
    "full": dict(memory_enabled=True, drift_enabled=True),
    "no_memory": dict(memory_enabled=False, drift_enabled=True),
    "no_drift": dict(memory_enabled=True, drift_enabled=False),
    "neither": dict(memory_enabled=False, drift_enabled=False),
}
