"""The post-registration waiting pool and its reassessment loop.

Entries carry both the grade a patient presented with (face urgency) and the
grade they currently hold (which escalation can raise, never lower).  Periodic
reassessment sweeps the pool: memory-driven escalation is checked first for
patients with a visible history record, then stochastic deterioration; a
patient escalated by memory is not also drifted on the same sweep.

Dequeue order is one rule for every strategy: highest `priority` first, then
earliest enqueue, then patient id.  The engine sets `priority` to the rank
its strategy wants.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, require_number
from .patients import ESCALATION_ACUITY, HistoryRecord, Patient, UrgencyLevel
from .triage import CalibratedTriageBackend

W_URGENCY = 0.45
W_ACUITY = 0.20
W_WAIT = 0.20
W_LOAD = 0.15

WAIT_HORIZON_MINUTES = 120.0
WAIT_TERM_CAP = 0.3

CAUSE_DRIFT = "drift"
CAUSE_MEMORY = "memory"

_U_SCORE = np.array([lvl.u_score for lvl in UrgencyLevel])
_CRITICAL = UrgencyLevel.CRITICAL.rank
# One pool row; see AdaptiveQueue.
_ROW = np.dtype(
    [
        ("rank", np.intp),
        ("acuity", np.float64),
        ("enqueued", np.float64),
        ("desk", np.intp),
        ("priority", np.float64),
        ("memory", np.bool_),
    ],
    align=True,
)


@dataclass(frozen=True)
class PriorityWeights:
    urgency: float = W_URGENCY
    acuity: float = W_ACUITY
    waiting: float = W_WAIT
    load: float = W_LOAD
    wait_horizon: float = WAIT_HORIZON_MINUTES
    wait_cap: float = WAIT_TERM_CAP

    def __post_init__(self):
        for f in dataclasses.fields(self):
            require_number(f.name, getattr(self, f.name))
        if min(self.urgency, self.acuity, self.waiting, self.load, self.wait_cap) < 0:
            raise ValidationError("priority weights and wait_cap must be non-negative")
        total = self.urgency + self.acuity + self.waiting + self.load
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"priority weights must sum to 1, got {total}")
        if self.wait_horizon <= 0:
            raise ValidationError("wait_horizon must be positive")


@dataclass
class EscalationEvent:
    time: float
    patient_id: str
    from_level: UrgencyLevel
    to_level: UrgencyLevel
    cause: str  # CAUSE_DRIFT or CAUSE_MEMORY
    reason: str = ""

    def to_row(self) -> dict:
        return {
            "time": round(self.time, 4),
            "patient_id": self.patient_id,
            "from_level": self.from_level.value,
            "to_level": self.to_level.value,
            "cause": self.cause,
            "reason": self.reason,
        }


@dataclass
class QueueEntry:
    patient: Patient
    enqueue_time: float
    face_urgency: UrgencyLevel
    current_urgency: UrgencyLevel
    current_acuity: int
    assigned_physician: str | None = None
    memory_available: bool = False
    # Dequeue rank, highest first.
    priority: float = 0.0
    # When the patient entered their current urgency level; equals
    # enqueue_time until an escalation bumps them.
    level_entry_time: float = field(default=0.0)

    def __post_init__(self):
        if self.level_entry_time == 0.0:
            self.level_entry_time = self.enqueue_time

    @property
    def patient_id(self) -> str:
        return self.patient.patient_id


def priority_score(
    entry: QueueEntry,
    now: float,
    physician_load: float,
    weights: PriorityWeights | None = None,
) -> float:
    """Composite dequeue priority in [0, 1].

    urgency maps to {0.25, 0.5, 0.75, 1.0}; acuity is scaled to [0, 1]; the
    waiting term saturates at `wait_cap` once the patient has waited a full
    horizon; the load term is `1 - load`, so it favours patients parked at
    the least-loaded desks.
    """
    if now < entry.enqueue_time:
        raise ValidationError(
            f"priority evaluated at t={now} before enqueue at t={entry.enqueue_time}"
        )
    w = weights or PriorityWeights()
    u = entry.current_urgency.u_score
    a = entry.current_acuity / 10.0
    wait_term = w.wait_cap * min((now - entry.enqueue_time) / w.wait_horizon, 1.0)
    load_term = 1.0 - min(max(physician_load, 0.0), 1.0)
    return w.urgency * u + w.acuity * a + w.waiting * wait_term + w.load * load_term


def _escalate(
    entry: QueueEntry, now: float, target: UrgencyLevel, cause: str, reason: str
) -> EscalationEvent:
    if target.rank <= entry.current_urgency.rank:
        raise ValidationError(
            f"escalation must raise urgency ({entry.current_urgency} -> {target})"
        )
    event = EscalationEvent(
        time=now,
        patient_id=entry.patient_id,
        from_level=entry.current_urgency,
        to_level=target,
        cause=cause,
        reason=reason,
    )
    entry.current_urgency = target
    entry.current_acuity = ESCALATION_ACUITY[target]
    entry.level_entry_time = now
    return event


class AdaptiveQueue:
    """Waiting pool keyed by patient id, insertion-ordered.

    Sweeps and pooled dequeues work on columns: one row per entry, in pool
    order, holding its rank, acuity, enqueue time, desk code, memory flag
    and priority.  The columns are built at the first sweep or pooled
    dequeue and kept in step from then on.  A per-desk dequeue drops them,
    to be rebuilt at the next use, so the token arms, which only dequeue per
    desk, never build them.  An entry's level, acuity and `priority` are
    read when its row is written; after that only sweeps change them.
    """

    def __init__(self, weights: PriorityWeights | None = None):
        self.weights = weights or PriorityWeights()
        self._entries: dict[str, QueueEntry] = {}
        self._rows: list[QueueEntry] | None = None  # None: no columns
        self._cols = np.empty(0, _ROW)
        self._desk_codes: dict[str | None, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[QueueEntry]:
        return list(self._entries.values())

    def enqueue(self, entry: QueueEntry) -> None:
        if entry.patient_id in self._entries:
            raise ValidationError(f"{entry.patient_id} is already queued")
        self._entries[entry.patient_id] = entry
        if self._rows is not None:
            self._put(entry)

    def _put(self, entry: QueueEntry) -> None:
        n = len(self._rows)
        if n == len(self._cols):
            grown = np.empty(max(2 * n, 64), _ROW)
            grown[:n] = self._cols
            self._cols = grown
        self._cols[n] = (
            entry.current_urgency.rank,
            entry.current_acuity,
            entry.enqueue_time,
            self._desk_codes.setdefault(entry.assigned_physician, len(self._desk_codes)),
            entry.priority,
            entry.memory_available,
        )
        self._rows.append(entry)

    def _columns(self) -> np.ndarray:
        """The pool's rows, building them first if they were dropped."""
        if self._rows is None:
            self._rows = []
            for entry in self._entries.values():
                self._put(entry)
        return self._cols[: len(self._rows)]

    def dequeue_next(self, physician_id: str | None = None) -> QueueEntry:
        """Pop the highest-priority entry for `physician_id` (or globally if
        None); ties go to the earliest enqueue, then the lowest patient id."""
        if physician_id is not None:
            # The token arms' path.  Their per-desk pools are small, and a
            # column version of this scan made their sessions slower.
            pool = [e for e in self._entries.values() if e.assigned_physician == physician_id]
            if not pool:
                raise ValidationError(f"no waiting entries assigned to {physician_id}")
            best = min(pool, key=lambda e: (-e.priority, e.enqueue_time, e.patient_id))
            self._rows = None
            return self._entries.pop(best.patient_id)
        if not self._entries:
            raise ValidationError("dequeue from empty queue")
        cols = self._columns()
        rows = self._rows
        priority = cols["priority"]
        i = int(priority.argmax())
        tied = np.flatnonzero(priority == priority[i])
        if len(tied) > 1:
            i = min(tied.tolist(), key=lambda j: (rows[j].enqueue_time, rows[j].patient_id))
        cols[i:-1] = cols[i + 1 :]
        return self._entries.pop(rows.pop(i).patient_id)

    def reassess_tick(
        self,
        now: float,
        backend: CalibratedTriageBackend,
        history: dict[str, HistoryRecord],
        memory_enabled: bool,
        load_of,
    ) -> list[EscalationEvent]:
        """One sweep over the pool in enqueue order.  The engine schedules
        sweeps only when drift checking is on.

        For each entry: if memory is on, the record is visible, and its target
        still exceeds the current level, run the history check; when it fires,
        the entry reaches the target (so it is never checked again) and skips
        drift this sweep.  Otherwise run one deterioration check — critical
        patients are already at ceiling and are never checked.
        `load_of(physician_id)` supplies normalised desk load for the priority
        refresh applied to every entry at the end; it is asked once per desk.

        Every check draws one uniform from the backend's stream, in pool
        order.  The drift checks between two chart checks are drawn as one
        block; an entry whose chart check misses heads the next block, so
        the stream is read in the same order as one check at a time.
        """
        cols = self._columns()
        if not len(cols):
            return []
        rows = self._rows
        rank = cols["rank"]
        enqueued = cols["enqueued"]
        if now < enqueued.max():
            raise ValidationError(f"reassessment at t={now} precedes an enqueue")
        # The rows that may drift, in pool order, with the level and history
        # visibility their checks read.  Only a row's own check changes its
        # level, so these are read once, before any check.
        drifting = np.flatnonzero(rank < _CRITICAL)
        drift_rows = drifting.tolist()
        drift_ranks = rank[drifting]
        drift_visible = cols["memory"][drifting] & memory_enabled
        events: list[EscalationEvent] = []

        def escalate(i: int, target: UrgencyLevel, cause: str, reason: str) -> None:
            events.append(_escalate(rows[i], now, target, cause, reason))
            rank[i] = target.rank
            cols["acuity"][i] = rows[i].current_acuity

        def drift(start: int, stop: int) -> None:
            if start == stop:
                return
            fired = backend.assess_drift_batch(drift_ranks[start:stop], drift_visible[start:stop])
            for k in np.flatnonzero(fired).tolist():
                i = drift_rows[start + k]
                level = rows[i].current_urgency.next_higher()
                escalate(i, level, CAUSE_DRIFT, "deterioration while waiting")

        start = 0  # first drift row not yet checked
        for pos in np.flatnonzero(drift_visible).tolist():
            entry = rows[drift_rows[pos]]
            record = history.get(entry.patient_id)
            if record is None or record.escalation_rule.target.rank <= entry.current_urgency.rank:
                continue
            drift(start, pos)
            rule = backend.assess_history_escalation(entry.patient, record)
            if rule is None:
                start = pos
            else:
                escalate(drift_rows[pos], rule.target, CAUSE_MEMORY, rule.reason)
                start = pos + 1
        drift(start, len(drift_rows))

        # priority_score for every row, term by term in the same order.
        w = self.weights
        desk = cols["desk"]
        desks = list(self._desk_codes)
        load_term = np.zeros(len(desks))
        for code in np.flatnonzero(np.bincount(desk)).tolist():
            load_term[code] = 1.0 - min(max(load_of(desks[code]), 0.0), 1.0)
        wait_term = w.wait_cap * np.minimum((now - enqueued) / w.wait_horizon, 1.0)
        priority = (
            w.urgency * _U_SCORE[rank]
            + w.acuity * (cols["acuity"] / 10.0)
            + w.waiting * wait_term
            + w.load * load_term[desk]
        )
        cols["priority"] = priority
        for entry, p in zip(rows, priority.tolist()):
            entry.priority = p
        return events
