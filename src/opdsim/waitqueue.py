"""The post-registration waiting pool and its reassessment loop.

Entries carry both the grade a patient presented with (face urgency) and the
grade they currently hold (which escalation can raise, never lower), and the
history record their assessor can see, if any.  Periodic reassessment sweeps
the pool: memory-driven escalation is checked first for patients with a
record, then stochastic deterioration; a patient escalated by memory is not
also drifted on the same sweep.

Dequeue order is one rule for every strategy: highest `priority` first, then
earliest enqueue, then patient id.  The engine sets `priority` to the rank
its strategy wants.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, require_number
from .patients import HistoryRecord, Patient, UrgencyLevel
from .triage import CalibratedTriageBackend

W_URGENCY = 0.45
W_ACUITY = 0.20
W_WAIT = 0.20
W_LOAD = 0.15

WAIT_HORIZON_MINUTES = 120.0
WAIT_TERM_CAP = 0.3

CAUSE_DRIFT = "drift"
CAUSE_MEMORY = "memory"

_CRITICAL = UrgencyLevel.CRITICAL.rank
# The pool's slot table (see AdaptiveQueue): one array per column.
_COLUMNS = {
    "_rank": np.intp,  # current level
    "_level_terms": np.float64,  # the urgency and acuity terms of the priority
    "_enqueued": np.float64,
    "_desk": np.intp,  # code of the assigned desk
    "_priority": np.float64,
    "_memory": np.bool_,  # history record visible
    "_chart": np.bool_,  # the record's rule may still raise the level
}


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


@dataclass
class QueueEntry:
    patient: Patient
    enqueue_time: float
    face_urgency: UrgencyLevel
    current_urgency: UrgencyLevel
    current_acuity: int
    assigned_physician: str | None = None
    # The history record the assessor can see: None without one, or with memory off.
    record: HistoryRecord | None = None
    # Dequeue rank, highest first.  A pooled pool reads it at enqueue; its
    # sweeps refresh the slot table only (see `AdaptiveQueue.priorities`).
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
    event = EscalationEvent(now, entry.patient_id, entry.current_urgency, target, cause, reason)
    entry.current_urgency = target
    entry.current_acuity = target.escalation_acuity
    entry.level_entry_time = now
    return event


class AdaptiveQueue:
    """Waiting pool keyed by patient id, insertion-ordered.

    The engine builds a pooled pool for the agentic arm, dequeued as a whole
    and swept, and a per-desk pool for the token arms, dequeued desk by desk
    and never swept; each keeps only the index its dequeues read.

    A pooled pool keeps a slot table: one slot per enqueue, in enqueue order,
    and one array per column (see `_COLUMNS`).  A dequeued slot is marked
    dead and never moved: its rank reads critical, so no sweep checks it, and
    its level terms, enqueue time and priority read -inf, so no dequeue or
    refresh revives it; `enqueue` takes only finite ones, so a slot is live
    exactly when its enqueue time is, and live slots are in `_entries` order.
    An entry's level, acuity, record and `priority` are read when its slot
    is written; then only sweeps change them, a priority in the slot table
    alone.  A per-desk pool keeps each desk's entries (`by_desk`).
    """

    def __init__(self, weights: PriorityWeights | None = None, pooled: bool = True):
        self.weights = weights or PriorityWeights()
        self._pooled = pooled
        self._entries: dict[str, QueueEntry] = {}
        self._by_desk: dict[str | None, dict[str, QueueEntry]] = {}  # per-desk pools
        self._rows: list[QueueEntry | None] = []  # by slot, pooled pools
        for name, dtype in _COLUMNS.items():
            setattr(self, name, np.empty(0, dtype))
        self._desk_codes: dict[str | None, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[QueueEntry]:
        return list(self._entries.values())

    def priorities(self) -> list[float]:
        """The live priorities in pool order, as the next dequeue reads them."""
        if not self._pooled:
            return [e.priority for e in self._entries.values()]
        n = len(self._rows)
        return self._priority[:n][self._enqueued[:n] > -np.inf].tolist()

    def enqueue(self, entry: QueueEntry) -> None:
        pid, desk, t = entry.patient.patient_id, entry.assigned_physician, entry.enqueue_time
        if pid in self._entries:
            raise ValidationError(f"{pid} is already queued")
        if not math.isfinite(t) or not math.isfinite(entry.priority):
            raise ValidationError(f"{pid} needs a finite enqueue time and priority")
        self._entries[pid] = entry
        if not self._pooled:
            self._by_desk.setdefault(desk, {})[pid] = entry
            return
        rows, codes = self._rows, self._desk_codes
        i = len(rows)
        if i == len(self._rank):
            for name in _COLUMNS:
                col = getattr(self, name)
                setattr(self, name, np.concatenate((col, np.empty(max(i, 64), col.dtype))))
        self._rank[i] = entry.current_urgency.rank
        self._level_terms[i] = self._level_terms_of(entry)
        self._enqueued[i] = t
        self._desk[i] = codes.setdefault(desk, len(codes))
        self._priority[i] = entry.priority
        self._memory[i] = self._chart[i] = entry.record is not None
        rows.append(entry)

    def _level_terms_of(self, entry: QueueEntry) -> float:
        """`priority_score`'s first two terms; the sweep adds the rest in order."""
        w = self.weights
        return w.urgency * entry.current_urgency.u_score + w.acuity * (entry.current_acuity / 10.0)

    def by_desk(self) -> dict[str | None, dict[str, QueueEntry]]:
        """A per-desk pool's waiting entries by desk, in pool order; read only."""
        return self._by_desk

    def dequeue_next(self, physician_id: str | None = None) -> QueueEntry:
        """Pop the highest-priority entry: a pooled pool's when `physician_id`
        is None, else that desk's in a per-desk pool.  Ties go to the earliest
        enqueue, then the lowest patient id."""
        if (physician_id is None) is not self._pooled:
            raise ValidationError("a pooled pool is dequeued whole, a per-desk pool by desk")
        if physician_id is not None:
            # A scan of the desk's own entries, which reads each priority afresh.
            pool = self._by_desk.get(physician_id)
            if not pool:
                raise ValidationError(f"no waiting entries assigned to {physician_id}")
            best = min(pool.values(), key=lambda e: (-e.priority, e.enqueue_time, e.patient_id))
            del pool[best.patient_id]
            return self._entries.pop(best.patient_id)
        if not self._entries:
            raise ValidationError("dequeue from empty queue")
        rows = self._rows
        n = len(rows)
        priority = self._priority[:n]
        i = int(priority.argmax())
        top = priority[i]
        # argmax takes the first maximum, so a tie lies after it; a[a.argmax()] is a cheap a.max().
        if i + 1 < n and priority[i + 1 + priority[i + 1 :].argmax()] == top:
            tied = (priority == top).nonzero()[0].tolist()
            i = min(tied, key=lambda j: (rows[j].enqueue_time, rows[j].patient_id))
        entry = rows[i]
        rows[i] = None
        self._rank[i] = _CRITICAL
        self._level_terms[i] = self._enqueued[i] = self._priority[i] = -np.inf
        return self._entries.pop(entry.patient_id)

    def reassess_tick(self, now: float, backend: CalibratedTriageBackend, load_of) -> list[EscalationEvent]:
        """One sweep over the pool in enqueue order.  The engine schedules
        sweeps only when drift checking is on.

        For each entry: if it carries a record whose target still exceeds the
        current level, run the history check; when it fires, the entry
        reaches the target (so it is never checked again) and skips drift
        this sweep.  Otherwise run one deterioration check — critical
        patients are already at ceiling and are never checked.
        `load_of(physician_id)` supplies normalised desk load for the priority
        refresh applied to every entry at the end; it is asked once per desk
        the pool has seen, before any check.  A non-finite `now` or load is
        refused before any slot is written.

        Every check draws one uniform from the backend's stream, in pool
        order.  The drift checks between two chart checks are drawn as one
        block; an entry whose chart check misses heads the next block, so
        the stream is read in the same order as one check at a time.
        """
        if not self._pooled:
            raise ValidationError("a per-desk pool is never swept")
        require_number("now", now)
        if not self._entries:
            return []
        rows = self._rows
        n = len(rows)
        rank, level_terms, enqueued = self._rank[:n], self._level_terms[:n], self._enqueued[:n]
        if now < enqueued[enqueued.argmax()]:  # the latest enqueue
            raise ValidationError(f"reassessment at t={now} precedes an enqueue")
        loads = [load_of(d) for d in self._desk_codes]
        if not all(map(math.isfinite, loads)):
            raise ValidationError(f"desk loads must be finite, got {loads}")
        # The live slots that may drift, in pool order, with the level and
        # record visibility their checks read.  Only a slot's own check
        # changes its level, so these are read once, before any check.
        drifting = (rank < _CRITICAL).nonzero()[0]
        drift_rows = drifting.tolist()
        drift_ranks = rank[drifting]
        drift_visible = self._memory[drifting]
        events: list[EscalationEvent] = []

        def escalate(i: int, target: UrgencyLevel, cause: str, reason: str) -> None:
            events.append(_escalate(rows[i], now, target, cause, reason))
            rank[i] = target.rank
            level_terms[i] = self._level_terms_of(rows[i])

        def drift(start: int, stop: int) -> None:
            if start == stop:
                return
            fired = backend.assess_drift_batch(drift_ranks[start:stop], drift_visible[start:stop])
            for k in fired.nonzero()[0].tolist():
                i = drift_rows[start + k]
                level = rows[i].current_urgency.next_higher()
                escalate(i, level, CAUSE_DRIFT, "deterioration while waiting")

        # A slot's chart check is pending until its level reaches the rule's
        # target.  Levels only rise and records do not change, so a settled
        # slot is never asked again.
        start = 0  # first drift row not yet checked
        for pos in self._chart[drifting].nonzero()[0].tolist():
            i = drift_rows[pos]
            entry = rows[i]
            record = entry.record
            if record.escalation_rule.target.rank <= entry.current_urgency.rank:
                self._chart[i] = False
                continue
            drift(start, pos)
            rule = backend.assess_history_escalation(entry.patient, record)
            if rule is None:
                start = pos
            else:
                escalate(i, rule.target, CAUSE_MEMORY, rule.reason)
                start = pos + 1
        drift(start, len(drift_rows))

        # priority_score for every slot, in place and rounded term by term as
        # there; a dead slot's -inf level terms keep its priority at -inf.
        w = self.weights
        load = np.array([w.load * (1.0 - min(max(x, 0.0), 1.0)) for x in loads])
        priority = self._priority[:n]
        np.subtract(now, enqueued, out=priority)
        priority /= w.wait_horizon
        np.minimum(priority, 1.0, out=priority)
        priority *= w.wait_cap
        priority *= w.waiting
        priority += level_terms
        priority += load[self._desk[:n]]
        return events
