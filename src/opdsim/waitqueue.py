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

from dataclasses import dataclass, field

from .errors import ValidationError
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


@dataclass(frozen=True)
class PriorityWeights:
    urgency: float = W_URGENCY
    acuity: float = W_ACUITY
    waiting: float = W_WAIT
    load: float = W_LOAD
    wait_horizon: float = WAIT_HORIZON_MINUTES
    wait_cap: float = WAIT_TERM_CAP

    def __post_init__(self):
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


class AdaptiveQueue:
    """Waiting pool keyed by patient id, insertion-ordered."""

    def __init__(self, weights: PriorityWeights | None = None):
        self.weights = weights or PriorityWeights()
        self._entries: dict[str, QueueEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[QueueEntry]:
        return list(self._entries.values())

    def enqueue(self, entry: QueueEntry) -> None:
        if entry.patient_id in self._entries:
            raise ValidationError(f"{entry.patient_id} is already queued")
        self._entries[entry.patient_id] = entry

    def dequeue_next(self, physician_id: str | None = None) -> QueueEntry:
        """Pop the highest-priority entry for `physician_id` (or globally if
        None); ties go to the earliest enqueue, then the lowest patient id."""
        pool = [
            e
            for e in self._entries.values()
            if physician_id is None or e.assigned_physician == physician_id
        ]
        if not pool:
            raise ValidationError(
                "dequeue from empty queue"
                if physician_id is None
                else f"no waiting entries assigned to {physician_id}"
            )
        best = min(pool, key=lambda e: (-e.priority, e.enqueue_time, e.patient_id))
        return self._entries.pop(best.patient_id)

    def apply_escalation(
        self, entry: QueueEntry, now: float, target: UrgencyLevel, cause: str, reason: str
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
        refresh applied to every entry at the end.
        """
        events: list[EscalationEvent] = []
        for entry in list(self._entries.values()):
            escalated_by_memory = False
            if memory_enabled and entry.memory_available:
                record = history.get(entry.patient_id)
                if record is not None and record.escalation_rule.target.rank > entry.current_urgency.rank:
                    rule = backend.assess_history_escalation(entry.patient, record)
                    if rule is not None:
                        events.append(
                            self.apply_escalation(
                                entry, now, rule.target, CAUSE_MEMORY, rule.reason
                            )
                        )
                        escalated_by_memory = True
            if not escalated_by_memory and entry.current_urgency is not UrgencyLevel.CRITICAL:
                knows_history = memory_enabled and entry.memory_available
                new_level = backend.assess_drift(entry.current_urgency, knows_history)
                if new_level is not None:
                    events.append(
                        self.apply_escalation(
                            entry, now, new_level, CAUSE_DRIFT, "deterioration while waiting"
                        )
                    )
        for entry in self._entries.values():
            entry.priority = priority_score(
                entry, now, load_of(entry.assigned_physician), self.weights
            )
        return events
