"""The severity model.

`CalibratedTriageBackend` grades patients at registration (face-value
triage), escalates waiting patients whose stored medical history flags hidden
risk, and models condition drift — the chance that an untreated patient
deteriorates while queueing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_number
from .patients import EscalationRule, HistoryRecord, Patient, UrgencyLevel

# Per-check deterioration probabilities by current level.  Medium sits highest:
# the band is wide and mid-acuity presentations are the least stable.  High
# rarely tips into critical: the paper's final critical count (~25 = 13 at
# face + ~11.9 surfaced by memory) leaves drift almost no criticals, and 0.003
# is where the adaptive arm's mean critical count meets 24.9 (see README).
P_DRIFT_HIGH = 0.003
P_DRIFT_MEDIUM = 0.030
P_DRIFT_LOW = 0.020

# History-aware factors (the cell `opdsim calibrate` picks; see README).  At
# probability 1 a chart check acts as a lookup: the first sweep that sees a
# record whose rule targets a higher level escalates the patient.
HISTORY_DRIFT_MULTIPLIER = 1.2
P_HISTORY_ESCALATION = 1.0

REASSESS_INTERVAL = 5.0
# Every tick sweeps the whole pool, so a near-zero interval makes a run
# effectively unbounded; a tenth of a minute is 50 sweeps per default interval.
MIN_CHECK_INTERVAL = 0.1


def drift_index(rank: int, has_history: bool) -> int:
    """A level's row in the backend's drift table: `2·rank + has_history`."""
    return 2 * rank + has_history


# The lowest index of a critical patient, who never drifts.
DRIFT_INDEX_CRITICAL = drift_index(UrgencyLevel.CRITICAL.rank, False)


@dataclass(frozen=True)
class DriftParams:
    """Knobs for deterioration and memory-driven escalation."""

    check_interval: float = REASSESS_INTERVAL
    p_high: float = P_DRIFT_HIGH
    p_medium: float = P_DRIFT_MEDIUM
    p_low: float = P_DRIFT_LOW
    history_multiplier: float = HISTORY_DRIFT_MULTIPLIER
    p_history_escalation: float = P_HISTORY_ESCALATION

    def __post_init__(self):
        for f in dataclasses.fields(self):
            require_number(f.name, getattr(self, f.name))
        for name in ("p_high", "p_medium", "p_low", "p_history_escalation"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be a probability, got {v}")
        if self.history_multiplier < 0:
            raise ValidationError("history_multiplier must be non-negative")
        if self.check_interval < MIN_CHECK_INTERVAL:
            raise ValidationError(
                f"check_interval must be at least {MIN_CHECK_INTERVAL}, got {self.check_interval}"
            )

    def drift_probability(self, level: UrgencyLevel, has_history: bool) -> float:
        base = {
            UrgencyLevel.HIGH: self.p_high,
            UrgencyLevel.MEDIUM: self.p_medium,
            UrgencyLevel.LOW: self.p_low,
        }[level]
        if has_history:
            base *= self.history_multiplier
        return min(base, 1.0)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class CalibratedTriageBackend:
    """One instance per session run: it consumes the RNG stream it is given.
    A face-value grade owes its uniform, and the next real draw reads the owed
    ones first, so each check reads the uniform and leaves the state it would."""

    def __init__(self, rng: np.random.Generator, params: DriftParams):
        self.rng = rng
        self.params = params
        self._owed = 0  # face-value uniforms not yet drawn
        # drift_probability at index `drift_index(rank, visible)`, for the levels that drift.
        self._drift_table = np.array(
            [
                params.drift_probability(level, has_history)
                for level in UrgencyLevel
                if level is not UrgencyLevel.CRITICAL
                for has_history in (False, True)
            ]
        )

    def triage_face_value(self, patient: Patient) -> tuple[UrgencyLevel, int]:
        """Grade a presenting patient on visible signs alone: (urgency, acuity)."""
        # One unused uniform per registrant, kept on purpose: dropping it would
        # shift every later draw on this stream and change every session's
        # output.
        self._owed += 1
        return patient.face_urgency, patient.face_acuity

    def _uniforms(self, k: int) -> np.ndarray:
        """The next `k` uniforms after the owed ones (`random(n)` is n scalar draws)."""
        owed, self._owed = self._owed, 0
        return self.rng.random(owed + k)[owed:]

    def assess_history_escalation(
        self, patient: Patient, record: HistoryRecord
    ) -> EscalationRule | None:
        """The record's escalation rule if this chart check fires, else None.
        The pool asks only while the rule would raise the patient's level."""
        if record is None or not patient.has_history:
            raise ValidationError(
                f"history assessment called for {patient.patient_id} without a record"
            )
        if self._uniforms(1)[0] >= self.params.p_history_escalation:
            return None
        return record.escalation_rule

    def assess_drift(self, current: UrgencyLevel, has_history: bool) -> UrgencyLevel | None:
        """One deterioration check; returns the new level or None.

        `has_history` means a record is available *and* visible to the
        assessor — callers pass False when memory is disabled, which switches
        the history risk multiplier off.
        """
        if current is UrgencyLevel.CRITICAL:
            raise ValidationError("critical patients do not drift further")
        p = self.params.drift_probability(current, has_history)
        if self._uniforms(1)[0] < p:
            return current.next_higher()
        return None

    def assess_drift_batch(self, index: np.ndarray) -> np.ndarray:
        """`assess_drift` for a block of patients: True where one deteriorates.

        `index` holds each patient's `drift_index` of a level below critical
        and `has_history` as for `assess_drift`.  One uniform is drawn per
        patient, in order, which reads the stream exactly as that many scalar
        calls would.
        """
        if len(index) and index[index.argmax()] >= DRIFT_INDEX_CRITICAL:  # the highest index
            raise ValidationError("critical patients do not drift further")
        return self._uniforms(len(index)) < self._drift_table[index]
