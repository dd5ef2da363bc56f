"""Severity assessment backends.

A backend grades patients at registration (face-value triage), escalates
waiting patients whose stored medical history flags hidden risk, and models
condition drift — the chance that an untreated patient deteriorates while
queueing.  The simulation uses a calibrated stochastic backend.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .patients import (
    ESCALATION_ACUITY,
    HistoryRecord,
    Patient,
    Specialty,
    UrgencyLevel,
)

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
        for name in ("p_high", "p_medium", "p_low", "p_history_escalation"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be a probability, got {v}")
        if self.history_multiplier < 0:
            raise ValidationError("history_multiplier must be non-negative")
        if self.check_interval <= 0:
            raise ValidationError("check_interval must be positive")

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


@dataclass
class TriageResult:
    urgency: UrgencyLevel
    acuity: int
    specialty: Specialty
    confidence: float
    reasoning: str


class TriageBackend(ABC):
    """One instance per session run.

    Backends own per-run state (at-most-once history escalation) and consume
    the RNG stream they are given, so reuse across runs would break
    reproducibility — construct a fresh one per run.
    """

    @abstractmethod
    def triage_face_value(self, patient: Patient) -> TriageResult:
        """Grade a presenting patient on visible signs alone."""

    @abstractmethod
    def assess_history_escalation(
        self, patient: Patient, record: HistoryRecord
    ) -> TriageResult | None:
        """Decide whether stored history flags this patient for escalation.

        Returns the escalated grade, or None.  Fires at most once per patient
        per session.
        """

    @abstractmethod
    def assess_drift(
        self, current: UrgencyLevel, has_history: bool
    ) -> UrgencyLevel | None:
        """One deterioration check; returns the new level or None.

        `has_history` means a record is available *and* visible to the
        assessor — callers pass False when memory is disabled, which switches
        the history risk multiplier off.
        """


class CalibratedTriageBackend(TriageBackend):
    """Stochastic assessor used by the simulation."""

    def __init__(self, rng: np.random.Generator, params: DriftParams | None = None):
        self.rng = rng
        self.params = params or DriftParams()
        self._memory_fired: set[str] = set()

    def triage_face_value(self, patient: Patient) -> TriageResult:
        # No caller reads the confidence, but its draw is kept on purpose:
        # dropping it would shift every later draw on this stream and change
        # every session's output.
        confidence = 0.80 + 0.18 * float(self.rng.random())
        return TriageResult(
            urgency=patient.face_urgency,
            acuity=patient.face_acuity,
            specialty=patient.required_specialty,
            confidence=confidence,
            reasoning=f"presenting complaint graded {patient.face_urgency.value}",
        )

    def assess_history_escalation(self, patient, record):
        if record is None or not patient.has_history:
            raise ValidationError(
                f"history assessment called for {patient.patient_id} without a record"
            )
        if patient.patient_id in self._memory_fired:
            return None
        if float(self.rng.random()) >= self.params.p_history_escalation:
            return None
        self._memory_fired.add(patient.patient_id)
        target = record.escalation_rule.target
        return TriageResult(
            urgency=target,
            acuity=ESCALATION_ACUITY[target],
            specialty=patient.required_specialty,
            confidence=0.95,
            reasoning=record.escalation_rule.reason,
        )

    def assess_drift(self, current, has_history):
        if current is UrgencyLevel.CRITICAL:
            raise ValidationError("critical patients do not drift further")
        p = self.params.drift_probability(current, has_history)
        if float(self.rng.random()) < p:
            return current.next_higher()
        return None


class FixedLowBackend(TriageBackend):
    """Degenerate assessor: everyone is low urgency, nothing ever escalates.

    Exists to prove the engine is backend-agnostic (and as a floor for
    sanity checks).
    """

    def __init__(self, *args, **kwargs):
        pass

    def triage_face_value(self, patient):
        return TriageResult(
            urgency=UrgencyLevel.LOW,
            acuity=2,
            specialty=patient.required_specialty,
            confidence=1.0,
            reasoning="fixed grading",
        )

    def assess_history_escalation(self, patient, record):
        if record is None or not patient.has_history:
            raise ValidationError(
                f"history assessment called for {patient.patient_id} without a record"
            )
        return None

    def assess_drift(self, current, has_history):
        if current is UrgencyLevel.CRITICAL:
            raise ValidationError("critical patients do not drift further")
        return None
