"""Physician roster and patient-to-physician assignment.

Three assignment policies share one roster model:

- round-robin (token order, blind to specialty or load),
- rule-based (exact-specialty desk with the shortest queue, else shortest
  queue anywhere),
- scored (weighted sum of specialty match, load balance, and availability;
  highest score wins).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import ValidationError
from .patients import Patient, Specialty

W_SPECIALTY = 0.50
W_LOAD = 0.30
W_AVAILABILITY = 0.20

MATCH_EXACT = 1.0
MATCH_GENERALIST = 0.5
MATCH_NONE = 0.0


class PhysicianStatus(enum.Enum):
    IDLE = "idle"
    BUSY = "busy"


@dataclass
class Physician:
    physician_id: str
    specialty: Specialty
    status: PhysicianStatus = PhysicianStatus.IDLE
    queue_length: int = 0


def default_roster() -> list[Physician]:
    """Six consulting rooms: two general medicine, one per other specialty."""
    return [
        Physician("D1", Specialty.GENERAL_MEDICINE),
        Physician("D2", Specialty.GENERAL_MEDICINE),
        Physician("D3", Specialty.PEDIATRICS),
        Physician("D4", Specialty.OBGYN),
        Physician("D5", Specialty.ORTHOPEDICS),
        Physician("D6", Specialty.SURGERY),
    ]


@dataclass
class AssignmentScore:
    physician_id: str
    specialty_match: float
    load_balance: float
    availability: float
    total: float = field(init=False)

    def __post_init__(self):
        self.total = (
            W_SPECIALTY * self.specialty_match
            + W_LOAD * self.load_balance
            + W_AVAILABILITY * self.availability
        )


def _specialty_match(patient: Patient, physician: Physician) -> float:
    if physician.specialty is patient.required_specialty:
        return MATCH_EXACT
    if physician.specialty is Specialty.GENERAL_MEDICINE:
        return MATCH_GENERALIST
    return MATCH_NONE


def score_assignment(
    patient: Patient, physician: Physician, roster: list[Physician]
) -> AssignmentScore:
    max_queue = max(1, max(p.queue_length for p in roster))
    return AssignmentScore(
        physician_id=physician.physician_id,
        specialty_match=_specialty_match(patient, physician),
        load_balance=1.0 - physician.queue_length / max_queue,
        availability=1.0 if physician.status is PhysicianStatus.IDLE else 0.0,
    )


def assign_round_robin(roster: list[Physician], cursor: int) -> Physician:
    return roster[cursor % len(roster)]


def assign_rule_based(patient: Patient, roster: list[Physician]) -> Physician:
    matches = [p for p in roster if p.specialty is patient.required_specialty]
    pool = matches if matches else roster
    return min(pool, key=lambda p: (p.queue_length, p.physician_id))


def assign_scored(patient: Patient, roster: list[Physician]) -> Physician:
    """The highest `score_assignment(...).total`, ties broken by id order.

    One pass: the longest queue is read once, the match is `_specialty_match`'s
    and each total is summed in `AssignmentScore`'s order: the same floats.
    """
    max_queue = max(1, max([p.queue_length for p in roster]))
    need, general = patient.required_specialty, Specialty.GENERAL_MEDICINE
    best, best_total = None, -math.inf
    for p in roster:
        s = p.specialty
        match = MATCH_EXACT if s is need else MATCH_GENERALIST if s is general else MATCH_NONE
        total = (
            W_SPECIALTY * match
            + W_LOAD * (1.0 - p.queue_length / max_queue)
            + W_AVAILABILITY * (1.0 if p.status is PhysicianStatus.IDLE else 0.0)
        )
        if total > best_total or (total == best_total and p.physician_id < best.physician_id):
            best, best_total = p, total
    return best


def assign(
    patient: Patient,
    roster: list[Physician],
    strategy: str,
    rr_cursor: int = 0,
) -> Physician:
    """Dispatch to the policy named by `strategy` (engine Strategy values)."""
    if not roster:
        raise ValidationError("empty roster")
    if strategy == "fcfs":
        return assign_round_robin(roster, rr_cursor)
    if strategy == "rule_based":
        return assign_rule_based(patient, roster)
    if strategy == "agentic":
        return assign_scored(patient, roster)
    raise ValidationError(f"unknown strategy {strategy!r}")
