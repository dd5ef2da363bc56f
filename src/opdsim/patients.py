"""Synthetic OPD patient dataset.

Generates a deterministic cohort of 368 outpatients with demographics matching
the modelled catchment (central-India district hospital), presenting
complaints, a face-value urgency grade, and longitudinal history records for a
120-patient subset.  Each history record carries an escalation rule: the
urgency the patient should be raised to once their record is taken into
account, plus the clinical reason.
"""

from __future__ import annotations

import collections
import json
from dataclasses import dataclass
from enum import Enum
from hashlib import sha256
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

N_PATIENTS = 368
N_HISTORY = 120

# RNG stream keys (SeedSequence spawn keys) so patient attributes and history
# selection draw from independent streams for the same seed.
_STREAM_PATIENTS = 0
_STREAM_HISTORY = 1


class UrgencyLevel(Enum):
    """Urgency grades in rank order, each with its per-grade model constants:
    its name as JSON holds it (the value), `rank`, `u_score` (the urgency term
    of the dequeue priority), `face_count` of a session's walk-ins (fixed, not
    sampled, so every run has the same case mix), `history_count` of the
    history records on patients of that face grade, the 1-10 `acuity_band`,
    the `escalation_acuity` given on escalation into the grade (None for low),
    and the `consult` duration (mean, std) in minutes of a patient called at it."""

    LOW = ("low", 0, 0.25, 161, 57, (1, 3), None, (5.0, 1.5))
    MEDIUM = ("medium", 1, 0.50, 158, 57, (4, 6), 5, (7.0, 2.5))
    HIGH = ("high", 2, 0.75, 36, 6, (7, 8), 7, (10.0, 3.0))
    CRITICAL = ("critical", 3, 1.0, 13, 0, (9, 10), 9, (15.0, 4.0))

    def __new__(cls, value: str, *constants):
        member = object.__new__(cls)
        member._value_ = value
        (member.rank, member.u_score, member.face_count, member.history_count,
         member.acuity_band, member.escalation_acuity, member.consult) = constants
        return member

    def next_higher(self) -> "UrgencyLevel":
        if self is UrgencyLevel.CRITICAL:
            raise ValueError("critical has no higher level")
        return _LEVELS[self.rank + 1]


_LEVELS = tuple(UrgencyLevel)  # by rank
# The cohort deals face grades, and picks history records, highest grade
# first; the pinned cohort fingerprints depend on this order.
_DEAL_ORDER = _LEVELS[::-1]


class Specialty(Enum):
    GENERAL_MEDICINE = "general_medicine"
    PEDIATRICS = "pediatrics"
    OBGYN = "obgyn"
    ORTHOPEDICS = "orthopedics"
    SURGERY = "surgery"


class AgeBand(Enum):
    """Age bands in age order, each with its inclusive `ages` range and its
    `share` of the cohort."""

    PEDIATRIC = ("pediatric", (1, 14), 0.15)
    YOUNG_ADULT = ("young_adult", (15, 29), 0.20)
    ADULT = ("adult", (30, 44), 0.25)
    MIDDLE_AGED = ("middle_aged", (45, 59), 0.22)
    ELDERLY = ("elderly", (60, 85), 0.18)

    def __new__(cls, value: str, ages: tuple[int, int], share: float):
        member = object.__new__(cls)
        member._value_ = value
        member.ages, member.share = ages, share
        return member


GENDER_SHARES = (("F", 0.62), ("M", 0.38))
LOCALITY_SHARES = (("urban", 0.45), ("semi_urban", 0.25), ("rural", 0.30))
LANGUAGE_SHARES = (("hindi", 0.85), ("bundeli", 0.10), ("english", 0.05))
PAYMENT_SHARES = (("ayushman", 0.35), ("self_pay", 0.40), ("other", 0.25))
# General medicine takes half the demand; with a 6-physician roster carrying
# two generalists this puts the uniform-assignment specialty-match baseline at
# exactly 25 %.
SPECIALTY_SHARES = (
    (Specialty.GENERAL_MEDICINE, 0.50),
    (Specialty.PEDIATRICS, 0.125),
    (Specialty.OBGYN, 0.125),
    (Specialty.ORTHOPEDICS, 0.125),
    (Specialty.SURGERY, 0.125),
)


class Condition(NamedTuple):
    """A chronic condition of the history records: the number of distinct
    patients who carry it (a patient may carry several), the medications it
    brings, and the escalation reason of a generated record that lists it first."""

    carriers: int
    medications: tuple[str, ...]
    reason: str


# Keyed by name, in the order the condition deal reads them.
CONDITIONS = {
    "diabetes": Condition(
        61, ("Metformin",), "Poorly controlled diabetes - DKA risk on intercurrent illness"),
    "hypertension": Condition(46, ("Amlodipine",), "Uncontrolled hypertension - hypertensive emergency risk"),
    "copd": Condition(12, ("Tiotropium inhaler",), "Severe COPD with prior ICU admission"),
    "chronic kidney disease": Condition(
        12, ("Calcium acetate",), "CKD Stage 3 - hyperkalaemia and fluid-overload risk"),
    "anaemia": Condition(11, ("Iron-folic acid",), "Severe chronic anaemia - decompensation risk"),
    "high-risk pregnancy": Condition(
        11, ("Iron-folic acid", "Calcium supplement"), "High-risk pregnancy - previous caesarean"),
    "tuberculosis": Condition(10, ("Rifampicin", "Isoniazid"), "TB under treatment - haemoptysis risk"),
    "ischaemic heart disease": Condition(
        5, ("Aspirin", "Atorvastatin"), "Known IHD - atypical complaints may be ischaemic"),
    "sickle cell disease": Condition(
        5, ("Hydroxyurea",), "Sickle cell disease - crisis can present as mild pain"),
    "epilepsy": Condition(
        4, ("Levetiracetam",), "Prior status epilepticus - rapid escalation on seizure activity"),
    "cancer": Condition(3, ("Tamoxifen",), "On chemotherapy - neutropenic sepsis risk"),
    "chronic liver disease": Condition(2, ("Propranolol",), "Chronic liver disease - variceal bleeding risk"),
    "sle": Condition(1, ("Hydroxychloroquine",), "Immunosuppressed (SLE) - masked infection risk"),
}

ALLERGY_POOL = ("Penicillin", "Sulfa drugs", "NSAIDs")
ALLERGY_RATE = 0.15

# Deterioration archetypes: deceptively mild presentations whose history
# mandates escalation.  One record matching each is installed in every
# generated dataset (hosted on face-LOW patients with matching demographics).
# A condition listed in CONDITIONS counts toward its carriers.
ARCHETYPES = (
    {
        "key": "prior_tia",
        "age": 62, "gender": "M",
        "complaint": "Mild headache, dizziness",
        "target": UrgencyLevel.CRITICAL,
        "reason": "Prior TIA 6 months ago - stroke warning",
        "conditions": ("prior TIA",),
        "medications": ("Aspirin",),
        "allergies": (),
    },
    {
        "key": "warfarin",
        "age": 55, "gender": "F",
        "complaint": "Minor bruising, bleeding",
        "target": UrgencyLevel.CRITICAL,
        "reason": "On Warfarin - minor bleeding may signal serious haemorrhage",
        "conditions": ("atrial fibrillation",),
        "medications": ("Warfarin",),
        "allergies": (),
    },
    {
        "key": "ckd_stage3",
        "age": 48, "gender": "M",
        "complaint": "Nausea, weakness",
        "target": UrgencyLevel.HIGH,
        "reason": "CKD Stage 3 - hyperkalaemia risk",
        "conditions": ("chronic kidney disease",),
        "medications": ("Calcium acetate",),
        "allergies": (),
    },
    {
        "key": "high_risk_pregnancy",
        "age": 35, "gender": "F",
        "complaint": "Mild abdominal pain",
        "target": UrgencyLevel.CRITICAL,
        "reason": "High-risk pregnancy - previous caesarean",
        "conditions": ("high-risk pregnancy",),
        "medications": ("Iron-folic acid", "Calcium supplement"),
        "allergies": (),
    },
    {
        "key": "severe_copd",
        "age": 70, "gender": "M",
        "complaint": "Cough, mild fever",
        "target": UrgencyLevel.HIGH,
        "reason": "Severe COPD with prior ICU admission",
        "conditions": ("copd",),
        "medications": ("Tiotropium inhaler",),
        "allergies": (),
    },
    {
        "key": "status_epilepticus",
        "age": 28, "gender": "M",
        "complaint": "Drowsy, confused",
        "target": UrgencyLevel.HIGH,
        "reason": "Prior status epilepticus; documented Phenytoin allergy",
        "conditions": ("epilepsy",),
        "medications": ("Levetiracetam",),
        "allergies": ("Phenytoin",),
    },
    {
        "key": "sle_immunosuppressed",
        "age": 58, "gender": "F",
        "complaint": "Low-grade fever",
        "target": UrgencyLevel.HIGH,
        "reason": "Immunosuppressed (SLE on mycophenolate) - masked infection risk",
        "conditions": ("sle",),
        "medications": ("Mycophenolate mofetil", "Hydroxychloroquine"),
        "allergies": (),
    },
)

# History records attach only to non-critical, non-pediatric patients.  The
# face-urgency mix of the 120-record pool (`UrgencyLevel.history_count`) and
# the number of records whose escalation target is CRITICAL are fixed design
# constants: together with the escalation probability they set how many
# hidden-critical patients a session can surface.
N_EXTRA_CRITICAL_TARGETS = 3  # face-MEDIUM/LOW records (beyond archetypes) raised to critical

COMPLAINTS = {
    (UrgencyLevel.CRITICAL, Specialty.GENERAL_MEDICINE): (
        "Crushing chest pain radiating to left arm",
        "Severe breathlessness at rest",
        "Found unresponsive after collapse",
    ),
    (UrgencyLevel.CRITICAL, Specialty.PEDIATRICS): (
        "Infant limp with severe dehydration",
        "High fever with ongoing seizures",
        "Severe respiratory distress, bluish lips",
    ),
    (UrgencyLevel.CRITICAL, Specialty.OBGYN): (
        "Heavy vaginal bleeding in pregnancy",
        "Severe abdominal pain at 34 weeks",
        "Convulsions in late pregnancy",
    ),
    (UrgencyLevel.CRITICAL, Specialty.ORTHOPEDICS): (
        "Open leg fracture with heavy bleeding",
        "Crush injury to lower limb",
        "Hip deformity after fall from height",
    ),
    (UrgencyLevel.CRITICAL, Specialty.SURGERY): (
        "Rigid abdomen with severe pain",
        "Vomiting fresh blood",
        "Deep laceration with uncontrolled bleeding",
    ),
    (UrgencyLevel.HIGH, Specialty.GENERAL_MEDICINE): (
        "High fever with stiff neck",
        "Repeated vomiting and dizziness",
        "Severe asthma flare, speaking in phrases",
    ),
    (UrgencyLevel.HIGH, Specialty.PEDIATRICS): (
        "Child with persistent high fever",
        "Wheezing with fast breathing",
        "Refusing feeds, unusually listless",
    ),
    (UrgencyLevel.HIGH, Specialty.OBGYN): (
        "Reduced fetal movements since morning",
        "Severe vomiting of pregnancy with dehydration",
        "Fever after recent delivery",
    ),
    (UrgencyLevel.HIGH, Specialty.ORTHOPEDICS): (
        "Suspected forearm fracture after fall",
        "Severe back pain, unable to stand",
        "Hot swollen knee joint",
    ),
    (UrgencyLevel.HIGH, Specialty.SURGERY): (
        "Acute right-sided abdominal pain",
        "Painful hernia that will not reduce",
        "Wound infection with spreading redness",
    ),
    (UrgencyLevel.MEDIUM, Specialty.GENERAL_MEDICINE): (
        "Fever and body ache for three days",
        "Persistent cough with phlegm",
        "Recurrent headaches for two weeks",
    ),
    (UrgencyLevel.MEDIUM, Specialty.PEDIATRICS): (
        "Ear pain with mild fever",
        "Loose stools for two days",
        "Itchy skin rash spreading slowly",
    ),
    (UrgencyLevel.MEDIUM, Specialty.OBGYN): (
        "Irregular menstrual bleeding",
        "Antenatal check, mild ankle swelling",
        "Lower pelvic discomfort",
    ),
    (UrgencyLevel.MEDIUM, Specialty.ORTHOPEDICS): (
        "Chronic knee pain, worse this week",
        "Shoulder pain limiting movement",
        "Ankle sprain from yesterday",
    ),
    (UrgencyLevel.MEDIUM, Specialty.SURGERY): (
        "Painless lump in the breast",
        "Recurrent abdominal discomfort after meals",
        "Non-healing ulcer on the foot",
    ),
    (UrgencyLevel.LOW, Specialty.GENERAL_MEDICINE): (
        "Mild fever and runny nose",
        "General weakness and fatigue",
        "Acidity and bloating after meals",
    ),
    (UrgencyLevel.LOW, Specialty.PEDIATRICS): (
        "Routine vaccination visit",
        "Mild cold and cough",
        "Poor appetite for a week",
    ),
    (UrgencyLevel.LOW, Specialty.OBGYN): (
        "Routine antenatal visit",
        "Mild vaginal discharge",
        "Family planning consultation",
    ),
    (UrgencyLevel.LOW, Specialty.ORTHOPEDICS): (
        "Morning joint stiffness",
        "Old injury follow-up",
        "Mild lower back ache",
    ),
    (UrgencyLevel.LOW, Specialty.SURGERY): (
        "Small painless swelling on the wrist",
        "Suture removal follow-up",
        "Mild constipation",
    ),
}


@dataclass
class Patient:
    patient_id: str
    age: int
    age_band: AgeBand
    gender: str
    locality: str
    language: str
    payment: str
    complaint: str
    face_urgency: UrgencyLevel
    face_acuity: int
    required_specialty: Specialty
    has_history: bool = False

    @staticmethod
    def from_dict(d: dict) -> "Patient":
        try:
            return Patient(
                patient_id=_typed(d, "patient_id", str),
                age=_typed(d, "age", int),
                age_band=AgeBand(_typed(d, "age_band", str)),
                gender=_typed(d, "gender", str),
                locality=_typed(d, "locality", str),
                language=_typed(d, "language", str),
                payment=_typed(d, "payment", str),
                complaint=_typed(d, "complaint", str),
                face_urgency=UrgencyLevel(_typed(d, "face_urgency", str)),
                face_acuity=_typed(d, "face_acuity", int),
                required_specialty=Specialty(_typed(d, "required_specialty", str)),
                has_history=_typed(d, "has_history", bool),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad patient entry: {exc}") from exc


@dataclass
class EscalationRule:
    target: UrgencyLevel
    reason: str

    @staticmethod
    def from_dict(d: dict) -> "EscalationRule":
        return EscalationRule(UrgencyLevel(_typed(d, "target", str)), _typed(d, "reason", str))


@dataclass
class HistoryRecord:
    patient_id: str
    conditions: list[str]
    medications: list[str]
    allergies: list[str]
    escalation_rule: EscalationRule

    @staticmethod
    def from_dict(d: dict) -> "HistoryRecord":
        try:
            return HistoryRecord(
                patient_id=_typed(d, "patient_id", str),
                conditions=_strings(d, "conditions"),
                medications=_strings(d, "medications"),
                allergies=_strings(d, "allergies"),
                escalation_rule=EscalationRule.from_dict(d["escalation_rule"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad history entry: {exc}") from exc


def _typed(d: dict, key: str, kind: type):
    """`d[key]` if its JSON type is `kind`.  Nothing is coerced: a bool is not
    an int, and a string is not a list."""
    value = d[key]
    if type(value) is not kind:
        raise ValidationError(f"{key} must be a JSON {kind.__name__}, got {type(value).__name__}")
    return value


def _strings(d: dict, key: str) -> list[str]:
    values = _typed(d, key, list)
    if not all(type(v) is str for v in values):
        raise ValidationError(f"{key} must be a list of strings")
    return list(values)


def seeded_stream(seed: int, key: int) -> np.random.Generator:
    """Purpose stream `key` of `seed`: distinct SeedSequence spawn keys give
    independent streams for one seed."""
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def _apportion(total: int, shares) -> list[tuple]:
    """Largest-remainder rounding of `share * total` to integers summing to
    total, as `(value, count)` pairs."""
    raw = [s * total for _, s in shares]
    counts = [int(x) for x in raw]
    remainders = [x - c for x, c in zip(raw, counts)]
    short = total - sum(counts)
    # hand out the missing units to the largest remainders (ties: first wins)
    order = sorted(range(len(shares)), key=lambda i: (-remainders[i], i))
    for i in order[:short]:
        counts[i] += 1
    return [(value, count) for (value, _), count in zip(shares, counts)]


def _shuffled(rng: np.random.Generator, counts) -> list:
    """Each value of the `(value, count)` pairs repeated its count, in random
    order."""
    values = [value for value, count in counts for _ in range(count)]
    return [values[i] for i in rng.permutation(len(values))]


def generate_dataset(seed: int = 42) -> tuple[list[Patient], dict[str, HistoryRecord]]:
    """Build the 368-patient cohort plus its 120-record history store.

    Deterministic per seed.  Face-urgency counts and demographic marginals are
    exact for every seed (attribute columns are fixed-count lists shuffled
    independently); only the co-occurrence pattern varies.
    """
    rng = seeded_stream(seed, _STREAM_PATIENTS)
    urgency_col = _shuffled(rng, [(level, level.face_count) for level in _DEAL_ORDER])
    band_col = _shuffled(rng, _apportion(N_PATIENTS, [(band, band.share) for band in AgeBand]))
    gender_col = _shuffled(rng, _apportion(N_PATIENTS, GENDER_SHARES))
    locality_col = _shuffled(rng, _apportion(N_PATIENTS, LOCALITY_SHARES))
    language_col = _shuffled(rng, _apportion(N_PATIENTS, LANGUAGE_SHARES))
    payment_col = _shuffled(rng, _apportion(N_PATIENTS, PAYMENT_SHARES))
    specialty_col = _assign_specialties(rng, band_col, gender_col)

    patients: list[Patient] = []
    for i in range(N_PATIENTS):
        band = band_col[i]
        lo, hi = band.ages
        age = int(rng.integers(lo, hi + 1))
        urgency = urgency_col[i]
        a_lo, a_hi = urgency.acuity_band
        acuity = int(rng.integers(a_lo, a_hi + 1))
        options = COMPLAINTS[(urgency, specialty_col[i])]
        complaint = options[int(rng.integers(0, len(options)))]
        patients.append(
            Patient(
                patient_id=f"P{i + 1:04d}",
                age=age,
                age_band=band,
                gender=gender_col[i],
                locality=locality_col[i],
                language=language_col[i],
                payment=payment_col[i],
                complaint=complaint,
                face_urgency=urgency,
                face_acuity=acuity,
                required_specialty=specialty_col[i],
            )
        )

    history = generate_history_store(patients, seed)
    return patients, history


def _assign_specialties(rng, band_col, gender_col) -> list[Specialty]:
    """Exact-count specialty demand with two realism constraints: pediatric
    demand sits on pediatric-band patients, obgyn demand on adult female
    patients.  The other specialties are dealt over the remaining patients."""
    counts = dict(_apportion(N_PATIENTS, SPECIALTY_SHARES))
    col: list[Specialty | None] = [None] * N_PATIENTS
    constrained = (
        (Specialty.PEDIATRICS, lambda i: band_col[i] is AgeBand.PEDIATRIC),
        (Specialty.OBGYN, lambda i: gender_col[i] == "F" and band_col[i] is not AgeBand.PEDIATRIC),
    )
    for specialty, eligible in constrained:
        need = counts.pop(specialty)
        idx = [i for i in range(N_PATIENTS) if col[i] is None and eligible(i)]
        if len(idx) < need:
            raise ValidationError(f"not enough eligible patients for {specialty.value} demand")
        for i in rng.choice(idx, size=need, replace=False):
            col[int(i)] = specialty
    open_idx = [i for i in range(N_PATIENTS) if col[i] is None]
    for i, specialty in zip(open_idx, _shuffled(rng, counts.items())):
        col[i] = specialty
    return col  # type: ignore[return-value]


def _pick_archetype_host(rng, spec: dict, pool: list[Patient], taken) -> Patient:
    """Choose a face-LOW history-eligible patient, not in `taken`, to carry an
    archetype record, and give it the archetype's complaint.

    Prefers an exact demographic match (gender + age band + general-medicine
    demand), then the same gender and band, then the same gender; the age is
    set only when the band matches, so no marginal-bearing field moves.
    """
    same_gender = [p for p in pool if p.patient_id not in taken and p.gender == spec["gender"]]
    band = next(b for b in AgeBand if b.ages[0] <= spec["age"] <= b.ages[1])
    same_band = [p for p in same_gender if p.age_band is band]
    exact = [p for p in same_band if p.required_specialty is Specialty.GENERAL_MEDICINE]
    for cand in (exact, same_band, same_gender):
        if cand:
            host = cand[int(rng.integers(0, len(cand)))]
            if host.age_band is band:
                host.age = spec["age"]
            host.complaint = spec["complaint"]
            return host
    raise ValidationError(f"no eligible host patient for archetype {spec['key']}")


def generate_history_store(patients: list[Patient], seed: int) -> dict[str, HistoryRecord]:
    """Attach longitudinal records to exactly 120 eligible patients.

    Eligible = non-critical face urgency and non-pediatric age band.  Resets
    and re-marks `has_history` on the given patients.
    """
    rng = seeded_stream(seed, _STREAM_HISTORY)
    by_face: dict[UrgencyLevel, list[Patient]] = {level: [] for level in _DEAL_ORDER if level.history_count}
    for p in patients:
        p.has_history = False
        if p.face_urgency in by_face and p.age_band is not AgeBand.PEDIATRIC:
            by_face[p.face_urgency].append(p)
    for level, eligible in by_face.items():
        if len(eligible) < level.history_count:
            raise ValidationError(f"not enough eligible {level.value}-urgency patients for history")

    hosts: dict[str, dict] = {}  # patient id -> archetype spec
    chosen: list[Patient] = []
    for spec in ARCHETYPES:
        host = _pick_archetype_host(rng, spec, by_face[UrgencyLevel.LOW], hosts)
        hosts[host.patient_id] = spec
        chosen.append(host)
    for level, eligible in by_face.items():
        pool = [p for p in eligible if p.patient_id not in hosts]
        hosted = len(eligible) - len(pool)
        picks = rng.choice(len(pool), size=level.history_count - hosted, replace=False)
        chosen.extend(pool[i] for i in sorted(picks.tolist()))

    # Face-HIGH records can only rise to CRITICAL; a fixed handful of the
    # other non-archetype records are hidden-critical, the rest rise to HIGH.
    rest = [
        p.patient_id for p in chosen
        if p.patient_id not in hosts and p.face_urgency is not UrgencyLevel.HIGH
    ]
    picks = rng.choice(len(rest), size=N_EXTRA_CRITICAL_TARGETS, replace=False)
    hidden_critical = {rest[i] for i in picks.tolist()}
    conditions = _deal_conditions(rng, chosen, hosts)

    records: dict[str, HistoryRecord] = {}
    for p in chosen:
        pid, conds = p.patient_id, conditions[p.patient_id]
        meds = list(dict.fromkeys(m for c in conds if c in CONDITIONS for m in CONDITIONS[c].medications))
        spec = hosts.get(pid)
        if spec is not None:
            rule = EscalationRule(spec["target"], spec["reason"])
            # the spec's medications that no condition brings lead, last first
            meds = [m for m in reversed(spec["medications"]) if m not in meds] + meds
            allergies = list(spec["allergies"])
        else:
            critical = p.face_urgency is UrgencyLevel.HIGH or pid in hidden_critical
            target = UrgencyLevel.CRITICAL if critical else UrgencyLevel.HIGH
            rule = EscalationRule(target, CONDITIONS[conds[0]].reason)
            allergies = []
            if rng.random() < ALLERGY_RATE:
                allergies.append(ALLERGY_POOL[int(rng.integers(0, len(ALLERGY_POOL)))])
        records[pid] = HistoryRecord(pid, conds, meds, allergies, rule)
        p.has_history = True

    if len(records) != N_HISTORY:
        raise ValidationError(f"history store has {len(records)} records, wanted {N_HISTORY}")
    _validate_dataset(patients, records)
    counts = collections.Counter(c for rec in records.values() for c in set(rec.conditions))
    for name, cond in CONDITIONS.items():
        if counts[name] != cond.carriers:
            raise ValidationError(f"condition {name!r}: {counts[name]} patients, wanted {cond.carriers}")
    return records


def _deal_conditions(rng, chosen: list[Patient], hosts: dict[str, dict]) -> dict[str, list[str]]:
    """Two-phase deal hitting the unique-patient condition counts exactly.

    Archetype hosts start with their spec's conditions, the counted ones
    taken off the deal.  Phase A covers every other record with one
    condition; phase B spreads the remaining tags as comorbidities over
    non-carriers.  High-risk pregnancy only lands on female young-adult/adult
    patients.
    """
    remaining = {name: cond.carriers for name, cond in CONDITIONS.items()}
    conditions: dict[str, list[str]] = {p.patient_id: [] for p in chosen}
    for pid, spec in hosts.items():
        conditions[pid].extend(spec["conditions"])
        for cond in spec["conditions"]:
            if cond in remaining:
                remaining[cond] -= 1

    uncovered = [p for p in chosen if p.patient_id not in hosts]
    uncovered = [uncovered[i] for i in rng.permutation(len(uncovered))]
    tokens = [
        cond for cond in sorted(remaining, key=lambda c: -remaining[c]) for _ in range(remaining[cond])
    ]

    def hrp_ok(p: Patient) -> bool:
        return p.gender == "F" and p.age_band in (AgeBand.YOUNG_ADULT, AgeBand.ADULT)

    # phase A: one condition each (token order keeps high-count conditions up
    # front, so the pregnancy constraint never binds here; assert regardless)
    for p, cond in zip(uncovered, tokens):
        if cond == "high-risk pregnancy" and not hrp_ok(p):
            raise ValidationError("condition deal hit an ineligible pregnancy assignment")
        conditions[p.patient_id].append(cond)

    # phase B: leftovers become comorbidities
    for cond in tokens[len(uncovered):]:
        pool = [
            p for p in chosen
            if cond not in conditions[p.patient_id] and (cond != "high-risk pregnancy" or hrp_ok(p))
        ]
        if not pool:
            raise ValidationError(f"no eligible patient left for condition {cond!r}")
        p = pool[int(rng.integers(0, len(pool)))]
        conditions[p.patient_id].append(cond)

    return conditions


# ---------------------------------------------------------------------------
# serialization

DATASET_SCHEMA_VERSION = 1


def dataset_to_dict(patients: list[Patient], history: dict[str, HistoryRecord]) -> dict:
    """The cohort as JSON types, fields in declaration order and enums as
    their values: what `dataclasses.asdict` would give, without its deep copy."""
    return {
        "schema_version": DATASET_SCHEMA_VERSION,
        "patients": [
            vars(p) | {
                "age_band": p.age_band.value,
                "face_urgency": p.face_urgency.value,
                "required_specialty": p.required_specialty.value,
            }
            for p in patients
        ],
        "history": {
            pid: {
                "patient_id": rec.patient_id,
                "conditions": list(rec.conditions),
                "medications": list(rec.medications),
                "allergies": list(rec.allergies),
                "escalation_rule": {
                    "target": rec.escalation_rule.target.value,
                    "reason": rec.escalation_rule.reason,
                },
            }
            for pid, rec in sorted(history.items())
        },
    }


def dataset_from_dict(d: dict) -> tuple[list[Patient], dict[str, HistoryRecord]]:
    try:
        version = _typed(d, "schema_version", int)
        raw_patients = _typed(d, "patients", list)
        raw_history = _typed(d, "history", dict)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"dataset file missing section: {exc}") from exc
    if version != DATASET_SCHEMA_VERSION:
        raise ValidationError(f"dataset schema_version {version}, expected {DATASET_SCHEMA_VERSION}")
    patients = [Patient.from_dict(x) for x in raw_patients]
    history = {pid: HistoryRecord.from_dict(x) for pid, x in raw_history.items()}
    _validate_dataset(patients, history)
    return patients, history


def _validate_dataset(patients: list[Patient], history: dict[str, HistoryRecord]) -> None:
    if len(patients) != N_PATIENTS:
        raise ValidationError(f"dataset has {len(patients)} patients, schema requires {N_PATIENTS}")
    ids = [p.patient_id for p in patients]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate patient ids")
    by_id = {p.patient_id: p for p in patients}
    for p in patients:
        lo, hi = p.face_urgency.acuity_band
        if not (lo <= p.face_acuity <= hi):
            raise ValidationError(f"{p.patient_id}: acuity {p.face_acuity} outside {p.face_urgency.value} band")
        if not (p.age_band.ages[0] <= p.age <= p.age_band.ages[1]):
            raise ValidationError(f"{p.patient_id}: age {p.age} outside the {p.age_band.value} band")
    for pid, rec in history.items():
        if pid != rec.patient_id or pid not in by_id:
            raise ValidationError(f"history key {pid!r} does not match a patient")
        p = by_id[pid]
        if p.face_urgency is UrgencyLevel.CRITICAL:
            raise ValidationError(f"{pid}: history on critical-face patient")
        if rec.escalation_rule.target.rank <= p.face_urgency.rank:
            raise ValidationError(f"{pid}: escalation target not above face urgency")
    flagged = {p.patient_id for p in patients if p.has_history}
    if flagged != set(history):
        raise ValidationError("has_history flags disagree with history store keys")


def dataset_fingerprint(patients: list[Patient], history: dict[str, HistoryRecord]) -> str:
    canonical = json.dumps(dataset_to_dict(patients, history), sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()
