"""Cohort generator: fixed marginals, archetype records, serialization."""

import collections
import hashlib
import json
import pickle
from dataclasses import asdict
from enum import Enum

import numpy as np
import pytest

from opdsim import generate_dataset
from opdsim.errors import ValidationError
from opdsim.patients import (
    ARCHETYPES,
    CONDITIONS,
    DATASET_SCHEMA_VERSION,
    N_HISTORY,
    N_PATIENTS,
    AgeBand,
    Patient,
    Specialty,
    UrgencyLevel,
    _pick_archetype_host,
    dataset_fingerprint,
    dataset_from_dict,
    dataset_to_dict,
)

FACE_COUNTS = {
    UrgencyLevel.CRITICAL: 13,
    UrgencyLevel.HIGH: 36,
    UrgencyLevel.MEDIUM: 158,
    UrgencyLevel.LOW: 161,
}


def test_urgency_levels_carry_their_rank_and_score():
    assert [lvl.value for lvl in UrgencyLevel] == ["low", "medium", "high", "critical"]
    assert [lvl.rank for lvl in UrgencyLevel] == [0, 1, 2, 3]
    assert [lvl.u_score for lvl in UrgencyLevel] == [0.25, 0.50, 0.75, 1.0]
    for lvl in UrgencyLevel:
        assert UrgencyLevel(lvl.value) is lvl
        assert pickle.loads(pickle.dumps(lvl)) is lvl
    assert UrgencyLevel.LOW.next_higher() is UrgencyLevel.MEDIUM
    with pytest.raises(ValueError):
        UrgencyLevel.CRITICAL.next_higher()
    with pytest.raises(ValueError):
        UrgencyLevel(("low", 0, 0.25))


def test_level_table_fits_the_cohort_generator():
    levels = list(UrgencyLevel)
    assert {lvl: lvl.face_count for lvl in levels} == FACE_COUNTS
    assert sum(lvl.face_count for lvl in levels) == N_PATIENTS
    assert sum(lvl.history_count for lvl in levels) == N_HISTORY
    assert UrgencyLevel.CRITICAL.history_count == 0
    for lower, higher in zip(levels, levels[1:]):
        assert lower.acuity_band[1] < higher.acuity_band[0], (lower, higher)
    assert UrgencyLevel.LOW.escalation_acuity is None
    for lvl in levels:
        lo, hi = lvl.acuity_band
        assert 1 <= lo <= hi <= 10, lvl
        if lvl is not UrgencyLevel.LOW:
            assert lo <= lvl.escalation_acuity <= hi, lvl


def test_cohort_size_and_face_counts(dataset42):
    patients, history = dataset42
    assert len(patients) == N_PATIENTS == 368
    assert len(history) == N_HISTORY == 120
    counts = collections.Counter(p.face_urgency for p in patients)
    assert counts == FACE_COUNTS


def test_face_counts_hold_for_any_seed():
    for seed in (0, 7, 1234):
        patients, history = generate_dataset(seed)
        counts = collections.Counter(p.face_urgency for p in patients)
        assert counts == FACE_COUNTS
        assert len(history) == N_HISTORY


def test_acuity_consistent_with_urgency(dataset42):
    patients, _ = dataset42
    bands = {
        UrgencyLevel.CRITICAL: (9, 10),
        UrgencyLevel.HIGH: (7, 8),
        UrgencyLevel.MEDIUM: (4, 6),
        UrgencyLevel.LOW: (1, 3),
    }
    for p in patients:
        lo, hi = bands[p.face_urgency]
        assert lo <= p.face_acuity <= hi, p.patient_id


def test_age_bands_tile_the_ages_and_fix_the_band_counts(dataset42):
    patients, _ = dataset42
    bands = list(AgeBand)
    assert [b.value for b in bands] == ["pediatric", "young_adult", "adult", "middle_aged", "elderly"]
    assert all(lower.ages[1] + 1 == higher.ages[0] for lower, higher in zip(bands, bands[1:]))
    assert sum(b.share for b in bands) == pytest.approx(1.0)
    counts = collections.Counter(p.age_band for p in patients)
    assert [counts[b] for b in bands] == [55, 74, 92, 81, 66]  # largest-remainder shares of 368
    for p in patients:
        lo, hi = p.age_band.ages
        assert lo <= p.age <= hi, p.patient_id


def test_specialty_distribution(dataset42):
    patients, _ = dataset42
    counts = collections.Counter(p.required_specialty for p in patients)
    assert counts[Specialty.GENERAL_MEDICINE] == 184
    for s in (Specialty.PEDIATRICS, Specialty.OBGYN, Specialty.ORTHOPEDICS, Specialty.SURGERY):
        assert counts[s] == 46


def test_history_attachment_rules(dataset42):
    patients, history = dataset42
    by_id = {p.patient_id: p for p in patients}
    for pid, record in history.items():
        patient = by_id[pid]
        assert patient.has_history
        assert record.patient_id == pid
        # Records never sit on face-critical or pediatric patients.
        assert patient.face_urgency is not UrgencyLevel.CRITICAL
        assert patient.age_band is not AgeBand.PEDIATRIC
        # Escalation must point strictly upward from the face level.
        assert record.escalation_rule.target.rank > patient.face_urgency.rank
        assert record.escalation_rule.reason
    flagged = {p.patient_id for p in patients if p.has_history}
    assert flagged == set(history)


def test_history_target_split(dataset42):
    _, history = dataset42
    targets = collections.Counter(r.escalation_rule.target for r in history.values())
    assert targets[UrgencyLevel.CRITICAL] == 12
    assert targets[UrgencyLevel.HIGH] == 108


def test_condition_prevalence_counts(dataset42):
    _, history = dataset42
    seen: dict[str, int] = collections.defaultdict(int)
    for record in history.values():
        for c in set(record.conditions):
            if c in CONDITIONS:
                seen[c] += 1
    assert dict(seen) == {name: cond.carriers for name, cond in CONDITIONS.items()}


def test_deterioration_archetypes_present(dataset42):
    patients, history = dataset42
    by_id = {p.patient_id: p for p in patients}

    def find(fragment):
        hits = [r for r in history.values() if fragment in r.escalation_rule.reason]
        assert hits, fragment
        return hits[0]

    tia = find("TIA")
    host = by_id[tia.patient_id]
    assert tia.escalation_rule.target is UrgencyLevel.CRITICAL
    assert host.face_urgency is UrgencyLevel.LOW
    assert host.age == 62 and host.gender == "M"
    assert "headache" in host.complaint.lower()

    warfarin = find("Warfarin")
    assert warfarin.escalation_rule.target is UrgencyLevel.CRITICAL
    assert "Warfarin" in warfarin.medications

    epilepsy = find("status epilepticus")
    assert "Phenytoin" in epilepsy.allergies

    pregnancy = find("caesarean")
    host = by_id[pregnancy.patient_id]
    assert host.gender == "F"
    assert pregnancy.escalation_rule.target is UrgencyLevel.CRITICAL


def test_generation_is_deterministic():
    a = generate_dataset(99)
    b = generate_dataset(99)
    assert dataset_fingerprint(*a) == dataset_fingerprint(*b)
    assert dataset_to_dict(*a) == dataset_to_dict(*b)


def _asdict_dataset(patients, history) -> dict:
    """The `dataclasses.asdict` builder `dataset_to_dict` replaced, kept as
    its reference."""
    def json_fields(items):
        return {k: v.value if isinstance(v, Enum) else v for k, v in items}

    return {
        "schema_version": DATASET_SCHEMA_VERSION,
        "patients": [asdict(p, dict_factory=json_fields) for p in patients],
        "history": {
            pid: asdict(rec, dict_factory=json_fields) for pid, rec in sorted(history.items())
        },
    }


@pytest.mark.parametrize("seed", range(5))
def test_dataset_to_dict_matches_asdict(seed):
    cohort = generate_dataset(seed)
    got, want = dataset_to_dict(*cohort), _asdict_dataset(*cohort)
    assert got == want
    # Same key order too, so even unsorted JSON text is unchanged.
    assert json.dumps(got) == json.dumps(want)


def test_different_seeds_differ():
    a = generate_dataset(1)
    b = generate_dataset(2)
    assert dataset_fingerprint(*a) != dataset_fingerprint(*b)


def test_canonical_fingerprint(dataset42):
    fp = dataset_fingerprint(*dataset42)
    assert fp == "7252b4a9d5330df1c299f2c425ae8ee14a68b542166092de5ee8cea44ea8413a"


def test_cohort_fingerprints_across_seeds():
    # One digest over twenty cohorts: any change to a draw, its order or a
    # generated field moves it.
    lines = "".join(f"{seed} {dataset_fingerprint(*generate_dataset(seed))}\n" for seed in range(20))
    digest = hashlib.sha256(lines.encode()).hexdigest()
    assert digest == "36bdbb134432fd3538cc073557a57c41dc5e3bae04a5be3bcb0b6fe55e2cf3ed"


def _pool_patient(pid, gender, band, specialty):
    return Patient(
        patient_id=pid, age=40, age_band=band, gender=gender, locality="urban",
        language="hindi", payment="self_pay", complaint="orig",
        face_urgency=UrgencyLevel.LOW, face_acuity=2, required_specialty=specialty,
    )


def test_pick_archetype_host_falls_back_in_order():
    # Generated cohorts always find an exact match, so each tier is pinned here:
    # exact match, then same band, then same gender; the age moves only when
    # the band matches.
    spec = next(s for s in ARCHETYPES if s["key"] == "prior_tia")  # M, elderly, age 62
    gm, ortho = Specialty.GENERAL_MEDICINE, Specialty.ORTHOPEDICS
    pool = [
        _pool_patient("F-eld", "F", AgeBand.ELDERLY, gm),
        _pool_patient("M-adult", "M", AgeBand.ADULT, gm),
        _pool_patient("M-eld-ortho", "M", AgeBand.ELDERLY, ortho),
        _pool_patient("M-eld-gm", "M", AgeBand.ELDERLY, gm),
    ]
    rng = np.random.default_rng(0)
    taken: set[str] = set()
    for want, age in (("M-eld-gm", 62), ("M-eld-ortho", 62), ("M-adult", 40)):
        host = _pick_archetype_host(rng, spec, pool, taken)
        assert host.patient_id == want
        assert host.age == age
        assert host.complaint == spec["complaint"]
        taken.add(host.patient_id)
    with pytest.raises(ValidationError, match="no eligible host patient for archetype prior_tia"):
        _pick_archetype_host(rng, spec, pool, taken)


def test_serialization_round_trip(dataset42):
    patients, history = dataset42
    blob = json.dumps(dataset_to_dict(patients, history))
    p2, h2 = dataset_from_dict(json.loads(blob))
    assert dataset_fingerprint(p2, h2) == dataset_fingerprint(patients, history)


def test_bad_dataset_dict_rejected():
    with pytest.raises(ValidationError):
        dataset_from_dict({"patients": [{"patient_id": "X"}], "history": {}})


def test_wrong_cohort_size_rejected(dataset42):
    patients, history = dataset42
    d = dataset_to_dict(patients, history)
    d["patients"] = d["patients"][:-1]
    with pytest.raises(ValidationError):
        dataset_from_dict(d)
