"""Assignment scoring and the three dispatch policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opdsim.assignment import (
    AssignmentScore,
    MATCH_EXACT,
    MATCH_GENERALIST,
    MATCH_NONE,
    Physician,
    PhysicianStatus,
    assign,
    assign_round_robin,
    assign_rule_based,
    assign_scored,
    default_roster,
    score_assignment,
)
from opdsim.errors import ValidationError
from opdsim.patients import Specialty


def _patient(specialty):
    """Minimal stand-in: scoring only reads required_specialty."""

    class _P:
        required_specialty = specialty

    return _P()


def test_default_roster_composition():
    roster = default_roster()
    assert len(roster) == 6
    specs = [p.specialty for p in roster]
    assert specs.count(Specialty.GENERAL_MEDICINE) == 2
    for s in (Specialty.PEDIATRICS, Specialty.OBGYN, Specialty.ORTHOPEDICS, Specialty.SURGERY):
        assert specs.count(s) == 1
    assert all(p.status is PhysicianStatus.IDLE for p in roster)
    assert all(p.queue_length == 0 for p in roster)


def test_score_hand_anchor_best_case():
    """Exact specialty + empty queue + idle = 0.50 + 0.30 + 0.20 = 1.00."""
    roster = default_roster()
    ped = next(p for p in roster if p.specialty is Specialty.PEDIATRICS)
    score = score_assignment(_patient(Specialty.PEDIATRICS), ped, roster)
    assert abs(score.total - 1.00) < 1e-12
    assert score.specialty_match == MATCH_EXACT


def test_score_hand_anchor_worst_case():
    """Specialty miss (non-generalist) + fullest queue + busy = 0.00."""
    roster = default_roster()
    surg = next(p for p in roster if p.specialty is Specialty.SURGERY)
    surg.queue_length = 5
    surg.status = PhysicianStatus.BUSY
    for p in roster:
        if p is not surg:
            p.queue_length = 0
    score = score_assignment(_patient(Specialty.OBGYN), surg, roster)
    assert abs(score.total - 0.00) < 1e-12
    assert score.specialty_match == MATCH_NONE


def test_generalist_fallback_weight():
    roster = default_roster()
    gm = next(p for p in roster if p.specialty is Specialty.GENERAL_MEDICINE)
    score = score_assignment(_patient(Specialty.ORTHOPEDICS), gm, roster)
    assert score.specialty_match == MATCH_GENERALIST
    # idle + empty queue: 0.5*0.5 + 0.3*1 + 0.2*1 = 0.75
    assert abs(score.total - 0.75) < 1e-12


def test_total_recomputed_in_constructor():
    s = AssignmentScore(physician_id="X", specialty_match=1.0, load_balance=0.5, availability=0.0)
    assert abs(s.total - (0.5 + 0.15)) < 1e-12


@given(
    match=st.sampled_from([0.0, 0.5, 1.0]),
    queue=st.integers(min_value=0, max_value=40),
    longest=st.integers(min_value=0, max_value=40),
    busy=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_score_bounded(match, queue, longest, busy):
    longest = max(longest, queue)
    roster = default_roster()
    target = roster[2]
    target.queue_length = queue
    target.status = PhysicianStatus.BUSY if busy else PhysicianStatus.IDLE
    roster[0].queue_length = longest
    spec = {
        0.0: Specialty.OBGYN if target.specialty is not Specialty.OBGYN else Specialty.SURGERY,
        0.5: Specialty.ORTHOPEDICS,  # GM handles it at half weight
        1.0: target.specialty,
    }[match]
    physician = target if match != 0.5 else next(
        p for p in roster if p.specialty is Specialty.GENERAL_MEDICINE
    )
    score = score_assignment(_patient(spec), physician, roster)
    assert 0.0 <= score.total <= 1.0


def test_argmax_prefers_exact_specialist():
    roster = default_roster()
    chosen = assign_scored(_patient(Specialty.ORTHOPEDICS), roster, 1)
    assert chosen.specialty is Specialty.ORTHOPEDICS


def test_argmax_invariant_under_roster_permutation():
    roster = default_roster()
    roster[1].queue_length = 3
    roster[3].queue_length = 1
    chosen = assign_scored(_patient(Specialty.GENERAL_MEDICINE), roster, 3)
    reordered = list(reversed(roster))
    assert assign_scored(_patient(Specialty.GENERAL_MEDICINE), reordered, 3).physician_id == chosen.physician_id


# A room: specialty, status and queue length; short queues make ties common.
_ROOM = st.tuples(
    st.sampled_from(list(Specialty)),
    st.sampled_from(list(PhysicianStatus)),
    st.integers(min_value=0, max_value=5),
)


@given(
    rooms=st.lists(_ROOM, min_size=1, max_size=8),
    ids=st.permutations(range(8)),
    need=st.sampled_from(list(Specialty)),
)
@settings(derandomize=True, max_examples=200, deadline=None)
def test_assign_scored_takes_the_best_public_score(rooms, ids, need):
    # The one-pass pick, given max(1, longest queue), is the highest
    # score_assignment total, ties to the lowest id; ids are shuffled so
    # roster order is not id order.
    roster = [Physician(f"R{k}", *room) for k, room in zip(ids, rooms)]
    patient = _patient(need)
    want = min(roster, key=lambda p: (-score_assignment(patient, p, roster).total, p.physician_id))
    assert assign_scored(patient, roster, max(1, max(p.queue_length for p in roster))) is want


def test_round_robin_cycles_in_roster_order():
    roster = default_roster()
    seen = [assign_round_robin(roster, c).physician_id for c in range(12)]
    ids = [p.physician_id for p in roster]
    assert seen == ids + ids


def test_rule_based_exact_pool_min_queue():
    roster = default_roster()
    gms = [p for p in roster if p.specialty is Specialty.GENERAL_MEDICINE]
    gms[0].queue_length = 4
    gms[1].queue_length = 2
    chosen = assign_rule_based(_patient(Specialty.GENERAL_MEDICINE), roster)
    assert chosen is gms[1]


def test_rule_based_tie_breaks_on_lowest_id():
    roster = default_roster()
    chosen = assign_rule_based(_patient(Specialty.GENERAL_MEDICINE), roster)
    gm_ids = sorted(p.physician_id for p in roster if p.specialty is Specialty.GENERAL_MEDICINE)
    assert chosen.physician_id == gm_ids[0]


def test_rule_based_falls_back_to_whole_roster():
    roster = [
        Physician(physician_id="D1", specialty=Specialty.PEDIATRICS),
        Physician(physician_id="D2", specialty=Specialty.SURGERY),
    ]
    roster[0].queue_length = 7
    chosen = assign_rule_based(_patient(Specialty.OBGYN), roster)
    assert chosen.physician_id == "D2"


def test_dispatcher_and_errors():
    roster = default_roster()
    assert assign(_patient(Specialty.OBGYN), roster, "fcfs", rr_cursor=2) is roster[2]
    assert assign(_patient(Specialty.OBGYN), roster, "rule_based").specialty is Specialty.OBGYN
    assert assign(_patient(Specialty.OBGYN), roster, "agentic").specialty is Specialty.OBGYN
    with pytest.raises(ValidationError):
        assign(_patient(Specialty.OBGYN), [], "fcfs")
    with pytest.raises(ValidationError):
        assign(_patient(Specialty.OBGYN), roster, "priority")
