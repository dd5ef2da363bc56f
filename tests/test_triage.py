"""Severity model: face triage, history escalation, drift draws."""

import collections
import math

import numpy as np
import pytest

from opdsim import engine
from opdsim.engine import StrategyConfig
from opdsim.errors import ValidationError
from opdsim.patients import UrgencyLevel
from opdsim.triage import (
    CalibratedTriageBackend,
    DriftParams,
    MIN_CHECK_INTERVAL,
    P_DRIFT_HIGH,
    P_DRIFT_LOW,
    P_DRIFT_MEDIUM,
    drift_index,
)


def _backend(seed=0, **params):
    return CalibratedTriageBackend(np.random.default_rng(seed), DriftParams(**params))


# -- face-value triage -------------------------------------------------------


def test_face_triage_is_a_pass_through(dataset42):
    patients, _ = dataset42
    backend = _backend()
    for p in patients[:60]:
        assert backend.triage_face_value(p) == (p.face_urgency, p.face_acuity)


def test_face_triage_critical_acuity(dataset42):
    patients, _ = dataset42
    backend = _backend()
    for p in patients:
        if p.face_urgency is UrgencyLevel.CRITICAL:
            _urgency, acuity = backend.triage_face_value(p)
            assert acuity in (9, 10)


def test_face_triage_archetype_is_low(dataset42):
    patients, _ = dataset42
    mild = [p for p in patients if p.complaint == "Mild headache, dizziness"]
    assert mild
    backend = _backend()
    urgency, _acuity = backend.triage_face_value(mild[0])
    assert urgency is UrgencyLevel.LOW


# -- history escalation ------------------------------------------------------


def _history_pair(dataset42, fragment):
    patients, history = dataset42
    by_id = {p.patient_id: p for p in patients}
    for record in history.values():
        if fragment in record.escalation_rule.reason:
            return by_id[record.patient_id], record
    raise AssertionError(fragment)


def test_memory_escalation_eventually_fires(dataset42):
    patient, record = _history_pair(dataset42, "TIA")
    backend = _backend(seed=3, p_history_escalation=0.5)
    rule = None
    for _ in range(200):
        rule = backend.assess_history_escalation(patient, record)
        if rule is not None:
            break
    assert rule is record.escalation_rule
    assert rule.target is UrgencyLevel.CRITICAL
    assert "TIA" in rule.reason


def test_memory_escalation_zero_probability_never_fires(dataset42):
    patient, record = _history_pair(dataset42, "TIA")
    backend = _backend(seed=3, p_history_escalation=0.0)
    for _ in range(200):
        assert backend.assess_history_escalation(patient, record) is None


def test_memory_escalation_requires_history(dataset42):
    patients, history = dataset42
    plain = next(p for p in patients if not p.has_history)
    record = next(iter(history.values()))
    backend = _backend()
    with pytest.raises(ValidationError):
        backend.assess_history_escalation(plain, record)


# -- drift ------------------------------------------------------------------


def test_drift_closed_form_low_level():
    """P(at least one drift over 15 checks at p_low = 0.02) = 1 - 0.98^15."""
    expected = 1.0 - (1.0 - P_DRIFT_LOW) ** 15
    assert math.isclose(expected, 0.26143, abs_tol=5e-6)
    hits = 0
    trials = 40_000
    backend = _backend(seed=11)
    for _ in range(trials):
        if any(
            backend.assess_drift(UrgencyLevel.LOW, False) is not None for _ in range(15)
        ):
            hits += 1
    assert abs(hits / trials - expected) < 0.01


def test_drift_monte_carlo_medium_rate():
    """Empirical Bernoulli rate 0.03 +/- 0.0005 over 10^6 draws."""
    params = DriftParams()
    rng = np.random.default_rng(5)
    n = 1_000_000
    p = params.drift_probability(UrgencyLevel.MEDIUM, has_history=False)
    assert p == P_DRIFT_MEDIUM == 0.03
    rate = float(np.mean(rng.random(n) < p))
    assert abs(rate - 0.03) < 0.0005


def test_drift_raises_one_level():
    backend = _backend(seed=2)
    for level, nxt in (
        (UrgencyLevel.LOW, UrgencyLevel.MEDIUM),
        (UrgencyLevel.MEDIUM, UrgencyLevel.HIGH),
        (UrgencyLevel.HIGH, UrgencyLevel.CRITICAL),
    ):
        seen = set()
        for _ in range(2000):
            out = backend.assess_drift(level, False)
            if out is not None:
                seen.add(out)
        assert seen == {nxt}


def test_drift_critical_input_rejected():
    backend = _backend()
    with pytest.raises(ValidationError):
        backend.assess_drift(UrgencyLevel.CRITICAL, False)
    # A critical level's drift index is 6 or 7, past the table's last row.
    for visible in (False, True):
        with pytest.raises(ValidationError):
            backend.assess_drift_batch(
                np.array([drift_index(UrgencyLevel.LOW.rank, False),
                          drift_index(UrgencyLevel.CRITICAL.rank, visible)])
            )
    highest = drift_index(UrgencyLevel.HIGH.rank, True)
    assert highest == 5 and backend.assess_drift_batch(np.array([highest])).shape == (1,)


@pytest.mark.parametrize("multiplier", [1.2, 40.0])
def test_drift_batch_matches_scalar_checks(multiplier):
    # A twin generator makes one scalar check per row; the batch must fire on
    # the same rows and leave the stream in the same place.  At 40x every
    # history-visible probability is capped at 1.
    params = dict(p_low=0.02, p_medium=0.3, p_high=0.1, history_multiplier=multiplier)
    batch, scalar = _backend(seed=11, **params), _backend(seed=11, **params)
    rng = np.random.default_rng(3)
    levels = [UrgencyLevel.LOW, UrgencyLevel.MEDIUM, UrgencyLevel.HIGH]
    for n in (0, 1, 7, 200):
        picked = [levels[k] for k in rng.integers(0, 3, n)]
        visible = rng.random(n) < 0.5
        fired = batch.assess_drift_batch(
            np.array([drift_index(lvl.rank, h) for lvl, h in zip(picked, visible)], dtype=np.intp)
        )
        expected = [
            scalar.assess_drift(lvl, bool(h)) is not None for lvl, h in zip(picked, visible)
        ]
        assert fired.tolist() == expected
        assert batch.rng.bit_generator.state == scalar.rng.bit_generator.state


def test_history_multiplier_scales_probability():
    params = DriftParams(history_multiplier=2.5)
    for level, base in (
        (UrgencyLevel.HIGH, P_DRIFT_HIGH),
        (UrgencyLevel.MEDIUM, P_DRIFT_MEDIUM),
        (UrgencyLevel.LOW, P_DRIFT_LOW),
    ):
        assert math.isclose(params.drift_probability(level, False), base)
        assert math.isclose(params.drift_probability(level, True), 2.5 * base)


def test_drift_probability_capped_at_one():
    params = DriftParams(history_multiplier=1000.0)
    assert params.drift_probability(UrgencyLevel.MEDIUM, True) == 1.0


def test_drift_params_validation():
    with pytest.raises(ValidationError):
        DriftParams(p_low=1.5)
    with pytest.raises(ValidationError):
        DriftParams(history_multiplier=-1.0)
    with pytest.raises(ValidationError):
        DriftParams(history_multiplier=float("nan"))
    with pytest.raises(ValidationError):
        DriftParams(check_interval=0.0)
    with pytest.raises(ValidationError):
        DriftParams(check_interval=MIN_CHECK_INTERVAL / 2)
    assert DriftParams(check_interval=MIN_CHECK_INTERVAL).check_interval == MIN_CHECK_INTERVAL


def test_drift_params_round_trip():
    params = DriftParams(history_multiplier=1.7, p_history_escalation=0.2)
    assert StrategyConfig.from_dict(StrategyConfig(drift=params).to_dict()).drift == params


# -- owed face-value uniforms ------------------------------------------------


class _EagerBackend(CalibratedTriageBackend):
    """Draws each face-value uniform at once, as the stream's layout says."""

    def triage_face_value(self, patient):
        self.rng.random()
        return patient.face_urgency, patient.face_acuity


@pytest.mark.parametrize("seed", [0, 5, 1000])
def test_owed_face_value_draws_read_the_stream_as_eager_ones(dataset42, seed):
    # Interleaved face-value, chart and drift calls: the owed-draw backend
    # gives the eager twin's answers, and after every real draw both
    # generators are in the same state.
    patients, history = dataset42
    charted = [p for p in patients if p.patient_id in history]
    params = dict(p_low=0.3, p_medium=0.5, p_high=0.2, p_history_escalation=0.5)
    owed = _backend(seed, **params)
    eager = _EagerBackend(np.random.default_rng(seed), DriftParams(**params))
    rng = np.random.default_rng(seed)
    kinds, real_draws = collections.Counter(), 0
    for step in range(400):
        kind = ("face", "face", "chart", "drift", "batch")[int(rng.integers(0, 5))]
        kinds[kind] += 1
        if kind == "face":
            p = patients[step % len(patients)]
            assert owed.triage_face_value(p) == eager.triage_face_value(p)
            continue
        if kind == "chart":
            p = charted[step % len(charted)]
            args = (p, history[p.patient_id])
            assert owed.assess_history_escalation(*args) == eager.assess_history_escalation(*args)
        elif kind == "drift":
            level = list(UrgencyLevel)[int(rng.integers(0, 3))]
            assert owed.assess_drift(level, step % 2 == 0) == eager.assess_drift(level, step % 2 == 0)
        else:
            n = int(rng.integers(0, 6))
            ranks = rng.integers(0, 3, n).astype(np.intp)
            visible = rng.random(n) < 0.5
            index = drift_index(ranks, visible)  # elementwise
            assert (owed.assess_drift_batch(index).tolist()
                    == eager.assess_drift_batch(index).tolist())
        real_draws += 1
        assert owed.rng.bit_generator.state == eager.rng.bit_generator.state
    assert real_draws > 100 and min(kinds.values()) > 40


def test_a_token_session_leaves_its_backend_stream_untouched(dataset42, monkeypatch):
    # The token arms grade every registrant at face value and run no checks,
    # so their backend owes every uniform and draws none.
    backends = []

    class Recording(CalibratedTriageBackend):
        def __init__(self, *args):
            super().__init__(*args)
            backends.append(self)

    monkeypatch.setattr(engine, "CalibratedTriageBackend", Recording)
    for strategy in ("fcfs", "rule_based"):
        backends.clear()
        res = engine.run_session(*dataset42, StrategyConfig(strategy=strategy), 1000)
        assert len(backends) == 1 and res.served
        fresh = engine._stream(1000, engine._STREAM_BACKEND)
        assert backends[0].rng.bit_generator.state == fresh.bit_generator.state
