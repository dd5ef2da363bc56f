"""The registration stage against the event-driven desks it replaced.

`engine.registration_stage` runs the desks ahead of the event loop.  The
reference below is the loop's former desk logic: arrivals and registration
ends on one heap ordered by (time, precedence, push order), with scalar
normal draws.  The two must agree on every registration end, its patient,
and the late and never-registered counts.
"""

import heapq
import itertools
import math
import sys
import tracemalloc
import warnings
from collections import deque

import numpy as np
import pytest

from opdsim.arrivals import default_profile, sample_arrivals
from opdsim.engine import (
    REG_MEAN_ASSISTED,
    REG_MEAN_MANUAL,
    REG_MIN,
    REG_STD,
    StrategyConfig,
    _normals,
    _positive_normal,
    _stream,
    registration_stage,
)
from opdsim.patients import N_PATIENTS, UrgencyLevel

_REG_DONE = 2
_ARRIVAL = 3


def _scalar_positive_normal(rng, mean, std, floor):
    if std == 0:
        return max(mean, floor)
    while True:
        x = float(rng.normal(mean, std))
        if x >= floor:
            return x


def _reference_desks(arrivals, rng, config):
    """(done time, patient id) in pop order, late count, never-registered count."""
    close = config.session_minutes
    heap, seq = [], itertools.count()
    for t, patient in arrivals:
        heapq.heappush(heap, (t, _ARRIVAL, next(seq), patient))
    free, queue, done, late = config.registration_desks, deque(), [], 0

    def start(t, patient):
        nonlocal free
        free -= 1
        dur = _scalar_positive_normal(
            rng, config.registration_mean, config.registration_std, REG_MIN
        )
        heapq.heappush(heap, (t + dur, _REG_DONE, next(seq), patient))

    while heap:
        t, kind, _seq, patient = heapq.heappop(heap)
        if kind == _ARRIVAL:
            if free > 0:
                start(t, patient)
            else:
                queue.append(patient)
            continue
        free += 1
        if queue and t < close:
            start(t, queue.popleft())
        if t >= close:
            late += 1
        done.append((t, patient.patient_id))
    return done, late, len(queue)


@pytest.fixture(scope="module")
def arrivals_by_seed(dataset42):
    patients, _history = dataset42
    out = {}
    for seed in range(1000, 1005):
        times = sample_arrivals(default_profile(), _stream(seed, 0))
        order = _stream(seed, 1).permutation(N_PATIENTS)
        out[seed] = [(float(t), patients[int(i)]) for t, i in zip(times, order)]
    return out


def _check(arrivals, seed, config):
    entrants, late, unregistered = registration_stage(arrivals, _stream(seed, 2), config)
    ref_done, ref_late, ref_unregistered = _reference_desks(arrivals, _stream(seed, 2), config)
    assert [(t, p.patient_id) for t, p in entrants + late] == ref_done
    assert all(t < config.session_minutes for t, _ in entrants)
    assert all(t >= config.session_minutes for t, _ in late)
    assert len(late) == ref_late
    assert unregistered == ref_unregistered
    assert len(entrants) + len(late) + unregistered == len(arrivals)


@pytest.mark.parametrize("seed", range(1000, 1005))
def test_stage_matches_event_driven_desks(arrivals_by_seed, seed):
    arrivals = arrivals_by_seed[seed]
    grid = itertools.product(
        (1, 2, 4, 8), (0.0, REG_STD), (20.0, 200.0, 360.0), (REG_MEAN_ASSISTED, REG_MEAN_MANUAL)
    )
    for desks, std, minutes, mean in grid:
        config = StrategyConfig(
            registration_desks=desks,
            registration_std=std,
            session_minutes=minutes,
            registration_mean=mean,
        )
        _check(arrivals, seed, config)
    # Below the floor every registration takes exactly REG_MIN.
    for desks in (1, 4):
        config = StrategyConfig(
            registration_desks=desks, registration_mean=0.3, registration_std=0.0
        )
        _check(arrivals, seed, config)
    # Heavy rejection: about half the draws fall below REG_MIN, so the floor
    # drops values across many blocks of draws.
    for desks in (1, 4):
        config = StrategyConfig(
            registration_desks=desks, registration_mean=0.6, registration_std=2.0
        )
        _check(arrivals, seed, config)


def test_desks_beyond_the_arrivals_allocate_nothing(arrivals_by_seed):
    # A desk that no arrival reaches is never taken, so a desk count from a
    # config file neither sizes an allocation nor changes the output.
    arrivals = arrivals_by_seed[1000]
    tracemalloc.start()
    try:
        huge = registration_stage(
            arrivals, _stream(1000, 2), StrategyConfig(registration_desks=10**7)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    exact = StrategyConfig(registration_desks=len(arrivals))
    assert huge == registration_stage(arrivals, _stream(1000, 2), exact)


def test_stage_same_time_rules(dataset42):
    # Sampled times never coincide, so exact ties are built by hand.  Two
    # registrations end at closing time, in start order, each freeing its
    # desk before the arrivals at that instant take both desks.
    patients, _history = dataset42
    arrivals = list(zip((0.0, 0.0, 1.0, 1.0), patients[:4]))
    config = StrategyConfig(
        registration_desks=2, registration_mean=1.0, registration_std=0.0, session_minutes=1.0
    )
    entrants, late, unregistered = registration_stage(arrivals, _stream(0, 2), config)
    assert entrants == []  # every registration ends at or after closing
    assert [(t, p.patient_id) for t, p in late] == [
        (1.0, patients[0].patient_id),
        (1.0, patients[1].patient_id),
        (2.0, patients[2].patient_id),
        (2.0, patients[3].patient_id),
    ]
    assert unregistered == 0
    _check(arrivals, 0, config)
    # One desk freeing exactly at closing takes nobody who waited for it, but
    # an arrival at that instant still finds it free.
    arrivals = list(zip((0.0, 0.5, 1.0), patients[:3]))
    config = StrategyConfig(
        registration_desks=1, registration_mean=1.0, registration_std=0.0, session_minutes=1.0
    )
    entrants, late, unregistered = registration_stage(arrivals, _stream(0, 2), config)
    assert entrants == []
    assert [(t, p.patient_id) for t, p in late] == [
        (1.0, patients[0].patient_id),
        (2.0, patients[2].patient_id),
    ]
    assert unregistered == 1
    _check(arrivals, 0, config)


def test_positive_normal_without_spread_reads_no_draw():
    # With no spread the floor is the whole rule, below the mean or above it.
    for mean in (0.3, REG_MIN, REG_MEAN_MANUAL):
        z = iter([7.0])
        assert _positive_normal(z, mean, 0.0, REG_MIN) == max(mean, REG_MIN)
        assert next(z) == 7.0


def test_overflowing_durations_read_inf_and_end_at_the_largest_float(arrivals_by_seed):
    # `mean + std * z` overflows to inf for z above ~0.06, without a warning;
    # the stage clamps such an end to the largest float, after closing.
    huge = 1.7e308
    arrivals = arrivals_by_seed[1000]
    config = StrategyConfig(
        registration_desks=len(arrivals), registration_mean=huge, registration_std=huge
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = _normals(_stream(1000, 2))
        draws = [_positive_normal(z, huge, huge, REG_MIN) for _ in range(len(arrivals))]
        entrants, late, unregistered = registration_stage(arrivals, _stream(1000, 2), config)
    assert math.inf in draws and min(draws) >= REG_MIN
    assert entrants == [] and unregistered == 0
    ends = [min(t + x, sys.float_info.max) for (t, _), x in zip(arrivals, draws)]
    assert sorted(ends) == [t for t, _ in late]
    assert max(ends) == sys.float_info.max


# The block draws rely on two NumPy identities, pinned here for the values
# and for the bit generator's state after the draws.

SERVICE_PARAMS = [
    (REG_MEAN_ASSISTED, REG_STD), (REG_MEAN_MANUAL, REG_STD), *(lvl.consult for lvl in UrgencyLevel)
]


@pytest.mark.parametrize("seed", [0, 7, 1000])
def test_block_standard_normals_equal_scalar_draws(seed):
    block, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    values = block.standard_normal(5000).tolist()
    assert values == [float(scalar.standard_normal()) for _ in range(5000)]
    assert block.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("mean, std", SERVICE_PARAMS)
def test_normal_is_mean_plus_std_times_standard_normal(mean, std):
    # Composed one scalar at a time, and as one array: the same floats.
    for seed in range(20):
        direct, composed, block = (np.random.default_rng(seed) for _ in range(3))
        values = [float(direct.normal(mean, std)) for _ in range(500)]
        assert values == [mean + std * float(composed.standard_normal()) for _ in range(500)]
        assert values == (mean + std * block.standard_normal(500)).tolist()
        assert direct.bit_generator.state == composed.bit_generator.state == block.bit_generator.state
