"""Arrival-process sampling: profile shape, thinning correctness, determinism."""

import math

import numpy as np
import pytest

from opdsim import arrivals
from opdsim.arrivals import (
    IntensityProfile,
    default_profile,
    sample_arrivals,
    sample_poisson_process,
)
from opdsim.errors import ValidationError
from opdsim.patients import N_PATIENTS

SESSION = 360.0


def test_default_profile_shape():
    prof = default_profile()
    assert math.isclose(prof.integral(), 368.0, abs_tol=1e-6)
    assert prof.rate(90.0) > prof.rate(0.0) > prof.rate(360.0)
    assert math.isclose(prof.integral() / (prof.end_time - prof.start_time), 368.0 / 360.0,
                        rel_tol=1e-9)


def test_profile_rate_bounds():
    prof = default_profile()
    t = np.linspace(0.0, SESSION, 4001)
    rates = prof.rate(t)
    assert np.all(rates >= 0.0)
    assert np.all(rates <= prof.lambda_max + 1e-12)


def test_invalid_profiles_rejected():
    with pytest.raises(ValidationError):
        IntensityProfile(breakpoints=((0.0, -1.0), (360.0, 1.0)))
    with pytest.raises(ValidationError):
        IntensityProfile(breakpoints=((0.0, 0.0), (360.0, 0.0)))  # lambda_max = 0
    with pytest.raises(ValidationError):
        IntensityProfile(breakpoints=((10.0, 1.0),))  # single point
    for times in ((0.0, 0.0), (0.0, 360.0, 200.0)):
        with pytest.raises(ValidationError, match="strictly increasing"):
            IntensityProfile(breakpoints=tuple((t, 1.0) for t in times))


def test_sample_arrivals_contract():
    prof = default_profile()
    times = sample_arrivals(prof, seed_or_rng=123)
    assert len(times) == N_PATIENTS
    assert all(0.0 <= t <= SESSION for t in times)
    assert list(times) == sorted(times)
    again = sample_arrivals(prof, seed_or_rng=123)
    assert np.array_equal(times, again)
    other = sample_arrivals(prof, seed_or_rng=124)
    assert not np.array_equal(times, other)
    # A profile whose integral is far from the cohort size would stall the resampling.
    with pytest.raises(ValidationError):
        sample_arrivals(prof.scaled_to_total(100.0), seed_or_rng=1)


def test_constant_profile_interarrivals_are_exponential():
    """Degenerate thinning case: constant rate must reproduce a plain Poisson
    process.  KS test of pooled within-trajectory gaps against Exp(c),
    alpha = 0.01, >= 10,000 samples."""
    c = 1.5
    prof = IntensityProfile(breakpoints=((0.0, c), (SESSION, c)))
    gaps = []
    seed = 0
    while len(gaps) < 10_000:
        times = sample_poisson_process(prof, seed_or_rng=5000 + seed)
        gaps.extend(np.diff(times))
        seed += 1
    gaps = np.sort(np.asarray(gaps[:10_000]))
    n = gaps.size
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    model = 1.0 - np.exp(-c * gaps)
    d_stat = max(np.max(np.abs(emp_hi - model)), np.max(np.abs(model - emp_lo)))
    critical = 1.628 / math.sqrt(n)  # alpha = 0.01
    assert d_stat < critical, (d_stat, critical)


def test_constant_profile_matches_scipy_kstest():
    from scipy import stats as sstats

    c = 1.5
    prof = IntensityProfile(breakpoints=((0.0, c), (SESSION, c)))
    gaps = []
    seed = 0
    while len(gaps) < 10_000:
        times = sample_poisson_process(prof, seed_or_rng=9000 + seed)
        gaps.extend(np.diff(times))
        seed += 1
    res = sstats.kstest(gaps[:10_000], "expon", args=(0, 1.0 / c))
    assert res.pvalue > 0.01


def test_zero_intensity_interval_has_no_arrivals():
    prof = IntensityProfile(breakpoints=((0.0, 1.2), (180.0, 0.0), (SESSION, 0.0)))
    for seed in range(40):
        times = sample_poisson_process(prof, seed_or_rng=seed)
        assert all(t <= 180.0 for t in times)


def test_mean_count_before_resampling():
    """Poisson with mean 368: the 1,000-seed average raw count must sit
    within 368 +/- 2*sqrt(368)."""
    prof = default_profile()
    counts = [len(sample_poisson_process(prof, seed_or_rng=s)) for s in range(1000)]
    mean = float(np.mean(counts))
    assert abs(mean - 368.0) < 2.0 * math.sqrt(368.0), mean


def test_scaled_to_total():
    prof = default_profile().scaled_to_total(500.0)
    assert math.isclose(prof.integral(), 500.0, rel_tol=1e-12)


def test_each_attempt_is_one_thinned_trajectory(monkeypatch):
    # sample_arrivals draws whole trajectories until one has the cohort's
    # size, one sample_poisson_process call per attempt, and returns exactly
    # that trajectory.  Folding the attempts into one call would leave the
    # per-session trajectory count reading 1.
    prof = default_profile()
    rng = np.random.default_rng(0)
    drawn = [sample_poisson_process(prof, rng)]
    while drawn[-1].size != N_PATIENTS:
        drawn.append(sample_poisson_process(prof, rng))
    assert len(drawn) > 1

    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return sample_poisson_process(*args, **kwargs)

    monkeypatch.setattr(arrivals, "sample_poisson_process", counting)
    times = sample_arrivals(prof, seed_or_rng=np.random.default_rng(0))
    assert len(calls) == len(drawn)
    assert np.array_equal(times, drawn[-1])


def test_count_only_attempt_draws_like_a_full_one():
    # With `count`, a trajectory of another length comes back as None, but
    # the generator reads exactly what the full draw reads.
    prof = default_profile()
    full, counted = np.random.default_rng(3), np.random.default_rng(3)  # the 2nd attempt fits
    outcomes = set()
    for _ in range(10):
        want = sample_poisson_process(prof, full)
        got = sample_poisson_process(prof, counted, count=N_PATIENTS)
        assert full.bit_generator.state == counted.bit_generator.state
        if want.size == N_PATIENTS:
            assert np.array_equal(got, want)
        else:
            assert got is None
        outcomes.add(got is None)
    assert outcomes == {True, False}
