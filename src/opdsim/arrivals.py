"""Arrival-time sampling.

Walk-ins follow a non-homogeneous Poisson process with a morning-peaked
piecewise-linear intensity.  Sampling uses thinning (rejection against the
profile's peak rate); the session generator resamples whole trajectories until
the realised count matches the cohort size exactly, so every run sees all 368
patients while inter-arrival statistics stay Poisson.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_number
from .patients import N_PATIENTS

# Intensity shape anchors (minute, multiplier): ramp up into a mid-morning
# peak, taper toward closing.  The profile is scaled so its integral equals
# the cohort size exactly.
DEFAULT_SHAPE = ((0.0, 0.8), (90.0, 1.6), (360.0, 0.4))

MAX_RESAMPLE_ATTEMPTS = 1000


@dataclass(frozen=True)
class IntensityProfile:
    """Piecewise-linear arrival intensity λ(t), in patients per minute."""

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.breakpoints) < 2:
            raise ValidationError("intensity profile needs at least two breakpoints")
        for t, r in self.breakpoints:
            require_number("intensity breakpoint time", t)
            require_number("intensity rate", r)
        times = [t for t, _ in self.breakpoints]
        rates = [r for _, r in self.breakpoints]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError("intensity breakpoints must be strictly increasing in time")
        if any(r < 0 for r in rates):
            raise ValidationError("intensity must be non-negative")
        if max(rates) <= 0:
            raise ValidationError("intensity must be positive somewhere")
        # Derived once; the dataclass is frozen, so they bypass its __setattr__.
        object.__setattr__(self, "lambda_max", max(rates))
        object.__setattr__(self, "_times", np.array(times))
        object.__setattr__(self, "_rates", np.array(rates))
        object.__setattr__(self, "_integral", float(np.trapezoid(self._rates, self._times)))

    @property
    def start_time(self) -> float:
        return self.breakpoints[0][0]

    @property
    def end_time(self) -> float:
        return self.breakpoints[-1][0]

    def rate(self, t) -> float | np.ndarray:
        """λ(t); vectorised over array input.  Zero outside the profile span."""
        return np.interp(t, self._times, self._rates, left=0.0, right=0.0)

    def integral(self) -> float:
        """Expected arrival count over the whole span (trapezoid, exact for
        piecewise-linear rates)."""
        return self._integral

    def scaled_to_total(self, total: float) -> "IntensityProfile":
        factor = total / self.integral()
        return IntensityProfile(tuple((t, r * factor) for t, r in self.breakpoints))


@functools.cache
def default_profile() -> IntensityProfile:
    return IntensityProfile(DEFAULT_SHAPE).scaled_to_total(N_PATIENTS)


def _as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def sample_poisson_process(
    profile: IntensityProfile, seed_or_rng, *, count: int | None = None
) -> np.ndarray | None:
    """One thinned trajectory over the profile span (sorted times, minutes).

    Homogeneous candidates at the peak rate are generated by exponential gaps
    and accepted with probability λ(t)/λ_max.  Given `count`, a trajectory
    of any other length is drawn the same way but returned as None.
    """
    rng = _as_rng(seed_or_rng)
    lam_max = profile.lambda_max
    t0, t1 = profile.start_time, profile.end_time
    gap = 1.0 / lam_max

    # The first block of gaps nearly always passes t1; `cumsum` without `out` is the cheaper call.
    ts = rng.exponential(gap, max(64, int(lam_max * (t1 - t0) * 1.25) + 32)).cumsum()
    if t0:  # adding zero would change no candidate
        ts += t0
    while ts[-1] < t1:
        more = rng.exponential(gap, 64).cumsum()
        more += ts[-1]
        ts = np.concatenate((ts, more))
    # Gaps are non-negative, so the candidates are sorted.
    ts = ts[: ts.searchsorted(t1)]

    u = rng.random(ts.size)
    rate = profile.rate(ts)
    rate /= lam_max
    keep = u < rate
    if count is not None and np.count_nonzero(keep) != count:
        return None
    return ts[keep]


def sample_arrivals(profile: IntensityProfile, seed_or_rng) -> np.ndarray:
    """Exactly `N_PATIENTS` arrival times: resample whole trajectories until
    the realised count matches.

    The count is part of the experimental design (identical case mix in
    every run), so it is the cohort size, not a parameter.
    """
    if abs(profile.integral() - N_PATIENTS) > 0.5 * N_PATIENTS:
        raise ValidationError("profile integral is far from the cohort size; resampling would stall")
    rng = _as_rng(seed_or_rng)
    for _ in range(MAX_RESAMPLE_ATTEMPTS):
        times = sample_poisson_process(profile, rng, count=N_PATIENTS)
        if times is not None:
            return times
    raise ValidationError(
        f"could not realise exactly {N_PATIENTS} arrivals in {MAX_RESAMPLE_ATTEMPTS} attempts"
    )
