"""Statistics for cross-run comparison.

Implements exactly what the experiment reports need — Welch's unequal-variance
t-test with a two-sided p-value, Cohen's d, and Wilson score intervals — on
top of a regularized incomplete beta function (continued fraction), so the
simulation package has no runtime dependency beyond numpy.  scipy is used in
the test suite only, as an independent oracle.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_number
from .patients import UrgencyLevel

Z_95 = 1.959963984540054  # two-sided 95% normal quantile

_BETACF_MAX_ITER = 300
_BETACF_EPS = 3e-14
_FPMIN = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        # The even term, then the odd one; convergence is judged after the odd.
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise ValidationError("incomplete beta did not converge")


def betainc_regularized(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValidationError("beta parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValidationError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Use the fraction directly where it converges fast, else the symmetry.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf_two_sided(t: float, df: float) -> float:
    """Two-sided p-value for a t statistic: I_x(df/2, 1/2) with x = df/(df+t²).
    It is both tails at once, so far out it does not cancel to 0 the way
    2·(1 − CDF) does."""
    return betainc_regularized(df / 2.0, 0.5, df / (df + t * t))


@dataclass
class WelchResult:
    mean_a: float
    mean_b: float
    t_stat: float
    df: float
    p_value: float
    cohen_d: float
    n_a: int
    n_b: int
    degenerate: bool = False


def _moments(a, b) -> tuple[int, int, float, float, float, float, float]:
    """Sizes, means, sample variances and Cohen's d of two groups of two or more."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise ValidationError("need at least two observations per group")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        ma, mb = float(np.mean(a)), float(np.mean(b))
        va, vb = float(np.var(a, ddof=1)), float(np.var(b, ddof=1))
    for group, v in (("a", va), ("b", vb)):
        if not math.isfinite(v):
            raise ValidationError(f"variance of group {group} is not finite")
    pooled = math.sqrt(((na - 1) * va + (nb - 1) * vb) / (na + nb - 2))
    diff = ma - mb
    if pooled == 0.0:
        d = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    else:
        d = diff / pooled
    return na, nb, ma, mb, va, vb, d


def cohen_d(a, b) -> float:
    """Pooled-standard-deviation effect size."""
    return _moments(a, b)[-1]


def welch_t(a, b) -> WelchResult:
    """Welch's t-test (unequal variances), two-sided."""
    na, nb, ma, mb, va, vb, d = _moments(a, b)
    sa, sb = va / na, vb / nb
    degenerate = sa + sb == 0.0
    if degenerate:
        # Identical constants in both groups: no evidence of difference.
        same = ma == mb
        t = 0.0 if same else math.copysign(math.inf, ma - mb)
        df, p = float(na + nb - 2), 1.0 if same else 0.0
    else:
        t = (ma - mb) / math.sqrt(sa + sb)
        # Welch-Satterthwaite, on both variances scaled by one power of two so
        # that no square under- or overflows.
        e = math.frexp(max(sa, sb))[1]
        sa, sb = math.ldexp(sa, -e), math.ldexp(sb, -e)
        df = (sa + sb) ** 2 / (sa**2 / (na - 1) + sb**2 / (nb - 1))
        p = t_sf_two_sided(t, df)
    return WelchResult(ma, mb, t, df, p, d, na, nb, degenerate)


@dataclass
class WilsonInterval:
    p_hat: float
    low: float
    high: float


def wilson_ci(successes: int, n: int) -> WilsonInterval:
    """Wilson score interval for a binomial proportion; it always holds `p_hat`."""
    for name, count in (("successes", successes), ("n", n)):
        require_number(name, count)  # refuses bools and ints beyond the float range
        if not isinstance(count, numbers.Integral):
            raise ValidationError(f"{name} must be an integer count, got {count!r}")
    if n <= 0:
        raise ValidationError("n must be positive")
    if not 0 <= successes <= n:
        raise ValidationError("successes must lie in [0, n]")
    p = successes / n
    z2 = Z_95 * Z_95
    denom = 1.0 + z2 / n
    centre = (p + z2 / (2.0 * n)) / denom
    half = (Z_95 / denom) * math.sqrt(p * (1 - p) / n + z2 / (4.0 * n * n))
    # Rounding can put a bound past p at k = 0 or k = n; interior bounds keep their bits.
    low, high = max(0.0, centre - half), min(1.0, centre + half)
    return WilsonInterval(p_hat=p, low=min(low, p), high=max(high, p))


# ---------------------------------------------------------------------------
# Cross-run summaries

METRIC_FIELDS = (
    "avg_wait",
    "median_wait",
    "p95_wait",
    "throughput_per_hour",
    "served_count",
    "unserved_count",
    "critical_wait_mean",
    "pct_critical_within_10",
    "pct_critical_within_15",
    "critical_served",
    "critical_effective_count",
    "drift_event_count",
    "memory_escalation_count",
    "escalation_count",
    "specialty_match_rate",
)


@dataclass
class MetricSummary:
    mean: float
    std: float
    n: int


def _summary(vals) -> MetricSummary:
    arr = np.asarray(vals, dtype=float)
    std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return MetricSummary(mean=float(np.mean(arr)), std=std, n=int(arr.size))


def summarize_runs(metrics_list) -> dict[str, MetricSummary]:
    """Per-metric mean and sample std across runs (None values dropped)."""
    if not metrics_list:
        raise ValidationError("no runs to summarize")
    out: dict[str, MetricSummary] = {}
    for name in METRIC_FIELDS:
        vals = [getattr(m, name) for m in metrics_list]
        vals = [v for v in vals if v is not None]
        if vals:
            out[name] = _summary(vals)
    # Mean final composition and wait-by-urgency per level across runs.
    for level in (lvl.value for lvl in reversed(UrgencyLevel)):  # critical first
        out[f"composition_{level}"] = _summary([m.final_composition[level] for m in metrics_list])
        waits = [m.wait_by_effective.get(level) for m in metrics_list]
        waits = [w for w in waits if w is not None]
        if waits:
            out[f"wait_eff_{level}"] = _summary(waits)
    return out


def summary_table(summaries: dict[str, dict[str, MetricSummary]], fields=None) -> str:
    """Markdown table: one row per metric, one column per arm."""
    arms = list(summaries)
    fields = fields or sorted({k for s in summaries.values() for k in s})
    lines = ["| metric | " + " | ".join(arms) + " |", "|---" * (len(arms) + 1) + "|"]
    for f in fields:
        cells = []
        for arm in arms:
            s = summaries[arm].get(f)
            cells.append(f"{s.mean:.2f} ± {s.std:.2f}" if s else "—")
        lines.append(f"| {f} | " + " | ".join(cells) + " |")
    return "\n".join(lines)
