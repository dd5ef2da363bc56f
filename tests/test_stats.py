"""Statistics tests: hand-checked oracles plus cross-checks against scipy."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from opdsim.engine import StrategyConfig, run_experiment
from opdsim.errors import ValidationError
from opdsim.stats import (
    METRIC_FIELDS,
    betainc_regularized,
    cohen_d,
    summarize_runs,
    summary_table,
    t_sf_two_sided,
    welch_t,
    wilson_ci,
)

# Hand-worked Welch case: {1..5} vs {2..6}.  Equal variances (2.5), equal
# sizes, mean gap -1, so t = -1/sqrt(2*2.5/5) = -1 and the Welch df formula
# collapses to n_a + n_b - 2 = 8.  p and d evaluated once and frozen.
WELCH_A = [1.0, 2.0, 3.0, 4.0, 5.0]
WELCH_B = [2.0, 3.0, 4.0, 5.0, 6.0]
WELCH_T = -1.0
WELCH_DF = 8.0
WELCH_P = 0.34659
WELCH_D = -0.63246


def test_welch_hand_case():
    res = welch_t(WELCH_A, WELCH_B)
    assert res.mean_a == 3.0 and res.mean_b == 4.0
    assert abs(res.t_stat - WELCH_T) < 1e-12
    assert abs(res.df - WELCH_DF) < 1e-12
    assert abs(res.p_value - WELCH_P) < 5e-6
    assert abs(res.cohen_d - WELCH_D) < 5e-6
    assert not res.degenerate


def test_welch_matches_scipy():
    rng = np.random.default_rng(123)
    for na, nb, shift, scale in [(30, 30, 0.0, 1.0), (12, 40, 1.5, 3.0), (5, 7, -2.0, 0.4)]:
        a = rng.normal(0.0, 1.0, na)
        b = rng.normal(shift, scale, nb)
        ours = welch_t(a, b)
        ref = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert abs(ours.t_stat - ref.statistic) < 1e-10
        assert abs(ours.p_value - ref.pvalue) < 1e-10
        if hasattr(ref, "df"):
            assert abs(ours.df - ref.df) < 1e-10


def test_welch_antisymmetric():
    fwd = welch_t(WELCH_A, WELCH_B)
    rev = welch_t(WELCH_B, WELCH_A)
    assert fwd.t_stat == -rev.t_stat
    assert fwd.p_value == rev.p_value
    assert fwd.cohen_d == -rev.cohen_d
    assert fwd.df == rev.df


def test_welch_degenerate_groups():
    same = welch_t([5.0, 5.0, 5.0], [5.0, 5.0, 5.0])
    assert same.degenerate
    assert same.t_stat == 0.0 and same.p_value == 1.0

    apart = welch_t([5.0, 5.0, 5.0], [6.0, 6.0, 6.0])
    assert apart.degenerate
    assert math.isinf(apart.t_stat) and apart.t_stat < 0
    assert apart.p_value == 0.0


def test_welch_needs_two_per_group():
    with pytest.raises(ValidationError):
        welch_t([1.0], [2.0, 3.0])
    with pytest.raises(ValidationError):
        cohen_d([1.0, 2.0], [3.0])


def test_cohen_d_zero_pooled_variance():
    assert cohen_d([2.0, 2.0], [2.0, 2.0]) == 0.0
    assert math.isinf(cohen_d([3.0, 3.0], [2.0, 2.0]))


# ------------------------------------------------------------ t distribution


def test_two_sided_p_at_published_critical_values():
    # Two-sided 95% and 90% critical values from standard t tables (3 decimals).
    for t_crit, df in [(2.776, 4), (2.228, 10), (2.042, 30)]:
        assert abs(t_sf_two_sided(t_crit, df) - 0.05) < 4e-4
    for t_crit, df in [(2.132, 4), (1.812, 10)]:
        assert abs(t_sf_two_sided(t_crit, df) - 0.10) < 4e-4


def test_two_sided_p_symmetry():
    assert t_sf_two_sided(2.0, 9) == t_sf_two_sided(-2.0, 9)
    assert abs(t_sf_two_sided(0.0, 9) - 1.0) < 1e-12


def test_two_sided_p_keeps_its_far_tail():
    # 2 * (1 - cdf) cancels to exactly 0 from t = 12 at df 58.
    for t in (12.0, 15.0, 25.0):
        ours = t_sf_two_sided(t, 58.0)
        assert ours > 0.0
        assert ours == pytest.approx(2.0 * scipy.stats.t.sf(t, 58.0), rel=1e-12, abs=0.0)
    assert t_sf_two_sided(math.inf, 58.0) == 0.0


def test_t_cdf_rejects_bad_df():
    # No t distribution has df <= 0: betainc_regularized refuses a = df / 2.
    for df in (0.0, -3.0):
        with pytest.raises(ValidationError):
            t_sf_two_sided(1.0, df)


@pytest.mark.parametrize("x", [-0.1, 1.5, math.nan])
def test_betainc_refuses_x_outside_the_unit_interval(x):
    with pytest.raises(ValidationError, match=r"x must lie in \[0, 1\]"):
        betainc_regularized(2.0, 3.0, x)


def test_betainc_matches_scipy_on_grid():
    for a in (0.5, 1.0, 2.5, 10.0):
        for b in (0.5, 1.0, 3.0):
            for x in (0.0, 0.05, 0.31, 0.5, 0.77, 0.99, 1.0):
                ours = betainc_regularized(a, b, x)
                ref = float(scipy.special.betainc(a, b, x))
                assert abs(ours - ref) < 1e-10


# ------------------------------------------------------------ Wilson interval


def test_wilson_118_of_120():
    ci = wilson_ci(118, 120)
    assert round(ci.low * 100, 2) == 94.13
    assert round(ci.high * 100, 2) == 99.54


def test_wilson_173_of_368():
    ci = wilson_ci(173, 368)
    assert round(ci.low * 100, 2) == 41.97
    assert round(ci.high * 100, 2) == 52.11


def test_wilson_edge_cases():
    zero = wilson_ci(0, 10)
    assert zero.low == 0.0 and zero.p_hat == 0.0 and zero.high > 0.0
    full = wilson_ci(10, 10)
    assert full.high == pytest.approx(1.0) and full.high <= 1.0
    assert full.low < 1.0


def test_wilson_width_shrinks_with_n():
    narrow = wilson_ci(500, 1000)
    wide = wilson_ci(50, 100)
    assert (narrow.high - narrow.low) < (wide.high - wide.low)


def test_wilson_validates_inputs():
    with pytest.raises(ValidationError):
        wilson_ci(1, 0)
    with pytest.raises(ValidationError):
        wilson_ci(-1, 10)
    with pytest.raises(ValidationError):
        wilson_ci(11, 10)


# ------------------------------------------------------------ summaries


def test_summarize_runs_across_sessions(dataset42):
    patients, history = dataset42
    cfg = StrategyConfig(strategy="agentic")
    runs = [r.metrics for r in run_experiment(patients, history, cfg, n_runs=3, base_seed=50)]
    summary = summarize_runs(runs)
    for name in METRIC_FIELDS:
        assert name in summary
        assert summary[name].n == 3
    for level in ("critical", "high", "medium", "low"):
        assert f"composition_{level}" in summary
        assert f"wait_eff_{level}" in summary
    comp_total = sum(summary[f"composition_{lv}"].mean for lv in ("critical", "high", "medium", "low"))
    assert abs(comp_total - 368.0) < 1e-9
    # Order of runs must not matter (up to float summation order).
    again = summarize_runs(list(reversed(runs)))
    assert set(again) == set(summary)
    for name, s in summary.items():
        assert again[name].mean == pytest.approx(s.mean, rel=1e-12)
        assert again[name].std == pytest.approx(s.std, rel=1e-12)
        assert again[name].n == s.n


def test_summarize_runs_rejects_empty():
    with pytest.raises(ValidationError):
        summarize_runs([])


def test_summary_table_renders_markdown(dataset42):
    patients, history = dataset42
    runs = {
        arm: summarize_runs(
            [r.metrics for r in run_experiment(
                patients, history, StrategyConfig(strategy=arm), n_runs=2, base_seed=50)]
        )
        for arm in ("fcfs", "agentic")
    }
    table = summary_table(runs, fields=["avg_wait", "escalation_count"])
    lines = table.splitlines()
    assert lines[0] == "| metric | fcfs | agentic |"
    assert lines[1].startswith("|---")
    assert len(lines) == 4
    assert lines[2].startswith("| avg_wait |")
    assert "±" in lines[2]
