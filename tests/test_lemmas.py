"""Slack sweeps for the two trigonometric-sum inequalities."""

import math

import numpy as np
import pytest

from pvbounds.bounds import EULER_GAMMA
from pvbounds.lemmas import (
    LemmaSweepConfig,
    default_lemma1_config,
    default_lemma2_config,
    lemma1_check,
    lemma2_check,
)


def sine_sum(x: float, n: int) -> float:
    j = np.arange(1, n + 1)
    return float(np.sum(np.abs(np.sin(j * x)) / j))


def lemma1_bound(n: int) -> float:
    return (2 / math.pi) * (math.log(n) + EULER_GAMMA + math.log(2) + 3.0 / n)


def test_bound_constant_at_n1():
    # frozen: direct evaluation of (2/pi)(gamma + log 2 + 3)
    assert abs(lemma1_bound(1) - 2.7185974) < 1e-6
    assert lemma1_bound(1) > 1.0  # dominates |sin x|


def test_lemma1_x_zero_slack_is_full_bound():
    cfg = LemmaSweepConfig(n_values=(1, 5, 50), x_grid=np.array([0.0]))
    res = lemma1_check(cfg)
    expected = min(lemma1_bound(n) for n in (1, 5, 50))
    assert abs(res.min_slack - expected) < 1e-12
    assert res.bound == res.min_slack  # the sum is 0 at x = 0


def test_lemma1_default_grid_positive():
    res = lemma1_check(default_lemma1_config(n_max=200))
    assert res.min_slack > 0
    assert res.violations == ()
    # the reported witness reproduces the reported slack
    slack = lemma1_bound(res.worst_n) - sine_sum(res.worst_params[0], res.worst_n)
    assert abs(slack - res.min_slack) < 1e-12
    assert abs(res.bound - lemma1_bound(res.worst_n)) < 1e-12


def test_lemma1_stable_under_density_refinement():
    a = lemma1_check(default_lemma1_config(n_max=300, refine=1)).min_slack
    b = lemma1_check(default_lemma1_config(n_max=300, refine=2)).min_slack
    assert a > 0 and b > 0
    assert abs(a - b) <= 0.1 * a


def test_lemma2_alpha_equals_beta():
    cfg = LemmaSweepConfig(
        n_values=(1, 10, 100), alpha_beta_pairs=np.array([[1.3, 1.3]])
    )
    res = lemma2_check(cfg)
    expected = min(
        math.log(n) + EULER_GAMMA + math.log(2) + 3.0 / n for n in (1, 10, 100)
    )
    assert abs(res.min_slack - expected) < 1e-12
    assert res.bound == res.min_slack  # the sum is 0 when alpha = beta


def test_lemma2_n1_constant():
    # |cos a - cos b| <= 2 < gamma + log 2 + 3
    assert EULER_GAMMA + math.log(2) + 3.0 > 2.0
    assert abs((EULER_GAMMA + math.log(2) + 3.0) - 4.2703628) < 1e-6


def test_lemma2_default_positive_and_reproducible():
    res1 = lemma2_check(default_lemma2_config(n_max=120, pairs=2000))
    res2 = lemma2_check(default_lemma2_config(n_max=120, pairs=2000))
    assert res1.min_slack > 0
    assert res1.min_slack == res2.min_slack  # same seed, same draw
    assert res1.seed == res2.seed


def test_lemma2_stable_under_n_refinement():
    a = lemma2_check(default_lemma2_config(n_max=250, pairs=3000)).min_slack
    b = lemma2_check(default_lemma2_config(n_max=500, pairs=3000)).min_slack
    assert a > 0 and b > 0
    assert abs(a - b) <= 0.1 * a


def test_lemma2_seed_recorded():
    res = lemma2_check(default_lemma2_config(n_max=10, pairs=100, seed=77))
    assert res.seed == 77


def test_monotone_sanity_fixed_x():
    # slack never goes negative as n grows for a handful of resonant x
    for x in (1.0, math.pi / 2, 2.0, 1.8394):
        for n in range(1, 501):
            assert lemma1_bound(n) - sine_sum(x, n) > 0


def test_config_validation():
    with pytest.raises(ValueError):
        LemmaSweepConfig(n_values=())
    with pytest.raises(ValueError):
        LemmaSweepConfig(n_values=(0,))
    with pytest.raises(ValueError):
        LemmaSweepConfig(n_values=(1,), x_grid=np.array([]))
    with pytest.raises(ValueError):
        lemma1_check(LemmaSweepConfig(n_values=(1,)))
    with pytest.raises(ValueError):
        lemma2_check(LemmaSweepConfig(n_values=(1,)))
