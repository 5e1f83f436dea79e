"""Smoothing construction: partition of unity, the sawtooth remainder, the
kernel in both representations, and the constant optimization."""

import math
import tracemalloc

import numpy as np
import pytest

from pvbounds import bounds
from pvbounds.kernel import (
    DerivationMismatch,
    GridSpec,
    KernelParams,
    constant_derivation,
    default_grid,
    g_p_closed,
    g_p_closed_grid,
    g_p_direct,
    lambda_identity_check,
    lemma3_check,
    lemma3_grid_check,
    lemma4_check,
    omega,
    omega_star,
    s_u_p,
    s_u_p_grid,
    sawtooth,
    theta,
)

RNG = np.random.default_rng(20260808)
P_SET = (1.5, 2.0, 5.0, 10.0, 100.0, 1000.0)


def abel_sawtooth(x: float, n_terms: int = 10**6, r: float = 1.0 - 2e-6) -> float:
    """Oracle: Abel-damped partial sums of the sine series."""
    m = np.arange(1, n_terms + 1)
    return float(np.sum(r**m * np.sin(2 * np.pi * m * x) / m))


def abel_s_u_p(u: float, P: float, n_terms: int = 10**6, r: float = 1.0 - 2e-6) -> float:
    """Oracle: Abel-damped weighted series for the smoothed remainder."""
    m = np.arange(1, n_terms + 1)
    t = m / P
    w = np.where(t <= 0.5, 0.0, np.where(t < 1.0, 2.0 * t - 1.0, 1.0))
    return float(np.sum(r**m * w * np.sin(2 * np.pi * m * u) / m))


# ---------------------------------------------------------------------------
# theta / omega


def test_theta_values():
    assert theta(1.5) == 0.5
    assert theta(0.75) == 0.5
    assert theta(3.0) == 0.0
    assert theta(0.0) == 0.0
    assert theta(0.5) == 0.0
    assert theta(1.0) == 1.0
    assert theta(2.0) == 0.0


def test_theta_rejects_negative():
    with pytest.raises(ValueError):
        theta(-0.1)


def test_omega_values_and_complement():
    assert omega(0.75) == 0.5
    assert omega_star(0.75) == 0.5
    assert omega(0.3) == 0.0 and omega_star(0.3) == 1.0
    assert omega(2.0) == 1.0 and omega_star(2.0) == 0.0
    for t in RNG.uniform(1e-6, 4.0, 100):
        assert omega(float(t)) + omega_star(float(t)) == 1.0


def test_omega_rejects_nonpositive():
    with pytest.raises(ValueError):
        omega(0.0)
    with pytest.raises(ValueError):
        omega_star(-1.0)


def test_partition_of_unity():
    J = 40
    t_samples = np.exp(RNG.uniform(math.log(2.0**-38), math.log(2.0**38), 200))
    for t in t_samples:
        total = sum(theta(float(t) / 2.0**j) for j in range(-J, J + 1))
        assert abs(total - 1.0) < 1e-12
    t = 0.37
    assert abs(sum(theta(t / 2.0**j) for j in range(-40, 41)) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# sawtooth


def test_sawtooth_quarter():
    assert sawtooth(0.25) == math.pi / 4
    assert abs(abel_sawtooth(0.25) - math.pi / 4) < 1e-5


def test_sawtooth_integers_zero():
    for k in (-3, -1, 0, 1, 2, 10):
        assert sawtooth(float(k)) == 0.0


def test_sawtooth_oddness_and_periodicity():
    for x in RNG.uniform(0.01, 0.99, 50):
        x = float(x)
        assert abs(sawtooth(x) + sawtooth(-x)) < 1e-12
        assert abs(sawtooth(x) - sawtooth(x + 1.0)) < 1e-12


def test_sawtooth_against_abel_oracle():
    for x in (0.1, 0.3, 0.5, 0.77):
        assert abs(sawtooth(x) - abel_sawtooth(x)) < 1e-5


# ---------------------------------------------------------------------------
# smoothed remainder S(u;P)


@pytest.mark.parametrize("P", P_SET)
def test_s_u_p_zero_points(P):
    assert s_u_p(0.0, P) == 0.0
    assert s_u_p(0.5, P) == 0.0
    assert s_u_p(1.0, P) == 0.0


def test_s_u_p_rejects_small_P():
    with pytest.raises(ValueError):
        s_u_p(0.3, 1.0)


def test_s_u_p_against_abel_oracle():
    assert abs(s_u_p(0.3, 10.0) - abel_s_u_p(0.3, 10.0)) < 1e-6
    for _ in range(20):
        u = float(RNG.uniform(0.02, 0.98))
        P = float(RNG.uniform(1.5, 60.0))
        assert abs(s_u_p(u, P) - abel_s_u_p(u, P)) < 1e-6, (u, P)


def test_s_u_p_grid_matches_scalar():
    us = RNG.uniform(0.0, 1.0, 64)
    for P in P_SET:
        grid_vals = s_u_p_grid(us, P)
        for u, v in zip(us, grid_vals):
            assert abs(s_u_p(float(u), P) - v) < 1e-13


# ---------------------------------------------------------------------------
# the kernel in two representations


@pytest.mark.parametrize("P", P_SET)
def test_g_p_symmetry_and_floor(P):
    for u in RNG.uniform(0.0, 1.0, 40):
        u = float(u)
        assert abs(g_p_closed(u, P) - g_p_closed(1.0 - u, P)) < 1e-12
    assert g_p_direct(0.0, P) >= 1.0  # the n = 0 term alone is 1


@pytest.mark.parametrize("P", P_SET)
def test_g_p_closed_at_zero(P):
    r = math.exp(-2 * math.pi / P)
    expected = (math.pi / P) * (1 + r) / (1 - r)
    assert abs(g_p_closed(0.0, P) - expected) < 1e-12 * expected


@pytest.mark.parametrize("P", P_SET)
def test_dual_representation_agreement(P):
    grid = default_grid()
    gc = g_p_closed_grid(grid.u_points, P)
    for u, c in zip(grid.u_points[::7], gc[::7]):
        assert abs(g_p_direct(float(u), P) - c) < 1e-10


def test_g_p_direct_brute_truncation_cross_check():
    # raw 2e5-term lattice sum agrees to its own tail bound
    for P in (1.5, 10.0):
        for u in (0.0, 0.3, 0.721):
            n = np.arange(-200000, 200001)
            raw = float(np.sum(1.0 / (1.0 + (P * (n + u)) ** 2)))
            assert abs(g_p_direct(u, P) - raw) < 2.0 / (P * P * 200000) + 1e-12


def test_kernel_params_defaults():
    p = KernelParams(P=1.5)
    assert p.truncation_N >= 64
    assert p.raw_tail_bound() == 2.0 / (1.5**2 * p.truncation_N)
    with pytest.raises(ValueError):
        KernelParams(P=1.0)


# ---------------------------------------------------------------------------
# ratio bound (grid evidence)


def test_default_grid_shape():
    grid = default_grid()
    u = grid.u_points
    assert len(u) >= 4000
    assert u[0] == 0.0 and u[-1] == 1.0
    assert np.any(u == 0.5)
    assert u.min() == 0.0 and np.all(np.diff(u) > 0)
    assert np.any((u > 0) & (u < 1e-10))  # geometric clustering near 0


def test_grid_requires_anchor_points():
    with pytest.raises(ValueError):
        GridSpec(u_points=np.array([0.0, 0.3]), P_values=(2.0,))


def test_lemma3_ratio_bound_holds():
    res = lemma3_check()
    assert res.violations == ()
    assert res.worst_ratio <= res.bound
    assert res.bound == bounds.c0() / (2 * math.pi**2)


def test_lemma3_ratio_zero_at_origin():
    for P in P_SET:
        assert s_u_p(0.0, P) / g_p_closed(0.0, P) == 0.0


def test_lemma3_check_holds_bounded_chunks():
    """s_u_p_grid's sine temporaries are 2 MiB chunks; at 2^22 elements
    each (32 MiB, two alive in t -= np.round(t)) the peak was ~65 MiB."""
    tracemalloc.start()
    try:
        res = lemma3_check()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.violations == ()
    assert peak < 16 * 2**20


def test_lemma3_grid_check_returns_the_values_it_checked():
    grid = GridSpec(u_points=np.linspace(0.0, 1.0, 257), P_values=(1.5, 10.0, 1000.0))
    result, values = lemma3_grid_check(grid)
    assert result == lemma3_check(grid)
    assert tuple(P for P, _, _ in values) == grid.P_values
    for P, s, g in values:
        assert np.array_equal(s, s_u_p_grid(grid.u_points, P))
        assert np.array_equal(g, g_p_closed_grid(grid.u_points, P))


def test_lemma3_stable_under_refinement():
    base = lemma3_check(default_grid(1))
    fine = lemma3_check(default_grid(2))
    assert abs(base.worst_ratio - fine.worst_ratio) < 1e-3


# ---------------------------------------------------------------------------
# kernel sum identity


def test_lemma4_q10_p2():
    assert lemma4_check(10, 2.0) < 1e-10
    # frozen closed value: pi q / P coth(pi q / P) at q/P = 5
    x = 2 * math.pi * 5
    rhs = 5 * math.pi * (1 + 2 * math.exp(-x) / (1 - math.exp(-x)))
    assert abs(rhs - 15.7079632679) < 1e-9


def test_lemma4_q1():
    assert lemma4_check(1, 2.0) < 1e-10


def test_lemma4_acceptance_grid():
    worst = max(
        lemma4_check(q, P) for q in range(1, 101) for P in (1.5, 2.0, 7.3, 50.0)
    )
    assert worst < 1e-9


def test_lemma4_discrepancy_does_not_scale_with_q():
    for q in (10, 100, 1000, 10000):
        assert lemma4_check(q, 7.3) < 1e-9


def test_lemma4_validates_arguments():
    with pytest.raises(ValueError):
        lemma4_check(0, 2.0)
    with pytest.raises(ValueError):
        lemma4_check(5, 0.5)


# ---------------------------------------------------------------------------
# constant optimization


def test_constant_derivation_values():
    r = constant_derivation()
    assert abs(r.a_bisection - 0.2673115) < 1e-6
    assert abs(r.a_closed_form - math.sqrt(5) / (2 * math.pi**1.25)) < 1e-16
    assert abs(r.a_bisection - r.a_closed_form) < 1e-12
    assert r.a_bisection < 1 / (2 * math.sqrt(math.pi))
    assert abs(r.b_opt_numeric - r.b_opt_closed_form) < 1e-8
    assert abs(r.b_min_value - 2 * math.sqrt(math.pi)) < 1e-15
    assert abs(r.f1_at_a - r.c0_over_2pi2) < 1e-12
    assert abs(r.f1_at_a - 3.7982107) < 1e-6
    assert r.residual < 1e-12


def test_constant_derivation_detects_perturbed_constant(monkeypatch):
    monkeypatch.setattr(bounds, "c0", lambda: 4 * math.pi**2.5)
    with pytest.raises(DerivationMismatch):
        constant_derivation()


# ---------------------------------------------------------------------------
# indicator identity


def test_lambda_identity_examples():
    assert lambda_identity_check(0.2, 0.7, 0.5) < 1e-12
    assert lambda_identity_check(0.25, 0.75, 0.25) < 1e-12  # x = a, both sides 1/2
    assert lambda_identity_check(0.4, 0.6, 0.1) < 1e-12  # outside, both sides 0


def test_lambda_identity_random():
    count = 0
    while count < 1000:
        a, b = sorted(RNG.uniform(0.0, 1.0, 2))
        if a == b:
            continue
        x = float(RNG.uniform(0.0, 1.0))
        assert lambda_identity_check(float(a), float(b), x) < 1e-12
        count += 1


def test_lambda_identity_validates_arguments():
    with pytest.raises(ValueError):
        lambda_identity_check(0.7, 0.2, 0.5)
    with pytest.raises(ValueError):
        lambda_identity_check(0.2, 0.7, 1.0)
