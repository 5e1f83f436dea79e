"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a [PASS] line with the measured margin (run with -s to see
them live). The exhaustive desk-scale sweep is shared by the criteria that
consume it; expect a few minutes of wall time for the whole module.
"""

import hashlib
import os

import numpy as np
import pytest

from pvbounds import bounds, kernel, lemmas
from pvbounds.characters import enumerate_characters
from pvbounds.charsums import brute_force_s, max_interval_sum, prefix_walk
from pvbounds.harness import (
    SweepConfig,
    gauss_check_range,
    resolve_workers,
    run_sweep,
    twist_check_range,
)

Q_DESK = 2000
WORKERS = resolve_workers(os.cpu_count() or 1)
RNG = np.random.default_rng(20260808)


@pytest.fixture(scope="session")
def desk_sweep():
    cfg = SweepConfig(
        q_min=3, q_max=Q_DESK, workers=WORKERS, store_rows=False
    )
    return run_sweep(cfg)


def test_criterion_01_theorem1_domination(desk_sweep):
    s = desk_sweep.summary
    worst = s["worst_margin"]["theorem1"]
    assert s["violations"] == 0
    assert worst["margin"] > 0.0
    print(
        f"\n[PASS] criterion 1: theorem1 dominates S for all "
        f"{s['characters_checked']} primitive characters, 3 <= q <= {Q_DESK}; "
        f"min margin {worst['margin']:.6f} at {worst['at']}"
    )


def test_criterion_02_pomerance_domination(desk_sweep):
    s = desk_sweep.summary
    worst = s["worst_margin"]["pomerance"]
    assert s["violations"] == 0
    assert worst["margin"] > 0.0
    print(
        f"\n[PASS] criterion 2: pomerance bound dominates S everywhere; "
        f"min margin {worst['margin']:.6f} at {worst['at']}"
    )


def test_criterion_03_crossovers():
    q_even = bounds.crossover("even")
    q_odd = bounds.crossover("odd")
    assert q_even <= 18000
    assert q_odd <= 28000
    for parity, qstar in (("even", q_even), ("odd", q_odd)):
        grid = np.unique(np.geomspace(qstar, 10**7, 200).astype(int))
        for q in grid:
            diff = (
                bounds.theorem1_bound(int(q), parity).value
                - bounds.pomerance_bound(int(q), parity).value
            )
            assert diff < 0.0, (parity, q, diff)
    print(
        f"\n[PASS] criterion 3: crossovers even q* = {q_even} (<= 18000), "
        f"odd q* = {q_odd} (<= 28000); theorem1 < pomerance on log grid to 1e7"
    )


def test_criterion_04_s_equals_2t(desk_sweep):
    dev = desk_sweep.summary["max_s2t_deviation_even"]
    assert dev < 1e-9
    print(
        f"\n[PASS] criterion 4: |S - 2T| < 1e-9 for every even primitive "
        f"character, q <= {Q_DESK}; max deviation {dev:.3e}"
    )


def test_criterion_05_gauss_modulus():
    count, worst = gauss_check_range(3, Q_DESK, workers=WORKERS)
    assert worst < 1e-8
    print(
        f"\n[PASS] criterion 5: ||tau| - sqrt(q)| < 1e-8 sqrt(q) for all "
        f"{count} primitive characters, q <= {Q_DESK}; worst {worst:.3e}"
    )


def test_criterion_06_twist_identity():
    count, worst = twist_check_range(3, 500, m_per_char=50, workers=WORKERS)
    assert worst < 1e-8
    print(
        f"\n[PASS] criterion 6: twisted-sum identity discrepancy < 1e-8 sqrt(q) "
        f"on {count} random twists, q <= 500; worst {worst:.3e}"
    )


def test_criterion_07_lemma1_slack():
    res = lemmas.lemma1_check(lemmas.default_lemma1_config(n_max=500))
    assert res.n_checked == 4000 * 500
    assert res.min_slack > 0.0
    print(
        f"\n[PASS] criterion 7: sine-sum slack > 0 on 4000 x-points x n <= 500; "
        f"min slack {res.min_slack:.6f} at x = {res.worst_params[0]:.6f}, "
        f"n = {res.worst_n}"
    )


def test_criterion_08_lemma2_slack():
    res = lemmas.lemma2_check(lemmas.default_lemma2_config(n_max=500, pairs=10_000))
    assert res.n_checked == 10_000 * 500
    assert res.min_slack > 0.0
    print(
        f"\n[PASS] criterion 8: cosine-difference slack > 0 on 10^4 seeded "
        f"pairs x n <= 500 (seed {res.seed}); min slack {res.min_slack:.6f}"
    )


def test_criterion_09_kernel_ratio_bound():
    base = kernel.lemma3_check(kernel.default_grid(1))
    fine = kernel.lemma3_check(kernel.default_grid(2))
    assert base.violations == ()
    assert fine.violations == ()
    assert base.worst_ratio <= base.bound
    assert abs(base.worst_ratio - fine.worst_ratio) <= 1e-3
    n_u = len(kernel.default_grid(1).u_points)
    assert n_u >= 4000
    print(
        f"\n[PASS] criterion 9: max |S(u;P)|/G_P(u) = {base.worst_ratio:.9f} "
        f"<= {base.bound:.9f} over {n_u} u-points x P in "
        f"{kernel.DEFAULT_P_VALUES}; refinement shift "
        f"{abs(base.worst_ratio - fine.worst_ratio):.2e}"
    )


def test_criterion_10_kernel_sum_identity():
    worst = max(
        kernel.lemma4_check(q, P)
        for q in range(1, 101)
        for P in (1.5, 2.0, 7.3, 50.0)
    )
    assert worst < 1e-9
    print(
        f"\n[PASS] criterion 10: kernel-sum identity discrepancy < 1e-9 on "
        f"q in 1..100 x P in (1.5, 2, 7.3, 50); worst {worst:.3e}"
    )


def test_criterion_11_constant_derivation():
    r = kernel.constant_derivation()
    assert abs(r.a_bisection - r.a_closed_form) <= 1e-12
    assert abs(r.f1_at_a - r.c0_over_2pi2) <= 1e-12
    print(
        f"\n[PASS] criterion 11: bisection A = {r.a_bisection:.15f} matches "
        f"sqrt(5)/(2 pi^(5/4)) within 1e-12; f1(A) = {r.f1_at_a:.15f} matches "
        f"C0/(2 pi^2) within 1e-12"
    )


def test_criterion_12_oracle_equivalence():
    worst_s = 0.0
    n_chars = 0
    for q in range(2, 201):
        for chi in enumerate_characters(q):
            s, _ = max_interval_sum(prefix_walk(chi))
            worst_s = max(worst_s, abs(s - brute_force_s(chi)))
            n_chars += 1
    assert worst_s < 1e-10

    grid = kernel.default_grid(1)
    worst_g = 0.0
    for P in kernel.DEFAULT_P_VALUES:
        closed = kernel.g_p_closed_grid(grid.u_points, P)
        for u, c in zip(grid.u_points, closed):
            worst_g = max(worst_g, abs(kernel.g_p_direct(float(u), P) - c))
    assert worst_g < 1e-10

    worst_l = 0.0
    done = 0
    while done < 1000:
        a, b = sorted(RNG.uniform(0.0, 1.0, 2))
        if a == b:
            continue
        x = float(RNG.uniform(0.0, 1.0))
        worst_l = max(worst_l, kernel.lambda_identity_check(float(a), float(b), x))
        done += 1
    assert worst_l < 1e-12
    print(
        f"\n[PASS] criterion 12: hull diameter vs brute force {worst_s:.3e} over "
        f"{n_chars} characters (q <= 200); dual kernel evaluators {worst_g:.3e} "
        f"grid-wide; indicator identity {worst_l:.3e} on 1000 random triples"
    )


def test_criterion_13_worker_determinism(tmp_path, monkeypatch):
    monkeypatch.delenv("PV_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # let workers=8 fork 8
    paths = []
    for workers in (1, 8):
        path = tmp_path / f"sweep_w{workers}.csv"
        cfg = SweepConfig(
            q_min=3, q_max=300, workers=workers,
            output_path=str(path), store_rows=False,
        )
        run_sweep(cfg)
        paths.append(path)
    b1 = paths[0].read_bytes()
    b8 = paths[1].read_bytes()
    assert b1 == b8
    # golden hash of the q 3..300 CSV; a deliberate change to the rows
    # (e.g. the witness tie-break) updates it
    assert hashlib.sha256(b1).hexdigest() == (
        "b8209a9afa43c7db543857ca42594da669336eda2702e403203c238be6c7b4e3"
    )
    print(
        f"\n[PASS] criterion 13: workers=1 and workers=8 sweeps are "
        f"byte-identical ({len(b1)} bytes, q in [3, 300])"
    )
