"""Bound evaluators: closed-form constants, a high-precision dual
implementation, catalog transcription checks, and crossover location."""

import math

import mpmath as mp
import numpy as np
import pytest

from pvbounds.bounds import (
    DIFFERENCE_COEFFS,
    CrossoverNotFound,
    EULER_GAMMA,
    bound_names,
    c0,
    catalog_bounds,
    crossover,
    decreasing_from,
    evaluate_bound,
    pomerance_bound,
    psi1,
    psi2,
    theorem1_bound,
)
from pvbounds import harness
from pvbounds.harness import sweep_modulus

mp.mp.dps = 50


MP_C0 = 4 * mp.pi ** mp.mpf("2.5") + 5


def mp_psi(q: int, parity: str):
    """psi1 (even) or psi2 (odd) at 50 digits."""
    rq = mp.sqrt(mp.mpf(q))
    if parity == "even":
        return 1 + 24 / (mp.pi**2 * MP_C0) + 8 / mp.pi**2 * rq / mp.expm1(2 * rq / MP_C0)
    return 1 + 3 / MP_C0 + 2 / mp.pi * rq / mp.expm1(mp.pi * rq / MP_C0)


def mp_theorem1_mpf(q: int, parity: str):
    """Independent re-implementation at 50 digits (dual-route oracle)."""
    qm = mp.mpf(q)
    rq = mp.sqrt(qm)
    if parity == "even":
        main = 2 / mp.pi**2 * rq * mp.log(qm)
        second = 4 / mp.pi**2 * rq * (1 + mp.euler + mp.log(MP_C0))
    else:
        main = rq * mp.log(qm) / (2 * mp.pi)
        second = rq / mp.pi * (1 + mp.euler + mp.log(2 * MP_C0 / mp.pi))
    return main + second + mp_psi(q, parity)


def mp_theorem1(q: int, parity: str) -> float:
    return float(mp_theorem1_mpf(q, parity))


def mp_pomerance_mpf(q: int, parity: str):
    qm = mp.mpf(q)
    rq = mp.sqrt(qm)
    if parity == "even":
        return (
            2 / mp.pi**2 * rq * mp.log(qm)
            + 4 / mp.pi**2 * rq * mp.log(mp.log(qm))
            + mp.mpf(3) / 2 * rq
        )
    return rq * mp.log(qm) / (2 * mp.pi) + rq * mp.log(mp.log(qm)) / mp.pi + rq


def mp_pomerance(q: int, parity: str) -> float:
    return float(mp_pomerance_mpf(q, parity))


def mp_difference_coeffs(parity: str):
    """(a, b) of D = theorem1 - pomerance = sqrt(q) (a - b log log q) + psi(q)
    from their closed forms, at 50 digits."""
    if parity == "even":
        return 4 / mp.pi**2 * (1 + mp.euler + mp.log(MP_C0)) - mp.mpf(3) / 2, 4 / mp.pi**2
    return (1 + mp.euler + mp.log(2 * MP_C0 / mp.pi)) / mp.pi - 1, 1 / mp.pi


# ---------------------------------------------------------------------------
# constants


def test_c0_value():
    assert abs(c0() - 74.9736733) < 1e-6


def test_c0_over_2pi2_consistency():
    lhs = c0() / (2 * math.pi**2)
    rhs = 2 * math.sqrt(math.pi) + 5 / (2 * math.pi**2)
    assert abs(lhs - rhs) < 1e-14
    assert abs(lhs - 3.7982107) < 1e-6


def test_euler_gamma_against_mpmath():
    assert abs(EULER_GAMMA - float(mp.euler)) < 1e-16


# ---------------------------------------------------------------------------
# theorem1


def test_psi1_limit_at_huge_q():
    # the exponential term is below 1e-100 by q = 1e8
    assert abs(psi1(10**8) - (1 + 24 / (math.pi**2 * c0()))) < 1e-15


def test_psi_no_overflow_and_clamp():
    for q in (10**6, 10**10, 10**14):
        assert 1.0 < psi1(q) < 1.3
        assert 1.0 < psi2(q) < 1.1


@pytest.mark.parametrize("q", [3, 17, 100, 18000, 10**4, 10**6, 10**8])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_theorem1_dual_implementation(q, parity):
    mine = theorem1_bound(q, parity).value
    oracle = mp_theorem1(q, parity)
    assert abs(mine - oracle) / oracle < 1e-10


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_theorem1_rejects_small_q(parity):
    with pytest.raises(ValueError):
        theorem1_bound(2, parity)


def test_theorem1_rejects_bad_parity():
    with pytest.raises(ValueError):
        theorem1_bound(10, "both")


def test_psi_decreasing_from_9():
    qs = np.arange(9, 20000)
    p1 = np.array([psi1(int(q)) for q in qs])
    p2 = np.array([psi2(int(q)) for q in qs])
    assert np.all(np.diff(p1) < 0)
    assert np.all(np.diff(p2) < 0)


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_bound_monotone_on_grid(parity):
    qs = np.unique(np.geomspace(3, 10**7, 400).astype(int))
    vals = [theorem1_bound(int(q), parity).value for q in qs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    vals_p = [pomerance_bound(int(q), parity).value for q in qs]
    assert all(b > a for a, b in zip(vals_p, vals_p[1:]))


# ---------------------------------------------------------------------------
# pomerance


@pytest.mark.parametrize("q", [3, 16, 100, 10**6])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_pomerance_dual_implementation(q, parity):
    mine = pomerance_bound(q, parity).value
    oracle = mp_pomerance(q, parity)
    assert abs(mine - oracle) / oracle < 1e-10


def test_pomerance_at_16_loglog_positive():
    assert abs(math.log(math.log(16)) - 1.0197814) < 1e-6
    bv = pomerance_bound(16, "even")
    assert bv.second_term > 0


def test_pomerance_domain_edge_q3():
    assert pomerance_bound(3, "even").value > 0
    with pytest.raises(ValueError):
        pomerance_bound(2, "even")


def test_pomerance_above_theorem1_at_1e6():
    for parity in ("even", "odd"):
        assert pomerance_bound(10**6, parity).value > theorem1_bound(10**6, parity).value


# ---------------------------------------------------------------------------
# catalog


def test_dobrowolski_williams_at_100():
    bv = evaluate_bound("dobrowolski_williams", 100, "even")
    expected = 10 * math.log(100) / (2 * math.log(2)) + 30
    assert abs(bv.value - expected) < 1e-12
    assert abs(bv.value - 63.2192809) < 1e-6


def test_bachman_rachakonda_coefficient_comparison():
    assert abs(1 / (3 * math.log(3)) - 0.30341307) < 1e-7
    assert 1 / (3 * math.log(3)) < 1 / (2 * math.log(2))


def test_catalog_labels_and_flags():
    rows = {bv.name: bv for bv in catalog_bounds(1000, "even")}
    assert set(rows) == set(bound_names())
    assert rows["qiu"].as_printed is True
    assert rows["simalarides"].quantity == "T"
    assert rows["simalarides"].as_printed is True  # constant term lacks sqrt(q)
    assert rows["theorem1"].quantity == "S"
    odd = {bv.name: bv for bv in catalog_bounds(1000, "odd")}
    assert odd["simalarides"].as_printed is False
    assert odd["simalarides"].quantity == "T"


def test_qiu_terms_as_printed():
    bv = evaluate_bound("qiu", 400, "even")
    rq = 20.0
    expected = (
        4 / math.pi**2 * rq * math.log(400) + 0.38 * rq + 0.608 / rq + 0.116 * rq
    )
    assert abs(bv.value - expected) < 1e-12
    assert len(bv.terms) == 4


def printed_formulas(q: int) -> dict:
    """Every catalog entry written out from its published formula, as
    (name, parity) -> [(term label, role, value)]."""
    rq, lq = math.sqrt(q), math.log(q)
    c = 4 * math.pi**2.5 + 5
    g = EULER_GAMMA
    qiu = [
        ("(4/pi^2) sqrt(q) log q", "main", 4 / math.pi**2 * rq * lq),
        ("0.38 sqrt(q)", "second", 0.38 * rq),
        ("0.608 / sqrt(q)", "psi", 0.608 / rq),
        ("0.116 sqrt(q)", "second", 0.116 * rq),
    ]
    dw = [
        ("(1/(2 log 2)) sqrt(q) log q", "main", rq * lq / (2 * math.log(2))),
        ("3 sqrt(q)", "second", 3 * rq),
    ]
    br = [
        ("(1/(3 log 3)) sqrt(q) log q", "main", rq * lq / (3 * math.log(3))),
        ("6.5 sqrt(q)", "second", 6.5 * rq),
    ]
    return {
        ("theorem1", "even"): [
            ("main", "main", 2 / math.pi**2 * rq * lq),
            ("second", "second", 4 / math.pi**2 * rq * (1 + g + math.log(c))),
            ("psi", "psi", 1 + 24 / (math.pi**2 * c)
             + 8 / math.pi**2 * rq / math.expm1(2 * rq / c)),
        ],
        ("theorem1", "odd"): [
            ("main", "main", rq * lq / (2 * math.pi)),
            ("second", "second", rq / math.pi * (1 + g + math.log(2 * c / math.pi))),
            ("psi", "psi", 1 + 3 / c + 2 / math.pi * rq / math.expm1(math.pi * rq / c)),
        ],
        ("pomerance", "even"): [
            ("main", "main", 2 / math.pi**2 * rq * lq),
            ("second", "second", 4 / math.pi**2 * rq * math.log(lq)),
            ("remainder", "psi", 1.5 * rq),
        ],
        ("pomerance", "odd"): [
            ("main", "main", rq * lq / (2 * math.pi)),
            ("second", "second", rq * math.log(lq) / math.pi),
            ("remainder", "psi", rq),
        ],
        ("qiu", "even"): qiu,
        ("qiu", "odd"): qiu,
        ("simalarides", "even"): [
            ("(3/4pi) sqrt(q) log q", "main", 3 / (4 * math.pi) * rq * lq),
            ("2 - log2/pi - gamma/2pi", "second",
             2 - math.log(2) / math.pi - g / (2 * math.pi)),
        ],
        ("simalarides", "odd"): [
            ("(1/pi) sqrt(q) log q", "main", rq * lq / math.pi),
            ("sqrt(q)", "second", rq),
            ("1/2", "psi", 0.5),
        ],
        ("dobrowolski_williams", "even"): dw,
        ("dobrowolski_williams", "odd"): dw,
        ("bachman_rachakonda", "even"): br,
        ("bachman_rachakonda", "odd"): br,
    }


@pytest.mark.parametrize(
    "name,parity", [(n, p) for n in bound_names() for p in ("even", "odd")]
)
def test_catalog_entry_matches_printed_formula(name, parity):
    for q in (3, 10, 1000, 10**6):
        bv = evaluate_bound(name, q, parity)
        expected = printed_formulas(q)[name, parity]
        assert [label for label, _, _ in expected] == [label for label, _ in bv.terms]
        for (_, _, want), (_, got) in zip(expected, bv.terms):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (q, name, parity)
        total = sum(v for _, _, v in expected)
        assert bv.value == pytest.approx(total, rel=1e-12, abs=0.0)
        for role in ("main", "second", "psi"):
            want = sum(v for _, r, v in expected if r == role)
            got = getattr(bv, f"{role}_term")
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (q, name, role)


@pytest.mark.parametrize("name", bound_names())
@pytest.mark.parametrize("parity", ["both", "Even", ""])
def test_every_bound_rejects_bad_parity(name, parity):
    with pytest.raises(ValueError):
        evaluate_bound(name, 100, parity)


@pytest.mark.parametrize("name", bound_names())
@pytest.mark.parametrize("q", [3, 10, 1000, 10**6])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_breakdown_sums_to_value(name, q, parity):
    bv = evaluate_bound(name, q, parity)
    total = bv.main_term + bv.second_term + bv.psi_term
    assert abs(total - bv.value) <= 1e-12 * abs(bv.value)
    term_sum = sum(v for _, v in bv.terms)
    assert abs(term_sum - bv.value) <= 1e-12 * abs(bv.value)


def test_unknown_bound_name():
    with pytest.raises(KeyError):
        evaluate_bound("landau", 100, "even")


@pytest.mark.parametrize("name", bound_names())
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_catalog_monotone_on_grid(name, parity):
    qs = np.unique(np.geomspace(3, 10**7, 300).astype(int))
    vals = [evaluate_bound(name, int(q), parity).value for q in qs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_catalog_dominates_exact_sums_small_range():
    # every catalog entry sits above the exact quantity it bounds
    from pvbounds.characters import enumerate_characters
    from pvbounds.charsums import char_sum_result

    for q in range(3, 301):
        cache = {}
        for chi in enumerate_characters(q):
            if not chi.is_primitive:
                continue
            s, _, t, _ = char_sum_result(chi)
            for name in bound_names():
                key = (name, chi.parity)
                if key not in cache:
                    cache[key] = evaluate_bound(name, q, chi.parity)
                bv = cache[key]
                exact = s if bv.quantity == "S" else t
                assert bv.value > exact, (q, chi.label, name)


# ---------------------------------------------------------------------------
# crossover


def test_crossover_even_below_18000():
    qstar = crossover("even")
    assert qstar <= 18000
    assert qstar == 17011  # frozen from the first verified run
    assert theorem1_bound(qstar, "even").value < pomerance_bound(qstar, "even").value
    assert theorem1_bound(qstar - 1, "even").value >= pomerance_bound(qstar - 1, "even").value


def test_crossover_odd_below_28000():
    qstar = crossover("odd")
    assert qstar <= 28000
    assert qstar == 27087  # frozen from the first verified run
    assert theorem1_bound(qstar, "odd").value < pomerance_bound(qstar, "odd").value
    assert theorem1_bound(qstar - 1, "odd").value >= pomerance_bound(qstar - 1, "odd").value


def test_crossover_not_found_raises():
    for limit in (1000, 17010):  # below ceil(q0) = 7819; one short of q* = 17011
        with pytest.raises(CrossoverNotFound):
            crossover("even", limit=limit)


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_log_grid_negative_beyond_crossover(parity):
    qstar = crossover(parity)
    grid = np.unique(np.geomspace(qstar, 10**7, 300).astype(int))
    for q in grid:
        assert theorem1_bound(int(q), parity).value < pomerance_bound(int(q), parity).value


# ---------------------------------------------------------------------------
# crossover by monotonicity: D = theorem1 - pomerance = sqrt(q) (a - b log log q)
# + psi(q) strictly decreases from q0 = exp(exp(a/b)) on


@pytest.mark.parametrize("parity,ceil_q0", [("even", 7819), ("odd", 21719)])
def test_difference_coeffs_and_q0_against_mpmath(parity, ceil_q0):
    a, b = DIFFERENCE_COEFFS[parity]
    a_mp, b_mp = mp_difference_coeffs(parity)
    assert abs(a - a_mp) < 1e-15 * abs(a_mp)
    assert abs(b - b_mp) < 1e-16 * b_mp
    q0_mp = mp.exp(mp.exp(a_mp / b_mp))
    assert abs(decreasing_from(parity) - q0_mp) < 1e-12 * q0_mp
    assert math.ceil(decreasing_from(parity)) == int(mp.ceil(q0_mp)) == ceil_q0
    # the first term of D is flat at q0 and falls past it
    assert abs(a_mp - b_mp * mp.log(mp.log(q0_mp))) < mp.mpf(10) ** -40


@pytest.mark.parametrize("parity,qstar", [("even", 17011), ("odd", 27087)])
def test_difference_signs_at_crossover_mpmath(parity, qstar):
    assert crossover(parity) == qstar
    a, b = mp_difference_coeffs(parity)
    for q, positive in ((qstar - 1, True), (qstar, False)):
        d = mp_theorem1_mpf(q, parity) - mp_pomerance_mpf(q, parity)
        closed = mp.sqrt(q) * (a - b * mp.log(mp.log(q))) + mp_psi(q, parity)
        assert abs(d - closed) < mp.mpf(10) ** -40
        assert (d > 0) == positive, (q, d)
        assert abs(d) > mp.mpf(10) ** -5  # far above float rounding


@pytest.mark.parametrize("q", [100, 7819, 17011, 27087, 10**6, 10**9])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_difference_closed_form_matches_catalog(q, parity):
    a, b = DIFFERENCE_COEFFS[parity]
    psi = psi1 if parity == "even" else psi2
    closed = math.sqrt(q) * (a - b * math.log(math.log(q))) + psi(q)
    t = theorem1_bound(q, parity).value
    assert abs(closed - (t - pomerance_bound(q, parity).value)) <= 1e-12 * t


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_difference_decreasing_through_old_window(parity):
    """D falls at every integer from ceil(q0) to q* + 1000, the window the
    search-and-confirm crossover used to check."""
    qstar = crossover(parity)
    qs = range(math.ceil(decreasing_from(parity)), qstar + 1001)
    d = [theorem1_bound(q, parity).value - pomerance_bound(q, parity).value for q in qs]
    assert all(y < x for x, y in zip(d, d[1:]))
    assert d[qstar - 1 - qs.start] >= 0.0 > d[qstar - qs.start]


# ---------------------------------------------------------------------------
# margins: the sweep's rows (sweep_modulus) against hand-computed sums


def test_margin_report_q5_even_quadratic():
    # chi mod 5 of label (2,) takes 1, -1, -1, 1: S = 2 and T = 1 exactly
    (row,) = sweep_modulus(5, ("even",), ("theorem1", "pomerance"))
    assert row.label == (2,) and (row.s_chi, row.t_chi) == (2.0, 1.0)
    assert row.margins[0] == theorem1_bound(5, "even").value - 2.0
    assert row.margins[0] > 0
    assert not row.violated()
    assert abs(row.ratio - 2.0 / (math.sqrt(5) * math.log(5))) < 1e-15


def test_margin_report_q3_odd_pomerance():
    (row,) = sweep_modulus(3, ("odd",), ("pomerance",))
    assert (row.s_chi, row.t_chi) == (1.0, 1.0)
    expected = (
        math.sqrt(3) * math.log(3) / (2 * math.pi)
        + math.sqrt(3) * math.log(math.log(3)) / math.pi
        + math.sqrt(3)
        - 1.0
    )
    assert abs(row.margins[0] - expected) < 1e-12
    assert row.margins[0] > 0


def test_margin_report_empty():
    assert sweep_modulus(6, ("even", "odd"), ("theorem1",)) == []  # q = 2 mod 4
    assert sweep_modulus(3, ("even",), ("theorem1",)) == []  # chi mod 3 is odd


def test_margin_report_flags_negative(monkeypatch):
    monkeypatch.setattr(harness, "char_sum_result", lambda chi: (1e9, (1, 1), 1.0, 1))
    rows = sweep_modulus(5, ("even", "odd"), ("theorem1", "pomerance"))
    assert rows and all(r.violated() and max(r.margins) < 0 for r in rows)


def test_margin_report_t_bounds_compare_against_t():
    (row,) = sweep_modulus(5, ("even",), ("simalarides",))
    bv = evaluate_bound("simalarides", 5, "even")
    assert bv.quantity == "T"
    assert row.t_chi == 1.0 != row.s_chi
    assert row.margins[0] == bv.value - row.t_chi
