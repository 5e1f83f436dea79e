"""Prefix-walk diameters against the O(q^2) pairwise oracle."""

import numpy as np
import pytest

from pvbounds import charsums
from pvbounds.characters import character_from_label, enumerate_characters, unit_group
from pvbounds.charsums import (
    PrefixWalk,
    _directional_prune,
    _hulls,
    brute_force_s,
    char_sum_result,
    max_initial_sum,
    max_interval_sum,
    prefix_walk,
    resum_interval,
)

RNG = np.random.default_rng(20260808)


def pairwise_diameter(pts: np.ndarray) -> float:
    """Oracle: max |pts[b] - pts[a]| over all pairs, O(n^2)."""
    best = 0.0
    for a in range(len(pts) - 1):
        best = max(best, float(np.abs(pts[a + 1 :] - pts[a]).max()))
    return best


def quadratic_mod5():
    return [c for c in enumerate_characters(5) if c.order == 2][0]


# ---------------------------------------------------------------------------
# prefix walks


def test_walk_quadratic_mod5():
    w = prefix_walk(quadratic_mod5())
    assert np.array_equal(w.points, np.array([0, 1, 0, -1, 0, 0], dtype=complex))


def test_walk_principal_mod2():
    w = prefix_walk(enumerate_characters(2)[0])
    assert np.array_equal(w.points, np.array([0, 1, 1], dtype=complex))


@pytest.mark.parametrize("q", range(2, 60))
def test_walk_shape_and_orthogonality(q):
    for chi in enumerate_characters(q):
        w = prefix_walk(chi)
        assert len(w.points) == q + 1
        assert w.points[0] == 0
        assert w.points[q] == w.points[q - 1]
        steps = np.abs(np.diff(w.points))
        assert np.all((steps < 1e-12) | (np.abs(steps - 1.0) < 1e-12))
        if not chi.is_principal:
            assert abs(w.points[q]) < 1e-9


# ---------------------------------------------------------------------------
# S and T with witnesses


def test_s_quadratic_mod5():
    s, wit = max_interval_sum(prefix_walk(quadratic_mod5()))
    assert s == 2.0
    assert wit == (2, 3)
    assert resum_interval(quadratic_mod5(), 2, 3) == -2.0


def test_s_odd_mod3():
    chi = [c for c in enumerate_characters(3) if not c.is_principal][0]
    s, _ = max_interval_sum(prefix_walk(chi))
    assert s == 1.0


def test_t_quadratic_mod5():
    t, k = max_initial_sum(prefix_walk(quadratic_mod5()))
    assert t == 1.0
    assert k == 1


def test_constant_walk_zero():
    w = prefix_walk(enumerate_characters(1)[0])
    s, _ = max_interval_sum(w)
    t, _ = max_initial_sum(w)
    assert s == 0.0 and t == 0.0


@pytest.mark.parametrize("q", range(2, 201))
def test_calipers_equal_brute_force(q):
    for chi in enumerate_characters(q):
        s, wit = max_interval_sum(prefix_walk(chi))
        b = brute_force_s(chi)
        assert abs(s - b) < 1e-10
        if chi.order <= 2:  # real characters: collinear path, exact
            assert s == b
        # witness validity
        assert abs(abs(resum_interval(chi, *wit)) - s) < 1e-10


@pytest.mark.parametrize("q", range(3, 151))
def test_s_equals_2t_even_primitive(q):
    for chi in enumerate_characters(q):
        res = char_sum_result(chi)
        assert res.t_chi <= res.s_chi + 1e-12
        assert res.s_chi <= 2.0 * res.t_chi + 1e-12
        if chi.parity == "even" and chi.is_primitive:
            assert abs(res.s_chi - 2.0 * res.t_chi) < 1e-9
            assert res.parity_consistent is True
        else:
            assert res.parity_consistent is None


def test_collinear_diameter_is_max_minus_min():
    for q in (5, 8, 12, 40, 101):
        for chi in enumerate_characters(q):
            if chi.order > 2:
                continue
            pts = prefix_walk(chi).points
            assert not pts.imag.any()
            s, _ = max_interval_sum(prefix_walk(chi))
            assert s == float(pts.real.max() - pts.real.min())


def test_conjugate_character_same_sums():
    for q in (7, 23, 40, 97, 143):
        orders = unit_group(q).orders
        for chi in enumerate_characters(q):
            conj_label = tuple((-e) % o for e, o in zip(chi.label, orders))
            chibar = character_from_label(q, conj_label)
            assert np.array_equal(
                prefix_walk(chibar).points, np.conj(prefix_walk(chi).points)
            )
            r1 = char_sum_result(chi)
            r2 = char_sum_result(chibar)
            assert r1.s_chi == r2.s_chi and r1.t_chi == r2.t_chi
            # either character's witness is valid for the other
            assert abs(abs(resum_interval(chibar, *r1.s_witness)) - r2.s_chi) < 1e-10


# ---------------------------------------------------------------------------
# diameter machinery on synthetic walks


@pytest.mark.parametrize("trial", range(200))
def test_random_walk_diameter(trial):
    n = int(RNG.integers(2, 500))
    pts = (RNG.normal(size=n) + 1j * RNG.normal(size=n)).cumsum()
    s, (m, nn) = max_interval_sum(PrefixWalk(0, pts.copy()))
    assert abs(s - pairwise_diameter(pts)) < 1e-12
    assert 0 < m <= nn < len(pts)
    assert abs(abs(pts[nn] - pts[m - 1]) - s) < 1e-15


@pytest.mark.parametrize(
    "pts",
    [
        np.array([0, 1, 1 + 1j, 1j, 0.5 + 0.5j] * 3, dtype=complex),
        np.array([0, 1, 2, 3, 2, 1, 0], dtype=complex) + 1e-30j,
        np.array([0, 1j, 0, -1j] * 5, dtype=complex),
        np.exp(2j * np.pi * np.arange(97) / 97),
        np.zeros(5, dtype=complex),
        np.array([1 + 1j, 1 + 1j], dtype=complex),
    ],
    ids=["square-ties", "near-collinear", "vertical", "circle", "zeros", "pair"],
)
def test_degenerate_walks(pts):
    s, _ = max_interval_sum(PrefixWalk(0, pts.copy()))
    assert abs(s - pairwise_diameter(pts)) < 1e-12


def test_witness_lexicographic_tiebreak():
    # two interval sums achieve the max; the earlier indices must win
    pts = np.array([0, 1, 0, 1, 0], dtype=complex)
    s, wit = max_interval_sum(PrefixWalk(0, pts.copy()))
    assert s == 1.0
    assert wit == (1, 1)


# ---------------------------------------------------------------------------
# the directional prune keeps every hull vertex


def seeded_primitive_walks(q, count):
    """Walks of count seeded primitive characters mod q, drawn by label."""
    rng = np.random.default_rng(q)
    orders = unit_group(q).orders
    walks = []
    while len(walks) < count:
        chi = character_from_label(q, [int(rng.integers(o)) for o in orders])
        if chi.is_primitive and chi.order > 2:
            walks.append(prefix_walk(chi))
    return walks


def unpruned_hull_vertices(pts):
    uniq = np.unique(pts)
    upper, lower = _hulls(list(zip(uniq.real.tolist(), uniq.imag.tolist())))
    return {complex(*p) for p in upper + lower}


def assert_prune_sound(pts, monkeypatch):
    """Survivors hold every unpruned hull vertex, and the pruned diameter
    path gives the unpruned one's S and witness bit for bit."""
    survivors = set(_directional_prune(pts).tolist())
    assert unpruned_hull_vertices(pts) <= survivors
    pruned = max_interval_sum(PrefixWalk(0, pts.copy()))
    with monkeypatch.context() as m:
        m.setattr(charsums, "_directional_prune", lambda p: p)
        assert max_interval_sum(PrefixWalk(0, pts.copy())) == pruned


@pytest.mark.parametrize("q", [10007, 27091, 2**3 * 3**2 * 5 * 7 * 11])
def test_prune_sound_on_large_q_walks(q, monkeypatch):
    for walk in seeded_primitive_walks(q, 3):
        assert_prune_sound(walk.points, monkeypatch)


def polygon_edge_points(vertices, per_edge):
    """Points spaced along every edge of the closed polygon, vertices included."""
    t = np.linspace(0.0, 1.0, per_edge, endpoint=False)
    return np.concatenate(
        [a + t * (b - a) for a, b in zip(vertices, np.roll(vertices, -1))]
    )


@pytest.mark.parametrize(
    "vertices",
    [
        # corners on the 16 prune directions: edge points sit on corner-polygon edges
        37.5 - 12.25j + 1e3 * np.exp(1j * np.pi * np.arange(16) / 8),
        -3.0 + 5.0j + 250.0 * np.array([0, 1, 1 + 1j, 1j]),
    ],
    ids=["16-gon", "square"],
)
def test_prune_sound_on_points_along_corner_edges(vertices, monkeypatch):
    pts = polygon_edge_points(vertices, 97)
    assert len(pts) > 32
    assert_prune_sound(pts, monkeypatch)
    assert_prune_sound(np.random.default_rng(5).permutation(pts), monkeypatch)


def test_brute_force_cap():
    chi = [c for c in enumerate_characters(2003) if not c.is_principal][0]
    with pytest.raises(ValueError):
        brute_force_s(chi)
    assert brute_force_s(chi, cap=2003) > 0


def test_walk_points_read_only():
    w = prefix_walk(quadratic_mod5())
    with pytest.raises(ValueError):
        w.points[0] = 5.0
