"""Prefix-walk diameters against the O(q^2) pairwise oracle."""

import numpy as np
import pytest

from pvbounds import charsums
from pvbounds.characters import (
    character_from_label,
    enumerate_characters,
    unit_group,
)
from pvbounds.charsums import (
    PrefixWalk,
    _blocks,
    _directional_prune,
    _hulls,
    brute_force_s,
    char_sum_result,
    max_initial_sum,
    max_interval_sum,
    prefix_walk,
)

RNG = np.random.default_rng(20260808)


def resum_interval(chi, m: int, n: int) -> complex:
    """Oracle: sum_{k=M}^{N} chi(k) by a fresh Python summation."""
    vals = chi.values()
    return complex(sum(vals[k % chi.modulus] for k in range(m, n + 1)))


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


@pytest.mark.parametrize("q", range(2, 201))
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
        assert_walk_contract(chi)


def one_shot_walk(chi):
    """Oracle: the walk from a single 80-bit cumsum over the value table."""
    q = chi.modulus
    pts = np.empty(q + 1, dtype=np.complex128)
    pts[:q] = np.cumsum(chi.values().astype(np.clongdouble)).astype(np.complex128)
    pts[q] = pts[q - 1]
    return pts


def assert_walk_contract(chi):
    w = prefix_walk(chi)
    assert w.unit_steps
    assert w.points.tobytes() == one_shot_walk(chi).tobytes()
    # the step bound the block radius rests on
    steps = np.abs(np.diff(w.points))
    assert steps.max(initial=0.0) <= 1.0 + charsums._STEP_SLACK * len(w.points)


@pytest.mark.parametrize("offset", [-1, 0, 1, 8192 + 1])
def test_walk_equals_one_shot_cumsum_across_chunks(offset):
    q = 8192 + offset
    rng = np.random.default_rng(q)
    orders = unit_group(q).orders
    for _ in range(3):
        assert_walk_contract(character_from_label(q, [int(rng.integers(o)) for o in orders]))


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
        s, _, t, _ = char_sum_result(chi)
        assert t <= s + 1e-12
        assert s <= 2.0 * t + 1e-12
        if chi.parity == "even" and chi.is_primitive:
            assert abs(s - 2.0 * t) < 1e-9


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
            s1, wit1, t1, _ = char_sum_result(chi)
            s2, _, t2, _ = char_sum_result(chibar)
            assert s1 == s2 and t1 == t2
            # either character's witness is valid for the other
            assert abs(abs(resum_interval(chibar, *wit1)) - s2) < 1e-10


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
    mags = np.abs(pts)
    assert max_initial_sum(PrefixWalk(0, pts.copy())) == (mags.max(), int(np.argmax(mags)))
    with monkeypatch.context() as m:
        m.setattr(charsums, "_directional_prune", lambda p, blocks=None: p)
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
    # past the block gate a bare PrefixWalk still takes the full scan: its
    # shuffled points are no unit-step walk, so blocks would lose hull points
    gate = charsums._BLOCK_GATE * charsums._BLOCK
    big = polygon_edge_points(vertices, gate // len(vertices) + 1)
    assert len(big) > gate and _blocks(PrefixWalk(0, big.copy())) is None
    assert_prune_sound(np.random.default_rng(6).permutation(big), monkeypatch)


# ---------------------------------------------------------------------------
# the block level gives the full scan's survivors, S, witness and T


def block_level_outputs(walk):
    pts = walk.points
    survivors = _directional_prune(pts, _blocks(walk)) if pts.imag.any() else None
    return survivors, max_interval_sum(walk), max_initial_sum(walk)


def assert_block_level_matches_full_scan(walks, monkeypatch, gate=0):
    with monkeypatch.context() as m:
        m.setattr(charsums, "_BLOCK_GATE", 10**18)
        full = [block_level_outputs(w) for w in walks]
    with monkeypatch.context() as m:
        m.setattr(charsums, "_BLOCK_GATE", gate)
        assert all(_blocks(w) is not None for w in walks)
        blocked = [block_level_outputs(w) for w in walks]
    for w, (sv_f, s_f, t_f), (sv_b, s_b, t_b) in zip(walks, full, blocked):
        assert s_b == s_f and t_b == t_f, w.modulus
        if sv_f is None:
            assert sv_b is None
        else:  # same points in the same order, bit for bit
            assert sv_b.tobytes() == sv_f.tobytes(), w.modulus


@pytest.mark.parametrize("q", range(3, 301))
def test_block_level_matches_full_scan_small_q(q, monkeypatch):
    walks = [
        prefix_walk(chi)
        for chi in enumerate_characters(q)
        if chi.is_primitive and chi.order > 2
    ]
    assert_block_level_matches_full_scan(walks, monkeypatch)


@pytest.mark.parametrize("q", [27091, 27720, 100003, 100100])
def test_block_level_matches_full_scan_large_q(q, monkeypatch):
    walks = seeded_primitive_walks(q, 3)
    assert all(_blocks(w) is not None for w in walks)  # the gate is on here
    assert_block_level_matches_full_scan(walks, monkeypatch, gate=charsums._BLOCK_GATE)


def lattice_walk(waypoints, n):
    """n points from 0 that wait, then reach each (index, point) waypoint by
    unit steps along x, then y: a unit-step walk with exact points."""
    pts = np.zeros(n, dtype=complex)
    k, p = 0, 0j
    for k1, p1 in waypoints + [(n - 1, None)]:
        p1 = p if p1 is None else p1
        dx, dy = int(p1.real - p.real), int(p1.imag - p.imag)
        steps = [np.sign(dx)] * abs(dx) + [1j * np.sign(dy)] * abs(dy)
        assert len(steps) <= k1 - k
        pts[k + 1 : k1 + 1] = p + np.cumsum([0] * (k1 - k - len(steps)) + steps)
        k, p = k1, p1
    return pts


@pytest.mark.parametrize(
    "waypoints, t_index",
    [
        # T first reached at 16, 8 steps before the centre 24 at 8 = T - 8;
        # the later centre 40 reaches T exactly
        ([(16, 16), (24, 8), (40, 16), (63, 0)], 16),
        # max x first at 32, 8 steps before the centre 40 at x = 12; the
        # centre 88 reaches x = 20 far off the axis, and every other
        # direction's best centre lies more than 8 beyond the centre 40
        (
            [(32, 20), (40, 12), (70, 12 + 30j), (88, 20 + 30j), (168, 10 - 30j),
             (224, -40 - 30j), (296, -40 + 40j), (380, 0)],
            296,
        ),
        # the corner (20, 0) at 32 lies on the edges x = 20, 8 steps from
        # the centre 40, whose disc therefore touches the corner polygon
        (
            [(32, 20), (40, 12), (70, 12 + 30j), (78, 20 + 30j), (140, 20 - 30j),
             (204, -40 - 30j), (280, -40 + 40j), (364, 0)],
            280,
        ),
    ],
    ids=["t-at-radius", "corner-at-radius", "edge-at-radius"],
)
def test_block_level_exact_at_the_radius(waypoints, t_index, monkeypatch):
    # with the step slack at 0 the radius is exactly 8, and these extremes
    # lie exactly 8 from their block centres: the disc tests are inclusive
    walk = PrefixWalk(0, lattice_walk(waypoints, 392), unit_steps=True)
    monkeypatch.setattr(charsums, "_STEP_SLACK", 0.0)
    assert_block_level_matches_full_scan([walk], monkeypatch)
    assert max_initial_sum(walk)[1] == t_index


@pytest.mark.parametrize("q", range(5, 401))
def test_block_level_exact_on_lattice_walks(q, monkeypatch):
    # walks of characters of order <= 4 are exact Gaussian-integer lattice
    # walks, so with the step slack at 0 the radius 8 is tight: extremes at
    # distance exactly 8 from a block centre must still be found
    walks = [prefix_walk(chi) for chi in enumerate_characters(q) if chi.order in (2, 4)]
    monkeypatch.setattr(charsums, "_STEP_SLACK", 0.0)
    assert_block_level_matches_full_scan(walks, monkeypatch)


def test_brute_force_cap():
    chi = [c for c in enumerate_characters(2003) if not c.is_principal][0]
    with pytest.raises(ValueError):
        brute_force_s(chi)
    assert brute_force_s(chi, cap=2003) > 0


def test_walk_points_read_only():
    w = prefix_walk(quadratic_mod5())
    with pytest.raises(ValueError):
        w.points[0] = 5.0
