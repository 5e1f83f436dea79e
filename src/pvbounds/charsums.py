"""Exact extremal character sums via the prefix-walk diameter.

S = max over intervals |sum chi(n)| equals the diameter of the planar set
of prefix sums, because every interval sum is a difference of two prefix
points. The diameter is the largest distance between two vertices of the
monotone-chain convex hull, with an O(q^2) pairwise scan kept as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characters import DirichletCharacter

__all__ = [
    "PrefixWalk",
    "CharSumResult",
    "prefix_walk",
    "max_interval_sum",
    "max_initial_sum",
    "char_sum_result",
    "brute_force_s",
    "resum_interval",
]

PARITY_CONSISTENCY_TOL = 1e-9  # |S - 2T| budget for even primitive characters


@dataclass(frozen=True)
class PrefixWalk:
    """points[k] = sum_{n<=k} chi(n) for k = 0..q, with points[0] = 0."""

    modulus: int
    points: np.ndarray

    def __post_init__(self):
        self.points.setflags(write=False)


@dataclass(frozen=True)
class CharSumResult:
    """Exact S and T with witnesses for one character.

    s_witness = (M, N) means |sum_{n=M}^{N} chi(n)| = s_chi; t_witness is
    the smallest N maximizing |sum_{n<=N} chi(n)|. parity_consistent holds
    the S = 2T check for even primitive characters and is None otherwise.
    """

    q: int
    label: tuple[int, ...]
    parity: str
    conductor: int
    s_chi: float
    t_chi: float
    s_witness: tuple[int, int]
    t_witness: int
    parity_consistent: bool | None


def prefix_walk(chi: DirichletCharacter) -> PrefixWalk:
    """Running prefix sums of the value table, length q + 1.

    Accumulation runs in 80-bit extended precision so the rounding error
    stays orders of magnitude below the 1e-10 oracle comparisons even at
    q ~ 1e5. The mod-1 character yields the zero walk by convention.
    """
    q = chi.modulus
    if q == 1:
        return PrefixWalk(1, np.zeros(2, dtype=np.complex128))
    vals = chi.values()
    points = np.empty(q + 1, dtype=np.complex128)
    points[:q] = np.cumsum(vals.astype(np.clongdouble)).astype(np.complex128)
    points[q] = points[q - 1]
    return PrefixWalk(q, points)


def max_initial_sum(walk: PrefixWalk) -> tuple[float, int]:
    """T = max_k |points[k]|, with the smallest maximizing k."""
    mags = np.abs(walk.points)
    k = int(np.argmax(mags))
    return float(mags[k]), k


# ---------------------------------------------------------------------------
# Diameter machinery.


def _hulls(points):
    """Upper and lower convex hulls of sorted 2d points (monotone chain).

    points must be sorted tuples of plain Python floats; the cross products
    are inlined because this loop dominates the sweep.
    """
    upper = []
    lower = []
    for p in points:
        rx, ry = p
        while len(upper) > 1:
            qx, qy = upper[-1]
            px, py = upper[-2]
            if (qy - py) * (rx - px) - (qx - px) * (ry - py) <= 0.0:
                upper.pop()
            else:
                break
        while len(lower) > 1:
            qx, qy = lower[-1]
            px, py = lower[-2]
            if (qy - py) * (rx - px) - (qx - px) * (ry - py) >= 0.0:
                lower.pop()
            else:
                break
        upper.append(p)
        lower.append(p)
    return upper, lower


_N_PRUNE_DIRS = 16
_PRUNE_ANGLES = np.pi * np.arange(_N_PRUNE_DIRS) / (_N_PRUNE_DIRS / 2.0)
_PRUNE_DIRS = np.column_stack([np.cos(_PRUNE_ANGLES), np.sin(_PRUNE_ANGLES)])
_PRUNE_DIRS.setflags(write=False)


def _directional_prune(pts: np.ndarray) -> np.ndarray:
    """Drop points strictly inside the polygon of 16 directional extremes.

    Sound pre-filter: interior points of a convex polygon spanned by members
    of the set cannot lie on the set's convex hull. Arrays are laid out
    (directions or edges, points), so the two matrix products write, and the
    argmax and all-edges reductions read, contiguous rows of n points; the
    transposed layout makes those reductions strided, and at large q they
    then cost most of the diameter's time.
    """
    xy = np.stack([pts.real, pts.imag])
    corners = np.unique(pts[np.argmax(_PRUNE_DIRS @ xy, axis=1)])
    if len(corners) < 3:
        return pts
    # projection ties can scramble the direction order, so order explicitly
    order = np.argsort(
        np.arctan2(corners.imag - corners.imag.mean(), corners.real - corners.real.mean())
    )
    corners = corners[order]
    edges = np.concatenate([corners[1:], corners[:1]]) - corners
    cx, cy, ex, ey = corners.real, corners.imag, edges.real, edges.imag
    # cross((B-A), (p-A)) = (-ey, ex) . (x, y) + (cx ey - cy ex), per edge;
    # this rearrangement cancels catastrophically for points on an edge, so
    # "inside" must clear a per-edge rounding bound or hull points get lost
    offsets = cx * ey - cy * ex
    cross = np.column_stack([-ey, ex]) @ xy
    cross += offsets[:, None]
    tol = 32.0 * np.finfo(np.float64).eps * (
        np.abs(xy[0]).max() * np.abs(ey) + np.abs(xy[1]).max() * np.abs(ex) + np.abs(offsets)
    )
    inside = np.logical_and.reduce(cross > tol[:, None], axis=0)
    return pts[~inside]


def _first_after(occurrences: np.ndarray, start: int) -> int | None:
    pos = np.searchsorted(occurrences, start, side="right")
    return int(occurrences[pos]) if pos < len(occurrences) else None


def _lex_min_witness(points: np.ndarray, pairs) -> tuple[int, int]:
    """Smallest (a, b), a < b, realizing any of the endpoint-value pairs."""
    best = None
    for u, v in pairs:
        occ_u = np.flatnonzero(points == u)
        occ_v = np.flatnonzero(points == v)
        for first, other in ((occ_u, occ_v), (occ_v, occ_u)):
            a = int(first[0])
            b = _first_after(other, a)
            if b is not None and (best is None or (a, b) < best):
                best = (a, b)
    assert best is not None
    return best


def max_interval_sum(walk: PrefixWalk) -> tuple[float, tuple[int, int]]:
    """Diameter of the prefix-point set with its witness interval.

    Returns (S, (M, N)) where S = |points[N] - points[M-1]| is the largest
    interval-sum modulus; tied maxima resolve to the lexicographically
    smallest witness. Real (quadratic) characters take the exact collinear
    path: the diameter is max - min of the real parts.
    """
    pts = walk.points
    if len(pts) < 2:
        return 0.0, (1, 1)
    if not pts.imag.any():
        x = pts.real
        lo = x.min()
        hi = x.max()
        if hi == lo:
            return 0.0, (1, 1)
        s = float(hi - lo)
        pairs = [(complex(lo, 0.0), complex(hi, 0.0))]
        a, b = _lex_min_witness(pts, pairs)
        return s, (a + 1, b)

    cand = _directional_prune(pts) if len(pts) > 32 else pts
    uniq = np.unique(cand)
    if len(uniq) == 1:
        return 0.0, (1, 1)
    hull_pts = list(zip(uniq.real.tolist(), uniq.imag.tolist()))
    upper, lower = _hulls(hull_pts)
    # all vertex pairs, so every pair achieving the diameter reaches the
    # witness tie-break
    verts = np.unique(
        np.array([complex(*p) for p in upper + lower], dtype=np.complex128)
    )
    dx = verts.real[:, None] - verts.real[None, :]
    dy = verts.imag[:, None] - verts.imag[None, :]
    d2 = dx * dx + dy * dy
    ii, jj = np.nonzero(d2 == d2.max())
    pairs = [(verts[i], verts[j]) for i, j in zip(ii, jj) if i < j]
    a, b = _lex_min_witness(pts, pairs)
    s = float(abs(pts[b] - pts[a]))
    return s, (a + 1, b)


def resum_interval(chi: DirichletCharacter, m: int, n: int) -> complex:
    """sum_{k=M}^{N} chi(k), fresh summation (witness validation)."""
    vals = chi.values()
    return complex(sum(vals[k % chi.modulus] for k in range(m, n + 1)))


def char_sum_result(
    chi: DirichletCharacter, walk: PrefixWalk | None = None
) -> CharSumResult:
    """S and T with witnesses, plus the S = 2T check for even primitive chi."""
    walk = walk if walk is not None else prefix_walk(chi)
    s, s_witness = max_interval_sum(walk)
    t, t_witness = max_initial_sum(walk)
    consistent = None
    if chi.parity == "even" and chi.is_primitive:
        consistent = abs(s - 2.0 * t) < PARITY_CONSISTENCY_TOL
    return CharSumResult(
        q=chi.modulus,
        label=chi.label,
        parity=chi.parity,
        conductor=chi.conductor,
        s_chi=s,
        t_chi=t,
        s_witness=s_witness,
        t_witness=t_witness,
        parity_consistent=consistent,
    )


def brute_force_s(chi: DirichletCharacter, cap: int = 2000) -> float:
    """O(q^2) pairwise-distance scan over prefix points (reference oracle).

    Refuses moduli above cap to guard against accidental quadratic blowup.
    """
    if chi.modulus > cap:
        raise ValueError(
            f"brute force capped at q <= {cap}, got q = {chi.modulus}"
        )
    pts = prefix_walk(chi).points
    best = 0.0
    for a in range(len(pts) - 1):
        d = np.abs(pts[a + 1 :] - pts[a]).max()
        if d > best:
            best = float(d)
    return best
