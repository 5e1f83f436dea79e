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
    "prefix_walk",
    "max_interval_sum",
    "max_initial_sum",
    "char_sum_result",
    "brute_force_s",
]

_EPS = float(np.finfo(np.float64).eps)
_STEP_SLACK = 2.0 * _EPS  # a walk step is at most 1 + _STEP_SLACK * len: see _Blocks


@dataclass(frozen=True)
class PrefixWalk:
    """points[k] = sum_{n<=k} chi(n) for k = 0..q, with points[0] = 0."""

    modulus: int
    points: np.ndarray
    unit_steps: bool = False  # prefix_walk's step bound holds: blocks may be used

    def __post_init__(self):
        self.points.setflags(write=False)


def prefix_walk(chi: DirichletCharacter) -> PrefixWalk:
    """Running prefix sums of the value table, length q + 1.

    Accumulation is one sequential cumsum in 80-bit extended precision, in
    place, so the rounding error stays orders of magnitude below the 1e-10
    oracle comparisons even at q ~ 1e5; the sums are rounded to float64 once.
    The mod-1 character yields the zero walk by convention.
    """
    q = chi.modulus
    if q == 1:
        return PrefixWalk(1, np.zeros(2, dtype=np.complex128), unit_steps=True)
    sums = chi.values().astype(np.clongdouble)
    np.cumsum(sums, out=sums)
    points = np.empty(q + 1, dtype=np.complex128)
    points[:q] = sums
    points[q] = points[q - 1]
    return PrefixWalk(q, points, unit_steps=True)


def max_initial_sum(walk: PrefixWalk) -> tuple[float, int]:
    """T = max_k |points[k]|, with the smallest maximizing k."""
    pts = walk.points
    blocks = _blocks(walk)
    if blocks is not None:  # the max sits in a block with |c| + r >= max |c|
        reach = np.abs(blocks.centres)
        idx = blocks.members(reach + blocks.radius >= reach.max())
        pts = pts[idx]
    mags = np.abs(pts)
    k = int(np.argmax(mags))
    return float(mags[k]), k if blocks is None else int(idx[k])


_BLOCK = 16
# Below 1,024 blocks (16,384 points) the block level's extra numpy calls
# cost more than its culling saves: break-even was measured near q = 12k.
_BLOCK_GATE = 1024


class _Blocks:
    """Runs of 16 consecutive walk points, each inside a disc about a member.

    A step is at most 1 + _STEP_SLACK n: |chi(m)| <= 1 + eps, and each 80-bit
    add (2^-64 n) and rounding to float64 (2^-53 n per end) moves a
    coordinate by at most 1.01 eps n, so a step by at most 1.5 eps n. Block
    i lies within 8 steps of centres[i] = points[16 i + 8] (the last point
    for a short last block). The radius doubles those steps' slack to cover
    the rounding, below 4 eps n as |coordinates| <= n, of each projection,
    modulus or cross product compared against it.
    """

    def __init__(self, pts: np.ndarray):
        self.n = n = len(pts)
        self.centres = pts[np.minimum(np.arange(8, n + 8, _BLOCK), n - 1)]
        self.radius = 8.0 * (1.0 + 2.0 * _STEP_SLACK * n)

    def members(self, keep: np.ndarray) -> np.ndarray:
        """Ascending point indices of the blocks where keep holds."""
        idx = (np.flatnonzero(keep)[:, None] * _BLOCK + np.arange(_BLOCK)).ravel()
        return idx[idx < self.n]


def _blocks(walk: PrefixWalk) -> _Blocks | None:
    """The block level, for prefix_walk's walks with enough blocks to cull."""
    if walk.unit_steps and len(walk.points) >= _BLOCK_GATE * _BLOCK:
        return _Blocks(walk.points)
    return None


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
# with the axis directions, the candidate blocks also hold max |x| and |y|
_BLOCK_DIRS = np.vstack([_PRUNE_DIRS, [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]])
_BLOCK_DIRS.setflags(write=False)


def _directional_prune(pts: np.ndarray, blocks: _Blocks | None = None) -> np.ndarray:
    """Drop points strictly inside the polygon of 16 directional extremes.

    Sound pre-filter: interior points of a convex polygon spanned by members
    of the set cannot lie on the set's convex hull. Arrays are laid out
    (directions or edges, points), so the two matrix products write, and the
    argmax and all-edges reductions read, contiguous rows of n points; the
    transposed layout makes those reductions strided, and at large q they
    then cost most of the diameter's time. With blocks, the corner argmax
    reads only blocks whose centre projection + radius reaches the best
    centre projection, and the exact inside test only blocks whose disc is
    not inside every edge by 2 tol.
    """
    sub = pts
    if blocks is not None:
        cxy = np.stack([blocks.centres.real, blocks.centres.imag])
        proj = _BLOCK_DIRS @ cxy
        reach = proj + blocks.radius >= proj.max(axis=1, keepdims=True)
        sub = pts[blocks.members(np.logical_or.reduce(reach, axis=0))]
    xy = np.stack([sub.real, sub.imag])
    corners = np.unique(sub[np.argmax(_PRUNE_DIRS @ xy, axis=1)])
    xmax, ymax = np.abs(xy).max(axis=1)
    # projection ties can scramble the direction order, so order explicitly
    order = np.argsort(
        np.arctan2(corners.imag - corners.imag.mean(), corners.real - corners.real.mean())
    )
    corners = corners[order]
    # corners equal up to rounding leave an edge of arbitrary direction whose
    # half-plane cuts the polygon; any subset of corners stays sound
    gaps = np.abs(corners - np.concatenate([corners[-1:], corners[:-1]]))
    corners = corners[gaps > 64.0 * _EPS * max(xmax, ymax)]
    if len(corners) < 3:
        return pts
    edges = np.concatenate([corners[1:], corners[:1]]) - corners
    cx, cy, ex, ey = corners.real, corners.imag, edges.real, edges.imag
    # cross((B-A), (p-A)) = (-ey, ex) . (x, y) + (cx ey - cy ex), per edge;
    # this rearrangement cancels catastrophically for points on an edge, so
    # "inside" must clear a per-edge rounding bound or hull points get lost
    offsets = cx * ey - cy * ex
    normals = np.column_stack([-ey, ex])
    tol = 32.0 * _EPS * (xmax * np.abs(ey) + ymax * np.abs(ex) + np.abs(offsets))

    def inside(xy, bound):
        cross = normals @ xy
        cross += offsets[:, None]
        return np.logical_and.reduce(cross > bound[:, None], axis=0)

    # a computed cross product errs by under tol / 2, so every point of a
    # disc inside every edge by 2 tol would clear tol: drop those blocks
    if blocks is not None:
        sub = pts[blocks.members(~inside(cxy, 2.0 * tol + np.abs(edges) * blocks.radius))]
        xy = np.stack([sub.real, sub.imag])
    return sub[~inside(xy, tol)]


def _first_after(occurrences: np.ndarray, start: int) -> int | None:
    pos = np.searchsorted(occurrences, start, side="right")
    return int(occurrences[pos]) if pos < len(occurrences) else None


def _occurrences(points: np.ndarray, u: complex, blocks: _Blocks | None) -> np.ndarray:
    """Ascending k with points[k] == u, read from blocks within reach of u."""
    if blocks is None:
        return np.flatnonzero(points == u)
    idx = blocks.members(np.abs(blocks.centres - u) <= blocks.radius)
    return idx[points[idx] == u]


def _lex_min_witness(points: np.ndarray, pairs, blocks: _Blocks | None = None) -> tuple[int, int]:
    """Smallest (a, b), a < b, realizing any of the endpoint-value pairs."""
    best = None
    for u, v in pairs:
        occ_u = _occurrences(points, u, blocks)
        occ_v = _occurrences(points, v, blocks)
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
    blocks = _blocks(walk)
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
        a, b = _lex_min_witness(pts, pairs, blocks)
        return s, (a + 1, b)

    cand = _directional_prune(pts, blocks) if len(pts) > 32 else pts
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
    a, b = _lex_min_witness(pts, pairs, blocks)
    s = float(abs(pts[b] - pts[a]))
    return s, (a + 1, b)


def char_sum_result(chi: DirichletCharacter) -> tuple[float, tuple[int, int], float, int]:
    """(S, (M, N), T, k) of chi: max_interval_sum and max_initial_sum of
    its prefix walk."""
    walk = prefix_walk(chi)
    return (*max_interval_sum(walk), *max_initial_sum(walk))


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
