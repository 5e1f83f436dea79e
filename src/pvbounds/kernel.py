"""Smoothed sine sums and the periodized Cauchy kernel.

The dyadic bump theta and the ramps omega / omega* split the sawtooth
Fourier series into an explicit finite part plus a smooth remainder
S(u;P). The remainder is dominated by the kernel
G_P(u) = sum_n 1/(1 + P^2 (n+u)^2), which has the closed Poisson form
(pi/P) (1-r^2) / (1 - 2 r cos(2 pi u) + r^2) with r = exp(-2 pi / P).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds

__all__ = [
    "KernelParams",
    "GridSpec",
    "Lemma3Result",
    "ConstantDerivation",
    "theta",
    "omega",
    "omega_star",
    "sawtooth",
    "s_u_p",
    "s_u_p_grid",
    "g_p_direct",
    "g_p_closed",
    "g_p_closed_grid",
    "default_grid",
    "lemma3_check",
    "lemma3_grid_check",
    "lemma4_check",
    "constant_derivation",
    "lambda_identity_check",
]

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Dyadic partition of unity.


def theta(t: float) -> float:
    """Triangular bump supported on [1/2, 2]; sum_j theta(t/2^j) = 1 on (0,inf)."""
    if t < 0.0:
        raise ValueError(f"theta requires t >= 0, got {t}")
    if t <= 0.5 or t >= 2.0:
        return 0.0
    if t <= 1.0:
        return 2.0 * t - 1.0
    return 2.0 - t


def omega(t: float) -> float:
    """Ramp sum_{j>=0} theta(t/2^j): 0 below 1/2, linear up, 1 from 1 on."""
    if t <= 0.0:
        raise ValueError(f"omega requires t > 0, got {t}")
    if t <= 0.5:
        return 0.0
    if t <= 1.0:
        return 2.0 * t - 1.0
    return 1.0


def omega_star(t: float) -> float:
    """Complementary ramp 1 - omega(t)."""
    return 1.0 - omega(t)


# ---------------------------------------------------------------------------
# Sawtooth series and its smoothed remainder.


def _sin_two_pi(t):
    """sin(2 pi t) with quadrant folding: exact zeros at half-integer t."""
    r = t - np.round(t)
    a = np.abs(r)
    return np.where(
        a <= 0.25, np.sin(TWO_PI * r), np.sign(r) * np.sin(TWO_PI * (0.5 - a))
    )


def sawtooth(x: float) -> float:
    """sum_m sin(2 pi m x)/m = pi (1/2 - {x}) off integers, 0 at integers."""
    frac = x - math.floor(x)
    if frac == 0.0:
        return 0.0
    return math.pi * (0.5 - frac)


def _omega_star_weights(P: float) -> tuple[np.ndarray, np.ndarray]:
    """(m, omega*(m/P)/m) for m = 1..floor(P); the finite sawtooth part."""
    m = np.arange(1, math.floor(P) + 1, dtype=np.float64)
    t = m / P
    w = np.where(t <= 0.5, 1.0, np.where(t < 1.0, 2.0 - 2.0 * t, 0.0))
    return m, w / m


def s_u_p(u: float, P: float) -> float:
    """Smoothed remainder S(u;P) = sum_m omega(m/P) sin(2 pi m u)/m.

    Evaluated exactly as sawtooth(u) minus the finite omega* part; the
    infinite weighted series converges only conditionally and is kept as
    a cross-validation oracle, not as the evaluation route.
    """
    if P <= 1.0:
        raise ValueError(f"s_u_p requires P > 1, got {P}")
    m, w = _omega_star_weights(P)
    corr = float(np.dot(w, _sin_two_pi(m * u)))
    return sawtooth(u) - corr


def s_u_p_grid(us: np.ndarray, P: float) -> np.ndarray:
    """Vectorized S(u;P) over an array of u values.

    Same finite sum as s_u_p; the sine arguments are range-reduced by
    rounding (accurate near integer m*u) without the scalar path's exact
    half-integer fold.
    """
    if P <= 1.0:
        raise ValueError(f"s_u_p requires P > 1, got {P}")
    us = np.asarray(us, dtype=np.float64)
    m, w = _omega_star_weights(P)
    frac = us - np.floor(us)
    saw = np.where(frac == 0.0, 0.0, math.pi * (0.5 - frac))
    out = np.empty(len(us), dtype=np.float64)
    chunk = max(1, (1 << 18) // max(1, len(m)))  # 2 MiB per temporary
    for lo in range(0, len(us), chunk):
        t = us[lo : lo + chunk, None] * m[None, :]
        t -= np.round(t)
        t *= TWO_PI
        np.sin(t, out=t)
        out[lo : lo + chunk] = t @ w
    return saw - out


# ---------------------------------------------------------------------------
# The kernel G_P in two representations.


@dataclass(frozen=True)
class KernelParams:
    """Direct-sum truncation policy for G_P.

    truncation_N defaults so the Euler-Maclaurin-corrected residual
    ~ 1/(42 P^2 N^7) sits below tolerance; raw_tail_bound reports the
    uncorrected lattice tail 2/(P^2 N) for the error budget.
    """

    P: float
    truncation_N: int = 0
    tolerance: float = 1e-12

    def __post_init__(self):
        if self.P <= 1.0:
            raise ValueError(f"KernelParams requires P > 1, got {self.P}")
        if self.truncation_N <= 0:
            n = math.ceil((1.0 / (42.0 * self.P**2 * self.tolerance)) ** (1.0 / 7.0))
            object.__setattr__(self, "truncation_N", max(64, n))

    def raw_tail_bound(self) -> float:
        return 2.0 / (self.P**2 * self.truncation_N)


def _cauchy_tail(w0: float, P: float) -> float:
    """sum_{k>=0} f(w0 + k) for f(w) = 1/(1 + P^2 w^2), w0 > 0.

    Euler-Maclaurin through the f''' term; residual ~ 1/(42 P^2 w0^7).
    """
    p2 = P * P
    g = 1.0 / (1.0 + p2 * w0 * w0)
    integral = (0.5 * math.pi - math.atan(P * w0)) / P
    fp = -2.0 * p2 * w0 * g * g
    fppp = 24.0 * p2 * p2 * w0 * g**3 - 48.0 * p2**3 * w0**3 * g**4
    return integral + 0.5 * g - fp / 12.0 + fppp / 720.0


def g_p_direct(u: float, P: float, params: KernelParams | None = None) -> float:
    """Lattice sum sum_n 1/(1 + P^2 (n+u)^2), truncated plus analytic tail."""
    if P <= 1.0:
        raise ValueError(f"g_p_direct requires P > 1, got {P}")
    params = params if params is not None else KernelParams(P)
    N = params.truncation_N
    n = np.arange(-N, N + 1, dtype=np.float64)
    core = float(np.sum(1.0 / (1.0 + (P * (n + u)) ** 2)))
    return core + _cauchy_tail(N + 1 + u, P) + _cauchy_tail(N + 1 - u, P)


def g_p_closed(u: float, P: float) -> float:
    """Closed Poisson form of G_P: two geometric series summed exactly."""
    return float(g_p_closed_grid(np.array([u]), P)[0])


def g_p_closed_grid(us: np.ndarray, P: float) -> np.ndarray:
    """Vectorized closed form (pi/P)(1-r^2)/(1 - 2 r cos(2 pi u) + r^2)."""
    if P <= 1.0:
        raise ValueError(f"g_p_closed requires P > 1, got {P}")
    us = np.asarray(us, dtype=np.float64)
    rm1 = -math.expm1(-TWO_PI / P)  # 1 - r without cancellation
    r = 1.0 - rm1
    frac = us - np.floor(us)
    s = np.sin(math.pi * np.minimum(frac, 1.0 - frac))
    denom = rm1 * rm1 + 4.0 * r * s * s
    return (math.pi / P) * rm1 * (1.0 + r) / denom


# ---------------------------------------------------------------------------
# Grid sweeps for the two kernel facts.


@dataclass(frozen=True)
class GridSpec:
    """u sample points (must include 0, 1/2, 1) and the P values to sweep."""

    u_points: np.ndarray
    P_values: tuple[float, ...]

    def __post_init__(self):
        u = self.u_points
        if len(u) == 0 or not all(np.any(u == v) for v in (0.0, 0.5, 1.0)):
            raise ValueError("u_points must include 0, 1/2 and 1")
        self.u_points.setflags(write=False)


DEFAULT_P_VALUES = (1.5, 2.0, 5.0, 10.0, 100.0, 1000.0)


def default_grid(refine: int = 1) -> GridSpec:
    """Uniform grid plus geometric clustering toward 0 and 1.

    The dyadic ladder 2^-k (k <= 40) is fixed across refinements so the
    near-zero endpoint is sampled identically; refine scales the uniform
    and geometric densities.
    """
    uniform = np.linspace(0.0, 1.0, 4096 * refine + 1)
    dyadic = 2.0 ** -np.arange(1, 41)
    geo = np.geomspace(1e-5, 0.5, 160 * refine)
    u = np.unique(
        np.concatenate([uniform, dyadic, 1.0 - dyadic, geo, 1.0 - geo])
    )
    return GridSpec(u_points=u, P_values=DEFAULT_P_VALUES)


@dataclass(frozen=True)
class Lemma3Result:
    """Grid evidence for |S(u;P)| <= (C0 / 2 pi^2) G_P(u)."""

    worst_ratio: float
    worst_u: float
    worst_P: float
    bound: float
    n_points: int
    violations: tuple[tuple[float, float, float], ...]


def lemma3_check(grid: GridSpec | None = None) -> Lemma3Result:
    """Max of |S(u;P)| / G_P(u) over the grid, against C0/(2 pi^2).

    Any violating (u, P, ratio) triples are reported; the result is grid
    evidence, not a proof.
    """
    return lemma3_grid_check(grid)[0]


def lemma3_grid_check(grid: GridSpec | None = None):
    """(lemma3_check's result, the (P, S(u;P), G_P(u)) per P that it read)."""
    grid = grid if grid is not None else default_grid()
    bound = bounds.c0() / (2.0 * math.pi**2)
    worst = (-1.0, 0.0, 0.0)
    violations = []
    values = tuple(
        (P, s_u_p_grid(grid.u_points, P), g_p_closed_grid(grid.u_points, P))
        for P in grid.P_values
    )
    for P, s, g in values:
        ratio = np.abs(s) / g
        k = int(np.argmax(ratio))
        if ratio[k] > worst[0]:
            worst = (float(ratio[k]), float(grid.u_points[k]), P)
        for j in np.nonzero(ratio > bound)[0]:
            violations.append((float(grid.u_points[j]), P, float(ratio[j])))
    return Lemma3Result(
        worst_ratio=worst[0],
        worst_u=worst[1],
        worst_P=worst[2],
        bound=bound,
        n_points=len(grid.u_points) * len(grid.P_values),
        violations=tuple(violations),
    ), values


def lemma4_check(q: int, P: float) -> float:
    """Discrepancy of sum_{a=1}^{q} G_P(a/q) against its closed value.

    The lattice double sum collapses to pi (q/P) coth(pi q / P), i.e.
    pi q/P (1 + 2 / (exp(2 pi q / P) - 1)); evaluated overflow-safe.
    """
    if q < 1:
        raise ValueError(f"lemma4_check requires q >= 1, got {q}")
    if P <= 1.0:
        raise ValueError(f"lemma4_check requires P > 1, got {P}")
    left = float(np.sum(g_p_closed_grid(np.arange(1, q + 1) / q, P)))
    x = TWO_PI * q / P
    em = math.exp(-x) if x <= 745.0 else 0.0
    right = math.pi * q / P * (1.0 + 2.0 * em / (1.0 - em))
    return abs(left - right)


# ---------------------------------------------------------------------------
# The constant optimization behind C0.


@dataclass(frozen=True)
class ConstantDerivation:
    """Numeric solution of the two-case balance fixing C0/(2 pi^2).

    The small-offset branch cost 2 pi B + 1/(2B) is minimized over B, then
    f1(A) = 2 sqrt(pi) (1 + A^2) is balanced against the oscillatory-branch
    cost (5 / 2 pi^2)(1 + 1/A^2) by bisection in A.
    """

    a_bisection: float
    a_closed_form: float
    b_opt_numeric: float
    b_opt_closed_form: float
    b_min_value: float
    f1_at_a: float
    c0_over_2pi2: float
    residual: float


class DerivationMismatch(RuntimeError):
    """Numeric solution disagrees with the closed form beyond 1e-12."""


def _f1(a: float) -> float:
    return 2.0 * math.sqrt(math.pi) * (1.0 + a * a)


def _balance(a: float) -> float:
    return _f1(a) - (5.0 / (2.0 * math.pi**2)) * (1.0 + 1.0 / (a * a))


def constant_derivation() -> ConstantDerivation:
    """Solve the balance system and check it reproduces C0/(2 pi^2)."""
    # golden-section minimum of 2 pi B + 1/(2B) on (0, 1/2]
    h = lambda b: TWO_PI * b + 0.5 / b
    lo, hi = 1e-3, 0.5
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    for _ in range(200):
        if h(c) < h(d):
            hi, d = d, c
            c = hi - invphi * (hi - lo)
        else:
            lo, c = c, d
            d = lo + invphi * (hi - lo)
    b_num = 0.5 * (lo + hi)
    b_closed = 0.5 / math.sqrt(math.pi)

    # bisection for the balance root in (0, 1/(2 sqrt(pi))]
    a_lo, a_hi = 1e-6, b_closed
    for _ in range(200):
        mid = 0.5 * (a_lo + a_hi)
        if _balance(mid) < 0.0:
            a_lo = mid
        else:
            a_hi = mid
        if a_hi - a_lo <= 0.0:
            break
    a_num = 0.5 * (a_lo + a_hi)
    a_closed = math.sqrt(5.0) / (2.0 * math.pi**1.25)

    f1_at_a = _f1(a_num)
    target = bounds.c0() / (2.0 * math.pi**2)
    result = ConstantDerivation(
        a_bisection=a_num,
        a_closed_form=a_closed,
        b_opt_numeric=b_num,
        b_opt_closed_form=b_closed,
        b_min_value=2.0 * math.sqrt(math.pi),
        f1_at_a=f1_at_a,
        c0_over_2pi2=target,
        residual=abs(_balance(a_num)),
    )
    if abs(a_num - a_closed) > 1e-12:
        raise DerivationMismatch(
            f"bisection A = {a_num!r} vs closed form {a_closed!r}"
        )
    if abs(f1_at_a - target) > 1e-12:
        raise DerivationMismatch(
            f"f1(A) = {f1_at_a!r} vs C0/(2 pi^2) = {target!r}"
        )
    return result


# ---------------------------------------------------------------------------
# Indicator identity behind the interval-sum Fourier expansion.


def lambda_identity_check(a: float, b: float, x: float) -> float:
    """|lambda(x;a,b) - (b - a + S(x-a)/pi - S(x-b)/pi)| with S the sawtooth.

    lambda is the [a,b] indicator on [0,1) taking 1/2 at the endpoints;
    the identity is exact off wrap-around coincidences.
    """
    if not (0.0 <= a < b <= 1.0):
        raise ValueError(f"need 0 <= a < b <= 1, got a={a}, b={b}")
    if not (0.0 <= x < 1.0):
        raise ValueError(f"need x in [0, 1), got {x}")
    if x == a or x == b:
        lam = 0.5
    elif a < x < b:
        lam = 1.0
    else:
        lam = 0.0
    rhs = (b - a) + (sawtooth(x - a) - sawtooth(x - b)) / math.pi
    return abs(lam - rhs)
