"""Grid verification of the two auxiliary trigonometric-sum inequalities.

Both inequalities bound partial sums of |sin jx|/j (resp.
|cos m alpha - cos m beta|/m) by logarithmic expressions with explicit
constants; the sweeps report the minimum slack, which must stay positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import EULER_GAMMA

__all__ = [
    "LemmaSweepConfig",
    "LemmaSlackResult",
    "default_lemma1_config",
    "default_lemma2_config",
    "lemma1_check",
    "lemma2_check",
]

DEFAULT_SEED = 20120601
_CHUNK = 256


@dataclass(frozen=True)
class LemmaSweepConfig:
    """Parameter grids for the slack sweeps.

    x_grid feeds the sine sweep; alpha_beta_pairs (k x 2) feeds the cosine
    sweep and is drawn from the recorded seed when not given explicitly.
    """

    n_values: tuple[int, ...]
    x_grid: np.ndarray | None = None
    alpha_beta_pairs: np.ndarray | None = None
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if len(self.n_values) == 0 or min(self.n_values) < 1:
            raise ValueError("n_values must be nonempty positive integers")
        if self.x_grid is not None and len(self.x_grid) == 0:
            raise ValueError("x_grid must be nonempty when given")
        if self.alpha_beta_pairs is not None and len(self.alpha_beta_pairs) == 0:
            raise ValueError("alpha_beta_pairs must be nonempty when given")


@dataclass(frozen=True)
class LemmaSlackResult:
    """Minimum slack over the sweep with the witnessing parameters;
    bound is the inequality's right-hand side at worst_n."""

    min_slack: float
    worst_n: int
    worst_params: tuple[float, ...]
    bound: float
    n_checked: int
    seed: int | None
    violations: tuple[tuple[float, ...], ...]


def default_lemma1_config(n_max: int = 500, refine: int = 1) -> LemmaSweepConfig:
    """x = k pi / (2000 refine) for 0 <= k < 4000 refine, n = 1..n_max.

    Rational multiples of pi cover [0, 2 pi) where the |sin| sums resonate;
    refine doubles the density on the same range.
    """
    x = math.pi * np.arange(4000 * refine) / (2000.0 * refine)
    return LemmaSweepConfig(n_values=tuple(range(1, n_max + 1)), x_grid=x)


def default_lemma2_config(
    n_max: int = 500, pairs: int = 10_000, seed: int = DEFAULT_SEED
) -> LemmaSweepConfig:
    rng = np.random.default_rng(seed)
    ab = rng.uniform(0.0, 2.0 * math.pi, size=(pairs, 2))
    return LemmaSweepConfig(
        n_values=tuple(range(1, n_max + 1)), alpha_beta_pairs=ab, seed=seed
    )


def _sweep(values: np.ndarray, term_fn, bounds_n: np.ndarray, n_idx: np.ndarray):
    """Shared chunked scan: min over (param, n) of bound(n) - partial sum."""
    n_max = int(n_idx.max()) + 1
    j = np.arange(1, n_max + 1, dtype=np.float64)
    best = (math.inf, -1, -1)
    for lo in range(0, len(values), _CHUNK):
        chunk = values[lo : lo + _CHUNK]
        terms = term_fn(chunk, j)
        sums = np.cumsum(terms, axis=1)[:, n_idx]
        slack = bounds_n[None, :] - sums
        k = np.unravel_index(np.argmin(slack), slack.shape)
        if slack[k] < best[0]:
            best = (float(slack[k]), lo + int(k[0]), int(k[1]))
    return best


def lemma1_check(cfg: LemmaSweepConfig | None = None) -> LemmaSlackResult:
    """Slack of (2/pi)(log n + gamma + log 2 + 3/n) over sum |sin jx| / j.

    Positive slack everywhere on the grid; the minimum and its (x, n) are
    reported, violations collected rather than silently dropped.
    """
    cfg = cfg if cfg is not None else default_lemma1_config()
    if cfg.x_grid is None:
        raise ValueError("lemma1_check needs cfg.x_grid")
    n_values = np.asarray(cfg.n_values, dtype=np.int64)
    bounds_n = (2.0 / math.pi) * (
        np.log(n_values) + EULER_GAMMA + math.log(2.0) + 3.0 / n_values
    )
    term_fn = lambda x, j: np.abs(np.sin(x[:, None] * j[None, :])) / j[None, :]
    slack, xi, ni = _sweep(np.asarray(cfg.x_grid), term_fn, bounds_n, n_values - 1)
    violations = ()
    if slack <= 0.0:
        violations = ((float(cfg.x_grid[xi]), float(n_values[ni])),)
    return LemmaSlackResult(
        min_slack=slack,
        worst_n=int(n_values[ni]),
        worst_params=(float(cfg.x_grid[xi]),),
        bound=float(bounds_n[ni]),
        n_checked=len(cfg.x_grid) * len(cfg.n_values),
        seed=None,
        violations=violations,
    )


def lemma2_check(cfg: LemmaSweepConfig | None = None) -> LemmaSlackResult:
    """Slack of log n + gamma + log 2 + 3/n over sum |cos ma - cos mb| / m."""
    cfg = cfg if cfg is not None else default_lemma2_config()
    if cfg.alpha_beta_pairs is None:
        raise ValueError("lemma2_check needs cfg.alpha_beta_pairs")
    n_values = np.asarray(cfg.n_values, dtype=np.int64)
    bounds_n = np.log(n_values) + EULER_GAMMA + math.log(2.0) + 3.0 / n_values
    pairs = np.asarray(cfg.alpha_beta_pairs, dtype=np.float64)

    def term_fn(ab, j):
        return (
            np.abs(
                np.cos(ab[:, 0:1] * j[None, :]) - np.cos(ab[:, 1:2] * j[None, :])
            )
            / j[None, :]
        )

    slack, pi_, ni = _sweep(pairs, term_fn, bounds_n, n_values - 1)
    violations = ()
    if slack <= 0.0:
        violations = ((float(pairs[pi_, 0]), float(pairs[pi_, 1]), float(n_values[ni])),)
    return LemmaSlackResult(
        min_slack=slack,
        worst_n=int(n_values[ni]),
        worst_params=(float(pairs[pi_, 0]), float(pairs[pi_, 1])),
        bound=float(bounds_n[ni]),
        n_checked=len(pairs) * len(cfg.n_values),
        seed=cfg.seed,
        violations=violations,
    )
