"""Explicit character-sum bounds and crossover location.

Every evaluator transcribes its published formula verbatim; entries whose
printed form looks suspect carry as_printed=True so reports can flag them.
Bounds on T (initial sums) rather than S (arbitrary intervals) are labeled
by quantity and never silently converted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "BoundValue",
    "MarginRow",
    "c0",
    "theorem1_bound",
    "pomerance_bound",
    "catalog_bounds",
    "evaluate_bound",
    "bound_names",
    "crossover",
    "CrossoverNotFound",
    "margin_report",
]

# Euler-Mascheroni constant, 30 significant digits (stored, not computed).
EULER_GAMMA = 0.577215664901532860606512090082


def c0() -> float:
    """The constant 4*pi^(5/2) + 5 entering the sharpened bound."""
    return 4.0 * math.pi**2.5 + 5.0


@dataclass(frozen=True)
class BoundValue:
    """One explicit bound evaluated at (q, parity).

    quantity says whether the bound controls S (interval sums) or T
    (initial sums). value == main_term + second_term + psi_term; terms
    carries the verbatim per-term breakdown for reporting.
    """

    name: str
    q: int
    parity: str
    quantity: str
    value: float
    main_term: float
    second_term: float
    psi_term: float
    as_printed: bool
    terms: tuple[tuple[str, float], ...]


def _require_q(q: int, minimum: int = 3) -> None:
    if q < minimum:
        raise ValueError(f"bound requires q >= {minimum}, got {q}")


def _exp_remainder(x: float) -> float:
    """1 / (exp(x) - 1) for x > 0 without overflow (0 once exp underflows)."""
    if x > 745.0:
        return 0.0
    em = math.exp(-x)
    return em / (1.0 - em)


def psi1(q: int) -> float:
    """Remainder of the even-parity sharpened bound; decreasing for q >= 9."""
    c = c0()
    rq = math.sqrt(q)
    return 1.0 + 24.0 / (math.pi**2 * c) + (8.0 / math.pi**2) * rq * _exp_remainder(
        2.0 * rq / c
    )


def psi2(q: int) -> float:
    """Remainder of the odd-parity sharpened bound."""
    c = c0()
    rq = math.sqrt(q)
    return 1.0 + 3.0 / c + (2.0 / math.pi) * rq * _exp_remainder(
        math.pi * rq / c
    )


def theorem1_bound(q: int, parity: str) -> BoundValue:
    """Sharpened explicit bound on S for primitive characters.

    even: (2/pi^2) sqrt(q) log q + (4/pi^2) sqrt(q) (1 + gamma + log C0) + psi1(q)
    odd:  (1/2pi) sqrt(q) log q + (1/pi) sqrt(q) (1 + gamma + log(2 C0/pi)) + psi2(q)
    """
    _require_q(q)
    rq = math.sqrt(q)
    lq = math.log(q)
    c = c0()
    if parity == "even":
        main = (2.0 / math.pi**2) * rq * lq
        second = (4.0 / math.pi**2) * rq * (1.0 + EULER_GAMMA + math.log(c))
        psi = psi1(q)
    elif parity == "odd":
        main = (1.0 / (2.0 * math.pi)) * rq * lq
        second = (1.0 / math.pi) * rq * (1.0 + EULER_GAMMA + math.log(2.0 * c / math.pi))
        psi = psi2(q)
    else:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return BoundValue(
        name="theorem1",
        q=q,
        parity=parity,
        quantity="S",
        value=main + second + psi,
        main_term=main,
        second_term=second,
        psi_term=psi,
        as_printed=False,
        terms=(("main", main), ("second", second), ("psi", psi)),
    )


def pomerance_bound(q: int, parity: str) -> BoundValue:
    """Pomerance's explicit bound on S (the baseline to improve on).

    even: (2/pi^2) sqrt(q) log q + (4/pi^2) sqrt(q) log log q + (3/2) sqrt(q)
    odd:  (1/2pi) sqrt(q) log q + (1/pi) sqrt(q) log log q + sqrt(q)
    """
    _require_q(q)
    rq = math.sqrt(q)
    lq = math.log(q)
    llq = math.log(lq)
    if parity == "even":
        main = (2.0 / math.pi**2) * rq * lq
        second = (4.0 / math.pi**2) * rq * llq
        rem = 1.5 * rq
    elif parity == "odd":
        main = (1.0 / (2.0 * math.pi)) * rq * lq
        second = (1.0 / math.pi) * rq * llq
        rem = rq
    else:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return BoundValue(
        name="pomerance",
        q=q,
        parity=parity,
        quantity="S",
        value=main + second + rem,
        main_term=main,
        second_term=second,
        psi_term=rem,
        as_printed=False,
        terms=(("main", main), ("second", second), ("remainder", rem)),
    )


def _qiu_bound(q: int, parity: str) -> BoundValue:
    # transcribed verbatim; 0.38 + 0.116 coefficients and the 1/sqrt(q)
    # term look like a transcription artifact, hence as_printed
    _require_q(q)
    rq = math.sqrt(q)
    t1 = (4.0 / math.pi**2) * rq * math.log(q)
    t2 = 0.38 * rq
    t3 = 0.608 / rq
    t4 = 0.116 * rq
    return BoundValue(
        name="qiu",
        q=q,
        parity=parity,
        quantity="S",
        value=t1 + t2 + t3 + t4,
        main_term=t1,
        second_term=t2 + t4,
        psi_term=t3,
        as_printed=True,
        terms=(
            ("(4/pi^2) sqrt(q) log q", t1),
            ("0.38 sqrt(q)", t2),
            ("0.608 / sqrt(q)", t3),
            ("0.116 sqrt(q)", t4),
        ),
    )


def _simalarides_bound(q: int, parity: str) -> BoundValue:
    # bounds T, not S; the even constant term has no sqrt(q) factor as
    # printed, hence as_printed for that branch
    _require_q(q)
    rq = math.sqrt(q)
    if parity == "even":
        main = (3.0 / (4.0 * math.pi)) * rq * math.log(q)
        second = 2.0 - math.log(2.0) / math.pi - EULER_GAMMA / (2.0 * math.pi)
        rem = 0.0
        as_printed = True
        terms = (
            ("(3/4pi) sqrt(q) log q", main),
            ("2 - log2/pi - gamma/2pi", second),
        )
    else:
        main = (1.0 / math.pi) * rq * math.log(q)
        second = rq
        rem = 0.5
        as_printed = False
        terms = (
            ("(1/pi) sqrt(q) log q", main),
            ("sqrt(q)", second),
            ("1/2", rem),
        )
    return BoundValue(
        name="simalarides",
        q=q,
        parity=parity,
        quantity="T",
        value=main + second + rem,
        main_term=main,
        second_term=second,
        psi_term=rem,
        as_printed=as_printed,
        terms=terms,
    )


def _dobrowolski_williams_bound(q: int, parity: str) -> BoundValue:
    _require_q(q)
    rq = math.sqrt(q)
    main = (1.0 / (2.0 * math.log(2.0))) * rq * math.log(q)
    second = 3.0 * rq
    return BoundValue(
        name="dobrowolski_williams",
        q=q,
        parity=parity,
        quantity="S",
        value=main + second,
        main_term=main,
        second_term=second,
        psi_term=0.0,
        as_printed=False,
        terms=(("(1/(2 log 2)) sqrt(q) log q", main), ("3 sqrt(q)", second)),
    )


def _bachman_rachakonda_bound(q: int, parity: str) -> BoundValue:
    _require_q(q)
    rq = math.sqrt(q)
    main = (1.0 / (3.0 * math.log(3.0))) * rq * math.log(q)
    second = 6.5 * rq
    return BoundValue(
        name="bachman_rachakonda",
        q=q,
        parity=parity,
        quantity="S",
        value=main + second,
        main_term=main,
        second_term=second,
        psi_term=0.0,
        as_printed=False,
        terms=(("(1/(3 log 3)) sqrt(q) log q", main), ("6.5 sqrt(q)", second)),
    )


_REGISTRY = {
    "theorem1": theorem1_bound,
    "pomerance": pomerance_bound,
    "qiu": _qiu_bound,
    "simalarides": _simalarides_bound,
    "dobrowolski_williams": _dobrowolski_williams_bound,
    "bachman_rachakonda": _bachman_rachakonda_bound,
}


def bound_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def evaluate_bound(name: str, q: int, parity: str) -> BoundValue:
    if name not in _REGISTRY:
        raise KeyError(f"unknown bound {name!r}; known: {', '.join(_REGISTRY)}")
    return _REGISTRY[name](q, parity)


def catalog_bounds(q: int, parity: str) -> list[BoundValue]:
    """Every registered bound at (q, parity), each labeled by its quantity."""
    return [evaluate_bound(name, q, parity) for name in _REGISTRY]


# ---------------------------------------------------------------------------
# Crossover: where the sharpened bound permanently undercuts the baseline.


class CrossoverNotFound(RuntimeError):
    """No crossover below the search limit (would contradict the claim)."""


def _difference(q: int, parity: str) -> float:
    return theorem1_bound(q, parity).value - pomerance_bound(q, parity).value


def crossover(parity: str, limit: int = 10_000_000) -> int:
    """Smallest q* with theorem1 < pomerance for every tested q >= q*.

    Coarse doubling to bracket the first sign change, integer bisection,
    then exhaustive confirmation on [q*, q* + 1000] and a 200-point log
    grid up to limit (the difference is smooth but global monotonicity is
    never assumed; a positive value restarts the search past it).
    """
    start = 3
    while True:
        lo = start
        if _difference(lo, parity) < 0.0:
            qstar = lo
        else:
            hi = lo
            while _difference(hi, parity) >= 0.0:
                hi *= 2
                if hi > limit:
                    raise CrossoverNotFound(
                        f"no {parity} crossover below {limit}"
                    )
            lo = hi // 2
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if _difference(mid, parity) < 0.0:
                    hi = mid
                else:
                    lo = mid
            qstar = hi
        bad = None
        for k in range(qstar, min(qstar + 1001, limit + 1)):
            if _difference(k, parity) >= 0.0:
                bad = k
                break
        if bad is None:
            grid = np.unique(
                np.geomspace(qstar + 1000, limit, 200).astype(np.int64)
            )
            for k in grid:
                if _difference(int(k), parity) >= 0.0:
                    bad = int(k)
                    break
        if bad is None:
            return qstar
        start = bad + 1
        if start > limit:
            raise CrossoverNotFound(f"no {parity} crossover below {limit}")


# ---------------------------------------------------------------------------
# Margins against exact sums.


@dataclass(frozen=True)
class MarginRow:
    """bound - exact for one (character, bound) pair; negative == violation."""

    q: int
    label: tuple[int, ...]
    parity: str
    bound_name: str
    quantity: str
    bound_value: float
    exact_value: float
    margin: float
    ratio: float
    violation: bool


def margin_report(q, results, names: tuple[str, ...] = ("theorem1", "pomerance")):
    """Margins of the named bounds over exact S (or T, per bound quantity).

    Negative margins are flagged via MarginRow.violation, never dropped;
    ratio records s_chi / (sqrt(q) log q) for trend reporting.
    """
    rows = []
    denom = math.sqrt(q) * math.log(q) if q >= 2 else float("nan")
    for res in results:
        ratio = res.s_chi / denom
        for name in names:
            bv = evaluate_bound(name, q, res.parity)
            exact = res.s_chi if bv.quantity == "S" else res.t_chi
            margin = bv.value - exact
            rows.append(
                MarginRow(
                    q=q,
                    label=res.label,
                    parity=res.parity,
                    bound_name=name,
                    quantity=bv.quantity,
                    bound_value=bv.value,
                    exact_value=exact,
                    margin=margin,
                    ratio=ratio,
                    violation=margin < 0.0,
                )
            )
    return rows
