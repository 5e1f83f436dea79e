"""Explicit character-sum bounds and crossover location.

The catalog is one table. Per bound: the quantity it controls, S
(arbitrary intervals) or T (initial sums), never silently converted; per
parity: an as_printed flag, set where the printed form looks suspect, and
the terms. A term is (printed label, role: main/second/psi, expression in
q, sqrt q, log q), transcribed verbatim. value sums the terms in the order
listed, and main_term/second_term/psi_term sum each role's terms.
Constants stay as printed, not folded into one coefficient per power of
q: (4/pi^2) sqrt(q) (1 + gamma + log C0) and b sqrt(q) differ in the last
bit at many q, which would change the sweep CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "EULER_GAMMA",
    "BoundValue",
    "c0",
    "theorem1_bound",
    "pomerance_bound",
    "catalog_bounds",
    "evaluate_bound",
    "bound_names",
    "DIFFERENCE_COEFFS",
    "decreasing_from",
    "crossover",
    "CrossoverNotFound",
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


def _exp_remainder(x: float) -> float:
    """1 / (exp(x) - 1) for x > 0 without overflow (0 once exp underflows)."""
    if x > 745.0:
        return 0.0
    em = math.exp(-x)
    return em / (1.0 - em)


def psi1(q: int) -> float:
    """Even remainder: 1 + 24/(pi^2 C0) + (8/pi^2) x/(e^(2x/C0) - 1), x = sqrt q.
    The varying term decreases for every q > 0."""
    c = c0()
    rq = math.sqrt(q)
    return 1.0 + 24.0 / (math.pi**2 * c) + (8.0 / math.pi**2) * rq * _exp_remainder(
        2.0 * rq / c
    )


def psi2(q: int) -> float:
    """Odd remainder: 1 + 3/C0 + (2/pi) x/(e^(pi x/C0) - 1), x = sqrt q.
    The varying term decreases for every q > 0."""
    c = c0()
    rq = math.sqrt(q)
    return 1.0 + 3.0 / c + (2.0 / math.pi) * rq * _exp_remainder(
        math.pi * rq / c
    )


# name -> (quantity, {parity: (as_printed, terms)}), with rq = sqrt(q), lq = log q
_CATALOG = {
    "theorem1": ("S", {
        "even": (False, (
            ("main", "main", lambda q, rq, lq: (2.0 / math.pi**2) * rq * lq),
            ("second", "second", lambda q, rq, lq:
                (4.0 / math.pi**2) * rq * (1.0 + EULER_GAMMA + math.log(c0()))),
            ("psi", "psi", lambda q, rq, lq: psi1(q)),
        )),
        "odd": (False, (
            ("main", "main", lambda q, rq, lq: (1.0 / (2.0 * math.pi)) * rq * lq),
            ("second", "second", lambda q, rq, lq: (1.0 / math.pi) * rq
                * (1.0 + EULER_GAMMA + math.log(2.0 * c0() / math.pi))),
            ("psi", "psi", lambda q, rq, lq: psi2(q)),
        )),
    }),
    "pomerance": ("S", {
        "even": (False, (
            ("main", "main", lambda q, rq, lq: (2.0 / math.pi**2) * rq * lq),
            ("second", "second",
                lambda q, rq, lq: (4.0 / math.pi**2) * rq * math.log(lq)),
            ("remainder", "psi", lambda q, rq, lq: 1.5 * rq),
        )),
        "odd": (False, (
            ("main", "main", lambda q, rq, lq: (1.0 / (2.0 * math.pi)) * rq * lq),
            ("second", "second", lambda q, rq, lq: (1.0 / math.pi) * rq * math.log(lq)),
            ("remainder", "psi", lambda q, rq, lq: rq),
        )),
    }),
    # transcribed verbatim; 0.38 + 0.116 coefficients and the 1/sqrt(q)
    # term look like a transcription artifact, hence as_printed
    "qiu": ("S", dict.fromkeys(("even", "odd"), (True, (
        ("(4/pi^2) sqrt(q) log q", "main",
            lambda q, rq, lq: (4.0 / math.pi**2) * rq * lq),
        ("0.38 sqrt(q)", "second", lambda q, rq, lq: 0.38 * rq),
        ("0.608 / sqrt(q)", "psi", lambda q, rq, lq: 0.608 / rq),
        ("0.116 sqrt(q)", "second", lambda q, rq, lq: 0.116 * rq),
    )))),
    # bounds T, not S; the even constant term has no sqrt(q) factor as
    # printed, hence as_printed for that branch
    "simalarides": ("T", {
        "even": (True, (
            ("(3/4pi) sqrt(q) log q", "main",
                lambda q, rq, lq: (3.0 / (4.0 * math.pi)) * rq * lq),
            ("2 - log2/pi - gamma/2pi", "second", lambda q, rq, lq:
                2.0 - math.log(2.0) / math.pi - EULER_GAMMA / (2.0 * math.pi)),
        )),
        "odd": (False, (
            ("(1/pi) sqrt(q) log q", "main",
                lambda q, rq, lq: (1.0 / math.pi) * rq * lq),
            ("sqrt(q)", "second", lambda q, rq, lq: rq),
            ("1/2", "psi", lambda q, rq, lq: 0.5),
        )),
    }),
    "dobrowolski_williams": ("S", dict.fromkeys(("even", "odd"), (False, (
        ("(1/(2 log 2)) sqrt(q) log q", "main",
            lambda q, rq, lq: (1.0 / (2.0 * math.log(2.0))) * rq * lq),
        ("3 sqrt(q)", "second", lambda q, rq, lq: 3.0 * rq),
    )))),
    "bachman_rachakonda": ("S", dict.fromkeys(("even", "odd"), (False, (
        ("(1/(3 log 3)) sqrt(q) log q", "main",
            lambda q, rq, lq: (1.0 / (3.0 * math.log(3.0))) * rq * lq),
        ("6.5 sqrt(q)", "second", lambda q, rq, lq: 6.5 * rq),
    )))),
}


# The main terms cancel: D(q) = theorem1 - pomerance = sqrt(q) (a - b log log q)
# + psi1 (even) or psi2 (odd); parity -> (a, b), read off the rows above.
DIFFERENCE_COEFFS = {
    "even": ((4.0 / math.pi**2) * (1.0 + EULER_GAMMA + math.log(c0())) - 1.5,
             4.0 / math.pi**2),
    "odd": ((1.0 / math.pi) * (1.0 + EULER_GAMMA + math.log(2.0 * c0() / math.pi))
            - 1.0, 1.0 / math.pi),
}


def decreasing_from(parity: str) -> float:
    """q0 = exp(exp(a/b)): from there a - b log log q <= 0, so D strictly decreases."""
    a, b = DIFFERENCE_COEFFS[parity]
    return math.exp(math.exp(a / b))


def bound_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def evaluate_bound(name: str, q: int, parity: str) -> BoundValue:
    """The named catalog bound at (q, parity); needs q >= 3 and parity
    'even' or 'odd'."""
    if name not in _CATALOG:
        raise KeyError(f"unknown bound {name!r}; known: {', '.join(_CATALOG)}")
    if q < 3:
        raise ValueError(f"bound requires q >= 3, got {q}")
    quantity, branches = _CATALOG[name]
    if parity not in branches:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    as_printed, terms = branches[parity]
    rq = math.sqrt(q)
    lq = math.log(q)
    value = main = second = psi = 0.0
    evaluated = []
    for label, role, term in terms:
        v = term(q, rq, lq)
        evaluated.append((label, v))
        value += v
        if role == "main":
            main += v
        elif role == "second":
            second += v
        else:
            psi += v
    return BoundValue(
        name=name, q=q, parity=parity, quantity=quantity, value=value,
        main_term=main, second_term=second, psi_term=psi,
        as_printed=as_printed, terms=tuple(evaluated),
    )


def theorem1_bound(q: int, parity: str) -> BoundValue:
    """The paper's sharpened explicit bound on S for primitive characters."""
    return evaluate_bound("theorem1", q, parity)


def pomerance_bound(q: int, parity: str) -> BoundValue:
    """Pomerance's explicit bound on S (the baseline to improve on)."""
    return evaluate_bound("pomerance", q, parity)


def catalog_bounds(q: int, parity: str) -> list[BoundValue]:
    """Every cataloged bound at (q, parity), each labeled by its quantity."""
    return [evaluate_bound(name, q, parity) for name in _CATALOG]


# ---------------------------------------------------------------------------
# Crossover: where the sharpened bound permanently undercuts the baseline.


class CrossoverNotFound(RuntimeError):
    """No crossover at or below the limit (would contradict the claim)."""


def crossover(parity: str, limit: int = 10_000_000) -> int:
    """Smallest q* with theorem1 < pomerance for every q >= q*.

    D = theorem1 - pomerance strictly decreases on [q0, inf) (see
    decreasing_from), so one bisection on [ceil(q0), limit] finds q*, and
    D(q*) < 0 covers every q >= q*. Raises if D changes sign below q0, or
    if |D| at q* - 1 or q* is within tau = 64 eps (theorem1 + pomerance),
    a generous bound on the float rounding, so that its sign is uncertain.
    """
    D = lambda q: theorem1_bound(q, parity).value - pomerance_bound(q, parity).value
    lo, hi = math.ceil(decreasing_from(parity)), limit
    if hi < lo or D(hi) >= 0.0:
        raise CrossoverNotFound(f"no {parity} crossover in [{lo}, {limit}]")
    if D(lo) < 0.0:
        raise RuntimeError(f"{parity} difference negative at ceil(q0) = {lo}")
    while hi - lo > 1:  # D(lo) >= 0 > D(hi)
        mid = (lo + hi) // 2
        if D(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    for q in (hi - 1, hi):  # the loop left D(hi - 1) >= 0 > D(hi)
        t, p = theorem1_bound(q, parity).value, pomerance_bound(q, parity).value
        if abs(t - p) <= 64.0 * math.ulp(1.0) * (t + p):
            raise RuntimeError(f"{parity} difference {t - p!r} at q = {q} is uncertain")
    return hi
