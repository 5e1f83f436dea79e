"""Independent references for checking pvbounds outputs.

Nothing here calls into pvbounds: the number theory is redone by trial
division, the diameter by an O(q^2) pairwise scan or a directional-width
bracket, and the Pomerance bound from its closed form. Checks consume
plain arrays and numbers that the benchmark got from the program.
"""

from __future__ import annotations

import math

import numpy as np

RESUM_TOL = 1e-9  # |fresh interval sum| vs reported S (desk and large q)
PARITY_TOL = 1e-9  # S = 2T for even primitive characters
BRUTE_TOL = 1e-9  # O(q^2) diameter vs reported S
WIDTH_DIRECTIONS = 16


def factorize(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factorize(n):
        out *= (p - 1) * p ** (e - 1)
    return out


def mobius(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for _, e in f):
        return 0
    return -1 if len(f) % 2 else 1


def primitive_count(q: int) -> int:
    """phi*(q) = sum_{d | q} mu(q/d) phi(d): primitive characters mod q."""
    return sum(
        mobius(q // d) * euler_phi(d) for d in range(1, q + 1) if q % d == 0
    )


def local_components(q: int) -> list[tuple[int, int, str]]:
    """(prime, component order, rule) per cyclic factor of (Z/q)^*.

    Factors come in ascending prime order, 2^k (k >= 3) as the pair
    <-1> x <5>. rule names the local primitivity condition on the label
    entry: "nonzero" (odd p, k = 1), "coprime" (odd p^k, k >= 2: p does
    not divide it), "one" (4), "free" (the -1 factor of 2^k) and "odd"
    (the 5 factor of 2^k). A q with no primitive characters (q = 2 mod 4)
    gets a component with rule "none".
    """
    comps = []
    for p, e in factorize(q):
        if p == 2:
            if e == 1:
                comps.append((2, 1, "none"))
            elif e == 2:
                comps.append((2, 2, "one"))
            else:
                comps.append((2, 2, "free"))
                comps.append((2, 2 ** (e - 2), "odd"))
        else:
            comps.append((p, (p - 1) * p ** (e - 1), "nonzero" if e == 1 else "coprime"))
    return comps


def draw_primitive_label(rng: np.random.Generator, comps) -> tuple[int, ...]:
    """A uniform label satisfying every local primitivity condition."""
    label = []
    for p, order, rule in comps:
        if rule == "one":
            label.append(1)
        elif rule == "free":
            label.append(int(rng.integers(0, 2)))
        elif rule == "odd":
            label.append(2 * int(rng.integers(0, order // 2)) + 1)
        elif rule == "nonzero":
            label.append(int(rng.integers(1, order)))
        elif rule == "coprime":
            while True:
                v = int(rng.integers(0, order))
                if v % p:
                    label.append(v)
                    break
        else:
            raise ValueError(f"no primitive characters for component {p}: {rule}")
    return tuple(label)


def is_primitive_by_values(values: np.ndarray) -> bool:
    """chi is primitive iff for each prime p | q it is nontrivial on the
    units a = 1 mod q/p (the definitional conductor test on maximal divisors).
    """
    q = len(values)
    for p, _ in factorize(q):
        d = q // p
        a = (1 + d * np.arange(p)) % q
        a = a[a % p != 0]  # a = 1 mod d, so p is the only prime it can share with q
        if np.all(np.abs(values[a] - 1.0) < 1e-9):
            return False
    return True


def fresh_walk(values: np.ndarray) -> np.ndarray:
    """Prefix points 0, chi(1), chi(1)+chi(2), ..., length q + 1."""
    q = len(values)
    pts = np.zeros(q + 1, dtype=np.complex128)
    pts[1:q] = np.cumsum(values[1:])
    pts[q] = pts[q - 1]
    return pts


def brute_force_diameter(values: np.ndarray) -> float:
    """max over 1 <= M <= N <= q of |sum_{n=M}^{N} chi(n)|, O(q^2)."""
    pts = fresh_walk(values)
    best = 0.0
    for lo in range(0, len(pts), 256):
        block = np.abs(pts[lo : lo + 256, None] - pts[None, :])
        best = max(best, float(block.max()))
    return best


def width_bracket(pts: np.ndarray, k: int = WIDTH_DIRECTIONS) -> tuple[float, float]:
    """(L, L / cos(pi / 2K)) brackets the diameter of the points pts, L
    being the largest of the K directional widths at angles pi j / K."""
    ang = np.pi * np.arange(k) / k
    proj = np.column_stack([pts.real, pts.imag]) @ np.stack([np.cos(ang), np.sin(ang)])
    width = float((proj.max(axis=0) - proj.min(axis=0)).max())
    return width, width / math.cos(math.pi / (2 * k))


def resum(values: np.ndarray, m: int, n: int) -> float:
    """|sum_{k=M}^{N} chi(k)| summed afresh (numpy's pairwise summation)."""
    q = len(values)
    return float(abs(np.sum(values[np.arange(m, n + 1) % q])))


def pomerance(q: int, parity: str) -> float:
    """Pomerance's bound on S from its closed form."""
    rq = math.sqrt(q)
    lq = math.log(q)
    if parity == "even":
        return (2 / math.pi**2) * rq * lq + (4 / math.pi**2) * rq * math.log(lq) + 1.5 * rq
    return rq * lq / (2 * math.pi) + rq * math.log(lq) / math.pi + rq


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
