"""Dirichlet characters modulo q: unit groups, enumeration, Gauss sums.

A character is stored as its generator-exponent label; its integer exponent
table gives chi(a) = e(t_a / N) with e(u) = exp(2*pi*i*u), where N is the
exponent of the unit group mod q. Conductor and order are read from the
label by local rules, parity from the exponent at -1; all three are exact
integer arithmetic, and exponent and value tables are built on demand.
conductor() is the definitional divisor-by-divisor test, kept as the oracle
that the label rule is checked against. The Gauss sums of every character
mod q come from one inverse DFT over the unit-group index grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "UnitGroupStructure",
    "DirichletCharacter",
    "unit_group",
    "enumerate_characters",
    "primitive_mask",
    "character_from_label",
    "conductor",
    "gauss_sum",
    "gauss_sum_table",
    "twist_discrepancies",
    "roots_of_unity",
]


# ---------------------------------------------------------------------------
# Elementary number theory helpers (desk scale: trial division is plenty).


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as a list of (prime, multiplicity)."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _multiplicative_order(g: int, modulus: int, group_order: int) -> int:
    """Order of g in (Z/modulus)^*, given a multiple of it (group_order)."""
    order = group_order
    for p, _ in factorize(group_order):
        while order % p == 0 and pow(g, order // p, modulus) == 1:
            order //= p
    return order


def _smallest_generator(pk: int, phi: int) -> int:
    """Smallest residue generating the cyclic group (Z/pk)^*.

    Brute force over residues in increasing order; pk is an odd prime
    power or 4, so the group is cyclic and a generator exists.
    """
    for g in range(2, pk):
        if math.gcd(g, pk) != 1:
            continue
        if _multiplicative_order(g, pk, phi) == phi:
            return g
    raise ArithmeticError(f"no generator found mod {pk}")


def _crt_lift(residue: int, pk: int, q: int) -> int:
    """The unit mod q that is residue mod pk and 1 mod q // pk."""
    m = q // pk
    if m == 1:
        return residue % q
    # x = 1 + m*t with m*t = (residue - 1) mod pk
    t = ((residue - 1) * pow(m, -1, pk)) % pk
    return (1 + m * t) % q


# ---------------------------------------------------------------------------
# Unit group structure.


@dataclass(frozen=True)
class UnitGroupStructure:
    """Generators of (Z/q)^* as a product of cyclic groups.

    generators[i] has multiplicative order orders[i] mod q, and every unit
    is a unique product of generator powers within those orders.
    conductor_parts[i] = (base, ppow): a character whose i-th component has
    order ord > 1 there has local conductor base * gcd(ord, ppow).
    """

    modulus: int
    generators: tuple[int, ...]
    orders: tuple[int, ...]
    conductor_parts: tuple[tuple[int, int], ...]

    @property
    def phi(self) -> int:
        return math.prod(self.orders)

    @property
    def exponent(self) -> int:
        """lcm of the cyclic component orders (1 for the trivial group)."""
        return math.lcm(*self.orders) if self.orders else 1


def unit_group(q: int) -> UnitGroupStructure:
    """CRT decomposition of (Z/q)^* into cyclic components.

    Odd prime powers (and 4) contribute one cyclic factor generated by the
    smallest generator; 2^k with k >= 3 contributes Z/2 x Z/2^(k-2),
    generated by -1 and 5. Generators are lifted to units mod q.

    Local conductors: a character of order ord on (Z/p^k)^* has conductor
    p^(1 + v_p(ord)) = p * gcd(ord, p^(k-1)) when ord > 1. On 2^k the
    character of -1 (or of 3 when k = 2) has conductor 4, and one of order
    ord on the 5-component has conductor 4 * ord = 4 * gcd(ord, 2^(k-2)).
    """
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    gens: list[int] = []
    orders: list[int] = []
    parts: list[tuple[int, int]] = []
    for p, e in factorize(q):
        pk = p**e
        if p == 2:
            if e == 1:
                continue  # (Z/2)^* is trivial
            gens.append(_crt_lift(pk - 1, pk, q))  # -1, which is 3 when e = 2
            orders.append(2)
            parts.append((4, 1))
            if e >= 3:
                gens.append(_crt_lift(5, pk, q))
                orders.append(2 ** (e - 2))
                parts.append((4, 2 ** (e - 2)))
        else:
            phi = (p - 1) * p ** (e - 1)
            g = _smallest_generator(pk, phi)
            gens.append(_crt_lift(g, pk, q))
            orders.append(phi)
            parts.append((p, p ** (e - 1)))
    return UnitGroupStructure(
        modulus=q,
        generators=tuple(gens),
        orders=tuple(orders),
        conductor_parts=tuple(parts),
    )


# ---------------------------------------------------------------------------
# Roots of unity with exact quarter points.


@lru_cache(maxsize=256)
def roots_of_unity(n: int) -> np.ndarray:
    """e(k/n) for k = 0..n-1, quarter points exact, conjugate-symmetric.

    roots[n-k] is bitwise conj(roots[k]), so a conjugate character's value
    table is the exact complex conjugate of the original's; the quarter
    snapping keeps real characters exactly real, so collinearity of their
    prefix walks is detected without a tolerance.
    """
    w = np.empty(n, dtype=np.complex128)
    half = n // 2
    k = np.arange(half + 1)
    w[: half + 1] = np.exp(2j * np.pi * k / n)
    w[0] = 1.0
    if n % 2 == 0:
        w[half] = -1.0
    if n % 4 == 0:
        w[n // 4] = 1j
    if half + 1 < n:
        w[half + 1 :] = np.conj(w[1 : n - half][::-1])
    w.setflags(write=False)
    return w


# ---------------------------------------------------------------------------
# Character family: shared per-modulus tables.


class _CharacterFamily:
    """Per-modulus data used to build every character mod q.

    units[i] enumerates (Z/q)^* as products of generator powers; dlog[i]
    is the exponent vector of units[i]. A character with label vector
    (e_1, ..., e_r) maps units[i] to e(t_i / N) with
    t_i = sum_j e_j * dlog[i][j] * (N / order_j) mod N.

    Its component j has order ord_j = order_j / gcd(e_j, order_j); the
    character's order is the lcm of the ord_j and its conductor the lcm of
    the local conductors of the components with e_j != 0 (see unit_group).
    Odd components sit at distinct primes, where the lcm is the product;
    the two components of 2^k (k >= 3) both have 2-power conductors, and
    the 2-part of the conductor is the larger of them, so the product would
    be wrong there.
    """

    def __init__(self, q: int):
        self.q = q
        self.group = unit_group(q)
        orders = self.group.orders
        self.n_root = self.group.exponent
        phi = self.group.phi
        if orders:
            dlog = np.stack(
                np.unravel_index(np.arange(phi), orders), axis=1
            ).astype(np.int64)
        else:
            dlog = np.zeros((phi, 0), dtype=np.int64)
        # enumeration order matches unravel_index: first generator slowest;
        # q < 2^31 keeps every int64 product below 2^62
        units = np.array([1 % q], dtype=np.int64)
        for g, o in zip(self.group.generators, orders):
            powers = np.ones(1, dtype=np.int64)
            step = g % q  # g ** len(powers) mod q
            while len(powers) < o:
                powers = np.concatenate([powers, powers * step % q])
                step = step * step % q
            units = (units[:, None] * powers[None, :o] % q).ravel()
        self.units = units
        self.dlog = dlog
        self.orders = np.array(orders, dtype=np.int64)
        self.scale = self.n_root // self.orders
        parts = np.array(self.group.conductor_parts, dtype=np.int64).reshape(-1, 2)
        self.cond_base, self.cond_ppow = parts[:, 0], parts[:, 1]
        self.units.setflags(write=False)
        self.dlog.setflags(write=False)
        # position of -1 mod q in the unit enumeration (== 1 for q <= 2)
        self.minus_one_pos = int(np.nonzero(self.units == (q - 1) % q)[0][0])

    def orders_and_conductors(self, labels: np.ndarray):
        """Component orders ord_j (n x r) and conductors (n) of the characters
        in an (n x r) int64 block of labels."""
        ords = self.orders // np.gcd(labels, self.orders)
        local = np.where(
            labels != 0, self.cond_base * np.gcd(ords, self.cond_ppow), 1
        )
        return ords, np.lcm.reduce(local, axis=1, initial=1)

    def exponents(self, labels, units=slice(None)) -> np.ndarray:
        """t = sum_j e_j * dlog[i][j] * (N / order_j) mod N, exact in int64, for
        the labels at unit positions i: an (n x r) block at all units gives
        the (n x phi) tables in one product and mod, one label at one i an int."""
        t = (np.asarray(labels, dtype=np.int64) * self.scale) @ self.dlog[units].T
        t %= self.n_root  # in place: one phi-sized allocation per table, not two
        return t

    def value_tables(self, labels) -> np.ndarray:
        """Complex value tables (n x q, zero off the units) of an (n x r)
        block of labels, from its exponent tables. The output is allocated
        first, so the freed tables leave no hole below it in the heap."""
        roots = roots_of_unity(self.n_root)
        vals = np.zeros((len(labels), self.q), dtype=np.complex128)
        tables = self.exponents(labels)
        for row, t in zip(vals, tables):  # row by row: a 2-D scatter is ~3x slower
            row[self.units] = roots[t]
        return vals

    def characters(self, labels: np.ndarray) -> list[DirichletCharacter]:
        """The characters with the given (n x r) int64 block of labels, in
        row order; conductor, order and parity come from the labels alone."""
        ords, conds = self.orders_and_conductors(labels)
        char_orders = np.lcm.reduce(ords, axis=1, initial=1).tolist()
        even = (self.exponents(labels, self.minus_one_pos) == 0).tolist()
        return [
            DirichletCharacter(
                modulus=self.q,
                label=tuple(label),
                conductor=cond,
                parity="even" if ev else "odd",
                order=order,
                root_order=self.n_root,
                family=self,
            )
            for label, cond, ev, order in zip(
                labels.tolist(), conds.tolist(), even, char_orders
            )
        ]


@lru_cache(maxsize=64)
def _family(q: int) -> _CharacterFamily:
    return _CharacterFamily(q)


# ---------------------------------------------------------------------------
# Characters.


@dataclass(frozen=True, slots=True)
class DirichletCharacter:
    """A Dirichlet character mod q in exact exponent form.

    label is the exponent vector on the unit-group generators; the value at
    the i-th enumerated unit is e(unit_exponents[i] / root_order). The
    character holds no table: unit_exponents and values() are computed from
    the label and the family's shared arrays on each call. Equality and
    hash read only (modulus, label). Instances are immutable and safe to
    share across workers.
    """

    modulus: int
    label: tuple[int, ...]
    conductor: int = field(compare=False)
    parity: str = field(compare=False)
    order: int = field(compare=False)
    root_order: int = field(compare=False, repr=False)
    family: _CharacterFamily = field(compare=False, repr=False)

    @property
    def is_principal(self) -> bool:
        return all(e == 0 for e in self.label)

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    @property
    def unit_residues(self) -> np.ndarray:
        """The units mod q in enumeration order (the family's read-only array)."""
        return self.family.units

    @property
    def unit_exponents(self) -> np.ndarray:
        """Read-only int64 exponent table over the units, built on each access."""
        exps = self.family.exponents([self.label])[0]
        exps.setflags(write=False)
        return exps

    def values(self) -> np.ndarray:
        """Complex value table of length q (zero off the units)."""
        return self.family.value_tables([self.label])[0]

    def value(self, a: int) -> complex:
        """chi(a) for any integer a, read from values() at a mod q (0 off the units)."""
        return complex(self.values()[a % self.modulus])

    def to_json_dict(self) -> dict:
        """JSON form; the value table is always recomputed from the label."""
        return {
            "q": self.modulus,
            "label": list(self.label),
            "conductor": self.conductor,
            "parity": self.parity,
            "order": self.order,
        }


def enumerate_characters(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q, in lexicographic label order; an
    O(phi * r) pass over integers that builds no table."""
    fam = _family(q)
    return fam.characters(fam.dlog)  # labels enumerate like dlog


def primitive_mask(q: int) -> np.ndarray:
    """Which labels mod q, in enumeration order (rows of dlog), have conductor q."""
    fam = _family(q)
    return fam.orders_and_conductors(fam.dlog)[1] == q


def character_from_label(q: int, label) -> DirichletCharacter:
    """Reconstruct a character from its generator-exponent label; the
    entries are read with int(), so strings of integers are accepted, but
    a number that int() would truncate is rejected."""
    fam = _family(q)
    orders = fam.group.orders
    try:
        exps = [int(e) for e in label]
    except ValueError:
        exps = None
    if exps is None or len(exps) != len(orders) or any(
        not 0 <= x < o or (x != e and not isinstance(e, str))
        for x, e, o in zip(exps, label, orders)
    ):
        raise ValueError(f"label {','.join(map(str, label))} invalid mod {q}: "
                         f"need 0 <= e_j < o_j for component orders {list(orders)}")
    return fam.characters(np.array([exps], dtype=np.int64))[0]


def conductor(chi: DirichletCharacter) -> int:
    """Smallest d | q with chi(a) = 1 for every unit a with a = 1 mod d.

    Definitional test over all divisors, kept as the oracle for the
    conductor field that the characters carry (read from the label); the
    character is primitive exactly when the result equals its modulus.
    """
    units, exps = chi.unit_residues, chi.unit_exponents
    for d in divisors(chi.modulus):
        if not np.any(exps[units % d == 1 % d]):
            return d
    return chi.modulus


# ---------------------------------------------------------------------------
# Gauss sums and the classical twisted-sum identity.


def gauss_sum_table(q: int) -> np.ndarray:
    """tau(chi) = sum_a chi(a) e(a/q) for every character mod q, in label order.

    On the unit-group index grid (dlog rows follow np.unravel_index), tau at
    label e is sum_d e(sum_j e_j d_j / o_j) e(units[d] / q): phi(q) times an
    inverse DFT, whose C-order output is in label order. Every Gauss sum in
    the package is computed here.
    """
    fam = _family(q)
    phases = roots_of_unity(q)[fam.units]  # q = 1, 2: no generators, one label
    return np.fft.ifftn(phases.reshape(fam.group.orders or (1,))).ravel() * len(phases)


def gauss_sum(chi: DirichletCharacter) -> complex:
    """tau(chi) = sum_a chi(a) e(a/q): the entry of gauss_sum_table at the
    label's position in label order (0 when there are no components, q = 1, 2).

    Each call transforms the whole unit group: for many characters of one
    modulus, take gauss_sum_table(q) once and index it by label position."""
    pos = np.ravel_multi_index(chi.label, chi.family.group.orders)
    return complex(gauss_sum_table(chi.modulus)[pos])


def twist_discrepancies(chi: DirichletCharacter, ms, tau: complex) -> np.ndarray:
    """Oracle: |conj(chi(m)) tau - S(m)| for every integer m in ms.

    S(m) = sum_a chi(a) cos(2 pi a m / q) for even chi and i times the sine
    sum for odd chi, summed directly: independent of tau and of the inverse
    FFT in harness.twist_check_range. Raises for non-primitive chi, where
    the identity can fail.
    """
    if not chi.is_primitive:
        raise ValueError("twist identity only holds for primitive characters")
    q = chi.modulus
    ms = np.asarray(ms, dtype=np.int64) % q
    table = chi.values()
    vals = table[chi.unit_residues]
    lhs = np.conj(table[ms]) * tau
    phases = roots_of_unity(q)[(chi.unit_residues[:, None] * ms[None, :]) % q]
    if chi.parity == "even":
        rhs = vals @ phases.real
    else:
        rhs = 1j * (vals @ phases.imag)
    return np.abs(lhs - rhs)
