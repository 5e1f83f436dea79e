"""Character construction against exhaustive small-modulus oracles."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
import sympy

from pvbounds.characters import (
    DirichletCharacter,
    character_from_label,
    conductor,
    divisors,
    enumerate_characters,
    gauss_sum,
    gauss_sum_table,
    primitive_mask,
    roots_of_unity,
    twist_discrepancies,
    unit_group,
)

Q_TEST = 60
RNG = np.random.default_rng(20260808)


def exhaustive_order(g: int, q: int) -> int:
    """Oracle: multiplicative order by stepping through powers."""
    x = g % q
    k = 1
    while x != 1 % q:
        x = x * g % q
        k += 1
    return k


def conductor_oracle(chi) -> int:
    """Oracle: definitional conductor test on the float value table."""
    q = chi.modulus
    vals = chi.values()
    for d in sympy.divisors(q):
        ok = True
        for a in range(1, q + 1):
            if math.gcd(a, q) == 1 and a % d == 1 % d:
                if abs(vals[a % q] - 1.0) > 1e-9:
                    ok = False
                    break
        if ok:
            return d
    return q


def units_oracle(q: int) -> list[int]:
    """Oracle: the unit enumeration by Python-int generator powers, first
    generator slowest (the order labels and dlog rows follow)."""
    units = [1 % q]
    ug = unit_group(q)
    for g, o in zip(ug.generators, ug.orders):
        powers = [pow(g, k, q) for k in range(o)]
        units = [u * pg % q for u in units for pg in powers]
    return units


def order_oracle(chi) -> int:
    """Oracle: smallest k >= 1 with k * t_a = 0 mod N for every unit a.

    k = N always qualifies and the qualifying k are the multiples of the
    smallest one, so the scan runs over the divisors of N in order.
    """
    for k in sympy.divisors(chi.root_order):
        if not np.any(k * chi.unit_exponents % chi.root_order):
            return k


# ---------------------------------------------------------------------------
# unit group


def test_unit_group_q1_trivial():
    ug = unit_group(1)
    assert ug.generators == () and ug.orders == () and ug.phi == 1


def test_unit_group_q5_single_generator_order4():
    ug = unit_group(5)
    assert len(ug.generators) == 1
    assert exhaustive_order(ug.generators[0], 5) == 4
    assert ug.orders == (4,)


def test_unit_group_q8_two_generators_orders_2_2():
    ug = unit_group(8)
    assert sorted(ug.orders) == [2, 2]
    assert ug.phi == 4
    for g, o in zip(ug.generators, ug.orders):
        assert exhaustive_order(g, 8) == o


@pytest.mark.parametrize("q", range(1, Q_TEST + 1))
def test_unit_group_structure(q):
    ug = unit_group(q)
    assert ug.phi == sympy.totient(q)
    seen = set()
    for g, o in zip(ug.generators, ug.orders):
        assert math.gcd(g, q) == 1
        assert exhaustive_order(g, q) == o
    # every unit is a unique product of generator powers
    from itertools import product as iproduct

    for exps in iproduct(*(range(o) for o in ug.orders)):
        x = 1 % q
        for g, e in zip(ug.generators, exps):
            x = x * pow(g, e, q) % q if q > 1 else 0
        assert x not in seen
        seen.add(x)
    assert len(seen) == ug.phi


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_q3():
    chars = enumerate_characters(3)
    assert len(chars) == 2
    nonprincipal = [c for c in chars if not c.is_principal]
    assert len(nonprincipal) == 1
    chi = nonprincipal[0]
    assert chi.value(2) == -1
    assert chi.parity == "odd"


def test_enumerate_q5():
    chars = enumerate_characters(5)
    assert len(chars) == 4
    assert sum(c.is_primitive for c in chars) == 3


def test_enumerate_q1():
    chars = enumerate_characters(1)
    assert len(chars) == 1
    assert chars[0].conductor == 1
    assert chars[0].values()[0] == 1.0


@pytest.mark.parametrize("q", range(1, Q_TEST + 1))
def test_count_and_distinct(q):
    chars = enumerate_characters(q)
    assert len(chars) == sympy.totient(q)
    tables = {tuple(c.unit_exponents.tolist()) for c in chars}
    assert len(tables) == len(chars)
    assert chars[0].unit_residues.tolist() == units_oracle(q)


@pytest.mark.parametrize("q", range(2, Q_TEST + 1))
def test_multiplicativity(q):
    for chi in enumerate_characters(q):
        table = {int(a): int(e) for a, e in zip(chi.unit_residues, chi.unit_exponents)}
        units = list(table)
        n = chi.root_order
        vals = chi.values()
        for _ in range(200):
            a, b = RNG.choice(units, 2)
            a, b = int(a), int(b)
            assert (table[a] + table[b]) % n == table[a * b % q]
            assert abs(vals[a * b % q] - vals[a] * vals[b]) < 1e-12


@pytest.mark.parametrize("q", range(2, Q_TEST + 1))
def test_orthogonality_and_unit_modulus(q):
    for chi in enumerate_characters(q):
        vals = chi.values()
        mods = np.abs(vals)
        for a in range(q):
            if math.gcd(a, q) == 1:
                assert abs(mods[a] - 1.0) < 1e-12
            else:
                assert vals[a] == 0.0
        if not chi.is_principal:
            assert abs(vals.sum()) < 1e-9


@pytest.mark.parametrize("q", range(2, Q_TEST + 1))
def test_parity_field_matches_value_at_minus_one(q):
    for chi in enumerate_characters(q):
        m1 = chi.value(-1)
        assert m1 == (1.0 if chi.parity == "even" else -1.0)


# ---------------------------------------------------------------------------
# conductor


def test_conductor_principal_mod6_is_1():
    principal = enumerate_characters(6)[0]
    assert principal.is_principal
    assert conductor(principal) == 1


def test_conductor_induced_mod6_is_3():
    induced = [c for c in enumerate_characters(6) if not c.is_principal][0]
    assert conductor(induced) == 3
    assert conductor_oracle(induced) == 3


def test_conductor_nonprincipal_mod3_primitive():
    chi = [c for c in enumerate_characters(3) if not c.is_principal][0]
    assert conductor(chi) == 3
    assert chi.is_primitive


@pytest.mark.parametrize("q", range(1, Q_TEST + 1))
def test_conductor_matches_oracle_and_field(q):
    for chi in enumerate_characters(q):
        c = conductor(chi)
        assert c == chi.conductor
        assert c == conductor_oracle(chi)
        assert q % c == 0
        assert chi.order == order_oracle(chi)


@pytest.mark.parametrize("q", [1009, 1024, 2**5 * 3**2 * 5 * 7])
def test_enumeration_beyond_one_label_block(q):
    """phi(q) > 256, so the tables are built in more than one label block."""
    chars = enumerate_characters(q)
    orders = unit_group(q).orders
    assert [chi.label for chi in chars] == list(product(*(range(o) for o in orders)))
    assert len({chi.unit_exponents.tobytes() for chi in chars}) == sympy.totient(q)
    assert chars[0].unit_residues.tolist() == units_oracle(q)
    for chi in chars:
        assert chi.conductor == conductor(chi)


@pytest.mark.parametrize(
    "q",
    [10007, 101**2, 2**3 * 3**2 * 5 * 7 * 11, 2**2 * 5**2 * 7 * 11 * 13, 317**2],
)
def test_character_from_label_large_q(q):
    rng = np.random.default_rng(q)
    orders = unit_group(q).orders
    for _ in range(4):
        chi = character_from_label(q, [int(rng.integers(o)) for o in orders])
        assert chi.conductor == conductor(chi)
        assert chi.values()[q - 1] == (1.0 if chi.parity == "even" else -1.0)
        assert chi.order == order_oracle(chi)
    assert chi.unit_residues.tolist() == units_oracle(q)


@pytest.mark.parametrize("q", range(1, 301))
def test_primitive_stream_matches_conductor_oracle(q):
    """The characters that is_primitive keeps (conductor read from the label)
    are those the divisor-scan conductor() keeps, in the same order, and
    primitive_mask marks the same rows."""
    full = enumerate_characters(q)
    kept = [chi for chi in full if conductor(chi) == q]
    primitive = [chi for chi in full if chi.is_primitive]
    assert [chi.label for chi in primitive] == [chi.label for chi in kept]
    assert primitive_mask(q).tolist() == [conductor(chi) == q for chi in full]


def exponent_table_oracle(q, label) -> list[int]:
    """Oracle: t_i = sum_j e_j * d_j * (N / o_j) mod N in Python ints, per
    unit in the order of units_oracle (d runs over the generator-exponent
    vectors, first generator slowest)."""
    orders = unit_group(q).orders
    n = math.lcm(*orders) if orders else 1
    coef = [e * (n // o) for e, o in zip(label, orders)]
    return [
        sum(c * d for c, d in zip(coef, dvec)) % n
        for dvec in product(*(range(o) for o in orders))
    ]


@pytest.mark.parametrize("q", range(1, 301))
def test_exponent_tables_match_python_int_oracle(q):
    chars = enumerate_characters(q)
    units = units_oracle(q)
    assert chars[0].unit_residues.tolist() == units
    for chi in chars:
        exps = exponent_table_oracle(q, chi.label)
        assert chi.unit_exponents.tolist() == exps
    # chi(a) = e(t/N) at every a in [-q, 2q), negative a and non-units
    # included, for the last label: every component at its largest exponent
    want = np.zeros(q, dtype=np.complex128)
    want[units] = np.exp(2j * np.pi * np.array(exps) / chi.root_order)
    got = [chi.value(a) for a in range(-q, 2 * q)]
    assert np.abs(np.array(got) - np.tile(want, 3)).max() < 1e-12


@pytest.mark.parametrize(
    "q",
    [10007, 101**2, 10080, 27091, 167**2, 27720, 100003, 317**2, 100100],
)
def test_exponent_tables_match_python_int_oracle_large_q(q):
    idx = np.flatnonzero(primitive_mask(q))
    rng = np.random.default_rng(q)
    orders = unit_group(q).orders
    for i in rng.choice(idx, size=2, replace=False):
        chi = character_from_label(q, [int(e) for e in np.unravel_index(i, orders)])
        assert chi.is_primitive
        assert chi.unit_exponents.tolist() == exponent_table_oracle(q, chi.label)
    assert chi.unit_residues.tolist() == units_oracle(q)


@pytest.mark.parametrize("q", [1, 12, 1009, 1024, 2**5 * 3**2 * 5 * 7])
def test_block_value_tables_equal_per_character_values(q):
    """The family's block builder gives every row of a label block the bits
    of that character's own values()."""
    chars = enumerate_characters(q)
    labels = np.array([chi.label for chi in chars], dtype=np.int64).reshape(len(chars), -1)
    for start in range(0, len(chars), 256):
        block = chars[0].family.value_tables(labels[start : start + 256])
        for row, chi in zip(block, chars[start : start + 256]):
            assert row.tobytes() == chi.values().tobytes()


def test_enumeration_holds_no_tables():
    """All phi(q) exponent tables at q = 27091 would take phi^2 * 8 bytes
    (~5.9 GB); enumeration builds none of them."""
    q = 27091
    tracemalloc.start()
    try:
        chars = enumerate_characters(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(chars) == q - 1
    assert peak < 16 * 2**20


@pytest.mark.parametrize("q", range(1, 201))
def test_primitive_census(q):
    count = sum(c.is_primitive for c in enumerate_characters(q))
    expected = sum(
        sympy.mobius(q // d) * sympy.totient(d) for d in sympy.divisors(q)
    )
    assert count == expected


# ---------------------------------------------------------------------------
# Gauss sums and the twisted-sum identity


def test_gauss_quadratic_mod5_is_sqrt5():
    chi = [c for c in enumerate_characters(5) if c.order == 2][0]
    g = gauss_sum(chi)
    assert abs(g.real - math.sqrt(5)) < 1e-12
    assert abs(g.imag) < 1e-12


def test_gauss_odd_quadratic_mod3():
    chi = [c for c in enumerate_characters(3) if not c.is_principal][0]
    assert abs(abs(gauss_sum(chi)) - math.sqrt(3)) < 1e-12


@pytest.mark.parametrize("q", range(3, 201))
def test_gauss_modulus_primitive(q):
    for chi in enumerate_characters(q):
        if chi.is_primitive:
            assert abs(abs(gauss_sum(chi)) - math.sqrt(q)) < 1e-8 * math.sqrt(q)


@pytest.mark.parametrize("q", range(1, Q_TEST + 1))
def test_gauss_sums_batch_matches_gauss_sum(q):
    e_q = np.exp(2j * np.pi * np.arange(q) / q)
    # every label, imprimitive ones and the one-cell grids of q = 1, 2 included
    chars = enumerate_characters(q)
    table = gauss_sum_table(q)
    # definitional tau(chi) = sum_a chi(a) e(a/q), computed here
    want = np.array([chi.values() @ e_q for chi in chars])
    assert np.abs(table - want).max() < 1e-12 * math.sqrt(q)
    for chi, tau, entry in zip(chars, want, table):
        got = gauss_sum(chi)
        assert got == entry  # the label's row, to the bit
        assert abs(got - tau) < 1e-12 * math.sqrt(q)


@pytest.mark.parametrize("q", [10007, 101**2, 2**3 * 3**2 * 5 * 7 * 11])
def test_gauss_sums_large_q_match_direct_sum(q):
    rng = np.random.default_rng(q)
    orders = unit_group(q).orders
    chars = [
        character_from_label(q, [int(rng.integers(o)) for o in orders])
        for _ in range(6)
    ]
    e_q = np.exp(2j * np.pi * np.arange(q) / q)
    for chi in chars:
        assert abs(gauss_sum(chi) - chi.values() @ e_q) < 1e-12 * math.sqrt(q)


def twist_check(chi, m: int) -> float:
    return float(twist_discrepancies(chi, [m], gauss_sum(chi))[0])


def test_twist_even_quadratic_mod5():
    chi = [c for c in enumerate_characters(5) if c.order == 2][0]
    assert chi.parity == "even"
    assert twist_check(chi, 2) < 1e-9


def test_twist_odd_mod3():
    chi = [c for c in enumerate_characters(3) if not c.is_principal][0]
    assert twist_check(chi, 1) < 1e-9


def test_twist_non_unit_m():
    chi = [c for c in enumerate_characters(5) if c.order == 2][0]
    # chi_bar(m) = 0, so the identity reduces to the cosine sum vanishing
    assert twist_check(chi, 10) < 1e-9


def test_twist_rejects_imprimitive():
    induced = [c for c in enumerate_characters(6) if not c.is_principal][0]
    with pytest.raises(ValueError):
        twist_discrepancies(induced, [1], gauss_sum(induced))


@pytest.mark.parametrize("q", range(3, 61))
def test_twist_random_m(q):
    for chi in enumerate_characters(q):
        if not chi.is_primitive:
            continue
        ms = RNG.integers(-3 * q, 3 * q, size=50)
        assert twist_discrepancies(chi, ms, gauss_sum(chi)).max() < 1e-8 * math.sqrt(q)


@pytest.mark.parametrize("q", range(3, Q_TEST + 1))
def test_twist_discrepancies_match_scalar_check(q):
    # both sides by definition, here: tau = sum_a chi(a) e(a/q) and the
    # twisted sum S(m) = sum_a chi(a) e(am/q); a doubled tau makes every
    # discrepancy at a unit m equal to sqrt(q), so the vector is checked
    # away from zero too
    a = np.arange(q)
    e_q = np.exp(2j * np.pi * a / q)
    for chi in enumerate_characters(q):
        if not chi.is_primitive:
            continue
        ms = np.random.default_rng(q).integers(-3 * q, 3 * q, size=20)
        vals = chi.values()
        tau = vals @ e_q
        twisted = np.array([vals @ e_q[a * m % q] for m in ms])
        for t in (tau, 2.0 * tau):
            want = np.abs(np.conj(vals[ms % q]) * t - twisted)
            got = twist_discrepancies(chi, ms, t)
            assert got == pytest.approx(want, rel=0, abs=1e-12 * math.sqrt(q))


# ---------------------------------------------------------------------------
# delta_q and serialization


def delta_q_check(q: int, a: int) -> int:
    """Round of (1/q) sum_{x=1}^{q} e(ax/q): 1 iff a = 0 mod q, else 0."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    x = np.arange(1, q + 1)
    s = roots_of_unity(q)[(a * x) % q].sum() / q
    return int(round(s.real))


def test_delta_q_examples():
    assert delta_q_check(7, 14) == 1
    assert delta_q_check(7, 3) == 0
    assert delta_q_check(1, 5) == 1
    assert delta_q_check(1, 0) == 1


@pytest.mark.parametrize("q", range(1, 30))
def test_delta_q_full(q):
    for a in range(-q, 2 * q + 1):
        assert delta_q_check(q, a) == (1 if a % q == 0 else 0)


@pytest.mark.parametrize("q", [1, 2, 5, 12, 40, 45])
def test_json_roundtrip(q):
    for chi in enumerate_characters(q):
        d = chi.to_json_dict()
        assert set(d) == {"q", "label", "conductor", "parity", "order"}
        rebuilt = character_from_label(d["q"], d["label"])
        assert np.array_equal(rebuilt.unit_exponents, chi.unit_exponents)
        assert rebuilt.conductor == chi.conductor
        assert rebuilt.parity == chi.parity
        assert rebuilt.order == chi.order


def test_character_from_label_rejects_bad_label():
    with pytest.raises(ValueError):
        character_from_label(5, (4, 1))
    with pytest.raises(ValueError):
        character_from_label(5, (7,))


def test_character_from_label_rejects_non_integral_entry():
    with pytest.raises(ValueError, match=r"component orders \[4\]"):
        character_from_label(5, (2.5,))
    for label in (("2",), (np.int64(2),), (2,)):
        assert character_from_label(5, label).label == (2,)


def test_characters_are_immutable():
    chi = enumerate_characters(5)[1]
    with pytest.raises(AttributeError):
        chi.parity = "even"
    # the exponent table is a property built on each access, read-only each time
    exps = chi.unit_exponents
    assert not exps.flags.writeable and exps is not chi.unit_exponents
    # a property is no field; CPython 3.11's frozen slots __setattr__
    # raises TypeError there, not AttributeError
    with pytest.raises((AttributeError, TypeError)):
        chi.unit_exponents = exps
    assert not chi.unit_residues.flags.writeable


def test_character_equality_reads_modulus_and_label():
    chars = enumerate_characters(12) + enumerate_characters(13) + enumerate_characters(16)
    for x in chars:
        for y in chars:
            same = (x.modulus, x.label) == (y.modulus, y.label)
            assert (x == y) is same
            if same:
                assert hash(x) == hash(y)
    chi = chars[3]
    # a rebuilt character is a new object with new arrays, still equal
    rebuilt = character_from_label(chi.modulus, chi.label)
    assert rebuilt is not chi and rebuilt == chi and hash(rebuilt) == hash(chi)
    # the other fields take no part: a copy with changed ones stays equal
    twin = DirichletCharacter(chi.modulus, chi.label, 1, "even", 99, 1,
                              enumerate_characters(16)[0].family)
    assert twin == chi and hash(twin) == hash(chi)
    assert chi != (chi.modulus, chi.label)
    # repr names the scalars and holds no value arrays
    text = repr(chi)
    assert f"label={chi.label}" in text and "conductor=" in text
    assert "unit_residues" not in text and "unit_exponents" not in text
    assert "family" not in text
    assert "array" not in text and "[" not in text
    for name in ("modulus", "label", "order", "family"):
        with pytest.raises(AttributeError):
            setattr(chi, name, 0)
    # a name that is no field fails too; CPython 3.11's frozen slots
    # __setattr__ raises TypeError there, not AttributeError
    with pytest.raises((AttributeError, TypeError)):
        chi.extra = 0
    assert not hasattr(chi, "extra") and not hasattr(chi, "__dict__")


def test_roots_table_conjugate_symmetric():
    for n in (2, 3, 8, 12, 60, 97):
        w = roots_of_unity(n)
        for k in range(1, n):
            assert w[n - k] == np.conj(w[k])
    assert roots_of_unity(12)[3] == 1j
    assert roots_of_unity(12)[6] == -1.0
