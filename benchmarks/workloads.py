"""The three workloads: seeded inputs, timed rounds, independent checks.

A round is a fixed list of operations (top-level calls into pvbounds);
only those calls are timed. Each round reports two passes, whose rates
become pass1_per_s and pass2_per_s, and its total time, which becomes
wall_s. Checks run after the timing of a round and return a list of
problems; an empty list means every output agreed with its reference.

The program's functools caches (character families, roots of unity)
are emptied, outside the timed region, before every sweep or
identity call and before every large-q round, so that each timed call
builds its families once from cold, as a fresh run of the program does.
"""

from __future__ import annotations

import csv
import math
import tempfile
import time
from pathlib import Path

import numpy as np

import reference as ref

from pvbounds import bounds, characters, charsums, harness, kernel, lemmas

BOUNDS = ("theorem1", "pomerance")
PARITIES = ("even", "odd")

# gathered at import, before a tracing wrapper can hide a cache behind it
_CACHES = list({
    id(obj): obj
    for mod in (bounds, characters, charsums, harness, kernel, lemmas)
    for obj in vars(mod).values()
    if callable(getattr(obj, "cache_clear", None))
}.values())


def cold() -> None:
    """Empty every functools cache of the program."""
    for cache in _CACHES:
        cache.cache_clear()


class Round:
    """Timings and outputs of one round."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.pass_s = [0.0, 0.0]
        self.pass_units = [0, 0]
        self.other_s = 0.0  # operations in neither pass (verify_all)
        self.outputs: list = []

    @property
    def wall_s(self) -> float:
        return self.pass_s[0] + self.pass_s[1] + self.other_s

    def timed(self, pass_idx: int | None, fn, *args, **kwargs):
        """Run one operation, add its time to a pass (None: to neither);
        returns its result, or None if it raised."""
        self.ops += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # counted as a failed operation
            out = None
            self.failed += 1
            self.outputs.append(("raised", f"{type(exc).__name__}: {exc}"))
        dt = time.perf_counter() - t0
        if pass_idx is None:
            self.other_s += dt
        else:
            self.pass_s[pass_idx] += dt
        return out


# ---------------------------------------------------------------------------
# desk-sweep


class DeskSweep:
    """run_sweep over every primitive character with q in a fixed band just
    below 2000, both parities, theorem1 and pomerance, CSV to a temp file;
    once at workers=1 (pass 1) and once at workers=nproc (pass 2).

    The band is the same for every seed so that every seed times the same
    sweep; the seed picks which rows get the O(q^2) brute-force diameter.
    """

    name = "desk-sweep"
    Q_MIN, Q_MAX = 1990, 1999
    BRUTE_SAMPLE = 24
    traced_spans = (
        "harness.run_sweep", "harness.sweep_modulus", "characters.enumerate",
        "charsums.sum_result", "charsums.walk", "charsums.diameter",
        "charsums.initial", "bounds.evaluate",
    )

    def __init__(self, seed: int, nproc: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.nproc = nproc
        self.workdir = workdir
        self.expected = {q: ref.primitive_count(q) for q in range(self.Q_MIN, self.Q_MAX + 1)}
        self.first_csv: bytes | None = None

    def _config(self, workers: int, path: Path):
        return harness.SweepConfig(
            q_min=self.Q_MIN, q_max=self.Q_MAX, parities=PARITIES, bounds=BOUNDS,
            workers=workers, output_format="csv", output_path=str(path), store_rows=False,
        )

    def run_round(self, serial_only: bool = False) -> Round:
        rnd = Round()
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            passes = ((0, 1),) if serial_only else ((0, 1), (1, self.nproc))
            for idx, workers in passes:
                path = Path(tmp) / f"w{workers}.csv"
                cold()  # pool workers fork from this process, so they start cold too
                report = rnd.timed(idx, harness.run_sweep, self._config(workers, path))
                if report is not None:
                    rnd.pass_units[idx] = report.summary["characters_checked"]
                    rnd.outputs.append((workers, path.read_bytes(), rnd.pass_units[idx]))
        return rnd

    def check(self, rnd: Round) -> list[str]:
        problems = [f"operation {o[1]}" for o in rnd.outputs if o[0] == "raised"]
        blobs = [o for o in rnd.outputs if o[0] != "raised"]
        if self.first_csv is None and blobs:
            self.first_csv = blobs[0][1]
            problems += self._check_csv(self.first_csv)
        expected_rows = sum(self.expected.values())
        for workers, blob, units in blobs:
            if blob != self.first_csv:
                problems.append(f"CSV at workers={workers} differs from the first workers=1 CSV")
            if units != expected_rows:
                problems.append(f"workers={workers} checked {units} characters, phi* gives {expected_rows}")
        return problems

    def _check_csv(self, blob: bytes) -> list[str]:
        problems = []
        lines = blob.decode().splitlines()
        rows = list(csv.reader(lines))
        header = ["q", "char_label", "parity", "conductor", "s_chi", "t_chi", "M", "N",
                  "ratio_s_over_sqrtq_logq"]
        for b in BOUNDS:
            header += [f"{b}_value", f"{b}_margin"]
        if rows[0] != header:
            return [f"CSV header {rows[0]} != {header}"]
        rows = rows[1:]
        per_q: dict[int, int] = {}
        for r in rows:
            per_q[int(r[0])] = per_q.get(int(r[0]), 0) + 1
        for q, n in self.expected.items():
            if per_q.get(q, 0) != n:
                problems.append(f"q={q}: {per_q.get(q, 0)} rows, phi*(q) = {n}")
        brute = set(self.rng.choice(len(rows), size=min(self.BRUTE_SAMPLE, len(rows)), replace=False).tolist())
        for i, r in enumerate(rows):
            q, label, parity = int(r[0]), tuple(int(e) for e in r[1].split(".")), r[2]
            s, t, m, n = float(r[4]), float(r[5]), int(r[6]), int(r[7])
            values = characters.character_from_label(q, label).values()
            where = f"q={q} label={r[1]}"
            problems += _check_sums(where, values, parity, s, t, m, n)
            if int(r[3]) != q:
                problems.append(f"{where}: conductor column {r[3]}")
            if not ref.close(float(r[8]), s / (math.sqrt(q) * math.log(q)), 1e-12):
                problems.append(f"{where}: ratio column {r[8]}")
            problems += _check_bounds(where, q, parity, s, [
                (b, float(r[9 + 2 * j]), float(r[10 + 2 * j])) for j, b in enumerate(BOUNDS)
            ])
            if i in brute:
                bf = ref.brute_force_diameter(values)
                if abs(bf - s) > ref.BRUTE_TOL:
                    problems.append(f"{where}: S = {s!r}, O(q^2) scan gives {bf!r}")
        return problems


# ---------------------------------------------------------------------------
# large-q


class LargeQ:
    """Seeded primitive characters at fixed moduli near q = 1e4, 3e4 (just
    past the odd crossover 27087) and 1e5: per band one prime, one odd prime
    square and one composite with five or six cyclic unit-group factors.
    Each character is built with character_from_label and run through
    prefix_walk, max_interval_sum, max_initial_sum and evaluate_bound.

    Pass 1 holds the 1e4 and 3e4 bands, pass 2 the 1e5 band. The seed draws
    the labels, by the local primitivity rule and never from
    enumerate_characters, whose phi x phi table does not fit in memory at
    these sizes. The moduli are fixed so that seeds differ only in which
    characters they draw.
    """

    name = "large-q"
    MODULI = (  # (pass index, moduli) for the bands q1e4, q3e4 and q1e5
        (0, (10007, 101**2, 2**5 * 3**2 * 5 * 7)),
        (0, (27091, 167**2, 2**3 * 3**2 * 5 * 7 * 11)),
        (1, (100003, 317**2, 2**2 * 5**2 * 7 * 11 * 13)),
    )
    PER_MODULUS = 2  # characters per modulus per round
    traced_spans = ("characters.from_label", "charsums.walk", "charsums.diameter",
                    "charsums.initial", "bounds.evaluate")

    def __init__(self, seed: int, nproc: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.moduli = []  # (pass index, q, local components)
        for pass_idx, qs in self.MODULI:
            for q in qs:
                comps = ref.local_components(q)
                orders = characters.unit_group(q).orders
                if tuple(o for _, o, _ in comps) != tuple(orders):
                    raise RuntimeError(
                        f"unit group of {q} has component orders {orders}, "
                        f"expected {[o for _, o, _ in comps]}"
                    )
                self.moduli.append((pass_idx, q, comps))

    def run_round(self, serial_only: bool = False) -> Round:
        rnd = Round()
        todo = [(pass_idx, q, ref.draw_primitive_label(self.rng, comps))
                for pass_idx, q, comps in self.moduli for _ in range(self.PER_MODULUS)]
        cold()  # each modulus builds its family once per round, for its characters
        for pass_idx, q, label in todo:
            out = rnd.timed(pass_idx, _large_q_character, q, label)
            if out is not None:
                rnd.pass_units[pass_idx] += 1
                rnd.outputs.append(out)
        return rnd

    def check(self, rnd: Round) -> list[str]:
        problems = [f"operation {o[1]}" for o in rnd.outputs if o[0] == "raised"]
        for out in rnd.outputs:
            if out[0] == "raised":
                continue
            chi, s, (m, n), t, bvs = out
            q = chi.modulus
            where = f"q={q} label={'.'.join(map(str, chi.label))}"
            if chi.conductor != q:
                problems.append(f"{where}: conductor {chi.conductor}")
            values = chi.values()
            if not ref.is_primitive_by_values(values):
                problems.append(f"{where}: not primitive by the definitional test")
            problems += _check_sums(where, values, chi.parity, s, t, m, n)
            lo, hi = ref.width_bracket(ref.fresh_walk(values))
            if not (lo <= s * (1 + 1e-12) + 1e-9 and s <= hi * (1 + 1e-12) + 1e-9):
                problems.append(f"{where}: S = {s!r} outside width bracket [{lo!r}, {hi!r}]")
            problems += _check_bounds(where, q, chi.parity, s,
                                      [(bv.name, bv.value, bv.value - s) for bv in bvs])
        return problems


def _large_q_character(q, label):
    chi = characters.character_from_label(q, label)
    walk = charsums.prefix_walk(chi)
    s, witness = charsums.max_interval_sum(walk)
    t, _ = charsums.max_initial_sum(walk)
    bvs = [bounds.evaluate_bound(b, q, chi.parity) for b in BOUNDS]
    return chi, s, witness, t, bvs


# ---------------------------------------------------------------------------
# identities


class Identities:
    """gauss_check_range on a fixed band just below 2000 (pass 1),
    twist_check_range with 50 seeded twists per character on a fixed band
    just below 500 (pass 2), then verify_all with every suite but sweep.
    The seed is the twist seed. Nothing here calls charsums.
    """

    name = "identities"
    GAUSS = (1990, 1999)
    TWIST = (491, 500)
    TWISTS = 50
    SUITES = tuple(s for s in harness.ALL_SUITES if s != "sweep")
    traced_spans = ("harness.gauss_check_range", "harness.twist_check_range",
                    "harness.verify_all", "characters.enumerate", "kernel.lemma3",
                    "kernel.lemma4", "kernel.constant_derivation", "lemmas.lemma1",
                    "lemmas.lemma2", "bounds.crossover")

    def __init__(self, seed: int, nproc: int, workdir: Path):
        self.twist_seed = seed
        self.gauss_chars = sum(ref.primitive_count(q) for q in range(self.GAUSS[0], self.GAUSS[1] + 1))
        self.twist_chars = sum(ref.primitive_count(q) for q in range(self.TWIST[0], self.TWIST[1] + 1))

    def run_round(self, serial_only: bool = False) -> Round:
        rnd = Round()
        cold()
        g = rnd.timed(0, harness.gauss_check_range, *self.GAUSS, workers=1)
        cold()
        tw = rnd.timed(1, harness.twist_check_range, *self.TWIST, m_per_char=self.TWISTS,
                       seed=self.twist_seed, workers=1)
        cold()
        v = rnd.timed(None, harness.verify_all, suites=self.SUITES)
        rnd.pass_units = [g[0] if g else 0, tw[0] if tw else 0]
        rnd.outputs += [("gauss", g), ("twist", tw), ("verify", v)]
        return rnd

    def check(self, rnd: Round) -> list[str]:
        problems = [f"operation {o[1]}" for o in rnd.outputs if o[0] == "raised"]
        out = dict(o for o in rnd.outputs if o[0] != "raised")
        if out.get("gauss"):
            count, worst = out["gauss"]
            if count != self.gauss_chars:
                problems.append(f"gauss checked {count} characters, phi* gives {self.gauss_chars}")
            if not worst < 1e-8:
                problems.append(f"||tau| - sqrt q| / sqrt q = {worst!r} >= 1e-8")
        if out.get("twist"):
            count, worst = out["twist"]
            if count != self.TWISTS * self.twist_chars:
                problems.append(f"twist made {count} checks, expected {self.TWISTS * self.twist_chars}")
            if not worst < 1e-8:
                problems.append(f"twist discrepancy {worst!r} >= 1e-8 sqrt q")
        if out.get("verify"):
            got = tuple(s.name for s in out["verify"].suites)
            if got != self.SUITES:
                problems.append(f"verify_all ran {got}, asked for {self.SUITES}")
            problems += [f"suite {s.name} failed: {s.detail} {s.error or ''}"
                         for s in out["verify"].suites if not s.passed]
        return problems


# ---------------------------------------------------------------------------
# shared checks


def _check_sums(where, values, parity, s, t, m, n) -> list[str]:
    """Witness re-summation, T <= S <= 2T, and S = 2T for even characters."""
    problems = []
    q = len(values)
    if not (1 <= m <= n <= q):
        problems.append(f"{where}: witness ({m}, {n}) outside 1 <= M <= N <= q")
    elif abs(ref.resum(values, m, n) - s) > ref.RESUM_TOL:
        problems.append(f"{where}: witness ({m}, {n}) re-sums to {ref.resum(values, m, n)!r}, S = {s!r}")
    if not (t <= s + ref.PARITY_TOL and s <= 2 * t + ref.PARITY_TOL):
        problems.append(f"{where}: T = {t!r}, S = {s!r} break T <= S <= 2T")
    if parity == "even" and abs(s - 2 * t) > ref.PARITY_TOL:
        problems.append(f"{where}: even character with |S - 2T| = {abs(s - 2 * t):.3e}")
    return problems


def _check_bounds(where, q, parity, s, entries) -> list[str]:
    """entries: (bound name, value, margin). Pomerance against its closed
    form; every margin equal to value - S and nonnegative."""
    problems = []
    for name, value, margin in entries:
        if name == "pomerance" and not ref.close(value, ref.pomerance(q, parity), 1e-12):
            problems.append(f"{where}: pomerance {value!r} vs closed form {ref.pomerance(q, parity)!r}")
        if margin != value - s:
            problems.append(f"{where}: {name} margin {margin!r} != value - S")
        if margin < 0.0:
            problems.append(f"{where}: {name} margin {margin!r} < 0")
    return problems


WORKLOADS = {w.name: w for w in (DeskSweep, LargeQ, Identities)}
