"""Sweep orchestration: enumerate primitive characters, compute exact sums,
evaluate bounds, aggregate margins, and emit CSV/JSON reports.

Work is partitioned by modulus; every per-q result is deterministic, and the
merge happens in q order, so the emitted rows are byte-identical regardless
of the worker count. The sweep loop is the only serializer of rows: they
stream to stdout, or to a temporary file that lands with one atomic rename.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from multiprocessing import get_context

import numpy as np

from . import bounds, kernel, lemmas
from .characters import enumerate_characters, gauss_sum_table, primitive_mask
from .charsums import char_sum_result

__all__ = [
    "SweepConfig",
    "SweepRow",
    "SweepReport",
    "run_sweep",
    "verify_all",
    "VerifyOutcome",
    "SuiteResult",
    "gauss_check_range",
    "twist_check_range",
    "resolve_workers",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1
DEFAULT_BOUNDS = ("theorem1", "pomerance")
_TWIST_BLOCK = 256  # primitive characters per inverse FFT in the twist check


def resolve_workers(requested: int) -> int:
    """Worker count clamped to [1, os.cpu_count()].

    The PV_WORKERS environment variable, when set, overrides requested and
    must be an integer.
    """
    env = os.environ.get("PV_WORKERS")
    if env is not None:
        try:
            requested = int(env)
        except ValueError:
            raise ValueError(
                f"PV_WORKERS must be an integer, got {env!r}"
            ) from None
    return max(1, min(requested, os.cpu_count() or 1))


def _ordered_map(fn, args, workers: int):
    """fn over args, with the results in input order.

    Runs in-process at workers=1; otherwise a fork pool hands out one item
    at a time, so uneven per-item costs balance across the workers.
    """
    if workers == 1:
        yield from map(fn, args)
    else:
        with get_context("fork").Pool(workers) as pool:
            yield from pool.imap(fn, args)


@dataclass(frozen=True)
class SweepConfig:
    q_min: int = 3
    q_max: int = 2000
    parities: tuple[str, ...] = ("even", "odd")
    bounds: tuple[str, ...] = DEFAULT_BOUNDS
    workers: int = 1
    output_format: str = "csv"
    output_path: str | None = None
    store_rows: bool = False

    def __post_init__(self):
        if not (3 <= self.q_min <= self.q_max):
            raise ValueError(
                f"need 3 <= q_min <= q_max, got [{self.q_min}, {self.q_max}]"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        bad = set(self.parities) - {"even", "odd"}
        if bad or not self.parities:
            raise ValueError("parities must be a nonempty subset of even/odd")
        unknown = set(self.bounds) - set(bounds.bound_names())
        if unknown:
            raise ValueError(f"unknown bounds: {sorted(unknown)}")
        if self.output_format not in ("csv", "json"):
            raise ValueError("output_format must be csv or json")


@dataclass(frozen=True)
class SweepRow:
    """One primitive character: exact sums plus margins per chosen bound."""

    q: int
    label: tuple[int, ...]
    parity: str
    conductor: int
    s_chi: float
    t_chi: float
    m_witness: int
    n_witness: int
    ratio: float
    bound_values: tuple[float, ...]
    margins: tuple[float, ...]

    def violated(self) -> bool:
        return any(m < 0.0 for m in self.margins)


def _csv_header(bound_names) -> list[str]:
    cols = [
        "q",
        "char_label",
        "parity",
        "conductor",
        "s_chi",
        "t_chi",
        "M",
        "N",
        "ratio_s_over_sqrtq_logq",
    ]
    for name in bound_names:
        cols.append(f"{name}_value")
        cols.append(f"{name}_margin")
    return cols


def _csv_record(row: SweepRow) -> list:
    rec = [
        row.q,
        ".".join(str(e) for e in row.label),
        row.parity,
        row.conductor,
        repr(row.s_chi),
        repr(row.t_chi),
        row.m_witness,
        row.n_witness,
        repr(row.ratio),
    ]
    for v, m in zip(row.bound_values, row.margins):
        rec.append(repr(v))
        rec.append(repr(m))
    return rec


def sweep_modulus(q: int, parities, bound_names) -> list[SweepRow]:
    """All primitive-character rows for one modulus, in label order.

    A conjugate character's prefix walk is the exact bitwise mirror of the
    original's (the root tables are conjugate-symmetric), so S, T and the
    witnesses carry over unchanged; each conjugate pair is computed once.
    """
    rows = []
    denom = math.sqrt(q) * math.log(q)
    chars = enumerate_characters(q)
    orders = chars[0].family.group.orders
    bound_cache: dict[str, list[bounds.BoundValue]] = {}  # by parity
    computed: dict[tuple[int, ...], tuple] = {}  # char_sum_result by label
    for chi in chars:
        if not chi.is_primitive or chi.parity not in parities:
            continue
        conj_label = tuple((-e) % o for e, o in zip(chi.label, orders))
        sums = computed.get(conj_label)
        if sums is None:
            sums = computed[chi.label] = char_sum_result(chi)
        s_chi, (m_witness, n_witness), t_chi, _ = sums
        bvs = bound_cache.get(chi.parity)
        if bvs is None:
            bvs = [bounds.evaluate_bound(name, q, chi.parity) for name in bound_names]
            bound_cache[chi.parity] = bvs
        rows.append(
            SweepRow(
                q=q,
                label=chi.label,
                parity=chi.parity,
                conductor=chi.conductor,
                s_chi=s_chi,
                t_chi=t_chi,
                m_witness=m_witness,
                n_witness=n_witness,
                ratio=s_chi / denom,
                bound_values=tuple(bv.value for bv in bvs),
                margins=tuple(
                    bv.value - (s_chi if bv.quantity == "S" else t_chi) for bv in bvs
                ),
            )
        )
    return rows


def _sweep_worker(args) -> list[SweepRow]:
    return sweep_modulus(*args)


@dataclass
class SweepReport:
    summary: dict
    rows: list[SweepRow] = field(default_factory=list)


def _json_record(row: SweepRow, bound_names) -> dict:
    return {
        "q": row.q,
        "label": list(row.label),
        "parity": row.parity,
        "conductor": row.conductor,
        "s_chi": row.s_chi,
        "t_chi": row.t_chi,
        "M": row.m_witness,
        "N": row.n_witness,
        "ratio": row.ratio,
        "bounds": {
            name: {"value": v, "margin": m}
            for name, v, m in zip(bound_names, row.bound_values, row.margins)
        },
    }


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Sweep every primitive character with q in [q_min, q_max].

    Rows stream as CSV or JSON to cfg.output_path: "-" is sys.stdout, which
    is flushed and left open; a file path goes through a temp file with a
    final atomic rename; None writes nothing. The summary always aggregates
    violations (negative margins are flagged, never dropped), the max ratio
    S/(sqrt(q) log q), worst margins per bound, and the S = 2T deviation for
    even characters.
    """
    t0 = time.perf_counter()
    workers = resolve_workers(cfg.workers)
    n_rows = 0
    violation_rows: list[dict] = []
    max_ratio = (-math.inf, None)
    worst_margin = {name: (math.inf, None) for name in cfg.bounds}
    max_s2t = 0.0
    kept_rows: list[SweepRow] = []

    sink = tmp_path = csv_writer = None
    try:  # any failure before the final rename removes the temp file
        if cfg.output_path == "-":
            sink = sys.stdout  # read at call time, so a redirected stdout is used
        elif cfg.output_path:
            fd, tmp_path = tempfile.mkstemp(
                dir=os.path.dirname(os.path.abspath(cfg.output_path)), suffix=".tmp"
            )
            sink = os.fdopen(fd, "w", newline="")
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)  # mkstemp creates 0600
        if sink is not None:
            if cfg.output_format == "csv":
                csv_writer = csv.writer(sink, lineterminator="\n")
                csv_writer.writerow(_csv_header(cfg.bounds))
            else:  # rows stream into the list; the summary follows them
                sink.write(f'{{"schema": {SCHEMA_VERSION}, "rows": [')

        args = ((q, cfg.parities, cfg.bounds) for q in range(cfg.q_min, cfg.q_max + 1))
        for batch in _ordered_map(_sweep_worker, args, workers):
            for row in batch:
                n_rows += 1
                if row.ratio > max_ratio[0]:
                    max_ratio = (row.ratio, (row.q, row.label))
                for name, margin in zip(cfg.bounds, row.margins):
                    if margin < worst_margin[name][0]:
                        worst_margin[name] = (margin, (row.q, row.label))
                if row.parity == "even":
                    max_s2t = max(max_s2t, abs(row.s_chi - 2.0 * row.t_chi))
                if row.violated():
                    violation_rows.append(
                        {
                            "q": row.q,
                            "label": list(row.label),
                            "parity": row.parity,
                            "s_chi": row.s_chi,
                            "t_chi": row.t_chi,
                            "margins": dict(zip(cfg.bounds, row.margins)),
                        }
                    )
                if csv_writer is not None:
                    csv_writer.writerow(_csv_record(row))
                elif sink is not None:
                    sink.write("\n" if n_rows == 1 else ",\n")
                    sink.write(json.dumps(_json_record(row, cfg.bounds)))
                if cfg.store_rows:
                    kept_rows.append(row)

        summary = {
            "schema": SCHEMA_VERSION,
            "q_min": cfg.q_min,
            "q_max": cfg.q_max,
            "parities": list(cfg.parities),
            "bounds": list(cfg.bounds),
            "workers": workers,
            "characters_checked": n_rows,
            "violations": len(violation_rows),
            "violation_rows": violation_rows,
            "max_ratio": None if max_ratio[1] is None else max_ratio[0],
            "max_ratio_at": max_ratio[1],
            "worst_margin": {
                name: {"margin": wm[0], "at": wm[1]}
                for name, wm in worst_margin.items()
                if wm[1] is not None
            },
            "max_s2t_deviation_even": max_s2t,
            "wall_time_s": time.perf_counter() - t0,
        }
        if sink is not None:
            if csv_writer is None:
                sink.write('\n],\n"summary": ')
                json.dump(summary, sink, indent=1)
                sink.write("}\n")
            if tmp_path is None:
                sink.flush()
            else:
                sink.close()
                os.replace(tmp_path, cfg.output_path)
    except BaseException:
        if tmp_path is not None:  # stdout is never closed
            os.unlink(tmp_path)  # first: closing can fail again, e.g. on a full disk
            if sink is not None:
                sink.close()
        raise

    return SweepReport(summary=summary, rows=kept_rows)


# ---------------------------------------------------------------------------
# Gauss-sum and twisted-sum sweeps (parallel helpers for the identities).


def _gauss_worker(q: int) -> tuple[int, float]:
    taus = gauss_sum_table(q)[primitive_mask(q)]
    worst = float(np.abs(np.abs(taus) - math.sqrt(q)).max(initial=0.0))
    return len(taus), worst / math.sqrt(q)


def gauss_check_range(q_min: int, q_max: int, workers: int = 1):
    """Worst relative deviation of |tau(chi)| from sqrt(q), all primitive chi."""
    if not 1 <= q_min <= q_max:
        raise ValueError(f"need 1 <= q_min <= q_max, got [{q_min}, {q_max}]")
    results = list(
        _ordered_map(_gauss_worker, range(q_min, q_max + 1), resolve_workers(workers))
    )
    return sum(c for c, _ in results), max((w for _, w in results), default=0.0)


def _twist_draws(seed: int, q: int, n: int, m_per_char: int) -> np.ndarray:
    """The twists m of the n primitive characters of q: row i belongs to the
    i-th primitive character of enumerate_characters(q)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, q]))
    return rng.integers(0, 10 * q, size=(n, m_per_char))


def _twist_worker(args) -> tuple[int, float]:
    q, m_per_char, seed = args
    chars = enumerate_characters(q)
    idx = [i for i, chi in enumerate(chars) if chi.is_primitive]
    fam = chars[0].family
    labels = fam.dlog[idx]  # labels enumerate like dlog rows and gauss_sum_table
    taus = gauss_sum_table(q)[idx]
    ms = _twist_draws(seed, q, len(idx), m_per_char) % q
    worst = 0.0
    for start in range(0, len(idx), _TWIST_BLOCK):
        vals = fam.value_tables(labels[start : start + _TWIST_BLOCK])
        sums = np.fft.ifft(vals, axis=1) * q  # row i, column m: sum_a chi_i(a) e(am/q)
        block_ms = ms[start : start + _TWIST_BLOCK]
        rows = np.arange(len(vals))[:, None]
        tau = taus[start : start + _TWIST_BLOCK, None]
        errs = np.abs(np.conj(vals[rows, block_ms]) * tau - sums[rows, block_ms])
        worst = max(worst, float(errs.max()) / math.sqrt(q))
    return m_per_char * len(idx), worst


def twist_check_range(
    q_min: int, q_max: int, m_per_char: int = 50, seed: int = 987654321,
    workers: int = 1,
):
    """Worst sqrt(q)-relative twisted-sum discrepancy over random twists."""
    if not (1 <= q_min <= q_max and m_per_char >= 1):
        raise ValueError(f"need 1 <= q_min <= q_max and m_per_char >= 1, "
                         f"got [{q_min}, {q_max}] and {m_per_char}")
    args = [(q, m_per_char, seed) for q in range(q_min, q_max + 1)]
    results = list(_ordered_map(_twist_worker, args, resolve_workers(workers)))
    return sum(c for c, _ in results), max((w for _, w in results), default=0.0)


# ---------------------------------------------------------------------------
# Composite verification.


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float
    error: str | None = None


@dataclass(frozen=True)
class VerifyOutcome:
    passed: bool
    suites: tuple[SuiteResult, ...]
    warning: str | None = None


ALL_SUITES = (
    "sweep",
    "lemma1",
    "lemma2",
    "lemma3",
    "lemma4",
    "constant_derivation",
    "crossover",
)


def _run_suite(name: str, fn) -> SuiteResult:
    t0 = time.perf_counter()
    error = None
    try:
        passed, detail = fn()
    except Exception as exc:  # first failure keeps full context
        passed, detail, error = False, "raised", f"{type(exc).__name__}: {exc}"
    return SuiteResult(name, passed, detail, time.perf_counter() - t0, error)


def verify_all(
    sweep_cfg: SweepConfig | None = None,
    suites: tuple[str, ...] | None = None,
) -> VerifyOutcome:
    """Composite run: sweep, both slack lemmas, both kernel facts, the
    constant derivation, and both crossovers. Failures are aggregated, not
    short-circuited; passed is True only if every selected suite passed.
    """
    if suites is None:
        suites = ALL_SUITES
    if not suites:
        return VerifyOutcome(
            passed=True, suites=(), warning="empty suite selection: nothing verified"
        )
    unknown = set(suites) - set(ALL_SUITES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    cfg = sweep_cfg if sweep_cfg is not None else SweepConfig()

    def sweep_suite():
        report = run_sweep(cfg)
        s = report.summary
        ok = s["violations"] == 0 and s["max_s2t_deviation_even"] < 1e-9
        return ok, (
            f"{s['characters_checked']} characters in [{cfg.q_min}, {cfg.q_max}], "
            f"{s['violations']} violations, max |S-2T| = {s['max_s2t_deviation_even']:.3e}"
        )

    def lemma1_suite():
        r = lemmas.lemma1_check()
        return r.min_slack > 0.0, f"min slack {r.min_slack:.6f} over {r.n_checked} checks"

    def lemma2_suite():
        r = lemmas.lemma2_check()
        return r.min_slack > 0.0, (
            f"min slack {r.min_slack:.6f} over {r.n_checked} checks (seed {r.seed})"
        )

    def lemma3_suite():
        r = kernel.lemma3_check()
        return not r.violations, (
            f"worst ratio {r.worst_ratio:.9f} <= {r.bound:.9f} "
            f"at (u={r.worst_u:.3e}, P={r.worst_P})"
        )

    def lemma4_suite():
        worst = max(
            kernel.lemma4_check(q, P)
            for q in range(1, 101)
            for P in (1.5, 2.0, 7.3, 50.0)
        )
        return worst < 1e-9, f"worst identity discrepancy {worst:.3e}"

    def constant_suite():
        r = kernel.constant_derivation()
        ok = (
            abs(r.a_bisection - r.a_closed_form) <= 1e-12
            and abs(r.f1_at_a - r.c0_over_2pi2) <= 1e-12
        )
        return ok, (
            f"A = {r.a_bisection:.12f}, f1(A) = {r.f1_at_a:.12f}, "
            f"C0/(2 pi^2) = {r.c0_over_2pi2:.12f}"
        )

    def crossover_suite():
        ce = bounds.crossover("even")
        co = bounds.crossover("odd")
        ok = ce <= 18000 and co <= 28000
        return ok, f"even crossover {ce} (<= 18000), odd {co} (<= 28000)"

    table = {
        "sweep": sweep_suite,
        "lemma1": lemma1_suite,
        "lemma2": lemma2_suite,
        "lemma3": lemma3_suite,
        "lemma4": lemma4_suite,
        "constant_derivation": constant_suite,
        "crossover": crossover_suite,
    }
    results = tuple(_run_suite(name, table[name]) for name in suites)
    return VerifyOutcome(passed=all(r.passed for r in results), suites=results)
