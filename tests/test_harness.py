"""Sweep orchestration: determinism, schema, streaming, composite runs."""

import csv
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
import sympy

from pvbounds import bounds, harness, kernel
from pvbounds.characters import (
    conductor,
    enumerate_characters,
    gauss_sum,
    primitive_mask,
    roots_of_unity,
)
from pvbounds.charsums import char_sum_result
from pvbounds.harness import (
    SweepConfig,
    gauss_check_range,
    resolve_workers,
    run_sweep,
    sweep_modulus,
    twist_check_range,
    verify_all,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(q_min=50, q_max=10)
    with pytest.raises(ValueError):
        SweepConfig(q_min=1, q_max=10)
    with pytest.raises(ValueError):
        SweepConfig(workers=0)
    with pytest.raises(ValueError):
        SweepConfig(parities=("weird",))
    with pytest.raises(ValueError):
        SweepConfig(bounds=("landau",))
    with pytest.raises(ValueError):
        SweepConfig(output_format="xml")


def test_resolve_workers_env_override(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.delenv("PV_WORKERS", raising=False)
    assert resolve_workers(3) == 3
    monkeypatch.setenv("PV_WORKERS", "7")
    assert resolve_workers(3) == 7


def test_resolve_workers_rejects_non_integer_env(monkeypatch):
    monkeypatch.setenv("PV_WORKERS", "abc")
    with pytest.raises(ValueError, match="PV_WORKERS.*'abc'"):
        resolve_workers(1)


@pytest.mark.parametrize(
    "env, requested, expected",
    [("0", 3, 1), ("-5", 3, 1), ("100000", 1, 4), (None, 100000, 4), (None, 0, 1)],
)
def test_resolve_workers_clamped_to_cpu_count(monkeypatch, env, requested, expected):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    if env is None:
        monkeypatch.delenv("PV_WORKERS", raising=False)
    else:
        monkeypatch.setenv("PV_WORKERS", env)
    assert resolve_workers(requested) == expected


def test_resolve_workers_unknown_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    monkeypatch.setenv("PV_WORKERS", "100000")
    assert resolve_workers(1) == 1


def test_sweep_rows_primitive_only_sorted():
    report = run_sweep(SweepConfig(q_min=3, q_max=60, store_rows=True))
    rows = report.rows
    keys = [(r.q, r.label) for r in rows]
    assert keys == sorted(keys)
    expected = 0
    for q in range(3, 61):
        expected += sum(
            sympy.mobius(q // d) * sympy.totient(d) for d in sympy.divisors(q)
        )
    assert len(rows) == expected
    assert report.summary["characters_checked"] == expected
    assert report.summary["violations"] == 0
    assert all(r.conductor == r.q for r in rows)


def test_sweep_rows_match_direct_computation():
    # harness rows (with conjugate reuse) == per-character public pipeline
    for q in (45, 47, 56):
        rows = {r.label: r for r in sweep_modulus(q, ("even", "odd"), ("theorem1",))}
        for chi in enumerate_characters(q):
            if not chi.is_primitive:
                continue
            s, (m, n), t, _ = char_sum_result(chi)
            row = rows[chi.label]
            assert row.s_chi == s
            assert row.t_chi == t
            assert row.parity == chi.parity
            assert (row.m_witness, row.n_witness) == (m, n)


def test_sweep_parity_filter():
    report = run_sweep(SweepConfig(q_min=3, q_max=40, parities=("even",), store_rows=True))
    assert all(r.parity == "even" for r in report.rows)


def test_sweep_determinism_across_workers(monkeypatch, tmp_path):
    monkeypatch.delenv("PV_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # let workers=2 fork
    for workers in (1, 2):
        path = tmp_path / f"w{workers}.csv"
        run_sweep(SweepConfig(q_min=3, q_max=120, workers=workers, output_path=str(path)))
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()


def test_sweep_csv_schema(tmp_path):
    path = tmp_path / "out.csv"
    run_sweep(SweepConfig(q_min=3, q_max=20, output_path=str(path)))
    reader = csv.reader(path.read_text().splitlines())
    header = next(reader)
    assert header == [
        "q", "char_label", "parity", "conductor", "s_chi", "t_chi", "M", "N",
        "ratio_s_over_sqrtq_logq",
        "theorem1_value", "theorem1_margin",
        "pomerance_value", "pomerance_margin",
    ]
    row = next(reader)
    assert int(row[0]) == 3
    assert float(row[10]) > 0  # theorem1 margin


def test_sweep_json_schema(tmp_path):
    path = tmp_path / "out.json"
    cfg = SweepConfig(
        q_min=3, q_max=12, output_format="json", output_path=str(path)
    )
    run_sweep(cfg)
    data = json.loads(path.read_text())
    assert data["schema"] == 1
    assert data["summary"]["violations"] == 0
    assert data["rows"][0]["q"] == 3
    assert "theorem1" in data["rows"][0]["bounds"]


def test_sweep_json_stream_matches_report(tmp_path):
    path = tmp_path / "out.json"
    cfg = SweepConfig(
        q_min=3, q_max=12, output_format="json", output_path=str(path), store_rows=True
    )
    report = run_sweep(cfg)
    got = json.loads(path.read_text())
    # tuples in the report become lists in JSON
    assert got["summary"] == json.loads(json.dumps(report.summary))
    assert got["rows"] == json.loads(
        json.dumps([harness._json_record(r, cfg.bounds) for r in report.rows])
    )
    assert len(got["rows"]) == got["summary"]["characters_checked"] > 0


def test_sweep_streams_atomically(tmp_path, capsys):
    path = tmp_path / "out.csv"
    run_sweep(SweepConfig(q_min=3, q_max=30, output_path=str(path)))
    assert path.exists()
    assert not (tmp_path / "out.csv.tmp").exists()
    run_sweep(SweepConfig(q_min=3, q_max=30, output_path="-"))
    assert path.read_bytes().decode() == capsys.readouterr().out


def test_sweep_temp_file_is_private_to_the_run(tmp_path):
    other = tmp_path / "out.csv.tmp"  # another run's partial output
    other.write_text("partial output of another run\n")
    path = tmp_path / "out.csv"
    run_sweep(SweepConfig(q_min=3, q_max=30, output_path=str(path)))
    assert other.read_text() == "partial output of another run\n"
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "out.csv.tmp"]
    umask = os.umask(0)
    os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask


def test_sweep_failure_removes_temp_file(tmp_path, monkeypatch):
    # the JSON summary is written after every row, just before the rename
    def failing_dump(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(harness.json, "dump", failing_dump)
    path = tmp_path / "out.json"
    cfg = SweepConfig(q_min=3, q_max=30, output_format="json", output_path=str(path))
    with pytest.raises(OSError, match="disk full"):
        run_sweep(cfg)
    assert os.listdir(tmp_path) == []


def test_sweep_failure_in_rows_removes_temp_file(tmp_path, monkeypatch):
    def failing_worker(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "_sweep_worker", failing_worker)
    path = tmp_path / "out.csv"
    with pytest.raises(KeyboardInterrupt):
        run_sweep(SweepConfig(q_min=3, q_max=30, output_path=str(path)))
    assert os.listdir(tmp_path) == []


def test_sweep_summary_aggregates():
    report = run_sweep(SweepConfig(q_min=3, q_max=100, store_rows=True))
    s = report.summary
    margins = [m for r in report.rows for m in (r.margins[0],)]
    assert s["worst_margin"]["theorem1"]["margin"] == min(margins)
    ratios = [r.ratio for r in report.rows]
    assert s["max_ratio"] == max(ratios)
    assert s["violations"] == sum(r.violated() for r in report.rows)
    assert s["max_s2t_deviation_even"] < 1e-9


def test_margin_violation_flagged_and_raises(monkeypatch):
    # a sabotaged bound must be flagged, not silently dropped
    real = bounds.evaluate_bound

    def sabotaged(name, q, parity):
        bv = real(name, q, parity)
        if name == "theorem1":
            return bounds.BoundValue(
                name=bv.name, q=bv.q, parity=bv.parity, quantity=bv.quantity,
                value=-1.0, main_term=-1.0, second_term=0.0, psi_term=0.0,
                as_printed=bv.as_printed, terms=(("main", -1.0),),
            )
        return bv

    monkeypatch.setattr(bounds, "evaluate_bound", sabotaged)
    report = run_sweep(SweepConfig(q_min=3, q_max=10))
    assert report.summary["violations"] == report.summary["characters_checked"] > 0
    assert report.summary["violation_rows"]


def test_gauss_check_range_small():
    count, worst = gauss_check_range(3, 80)
    expected = 0
    for q in range(3, 81):
        expected += sum(
            sympy.mobius(q // d) * sympy.totient(d) for d in sympy.divisors(q)
        )
    assert count == expected
    assert worst < 1e-8


def test_twist_check_range_small():
    count, worst = twist_check_range(3, 40, m_per_char=10)
    assert worst < 1e-8
    assert count > 0


def test_twist_worker_draws_by_full_enumeration_row(monkeypatch):
    """One generator per modulus, seeded by (seed, q): its row i holds the
    twists of the i-th primitive character in enumeration order, as a
    reference loop over the full enumeration draws them."""
    seed, m_per_char = 7, 5
    want = []
    for q in range(3, 41):
        prim = [chi for chi in enumerate_characters(q) if conductor(chi) == q]
        rng = np.random.default_rng(np.random.SeedSequence([seed, q]))
        draws = rng.integers(0, 10 * q, size=(len(prim), m_per_char))
        want += [(q, chi.label, row.tolist()) for chi, row in zip(prim, draws)]
    got = []
    real = harness._twist_draws

    def recording(seed, q, n, m_per_char):
        ms = real(seed, q, n, m_per_char)
        prim = [chi for chi in enumerate_characters(q) if chi.is_primitive]
        assert ms.shape == (n, m_per_char) == (len(prim), m_per_char)
        got.extend((q, chi.label, [int(m) for m in row]) for chi, row in zip(prim, ms))
        return ms

    monkeypatch.setattr(harness, "_twist_draws", recording)
    count, worst = twist_check_range(3, 40, m_per_char=m_per_char, seed=seed)
    assert got == want
    assert count == m_per_char * len(want)
    assert worst < 1e-8


def test_twist_check_range_same_at_any_worker_count():
    """The draws depend only on (seed, q), so (count, worst) is the same,
    to the bit, however the moduli are split among workers."""
    one = twist_check_range(3, 60, m_per_char=20, seed=5, workers=1)
    assert one[1] > 0  # a positive float equals another only bit for bit
    assert twist_check_range(3, 60, m_per_char=20, seed=5, workers=2) == one


@pytest.mark.parametrize("q", range(1, 61))
def test_twisted_sums_by_inverse_fft_at_every_m(q, monkeypatch):
    """q * ifft of a primitive value table is S(m) = sum_a chi(a) e(am/q) at
    m = 0..q-1: it equals conj(chi(m)) tau(chi) and the direct cos/sin sum
    of twist_discrepancies; the twist worker checks every m when its draws
    are all residues mod q."""
    chars = [chi for chi in enumerate_characters(q) if chi.is_primitive]
    taus = [gauss_sum(chi) for chi in chars]
    m = np.arange(q)
    roots = roots_of_unity(q)
    for chi, tau in zip(chars, taus):
        vals = chi.values()
        fft_sums = q * np.fft.ifft(vals)
        phases = roots[(chi.unit_residues[:, None] * m[None, :]) % q]
        unit_vals = vals[chi.unit_residues]
        direct = (
            unit_vals @ phases.real if chi.parity == "even"
            else 1j * (unit_vals @ phases.imag)
        )
        assert np.abs(fft_sums - np.conj(vals) * tau).max() < 1e-8 * math.sqrt(q)
        assert np.abs(fft_sums - direct).max() < 1e-12 * math.sqrt(q)
    monkeypatch.setattr(
        harness, "_twist_draws", lambda seed, q, n, m: np.tile(np.arange(q), (n, 1))
    )
    count, worst = harness._twist_worker((q, q, 0))
    assert count == q * len(chars)
    assert worst < 1e-8


@pytest.mark.parametrize("pos", [0, 254, 255, 256, 496])
def test_twist_worker_sees_every_character(pos, monkeypatch):
    """A wrong tau for any one primitive character mod 499 (two blocks of
    value tables: 256 and 241 characters) shows in the worst discrepancy."""
    real = harness.gauss_sum_table
    row = np.flatnonzero(primitive_mask(499))[pos]

    def one_wrong(q):
        taus = real(q).copy()
        taus[row] += math.sqrt(499)
        return taus

    monkeypatch.setattr(harness, "gauss_sum_table", one_wrong)
    count, worst = harness._twist_worker((499, 50, 11))
    assert count == 50 * 497
    assert worst > 0.5


@pytest.mark.parametrize(
    "check, args, message",
    [
        (gauss_check_range, (10, 5), r"need 1 <= q_min <= q_max, got \[10, 5\]"),
        (gauss_check_range, (0, 5), r"got \[0, 5\]"),
        (twist_check_range, (10, 5), r"got \[10, 5\] and 50"),
        (twist_check_range, (-2, 5), r"got \[-2, 5\] and 50"),
        (twist_check_range, (3, 10, 0), r"and m_per_char >= 1, got \[3, 10\] and 0"),
    ],
    ids=["gauss-reversed", "gauss-zero", "twist-reversed", "twist-negative", "twist-no-draws"],
)
def test_identity_checks_reject_empty_input(check, args, message):
    with pytest.raises(ValueError, match=message):
        check(*args)


def test_gauss_check_past_odd_crossover_in_bounded_memory():
    """A phi* x phi table at q = 27091 would take ~5.9 GB."""
    tracemalloc.start()
    try:
        count, worst = gauss_check_range(27091, 27091)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 27091 - 2
    assert worst < 1e-8
    assert peak < 64 * 2**20


def test_sweep_modulus_holds_no_table_per_character():
    """Characters carry labels, not tables: phi^2 * 8 bytes of exponent
    tables at q = 1999 would be 30.5 MiB, one table per computed character
    at a time is 16 KiB."""
    tracemalloc.start()
    try:
        rows = sweep_modulus(1999, ("even", "odd"), harness.DEFAULT_BOUNDS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 1997
    assert peak < 8 * 2**20


def test_identity_checks_independent_of_worker_count(monkeypatch):
    monkeypatch.delenv("PV_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # let workers=2 fork
    assert gauss_check_range(3, 60, workers=1) == gauss_check_range(3, 60, workers=2)
    assert twist_check_range(3, 60, workers=1) == twist_check_range(3, 60, workers=2)


def test_verify_all_small_passes():
    outcome = verify_all(sweep_cfg=SweepConfig(q_min=3, q_max=40, store_rows=False))
    assert outcome.passed
    names = [s.name for s in outcome.suites]
    assert names == [
        "sweep", "lemma1", "lemma2", "lemma3", "lemma4",
        "constant_derivation", "crossover",
    ]
    assert all(s.passed for s in outcome.suites)
    assert all(s.elapsed_s > 0.0 for s in outcome.suites)


def test_verify_all_raising_suite_keeps_error_and_time(monkeypatch):
    def boom():
        raise RuntimeError("boom")

    monkeypatch.setattr(kernel, "constant_derivation", boom)
    outcome = verify_all(suites=("constant_derivation",))
    (suite,) = outcome.suites
    assert not outcome.passed
    assert (suite.passed, suite.detail, suite.error) == (False, "raised", "RuntimeError: boom")
    assert suite.elapsed_s >= 0.0


def test_verify_all_empty_selection_warns():
    outcome = verify_all(suites=())
    assert outcome.passed
    assert outcome.warning is not None


def test_verify_all_unknown_suite():
    with pytest.raises(ValueError):
        verify_all(suites=("sweep", "nonsense"))


def test_verify_all_detects_perturbed_constant(monkeypatch):
    # injected fault: C0 off by -5 must fail the composite run
    monkeypatch.setattr(bounds, "c0", lambda: 4 * math.pi**2.5)
    outcome = verify_all(
        sweep_cfg=SweepConfig(q_min=3, q_max=10, store_rows=False),
        suites=("sweep", "lemma3", "lemma4", "constant_derivation"),
    )
    assert not outcome.passed
    failed = {s.name for s in outcome.suites if not s.passed}
    assert "constant_derivation" in failed
