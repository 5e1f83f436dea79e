"""pvbounds benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload desk-sweep --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload until the timed work reaches --seconds,
checks every output against references computed apart from the program,
writes a run record under benchmarks/out/, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced rounds and
reports the per-layer metrics with the tracing overhead. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 21
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BANDS = ("q2e3", "q1e4", "q3e4", "q1e5")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "pass1_per_s": "1/s",
    "pass2_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "characters.enumerate_ms_per_char": "ms",
    **{f"characters.from_label_ms_per_char.{b}": "ms" for b in BANDS},
    **{f"charsums.{k}_ms_per_char.{b}": "ms" for k in ("walk", "diameter", "initial") for b in BANDS},
    "harness.self_ms_per_char": "ms",
    "harness.parallel_efficiency": "ratio",
    "harness.diameter_calls_per_char": "count",
    "harness.gauss_self_ms_per_char": "ms",
    "harness.twist_self_ms_per_check": "ms",
    "bounds.evaluate_us_per_call": "us",
    "bounds.evaluate_calls_per_char": "count",
    "bounds.crossover_ms": "ms",
    "kernel.lemma3_ms": "ms",
    "kernel.lemma4_ms": "ms",
    "kernel.constant_derivation_ms": "ms",
    "lemmas.lemma1_ms": "ms",
    "lemmas.lemma2_ms": "ms",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("desk-sweep", "large-q", "identities"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def setup_probe(args) -> float:
    """Interpreter start through import pvbounds and seeded input
    generation, timed in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


def peak_rss_mib() -> float:
    """Largest peak RSS so far of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def quartiles(xs) -> dict:
    xs = list(xs)
    out = {"n": len(xs), "median": statistics.median(xs)}
    if len(xs) >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
        out.update(q1=q1, q3=q3)
    return out


def rate(units: int, seconds: float) -> float:
    return units / seconds if seconds > 0 else 0.0


def layer_metrics(wl, tracer, untraced, traced, n_workers) -> dict:
    """Per-layer metrics from the spans of the traced rounds; a layer the
    workload does not call reads 0."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    ms = 1e3
    n_rounds = len(traced)
    if wl.name == "desk-sweep":
        chars = sum(r.pass_units[0] for r in traced)
        m["characters.enumerate_ms_per_char"] = ms * tracer.total_s("characters.enumerate", "round") / chars
        m["harness.self_ms_per_char"] = ms * tracer.self_s("harness.", "round") / chars
        serial = statistics.median(rate(r.pass_units[0], r.pass_s[0]) for r in untraced)
        parallel = statistics.median(rate(r.pass_units[1], r.pass_s[1]) for r in untraced)
        m["harness.parallel_efficiency"] = parallel / (n_workers * serial)
        m["harness.diameter_calls_per_char"] = tracer.count("charsums.diameter", "round") / chars
        for k in ("walk", "diameter", "initial"):
            m[f"charsums.{k}_ms_per_char.q2e3"] = ms * tracer.total_s(f"charsums.{k}", "round") / chars
        m["characters.from_label_ms_per_char.q2e3"] = (
            ms * tracer.total_s("characters.from_label", "check")
            / tracer.count("characters.from_label", "check"))
    elif wl.name == "large-q":
        chars = tracer.count("characters.from_label", "round")
        for b in BANDS[1:]:
            n = tracer.count("characters.from_label", "round", b)
            m[f"characters.from_label_ms_per_char.{b}"] = ms * tracer.total_s(
                "characters.from_label", "round", b) / n
            for k in ("walk", "diameter", "initial"):
                m[f"charsums.{k}_ms_per_char.{b}"] = ms * tracer.total_s(f"charsums.{k}", "round", b) / n
    else:
        gauss = sum(r.pass_units[0] for r in traced)
        checks = sum(r.pass_units[1] for r in traced)
        chars = gauss + checks // wl.TWISTS
        m["characters.enumerate_ms_per_char"] = ms * tracer.total_s("characters.enumerate", "round") / chars
        m["harness.gauss_self_ms_per_char"] = ms * tracer.self_s("harness.gauss_check_range", "round") / gauss
        m["harness.twist_self_ms_per_check"] = ms * tracer.self_s("harness.twist_check_range", "round") / checks
        for name, span in (("kernel.lemma3_ms", "kernel.lemma3"), ("kernel.lemma4_ms", "kernel.lemma4"),
                           ("kernel.constant_derivation_ms", "kernel.constant_derivation"),
                           ("lemmas.lemma1_ms", "lemmas.lemma1"), ("lemmas.lemma2_ms", "lemmas.lemma2"),
                           ("bounds.crossover_ms", "bounds.crossover")):
            m[name] = ms * tracer.total_s(span, "round") / n_rounds
    evals = tracer.count("bounds.evaluate", "round")
    if evals:
        m["bounds.evaluate_us_per_call"] = 1e6 * tracer.total_s("bounds.evaluate", "round") / evals
        m["bounds.evaluate_calls_per_char"] = evals / chars
    # desk-sweep traces only its workers=1 pass, so compare that pass alone
    same_work = (lambda r: r.pass_s[0]) if wl.name == "desk-sweep" else (lambda r: r.wall_s)
    m["trace.overhead_s"] = (statistics.median(map(same_work, traced))
                             - statistics.median(map(same_work, untraced)))
    return m


def machine_facts() -> dict:
    import numpy as np

    def first(path, key):
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "mem_total": first("/proc/meminfo", "MemTotal"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the env setting."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def round_record(r) -> dict:
    return {"wall_s": r.wall_s, "pass_s": r.pass_s, "pass_units": r.pass_units,
            "other_s": r.other_s, "ops": r.ops, "failed": r.failed}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pvbounds" / "__init__.py").is_file():
        print(f"error: pvbounds sources not found under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread per process: workers x BLAS threads stays <= nproc
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ.pop("PV_WORKERS", None)  # would override the worker counts
    sys.path.insert(0, str(SRC))

    import pvbounds

    if not Path(pvbounds.__file__).resolve().is_relative_to(SRC):
        print(f"error: pvbounds imported from {pvbounds.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    n_workers = nproc()
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed, n_workers, OUT)
        print("ready", flush=True)
        return 0

    setup: list[float] = []
    wl = workloads.WORKLOADS[args.workload](args.seed, n_workers, OUT)
    tracer = Tracer() if args.trace else None
    untraced, traced, problems = [], [], []

    def check(rnd):
        """Check a round's outputs, then drop them: kept, they would pile up
        in this process and count towards peak_rss_mib."""
        if tracer is not None:
            tracer.section = "check"
            tracer.install()
        try:
            workloads.cold()  # rebuilt from cold like the timed calls, for from_label q2e3
            return wl.check(rnd)
        finally:
            rnd.outputs = []
            if tracer is not None:
                tracer.uninstall()

    # set-up probes are spread over the run, so that one run's median does
    # not rest on a single moment of the machine's speed
    probes = 0 if args.trace else SETUP_REPEATS
    measured = 0.0
    while measured < args.seconds:
        rnd = wl.run_round()
        untraced.append(rnd)
        measured += rnd.wall_s
        # the high-water mark up to the end of the last timed work; the
        # checks of the last round come after it
        rss_timed = peak_rss_mib()
        problems += check(rnd)
        if len(setup) < probes and measured >= len(setup) * args.seconds / probes:
            setup.append(setup_probe(args))
        if tracer is not None:
            tracer.section = "round"
            tracer.install()
            try:
                rnd = wl.run_round(serial_only=True)
            finally:
                tracer.uninstall()
            traced.append(rnd)
            measured += rnd.wall_s
            problems += check(rnd)

    while len(setup) < probes:
        setup.append(setup_probe(args))
    rounds = untraced + traced
    if tracer is not None:
        tracer.require(wl.traced_spans, "round")
        if wl.name == "desk-sweep":
            tracer.require(("characters.from_label",), "check")
        metrics = layer_metrics(wl, tracer, untraced, traced, n_workers)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r.wall_s for r in untraced),
            "pass1_per_s": statistics.median(rate(r.pass_units[0], r.pass_s[0]) for r in untraced),
            "pass2_per_s": statistics.median(rate(r.pass_units[1], r.pass_s[1]) for r in untraced),
            "peak_rss_mib": rss_timed,
        }
        units = END_TO_END
    result = {
        "correct": not problems,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    record = {
        "args": vars(args),
        "machine": machine_facts(),
        "setup_samples_s": setup,
        "peak_rss_mib_timed": rss_timed,
        "peak_rss_mib_with_checks": peak_rss_mib(),
        "rounds": [round_record(r) for r in untraced],
        "traced_rounds": [round_record(r) for r in traced],
        "summary": {
            "wall_s": quartiles(r.wall_s for r in untraced),
            "pass1_per_s": quartiles(rate(r.pass_units[0], r.pass_s[0]) for r in untraced),
            "pass2_per_s": quartiles(rate(r.pass_units[1], r.pass_s[1]) for r in untraced),
            **({"setup_s": quartiles(setup)} if setup else {}),
        },
        "spans": tracer.summary() if tracer is not None else None,
        "problems": problems[:100],
        "result": result,
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.dump(OUT / f"{stem}-spans.json")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
