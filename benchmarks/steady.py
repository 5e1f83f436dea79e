"""Repeat every workload with distinct seeds and report how steady it is.

    python3 benchmarks/steady.py                       # seeds 1..10 per workload
    python3 benchmarks/steady.py --runs 5 --workloads large-q
    python3 benchmarks/steady.py --baseline benchmarks/out/steady-<stamp>.json

Reads the command, run length, workloads and bounds from BENCHMARK.json,
runs each workload untraced once per seed 1..runs (sequentially), and
prints per metric the median, quartiles and spread (Q3 - Q1) / median. A
spread above a third of the metric's bound is flagged; above the bound the
command exits 1, as it does when a run is incorrect, exits nonzero, or
the share of failed operations differs between runs. With --baseline it
also prints each median's shift against an earlier steady record and exits 1
when a median is worse than it by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def run_once(spec, workload, seed) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def summarize(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"), "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=None, help="comma list; default all")
    p.add_argument("--baseline", default=None, help="earlier steady record to compare medians")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else None

    ok = True
    record = {"runs": args.runs, "workloads": {}}
    for wl in names:
        results = [run_once(spec, wl, seed) for seed in range(1, args.runs + 1)]
        shares = {r["failed"] / r["attempted"] for r in results}
        incorrect = sum(not r["correct"] for r in results)
        metrics = {k: summarize([r["metrics"][k]["value"] for r in results])
                   for k in results[0]["metrics"]}
        record["workloads"][wl] = {
            "metrics": metrics, "failed_shares": sorted(shares), "incorrect_runs": incorrect,
            "elapsed_s": [r["elapsed_s"] for r in results],
        }
        print(f"== {wl}: {args.runs} runs, {incorrect} incorrect, failed shares {sorted(shares)}, "
              f"max run {max(r['elapsed_s'] for r in results):.1f} s")
        ok &= incorrect == 0 and len(shares) == 1
        for k, s in metrics.items():
            line = f"  {k:40s} median {s['median']:.6g}  IQR/median {s['spread']:.4f}"
            b = bounds.get(k)
            if b is not None:
                line += f"  bound {b['bound']}"
                if s["spread"] > b["bound"] / 3:
                    line += "  ABOVE BOUND/3"
                if s["spread"] > b["bound"]:
                    line += "  ABOVE BOUND"
                    ok = False
                if baseline and wl in baseline["workloads"]:
                    old = baseline["workloads"][wl]["metrics"][k]["median"]
                    worse = (s["median"] - old) / old
                    if b["better"] == "higher":
                        worse = -worse
                    line += f"  worse than baseline by {worse:+.4f}"
                    if worse > b["bound"]:
                        line += "  REGRESSION"
                        ok = False
            print(line)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"record: {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
