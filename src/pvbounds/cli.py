"""Command-line interface for sweeps, bound tables, and verification runs."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import bounds, kernel, lemmas
from .characters import character_from_label, conductor
from .harness import DEFAULT_BOUNDS, SweepConfig, resolve_workers, run_sweep, verify_all


def _add_sweep(sub):
    p = sub.add_parser("sweep", help="exact sums vs bounds over a modulus range")
    p.add_argument("--q-min", type=int, default=3)
    p.add_argument("--q-max", type=int, default=2000)
    p.add_argument("--parity", choices=["even", "odd", "both"], default="both")
    p.add_argument(
        "--bounds",
        default=",".join(DEFAULT_BOUNDS),
        help=f"comma list from: {', '.join(bounds.bound_names())}",
    )
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default="-", help="output path, or - for stdout (default)")


def _input_error(exc) -> int:
    """Bad input: one error line and exit 2 (1 means a check failed)."""
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _check_out_dir(path) -> None:
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ValueError(f"output directory of {path} does not exist")


def _cmd_sweep(args) -> int:
    parities = ("even", "odd") if args.parity == "both" else (args.parity,)
    try:
        cfg = SweepConfig(
            q_min=args.q_min,
            q_max=args.q_max,
            parities=parities,
            bounds=tuple(args.bounds.split(",")),
            workers=args.workers,
            output_format=args.format,
            output_path=args.out,
        )
        resolve_workers(args.workers)  # PV_WORKERS must be an integer
        if args.out != "-":
            _check_out_dir(args.out)
    except ValueError as exc:
        return _input_error(exc)
    try:
        summary = run_sweep(cfg).summary
    except BrokenPipeError:  # the stdout reader left early, e.g. `| head`
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:  # point stdout there, so the flush at exit cannot raise again
            os.dup2(devnull, sys.stdout.fileno())
        except OSError:  # a stdout with no file descriptor
            pass
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a writer that died of it
    print(
        f"# checked {summary['characters_checked']} primitive characters in "
        f"[{cfg.q_min}, {cfg.q_max}]: {summary['violations']} violations, "
        f"max S/(sqrt(q) log q) = {summary['max_ratio']}",
        file=sys.stderr,
    )
    if summary["violations"]:
        for row in summary["violation_rows"]:
            print(f"# VIOLATION: {row}", file=sys.stderr)
        return 1
    return 0


def _cmd_bounds(args) -> int:
    parities = ("even", "odd") if args.parity == "both" else (args.parity,)
    cols = ["q", "parity", "bound_name", "quantity", "value", "main_term",
            "second_term", "psi_term", "as_printed"]
    try:
        rows = [
            [bv.q, bv.parity, bv.name, bv.quantity, bv.value, bv.main_term,
             bv.second_term, bv.psi_term, bv.as_printed]
            for parity in parities
            for bv in bounds.catalog_bounds(args.q, parity)
        ]
    except ValueError as exc:  # q below the catalog's range
        return _input_error(exc)
    if args.format == "json":
        json.dump([dict(zip(cols, row)) for row in rows], sys.stdout, indent=1)
        sys.stdout.write("\n")
    else:  # csv writes each float as repr() does
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(cols)
        w.writerows(rows)
    return 0


def _cmd_crossover(args) -> int:
    try:
        qstar = bounds.crossover(args.parity)
    except bounds.CrossoverNotFound as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    print(f"{args.parity} crossover: q* = {qstar}")
    print(
        "theorem1 < pomerance for every q >= q*: theorem1 - pomerance is "
        f"strictly decreasing from q0 = {bounds.decreasing_from(args.parity):.2f}"
    )
    return 0


def _cmd_kernel_check(args) -> int:
    if args.out:
        try:
            _check_out_dir(args.out)
        except ValueError as exc:
            return _input_error(exc)
    grid = kernel.default_grid(refine=2 if args.grid == "fine" else 1)
    result, values = kernel.lemma3_grid_check(grid)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["u", "P", "s_u_p", "g_p", "ratio"])
        for P, s, g in values:
            for u, sv, gv in zip(grid.u_points, s, g):
                w.writerow([repr(float(u)), repr(P), repr(float(sv)),
                            repr(float(gv)), repr(float(abs(sv) / gv))])
    finally:
        if args.out:
            out.close()
    summary = {
        "schema": 1,
        "worst_ratio": result.worst_ratio,
        "worst_u": result.worst_u,
        "worst_P": result.worst_P,
        "bound": result.bound,
        "margin": result.bound - result.worst_ratio,
        "n_points": result.n_points,
        "violations": len(result.violations),
    }
    print(json.dumps(summary, indent=1), file=sys.stderr)
    return 0 if not result.violations else 1


def _cmd_lemmas(args) -> int:
    if args.n_max < 1:
        return _input_error(f"--n-max must be at least 1, got {args.n_max}")
    cfg1 = lemmas.default_lemma1_config(n_max=args.n_max)
    cfg2 = lemmas.default_lemma2_config(n_max=args.n_max, seed=args.seed)
    r1 = lemmas.lemma1_check(cfg1)
    r2 = lemmas.lemma2_check(cfg2)
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(["lemma", "n", "params", "sum", "bound", "slack"])
    w.writerow(["sine_sum", r1.worst_n, repr(r1.worst_params[0]),
                repr(r1.bound - r1.min_slack), repr(r1.bound), repr(r1.min_slack)])
    w.writerow(["cosine_diff_sum", r2.worst_n,
                f"{r2.worst_params[0]!r};{r2.worst_params[1]!r}",
                repr(r2.bound - r2.min_slack), repr(r2.bound), repr(r2.min_slack)])
    ok = r1.min_slack > 0 and r2.min_slack > 0
    print(
        f"# min slacks {r1.min_slack:.6f} ({r1.n_checked} checks), "
        f"{r2.min_slack:.6f} ({r2.n_checked} checks, seed {r2.seed})",
        file=sys.stderr,
    )
    return 0 if ok else 1


def _cmd_char_info(args) -> int:
    label = [t for t in args.label.replace(".", ",").split(",") if t != ""]
    try:
        chi = character_from_label(args.q, label)
    except ValueError as exc:  # not an integer, the wrong length or out of range
        return _input_error(exc)
    info = chi.to_json_dict()
    info["primitive"] = chi.is_primitive
    info["principal"] = chi.is_principal
    info["conductor_check"] = conductor(chi)
    json.dump(info, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


def _cmd_verify_all(args) -> int:
    try:
        cfg = SweepConfig(q_min=args.q_min, q_max=args.q_max, workers=args.workers)
        resolve_workers(args.workers)  # PV_WORKERS must be an integer
    except ValueError as exc:
        return _input_error(exc)
    outcome = verify_all(sweep_cfg=cfg)
    if outcome.warning:
        print(f"WARNING: {outcome.warning}", file=sys.stderr)
    for suite in outcome.suites:
        status = "PASS" if suite.passed else "FAIL"
        line = f"[{status}] {suite.name}: {suite.detail}"
        if suite.error:
            line += f" ({suite.error})"
        print(f"{line} [{suite.elapsed_s:.2f} s]")
    print(f"total {sum(s.elapsed_s for s in outcome.suites):.2f} s")
    return 0 if outcome.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvbounds",
        description="Exact Dirichlet character-sum extremes vs explicit bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_sweep(sub)

    p = sub.add_parser("bounds", help="evaluate every cataloged bound at one q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--parity", choices=["even", "odd", "both"], default="both")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("crossover", help="locate where theorem1 undercuts pomerance")
    p.add_argument("--parity", choices=["even", "odd"], required=True)

    p = sub.add_parser("kernel-check", help="ratio sweep of |S(u;P)| / G_P(u)")
    p.add_argument("--grid", choices=["default", "fine"], default="default")
    p.add_argument("--out", default=None, help="CSV path (stdout if omitted)")

    p = sub.add_parser("lemmas", help="slack sweeps for the two sum inequalities")
    p.add_argument("--n-max", type=int, default=500)
    p.add_argument("--seed", type=int, default=lemmas.DEFAULT_SEED)

    p = sub.add_parser("char-info", help="metadata for one character")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--label", required=True, help="comma- or dot-separated exponents")

    p = sub.add_parser("verify-all", help="composite verification, exit 0 iff all pass")
    p.add_argument("--q-min", type=int, default=3)
    p.add_argument("--q-max", type=int, default=2000)
    p.add_argument("--workers", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "sweep": _cmd_sweep,
        "bounds": _cmd_bounds,
        "crossover": _cmd_crossover,
        "kernel-check": _cmd_kernel_check,
        "lemmas": _cmd_lemmas,
        "char-info": _cmd_char_info,
        "verify-all": _cmd_verify_all,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
