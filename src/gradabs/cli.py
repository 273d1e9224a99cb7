"""Command-line surface: exponent tables, single runs, parallel (p, q)
sweeps, series fitting, the proof-machinery battery, and the acceptance
suite.

Exit codes: 0 ok, 2 configuration error, 3 numerical failure (for a sweep:
any cell failed), 4 verdict or criterion failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import multiprocessing
import sys
import time
from pathlib import Path

from . import acceptance, bernstein, fit, observe, solver
from .exponents import (InvalidParams, ProblemParams, classify_regime,
                        compute_exponents)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERDICT = 4


class _Failure(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _Failure(EXIT_CONFIG, f"cannot read config: {exc}") from None
    try:
        return solver.parse_config(text)
    except solver.ConfigError as exc:
        raise _Failure(EXIT_CONFIG, f"bad config: {exc}") from None


def cmd_exponents(args):
    try:
        params = ProblemParams(args.p, args.q, args.N)
    except InvalidParams as exc:
        raise _Failure(EXIT_CONFIG, str(exc)) from None
    ex = compute_exponents(params)
    regime = classify_regime(params)
    print(f"p={params.p} q={params.q} N={params.N}")
    for name in ("alpha_p", "beta_pq", "q_star", "xi", "eta", "gamma_max"):
        print(f"  {name:10s} = {getattr(ex, name):.12g}")
    if ex.A_support is not None:
        print(f"  {'A_support':10s} = {ex.A_support:.12g}")
        print(f"  {'B_l1':10s} = {ex.B_l1:.12g}")
    print(f"  regime     = {regime.value}")
    return EXIT_OK


def _execute_run(config, out_dir, label):
    start = time.perf_counter()
    state, series = solver.run(config)
    wall = time.perf_counter() - start
    out_dir.mkdir(parents=True, exist_ok=True)
    series_path = out_dir / f"{label}.csv"
    series_path.write_text(series.to_csv())
    params = config.params()
    try:
        verdicts = fit.verdict(params, series, h=config.h)
        verdict_error = None
    except fit.FitError as exc:
        verdicts, verdict_error = [], str(exc)
    report = {
        "params": {"p": params.p, "q": params.q, "N": params.N,
                   "eps": params.eps, "gamma": params.gamma},
        "regime": classify_regime(params).value,
        "exponents": {k: v for k, v in
                      dataclasses.asdict(compute_exponents(params)).items()
                      if v is not None},
        "mass_balance_residual": observe.mass_balance_residual(series),
        "verdicts": [json.loads(v.to_json()) for v in verdicts],
        "verdict_error": verdict_error,
        "series": str(series_path),
        "wall_seconds": round(wall, 3),
    }
    return report, verdicts


def cmd_run(args):
    config = _load_config(args.config)
    try:
        report, verdicts = _execute_run(config, Path(args.out), "series")
    except (solver.SupportOverflowError, solver.FloorViolationError,
            solver.NumericalError) as exc:
        raise _Failure(EXIT_NUMERICAL, f"numerical failure: {exc}") from None
    print(json.dumps(report, indent=2))
    if any(not v.passed for v in verdicts):
        return EXIT_VERDICT
    return EXIT_OK


def _parse_cells(args):
    try:
        ps = [float(x) for x in args.p.split(",")]
        qs = [float(x) for x in args.q.split(",")]
    except ValueError as exc:
        raise _Failure(EXIT_CONFIG, f"bad sweep axis: {exc}") from None
    cells = [(p, q) for p in ps for q in qs]
    if len(set(cells)) != len(cells):
        raise _Failure(EXIT_CONFIG, "duplicate sweep cells")
    for p, q in cells:
        try:
            ProblemParams(p, q, args.N)
        except InvalidParams as exc:
            raise _Failure(EXIT_CONFIG, f"cell ({p}, {q}): {exc}") from None
    return sorted(cells)


def _sweep_cell(job):
    """Worker: run one (p, q) cell; never raises (failures are recorded)."""
    config, out, label = job
    try:
        report, verdicts = _execute_run(config, Path(out), label)
        passes = sum(v.passed for v in verdicts)
        row = {"p": config.p, "q": config.q, "regime": report["regime"],
               "status": "ok", "passes": f"{passes}/{len(verdicts)}",
               "report": report}
    except Exception as exc:
        row = {"p": config.p, "q": config.q, "regime": "",
               "status": f"error: {type(exc).__name__}: {exc}",
               "passes": "", "report": None}
    return row


def cmd_sweep(args):
    cells = _parse_cells(args)
    base = _load_config(args.config) if args.config else solver.RunConfig(
        3.0, 2.0, args.N, h=0.01, L=8.0, t_end=16.0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    jobs = []
    for p, q in cells:
        config = dataclasses.replace(base, p=p, q=q, N=args.N)
        jobs.append((config, str(out), f"p{p:g}_q{q:g}"))
    if args.workers > 1:
        with multiprocessing.Pool(args.workers) as pool:
            rows = pool.map(_sweep_cell, jobs)
    else:
        rows = [_sweep_cell(job) for job in jobs]
    rows.sort(key=lambda r: (r["p"], r["q"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["p", "q", "regime", "status", "passes"])
    for row in rows:
        writer.writerow([f"{row['p']:g}", f"{row['q']:g}", row["regime"],
                         row["status"], row["passes"]])
        if row["report"] is not None:
            path = out / f"p{row['p']:g}_q{row['q']:g}.report.json"
            path.write_text(json.dumps(row["report"], indent=2))
    (out / "summary.csv").write_text(buf.getvalue())
    print(buf.getvalue(), end="")
    if any(row["status"] != "ok" for row in rows):
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_fit(args):
    try:
        series = observe.TimeSeries.from_csv(Path(args.series).read_text())
        params = ProblemParams(args.p, args.q, args.N)
    except (OSError, InvalidParams) as exc:
        raise _Failure(EXIT_CONFIG, str(exc)) from None
    try:
        verdicts = fit.verdict(params, series)
    except fit.FitError as exc:
        raise _Failure(EXIT_CONFIG, str(exc)) from None
    sys.stdout.write(fit.verdicts_to_json(verdicts))
    return EXIT_VERDICT if any(not v.passed for v in verdicts) else EXIT_OK


def cmd_bernstein_check(args):
    ok = True
    for rep in bernstein.standard_scans():
        print(json.dumps({"name": rep.name, "grid": rep.grid_desc,
                          "worst_margin": rep.worst_margin,
                          "pass": rep.passed,
                          "worst_point": list(rep.worst_point)}))
        ok &= rep.passed
    return EXIT_OK if ok else EXIT_VERDICT


def cmd_verify(args):
    only = set(args.only.split(",")) if args.only else None
    if only:
        unknown = only - set(acceptance.AcceptanceLab.CRITERIA)
        if unknown:
            raise _Failure(EXIT_CONFIG, f"unknown criteria: {sorted(unknown)}")
    lab = acceptance.AcceptanceLab()
    results = lab.run_all(only)
    for res in results:
        print(res.line(), flush=True)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_OK if not failed else EXIT_VERDICT


def build_parser():
    parser = argparse.ArgumentParser(prog="gradabs")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("exponents", help="print exponent table and regime")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--N", type=int, default=1)
    sp.set_defaults(func=cmd_exponents)

    sp = sub.add_parser("run", help="single simulation from a config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default="out")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("sweep", help="parallel (p, q) sweep")
    sp.add_argument("--p", required=True, help="comma-separated p values")
    sp.add_argument("--q", required=True, help="comma-separated q values")
    sp.add_argument("--N", type=int, default=1)
    sp.add_argument("--config", default=None, help="base run config")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--out", default="sweep")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("fit", help="fit laws to a recorded series")
    sp.add_argument("--series", required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--N", type=int, default=1)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("bernstein-check", help="proof-machinery scans")
    sp.set_defaults(func=cmd_bernstein_check)

    sp = sub.add_parser("verify", help="run the acceptance battery")
    sp.add_argument("--only", default=None,
                    help="comma-separated criterion names")
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
