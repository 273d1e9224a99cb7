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
                        compute_exponents, law_row)

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
    except InvalidParams as exc:
        raise _Failure(EXIT_CONFIG, f"bad config: {exc}") from None


def _make_out(path):
    """The --out directory, created before any simulation runs."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _Failure(EXIT_CONFIG, f"cannot create --out: {exc}") from None
    return out


def _exponent_table(params):
    """The exponents that apply at params, by name, in ExponentSet order:
    A_support and B_l1 only in the intermediate regime."""
    return {name: value for name, value in
            dataclasses.asdict(compute_exponents(params)).items() if value is not None}


def cmd_exponents(args):
    try:
        params = ProblemParams(args.p, args.q, args.N)
    except InvalidParams as exc:
        raise _Failure(EXIT_CONFIG, str(exc)) from None
    print(f"p={params.p} q={params.q} N={params.N}")
    for name, value in _exponent_table(params).items():
        print(f"  {name:10s} = {value:.12g}")
    print(f"  regime     = {classify_regime(params).value}")
    return EXIT_OK


def _execute_run(config, out_dir, label):
    start = time.perf_counter()
    _, series = solver.run(config)
    return _report(config, series, out_dir, label, time.perf_counter() - start)


def _report(config, series, out_dir, label, wall):
    """Write a finished run's series and return its report and verdicts."""
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
        "regime": law_row(params, fit.absorbing(series)).value,
        "exponents": _exponent_table(params),
        "mass_balance_residual": observe.mass_balance_residual(series),
        "verdicts": [v.as_dict() for v in verdicts],
        "verdict_error": verdict_error,
        "series": str(series_path),
        "wall_seconds": round(wall, 3),
    }
    return report, verdicts


def cmd_run(args):
    config = _load_config(args.config)
    out = _make_out(args.out)
    try:
        report, verdicts = _execute_run(config, out, "series")
    except solver.NumericalError as exc:
        raise _Failure(EXIT_NUMERICAL, f"numerical failure: {exc}") from None
    print(json.dumps(report, indent=2))
    if any(not v.passed for v in verdicts):
        return EXIT_VERDICT
    return EXIT_OK


def _cell_label(p, q):
    return f"p{p:g}_q{q:g}"


def _cell_configs(args):
    """One run config per (p, q) cell, in sorted order: the base config, or
    h = 0.01, L = 8, t_end = 16, at (p, q).  A bad axis, two cells of one
    output name or a cell whose config no run can start from exits 2."""
    try:
        ps = [float(x) for x in args.p.split(",")]
        qs = [float(x) for x in args.q.split(",")]
    except ValueError as exc:
        raise _Failure(EXIT_CONFIG, f"bad sweep axis: {exc}") from None
    cells = [(p, q) for p in ps for q in qs]
    labels = [_cell_label(p, q) for p, q in cells]
    shared = [label for label in labels if labels.count(label) > 1]
    if shared:
        raise _Failure(EXIT_CONFIG, f"sweep cells share the output name {shared[0]}")
    base = _load_config(args.config) if args.config else None
    configs = []
    for p, q in sorted(cells):
        try:
            configs.append(
                dataclasses.replace(base, p=p, q=q) if base else
                solver.RunConfig(p, q, h=0.01, L=8.0, t_end=16.0))
        except InvalidParams as exc:
            raise _Failure(EXIT_CONFIG, f"cell ({p}, {q}): {exc}") from None
    return configs


def _sweep_batch(job):
    """Worker: run one batch of cells as the columns of one array
    (solver.run_batch) and return their summary rows.  A cell's wall time
    is an even share of the batch's solver time."""
    configs, out = job
    start = time.perf_counter()
    outcomes = solver.run_batch(configs)
    wall = (time.perf_counter() - start) / len(configs)
    return [_sweep_cell(config, outcome, Path(out), wall)
            for config, outcome in zip(configs, outcomes)]


def _sweep_cell(config, outcome, out, wall):
    """The summary row of one cell's run_batch outcome; a numerical or
    configuration failure is recorded in the row, any other fault raises."""
    try:
        if isinstance(outcome, Exception):
            raise outcome
        report, verdicts = _report(config, outcome[1], out, _cell_label(config.p, config.q),
                                   wall)
    except (solver.NumericalError, InvalidParams) as exc:
        return {"p": config.p, "q": config.q, "regime": "",
                "status": f"error: {type(exc).__name__}: {exc}",
                "passes": "", "report": None}
    passes = sum(v.passed for v in verdicts)
    return {"p": config.p, "q": config.q, "regime": report["regime"],
            "status": "ok", "passes": f"{passes}/{len(verdicts)}", "report": report}


def cmd_sweep(args):
    if args.workers < 1:
        raise _Failure(EXIT_CONFIG, f"--workers must be at least 1, got {args.workers}")
    configs = _cell_configs(args)
    out = _make_out(args.out)
    workers = min(args.workers, len(configs))    # no idle pool workers
    # the sorted cells, dealt round-robin into one batch per worker
    jobs = [(configs[i::workers], str(out)) for i in range(workers)]
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            batches = pool.map(_sweep_batch, jobs)
    else:
        batches = [_sweep_batch(job) for job in jobs]
    rows = sorted((row for batch in batches for row in batch),
                  key=lambda row: (row["p"], row["q"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["p", "q", "regime", "status", "passes"])
    for row in rows:
        writer.writerow([f"{row['p']:g}", f"{row['q']:g}", row["regime"],
                         row["status"], row["passes"]])
        if row["report"] is not None:
            path = out / f"{_cell_label(row['p'], row['q'])}.report.json"
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
    for v in verdicts:
        print(json.dumps(v.as_dict()))
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
    names = list(acceptance.AcceptanceLab.CRITERIA)
    only = names if args.only is None else args.only.split(",")
    unknown = set(only) - set(names)
    if unknown:
        raise _Failure(EXIT_CONFIG, f"unknown criteria: {sorted(unknown)}")
    lab = acceptance.AcceptanceLab()
    names, passed = [n for n in names if n in only], 0
    for name in names:
        res = lab.run_criterion(name)
        print(res.line(), flush=True)     # as soon as the criterion finishes
        passed += res.passed
    print(f"{passed}/{len(names)} criteria passed")
    return EXIT_OK if passed == len(names) else EXIT_VERDICT


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
    sp.add_argument("--config", default=None, help="base run config")
    sp.add_argument("--workers", type=int, default=1,
                    help="pool processes; the sorted cells are dealt round-robin "
                         "into one batch per process, stepped as the columns of one "
                         "array (default 1: one batch in this process)")
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
