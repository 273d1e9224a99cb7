"""The four benchmark workloads: their fixed inputs, one operation each,
and the checks applied to every operation's output.

Every physical input is a constant in this file.  The seed only permutes
the order in which the sweep axes are written on the command line, which
the program sorts away; it never changes what is computed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import re
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gradabs import cli, model, observe, solver

MASS_RESIDUAL_MAX = 1e-10
BB_SUP_ERR_MAX = 0.02
VIOLATION_MAX = 1e-12

# Absorption-dominated decay (p=3, q=1.6): the acceptance run "q16" cut to
# t_end = 1 so that one operation takes about 2 s.  Records: t = 0 plus the
# 17 quarter-octave times 1/16 ... 1.
DECAY_CONFIG = """\
p = 3
q = 1.6
N = 1
geometry = radial
h = 0.01
L = 6
t_end = 1
"""
DECAY_RECORDS = 18

# Pure diffusion from the Barenblatt profile at t0 = 1 on the finest
# acceptance grid.  Records: t = 1 and t = 1.05.
BARENBLATT_CONFIG = """\
p = 3
q = 2
N = 1
geometry = radial
h = 0.0025
L = 6
t_end = 1.05
profile = barenblatt:t0=1
absorption = off
record_start = 1
"""
BARENBLATT_RECORDS = 2

# Base config of the (p, q) sweep.  Records: t = 0 plus 1/16 ... 1/2.
SWEEP_CONFIG = """\
p = 3
q = 2
N = 1
geometry = radial
h = 0.01
L = 8
t_end = 0.5
"""
SWEEP_RECORDS = 14
SWEEP_P = ("3", "3.5", "4", "5")
SWEEP_Q = ("1.2", "1.5", "2", "3")
SWEEP_WORKERS = 2

# Ordered bumps H = 1 <= H = 1.5 advanced in lockstep on the full grid.
LOCKSTEP_CONFIG = """\
p = 3
q = 2
N = 1
geometry = radial
h = 0.01
L = 6
t_end = 0.1
"""
LOCKSTEP_LOW = model.Bump(R0=1.0, H=1.0, m=2.0)
LOCKSTEP_HIGH = model.Bump(R0=1.0, H=1.5, m=2.0)

# Short Barenblatt run that defines bb_sup_err on the workloads that have
# no exact solution of their own; it runs after the timed region.
BB_PROBE_CONFIG = BARENBLATT_CONFIG.replace("h = 0.0025", "h = 0.01")


@dataclass
class OpResult:
    """What one operation produced: operations attempted inside it (one,
    or one per sweep cell), those that raised or failed a check, and the
    output facts recorded as fingerprints."""

    attempted: int = 0
    failed: int = 0
    bad_output: list = field(default_factory=list)   # failed output checks
    errors: list = field(default_factory=list)       # exception type names
    info: dict = field(default_factory=dict)

    def check(self, ok, what):
        if not ok:
            self.bad_output.append(what)
        return ok


def bb_sup_error(config, state):
    """Relative sup error, against the exact peak t^(-N eta), of a pure
    diffusion run from the Barenblatt profile.  The closed form of the
    source solution of d_t u = div(|grad u|^{p-2} grad u) is written out
    here so that the check does not trust the program's copy."""
    p, N, t = config.p, config.N, config.t_end
    eta = 1.0 / (N * (p - 2.0) + p)
    gam = ((p - 2.0) / p) * eta ** (1.0 / (p - 1.0))
    r = state.grid.centers()
    core = np.maximum(1.0 - gam * (r * t ** -eta) ** (p / (p - 1.0)), 0.0)
    peak = t ** (-N * eta)
    exact = peak * core ** ((p - 1.0) / (p - 2.0))
    return float(np.max(np.abs(state.values - state.floor - exact))) / peak


def check_run(res, state, series, records):
    """Checks shared by every solver.run: finite field, record count and
    the mass ledger."""
    ok = res.check(bool(np.all(np.isfinite(state.values))), "non-finite final field")
    ok &= res.check(len(series) == records, f"{len(series)} records, expected {records}")
    resid = observe.mass_balance_residual(series)
    ok &= res.check(resid <= MASS_RESIDUAL_MAX, f"mass residual {resid:.3e}")
    return ok


def check_series_csv(res, path, records):
    """A written series must have the expected rows, all finite."""
    rows = list(csv.reader(path.read_text().splitlines()))[1:]
    finite = all(math.isfinite(float(x)) for row in rows for x in row)
    ok = res.check(len(rows) == records, f"{path.name}: {len(rows)} rows, expected {records}")
    return ok & res.check(finite, f"{path.name}: non-finite value")


@contextlib.contextmanager
def capturing(owner, attr, sink):
    """Temporarily replace owner.attr so each call's result, or the
    exception it raised, is appended to sink.  One call per operation,
    so the cost is negligible in untraced timing."""
    original = getattr(owner, attr)

    def capture(*args, **kwargs):
        try:
            out = original(*args, **kwargs)
        except Exception as exc:
            sink.append(exc)
            raise
        sink.append(out)
        return out

    setattr(owner, attr, capture)
    try:
        yield sink
    finally:
        setattr(owner, attr, original)


def _timed(fn):
    """(seconds, result, NumericalError or None) of one program call."""
    start = time.perf_counter()
    try:
        out, exc = fn(), None
    except solver.NumericalError as err:
        out, exc = None, err
    return time.perf_counter() - start, out, exc


def _raised(res, exc):
    res.failed = 1
    res.errors.append(type(exc).__name__)


class Workload:
    """One operation per repetition.  run_op returns (seconds, OpResult);
    only the program call is inside the timed interval."""

    name = ""
    config_text = ""
    via_cli = False       # the operation goes through cli.main
    pooled = False        # the operation uses the process pool

    def __init__(self, tmp: Path, seed: int):
        self.tmp = tmp
        self.seed = seed
        self.config = solver.parse_config(self.config_text)
        self.config_path = tmp / f"{self.name}.cfg"
        self.config_path.write_text(self.config_text)
        self.reps = 0

    def out_dir(self):
        self.reps += 1
        return self.tmp / f"out{self.reps}"

    def bb_sup_err(self, results):
        """bb_sup_err for workloads without an exact solution: the short
        Barenblatt probe, run untimed."""
        config = solver.parse_config(BB_PROBE_CONFIG)
        state, _ = solver.run(config)
        return bb_sup_error(config, state)


class DecayNarrow(Workload):
    """`gradabs run` on an absorption-dominated decay."""

    name = "decay-narrow"
    config_text = DECAY_CONFIG
    via_cli = True

    def run_op(self):
        out = self.out_dir()
        buf = io.StringIO()
        res = OpResult(attempted=1)
        with capturing(solver, "run", []) as runs, contextlib.redirect_stdout(buf):
            wall, code, _ = _timed(lambda: cli.main(
                ["run", "--config", str(self.config_path), "--out", str(out)]))
        if isinstance(runs[0], Exception):
            _raised(res, runs[0])
            return wall, res
        state, series = runs[0]
        report = json.loads(buf.getvalue())
        ok = check_run(res, state, series, DECAY_RECORDS)
        ok &= res.check(report["mass_balance_residual"] <= MASS_RESIDUAL_MAX,
                        "reported mass residual")
        ok &= check_series_csv(res, out / "series.csv", DECAY_RECORDS)
        res.failed = int(not ok)
        passes = sum(v["pass"] for v in report["verdicts"])
        res.info = {"exit_code": code, "verdicts_passed": f"{passes}/{len(report['verdicts'])}"}
        return wall, res


class BarenblattWide(Workload):
    """`solver.run` of pure diffusion against the exact solution."""

    name = "barenblatt-wide"
    config_text = BARENBLATT_CONFIG

    def run_op(self):
        res = OpResult(attempted=1)
        wall, out, exc = _timed(lambda: solver.run(self.config))
        if exc is not None:
            _raised(res, exc)
            return wall, res
        state, series = out
        ok = check_run(res, state, series, BARENBLATT_RECORDS)
        err = bb_sup_error(self.config, state)
        ok &= res.check(err <= BB_SUP_ERR_MAX, f"bb_sup_err {err:.3e}")
        res.failed = int(not ok)
        res.info = {"bb_sup_err": err}
        return wall, res

    def bb_sup_err(self, results):
        return statistics.median(r.info["bb_sup_err"] for r in results
                                 if "bb_sup_err" in r.info)


# A sweep row carries only the exception message; map the solver's known
# messages back to their exception types, or read "error: Type: message"
# if the row names the type.
_ERROR_PATTERNS = (
    (re.compile(r"error: ([A-Z]\w*(?:Error|Exception)):"), None),
    (re.compile(r"floor violated"), "FloorViolationError"),
    (re.compile(r"support overflow"), "SupportOverflowError"),
    (re.compile(r"non-finite field"), "NumericalError"),
)


def error_type(status):
    for pattern, name in _ERROR_PATTERNS:
        m = pattern.search(status)
        if m:
            return name or m.group(1)
    return "UnknownError"


class SweepPQ(Workload):
    """`gradabs sweep` over a 4 x 4 (p, q) grid through the process pool.
    Each cell is one operation; a cell whose row reads `error:` failed."""

    name = "sweep-pq"
    config_text = SWEEP_CONFIG
    via_cli = True
    pooled = True

    def run_op(self, workers=SWEEP_WORKERS):
        rng = random.Random(self.seed)
        ps, qs = list(SWEEP_P), list(SWEEP_Q)
        rng.shuffle(ps)
        rng.shuffle(qs)
        out = self.out_dir()
        argv = ["sweep", "--p", ",".join(ps), "--q", ",".join(qs),
                "--workers", str(workers), "--config", str(self.config_path),
                "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            wall, code, _ = _timed(lambda: cli.main(argv))
        res = OpResult()
        cells = {}
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        res.check(len(rows) == len(SWEEP_P) * len(SWEEP_Q), f"{len(rows)} sweep rows")
        for row in rows:
            res.attempted += 1
            label = f"p{float(row['p']):g}_q{float(row['q']):g}"
            if row["status"].startswith("error:"):
                res.failed += 1
                res.errors.append(error_type(row["status"]))
                cells[label] = {"status": res.errors[-1]}
                continue
            report = json.loads((out / f"{label}.report.json").read_text())
            ok = res.check(report["mass_balance_residual"] <= MASS_RESIDUAL_MAX,
                           f"{label}: mass residual")
            ok &= check_series_csv(res, out / f"{label}.csv", SWEEP_RECORDS)
            res.failed += int(not ok)
            cells[label] = {"status": "ok", "passes": row["passes"],
                            "wall_s": report["wall_seconds"]}
        res.info = {"exit_code": code, "workers": workers, "cells": cells}
        return wall, res


class Lockstep(Workload):
    """`solver.comparison_run` of two ordered bumps with a shared dt."""

    name = "lockstep"
    config_text = LOCKSTEP_CONFIG

    def run_op(self):
        res = OpResult(attempted=1)
        # comparison_run advances the two initial states' arrays in place
        with capturing(solver, "initial_state", []) as states:
            wall, report, exc = _timed(lambda: solver.comparison_run(
                LOCKSTEP_LOW, LOCKSTEP_HIGH, self.config))
        if exc is not None:
            _raised(res, exc)
            return wall, res
        low, high = states[0].values, states[1].values
        ok = res.check(report["max_violation"] <= VIOLATION_MAX,
                       f"max_violation {report['max_violation']:.3e}")
        ok &= res.check(bool(np.all(np.isfinite(low)) and np.all(np.isfinite(high))),
                        "non-finite final field")
        ok &= res.check(bool(np.all(low <= high + VIOLATION_MAX)), "final fields out of order")
        ok &= res.check(report["t_end"] == self.config.t_end, "t_end")
        res.failed = int(not ok)
        res.info = {"max_violation": report["max_violation"]}
        return wall, res


WORKLOADS = {w.name: w for w in (DecayNarrow, BarenblattWide, SweepPQ, Lockstep)}


def setup(name):
    """What a fresh interpreter does before the workload's first step:
    parse the config, build the grid and the initial state(s)."""
    config = solver.parse_config(WORKLOADS[name].config_text)
    params, grid = config.params(), config.grid()
    if name == "lockstep":
        return [solver.initial_state(params, grid, prof)
                for prof in (LOCKSTEP_LOW, LOCKSTEP_HIGH)]
    return [solver.initial_state(params, grid, config.profile_obj())]
