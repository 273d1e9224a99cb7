import csv
import json
import tracemalloc

import pytest

from gradabs import bernstein, cli, observe
from gradabs.acceptance import AcceptanceLab

GOOD_CONFIG = """
p = 3
q = 2
N = 1
geometry = radial
h = 0.02
L = 4
t_end = 2
profile = bump:R0=1,H=1,m=2
absorption = on
record_start = 0.125
"""


def run_cli(*argv):
    return cli.main(list(argv))


def test_exponents_command(capsys):
    assert run_cli("exponents", "--p", "3", "--q", "2", "--N", "1") == 0
    assert capsys.readouterr().out == """\
p=3.0 q=2.0 N=1
  alpha_p    = 0.5
  beta_pq    = 0.5
  q_star     = 2.5
  xi         = 0.333333333333
  eta        = 0.25
  gamma_max  = 0.75
  regime     = CriticalAbsorption
"""


def test_exponents_command_intermediate(capsys):
    # A_support and B_l1 are printed in the intermediate regime alone
    assert run_cli("exponents", "--p", "3", "--q", "2.25") == 0
    assert capsys.readouterr().out == """\
p=3.0 q=2.25 N=1
  alpha_p    = 0.5
  beta_pq    = 0.555555555556
  q_star     = 2.5
  xi         = 0.285714285714
  eta        = 0.25
  gamma_max  = 0.75
  A_support  = 0.166666666667
  B_l1       = 0.333333333333
  regime     = Intermediate
"""


def test_exponents_command_rejects_bad_p(capsys):
    assert run_cli("exponents", "--p", "2", "--q", "2") == 2
    assert "p" in capsys.readouterr().err


def test_run_command(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(GOOD_CONFIG)
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["regime"] == "CriticalAbsorption"
    assert report["mass_balance_residual"] <= 1e-10
    assert (tmp_path / "out" / "series.csv").exists()
    # the window 0.125..2 spans 4 octaves, so verdicts are produced; the
    # asymptotic laws may or may not hold this early
    assert report["verdict_error"] is None
    assert report["verdicts"]
    assert code in (0, 4)


PURE_DIFFUSION_CONFIG = """
p = 3
q = 2
h = 0.02
L = 8
t_end = 16
profile = barenblatt:t0=1
absorption = off
record_start = 1
"""


def test_run_reports_the_row_that_judges_a_pure_diffusion_series(tmp_path, capsys):
    # nothing is absorbed, so the verdicts come from the PureDiffusion row
    # of the law table, not from the critical-absorption row of q = p - 1,
    # and the report names the row they read
    cfg = tmp_path / "run.cfg"
    cfg.write_text(PURE_DIFFUSION_CONFIG)
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out")) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["regime"] == "PureDiffusion"
    assert [v["quantity"] for v in report["verdicts"]] == [
        "sup_excess", "grad_sup", "rho", "l1_excess"]


def test_sweep_summary_names_the_row_that_judges_a_pure_diffusion_cell(tmp_path, capsys):
    cfg, out = tmp_path / "run.cfg", tmp_path / "sweep"
    cfg.write_text(PURE_DIFFUSION_CONFIG)
    assert run_cli("sweep", "--p", "3", "--q", "2", "--config", str(cfg),
                   "--out", str(out)) == 0
    capsys.readouterr()
    assert (out / "summary.csv").read_text().splitlines() == [
        "p,q,regime,status,passes", "3,2,PureDiffusion,ok,4/4"]


def test_run_command_short_series_reports_verdict_error(tmp_path, capsys):
    # recording from t = 0.5 to 2 spans only 2 octaves, too short to fit
    cfg = tmp_path / "short.cfg"
    cfg.write_text(GOOD_CONFIG.replace("record_start = 0.125",
                                       "record_start = 0.5"))
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
    report = json.loads(capsys.readouterr().out)
    assert report["verdict_error"] is not None
    assert report["verdicts"] == []
    assert code == 0


def test_run_command_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("p = 3\nbogus = 1\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) == 2
    assert run_cli("run", "--config", str(tmp_path / "missing.cfg"),
                   "--out", str(tmp_path)) == 2
    # the share of the monotone limit is a constant of the solver, not a key
    cfg.write_text(GOOD_CONFIG + "safety = 0.9\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) == 2
    assert "unknown key 'safety'" in capsys.readouterr().err


# configs that used to fail only once the run had started, with exit 1 and a
# traceback; each is now rejected when the config is built.  The grid is
# radial: a config may name that geometry, and no other
UNSTARTABLE = {
    "cartesian": "geometry = cartesian\nh = 0.02\nL = 4",
    "line": "geometry = line\nh = 0.02\nL = 4",
    "line_N2": "geometry = line\nN = 2\nh = 0.02\nL = 4",
    "h_zero": "h = 0\nL = 4",
    "profile_under_8_cells": "h = 0.5\nL = 12",
    # used to run on L = 1.6, enlarged to 16 cells, and end in exit 3
    "L_under_16_cells": "h = 0.1\nL = 1\nprofile = bump:R0=0.8",
}


@pytest.mark.parametrize("case", UNSTARTABLE)
def test_run_and_sweep_reject_unstartable_config(tmp_path, capsys, case):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("p = 3\nq = 2\nt_end = 1\n" + UNSTARTABLE[case] + "\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
    assert run_cli("sweep", "--p", "3", "--q", "2", "--config", str(cfg),
                   "--out", str(tmp_path / "sweep")) == 2
    err = capsys.readouterr().err
    assert err.count("error: bad config: ") == 2
    if "geometry" in UNSTARTABLE[case]:
        assert err.count("geometry must be radial, got '") == 2
    if case == "L_under_16_cells":
        assert err.count("bad config: need at least 16 cells\n") == 2
    assert not (tmp_path / "out").exists() and not (tmp_path / "sweep").exists()


# grids that floats cannot hold: too many cells (used to end in a 58 TiB
# allocation error, exit 1), a sphere area that overflows (exit 1, after
# --out was created) and an r^(N-1) that underflows (exit 3)
UNBUILDABLE = {
    "h_1e-12": "h = 1e-12\nL = 8",
    "N_400": "N = 400\nh = 0.02\nL = 4",
    "N_200": "N = 200\nh = 0.02\nL = 4",
}


@pytest.mark.parametrize("case", UNBUILDABLE)
def test_run_and_sweep_reject_grid_floats_cannot_hold(tmp_path, capsys, case):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("p = 3\nq = 2\nt_end = 1\n" + UNBUILDABLE[case] + "\n")
    tracemalloc.start()
    try:
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000             # the grid is rejected before it is allocated
    assert run_cli("sweep", "--p", "3", "--q", "2", "--config", str(cfg),
                   "--out", str(tmp_path / "sweep")) == 2
    err = capsys.readouterr().err
    assert err.count("error: bad config: ") == 2 and "Traceback" not in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "sweep").exists()


# powers of h that a stage takes as scalars and a float cannot hold: each
# config used to create --out and end in an OverflowError traceback (exit 1),
# and a sweep over it in exit 3
SCALAR_OVERFLOW = {"p_200": ("200", "2"), "q_250": ("3", "250")}


@pytest.mark.parametrize("case", SCALAR_OVERFLOW)
def test_run_and_sweep_reject_step_scalars_floats_cannot_hold(tmp_path, capsys, case):
    p, q = SCALAR_OVERFLOW[case]
    cfg = tmp_path / "scalars.cfg"
    cfg.write_text(GOOD_CONFIG.replace("p = 3", f"p = {p}").replace("q = 2", f"q = {q}"))
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad config: ") and "overflows or underflows" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()
    # the sweep's base config starts at (3, 2), but no run starts at (p, q)
    cfg.write_text(GOOD_CONFIG)
    assert run_cli("sweep", "--p", p, "--q", q, "--config", str(cfg),
                   "--out", str(tmp_path / "sweep")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cell ({float(p)}, {float(q)}): h^p, h^(1-p), ")
    assert err.endswith(" overflows or underflows\n") and not (tmp_path / "sweep").exists()


# initial fields whose face differences (3.85e305 and 1.54e298 at most)
# square past a float: the first config used to create --out and end in an
# InvalidParams traceback (exit 1) at the t0 record, the second in numpy
# overflow warnings and "non-finite field at t=0.0625" (exit 3)
SQUARES_OVERFLOW = {
    "H_1e308": "h = 0.01\nL = 12\nt_end = 1\nprofile = bump:R0=4,H=1e308,m=2",
    "H_1e300": "h = 0.005\nL = 6\nprofile = bump:R0=1,H=1e300,m=2",
}


@pytest.mark.parametrize("case", SQUARES_OVERFLOW)
def test_run_and_sweep_reject_initial_fields_whose_squares_overflow(tmp_path, capsys, case):
    cfg = tmp_path / "squares.cfg"
    cfg.write_text("p = 3\nq = 2\n" + SQUARES_OVERFLOW[case] + "\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
    assert run_cli("sweep", "--p", "3", "--q", "2", "--config", str(cfg),
                   "--out", str(tmp_path / "sweep")) == 2
    err = capsys.readouterr().err
    assert err.count("error: bad config: the squares of the initial field's differences "
                     "overflow a float: the largest is ") == 2
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "sweep").exists()


# an initial field whose L1 norm, omega_100 r^99 h summed over a tall
# annulus, overflows a float while its squares do not: it used to print a
# numpy overflow warning, create --out and end in an InvalidParams traceback
# (exit 1) at the t0 record, and a sweep over it in an error row (exit 3)
OBSERVABLES_OVERFLOW = ("p = 3\nq = 2\nN = 100\nh = 0.5\nL = 1200\nt_end = 1\n"
                        "profile = annulus:R0=800,R1=1000,H=1e60\n")


def test_run_and_sweep_reject_initial_fields_whose_observables_overflow(tmp_path, capsys):
    cfg = tmp_path / "observables.cfg"
    cfg.write_text(OBSERVABLES_OVERFLOW)
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
    assert run_cli("sweep", "--p", "3", "--q", "2", "--config", str(cfg),
                   "--out", str(tmp_path / "sweep")) == 2
    err = capsys.readouterr().err
    assert err.count("error: bad config: the initial field's observables overflow a float: "
                     "l1_excess=inf\n") == 2
    assert "Traceback" not in err and "Warning" not in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "sweep").exists()


# recording times that a float cannot hold, t_end / record_start past about
# 2^1023.75: each config used to create --out and end in an OverflowError
# traceback (exit 1) from record_times
RECORD_OVERFLOW = {"record_start_5e-324": "record_start = 5e-324\nt_end = 1",
                   "record_start_1e-300_t_end_1e10": "record_start = 1e-300\nt_end = 1e10"}


@pytest.mark.parametrize("case", RECORD_OVERFLOW)
def test_run_and_sweep_reject_recording_times_floats_cannot_hold(tmp_path, capsys, case):
    cfg = tmp_path / "records.cfg"
    cfg.write_text("p = 3\nq = 2\nh = 0.02\nL = 4\n" + RECORD_OVERFLOW[case] + "\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad config: the recording times from record_start=")
    assert err.endswith(" overflow a float\n") and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    # the sweep's base config is parsed whole, so it is rejected before any
    # cell is formed
    assert run_cli("sweep", "--p", "3,4", "--q", "2", "--config", str(cfg),
                   "--out", str(tmp_path / "sweep")) == 2
    assert capsys.readouterr().err == err and not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_run_and_sweep_reject_config_without_p_or_q(tmp_path, capsys, command):
    # a config without a required key used to end in a TypeError traceback
    # and exit 1; the sweep sets p and q per cell, but its base config is
    # parsed whole
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("N = 1\nh = 0.02\nL = 4\nt_end = 1\n")
    argv = ["--p", "3", "--q", "2"] if command == "sweep" else []
    assert run_cli(command, *argv, "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err == "error: bad config: missing required key(s) p, q\n"
    assert not (tmp_path / "out").exists()


# numbers that are not finite: each used to end in a traceback (exit 1), a
# "non-finite field" (exit 3) or a message about converting NaN (exit 2)
NON_FINITE = {
    "t_end_inf": ("t_end", "inf"),
    "L_inf": ("L", "inf"),
    "p_inf": ("p", "inf"),
    "q_inf": ("q", "inf"),
    "bump_H_nan": ("profile", "bump:R0=1,H=nan"),
    "bump_H_inf": ("profile", "bump:H=inf"),
    "bump_R0_inf": ("profile", "bump:R0=inf"),
    "annulus_H_nan": ("profile", "annulus:R0=2,R1=4,H=nan"),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_run_rejects_non_finite_config_values(tmp_path, capsys, case):
    key, value = NON_FINITE[case]
    lines = [line for line in GOOD_CONFIG.splitlines() if not line.startswith(key + " ")]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad config: ") and "finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_cell_its_base_config_cannot_start(tmp_path, capsys):
    # the base config starts at (3, 2), but no run starts at q = 1
    cfg = tmp_path / "base.cfg"
    cfg.write_text(GOOD_CONFIG)
    assert run_cli("sweep", "--p", "3", "--q", "1,2", "--config", str(cfg),
                   "--out", str(tmp_path / "sweep")) == 2
    err = capsys.readouterr().err
    assert err == "error: cell (3.0, 1.0): q must satisfy q > 1, got q=1.0\n"
    assert not (tmp_path / "sweep").exists()


def test_sweep_takes_N_from_its_base_config(tmp_path, capsys):
    cfg = tmp_path / "n2.cfg"
    cfg.write_text(GOOD_CONFIG.replace("N = 1", "N = 2").replace("t_end = 2", "t_end = 0.25"))
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--p", "3", "--q", "2,3", "--config", str(cfg),
                   "--out", str(out)) == 0
    reports = sorted(out.glob("*.report.json"))
    assert len(reports) == 2
    assert all(json.loads(r.read_text())["params"]["N"] == 2 for r in reports)
    # the dimension is the base config's: the sweep has no --N to override it
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--p", "3", "--q", "2", "--N", "3", "--config", str(cfg),
                "--out", str(tmp_path / "n3"))
    assert exc.value.code == 2
    assert "unrecognized arguments: --N 3" in capsys.readouterr().err
    assert not (tmp_path / "n3").exists()


def test_run_command_support_overflow(tmp_path, capsys):
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(GOOD_CONFIG.replace("L = 4", "L = 1.2")
                   .replace("absorption = on", "absorption = off")
                   .replace("t_end = 2", "t_end = 16"))
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) == 3
    assert "overflow" in capsys.readouterr().err.lower()


def test_run_command_floor_violation(tmp_path, capsys):
    # steep data at q >= p - 1: the centered absorption undershoots the
    # floor by 2.2e-3 though the CFL cap binds, and the stage raises
    cfg = tmp_path / "steep.cfg"
    cfg.write_text("p = 3\nq = 6\nN = 1\neps = 0.001\nh = 0.01\nL = 6\nt_end = 0.25\n"
                   "profile = bump:R0=0.25,H=16,m=2\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out")) == 3
    assert "floor violated" in capsys.readouterr().err


def test_run_and_sweep_report_coefficients_that_overflow(tmp_path, capsys):
    # data so steep that the CFL maxima of the regularized coefficients
    # overflow a float: a numerical failure, not an OverflowError traceback
    # with exit 1
    cfg = tmp_path / "steep.cfg"
    cfg.write_text("p = 5\nq = 3\nh = 0.01\nL = 6\nt_end = 1\nprofile = bump:H=1e150\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out")) == 3
    assert "numerical failure: CFL bound overflows a float" in capsys.readouterr().err
    assert run_cli("sweep", "--p", "5", "--q", "3", "--config", str(cfg),
                   "--out", str(tmp_path / "sweep")) == 3
    _, row = csv.reader((tmp_path / "sweep" / "summary.csv").read_text().splitlines())
    assert row[:3] == ["5", "3", ""]
    assert row[3].startswith("error: NumericalError: CFL bound overflows a float")


# profile options that used to start a run or to be blamed on something
# else: a repeated option was overwritten by its last value (the run exited
# 4 at H = 2), a bump with m = 0 is H on the whole grid (exit 3, support
# overflow at any L), m < 0 puts a pole at r = R0 (rejected for its
# infinite samples), and R0 < 0 was reported as a feature of negative width
BAD_PROFILES = {
    "repeated_option": ("bump:H=1,H=2", "repeated profile option 'H'"),
    "m_zero": ("bump:m=0", "bump needs R0 > 0 and m > 0"),
    "m_negative": ("bump:R0=1,H=1,m=-1", "bump needs R0 > 0 and m > 0"),
    "R0_negative": ("bump:R0=-1", "bump needs R0 > 0 and m > 0"),
}


@pytest.mark.parametrize("case", BAD_PROFILES)
def test_run_rejects_bad_profile_options(tmp_path, capsys, case):
    profile, message = BAD_PROFILES[case]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"p = 3\nq = 2\nt_end = 1\nprofile = {profile}\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad config: ") and message in err
    assert not (tmp_path / "out").exists()


def test_fit_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(GOOD_CONFIG.replace("t_end = 2", "t_end = 8"))
    run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
    capsys.readouterr()
    code = run_cli("fit", "--series", str(tmp_path / "out" / "series.csv"),
                   "--p", "3", "--q", "2")
    out = capsys.readouterr().out
    assert code in (0, 4)    # parseable either way; laws may or may not pass
    for line in out.strip().splitlines():
        rec = json.loads(line)
        assert "quantity" in rec and "pass" in rec


def write_series(path, *rows):
    path.write_text(",".join(observe.CSV_COLUMNS) + "\n"
                    + "".join(f"{t},{sup},1,1,1,1,1,0,0\n" for t, sup in rows))
    return str(path)


def test_fit_rejects_non_numeric_series_value(tmp_path, capsys):
    series = write_series(tmp_path / "s.csv", (1, 1), (2, "abc"))
    assert run_cli("fit", "--series", series, "--p", "3", "--q", "2") == 2
    assert "bad series row: '2,abc," in capsys.readouterr().err


def test_fit_rejects_series_whose_time_goes_backwards(tmp_path, capsys):
    series = write_series(tmp_path / "s.csv", (1, 1), (2, 0.5), (1.5, 0.25))
    assert run_cli("fit", "--series", series, "--p", "3", "--q", "2") == 2
    assert "recording times must increase: 1.5 after 2.0" in capsys.readouterr().err


def test_fit_rejects_series_with_a_nan_value(tmp_path, capsys):
    rows = [(2.0 ** k, 2.0 ** -k) for k in range(12)]
    rows[10] = (rows[10][0], "nan")     # inside the last three octaves
    series = write_series(tmp_path / "s.csv", *rows)
    assert run_cli("fit", "--series", series, "--p", "3", "--q", "2") == 2
    assert "non-finite value" in capsys.readouterr().err


def test_sweep_deterministic_across_workers(tmp_path, capsys):
    # one, two and four batches deal the cells to different arrays, yet every
    # output but the wall time is byte for byte the same: a column's bits do
    # not depend on which cells share its batch
    cfg = tmp_path / "base.cfg"
    cfg.write_text(GOOD_CONFIG)
    args = ["sweep", "--p", "3,3.5", "--q", "1.5,3", "--config", str(cfg)]
    # the (3.5, 1.5) cell violates the floor, so every sweep exits 3
    outs = [tmp_path / f"s{workers}" for workers in (1, 2, 4)]
    for out in outs:
        assert run_cli(*args, "--workers", out.name[1:], "--out", str(out)) == 3
    capsys.readouterr()
    s1 = (outs[0] / "summary.csv").read_text()
    assert s1.splitlines()[0] == "p,q,regime,status,passes"
    assert len(s1.splitlines()) == 5
    row = next(line for line in s1.splitlines() if line.startswith("3.5,1.5,"))
    assert ",error: FloorViolationError: " in row

    def report(path):
        rep = json.loads(path.read_text())
        del rep["wall_seconds"]
        rep["series"] = rep["series"].rpartition("/")[2]
        return rep

    labels = ["p3_q1.5", "p3_q3", "p3.5_q3"]
    assert sorted(p.name for p in outs[0].glob("*.csv")) == sorted(
        [f"{label}.csv" for label in labels] + ["summary.csv"])
    for out in outs[1:]:
        assert (out / "summary.csv").read_text() == s1
        for label in labels:
            assert (out / f"{label}.csv").read_bytes() == (outs[0] / f"{label}.csv").read_bytes()
            assert report(out / f"{label}.report.json") == report(
                outs[0] / f"{label}.report.json")


def test_sweep_exits_on_a_fault_of_the_batch(tmp_path, monkeypatch, capsys):
    # a fault that is neither a numerical failure nor a bad config is a
    # defect of the program: it ends the sweep with a traceback (exit 1), and
    # is not written as an error row of every cell of the batch (exit 3)
    from gradabs import solver

    def broken(*args):
        raise TypeError("a fault of the batch machinery")

    cfg = tmp_path / "base.cfg"
    cfg.write_text(GOOD_CONFIG.replace("t_end = 2", "t_end = 0.5"))
    monkeypatch.setattr(solver._Stepper, "step_window", broken)
    with pytest.raises(TypeError, match="a fault of the batch machinery"):
        run_cli("sweep", "--p", "3", "--q", "2,3", "--config", str(cfg),
                "--workers", "1", "--out", str(tmp_path / "sweep"))
    assert not (tmp_path / "sweep" / "summary.csv").exists()


def test_sweep_rejects_duplicates(capsys):
    assert run_cli("sweep", "--p", "3,3", "--q", "2", "--out", "unused") == 2


def test_sweep_rejects_cells_that_share_output_files(tmp_path, capsys):
    # p = 3 and 3.0000001 print as 3 under :g, so both cells would write
    # p3_q3.csv and p3_q3.report.json
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--p", "3,3.0000001", "--q", "3", "--out", str(out)) == 2
    assert "sweep cells share the output name p3_q3" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_invalid_cells(capsys):
    assert run_cli("sweep", "--p", "1.5", "--q", "2", "--out", "unused") == 2
    assert run_cli("sweep", "--p", "inf", "--q", "2", "--out", "unused") == 2
    assert "p must be a finite number, got p=inf" in capsys.readouterr().err


def test_sweep_starts_no_more_pool_workers_than_cells(tmp_path, monkeypatch, capsys):
    sizes = []

    class RecordingPool:
        """Records the pool size asked for and maps in this process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, jobs):
            return [func(job) for job in jobs]

    monkeypatch.setattr(cli.multiprocessing, "Pool", RecordingPool)
    cfg = tmp_path / "base.cfg"
    cfg.write_text(GOOD_CONFIG.replace("t_end = 2", "t_end = 0.5"))
    assert run_cli("sweep", "--p", "3", "--q", "2,3", "--config", str(cfg),
                   "--workers", "8", "--out", str(tmp_path / "sweep")) == 0
    assert sizes == [2]
    assert len((tmp_path / "sweep" / "summary.csv").read_text().splitlines()) == 3


def test_sweep_rejects_workers_below_one(tmp_path, capsys):
    cfg = tmp_path / "base.cfg"
    cfg.write_text(GOOD_CONFIG)
    for workers in ("0", "-4"):
        out = tmp_path / f"sweep{workers}"
        assert run_cli("sweep", "--p", "3", "--q", "2", "--config", str(cfg),
                       "--workers", workers, "--out", str(out)) == 2
        assert f"--workers must be at least 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()


def test_bernstein_check(capsys):
    # one passing line per report of the one scan list, in its order, and
    # the battery's criterion quotes the margins of that same list
    reports = bernstein.standard_scans()
    assert len(reports) == 12
    assert run_cli("bernstein-check") == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["name"] for line in lines] == [rep.name for rep in reports]
    assert [line["grid"] for line in lines] == [rep.grid_desc for rep in reports]
    assert all(line["pass"] for line in lines)
    result = AcceptanceLab().run_criterion("bernstein")
    assert result.passed
    parts = result.details.split("; ")
    assert [part.split(" (")[0] for part in parts] == [line["name"] for line in lines]
    margins = [float(part.rpartition(" margin ")[2]) for part in parts]
    assert margins == [pytest.approx(line["worst_margin"], rel=1e-3) for line in lines]


def test_verify_only_fast_criteria(capsys):
    assert run_cli("verify", "--only", "exponents,bernstein") == 0
    out = capsys.readouterr().out
    assert "[PASS] exponents" in out
    assert "[PASS] bernstein" in out


def test_verify_rejects_unknown_criterion(capsys):
    # an empty --only names the criterion '', not the whole battery
    for only, unknown in (("nonsense", "['nonsense']"), ("", "['']")):
        assert run_cli("verify", "--only", only) == 2
        assert f"unknown criteria: {unknown}" in capsys.readouterr().err


def test_verify_prints_each_criterion_as_it_finishes(monkeypatch, capsys):
    seen = []

    def second(lab):
        seen.append(capsys.readouterr().out)
        return True, "second done"

    monkeypatch.setattr(AcceptanceLab, "CRITERIA",
                        {"first": lambda lab: (True, "first done"), "second": second})
    assert run_cli("verify") == 0
    assert seen[0].startswith("[PASS] first: first done (")
    out = capsys.readouterr().out
    assert out.startswith("[PASS] second: second done (")
    assert out.endswith("2/2 criteria passed\n")


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_run_and_sweep_reject_out_that_is_a_file(tmp_path, monkeypatch, capsys, command):
    # --out is created before any simulation; a path it cannot be created at
    # used to end in a FileExistsError traceback once the runs were done
    cfg, out = tmp_path / "run.cfg", tmp_path / "taken"
    cfg.write_text(GOOD_CONFIG)
    out.write_text("")

    def no_run(*args, **kwargs):
        raise AssertionError("solver.run called")

    monkeypatch.setattr(cli.solver, "run", no_run)
    argv = ["--p", "3", "--q", "2"] if command == "sweep" else []
    assert run_cli(command, *argv, "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create --out: ")
    assert "Traceback" not in err
