import json

from gradabs import cli

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
    out = capsys.readouterr().out
    assert "2.5" in out
    assert "CriticalAbsorption" in out


def test_exponents_command_intermediate(capsys):
    assert run_cli("exponents", "--p", "3", "--q", "2.25") == 0
    out = capsys.readouterr().out
    assert "A_support" in out and "0.166666666667" in out
    assert "B_l1" in out


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
    # a zero safety factor would give dt = 0 and a run that never ends
    cfg.write_text(GOOD_CONFIG + "safety = 0\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) == 2
    assert "safety" in capsys.readouterr().err


def test_run_command_support_overflow(tmp_path, capsys):
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(GOOD_CONFIG.replace("L = 4", "L = 1.2")
                   .replace("absorption = on", "absorption = off")
                   .replace("t_end = 2", "t_end = 16"))
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) == 3
    assert "overflow" in capsys.readouterr().err.lower()


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


def test_sweep_deterministic_across_workers(tmp_path, capsys):
    cfg = tmp_path / "base.cfg"
    cfg.write_text(GOOD_CONFIG)
    args = ["sweep", "--p", "3,3.5", "--q", "1.5,3", "--config", str(cfg)]
    # the (3.5, 1.5) cell violates the floor, so both sweeps exit 3
    assert run_cli(*args, "--workers", "1", "--out", str(tmp_path / "s1")) == 3
    assert run_cli(*args, "--workers", "4", "--out", str(tmp_path / "s4")) == 3
    capsys.readouterr()
    s1 = (tmp_path / "s1" / "summary.csv").read_text()
    s4 = (tmp_path / "s4" / "summary.csv").read_text()
    assert s1 == s4
    assert s1.splitlines()[0] == "p,q,regime,status,passes"
    assert len(s1.splitlines()) == 5
    row = next(line for line in s1.splitlines() if line.startswith("3.5,1.5,"))
    assert ",error: FloorViolationError: " in row


def test_sweep_rejects_duplicates(capsys):
    assert run_cli("sweep", "--p", "3,3", "--q", "2", "--out", "unused") == 2


def test_sweep_rejects_invalid_cells(capsys):
    assert run_cli("sweep", "--p", "1.5", "--q", "2", "--out", "unused") == 2


def test_bernstein_check(capsys):
    assert run_cli("bernstein-check") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 7
    assert all(json.loads(line)["pass"] for line in lines)


def test_verify_only_fast_criteria(capsys):
    assert run_cli("verify", "--only", "exponents,bernstein") == 0
    out = capsys.readouterr().out
    assert "[PASS] exponents" in out
    assert "[PASS] bernstein" in out


def test_verify_rejects_unknown_criterion(capsys):
    assert run_cli("verify", "--only", "nonsense") == 2
