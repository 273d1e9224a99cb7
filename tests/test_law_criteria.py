"""The battery's laboratory without its simulations.  The law criteria,
the rows of AcceptanceLab.LAW_GATES, on synthetic series: each passes on a
series that obeys the law it gates and fails on one that misses the law by
more than the table's tolerance, in every cell of its row.  Mass
balance on synthetic ledgers of every run of the table.  The series are
seeded into the laboratory's cache, so no simulation runs; the cache itself
is checked with the solver stubbed."""

import numpy as np
import pytest

from gradabs import observe, solver
from gradabs.acceptance import AcceptanceLab

# the bound on grad_beta t^(1/q) is 1.10 times (q-1)^((q-1)/q)/q, at q = 2.5
Q25_AMPLITUDE = 1.5 ** 0.6 / 2.5

# criterion -> run -> gated column -> (obeys the law, misses it)
CASES = {
    "pure-diffusion-support": {
        "bb_long": {"rho": (lambda t: 2.0 * t ** 0.25, lambda t: 2.0 * t ** 0.30)}},
    "subcritical-decay": {
        "q16": {"sup_excess": (lambda t: t ** -1.3, lambda t: t ** -0.35)}},
    "radial-gradient-constant": {
        "q25": {"grad_beta": (lambda t: 0.9 * Q25_AMPLITUDE * t ** -0.4,
                              lambda t: 1.25 * Q25_AMPLITUDE * t ** -0.4)}},
    "l1-dichotomy": {
        "q30": {"l1_excess": (lambda t: np.full_like(t, 0.8), lambda t: 0.8 * t ** -0.1)},
        "q15": {"l1_excess": (lambda t: t ** -2.2, lambda t: t ** -1.9)}},
    "localization": {
        # 3h = 0.03 of growth is allowed from t_end/32 on
        "q15": {"rho": (lambda t: np.full_like(t, 2.0),
                        lambda t: 2.0 + 0.05 * (t >= 64.0))}},
    "intermediate-support": {
        "q225": {"rho": (lambda t: t ** (1.0 / 6.0), lambda t: t ** (1.0 / 6.0 + 0.05)),
                 "l1_excess": (lambda t: t ** (-1.0 / 3.0), lambda t: t ** (-1.0 / 3.0 + 0.1))}},
}


def record_times(config):
    t = config.record_start * 2.0 ** (0.25 * np.arange(64))
    return np.append(t[t < config.t_end], config.t_end)


def seed(lab, name, columns):
    """Cache a synthetic run for name: smooth positive columns, absorption
    only where the run has it, and the given column overrides."""
    config = lab.RUNS[name]
    t = record_times(config)
    values = {"t": t, "sup_excess": t ** -0.5, "l1_excess": t ** -1.0,
              "grad_sup": t ** -1.0, "grad_alpha": t ** -1.0,
              "grad_beta": t ** -1.0, "rho": 1.0 + 0.1 * t ** 0.1,
              "absorbed": np.linspace(0.1, 0.5, t.size) * config.absorption,
              "boundary_out": np.zeros_like(t)}
    values.update((column, law(t)) for column, law in columns.items())
    series = observe.TimeSeries()
    for column, vals in values.items():
        series.columns[column] = [float(v) for v in vals]
    lab._cache[name] = (None, series, None)


def gates(criterion):
    return [(name, column) for name, cols in CASES[criterion].items() for column in cols]


def seeded_lab(criterion, missed=None):
    """A laboratory whose runs obey every law the criterion gates, except
    the (run, column) missed, which misses its law."""
    lab = AcceptanceLab()
    for name, cols in CASES[criterion].items():
        seed(lab, name, {column: laws[(name, column) == missed]
                         for column, laws in cols.items()})
    return lab


def test_cases_gate_exactly_the_cells_of_the_law_gates():
    # a new row of LAW_GATES fails here until each of its (run, column)
    # cells has a case that obeys its law and one that misses it
    assert [(c, gates(c)) for c in CASES] == [
        (c, list(row)) for c, row in AcceptanceLab.LAW_GATES.items()]


@pytest.mark.parametrize("criterion", list(CASES))
def test_law_criterion_passes_on_a_series_that_obeys_its_law(criterion):
    result = seeded_lab(criterion).run_criterion(criterion)
    assert result.passed, result.details


@pytest.mark.parametrize("criterion, missed",
                         [(c, gate) for c in CASES for gate in gates(c)])
def test_law_criterion_fails_on_a_series_that_misses_its_law(criterion, missed):
    result = seeded_lab(criterion, missed).run_criterion(criterion)
    assert not result.passed, result.details
    assert f"{missed[0]} {missed[1]}: " in result.details


@pytest.mark.parametrize("broken", [None, *AcceptanceLab.RUNS])
def test_mass_balance_gates_every_run_of_the_table(broken):
    # each ledger books the excess that leaves as absorbed; the broken run
    # gains 1e-9 of its initial mass after the first record
    lab = AcceptanceLab()
    for name in lab.RUNS:
        drift = 1e-9 * (name == broken)
        seed(lab, name, {"l1_excess": lambda t: 1.0 / t + drift * (t > t[0]) / t[0],
                         "absorbed": lambda t: 1.0 / t[0] - 1.0 / t})
    result = lab.run_criterion("mass-balance")
    assert result.passed == (broken is None), result.details
    if broken is not None:
        assert f"({broken})" in result.details


def test_simulation_runs_each_table_entry_once_per_lab(monkeypatch):
    calls = []

    def counting_run(config, on_record=None):
        calls.append(config)
        state = solver.initial_state(config.params(), config.grid(), config.profile_obj())
        on_record(state)
        return state, observe.TimeSeries()

    monkeypatch.setattr(solver, "run", counting_run)
    lab = AcceptanceLab()
    for name, config in AcceptanceLab.RUNS.items():
        first = lab.simulation(name)
        assert lab.simulation(name) is first
        assert len(calls) == 1 and calls.pop() is config
        state, _, core = first
        inside = state.grid.centers() <= 1.0
        assert core == [float(state.values[inside].max()) - state.floor]
    AcceptanceLab().simulation("q16")
    assert calls == [AcceptanceLab.RUNS["q16"]]
