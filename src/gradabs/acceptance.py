"""The acceptance battery: twelve scripted checks.  Six of them, the decay,
support, gradient and L1 laws, are the rows of `AcceptanceLab.LAW_GATES`:
each passes iff `fit.verdict`, the law table that also judges `gradabs
run`, `sweep` and `fit`, passes every (run, column) that its row gates.  The
others cover exponent arithmetic, solver fidelity against the exact source
solution, dead-core persistence, the discrete comparison principle, mass
balance, and the proof-machinery scans.

Every simulation a criterion reads is a named entry of `AcceptanceLab.RUNS`,
simulated once per laboratory by `AcceptanceLab.simulation`, so criteria
sharing a run pay for it once; `check_comparison` alone builds its own pair.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import bernstein, fit, model, observe, solver
from .exponents import (ProblemParams, compute_exponents, eta_exponent,
                        q_star)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    details: str
    seconds: float

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: {self.details} ({self.seconds:.1f}s)"


def _barenblatt_config(h, t_end, L):
    """Pure diffusion at (p, N) = (3, 1) from the source solution at t = 1."""
    return solver.RunConfig(3.0, 2.0, 1, h=h, L=L, t_end=t_end,
                            profile="barenblatt:t0=1", absorption=False,
                            record_start=1.0)


class AcceptanceLab:
    """The battery's simulations, each run once per laboratory, and its
    CRITERIA in battery order: a LAW_GATES row or a method per criterion."""

    # every simulation a criterion reads.  Pure diffusion from the source
    # solution: two short runs for the sup error and its h-refinement, one
    # long run for the decay and support laws.  Absorption on: q=1.5 uses a
    # smaller eps so the late-time absorption term is not flattened by the
    # regularization
    RUNS = {
        "bb_h005": _barenblatt_config(0.005, 2.0, 6.0),
        "bb_h0025": _barenblatt_config(0.0025, 2.0, 6.0),
        "bb_long": _barenblatt_config(0.005, 256.0, 17.0),
        "q16": solver.RunConfig(3.0, 1.6, 1, h=0.01, L=6.0, t_end=256.0),
        "q25": solver.RunConfig(3.0, 2.5, 1, h=0.01, L=12.0, t_end=50.0,
                                record_start=0.5),
        "q30": solver.RunConfig(3.0, 3.0, 1, h=0.01, L=14.0, t_end=256.0),
        "q15": solver.RunConfig(3.0, 1.5, 1, eps=1e-5, h=0.01, L=5.0,
                                t_end=256.0),
        # amplitude scaling u -> lam u, x -> lam^(-1/3) x, t -> lam^(-2) t
        # maps solutions to solutions at (p, q) = (3, 2.25), so a tall bump
        # observes much later self-similar times inside the same fit window
        "q225": solver.RunConfig(3.0, 2.25, 1, h=0.01, L=14.0, t_end=256.0,
                                 profile="bump:R0=1,H=16,m=2"),
        "deadcore": solver.RunConfig(3.0, 1.5, 1, eps=1e-5, h=0.01, L=9.0,
                                     t_end=256.0,
                                     profile="annulus:R0=4,R1=6,H=1"),
    }

    LAW_GATES = {
        "pure-diffusion-support": (("bb_long", "rho"),),
        "subcritical-decay": (("q16", "sup_excess"),),
        "radial-gradient-constant": (("q25", "grad_beta"),),
        "l1-dichotomy": (("q30", "l1_excess"), ("q15", "l1_excess")),
        "localization": (("q15", "rho"),),
        "intermediate-support": (("q225", "rho"), ("q225", "l1_excess")),
    }

    def __init__(self):
        self._cache = {}

    def simulation(self, name):
        """(final state, series, core) of RUNS[name], simulated on first use;
        core is the largest excess over the floor on |x| <= 1 at each record."""
        if name not in self._cache:
            core = []

            def probe(state):
                mask = state.grid.centers() <= 1.0
                core.append(float(np.max(state.values[mask]) - state.floor))

            self._cache[name] = (*solver.run(self.RUNS[name], on_record=probe), core)
        return self._cache[name]

    # -- criteria ------------------------------------------------------------

    def check_exponents(self):
        checks = []
        ex = compute_exponents(ProblemParams(3.0, 2.0, 1))
        for got, want in ((ex.alpha_p, 0.5), (ex.beta_pq, 0.5),
                          (ex.q_star, 2.5), (ex.xi, 1.0 / 3.0), (ex.eta, 0.25)):
            checks.append(abs(got - want) <= 1e-15)
        checks.append(abs(compute_exponents(ProblemParams(3.0, 2.0, 2)).alpha_p
                          - 9.0 / 17.0) <= 1e-15)
        worst = 0.0
        for p in np.linspace(2.2, 5.0, 20):
            qs = q_star(p, 1)
            for frac in np.linspace(0.05, 0.95, 20):
                q = (p - 1.0) + frac * (qs - (p - 1.0))
                e = compute_exponents(ProblemParams(float(p), float(q), 1))
                A, B = e.A_support, e.B_l1
                xi = e.xi
                id1 = A + q * xi * (p - 2.0) * B / p - (1.0 - xi * (p - 2.0)) / p
                id2 = 1.0 - A / xi - (q - 1.0) * B
                worst = max(worst, abs(id1), abs(id2))
        checks.append(worst <= 1e-12)
        return all(checks), f"examples exact, identity defect {worst:.2e}"

    def check_barenblatt(self):
        def sup_error(name):
            state, _, _ = self.simulation(name)
            c = self.RUNS[name]
            exact = model.barenblatt_value(c.t_end, state.grid.centers(), c.p, c.N)
            peak = c.t_end ** (-c.N * eta_exponent(c.p, c.N))    # the exact sup norm
            return float(np.abs(state.values - state.floor - exact).max()) / peak

        e1, e2 = sup_error("bb_h005"), sup_error("bb_h0025")
        ratio = e1 / e2
        _, series, _ = self.simulation("bb_long")
        c = self.RUNS["bb_long"]
        want = -c.N * eta_exponent(c.p, c.N)
        res = fit.fit_power(series.t, series.column("sup_excess"), (1.0, 16.0))
        ok = e1 <= 1e-5 and ratio >= 1.7 and abs(res.exponent - want) <= 0.02
        return ok, (f"sup err {e1:.2e} (<=1e-5), {e2:.2e} at h/2, h-refinement ratio "
                    f"{ratio:.2f} (>=1.7), decay exponent {res.exponent:.4f} "
                    f"(within 0.02 of {want:g})")

    def _law_gate(self, gates):
        """Pass iff fit.verdict passes each (run, column) of gates on the
        cached run; the details quote each verdict."""
        ok, parts = True, []
        for name, column in gates:
            config, (_, series, _) = self.RUNS[name], self.simulation(name)
            verdicts = fit.verdict(config.params(), series, h=config.h)
            v = {v.quantity: v for v in verdicts}[column]
            ok &= v.passed
            parts.append(f"{name} {column}: {v.fitted} vs {v.predicted}")
        return ok, "; ".join(parts)

    def check_deadcore(self):
        _, _, core = self.simulation("deadcore")
        worst = max(core)
        floor = self.RUNS["deadcore"].params().floor
        return worst <= 10.0 * floor, (
            f"max core excess {worst:.3e} <= 10 x floor = {10.0 * floor:.3e}")

    def check_comparison(self):
        config = solver.RunConfig(3.0, 2.0, 1, h=0.01, L=6.0, t_end=2.0)
        low = model.Bump(R0=1.0, H=1.0, m=2.0)
        high = model.Bump(R0=1.0, H=1.5, m=2.0)
        rep_scale = solver.comparison_run(low, high, config)
        rep_absorb = solver.comparison_run(low, low, config,
                                           absorption_a=True, absorption_b=False)
        v1, v2 = rep_scale["max_violation"], rep_absorb["max_violation"]
        return v1 <= 1e-12 and v2 <= 1e-12, (
            f"ordering violations {v1:.2e} (scaled pair), {v2:.2e} "
            f"(absorption on/off), both <= 1e-12")

    def check_mass_balance(self):
        worst_name, worst = "", 0.0
        for name in self.RUNS:
            _, series, _ = self.simulation(name)
            res = observe.mass_balance_residual(series)
            if res > worst:
                worst_name, worst = name, res
        return worst <= 1e-13, f"worst residual {worst:.2e} ({worst_name}), <= 1e-13"

    def check_bernstein(self):
        reports = bernstein.standard_scans()
        return all(rep.passed for rep in reports), "; ".join(
            f"{rep.name} ({rep.grid_desc}) margin {rep.worst_margin:.4g}"
            for rep in reports)

    CRITERIA = {
        "exponents": check_exponents,
        "barenblatt": check_barenblatt,
        **{name: (lambda lab, gates=gates: lab._law_gate(gates))
           for name, gates in LAW_GATES.items()},
        "deadcore": check_deadcore,
        "comparison": check_comparison,
        "mass-balance": check_mass_balance,
        "bernstein": check_bernstein,
    }

    def run_criterion(self, name) -> CriterionResult:
        start = time.perf_counter()
        try:
            passed, details = self.CRITERIA[name](self)
        except (solver.NumericalError, fit.FitError) as exc:
            passed, details = False, f"{type(exc).__name__}: {exc}"
        return CriterionResult(name, bool(passed), details,
                               time.perf_counter() - start)
