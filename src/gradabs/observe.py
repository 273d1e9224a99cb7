"""Observables of a discrete solution state and their time series.

`observe` turns a state into one CSV row: the sup and L1 excess over the
floor, the gradient sup norm, the composite gradients |grad(u^theta)| at
theta = alpha_p and beta_pq, the support radius and the two ledger terms.
`TimeSeries` stores the rows of a run, and `mass_balance_residual` checks
their mass ledger."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .exponents import InvalidParams, alpha_p, beta_pq

CSV_COLUMNS = ("t", "sup_excess", "l1_excess", "grad_sup", "grad_alpha",
               "grad_beta", "rho", "absorbed", "boundary_out")

# a cell is in the support while its excess exceeds this fraction of the
# reference peak
SUPPORT_REL_TOL = 1e-6


def grad_power_sup(values, h, theta):
    """Max over faces of |((u_{i+1})^theta - (u_i)^theta)/h| on the raw
    (floored, hence positive) field."""
    if not 0.0 < theta <= 1.0:
        raise InvalidParams(f"composite exponent must lie in (0, 1], got {theta}")
    if theta == 1.0:
        powered = values
    else:
        powered = values ** theta
    return float(np.max(np.abs(np.diff(powered)))) / h


def observe(state, ref_sup):
    """The CSV row of state, keyed by CSV_COLUMNS; the support radius is
    taken against the reference peak ref_sup."""
    u, h, params = state.values, state.grid.h, state.params
    excess = u - state.floor
    alpha, beta = alpha_p(params.p, params.N), beta_pq(params.p, params.q, params.N)
    grad_alpha = grad_power_sup(u, h, alpha)
    return {
        "t": state.time,
        "sup_excess": float(excess.max()),
        "l1_excess": float(excess @ state.grid.cell_measures()),
        "grad_sup": grad_power_sup(u, h, 1.0),
        "grad_alpha": grad_alpha,
        # beta_pq is alpha_p itself whenever (q-1)/q <= alpha_p
        "grad_beta": grad_alpha if beta == alpha else grad_power_sup(u, h, beta),
        "rho": support_radius(state, ref_sup),
        "absorbed": state.absorbed_mass,
        "boundary_out": state.boundary_out,
    }


def support_radius(state, ref_sup):
    """Largest cell-center radius whose excess exceeds SUPPORT_REL_TOL times the
    reference peak ref_sup, plus h/2; zero if the excess is below threshold
    everywhere."""
    if ref_sup <= 0.0:
        return 0.0
    above = state.values - state.floor > SUPPORT_REL_TOL * ref_sup
    if not above.any():
        return 0.0
    return float(state.grid.centers()[above].max()) + 0.5 * state.grid.h


@dataclass
class TimeSeries:
    """Column-oriented record of observables at strictly increasing times."""

    columns: dict = field(default_factory=lambda: {c: [] for c in CSV_COLUMNS})

    def __len__(self):
        return len(self.columns["t"])

    def append(self, row):
        """Store one row of `observe`; a non-finite value is rejected."""
        row = {key: float(row[key]) for key in CSV_COLUMNS}
        if not all(map(math.isfinite, row.values())):
            raise InvalidParams(f"non-finite value in series row {row}")
        t = self.columns["t"]
        if t and row["t"] <= t[-1]:
            raise InvalidParams(f"recording times must increase: {row['t']} after {t[-1]}")
        sup = self.columns["sup_excess"]
        if sup and row["sup_excess"] > sup[-1] + 1e-12 * max(1.0, sup[-1]):
            raise InvalidParams(
                f"sup_excess increased from {sup[-1]} to {row['sup_excess']} at t={row['t']}"
            )
        for key in CSV_COLUMNS:
            self.columns[key].append(row[key])

    def column(self, name):
        return np.asarray(self.columns[name], dtype=float)

    @property
    def t(self):
        return self.column("t")

    def to_csv(self):
        buf = io.StringIO()
        buf.write(",".join(CSV_COLUMNS) + "\n")
        for i in range(len(self)):
            buf.write(",".join(f"{self.columns[c][i]:.17g}" for c in CSV_COLUMNS))
            buf.write("\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text):
        """Parse `to_csv` output; each row passes the checks of `append`."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
            raise InvalidParams("bad series header")
        series = cls()
        for line in lines[1:]:
            try:
                row = dict(zip(CSV_COLUMNS, map(float, line.split(",")), strict=True))
            except ValueError:
                raise InvalidParams(f"bad series row: {line!r}") from None
            series.append(row)
        return series


def mass_balance_residual(series: TimeSeries):
    """Max relative defect of l1_excess(t) + absorbed(t) + boundary_out(t)
    against the initial excess mass; zero by convention for zero data."""
    l1 = series.column("l1_excess")
    if len(l1) == 0 or l1[0] == 0.0:
        return 0.0
    total = l1 + series.column("absorbed") + series.column("boundary_out")
    return float(np.max(np.abs(total - l1[0]))) / l1[0]
