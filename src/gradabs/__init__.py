"""Numerical laboratory for the degenerate diffusion equation with
gradient absorption: exponent arithmetic, a regularized explicit solver,
observable extraction, decay-law fitting, and proof-machinery checks."""

from .exponents import (ExponentSet, InvalidParams, Law, ProblemParams,
                        Regime, classify_regime, compute_exponents,
                        predicted_laws)
from .model import (BarenblattAt, Bump, DeadCoreAnnulus, a_eps, b_eps,
                    barenblatt_value, gamma_p_constant, parse_profile)
from .solver import (Grid, RunConfig, State, comparison_run, initial_state,
                     parse_config, run)
from .observe import TimeSeries, mass_balance_residual, support_radius
from .fit import FitResult, Verdict, fit_log_growth, fit_power, verdict

__version__ = "0.1.0"
