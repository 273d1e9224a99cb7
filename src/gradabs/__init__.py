"""Numerical laboratory for the degenerate diffusion equation with
gradient absorption: exponent arithmetic, a regularized explicit solver,
observable extraction, decay-law fitting, and proof-machinery checks."""

__version__ = "0.1.0"
