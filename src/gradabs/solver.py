"""Explicit conservative finite-difference evolution of the regularized
equation for radial data on a radial grid over [0, L].

A time step is the low-storage SSPRK(S, 2) method of Ketcheson (SIAM J. Sci.
Comput. 30, 2008), S = STAGES = 20: S forward Euler stages of step
tau = dt/(S-1) = dt/19 from u^n, then u <- u + (u^n - u)/S.  It is second
order in time and its SSP coefficient is S - 1 = 19 (Gottlieb, Shu and
Tadmor, SIAM Rev. 43, 2001): each stage is an Euler step at tau, so the step
keeps the floor and the ordering that an Euler step at tau keeps, and the
last line, a convex combination, leaves a cell with u = u^n, a floor cell in
particular, exactly where it is.  A step advances (S-1)/S = 0.95 of S Euler
steps at tau, and no monotone explicit method advances more than one Euler
step per stage (Kraaijevanger, BIT 31, 1991).
tau is at most the Euler CFL bound of u^n, which is taken once per step, at
its first stage, and not again at the later stages.  It need not be: on the
perfbench workloads, the 16 sweep-pq cells (up to their floor violation, if
any), pure diffusion at p in {2.5, 3, 4, 5} x N in {1, 2, 3} and the
acceptance runs cut to t = 16, no later stage's Euler step was measured
above SAFETY = 0.9 of its own monotone limit; the largest was 0.899999, on
bb_h0025, and 0.8998 at N = 2 and 3 (a test keeps the pure-diffusion
part).  The stages add their absorption, cell by cell, and their outflow to
running sums, which `_Stepper.ledgers` alone weights by (S-1)/S = 19/20.

The diffusion of an Euler stage is monotone under the CFL restriction; its
absorption, which sees the centered cell gradient (the mean of the cell's
two face gradients, at r = 0 the mirror-ghost difference), is not: where
q < p - 1, and on steep data at q >= p - 1 too, a floor cell next to the
support can undershoot the floor eps**gamma, which the stage checks for
instead of clamping and the CFL cap dt <= SAFETY * floor / b_max only limits.
The outer cell is pinned at the floor (the constant floor is an exact
solution); the origin is a zero-flux face at r = 0.  Every profile is a
function of the radius, so at N = 1 the grid holds one half of an even
solution on [-L, L].

The entry points are `run` and `comparison_run`, both driven by a
`RunConfig`, which rejects when it is built any config that no run can start
from.  `_Stepper.gradients` is the one place the face and centered
differences are formed, `_Stepper.stable_dt_from` the one CFL rule,
`_Stepper.step_window` the one stage kernel, `_Stepper.step` the one SSPRK
step and `_Stepper.ledgers` the one ledger reader, which `run` reads at each
record.  `_advance` is the one time loop, over one array, and calls only
`active_window` and `step` of its stepper: `run` drives it with the field,
and `comparison_run` with its two fields as the columns of one C-contiguous
(n, 2) array, so that one gradients and step_window call per stage, and one
CFL call per step, advance both in lockstep with a shared dt.  A stage writes
into the stepper's own scratch arrays, model.a_eps and model.b_eps included,
through views that are formed once per array and window, and the step's
combination writes into u^n and u, so a step allocates nothing.
Every ufunc of a stage gets array operands, 0-d arrays for the constants
(model.Coefficient), and its output positionally, not as an out= keyword
that it would parse on every call.
A stage works in a folded algebra that drops every constant factor from
its cell loops.  It keeps the face differences d = u_i - u_(i-1) = h g and
sc = (d_l + d_r)^2 = (2h)^2 gc^2, and its coefficients are regularized by
eps h and 2 eps h, so that model.a_eps(d^2) = h^(p-2) a_eps(g^2) and
model.b_eps(sc) = (2h)^q b_eps(gc^2), each still exactly 0 where d = 0 or
sc = 0.  The powers of h return as scalars: the flux difference is
multiplied by one window operand W = tau h^(1-p) / (r^(N-1) h), formed
once per tau, array and window (in practice once per step), the
absorption, and with it the absorbed ledger, by the 0-d tau (2h)^(-q), and
the outflow and the CFL rule's two maxima by the matching constants.
The extrema (a step's CFL maxima and comparison gap, a stage's floor-check
minimum) are read by index, x.item(x.argmax()), which costs less
than a reduction to a numpy scalar and returns the first NaN just as the
reduction propagates it.  The loop steps only the active window, taken
before every step: the cells above the floor (for a pair, the rows where
either field is) plus a padding the front cannot cross within the step.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import model, observe
from .exponents import InvalidParams, ProblemParams

FLOOR_SLACK = 1e-14

# share of the Euler monotone limit that a stage's tau takes
SAFETY = 0.9

# Euler stages per SSPRK(S, 2) step
STAGES = 20

# the update front moves at most one cell per stage, so an active window
# taken before every step with STAGES + 2 cells of padding is exact
WINDOW_PAD = STAGES + 2


# the most cells a grid may have; the battery's largest has 3400
MAX_CELLS = 10 ** 6


class NumericalError(RuntimeError):
    pass


class FloorViolationError(NumericalError):
    """Post-stage floor undershoot beyond roundoff: the centered absorption
    is not monotone, where q < p - 1 and on steep data at q >= p - 1 too,
    which the CFL cap only limits; a breached CFL bound gives it too."""


class SupportOverflowError(NumericalError):
    """The support radius exceeded 0.9 L; the domain is too small."""


def sphere_area(N):
    """Area of the unit sphere in R^N: 2, 2*pi, 4*pi, ..."""
    return 2.0 * math.pi ** (0.5 * N) / math.gamma(0.5 * N)


@dataclass(frozen=True)
class Grid:
    """Uniform radial cell grid over [0, L] in R^N, cell centers offset by
    h/2 from the origin."""

    h: float
    n: int
    N: int

    def __post_init__(self):
        """Rejects, before anything is allocated, a grid of too few or too
        many cells, and one whose r^(N-1) h, its reciprocal or omega_N
        r^(N-1) h is not a finite positive float at the first cell center or
        the outer face; r^(N-1) is monotone, so the other cells lie between."""
        if not self.h > 0.0:
            raise InvalidParams("h must be positive")
        if self.n < 16:
            raise InvalidParams("need at least 16 cells")
        if self.n > MAX_CELLS:
            raise InvalidParams(f"need at most {MAX_CELLS} cells, h={self.h} gives more")
        try:
            ends = [r ** (self.N - 1) * self.h for r in (0.5 * self.h, self.L)]
            ends += [1.0 / x for x in ends] + [sphere_area(self.N) * x for x in ends]
        except (OverflowError, ZeroDivisionError):
            ends = [0.0]
        if not all(0.0 < x < math.inf for x in ends):
            raise InvalidParams(f"the radial weights of R^{self.N} on [0, {self.L:g}] "
                                f"at h={self.h} overflow or underflow")

    @classmethod
    def from_extent(cls, h, L, N):
        # a non-positive h is left for __post_init__ to reject; a cell count
        # past MAX_CELLS is not rounded, since L/h may be infinite
        n = round(min(L / h, MAX_CELLS + 1)) if h > 0.0 else 0
        return cls(h, n, N)

    @property
    def L(self):
        return self.n * self.h

    def centers(self):
        return (np.arange(self.n) + 0.5) * self.h

    def cell_measures(self):
        """Quadrature weights omega_N r^{N-1} h."""
        r = self.centers()
        return sphere_area(self.N) * r ** (self.N - 1.0) * self.h


@dataclass
class State:
    """Discrete solution snapshot; values include the floor eps**gamma."""

    time: float
    values: np.ndarray
    params: ProblemParams
    grid: Grid
    absorbed_mass: float = 0.0
    boundary_out: float = 0.0

    @property
    def floor(self):
        return self.params.floor


def initial_state(params, grid, profile):
    """Sampled profile lifted by the floor, with the outer cell pinned."""
    vals = model.sample_profile(profile, grid, params) + params.floor
    vals[-1] = params.floor
    return State(profile.t0, vals, params, grid)


class _Stepper:
    """Precomputed geometry, per-step scratch, the ledgers' running sums and
    the in-place update kernel for one field, a 1-D array, or for k fields
    as the columns of one (n, k) array, each column stepped bit for bit as
    its field alone (their ledgers mix; nothing reads a pair's), with one
    absorption flag per field.  Views are formed once per array and window."""

    def __init__(self, params, grid, *absorption):
        self.absorption = any(absorption)
        self.p, self.q = params.p, params.q
        self.eps, self.floor = params.eps, params.floor
        h, n = grid.h, grid.n
        # the folded algebra: a stage works on the face differences
        # d = h g and on sc = (d_l + d_r)^2 = (2h)^2 gc^2, so the
        # coefficients regularized by eps h and 2 eps h return h^(p-2) a and
        # (2h)^q b; the powers of h come back as the scalars below
        self.eps_a, self.eps_b = self.eps * h, 2.0 * self.eps * h
        self.a_consts = model.Coefficient(self.eps_a, 0.5 * (self.p - 2.0))
        self.b_consts = model.Coefficient(self.eps_b, 0.5 * self.q)
        # dt = cfl / D_max is monotone while the divisor bounds every cell's
        # sum of flux-carrying face weights r^(N-1) over its own: 2 at N = 1
        # and N = 2 (every cell's sum), the origin cell's 2^(N-1) (face 1's
        # h^(N-1) over (h/2)^(N-1)) from N = 3 on; a power of two, so exact
        self.cfl = SAFETY * h ** self.p / max(2.0, 2.0 ** (params.N - 1))
        self.cap = SAFETY * self.floor * (2.0 * h) ** self.q   # dt <= cap / b_max
        self.flux_scale, self.abs_scale = h ** (1.0 - self.p), (2.0 * h) ** -self.q
        self.omega_out = sphere_area(grid.N) * self.flux_scale
        # 0-d operands of a stage, written when tau changes: tau h^(1-p) and
        # tau (2h)^(-q)
        self.tau_flux, self.tau_abs = np.array(0.0), np.array(0.0)
        # k > 1 fields take C-contiguous (n(+1), k) geometry and scratch, a
        # ufunc's fast path; the sc columns of fields without absorption are 0
        k = len(absorption)
        cols = (k,) if k > 1 else ()
        self.off_columns = [j for j, on in enumerate(absorption) if not on] if cols else []
        # face weights r^(N-1), cell factors 1/(r^(N-1) h) and cell measures;
        # face i lies between cells i-1 and i, and face 0 is the zero-flux
        # face at r = 0, whose gradient is never written, so it stays 0.
        # Face weights that are all exactly 1 (N = 1) are not multiplied in.
        rw = (np.arange(n + 1) * h) ** (grid.N - 1.0)
        self.weighted = bool(np.any(rw != 1.0))
        self.rw, self.inv_rch, self.cellw = (
            np.repeat(x[:, None], k, axis=1) if cols else x
            for x in (rw, 1.0 / (grid.centers() ** (grid.N - 1.0) * h), grid.cell_measures()))
        self.hi_max = n - 1                             # the last cell is pinned
        faces, cells = (n + 1,) + cols, (n,) + cols
        self.g, self.s, self.flux = np.zeros(faces), np.empty(faces), np.empty(faces)
        self.sc, self.div, self.babs = np.empty(cells), np.empty(cells), np.empty(cells)
        # tau h^(1-p) / (r^(N-1) h), u^n of an SSPRK step and S as a 0-d operand
        self.w, self.u_n = np.empty(cells), np.empty(cells)
        self.stages = np.array(float(STAGES))
        self._u, self._a, self._b, self._tau = None, -1, -1, None
        self.absorbed_cells, self.outflow = np.zeros(cells), 0.0

    def _bind(self, u, a, b):
        """Form the views of u and of the scratch that a step of cells
        [a, b) uses, unless they are already formed for this very array and
        window.  The array is held by reference, not by id(), so a different
        array always gets views of its own."""
        if u is self._u and a == self._a and b == self._b:
            return
        lo, m = max(a, 1), b - a
        g, flux = self.g[a:b + 1], self.flux[:m + 1]
        self._grad_views = (u[lo:b + 1], u[lo - 1:b], self.g[lo:b + 1], g,
                            self.s[:m + 1], g[:-1], g[1:], self.sc[:m],
                            [self.sc[:m, j] for j in self.off_columns])
        self._step_views = (flux, flux[1:], flux[:-1],
                            self.rw[a:b + 1] if self.weighted else None,
                            self.div[:m], self.inv_rch[a:b], self.w[:m], u[a:b],
                            self.babs[:m], self.absorbed_cells[a:b])
        self._u, self._a, self._b, self._tau = u, a, b, None

    # -- gradients and CFL ---------------------------------------------------

    def gradients(self, u, a, b):
        """Gradients seen by a step of cells [a, b), in the folded algebra:
        the face differences d = h g on the b - a + 1 bounding faces, their
        squares s, and sc = (d_l + d_r)^2, the squared centered cell gradient
        times (2h)^2 (0 in the columns of the fields without absorption), or
        sc = None when no field has absorption.  At r = 0 the centered
        gradient is the mirror-ghost difference.

        The arrays are views on this stepper's scratch and are overwritten
        by its next call; k fields stepped together are the columns of one
        (n, k) array, so that one call forms the gradients of them all."""
        self._bind(u, a, b)
        u_right, u_left, inner, d, s, d_left, d_right, sc, off = self._grad_views
        np.subtract(u_right, u_left, inner)
        np.multiply(d, d, s)
        if not self.absorption:
            return d, s, None
        np.add(d_left, d_right, sc)
        np.multiply(sc, sc, sc)
        for column in off:
            column.fill(0.0)
        return d, s, sc

    def stable_dt_from(self, s, sc):
        """Euler stage bound SAFETY * h^2 / (max(2, 2^(N-1)) D_max), capped
        so one absorption stage cannot undershoot the floor;
        effective_diffusivity and b_eps are increasing in s, so the face/cell
        maxima suffice.  On the folded s and sc they return h^(p-2) D and
        (2h)^q b, which cfl and cap absorb.  A NaN gradient gives dt = NaN,
        and maxima whose coefficients overflow a float raise NumericalError."""
        try:
            dmax = model.effective_diffusivity(s.item(s.argmax()), self.eps_a, self.p)
            bmax = 0.0 if sc is None else model.b_eps(sc.item(sc.argmax()),
                                                      self.eps_b, self.q)
        except OverflowError as exc:
            raise NumericalError(f"CFL bound overflows a float: {exc}") from None
        dt = self.cfl / dmax
        if bmax > 0.0:
            dt = min(dt, self.cap / bmax)
        return dt

    # -- one step on a window, and the active window -------------------------

    def step_window(self, u, a, b, dt, grads):
        """Advance cells [a, b) by one forward Euler stage of size dt, where
        grads is this stepper's gradients(u, a, b); dt is bounded by the
        stable_dt_from of the first stage of the step.

        Cells outside [a, b) must be at the floor beyond one padding cell so
        that the omitted fluxes vanish identically.
        """
        self._bind(u, a, b)
        d, s, sc = grads
        (flux, flux_right, flux_left, rw, div, inv_rch, w, uw, babs,
         absorbed) = self._step_views
        if dt != self._tau:
            # the stage's operands, formed once per tau, array and window
            self.tau_flux[()], self.tau_abs[()] = dt * self.flux_scale, dt * self.abs_scale
            np.multiply(inv_rch, self.tau_flux, w)
            self._tau = dt

        # radially weighted flux h^(p-1) r^(N-1) a_eps g on the faces; rw is
        # None at N = 1, where every weight is 1
        model.a_eps(s, self.eps_a, self.p, flux, self.a_consts)
        np.multiply(flux, d, flux)
        if rw is not None:
            np.multiply(flux, rw, flux)
        np.subtract(flux_right, flux_left, div)
        np.multiply(div, w, div)
        self.outflow += dt * self.omega_out * (flux.item(0) - flux.item(-1))
        np.add(uw, div, uw)

        if sc is not None:
            model.b_eps(sc, self.eps_b, self.q, babs, self.b_consts)
            np.multiply(babs, self.tau_abs, babs)
            np.add(absorbed, babs, absorbed)
            np.subtract(uw, babs, uw)

        umin = uw.item(uw.argmin())
        if umin < self.floor - FLOOR_SLACK:
            raise FloorViolationError(
                f"floor violated by {self.floor - umin:.3e} at t-step dt={dt:.3e}"
            )

    def step(self, u, a, b, dt_max):
        """One SSPRK(S, 2) step of cells [a, b), returning its dt, the lesser of
        dt_max and S - 1 times the CFL bound of u^n: S Euler stages of tau =
        dt/(S-1), then u += (u^n - u)/S."""
        g = self.gradients(u, a, b)
        dt = min((STAGES - 1) * self.stable_dt_from(g[1], g[2]), dt_max)
        tau = dt / (STAGES - 1)
        uw, un = u[a:b], self.u_n[:b - a]
        np.copyto(un, uw)
        self.step_window(u, a, b, tau, g)
        for _ in range(STAGES - 1):
            self.step_window(u, a, b, tau, self.gradients(u, a, b))
        np.subtract(un, uw, un)
        np.divide(un, self.stages, un)
        np.add(uw, un, uw)
        return dt

    def ledgers(self):
        """(absorbed, boundary outflow): the stages' sums times (S-1)/S."""
        weight = (STAGES - 1) / STAGES
        return weight * float(np.vdot(self.absorbed_cells, self.cellw)), weight * self.outflow

    def active_window(self, u):
        active = np.nonzero(u > self.floor)[0]
        if active.size == 0:
            return None
        a = max(int(active[0]) - WINDOW_PAD, 0)
        b = min(int(active[-1]) + 1 + WINDOW_PAD, self.hi_max)
        return a, b


def _advance(stepper, u, t, t_target, after_step=None):
    """Step u in place from t to t_target, hit exactly, by SSPRK(STAGES, 2)
    steps, each on the active window taken before it.  Calls after_step(a, b),
    if given, after every step of window [a, b); returns early once u is at
    the floor, a steady state."""
    t_stop = t_target - 1e-15 * max(1.0, t_target)
    while t < t_stop:
        win = stepper.active_window(u)
        if win is None:
            return
        t += stepper.step(u, *win, t_target - t)
        if after_step is not None:
            after_step(*win)


# ---------------------------------------------------------------------------
# run configuration


DOMAIN_MARGIN = 1.25


@dataclass(frozen=True)
class RunConfig:
    p: float
    q: float
    N: int = 1
    eps: float = 1e-3
    h: float = 0.005
    L: float | None = None
    t_end: float = 16.0
    profile: str = "bump:R0=1,H=1,m=2"
    absorption: bool = True
    record_start: float = 0.0625

    def __post_init__(self):
        """A config that no run can start from is rejected when it is built:
        a number that is not finite, a step scalar that a float cannot hold,
        and the checks of ProblemParams, Grid and model.sample_profile."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidParams(f"{f.name} must be a finite number, got {f.name}={value}")
        params = self.params()
        for ok, rule in ((self.record_start > 0.0, "record_start > 0"),
                         (self.t_end > self.profile_obj().t0, "t_end > the profile's t0"),
                         (self.L is None or self.L > 0.0, "L > 0")):
            if not ok:
                raise InvalidParams(f"need {rule}")
        grid = self.grid()
        # the powers of h that a stage takes as scalars (_Stepper), checked
        # as Grid checks its radial weights
        h, p, q = self.h, self.p, self.q
        try:
            scalars = (h ** p, h ** (1.0 - p), (2.0 * h) ** q, (2.0 * h) ** -q)
        except OverflowError:
            scalars = (0.0,)
        if not all(0.0 < x < math.inf for x in scalars):
            raise InvalidParams(f"h^p, h^(1-p), (2h)^q or (2h)^(-q) at h={h}, p={p}, "
                                f"q={q} overflows or underflows")
        model.sample_profile(self.profile_obj(), grid, params)

    def params(self):
        return ProblemParams(self.p, self.q, self.N, self.eps)

    def profile_obj(self):
        return model.parse_profile(self.profile)

    def domain_extent(self):
        """User-supplied L, or margin * (R0 + 2 * the Barenblatt support
        radius at t_end)."""
        if self.L is not None:
            return self.L
        r0 = self.profile_obj().support_radius(self.params())
        edge = model.barenblatt_support_radius(self.t_end, self.p, self.N)
        return DOMAIN_MARGIN * (r0 + 2.0 * edge)

    def grid(self):
        return Grid.from_extent(self.h, self.domain_extent(), self.N)


CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))
REQUIRED_KEYS = tuple(f.name for f in fields(RunConfig) if f.default is MISSING)


def parse_config(text) -> RunConfig:
    """Parse a plain-text key=value run configuration; p and q are required.
    The grid is radial, and `geometry = radial` is accepted for configs that
    say so."""
    kwargs = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not val:
            raise InvalidParams(f"line {lineno}: expected key=value, got {line!r}")
        if key not in CONFIG_KEYS and key != "geometry":
            raise InvalidParams(f"line {lineno}: unknown key {key!r}")
        if key in kwargs:
            raise InvalidParams(f"line {lineno}: duplicate key {key!r}")
        if key == "geometry":
            if val != "radial":
                raise InvalidParams(f"line {lineno}: geometry must be radial, got {val!r}")
        elif key == "absorption":
            if val not in ("on", "off"):
                raise InvalidParams(f"line {lineno}: absorption must be on or off, "
                                    f"got {val!r}")
            val = val == "on"
        elif key == "profile":
            try:
                model.parse_profile(val)
            except InvalidParams as exc:
                raise InvalidParams(f"line {lineno}: {exc}") from None
        else:
            kind, noun = (int, "an integer") if key == "N" else (float, "a number")
            try:
                val = kind(val)
            except ValueError:
                raise InvalidParams(f"line {lineno}: {key} must be {noun}, "
                                    f"got {val!r}") from None
        kwargs[key] = val
    missing = [key for key in REQUIRED_KEYS if key not in kwargs]
    if missing:
        raise InvalidParams(f"missing required key(s) {', '.join(missing)}")
    kwargs.pop("geometry", None)
    return RunConfig(**kwargs)


def record_times(t_start, t_end, record_start):
    """Quarter-octave geometric recording times in (t_start, t_end]."""
    times = []
    j = 0
    while True:
        t = record_start * 2.0 ** (0.25 * j)
        if t > t_end * (1.0 + 1e-12):
            break
        if t > t_start * (1.0 + 1e-12):
            times.append(t)
        j += 1
    if not times or times[-1] < t_end * (1.0 - 1e-9):
        times.append(t_end)
    return times


def run(config: RunConfig, on_record=None):
    """Evolve the configured problem, recording observables at geometric
    times.  Returns (final state, time series)."""
    params = config.params()
    grid = config.grid()
    state = initial_state(params, grid, config.profile_obj())

    series = observe.TimeSeries()
    ref_sup = float(state.values.max()) - params.floor
    series.append(observe.observe(state, ref_sup))
    if on_record is not None:
        on_record(state)

    stepper = _Stepper(params, grid, config.absorption)
    for t in record_times(state.time, config.t_end, config.record_start):
        _advance(stepper, state.values, state.time, t)
        state.time = t
        state.absorbed_mass, state.boundary_out = stepper.ledgers()
        if not np.all(np.isfinite(state.values)):
            raise NumericalError(f"non-finite field at t={t:g}")
        row = observe.observe(state, ref_sup)
        if row["rho"] > 0.9 * grid.L:
            raise SupportOverflowError(
                f"support overflow: radius {row['rho']:.3g} exceeds 0.9 L = "
                f"{0.9 * grid.L:.3g} at t={t:g}; enlarge L"
            )
        series.append(row)
        if on_record is not None:
            on_record(state)
    return state, series


def comparison_run(profile_a, profile_b, config: RunConfig,
                   absorption_a=None, absorption_b=None):
    """Evolve two ordered profiles from their shared t0 with an identical dt
    sequence and report the worst ordering violation max_t max_i (uA - uB)_+.

    Both fields advance as the two columns of one (n, 2) array through one
    `_Stepper` and `_advance`, so each stage makes one gradients and one
    step call for the pair, and each step one CFL call, on the union of the
    two fields' active windows.  The gap is taken once per step, below the
    window's end, past which both sit exactly at the floor.  The final
    fields are copied back into the two initial states' arrays."""
    t0 = profile_a.t0
    if profile_b.t0 != t0 or not config.t_end > t0:
        raise InvalidParams(f"need two profiles of one start time t0 < t_end, got "
                            f"t0={t0} and {profile_b.t0}, t_end={config.t_end}")
    params, grid = config.params(), config.grid()
    ua = initial_state(params, grid, profile_a).values
    ub = initial_state(params, grid, profile_b).values
    if np.any(ua > ub + 1e-15):
        raise InvalidParams("profile_a must lie below profile_b pointwise")
    u = np.stack((ua, ub), axis=1)
    flags = [config.absorption if on is None else on for on in (absorption_a, absorption_b)]
    stepper = _Stepper(params, grid, *flags)
    worst = 0.0

    def take_gap(a, b):
        nonlocal worst
        gap = u[:b, 0] - u[:b, 1]
        worst = max(worst, gap.item(gap.argmax()))

    _advance(stepper, u, t0, config.t_end, take_gap)
    ua[:], ub[:] = u[:, 0], u[:, 1]
    return {"max_violation": max(worst, 0.0), "t_end": config.t_end}
