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
part).  The ledgers book each stage's absorption and outflow at tau, and the
combination scales the step's increments by (S-1)/S = 19/20.

The diffusion of an Euler stage is monotone under the CFL restriction; its
absorption, which sees the centered cell gradient (the mean of the cell's
two face gradients, at r = 0 the mirror-ghost difference), is not monotone
where q < p - 1: a floor cell next to the support can undershoot the floor
eps**gamma, which the stage checks for instead of clamping, and which the
CFL cap dt <= SAFETY * floor / b_max only limits.
The outer cell is pinned at the floor (the constant floor is an exact
solution); the origin is a zero-flux face at r = 0.  Every profile is a
function of the radius, so at N = 1 the grid holds one half of an even
solution on [-L, L].

The entry points are `run` and `comparison_run`, both driven by a
`RunConfig`, which rejects when it is built any config that no run can start
from.  `_Stepper.gradients` is the one place the face and centered
differences are formed, `_Stepper.stable_dt_from` the one CFL rule and
`_Stepper.step_window` the one stage kernel.  `_advance` is the one time
loop, over one array: `run` drives it with the field, and `comparison_run`
with its two fields laid out in one mirrored buffer [u_B reversed | u_A], so
that one gradients and step call per stage, and one CFL call per step,
advance both in lockstep with a shared dt.  A stage writes into the
stepper's own scratch arrays, model.a_eps and model.b_eps included, through
views that are formed once per array and window, and the step's
combination writes into u^n and u, so a step allocates nothing.
Every ufunc of a stage gets array operands and its output positionally: the
coefficients' constants (model.Coefficient) are 0-d arrays built once per
stepper.  A ufunc converts a Python float operand on every call and parses
an out= keyword, and on a window of a few hundred cells that is a large
share of the call.
A stage works in a folded algebra that drops every constant factor from
its cell loops.  It keeps the face differences d = u_i - u_(i-1) = h g and
sc = (d_l + d_r)^2 = (2h)^2 gc^2, and its coefficients are regularized by
eps h and 2 eps h, so that model.a_eps(d^2) = h^(p-2) a_eps(g^2) and
model.b_eps(sc) = (2h)^q b_eps(gc^2), each still exactly 0 where d = 0 or
sc = 0.  The powers of h return as scalars: the flux difference is
multiplied by one window operand W = tau h^(1-p) / (r^(N-1) h), formed
once per tau, array and window (in practice once per step), the
absorption by the 0-d tau (2h)^(-q), and the ledgers and the CFL rule's
two maxima by the matching constants.
The extrema (a step's CFL maxima and comparison gap, a stage's floor-check
minimum) are read by index, x.item(x.argmax()), which costs less
than a reduction to a numpy scalar and returns the first NaN just as the
reduction propagates it.  The loop steps only the active window: the cells
above the floor plus a padding the front cannot cross before the window is
refreshed.
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

# Active-window bookkeeping: the update front moves at most one cell per
# stage, so refreshing every WINDOW_EVERY stages (a whole number of steps)
# with WINDOW_EVERY + 2 cells of padding is exact.
WINDOW_EVERY = 3 * STAGES
WINDOW_PAD = WINDOW_EVERY + 2


# the most cells a grid may have; the battery's largest has 3400
MAX_CELLS = 10 ** 6


class ConfigError(ValueError):
    pass


class NumericalError(RuntimeError):
    pass


class FloorViolationError(NumericalError):
    """Post-stage floor undershoot beyond roundoff: where q < p - 1 the
    centered absorption is not monotone, which the CFL cap only limits; a
    breached CFL bound gives it too."""


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
            raise ConfigError("h must be positive")
        if self.n < 16:
            raise ConfigError("need at least 16 cells")
        if self.n > MAX_CELLS:
            raise ConfigError(f"need at most {MAX_CELLS} cells, h={self.h} gives more")
        try:
            ends = [r ** (self.N - 1) * self.h for r in (0.5 * self.h, self.L)]
            ends += [1.0 / x for x in ends] + [sphere_area(self.N) * x for x in ends]
        except (OverflowError, ZeroDivisionError):
            ends = [0.0]
        if not all(0.0 < x < math.inf for x in ends):
            raise ConfigError(f"the radial weights of R^{self.N} on [0, {self.L:g}] "
                              f"at h={self.h} overflow or underflow")

    @classmethod
    def from_extent(cls, h, L, N):
        # a non-positive h is left for __post_init__ to reject; a cell count
        # past MAX_CELLS is not rounded, since L/h may be infinite
        n = max(16, round(min(L / h, MAX_CELLS + 1))) if h > 0.0 else 0
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
    """Precomputed geometry data, per-step scratch and the in-place update
    kernel for one field of a grid, or, built by `mirrored`, for the two
    fields of a comparison laid out in one buffer.  The views a step of
    cells [a, b) takes of its field and of the scratch are formed once per
    field and window, so a step allocates nothing."""

    def __init__(self, params, grid, absorption):
        self.absorption = absorption
        self.p, self.q = params.p, params.q
        self.eps, self.floor = params.eps, params.floor
        h = grid.h
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
        # face weights r^(N-1) and cell factors 1/(r^(N-1) h); face 0 is the
        # zero-flux face at r = 0
        self._lay_out((np.arange(grid.n + 1) * h) ** (grid.N - 1.0),
                      1.0 / (grid.centers() ** (grid.N - 1.0) * h),
                      grid.cell_measures(), 0, None, (0, 0))
        self.absorbed = 0.0
        self.boundary_out = 0.0

    def _lay_out(self, rw, inv_rch, cellw, lo_min, junction, no_absorption):
        """Set the geometry of a field of cellw.size cells and allocate the
        scratch.  Face i lies between cells i-1 and i; the junction face's
        gradient, if there is a junction, is 0 at every step, and the cells in
        the range no_absorption = (first, stop) see no absorption.  Face 0's
        gradient is never written, so it stays 0.  Face weights that are all
        exactly 1 (N = 1) are not multiplied in."""
        n = cellw.size
        self.rw, self.inv_rch, self.cellw = rw, inv_rch, cellw
        self.weighted = bool(np.any(rw != 1.0))
        self.lo_min, self.hi_max = lo_min, n - 1      # the last cell is pinned
        self.junction, self.no_absorption = junction, no_absorption
        self.g, self.s, self.flux = np.zeros(n + 1), np.empty(n + 1), np.empty(n + 1)
        self.sc, self.div, self.babs = np.empty(n), np.empty(n), np.empty(n)
        self.w = np.empty(n)                            # tau h^(1-p) / (r^(N-1) h)
        self.u_n = np.empty(n)                          # u^n of an SSPRK step
        self._u, self._a, self._b, self._tau = None, -1, -1, None

    @classmethod
    def mirrored(cls, params, grid, absorption_a, absorption_b):
        """One stepper for fields A and B of grid laid out as [B reversed | A],
        their r = 0 faces meeting at face n.  Reversal negates B's face
        gradients and fluxes exactly, so a step of the buffer is bit for bit
        a step of each field, with dt the least of their CFL bounds.  A field
        without absorption sees sc = 0.  The ledgers mix the fields."""
        st = cls(params, grid, absorption_a or absorption_b)
        n = grid.n
        st._lay_out(np.concatenate((st.rw[:0:-1], st.rw)),
                    np.concatenate((st.inv_rch[::-1], st.inv_rch)),
                    np.concatenate((st.cellw[::-1], st.cellw)), 1, n,
                    (n if absorption_b else 0, n if absorption_a else 2 * n))
        return st

    def _bind(self, u, a, b):
        """Form the views of u and of the scratch that a step of cells
        [a, b) uses, unless they are already formed for this very array and
        window.  The array is held by reference, not by id(), so a different
        array always gets views of its own."""
        if u is self._u and a == self._a and b == self._b:
            return
        lo, m = max(a, 1), b - a
        g, flux = self.g[a:b + 1], self.flux[:m + 1]
        z0, z1 = max(self.no_absorption[0], a), min(self.no_absorption[1], b)
        self._grad_views = (u[lo:b + 1], u[lo - 1:b], self.g[lo:b + 1], g,
                            self.s[:m + 1], g[:-1], g[1:], self.sc[:m],
                            self.sc[z0 - a:z1 - a] if z0 < z1 else None)
        self._step_views = (flux, flux[1:], flux[:-1],
                            self.rw[a:b + 1] if self.weighted else None,
                            self.div[:m], self.inv_rch[a:b], self.w[:m], u[a:b],
                            self.babs[:m], self.cellw[a:b])
        self._u, self._a, self._b, self._tau = u, a, b, None

    # -- gradients and CFL ---------------------------------------------------

    def gradients(self, u, a, b):
        """Gradients seen by a step of cells [a, b), in the folded algebra:
        the face differences d = h g on the b - a + 1 bounding faces (0 on
        the junction face), their squares s, and sc = (d_l + d_r)^2, the
        squared centered cell gradient times (2h)^2 (0 on the cells without
        absorption), or sc = None when absorption is off.  At r = 0 the
        centered gradient is the mirror-ghost difference.

        The arrays are views on this stepper's scratch and are overwritten
        by its next call, so a caller that holds the gradients of several
        fields at once needs one stepper per field."""
        self._bind(u, a, b)
        u_right, u_left, inner, d, s, d_left, d_right, sc, no_absorption = self._grad_views
        np.subtract(u_right, u_left, inner)
        if self.junction is not None:
            self.g[self.junction] = 0.0
        np.multiply(d, d, s)
        if not self.absorption:
            return d, s, None
        np.add(d_left, d_right, sc)
        np.multiply(sc, sc, sc)
        if no_absorption is not None:
            no_absorption.fill(0.0)
        return d, s, sc

    def stable_dt_from(self, s, sc):
        """Euler stage bound SAFETY * h^2 / (max(2, 2^(N-1)) D_max), capped
        so one absorption stage cannot undershoot the floor;
        effective_diffusivity and b_eps are increasing in s, so the face/cell
        maxima suffice.  On the folded s and sc they return h^(p-2) D and
        (2h)^q b, which cfl and cap absorb.  A NaN gradient gives dt = NaN."""
        dmax = model.effective_diffusivity(s.item(s.argmax()), self.eps_a, self.p)
        dt = self.cfl / dmax
        if sc is not None:
            bmax = model.b_eps(sc.item(sc.argmax()), self.eps_b, self.q)
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
        flux, flux_right, flux_left, rw, div, inv_rch, w, uw, babs, cellw = self._step_views
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
        self.boundary_out += dt * self.omega_out * (flux.item(0) - flux.item(-1))
        np.add(uw, div, uw)

        if sc is not None:
            model.b_eps(sc, self.eps_b, self.q, babs, self.b_consts)
            self.absorbed += self.tau_abs.item() * float(babs.dot(cellw))
            np.multiply(babs, self.tau_abs, babs)
            np.subtract(uw, babs, uw)

        umin = uw.item(uw.argmin())
        if umin < self.floor - FLOOR_SLACK:
            raise FloorViolationError(
                f"floor violated by {self.floor - umin:.3e} at t-step dt={dt:.3e}"
            )

    def active_window(self, u):
        active = np.nonzero(u > self.floor)[0]
        if active.size == 0:
            return None
        a = max(int(active[0]) - WINDOW_PAD, self.lo_min)
        b = min(int(active[-1]) + 1 + WINDOW_PAD, self.hi_max)
        return a, b


def _advance(stepper, u, t, t_target, after_step=None):
    """Step u in place from t to t_target, hit exactly, by SSPRK(STAGES, 2)
    steps on its active window, refreshed every WINDOW_EVERY stages.  Calls
    after_step(a, b), if given, after every step of window [a, b); returns
    early once u is at the floor, a steady state."""
    t_stop = t_target - 1e-15 * max(1.0, t_target)
    keep, stages = (STAGES - 1) / STAGES, np.array(float(STAGES))
    while t < t_stop:
        win = stepper.active_window(u)
        if win is None:
            return
        a, b = win
        uw, un = u[a:b], stepper.u_n[:b - a]
        for _ in range(WINDOW_EVERY // STAGES):
            g = stepper.gradients(u, a, b)
            dt = min((STAGES - 1) * stepper.stable_dt_from(g[1], g[2]), t_target - t)
            tau = dt / (STAGES - 1)
            np.copyto(un, uw)
            absorbed, out = stepper.absorbed, stepper.boundary_out
            stepper.step_window(u, a, b, tau, g)
            for _ in range(STAGES - 1):
                stepper.step_window(u, a, b, tau, stepper.gradients(u, a, b))
            # u += (u^n - u) / S, in place
            np.subtract(un, uw, un)
            np.divide(un, stages, un)
            np.add(uw, un, uw)
            stepper.absorbed = absorbed + (stepper.absorbed - absorbed) * keep
            stepper.boundary_out = out + (stepper.boundary_out - out) * keep
            t += dt
            if after_step is not None:
                after_step(a, b)
            if t >= t_stop:
                return


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
    try:
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if not sep or not val:
                raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
            if key not in CONFIG_KEYS and key != "geometry":
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in kwargs:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            if key == "geometry":
                if val != "radial":
                    raise ConfigError(f"line {lineno}: geometry must be radial, got {val!r}")
            elif key == "absorption":
                if val not in ("on", "off"):
                    raise ConfigError(f"line {lineno}: absorption must be on or off, "
                                      f"got {val!r}")
                val = val == "on"
            elif key == "profile":
                try:
                    model.parse_profile(val)
                except ValueError as exc:
                    raise ConfigError(f"line {lineno}: {exc}") from None
            else:
                kind, noun = (int, "an integer") if key == "N" else (float, "a number")
                try:
                    val = kind(val)
                except ValueError:
                    raise ConfigError(f"line {lineno}: {key} must be {noun}, "
                                      f"got {val!r}") from None
            kwargs[key] = val
        missing = [key for key in REQUIRED_KEYS if key not in kwargs]
        if missing:
            raise ConfigError(f"missing required key(s) {', '.join(missing)}")
        kwargs.pop("geometry", None)
        return RunConfig(**kwargs)
    except ValueError as exc:         # InvalidParams from RunConfig
        raise ConfigError(str(exc)) from None


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
        state.absorbed_mass = stepper.absorbed
        state.boundary_out = stepper.boundary_out
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
    """Evolve two ordered initial profiles with an identical dt sequence and
    report the worst ordering violation max_t max_i (uA - uB)_+.

    Both fields advance as one buffer [uB reversed | uA] through one
    `_Stepper.mirrored` and `_advance`, so each stage makes one gradients
    and one step call for the pair, and each step one CFL call, on a window
    that holds each field's own active window.  The gap is taken once per
    step, on the cells where either field may lie above the floor;
    elsewhere both sit exactly at it.  The final fields are copied back into
    the two initial states' arrays."""
    params = config.params()
    grid = config.grid()
    ua = initial_state(params, grid, profile_a).values
    ub = initial_state(params, grid, profile_b).values
    if np.any(ua > ub + 1e-15):
        raise InvalidParams("profile_a must lie below profile_b pointwise")
    aa = config.absorption if absorption_a is None else absorption_a
    ab = config.absorption if absorption_b is None else absorption_b
    n = grid.n
    buf = np.concatenate((ub[::-1], ua))
    buf_a, buf_b = buf[n:], buf[n - 1::-1]    # ua[i] and ub[i]
    stepper = _Stepper.mirrored(params, grid, aa, ab)
    worst = 0.0

    def take_gap(a, b):
        nonlocal worst
        m = max(b - n, n - a)         # from cell m on both fields sit at the floor
        gap = buf_a[:m] - buf_b[:m]
        worst = max(worst, gap.item(gap.argmax()))

    _advance(stepper, buf, 0.0, config.t_end, take_gap)
    ua[:], ub[:] = buf_a, buf_b
    return {"max_violation": max(worst, 0.0), "t_end": config.t_end}
