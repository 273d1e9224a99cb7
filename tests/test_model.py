import numpy as np
import pytest
from barenblatt_oracle import barenblatt_residual, barenblatt_time_derivative

from gradabs import model
from gradabs.exponents import InvalidParams, ProblemParams
from gradabs.solver import Grid


def test_a_eps_examples():
    assert model.a_eps(1.0, 0.0, 3.0) == pytest.approx(1.0)
    assert model.a_eps(0.0, 0.5, 4.0) == pytest.approx(0.25)
    assert model.a_eps(3.0, 1.0, 3.0) == pytest.approx(2.0)


def test_b_eps_examples():
    assert model.b_eps(4.0, 0.0, 2.0) == pytest.approx(4.0)
    assert model.b_eps(0.0, 0.3, 1.7) == 0.0
    assert model.b_eps(3.0, 1.0, 2.0) == pytest.approx(3.0)


def test_b_eps_bounds():
    rng = np.random.default_rng(0)
    s = rng.uniform(0.0, 50.0, 500)
    for eps, q in ((1e-3, 1.2), (0.2, 2.0), (0.4, 3.5)):
        b = model.b_eps(s, eps, q)
        assert np.all(b >= 0.0)
        assert np.all(b <= (eps * eps + s) ** (0.5 * q))


def test_effective_diffusivity_examples():
    assert model.effective_diffusivity(0.0, 1.0, 3.0) == pytest.approx(1.0)
    assert model.effective_diffusivity(1.0, 0.0, 3.0) == pytest.approx(2.0)


def test_effective_diffusivity_is_flux_derivative():
    # centered finite difference of g -> a_eps(g^2) g
    rng = np.random.default_rng(1)
    for _ in range(100):
        s = rng.uniform(0.01, 20.0)
        eps = rng.uniform(1e-3, 0.4)
        p = rng.uniform(2.1, 5.0)
        g = np.sqrt(s)
        dg = 1e-6 * g
        flux = lambda x: model.a_eps(x * x, eps, p) * x
        fd = (flux(g + dg) - flux(g - dg)) / (2.0 * dg)
        assert model.effective_diffusivity(s, eps, p) == pytest.approx(fd, rel=1e-6)


def test_coefficients_nondecreasing_in_s():
    rng = np.random.default_rng(2)
    s = np.sort(rng.uniform(0.0, 30.0, 300))
    for eps in (0.0, 1e-3, 0.3):
        for p in (2.1, 3.0, 4.5):
            assert np.all(np.diff(model.a_eps(s, eps, p)) >= 0.0)
            assert np.all(np.diff(model.effective_diffusivity(s, eps, p)) >= -1e-15)
        for q in (1.1, 2.0, 3.5):
            assert np.all(np.diff(model.b_eps(s, eps, q)) >= 0.0)


@pytest.mark.parametrize("p,q", [(3.0, 2.0), (3.0, 1.6), (4.0, 4.0), (6.0, 1.2),
                                 (3.5, 3.0)])
def test_coefficients_write_into_out(p, q):
    # bit for bit the plain formulas, on arrays (where the exponents 0.5, 1
    # and 2 take numpy's fast scalar-power paths) and on Python floats; an
    # array out is written through 0-d constants that, as a stepper does,
    # are built once and reused
    def a_plain(s, eps):
        return (eps * eps + s) ** (0.5 * (p - 2.0))

    def b_plain(s, eps):
        return (eps * eps + s) ** (0.5 * q) - (eps * eps) ** (0.5 * q)

    s = np.random.default_rng(3).uniform(0.0, 40.0, 257)
    s[0] = 0.0
    for eps in (1e-3, 0.3):
        for coef, k, plain, consts in (
                (model.a_eps, p, a_plain, model.Coefficient(eps, 0.5 * (p - 2.0))),
                (model.b_eps, q, b_plain, model.Coefficient(eps, 0.5 * q))):
            out = np.empty_like(s)
            for _ in range(2):
                out.fill(np.nan)
                assert coef(s, eps, k, out, consts) is out
                assert np.array_equal(out, plain(s, eps))
            assert all(coef(x, eps, k) == plain(x, eps) for x in s[:32].tolist())
    out = model.b_eps(s, 0.3, q, np.empty_like(s), model.Coefficient(0.3, 0.5 * q))
    assert out[0] == 0.0


def test_gamma_p_examples():
    assert model.gamma_p_constant(3.0, 1) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert model.gamma_p_constant(4.0, 1) == pytest.approx(
        0.5 * (1.0 / 6.0) ** (1.0 / 3.0))
    with pytest.raises(InvalidParams):
        model.gamma_p_constant(2.0, 1)


def test_barenblatt_residual_vanishes():
    # every (p, N) at which the battery, the benchmark or the tests evaluate
    # gamma_p, (3, 1), (3.5, 2), (4, 1) and (4, 3), and the grid around them
    rng = np.random.default_rng(3)
    for p in (2.5, 3.0, 3.5, 4.0, 5.0, 6.0):
        for N in (1, 2, 3):
            t = rng.uniform(1.0, 2.0, 100)
            edge = model.barenblatt_support_radius(1.0, p, N)
            r = rng.uniform(0.0, 0.95 * edge, 100)
            gp = model.gamma_p_constant(p, N)
            res = barenblatt_residual(t, r, p, N, gp)
            scale = np.max(np.abs(barenblatt_time_derivative(t, r, p, N, gp)))
            assert np.max(np.abs(res)) <= 1e-8 * max(scale, 1.0), (p, N)


def test_residual_oracle_rejects_wrong_profile_constant():
    # the residual vanishes only at the exact constant 1/6 (p=3, N=1)
    t = np.linspace(1.0, 2.0, 20)
    r = np.linspace(0.1, 1.5, 20)
    good = np.max(np.abs(barenblatt_residual(t, r, 3.0, 1, gamma=1.0 / 6.0)))
    bad = np.max(np.abs(barenblatt_residual(t, r, 3.0, 1, gamma=0.2)))
    assert good <= 1e-12
    assert bad > 1e-2


def test_time_derivative_matches_finite_difference():
    p, N = 3.0, 1
    t = 1.3
    r = np.linspace(0.0, 0.8 * model.barenblatt_support_radius(t, p, N), 50)
    dt = 1e-6
    fd = (model.barenblatt_value(t + dt, r, p, N)
          - model.barenblatt_value(t - dt, r, p, N)) / (2.0 * dt)
    exact = barenblatt_time_derivative(t, r, p, N, model.gamma_p_constant(p, N))
    assert np.max(np.abs(fd - exact)) <= 1e-6


def test_barenblatt_values():
    assert model.barenblatt_value(1.0, 0.0, 3.0, 1) == pytest.approx(1.0)
    edge = model.barenblatt_support_radius(1.0, 3.0, 1)
    assert edge == pytest.approx(6.0 ** (2.0 / 3.0))
    assert model.barenblatt_value(1.0, edge, 3.0, 1) == 0.0
    assert model.barenblatt_value(1.0, edge + 1.0, 3.0, 1) == 0.0
    with pytest.raises(InvalidParams):
        model.barenblatt_value(0.0, 1.0, 3.0, 1)
    with pytest.raises(InvalidParams):
        model.barenblatt_support_radius(-1.0, 3.0, 1)


def test_barenblatt_sup_norm_is_exact_power():
    for t in (1.0, 2.0, 4.0, 8.0):
        r = np.linspace(0.0, model.barenblatt_support_radius(t, 3.0, 1), 101)
        values = model.barenblatt_value(t, r, 3.0, 1)
        assert values[0] == values.max() == pytest.approx(t ** (-0.25), rel=1e-14)


def test_barenblatt_mass_conserved():
    p, N = 3.0, 1
    for t in (1.0, 4.0):
        edge = model.barenblatt_support_radius(t, p, N)
        r = np.linspace(0.0, edge, 200001)
        mass = 2.0 * np.trapezoid(model.barenblatt_value(t, r, p, N), r)
        if t == 1.0:
            mass_ref = mass
    assert mass == pytest.approx(mass_ref, rel=1e-6)


PARAMS = ProblemParams(3.0, 2.0, 1)


def test_bump_profile():
    bump = model.Bump(R0=1.0, H=1.0, m=2.0)
    assert bump.value(0.0, PARAMS) == pytest.approx(1.0)
    assert bump.value(1.0, PARAMS) == 0.0
    assert bump.value(2.0, PARAMS) == 0.0
    r = np.linspace(0.0, 1.5, 400)
    vals = bump.value(r, PARAMS)
    assert np.all(np.diff(vals) <= 1e-15)   # non-increasing in r


def test_bump_discrete_gradient_bounded_by_analytic():
    # max |d/dr (1 - r^2)^2| = 8 / (3 sqrt(3)) at r = 1/sqrt(3)
    grid = Grid(0.005, 400, 1)
    vals = model.sample_profile(model.Bump(), grid, ProblemParams(3.0, 2.0, 1))
    discrete = np.max(np.abs(np.diff(vals))) / grid.h
    assert discrete <= 8.0 / (3.0 * np.sqrt(3.0)) + 1e-12


def test_annulus_profile():
    prof = model.DeadCoreAnnulus(R0=2.0, R1=4.0, H=1.0)
    assert prof.value(1.0, PARAMS) == 0.0
    assert prof.value(2.0, PARAMS) == 0.0
    assert prof.value(3.0, PARAMS) == pytest.approx(1.0)
    assert prof.value(4.5, PARAMS) == 0.0
    with pytest.raises(InvalidParams):
        model.DeadCoreAnnulus(R0=4.0, R1=2.0)


def test_barenblatt_profile_matches_solution_on_grid():
    grid = Grid(0.01, 500, 1)
    params = ProblemParams(3.0, 2.0, 1)
    vals = model.sample_profile(model.BarenblattAt(t0=1.0), grid, params)
    r = grid.centers()
    assert np.allclose(vals, model.barenblatt_value(1.0, r, 3.0, 1))


def test_parse_profile():
    bump = model.parse_profile("bump:R0=1,H=2,m=3")
    assert (bump.R0, bump.H, bump.m) == (1.0, 2.0, 3.0)
    ann = model.parse_profile("annulus:R0=2,R1=4,H=1")
    assert isinstance(ann, model.DeadCoreAnnulus)
    bb = model.parse_profile("barenblatt:t0=2")
    assert bb.t0 == 2.0
    with pytest.raises(InvalidParams):
        model.parse_profile("mystery:R0=1")
    with pytest.raises(InvalidParams):
        model.parse_profile("bump:R0")
    with pytest.raises(InvalidParams):
        model.parse_profile("bump:R9=1")
    # a repeated option is rejected, as parse_config rejects a repeated key,
    # not overwritten by its last value
    with pytest.raises(InvalidParams, match="repeated profile option 'H'"):
        model.parse_profile("bump:H=1,H=2")
    with pytest.raises(InvalidParams, match="repeated profile option 'R0'"):
        model.parse_profile("annulus:R0=2, R0=3,R1=4")
    # t0 is a class constant of the fixed-start profiles, not an option
    assert bump.t0 == ann.t0 == 0.0
    for spec in ("bump:t0=1", "annulus:t0=1"):
        with pytest.raises(InvalidParams):
            model.parse_profile(spec)


def test_bump_needs_positive_radius_and_power():
    # at m = 0 the bump is H on the whole grid (0.0 ** 0 = 1), so its
    # support is not R0; R0 <= 0 is no width at all
    for kwargs in ({"m": 0.0}, {"m": -1.0}, {"R0": 0.0}, {"R0": -1.0}):
        with pytest.raises(InvalidParams, match="bump needs R0 > 0 and m > 0"):
            model.Bump(**kwargs)
    # a zero height stays legal: it is the floor
    grid = Grid(0.01, 200, 1)
    assert not model.sample_profile(model.Bump(H=0.0), grid, ProblemParams(3.0, 2.0, 1)).any()
    assert model.Bump(R0=0.5, m=0.5).support_radius(None) == 0.5


class FilledProfile:
    """A test-side profile whose every sample is `fill`; no option of the
    program's profiles gives a non-finite or negative sample."""

    def __init__(self, fill):
        self.fill = fill

    def feature_width(self, params):
        return 1.0

    def value(self, r, params):
        return np.full_like(r, self.fill)


def test_sample_profile_rejects_non_finite_or_negative_samples():
    grid, params = Grid(0.01, 200, 1), ProblemParams(3.0, 2.0, 1)
    for fill in (np.inf, np.nan):
        with pytest.raises(InvalidParams, match="non-finite samples"):
            model.sample_profile(FilledProfile(fill), grid, params)
    with pytest.raises(InvalidParams, match="negative samples"):
        model.sample_profile(FilledProfile(-1.0), grid, params)
    assert (model.sample_profile(FilledProfile(0.5), grid, params) == 0.5).all()


def test_sample_profile_rejects_underresolved_feature():
    grid = Grid(0.2, 16, 1)   # 5 cells across the unit bump
    with pytest.raises(InvalidParams, match="needs >= 8 cells"):
        model.sample_profile(model.Bump(), grid, ProblemParams(3.0, 2.0, 1))
