import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gibbsdyn import kernels, potential as pot, quadrature, tilted
from gibbsdyn.errors import AccuracyError, BadMagnetisationError, ConfigError, DomainError

from conftest import (
    dense_probe_s_law,
    fixed_row_kernel,
    g_bound_diagnostic,
    literal_lattice_mixture,
    literal_log_g,
    pointwise_mixture,
    simpson_s_law,
    unblocked_log_g,
    unblocked_s_law,
)

SQRT15 = math.sqrt(1.5)


def gaussian_integral(a, b, c=0.0):
    """log of int exp(-a x^2 + b x + c) dx for a > 0."""
    return 0.5 * (math.log(math.pi) - math.log(a)) + b * b / (4.0 * a) + c


def quadratic_g_oracle(n, t, alpha, s):
    """Closed-form tilt weight for V(r) = r^2 by Gaussian algebra."""
    c = alpha / (1.0 + t)
    k2 = (n - 1) * (1.0 + t) / (2.0 * t)
    # numerator: n V(r(1-1/n) + s/n) = ((n-1)^2/n) (r + s/(n-1))^2
    m = (n - 1) ** 2 / n
    a1 = m + k2
    b1 = -2.0 * m * s / (n - 1) + 2.0 * k2 * c
    c1 = -m * s**2 / (n - 1) ** 2 - k2 * c**2
    a0 = n + k2
    b0 = 2.0 * k2 * c
    c0 = -k2 * c**2
    return math.exp(gaussian_integral(a1, b1, c1) - gaussian_integral(a0, b0, c0))


def quadratic_evolved_oracle(n, t, alpha):
    """Mean and variance of the evolved kernel for V(r) = r^2 by integrating
    the closed-form g weight against the Gaussian mixture on a fine grid."""
    s = np.linspace(-30, 10, 20001)
    logg = np.array([math.log(quadratic_g_oracle(n, t, alpha, float(x))) for x in s])
    w = np.exp(logg - s**2 / 2.0 - (logg - s**2 / 2.0).max())
    w /= np.trapezoid(w, s)
    mean_s = np.trapezoid(s * w, s)
    var_s = np.trapezoid((s - mean_s) ** 2 * w, s)
    return mean_s, var_s + t  # N(s, t) mixture adds variance t


# --- config and validation ----------------------------------------------------


def test_quadrature_config_validation():
    with pytest.raises(ConfigError):
        kernels.QuadratureConfig(grid_n=32)
    assert kernels.QuadratureConfig(grid_n=kernels.GRID_N_MAX).grid_n == 65_536
    for grid_n in (kernels.GRID_N_MAX + 1, 100_000_000):
        with pytest.raises(ConfigError, match="grid_n"):
            kernels.QuadratureConfig(grid_n=grid_n)


def test_domain_errors(zero):
    with pytest.raises(DomainError):
        kernels.initial_kernel(zero, 1, 0.0)
    with pytest.raises(DomainError):
        kernels.eta_kernel(zero, 10, 0.0, 0.0)
    with pytest.raises(DomainError):
        kernels.g_factor(zero, 1, 1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        kernels.evolved_kernel(zero, 10, -1.0, 0.0)


def test_n_cap_warns(zero):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kernels.initial_kernel(zero, 200_000, 0.0)
    assert any("cap" in str(w.message) for w in caught)


# --- initial kernel -------------------------------------------------------------


def test_initial_kernel_flat_is_standard_normal(zero):
    for n in (2, 10, 1000):
        k = kernels.initial_kernel(zero, n, 7.0)
        assert abs(k.mean) < 1e-12
        assert k.variance == pytest.approx(1.0, abs=1e-10)


def test_initial_kernel_quadratic_limit(quadratic):
    k = kernels.initial_kernel(quadratic, 10_000, 1.0)
    assert k.mean == pytest.approx(-2.0, abs=0.01)
    assert k.variance == pytest.approx(1.0, abs=0.01)


def test_initial_kernel_steep_potential_against_brute_force(double_well):
    # large alpha squeezes the integrand onto a sub-unit x-scale; compare with
    # a dense direct quadrature
    for alpha, n in ((8.0, 100), (2.5, 400)):
        k = kernels.initial_kernel(double_well, n, alpha)
        abar = (n - 1) * alpha / n
        x = np.linspace(k.grid[0] - 20, k.grid[-1] + 20, 2_000_001)
        L = -n * (np.asarray(pot.eval(double_well, abar + x / n)) + 1.0) - x**2 / 2
        w = np.exp(L - L.max())
        z = np.trapezoid(w, x)
        mean = np.trapezoid(x * w, x) / z
        var = np.trapezoid((x - mean) ** 2 * w, x) / z
        assert k.mean == pytest.approx(mean, rel=1e-8)
        assert k.variance == pytest.approx(var, rel=1e-6)


def test_initial_kernel_abs_selection_limits():
    spec = pot.absolute()
    n = 10_000
    eps = 1.0 / math.sqrt(n - 1)
    plus = kernels.initial_kernel(spec, n, eps)
    minus = kernels.initial_kernel(spec, n, -eps)
    assert plus.mean == pytest.approx(-1.0, abs=0.05)
    assert minus.mean == pytest.approx(1.0, abs=0.05)
    assert plus.variance == pytest.approx(1.0, abs=0.05)


# --- eta kernel -----------------------------------------------------------------


def test_eta_kernel_flat_gaussian(zero):
    k = kernels.eta_kernel(zero, 5, 1.0, 2.0)
    assert k.mean == pytest.approx(1.0, abs=1e-10)  # alpha/(1+t)
    assert k.variance == pytest.approx(0.1, abs=1e-10)  # t/(n(1+t))


def density_modes(k):
    d = k.density
    idx = np.flatnonzero((d[1:-1] > d[:-2]) & (d[1:-1] > d[2:])) + 1
    peak = d.max()
    return [float(k.grid[i]) for i in idx if d[i] > 0.05 * peak]


def test_eta_kernel_double_well_bimodal(double_well):
    k = kernels.eta_kernel(double_well, 200, 1.0, 0.0)
    modes = density_modes(k)
    assert len(modes) == 2
    assert modes[0] == pytest.approx(-SQRT15, abs=0.02)
    assert modes[1] == pytest.approx(SQRT15, abs=0.02)


def test_eta_kernel_quadratic_mode(quadratic):
    k = kernels.eta_kernel(quadratic, 100, 1.0, 4.0)
    modes = density_modes(k)
    assert len(modes) == 1
    assert modes[0] == pytest.approx(1.0, abs=0.02)


# --- g factor -------------------------------------------------------------------


def test_g_factor_flat_is_one(zero):
    for n, t, a, s in ((2, 0.5, 1.0, -2.0), (7, 1.0, 3.0, 1.5), (500, 2.0, -1.0, 0.3)):
        assert kernels.g_factor(zero, n, t, a, s) == 1.0


def test_g_factor_flat_is_exactly_one_on_every_call_grid(zero):
    # V = 0: each numerator row reads the lattice's -0.0 minus the same
    # k2 (r - c)^2 as the denominator, whatever the call's k, m and r grid
    for n, t in ((2, 1.0), (50, 0.2), (100_000, 1.0)):
        machine = kernels._GMachine(zero, n, t, 0.7, kernels.DEFAULT_QUAD, tilted.DEFAULT_TOL)
        for rows in (1, 2, 65, 1025):
            assert np.array_equal(machine.log_g(np.linspace(-9.0, 7.0, rows)), np.zeros(rows)), (n, rows)
        assert kernels.g_factor(zero, n, t, 0.7, -3.3) == 1.0


@pytest.mark.parametrize("name", ["double_well", "cosine_beta1", "glued_beta1"])
def test_g_factor_at_one_s_matches_log_g_on_a_grid(builtin_specs, name):
    # one s gets k = m = 1 and the window's grid_n spacing; a 1025-row grid
    # holding it gets its own k, m and a finer r grid: both resolve the
    # integrals to Simpson's spectral accuracy
    spec, n, t, alpha = builtin_specs[name], 50, 1.0, 0.3
    s = np.linspace(-8.0, 8.0, 1025)
    for i in (0, 300, 512, 1024):
        one = math.log(kernels.g_factor(spec, n, t, alpha, float(s[i])))
        grid = kernels._GMachine(spec, n, t, alpha, kernels.DEFAULT_QUAD, tilted.DEFAULT_TOL).log_g(s)[i]
        assert one == pytest.approx(grid, rel=0.0, abs=1e-12), (name, i)


def test_g_factor_quadratic_against_gaussian_algebra(quadratic):
    for n, s in ((50, 1.0), (500, 1.0), (500, -2.0), (5000, 3.0)):
        got = kernels.g_factor(quadratic, n, 1.0, 4.0, s)
        want = quadratic_g_oracle(n, 1.0, 4.0, s)
        assert got == pytest.approx(want, rel=1e-8), (n, s)


def test_g_factor_quadratic_limit(quadratic):
    # the definition's large-n limit is exp(-V'(q) (s - q)); for t=1, alpha=4
    # the minimiser is q=1, so s=1 gives exactly 1 and s=3 gives exp(-4).
    # (The constant factor exp(q V'(q)) separates this from exp(-s V'(q));
    # it cancels in every kernel ratio.)
    assert kernels.g_factor(quadratic, 5000, 1.0, 4.0, 1.0) == pytest.approx(1.0, rel=1e-3)
    assert kernels.g_factor(quadratic, 5000, 1.0, 4.0, 3.0) == pytest.approx(math.exp(-4.0), rel=1e-2)


def test_g_factor_selection_sequence_limit(double_well):
    # alpha_n = -1/sqrt(n) selects the smallest minimiser q = -sqrt(1.5)
    n = 2000
    q = -SQRT15
    dv = pot.deriv(double_well, q, 1)
    s = 1.0
    got = kernels.g_factor(double_well, n, 1.0, -1.0 / math.sqrt(n), s)
    want = math.exp(-dv * (s - q))
    assert got == pytest.approx(want, rel=0.1)


# --- evolved kernel -------------------------------------------------------------


def test_evolved_kernel_flat_exact(zero):
    # N(0, 1 + t) node by node, also where the lattice is finer than the s grid
    for n, t in ((2, 1.0), (7, 1.0), (100, 1.0), (5000, 1.0), (64, 0.1), (5, 10.0)):
        k = kernels.evolved_kernel(zero, n, t, 3.0)
        assert abs(k.mean) < 1e-10
        assert k.variance == pytest.approx(1.0 + t, abs=1e-10)
        assert k.total_mass_defect < 1e-10
        exact = np.exp(-(k.grid**2) / (2.0 * (1.0 + t))) / math.sqrt(2.0 * math.pi * (1.0 + t))
        assert np.max(np.abs(k.density - exact)) < 1e-10


def test_evolved_kernel_quadratic_finite_n_oracle(quadratic):
    got = kernels.evolved_kernel(quadratic, 400, 1.0, 4.0)
    mean_want, var_want = quadratic_evolved_oracle(400, 1.0, 4.0)
    assert got.mean == pytest.approx(mean_want, abs=1e-6)
    assert got.variance == pytest.approx(var_want, abs=1e-6)
    assert got.mean == pytest.approx(-2.0, abs=0.02)
    assert got.variance == pytest.approx(2.0, abs=0.05)


def test_evolved_kernel_selection_split(double_well):
    n = 800
    minus = kernels.evolved_kernel(double_well, n, 1.0, -1.0 / math.sqrt(n))
    plus = kernels.evolved_kernel(double_well, n, 1.0, 1.0 / math.sqrt(n))
    v = pot.deriv(double_well, SQRT15, 1)
    assert minus.mean == pytest.approx(v, abs=0.1)  # -V'(-sqrt(1.5)) = +V'(sqrt(1.5))... sign check below
    assert plus.mean == pytest.approx(-v, abs=0.1)
    assert minus.mean == pytest.approx(-plus.mean, abs=1e-6)


@pytest.mark.parametrize("t, means", [(0.20, (4.260, 4.331, 4.283)), (0.12, (3.978, 2.132, 0.860))])
def test_selection_split_opens_at_the_first_bad_time(double_well, t, means):
    # beta = 4: the convex minorant of g_t first bridges at t = 1/(2 beta - 1)
    # = 1/7, below the t_c = 2/7 that classify reports. At t = 0.20 alpha = 0
    # is bad and the means along alpha = +-1/sqrt(n) stay split near the scan
    # limit -V'(+-q) = +-4.243, 4 q^2 = 7 - 1/t; at t = 0.12 it is good and the
    # split closes as n grows
    for n, want in zip((50, 400, 3200), means):
        plus = kernels.evolved_kernel(double_well, n, t, 1.0 / math.sqrt(n)).mean
        minus = kernels.evolved_kernel(double_well, n, t, -1.0 / math.sqrt(n)).mean
        assert plus == pytest.approx(want, abs=5e-4) and minus == pytest.approx(-plus, abs=1e-9), n


def test_smoothing_identity(double_well):
    # evolved = convolution of the g-weighted normalised s-law with N(0, t):
    # rebuild by an independent linear-space two-stage quadrature
    n, t, alpha = 100, 1.0, 0.5
    k = kernels.evolved_kernel(double_well, n, t, alpha)
    machine = kernels._GMachine(double_well, n, t, alpha, kernels.DEFAULT_QUAD, tilted.DEFAULT_TOL)
    s = np.linspace(-12, 12, 6001)
    h = np.exp(machine.log_g(s) - s**2 / 2.0)
    h /= np.trapezoid(h, s)
    dens = np.empty_like(k.grid)
    for i, x in enumerate(k.grid):
        dens[i] = np.trapezoid(h * np.exp(-((x - s) ** 2) / (2 * t)), s) / math.sqrt(2 * math.pi * t)
    assert np.max(np.abs(dens - k.density)) < 1e-6


def test_mass_defect_contract(builtin_specs):
    calls = [
        kernels.initial_kernel(builtin_specs["double_well"], 50, 0.7),
        kernels.eta_kernel(builtin_specs["cosine_beta1"], 30, 0.5, 1.2),
        kernels.evolved_kernel(builtin_specs["glued_beta1"], 40, 1.5, 0.3),
        kernels.evolved_kernel(builtin_specs["abs"], 25, 0.7, -0.4),
    ]
    for k in calls:
        assert k.total_mass_defect <= 1e-8
        # moments match an independent trapezoid integration
        assert np.trapezoid(k.density, k.grid) == pytest.approx(1.0, abs=1e-8)
        mean = np.trapezoid(k.grid * k.density, k.grid)
        var = np.trapezoid((k.grid - mean) ** 2 * k.density, k.grid)
        assert k.mean == pytest.approx(mean, abs=1e-8)
        assert k.variance == pytest.approx(var, abs=1e-8)


def test_minus_sequence_ladder_through_bimodal_rows(double_well):
    # at these n an interior s row of the numerator is bimodal, and its far
    # bump lies outside the r support of the extreme-s probes
    for n in (12, 14, 16):
        k = kernels.evolved_kernel(double_well, n, 1.0, -1.0 / math.sqrt(n))
        assert k.total_mass_defect <= 1e-8
    machine = kernels._GMachine(double_well, 16, 1.0, -0.25, kernels.DEFAULT_QUAD, tilted.DEFAULT_TOL)
    s = np.linspace(-13.18, 10.94, 513)
    got = machine.log_g(s)
    want = literal_log_g(machine, s, np.linspace(-8.0, 8.0, 64001))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


def _s_law(spec, n, t, alpha, cfg=kernels.DEFAULT_QUAD):
    return kernels._s_law(kernels._GMachine(spec, n, t, alpha, cfg, tilted.DEFAULT_TOL))


def _assert_fewest_rows(s, t):
    # the fewest odd rows whose step is at most S_STEP_PER_SD sqrt(t / (1 + t))
    step = kernels.S_STEP_PER_SD * math.sqrt(t / (1.0 + t))
    width = s[-1] - s[0]
    assert s.size % 2 == 1 and width / (s.size - 1) <= step * (1.0 + 1e-12) and width / (s.size - 3) > step


def _assert_same_s_law(got, want):
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _literal_mixture_kernel(spec, n, t, alpha, cfg=kernels.DEFAULT_QUAD):
    """evolved_kernel and the literal log-space mixture of the same s-law on
    the same lattice, with the oracle's log density. The mixtures sum in a
    different order, so they agree to rounding, not bitwise."""
    got = kernels.evolved_kernel(spec, n, t, alpha, cfg)
    x, log_px = literal_lattice_mixture(*_s_law(spec, n, t, alpha, cfg), t, cfg)
    assert np.array_equal(got.grid, x)
    want = kernels._kernel_from_log_density(x, log_px)
    assert got.mean == pytest.approx(want.mean, rel=1e-12, abs=1e-12)
    assert got.variance == pytest.approx(want.variance, rel=1e-12, abs=1e-12)
    assert got.total_mass_defect <= 1e-8
    return got, want, log_px


def _assert_density_matches(got, want, log_px):
    # below exp(-600) the terms that the Gaussian table drops (under exp(-700)) stop being negligible
    live = log_px > -600.0
    np.testing.assert_allclose(got.density[live], want.density[live], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "name, n, t, alpha",
    [
        ("double_well", 50, 1.0, 0.5),
        ("double_well", 50, 0.2, -0.5),
        ("double_well", 3200, 1.0, 1.0 / math.sqrt(3200)),
        ("double_well", 3200, 0.2, -1.0 / math.sqrt(3200)),
        ("glued_beta1", 40, 1.5, 0.3),
        ("abs", 25, 0.7, -0.4),
        ("zero", 10, 1.0, 3.0),
    ],
    ids=["dw50-t1", "dw50-t0.2", "dw3200-t1", "dw3200-t0.2", "glued1", "abs", "zero"],
)
def test_blocked_evolved_kernel_is_bitwise_unblocked(builtin_specs, name, n, t, alpha):
    # the s-law is where the row-blocked numerator enters the evolved kernel
    _assert_same_s_law(_s_law(builtin_specs[name], n, t, alpha), unblocked_s_law(builtin_specs[name], n, t, alpha))


@pytest.mark.parametrize(
    "name, n, t, alpha",
    [
        ("double_well", 50, 1.0, 0.5),
        ("double_well", 50, 0.2, -0.5),
        ("double_well", 3200, 1.0, 1.0 / math.sqrt(3200)),
        ("double_well", 3200, 0.2, -1.0 / math.sqrt(3200)),
        ("double_well", 64, 0.1, 0.0),
        ("glued_beta1", 40, 1.5, 0.3),
        ("abs", 25, 0.7, -0.4),
        ("zero", 10, 1.0, 3.0),
    ],
    ids=["dw50-t1", "dw50-t0.2", "dw3200-t1", "dw3200-t0.2", "dw64-t0.1", "glued1", "abs", "zero"],
)
def test_lattice_mixture_matches_the_literal_log_space_mixture(builtin_specs, name, n, t, alpha):
    _assert_density_matches(*_literal_mixture_kernel(builtin_specs[name], n, t, alpha))


def test_lattice_mixture_underflows_to_zero_without_warnings(double_well):
    # at t = 1e-3 the Gaussian tails beyond the s-law vanish; the log-space
    # oracle's own rounding grows as |x - s| eps/t, so only moments compare
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _, log_px = _literal_mixture_kernel(double_well, 50, 1e-3, 0.1)
    assert got.density[0] == 0.0 and got.density[-1] == 0.0
    assert np.all(np.isfinite(got.density)) and np.all(got.density >= 0.0)
    assert np.count_nonzero(got.density == 0.0) > 100 and np.all(log_px[got.density == 0.0] < -700.0)


def test_lattice_refines_the_s_step_at_large_t(double_well):
    s, _ = _s_law(double_well, 50, 10.0, 0.1)
    _assert_fewest_rows(s, 10.0)
    x, r, P = kernels._lattice(s, 10.0, kernels.DEFAULT_QUAD)
    # 45 s rows of step 0.47 on a lattice 24 times finer
    assert r == 24 and x.size == 2 * P + 24 * (s.size - 1) + 1 and 4097 <= x.size <= 4300
    # every s node is a lattice node, and the lattice reaches zpad beyond both ends
    np.testing.assert_allclose(x[P : x.size - P : 24], s, rtol=0.0, atol=1e-12)
    zpad = math.sqrt(2.0 * quadrature.DEFAULT_DROP * 10.0) + 2.0
    assert x[0] <= s[0] - zpad and x[-1] >= s[-1] + zpad - 1e-12
    _assert_density_matches(*_literal_mixture_kernel(double_well, 50, 10.0, 0.1))


@pytest.mark.parametrize("grid_n", [64, 1000])
def test_lattice_keeps_the_s_step_on_small_grids(double_well, grid_n):
    cfg = kernels.QuadratureConfig(grid_n=grid_n)
    got, want, log_px = _literal_mixture_kernel(double_well, 50, 1.0, 0.5, cfg)
    s, _ = _s_law(double_well, 50, 1.0, 0.5, cfg)
    _assert_fewest_rows(s, 1.0)
    assert got.grid.size > quadrature.odd_count(grid_n) and got.grid.size % 2 == 1
    assert np.diff(got.grid).max() <= (s[-1] - s[0]) / (s.size - 1) * (1.0 + 1e-12)
    _assert_density_matches(got, want, log_px)


@pytest.mark.parametrize("extra_rows", [-3, 0, 5, 25])
def test_blocked_log_g_is_bitwise_unblocked(double_well, extra_rows):
    # 4, 7, 12 and 32 rows in one phase (m = 1) and blocks of 7 rows: below
    # one block, exactly one block, and not a block multiple
    machine = kernels._GMachine(double_well, 50, 1.0, 0.5, kernels.DEFAULT_QUAD, tilted.DEFAULT_TOL)
    s = np.linspace(-6.0, 6.0, 7 + extra_rows)
    got = machine.log_g(s)
    r, _, _, _, m = machine._grid(s)
    assert m == 1 and quadrature.ROW_BLOCK_ELEMENTS // r.size == 7
    assert np.array_equal(got, unblocked_log_g(machine, s))


@pytest.mark.parametrize(
    "n, grid_n, rows, regime",
    [(50, 4096, 1, "one row"), (3200, 4096, 101, "k > 1"), (100_000, 4096, 1025, "phases split"),
     (50, 64, 1025, "many t per block")],
    ids=["one-row", "k-above-1", "phases-split", "grid64"],
)
def test_phase_blocks_are_bitwise_unblocked(double_well, n, grid_n, rows, regime):
    # one s row; k > 1 with the last row of phases padded; more phases than
    # a block holds rows, so blocks split the phases; and a small grid with
    # m > 100 phases and several t values per block
    machine = kernels._GMachine(double_well, n, 1.0, 0.5, kernels.QuadratureConfig(grid_n=grid_n), tilted.DEFAULT_TOL)
    s = np.linspace(-6.0, 6.0, rows)
    got = machine.log_g(s)
    r, _, _, k, m = machine._grid(s)
    row_cap = quadrature.ROW_BLOCK_ELEMENTS // r.size
    assert {"one row": rows == 1, "k > 1": k > 1 and rows % m != 0, "phases split": m > row_cap,
            "many t per block": row_cap // m > 1 and m > 100}[regime], (k, m, row_cap)
    assert np.array_equal(got, unblocked_log_g(machine, s))


# The evolved kernels of the finite_n benchmark at seed 0 (ladder centre
# FINITE_N_BASE), then double_well calls whose g machine rebuilds while the
# s-support is scanned. In the first round, the support scan's 65 s rows
# are every 8th of the dense oracle's 513.
FINITE_N_BASE = 0.0006888437030500962
SUPPORT_SCAN_CASES = [
    *[
        ("double_well", n, t, FINITE_N_BASE + sign / math.sqrt(n))
        for t in (1.0, 0.2)
        for n in (50, 3200)
        for sign in (1.0, -1.0)
    ],
    ("double_well", 64, 0.1, 0.0051590880588060495),
    ("cosine_beta1", 100, 1.0, 0.284114316166169),
    ("glued_beta1", 100, 1.0, 0.2517833500585927),
    ("double_well", 50, 1.0, 1.0 / math.sqrt(50)),
    ("double_well", 50, 1.0, -1.0 / math.sqrt(50)),
    ("double_well", 64, 0.1, 0.0),
]


def _assert_same_kernel_moments(spec, n, t, alpha, rel, cfg=kernels.DEFAULT_QUAD):
    """The mixtures of _s_law and of dense_probe_s_law, on r grids of
    _s_law's g machine, have the same mean, to rel sd, and variance, to rel
    relative: the two support windows differ by up to a coarse step, and
    the kernel barely depends on where its window ends."""
    machine = kernels._GMachine(spec, n, t, alpha, cfg, tilted.DEFAULT_TOL)
    scanned = kernels._s_law(machine)
    got, want = (
        kernels._kernel_from_log_density(*kernels._gaussian_mixture(*law, t, cfg))
        for law in (scanned, dense_probe_s_law(spec, n, t, alpha, machine, scanned[0], cfg))
    )
    assert abs(got.mean - want.mean) <= rel * math.sqrt(want.variance)
    assert got.variance == pytest.approx(want.variance, rel=rel, abs=0.0)


@pytest.mark.parametrize("name, n, t, alpha", SUPPORT_SCAN_CASES)
def test_support_scan_gives_the_dense_probe_kernel(builtin_specs, name, n, t, alpha):
    # the mixture is a function of the s-law alone
    _assert_same_kernel_moments(builtin_specs[name], n, t, alpha, rel=1e-12)


@pytest.mark.parametrize(
    "name, grid_n, n, t, alpha, rel",
    [
        ("double_well", 64, 50, 1.0, 1.0 / math.sqrt(50), 1e-12),
        ("double_well", 1000, 50, 1.0, 1.0 / math.sqrt(50), 1e-12),
        # the minimiser sits on the kink, so V'(q) raises and the support
        # scan is anchored at 0 alone; Simpson's error at the kink moves
        # with the window's ends
        ("abs", 4096, 50, 1.0, 0.0, 1e-7),
    ],
)
def test_support_scan_on_small_grids_and_at_a_kink(builtin_specs, name, grid_n, n, t, alpha, rel):
    cfg = kernels.QuadratureConfig(grid_n=grid_n)
    _assert_same_kernel_moments(builtin_specs[name], n, t, alpha, rel, cfg)


@pytest.mark.parametrize("name, n, t, alpha", SUPPORT_SCAN_CASES)
def test_log_num_evaluates_v_once_on_its_lattice(builtin_specs, name, n, t, alpha, monkeypatch):
    # every _log_num call of the s-law, the support scan's and the fine
    # pass's, evaluates V on its (S - 1) k + (R - 1) m + 1 lattice points
    # alone, under a tenth of the S x R numerator values
    points, calls = [0], []
    real_eval, real_log_num = kernels.pot.eval, kernels._GMachine._log_num

    def counting_eval(spec, r):
        points[0] += np.size(r)
        return real_eval(spec, r)

    def recording_log_num(machine, grid, rows, quad, lw):
        points[0] = 0
        out = real_log_num(machine, grid, rows, quad, lw)
        calls.append((rows, grid[0].size, grid[3], grid[4], points[0]))
        return out

    monkeypatch.setattr(kernels.pot, "eval", counting_eval)
    monkeypatch.setattr(kernels._GMachine, "_log_num", recording_log_num)
    s, _ = _s_law(builtin_specs[name], n, t, alpha)
    assert {S for S, *_ in calls} == {kernels.S_PROBE_POINTS, s.size}
    for S, R, k, m, evaluated in calls:
        assert evaluated == (S - 1) * k + (R - 1) * m + 1, (S, R, k, m)
        assert evaluated < S * R / 10, (S, R, k, m)


@pytest.mark.parametrize("n, grid_n, rows", [(3200, 4096, 101), (50, 64, 1025)], ids=["k-above-1", "grid64"])
def test_log_num_reduces_only_its_rows(double_well, n, grid_n, rows, monkeypatch):
    # the last t holds fewer than m phases, and the phases beyond the rows
    # are never reduced; the denominator is reduced as one more row
    machine = kernels._GMachine(double_well, n, 1.0, 0.5, kernels.QuadratureConfig(grid_n=grid_n), tilted.DEFAULT_TOL)
    s = np.linspace(-6.0, 6.0, rows)
    machine.log_g(s)
    m = machine._grid(s)[4]
    assert rows % m != 0, m
    reduced = []
    real_log_rows = kernels._log_rows

    def counting_log_rows(L, lw):
        reduced.append(L.shape[0])
        return real_log_rows(L, lw)

    monkeypatch.setattr(kernels, "_log_rows", counting_log_rows)
    machine.log_g(s)
    assert sum(reduced) == rows + 1 and reduced[-1] == 1


@pytest.mark.parametrize("t", [0.001, 0.002, 0.01, 0.1, 1.0, 10.0])
def test_evolved_kernel_cdf_matches_a_4097_row_kernel(double_well, t):
    # the comb guard: with an s step above the mixture's sd sqrt(t) the
    # kernel's CDF turns into a staircase while its moments still agree
    n, alpha = 3200, FINITE_N_BASE + 1.0 / math.sqrt(3200)
    _assert_fewest_rows(_s_law(double_well, n, t, alpha)[0], t)
    got = kernels.evolved_kernel(double_well, n, t, alpha)
    want = fixed_row_kernel(double_well, n, t, alpha, 4097)
    x = np.linspace(min(got.grid[0], want.grid[0]), max(got.grid[-1], want.grid[-1]), 200_001)
    assert np.abs(got.cdf_at(x) - want.cdf_at(x)).max() <= 1e-5


@pytest.mark.parametrize("t", [0.001, 0.002, 0.01, 0.1, 1.0, 10.0])
def test_evolved_kernel_density_matches_a_4097_row_simpson_mixture(double_well, t):
    # the comb guard between lattice nodes: the mixture of the kernel's
    # s-law, evaluated exactly at x off its lattice, against that of a
    # 4097-row Simpson s-law. A comb of 1e-9 of the peak hides under the
    # 1e-5 CDF bound above
    n, alpha = 3200, FINITE_N_BASE + 1.0 / math.sqrt(3200)
    s, log_w = _s_law(double_well, n, t, alpha)
    s_ref, log_w_ref = simpson_s_law(double_well, n, t, alpha, 4097)
    pad = 6.0 * math.sqrt(t)
    x = s_ref[0] - pad + (np.arange(10_007) + 0.5) * (s_ref[-1] - s_ref[0] + 2.0 * pad) / 10_007
    got, want = pointwise_mixture(s, log_w, t, x), pointwise_mixture(s_ref, log_w_ref, t, x)
    assert np.abs(got - want).max() <= 1e-10 * want.max()


@pytest.mark.parametrize("name", ["double_well", "cosine_beta1", "glued_beta1"])
@pytest.mark.parametrize("n", [50, 3200])
def test_evolved_kernel_moments_match_a_1025_row_kernel(builtin_specs, name, n):
    alpha = FINITE_N_BASE + 1.0 / math.sqrt(n)
    got = kernels.evolved_kernel(builtin_specs[name], n, 1.0, alpha)
    want = fixed_row_kernel(builtin_specs[name], n, 1.0, alpha, 1025)
    assert abs(got.mean - want.mean) <= 1e-12 * math.sqrt(want.variance)
    assert got.variance == pytest.approx(want.variance, rel=1e-12, abs=0.0)


def test_log_num_peak_memory(double_well):
    # V on the lattice, the take's index array and the phase regrouping
    # (three lattice-sized arrays), then the regrouping and the block buffer,
    # which the row reduction overwrites in place, plus the rows' results
    machine = kernels._GMachine(double_well, 50, 1.0, 0.5, kernels.DEFAULT_QUAD, tilted.DEFAULT_TOL)
    s = np.linspace(-6.0, 6.0, 513)
    machine._ensure(-6.0, 6.0)
    grid = machine._grid(s)
    r, _, _, k, m = grid
    quad, lw = machine.k2 * (r - machine.center) ** 2, quadrature.simpson_log_weights(r)
    machine._log_num(grid, s.size, quad, lw)
    lattice = (s.size - 1) * k + (r.size - 1) * m + 1
    block = quadrature.ROW_BLOCK_ELEMENTS // r.size * r.size
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        machine._log_num(grid, s.size, quad, lw)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= (max(3 * lattice, lattice + block) + 3 * s.size) * 8


def test_evolved_kernel_evaluates_v_in_bounded_blocks(double_well, monkeypatch):
    sizes, numerators = [], []
    real_eval, real_log_num = kernels.pot.eval, kernels._GMachine._log_num

    def recording_eval(spec, r):
        sizes.append(np.size(r))
        return real_eval(spec, r)

    def recording_log_num(machine, grid, rows, quad, lw):
        first = len(sizes)
        out = real_log_num(machine, grid, rows, quad, lw)
        numerators.append((sum(sizes[first:]), rows * grid[0].size))
        return out

    monkeypatch.setattr(kernels.pot, "eval", recording_eval)
    monkeypatch.setattr(kernels._GMachine, "_log_num", recording_log_num)
    kernels.evolved_kernel(double_well, 3200, 1.0, 1.0 / math.sqrt(3200))
    # global_minimisers' scan and the 16385-point localisation grids are the
    # largest evaluations; each g-factor call adds its r grid and one
    # lattice. A lattice is under a twentieth of its call's S x R numerator
    # values (65 x 4111 and 53 x 4453 here), and the kernel evaluates V on
    # under a 25th of a 1025 x 4097 numerator
    assert max(sizes) <= max(tilted.COARSE_GRID_N, 16385)
    assert len(numerators) == 2
    assert all(points < s_by_r / 20 for points, s_by_r in numerators), numerators
    assert sum(sizes) < 1025 * 4097 / 25


# --- limit kernel ----------------------------------------------------------------


def test_limit_kernel_flat(zero):
    k = kernels.limit_kernel(zero, 1.0, 5.0)
    assert k.mean == pytest.approx(0.0, abs=1e-12)
    assert k.variance == pytest.approx(2.0, rel=1e-10)


def test_limit_kernel_quadratic(quadratic):
    k = kernels.limit_kernel(quadratic, 1.0, 4.0)
    assert k.mean == pytest.approx(-2.0, abs=1e-8)
    assert k.variance == pytest.approx(2.0, rel=1e-10)


def test_limit_kernel_bad_alpha_carries_both_branches(double_well):
    with pytest.raises(BadMagnetisationError) as err:
        kernels.limit_kernel(double_well, 1.0, 0.0)
    e = err.value
    assert e.q_min == pytest.approx(-SQRT15, abs=1e-6)
    assert e.q_max == pytest.approx(SQRT15, abs=1e-6)
    v = pot.deriv(double_well, SQRT15, 1)
    assert e.kernel_min.mean == pytest.approx(v, abs=1e-6)
    assert e.kernel_max.mean == pytest.approx(-v, abs=1e-6)
    assert e.kernel_min.variance == pytest.approx(2.0, rel=1e-9)


_QUARTIC_GRID = np.linspace(-4.0, 4.0, 81)


@pytest.mark.parametrize(
    ("grid", "values", "alpha", "q"),
    [
        # the 81-node quartic table: the minimiser is its interior node 2.9
        (_QUARTIC_GRID, (_QUARTIC_GRID**2 - 16.0) ** 2 / 16.0, 0.3, 2.9000000000000004),
        # the end cell falls to the end node 1, beyond which V' = 0
        ([-1.0, 0.0, 1.0], [3.0, 3.0, 0.0], 0.0, 1.0),
    ],
)
def test_limit_kernel_at_a_kink_minimiser(grid, values, alpha, q):
    # at t = 1 the minimiser sits on a kink, where V' does not exist; the
    # limit kernel's mean is the subgradient that makes U' vanish, q + (q -
    # alpha)/t, which the evolved kernel's mean approaches (its gap is about
    # 6.5/n), and neither cell slope's
    spec = pot.custom_table(grid, values)
    assert tilted.global_minimisers(tilted.TiltedRate(spec, 1.0, alpha)).locations == (q,)
    k = kernels.limit_kernel(spec, 1.0, alpha)
    assert k.mean == pytest.approx(q + (q - alpha), abs=1e-12)
    assert k.variance == pytest.approx(2.0, rel=1e-10)
    assert abs(kernels.evolved_kernel(spec, 100_000, 1.0, alpha).mean - k.mean) < 1e-4


def test_weak_continuity_proxy(quadratic):
    # limit-kernel mean is -2 alpha/(3t+1); Lipschitz constant 2/(3t+1) at t=1
    t = 1.0
    alphas = np.linspace(-2, 2, 21)
    means = [kernels.limit_kernel(quadratic, t, float(a)).mean for a in alphas]
    slopes = np.abs(np.diff(means) / np.diff(alphas))
    assert slopes.max() == pytest.approx(2.0 / (3.0 * t + 1.0), abs=1e-6)


# --- ladders ---------------------------------------------------------------------


def test_convergence_experiment_flat(zero):
    rows = kernels.convergence_experiment(zero, 1.0, 0.0, [10, 100, 1000])
    for row in rows:
        # zero up to the resolution of the interpolated grid CDFs
        assert row.w1_to_limit < 1e-4


def test_convergence_experiment_quadratic(quadratic):
    rows = kernels.convergence_experiment(
        quadratic, 1.0, 4.0, [50, 100, 200, 400, 800, 1600, 3200, 6400]
    )
    w1 = [row.w1_to_limit for row in rows]
    assert all(b < a for a, b in zip(w1, w1[1:]))
    assert w1[-1] < 0.02


def test_convergence_experiment_validation(zero, double_well):
    with pytest.raises(ConfigError):
        kernels.convergence_experiment(zero, 1.0, 0.0, [100, 100])
    with pytest.raises(BadMagnetisationError):
        kernels.convergence_experiment(double_well, 1.0, 0.0, [50, 100], kernels.SEQ_CONSTANT)


# --- G diagnostic ----------------------------------------------------------------


def test_g_bound_flat(zero):
    assert g_bound_diagnostic(zero, 2000, 1.0, 0.0) == pytest.approx(1.0, rel=2e-3)


def test_g_bound_quadratic(quadratic):
    # q = 1 at t=1, alpha=4: the large-n value is exp(((1+t)/t)^2 q^2) = e^4
    got = g_bound_diagnostic(quadratic, 1000, 1.0, 4.0)
    assert got == pytest.approx(math.exp(4.0), rel=0.02)


def test_g_bound_double_well_below_crossover(double_well):
    # q = 0 at t = 0.1: limit 1; the finite-n excess shrinks like 1/n
    ladder = [g_bound_diagnostic(double_well, n, 0.1, 0.0) for n in (1000, 2000, 4000)]
    assert all(b < a for a, b in zip(ladder, ladder[1:]))
    assert ladder[-1] == pytest.approx(1.0, rel=0.02)


def test_g_bound_divergence_guard(zero):
    with pytest.raises(AccuracyError):
        g_bound_diagnostic(zero, 3, 1.0, 0.0)  # tilt curvature below growth



def test_s_law_rows_stay_within_grid_n_max(double_well):
    # the s-law's step is at most S_STEP_PER_SD sqrt(t / (1 + t)): at
    # t = 1e-8 that is about 2e5 rows, more than GRID_N_MAX, and the error
    # names t; at t = 1e-6 about 2e4 rows still fit
    with pytest.raises(DomainError, match="rows at t = 1e-08"):
        kernels.evolved_kernel(double_well, 2, 1e-8, 0.0)
    machine = kernels._GMachine(double_well, 2, 1e-6, 0.0, kernels.DEFAULT_QUAD, tilted.DEFAULT_TOL)
    s, log_w = kernels._s_law(machine)
    assert 10_000 < s.size <= kernels.GRID_N_MAX
    assert abs(quadrature.logsumexp(log_w)) < 1e-12
