import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gibbsdyn import kernels, potential as pot, quadrature, tilted
from gibbsdyn.errors import AccuracyError, BadMagnetisationError, ConfigError, DomainError

from conftest import (
    full_probe_evolved_kernel,
    g_bound_diagnostic,
    literal_log_num_integrand,
    unblocked_evolved_kernel,
    unblocked_log_g,
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
        kernels.QuadratureConfig(truncation_mass=0.0)
    with pytest.raises(ConfigError):
        kernels.QuadratureConfig(truncation_mass=1e-3)
    with pytest.raises(ConfigError):
        kernels.QuadratureConfig(grid_n=32)


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
    for n in (2, 7, 100, 5000):
        k = kernels.evolved_kernel(zero, n, 1.0, 3.0)
        assert abs(k.mean) < 1e-10
        assert k.variance == pytest.approx(2.0, abs=1e-10)
        assert k.total_mass_defect < 1e-10


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
    r = np.linspace(-8.0, 8.0, 64001)
    want = [quadrature.log_integral(r, literal_log_num_integrand(machine, r, si)) for si in s]
    want = np.asarray(want) - quadrature.log_integral(r, machine._log_den_integrand(r))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


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
    got = kernels.evolved_kernel(builtin_specs[name], n, t, alpha)
    want = unblocked_evolved_kernel(builtin_specs[name], n, t, alpha)
    assert np.array_equal(got.grid, want.grid)
    assert np.array_equal(got.density, want.density)
    assert (got.mean, got.variance, got.total_mass_defect) == (want.mean, want.variance, want.total_mass_defect)


@pytest.mark.parametrize("extra_rows", [-3, 0, 5, 25])
def test_blocked_log_g_is_bitwise_unblocked(double_well, extra_rows):
    # row counts below one block, exactly one block, and not a block multiple
    machine = kernels._GMachine(double_well, 50, 1.0, 0.5, kernels.DEFAULT_QUAD, tilted.DEFAULT_TOL)
    block_rows = quadrature.ROW_BLOCK_ELEMENTS // quadrature.odd_count(kernels.DEFAULT_QUAD.grid_n)
    s = np.linspace(-6.0, 6.0, block_rows + extra_rows)
    got = machine.log_g(s)
    assert np.array_equal(got, unblocked_log_g(machine, s))


# The evolved kernels of the finite_n benchmark at seed 0 (ladder centre
# FINITE_N_BASE), then double_well calls whose g machine rebuilds while the
# s-support is probed.
FINITE_N_BASE = 0.0006888437030500962
STRIDED_PROBE_CASES = [
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


def _assert_same_kernel(got, want):
    assert np.array_equal(got.grid, want.grid)
    assert np.array_equal(got.density, want.density)
    assert (got.mean, got.variance, got.total_mass_defect) == (want.mean, want.variance, want.total_mass_defect)


@pytest.mark.parametrize("name, n, t, alpha", STRIDED_PROBE_CASES)
def test_strided_probes_give_the_full_probe_kernel(builtin_specs, name, n, t, alpha):
    spec = builtin_specs[name]
    _assert_same_kernel(kernels.evolved_kernel(spec, n, t, alpha), full_probe_evolved_kernel(spec, n, t, alpha))


@pytest.mark.parametrize("grid_n, stride", [(4096, 8), (64, 1), (1000, 4)])
def test_strided_probes_grid_fallbacks(double_well, grid_n, stride):
    # 65 nodes leave too few for any stride; 1000 % 16 != 0 but 1000 % 8 == 0
    cfg = kernels.QuadratureConfig(grid_n=grid_n)
    assert kernels._probe_stride(quadrature.odd_count(grid_n)) == stride
    alpha = 1.0 / math.sqrt(50)
    _assert_same_kernel(
        kernels.evolved_kernel(double_well, 50, 1.0, alpha, cfg),
        full_probe_evolved_kernel(double_well, 50, 1.0, alpha, cfg),
    )


def test_strided_probes_cut_v_evaluations(double_well, monkeypatch):
    points = [0]
    real_eval = kernels.pot.eval

    def counting_eval(spec, r):
        points[0] += np.size(r)
        return real_eval(spec, r)

    monkeypatch.setattr(kernels.pot, "eval", counting_eval)
    kernels.evolved_kernel(double_well, 50, 1.0, 1.0 / math.sqrt(50))
    strided, points[0] = points[0], 0
    full_probe_evolved_kernel(double_well, 50, 1.0, 1.0 / math.sqrt(50))
    assert strided <= 0.6 * points[0]


def test_log_num_peak_memory(double_well):
    # the argument buffer, V's output and the two temporaries of the row
    # reduction (four blocks, whatever the number of s rows), plus the rows'
    # results; the s-free parts and the Simpson weights are made per grid
    machine = kernels._GMachine(double_well, 50, 1.0, 0.5, kernels.DEFAULT_QUAD, tilted.DEFAULT_TOL)
    s = np.linspace(-6.0, 6.0, 513)
    machine._ensure(-6.0, 6.0)
    machine._log_num(s)
    block_rows = quadrature.ROW_BLOCK_ELEMENTS // machine.r.size
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        machine._log_num(s)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= (4 * block_rows + 2) * machine.r.size * 8


def test_evolved_kernel_evaluates_v_in_bounded_blocks(double_well, monkeypatch):
    sizes = []
    real_eval = kernels.pot.eval

    def recording_eval(spec, r):
        sizes.append(np.size(r))
        return real_eval(spec, r)

    monkeypatch.setattr(kernels.pot, "eval", recording_eval)
    kernels.evolved_kernel(double_well, 3200, 1.0, 1.0 / math.sqrt(3200))
    # one 16385-point localisation grid is the largest 1-D evaluation
    assert max(sizes) <= max(quadrature.ROW_BLOCK_ELEMENTS, 16385)


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


def test_window_radius_override(cosine1):
    spec = pot.with_window(cosine1, 8.0)
    assert pot.window_radius(spec) == 8.0
    # classification is insensitive to the window for this periodic potential
    from gibbsdyn import classify

    assert classify.crossover_time(spec, find_witness=False).t_c == pytest.approx(2.0, abs=1e-6)
