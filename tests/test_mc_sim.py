import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import log_ndtr, logsumexp
from scipy.stats import chi2, ks_2samp

from conftest import dense_log_acceptance, literal_reject_samples, two_sample_dkw_floor
from gibbsdyn import kernels, mc_sim, potential as pot
from gibbsdyn.errors import ConfigError, InsufficientStatisticsError


def rng_for(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def test_config_validation():
    with pytest.raises(ConfigError):
        mc_sim.SimConfig(n=1, t=1.0, alpha_target=0.0)
    with pytest.raises(ConfigError):
        mc_sim.SimConfig(n=8, t=0.0, alpha_target=0.0)
    for h in (0.0, math.inf, math.nan):
        with pytest.raises(ConfigError):
            mc_sim.SimConfig(n=8, t=1.0, alpha_target=0.0, bin_halfwidth=h)
    with pytest.raises(ConfigError):
        mc_sim.SimConfig(n=8, t=1.0, alpha_target=0.0, method="turbo")
    with pytest.raises(ConfigError):
        mc_sim.SimConfig(n=8, t=1.0, alpha_target=0.0, seed=-1)
    for t, alpha in ((math.inf, 0.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ConfigError):
            mc_sim.SimConfig(n=8, t=t, alpha_target=alpha)


# --- initial magnetisation sampling ---------------------------------------------


def initial_draws(spec, n, rng, size):
    """Draws from the time-0 magnetisation law by the samplers' inverse CDF."""
    return mc_sim._initial_magnetisation_table(spec, n).sample(rng.random(size))


def test_initial_magnetisation_flat(zero):
    draws = initial_draws(zero, 25, rng_for(1), size=100_000)
    se_mean = (1 / math.sqrt(25)) / math.sqrt(draws.size)
    assert abs(draws.mean()) < 3 * se_mean
    assert draws.var() == pytest.approx(1 / 25, rel=0.05)


def test_initial_magnetisation_quadratic(quadratic):
    # density ~ exp(-n (s^2 + s^2/2) * ...): variance 1/(3n)
    n = 25
    draws = initial_draws(quadratic, n, rng_for(2), size=100_000)
    var_want = 1.0 / (3 * n)
    se_var = var_want * math.sqrt(2.0 / draws.size)
    assert abs(draws.var() - var_want) < 3 * se_var


def test_initial_magnetisation_double_well_modes(double_well):
    # minimisers of V(s) + s^2/2 = s^4 - 3.5 s^2 + 3 sit at +-sqrt(1.75)
    draws = initial_draws(double_well, 50, rng_for(3), size=100_000)
    hist, edges = np.histogram(draws, bins=201, range=(-2.5, 2.5))
    centers = 0.5 * (edges[1:] + edges[:-1])
    top = centers[np.flatnonzero((hist[1:-1] > hist[:-2]) & (hist[1:-1] >= hist[2:])) + 1]
    top = top[hist[np.searchsorted(centers, top)] > 0.2 * hist.max()]
    want = math.sqrt(1.75)
    assert min(abs(m - want) for m in top) < 0.05
    assert min(abs(m + want) for m in top) < 0.05


def test_initial_magnetisation_chi_square_gof(quadratic):
    n = 25
    draws = initial_draws(quadratic, n, rng_for(4), size=100_000)
    table = mc_sim._initial_magnetisation_table(quadratic, n)
    edges = np.linspace(-0.6, 0.6, 41)
    counts, _ = np.histogram(draws, bins=edges)
    cdf = np.interp(edges, table.grid, table.cdf)
    probs = np.diff(cdf)
    keep = probs * draws.size >= 10
    expected = probs[keep] * draws.size
    stat = float(np.sum((counts[keep] - expected) ** 2 / expected))
    assert stat < chi2.ppf(0.99, df=keep.sum() - 1)


# --- conditional evolution ---------------------------------------------------------


def test_evolve_flat_ks_vs_quadrature(zero):
    cfg = mc_sim.SimConfig(n=16, t=1.0, alpha_target=0.0, replicas=100_000, seed=42)
    emp = mc_sim.evolve_and_condition(cfg, zero)
    assert emp.method == mc_sim.METHOD_REJECT
    ref = kernels.evolved_kernel(zero, 16, 1.0, 0.0)
    assert mc_sim.ks_distance(emp, ref) < 0.03


def test_evolve_quadratic_atypical_alpha(quadratic):
    # alpha = 1 is ~5 sd out for n=32: auto mode switches to the exact sampler
    cfg = mc_sim.SimConfig(n=32, t=1.0, alpha_target=1.0, replicas=100_000, seed=10)
    emp = mc_sim.evolve_and_condition(cfg, quadratic)
    assert emp.method == mc_sim.METHOD_EXACT
    ref = kernels.evolved_kernel(quadratic, 32, 1.0, 1.0)
    se = math.sqrt(emp.variance() / emp.accepted_count)
    # binning over [alpha-h, alpha+h] shifts the mean by O(h); allow both terms
    assert abs(emp.mean() - ref.mean) < 3 * se + 0.05


def test_seeded_determinism(zero, double_well):
    for spec, method in ((zero, "reject"), (double_well, "exact")):
        cfg = mc_sim.SimConfig(n=16, t=0.5, alpha_target=0.0, replicas=20_000, seed=9, method=method)
        a = mc_sim.evolve_and_condition(cfg, spec)
        b = mc_sim.evolve_and_condition(cfg, spec)
        assert np.array_equal(a.samples, b.samples)
        assert a.accepted_count == b.accepted_count


def test_exact_sampler_matches_rejection_law(quadratic):
    # the two samplers draw from the same conditional law
    cfg_r = mc_sim.SimConfig(n=16, t=1.0, alpha_target=0.0, replicas=200_000, seed=3, method="reject")
    rej = mc_sim.evolve_and_condition(cfg_r, quadratic)
    cfg_e = mc_sim.SimConfig(
        n=16, t=1.0, alpha_target=0.0, replicas=rej.accepted_count, seed=19, method="exact"
    )
    exa = mc_sim.evolve_and_condition(cfg_e, quadratic)
    assert ks_2samp(rej.samples, exa.samples).pvalue > 1e-3


def test_estimate_acceptance_in_trough(double_well):
    # the criterion-6 bin sits in the trough between the two magnetised
    # phases, which the inverse-CDF grid of the magnetisation table drops;
    # at alpha = 2.2 the bin lies far above the well, in the upper tail of
    # the companions' law given any likely s0
    n, t, h = 64, 0.1, 0.05
    s = np.linspace(-4.0, 4.0, 400_001)
    log_base = -n * (np.asarray(pot.eval(double_well, s)) + s**2 / 2.0)
    sd = math.sqrt((1.0 / n + t) / (n - 1.0))
    for a in (0.0, 2.2):
        cfg = mc_sim.SimConfig(n=n, t=t, alpha_target=a, bin_halfwidth=h)
        lo, hi = (a - h - s) / sd, (a + h - s) / sd
        # log(Phi(hi) - Phi(lo)), taken in the lower tail on both sides of the bin
        upper = lo > 0
        lo, hi = np.where(upper, -hi, lo), np.where(upper, -lo, hi)
        log_hi = log_ndtr(hi)
        log_w = log_hi + np.log1p(-np.exp(log_ndtr(lo) - log_hi))
        want = logsumexp(log_base + log_w) - logsumexp(log_base)
        assert math.log(mc_sim.estimate_acceptance(double_well, cfg)) == pytest.approx(want, abs=0.01)


@pytest.mark.parametrize("alpha", [-4.0, -2.2, -1.9, 0.0, 1.9, 2.2, 4.0])
def test_exact_sampler_far_from_the_well(double_well, monkeypatch, alpha):
    # the double well is even, so bins above and below the wells are mirror
    # images; the hit probability is read from the lower tail on both sides
    companion, companions = mc_sim._companion_in_bin, []

    def recorded(s0, u, config):
        companions.append(companion(s0, u, config))
        return companions[-1]

    monkeypatch.setattr(mc_sim, "_companion_in_bin", recorded)
    n, t, h = 64, 0.1, 0.005
    cfg = mc_sim.SimConfig(n=n, t=t, alpha_target=alpha, replicas=100_000, seed=8, bin_halfwidth=h, method="exact")
    emp = mc_sim.evolve_and_condition(cfg, double_well)
    assert mc_sim.ks_distance(emp, kernels.evolved_kernel(double_well, n, t, alpha)) < 0.02
    (m_comp,) = companions
    assert np.all(np.abs(m_comp - alpha) <= h)


@pytest.mark.parametrize("alpha", [4.0, -4.0])
def test_exact_sampler_reports_the_log_acceptance_of_a_far_bin(double_well, alpha):
    # the hit law's log mass is about 1414 below the time-0 law's, so the
    # acceptance underflows to 0.0 as a float and only its log carries it
    cfg = mc_sim.SimConfig(n=64, t=0.1, alpha_target=alpha, replicas=1000, seed=8, bin_halfwidth=0.005,
                           method="exact")
    emp = mc_sim.evolve_and_condition(cfg, double_well)
    assert emp.acceptance_rate == 0.0
    assert emp.log_acceptance_rate == pytest.approx(dense_log_acceptance(double_well, cfg), rel=0.0, abs=1e-6)
    assert emp.log_acceptance_rate == pytest.approx(-1413.70, rel=0.0, abs=0.01)


def test_log_acceptance_rate_is_the_log_of_the_rate(double_well):
    # the exact sampler's from the two tables' log masses, the reject
    # sampler's from its accepted count
    for method, alpha in ((mc_sim.METHOD_EXACT, 0.0), (mc_sim.METHOD_REJECT, 1.2)):
        cfg = mc_sim.SimConfig(n=16, t=1.0, alpha_target=alpha, replicas=20_000, seed=3, bin_halfwidth=0.05,
                               method=method)
        emp = mc_sim.evolve_and_condition(cfg, double_well)
        assert emp.log_acceptance_rate == pytest.approx(math.log(emp.acceptance_rate), rel=1e-15), method
    assert emp.acceptance_rate == emp.accepted_count / cfg.replicas


def test_auto_fallback_builds_magnetisation_table_once(double_well, monkeypatch):
    # at the criterion-6 bin "auto" falls back to the exact sampler, which
    # reuses the acceptance estimate instead of tabulating the time-0 law again
    build = mc_sim._initial_magnetisation_table
    builds = []

    def counted(spec, n):
        builds.append(n)
        return build(spec, n)

    monkeypatch.setattr(mc_sim, "_initial_magnetisation_table", counted)
    cfg = mc_sim.SimConfig(n=64, t=0.1, alpha_target=0.0, replicas=1000, seed=3, bin_halfwidth=0.05)
    emp = mc_sim.evolve_and_condition(cfg, double_well)
    assert emp.method == mc_sim.METHOD_EXACT
    assert builds == [64]
    assert emp.acceptance_rate == mc_sim.estimate_acceptance(double_well, cfg)


def test_auto_reject_builds_magnetisation_table_once(double_well, monkeypatch):
    # a healthy bin: "auto" estimates the yield and runs the reject sampler on
    # the same time-0 table
    build = mc_sim._initial_magnetisation_table
    builds = []

    def counted(spec, n):
        builds.append(n)
        return build(spec, n)

    monkeypatch.setattr(mc_sim, "_initial_magnetisation_table", counted)
    cfg = mc_sim.SimConfig(n=16, t=1.0, alpha_target=1.2, replicas=20_000, seed=3, bin_halfwidth=0.05)
    emp = mc_sim.evolve_and_condition(cfg, double_well)
    assert emp.method == mc_sim.METHOD_REJECT
    assert builds == [16]
    forced = mc_sim.evolve_and_condition(replace(cfg, method=mc_sim.METHOD_REJECT), double_well)
    assert np.array_equal(emp.samples, forced.samples)


def _assert_reject_draws_the_literal_law(table, config):
    """The three-coordinate sampler against the literal n-spin pipeline, run
    on another seed: acceptance rates, and the accepted first spins by a
    two-sample KS statistic, each under its DKW floor at delta = 1e-3."""
    got = mc_sim._evolve_reject(table, config)
    want = literal_reject_samples(table, replace(config, seed=config.seed + 1))
    assert got.acceptance_rate == got.samples.size / config.replicas
    R = config.replicas
    assert abs(got.acceptance_rate - want.size / R) < two_sample_dkw_floor(R, R, 1e-3)
    assert ks_2samp(got.samples, want).statistic < two_sample_dkw_floor(got.samples.size, want.size, 1e-3)


@pytest.mark.parametrize(
    "name, n, t, alpha, h",
    [
        ("zero", 2, 0.5, 0.3, 0.05),
        # at n = 2 the companion is one spin, which the first spin's bridge
        # term moves by -d: a bin in the tail shows a lost correlation
        ("zero", 2, 0.5, 1.0, 0.05),
        ("double_well", 16, 1.0, 1.2, 0.05),
        ("double_well", 64, 0.1, 1.4, 0.2),
    ],
    ids=["zero-n2", "zero-n2-tail", "dw-n16", "dw-n64"],
)
def test_reject_sampler_draws_the_literal_law(builtin_specs, name, n, t, alpha, h):
    # full blocks and a partial one, as the replica count is no block multiple
    config = mc_sim.SimConfig(n=n, t=t, alpha_target=alpha, replicas=8 * mc_sim._BLOCK + 1234, seed=5,
                              bin_halfwidth=h, method="reject")
    _assert_reject_draws_the_literal_law(mc_sim._initial_magnetisation_table(builtin_specs[name], n), config)


# a block holds a few arrays of _BLOCK floats, whatever n, accepted samples
# included (5.0 x _BLOCK x 8 bytes measured at n = 64, 512 and 1e6)
REJECT_PEAK_BYTES = 6 * mc_sim._BLOCK * 8


def _reject_peak_memory(table, config):
    mc_sim._evolve_reject(table, config)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mc_sim._evolve_reject(table, config)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_reject_block_peak_memory(double_well):
    for n in (64, 10**6):
        config = mc_sim.SimConfig(n=n, t=0.1, alpha_target=1.4, replicas=mc_sim._BLOCK, bin_halfwidth=0.2,
                                  method="reject")
        table = mc_sim._initial_magnetisation_table(double_well, n)
        assert _reject_peak_memory(table, config) <= REJECT_PEAK_BYTES


def test_reject_block_memory_is_capped_in_n(zero):
    # at n = 512 a block of _BLOCK replicas would hold 16.7 million spins;
    # the sampler holds three coordinates per replica
    config = mc_sim.SimConfig(n=512, t=1.0, alpha_target=0.0, replicas=40_000, method="reject")
    table = mc_sim._initial_magnetisation_table(zero, config.n)
    assert _reject_peak_memory(table, config) <= REJECT_PEAK_BYTES
    _assert_reject_draws_the_literal_law(table, config)


def test_insufficient_statistics_error(double_well):
    cfg = mc_sim.SimConfig(
        n=64, t=0.1, alpha_target=0.0, replicas=10_000, seed=1, bin_halfwidth=0.05, method="reject"
    )
    with pytest.raises(InsufficientStatisticsError):
        mc_sim.evolve_and_condition(cfg, double_well)


def test_conditioning_sanity_h_sweep(zero, double_well):
    # KS to the exact-alpha kernel shrinks as the bin narrows
    ref = kernels.evolved_kernel(zero, 16, 1.0, 0.0)
    stats = []
    for h, reps in ((0.2, 50_000), (0.1, 100_000), (0.05, 200_000)):
        cfg = mc_sim.SimConfig(n=16, t=1.0, alpha_target=0.0, replicas=reps, seed=13, bin_halfwidth=h)
        stats.append(mc_sim.ks_distance(mc_sim.evolve_and_condition(cfg, zero), ref))
    assert stats[2] <= stats[0] + 0.01  # non-increasing up to statistical noise

    ref_dw = kernels.evolved_kernel(double_well, 64, 0.1, 0.0)
    exact_stats = []
    for h in (0.05, 0.02, 0.01):
        cfg = mc_sim.SimConfig(
            n=64, t=0.1, alpha_target=0.0, replicas=100_000, seed=21, bin_halfwidth=h, method="exact"
        )
        exact_stats.append(mc_sim.ks_distance(mc_sim.evolve_and_condition(cfg, double_well), ref_dw))
    assert exact_stats[0] > exact_stats[1] > exact_stats[2]
    assert exact_stats[2] < 0.02


# --- KS statistic -----------------------------------------------------------------


def test_ks_self_consistency(zero):
    ref = kernels.evolved_kernel(zero, 16, 1.0, 0.0)
    rng = rng_for(14)
    u = rng.random(10_000)
    draws = np.interp(u, ref.cdf(), ref.grid)
    assert mc_sim.ks_distance(draws, ref) < 0.02


def test_ks_distinguishes_normals():
    # sup_x |Phi(x) - Phi(x/sqrt(2))| ~ 0.083
    rng = rng_for(15)
    samples = rng.standard_normal(10_000)
    ref = kernels.gaussian_kernel(0.0, 2.0)
    assert mc_sim.ks_distance(samples, ref) > 0.08


def test_ks_needs_samples(zero):
    ref = kernels.evolved_kernel(zero, 16, 1.0, 0.0)
    with pytest.raises(InsufficientStatisticsError):
        mc_sim.ks_distance(np.zeros(10), ref)
