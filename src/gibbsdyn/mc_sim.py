"""Monte Carlo verification harness for the evolved conditional kernels.

The simulated object: n spins drawn from the mean-field Gibbs law (standard
Gaussian reference tilted by exp(-n V(magnetisation))), each spin then adding
an independent N(0, t) Brownian increment. The empirical conditional law of
the first spin given that the magnetisation of the other n-1 spins lands in
the bin [alpha - h, alpha + h] is compared against quadrature.

Two samplers produce the same law:

  reject  the literal pipeline: draw the initial magnetisation, build the
          spin vector as a Gaussian bridge, evolve, bin on the companions'
          magnetisation. Acceptance is P(m_{n-1}(t) in bin), which decays
          like exp(-n * rate gap) when alpha is atypical; the sampler raises
          InsufficientStatisticsError below 100 accepted samples.

  exact   the same joint law factorised through closed-form Gaussian
          conditionals: only (s0, m_{n-1}(t), x1) are ever sampled, with the
          bin constraint absorbed into a tilt of the s0 density and a
          truncated normal for the companion magnetisation. No rejection, so
          atypical alpha costs nothing.

Equality of the two laws is pure Gaussian algebra: given the initial
magnetisation s0, the pair (x1(0), m_{n-1}(t)) is bivariate normal with
means (s0, s0), variances (1 - 1/n, (1/n + t)/(n - 1)) and covariance -1/n,
and x1(t) = x1(0) + N(0, t) independently of the companion noise.

The default method "auto" uses reject while its expected yield is healthy
and falls back to exact for rare-event conditioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from gibbsdyn import potential as pot
from gibbsdyn.errors import ConfigError, InsufficientStatisticsError
from gibbsdyn.kernels import KernelEstimate
from gibbsdyn.quadrature import localize, log_integral, simpson_grid, trapezoid_cdf

METHOD_AUTO = "auto"
METHOD_REJECT = "reject"
METHOD_EXACT = "exact"

MIN_ACCEPTED = 100
_BLOCK = 32768  # replicas are drawn in fixed-size blocks, in replica order
_BLOCK_ELEMENTS = 2**21  # spins per reject block at most: 16 MB of float64


@dataclass(frozen=True)
class SimConfig:
    n: int
    t: float
    alpha_target: float
    replicas: int = 100_000
    seed: int = 0
    bin_halfwidth: float = 0.05
    method: str = METHOD_AUTO

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("SimConfig requires n >= 2")
        if not (self.t > 0) or not math.isfinite(self.t):
            raise ConfigError("SimConfig requires finite t > 0")
        if not math.isfinite(self.alpha_target):
            raise ConfigError("SimConfig requires a finite alpha_target")
        if not (self.bin_halfwidth > 0) or not math.isfinite(self.bin_halfwidth):
            raise ConfigError("bin_halfwidth must be finite and positive")
        if self.replicas < 1:
            raise ConfigError("replicas must be positive")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must lie in [0, 2**64)")
        if self.method not in (METHOD_AUTO, METHOD_REJECT, METHOD_EXACT):
            raise ConfigError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class EmpiricalKernel:
    samples: np.ndarray  # first-spin values whose companion magnetisation hit the bin
    accepted_count: int
    acceptance_rate: float
    method: str
    config: SimConfig

    def mean(self) -> float:
        return float(np.mean(self.samples))

    def variance(self) -> float:
        return float(np.var(self.samples))


def _rng(seed: int) -> np.random.Generator:
    # counter-based generator: deterministic, cheap to fast-forward
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


@dataclass(frozen=True)
class _MagnetisationTable:
    """Tabulated density and inverse CDF of a 1-D law known up to normalisation.

    `quad_grid`/`density` is the whole tabulation grid, for integrals against
    the law. `grid`/`cdf` drop the points where the CDF does not grow at float
    resolution, which makes the inverse CDF well defined but also drops
    low-density troughs, so they serve sampling only. `log_density` and `B`
    are the law and the window [-B, B] it was tabulated from.
    """

    quad_grid: np.ndarray
    density: np.ndarray
    grid: np.ndarray
    cdf: np.ndarray
    log_density: object
    B: float

    def sample(self, u: np.ndarray) -> np.ndarray:
        return np.interp(u, self.cdf, self.grid)


def _tabulate(log_density, B: float) -> _MagnetisationTable:
    lo, hi, _ = localize(log_density, -B, B, 16385)
    x = simpson_grid(lo, hi, 32769)
    L = np.asarray(log_density(x), dtype=float)
    dens = np.exp(L - float(log_integral(x, L)))
    # strictly increasing cdf for a well-defined inverse
    cdf = np.maximum.accumulate(trapezoid_cdf(x, dens))
    keep = np.concatenate(([True], np.diff(cdf) > 0))
    return _MagnetisationTable(x, dens, x[keep], cdf[keep], log_density, B)


def _initial_magnetisation_table(spec: pot.PotentialSpec, n: int) -> _MagnetisationTable:
    """Time-0 magnetisation density, proportional to exp(-n [V(s) + s^2/2])."""
    floor = min(spec.v_floor, 0.0)

    def log_density(s):
        s = np.asarray(s)
        return -n * (np.asarray(pot.eval(spec, s)) - floor) - n * s**2 / 2.0

    v0 = float(pot.eval(spec, 0.0)) - floor
    return _tabulate(log_density, math.sqrt(2.0 * (n * v0 + 45.0) / n) + 1.0)


def _companion_sd(n: int, t: float) -> float:
    """sd of m_{n-1}(t) given the initial magnetisation s0."""
    return math.sqrt((1.0 / n + t) / (n - 1.0))


def estimate_acceptance(spec: pot.PotentialSpec, config: SimConfig) -> float:
    """P(m_{n-1}(t) in the bin), by quadrature over the initial magnetisation."""
    return _bin_probability(_initial_magnetisation_table(spec, config.n), config)


def _bin_probability(table: _MagnetisationTable, config: SimConfig) -> float:
    """estimate_acceptance on an already built time-0 magnetisation table."""
    n, t, a, h = config.n, config.t, config.alpha_target, config.bin_halfwidth
    sd = _companion_sd(n, t)
    s = table.quad_grid
    w = ndtr((a + h - s) / sd) - ndtr((a - h - s) / sd)
    return float(np.trapezoid(table.density * w, s))


def _evolve_reject(table: _MagnetisationTable, config: SimConfig) -> EmpiricalKernel:
    """The literal sampler; table is the time-0 magnetisation table."""
    n, t = config.n, config.t
    a, h = config.alpha_target, config.bin_halfwidth
    rng = _rng(config.seed)

    # two (block, n) buffers for the whole run, of at most _BLOCK_ELEMENTS
    # each; each block is built in place, with the draws in the order
    # random, normal, normal
    rows = min(_BLOCK, config.replicas, max(1, _BLOCK_ELEMENTS // n))
    spins_buf, noise_buf = np.empty((rows, n)), np.empty((rows, n))
    accepted: list[np.ndarray] = []
    done = 0
    while done < config.replicas:
        block = min(rows, config.replicas - done)
        s0 = table.sample(rng.random(block))
        spins = rng.standard_normal(out=spins_buf[:block])
        mean = spins.mean(axis=1, keepdims=True)
        spins += s0[:, None]
        spins -= mean  # the Gaussian bridge s0 + z - mean(z): spins at time 0
        noise = rng.standard_normal(out=noise_buf[:block])
        noise *= math.sqrt(t)
        spins += noise  # spins at time t
        m_comp = spins[:, 1:].mean(axis=1)
        hit = np.abs(m_comp - a) <= h
        accepted.append(spins[hit, 0])
        done += block
    samples = np.concatenate(accepted)
    rate = samples.size / done
    if samples.size < MIN_ACCEPTED:
        raise InsufficientStatisticsError(
            f"only {samples.size} accepted samples out of {done} replicas; "
            "increase bin_halfwidth or replicas, or use method='exact'",
            accepted=int(samples.size),
            acceptance_rate=rate,
        )
    return EmpiricalKernel(
        samples=samples,
        accepted_count=int(samples.size),
        acceptance_rate=rate,
        method=METHOD_REJECT,
        config=config,
    )


def _evolve_exact(initial: _MagnetisationTable, config: SimConfig, rate: float) -> EmpiricalKernel:
    """The exact sampler; initial is the time-0 magnetisation table and rate
    the acceptance estimate from it, reported as the acceptance rate."""
    n, t = config.n, config.t
    a, h = config.alpha_target, config.bin_halfwidth
    rng = _rng(config.seed)
    sd_m = _companion_sd(n, t)

    # s0 | bin-hit: initial magnetisation density tilted by the hit probability
    def log_density(s):
        s = np.asarray(s)
        w = ndtr((a + h - s) / sd_m) - ndtr((a - h - s) / sd_m)
        with np.errstate(divide="ignore"):
            return initial.log_density(s) + np.log(w)

    table = _tabulate(log_density, max(initial.B, abs(a) + h + 12.0 * sd_m))

    R = config.replicas
    s0 = table.sample(rng.random(R))

    # companion magnetisation: truncated normal on the bin
    lo_z = (a - h - s0) / sd_m
    hi_z = (a + h - s0) / sd_m
    plo = ndtr(lo_z)
    phi = ndtr(hi_z)
    u = rng.random(R)
    m_comp = s0 + sd_m * ndtri(np.clip(plo + u * (phi - plo), 1e-300, 1.0 - 1e-16))

    # first spin at time 0 given (s0, m_comp), then its Brownian increment
    var_m = sd_m**2
    slope = (-1.0 / n) / var_m
    cond_var = (1.0 - 1.0 / n) - (1.0 / n**2) / var_m
    x1_0 = s0 + slope * (m_comp - s0) + math.sqrt(max(cond_var, 0.0)) * rng.standard_normal(R)
    x1_t = x1_0 + math.sqrt(t) * rng.standard_normal(R)

    return EmpiricalKernel(
        samples=x1_t,
        accepted_count=int(R),
        acceptance_rate=rate,
        method=METHOD_EXACT,
        config=config,
    )


def evolve_and_condition(config: SimConfig, spec: pot.PotentialSpec) -> EmpiricalKernel:
    """Empirical conditional law of the first spin at time t given that the
    other spins' magnetisation fell in [alpha - h, alpha + h]."""
    # the time-0 table is built once, whichever samplers read it
    table = _initial_magnetisation_table(spec, config.n)
    if config.method == METHOD_REJECT:
        return _evolve_reject(table, config)
    rate = _bin_probability(table, config)
    if config.method == METHOD_AUTO and rate * config.replicas >= 10.0 * MIN_ACCEPTED:
        return _evolve_reject(table, config)
    return _evolve_exact(table, config, rate)


def ks_distance(empirical: EmpiricalKernel | np.ndarray, reference: KernelEstimate) -> float:
    """Two-sided Kolmogorov-Smirnov statistic between an empirical sample and
    a grid-density reference law."""
    samples = empirical.samples if isinstance(empirical, EmpiricalKernel) else np.asarray(empirical)
    if samples.size < MIN_ACCEPTED:
        raise InsufficientStatisticsError(
            f"need at least {MIN_ACCEPTED} samples for a KS statistic, got {samples.size}",
            accepted=int(samples.size),
        )
    xs = np.sort(samples)
    ref = reference.cdf_at(xs)
    k = xs.size
    upper = np.arange(1, k + 1) / k
    lower = np.arange(0, k) / k
    return float(np.max(np.maximum(np.abs(upper - ref), np.abs(ref - lower))))
