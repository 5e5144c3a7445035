"""Monte Carlo verification harness for the evolved conditional kernels.

The simulated object: n spins drawn from the mean-field Gibbs law (standard
Gaussian reference tilted by exp(-n V(magnetisation))), each spin then adding
an independent N(0, t) Brownian increment. The empirical conditional law of
the first spin given that the magnetisation of the other n-1 spins lands in
the bin [alpha - h, alpha + h] is compared against quadrature.

Both samplers draw the initial magnetisation s0 and never build the n spins:

  reject  per replica, the three Gaussian coordinates below, with the bin
          imposed by rejection. Acceptance is P(m_{n-1}(t) in bin), which
          decays like exp(-n * rate gap) when alpha is atypical; the sampler
          raises InsufficientStatisticsError below 100 accepted samples.

  exact   the same joint law factorised through closed-form Gaussian
          conditionals: s0 from its law given a hit (the time-0 law tilted
          by the hit probability), m_{n-1}(t) from a normal truncated to the
          bin, then x1. No rejection, so atypical alpha costs nothing.

Both rest on Gaussian algebra. The spins at time 0 are the bridge
s0 + z - mean(z), z standard normal in R^n, so d = z_1 - mean(z) is
N(0, 1 - 1/n), x1(0) = s0 + d and m_{n-1}(0) = s0 - d/(n - 1); the Brownian
increments add independent N(0, t) to x1 and N(0, t/(n - 1)) to m_{n-1}.
The tests keep the literal n-spin pipeline as the reject sampler's oracle.

The default method "auto" uses reject while its expected yield is healthy
and falls back to exact for rare-event conditioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtri_exp

from gibbsdyn import potential as pot
from gibbsdyn.errors import ConfigError, InsufficientStatisticsError
from gibbsdyn.kernels import KernelEstimate
from gibbsdyn.quadrature import localize, log_integral, simpson_grid, trapezoid_cdf

METHOD_AUTO = "auto"
METHOD_REJECT = "reject"
METHOD_EXACT = "exact"

MIN_ACCEPTED = 100
_BLOCK = 32768  # reject replicas are drawn in fixed-size blocks, in replica order


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
    log_acceptance_rate: float  # finite where acceptance_rate underflows to 0.0
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
    """Tabulated inverse CDF of a 1-D law known up to normalisation.

    `grid`/`cdf` drop the points where the CDF does not grow at float
    resolution, which makes the inverse CDF well defined. `log_mass` is the
    log of the law's unnormalised mass; `log_density` and `B` are the law and
    the window [-B, B] it was tabulated from.
    """

    grid: np.ndarray
    cdf: np.ndarray
    log_mass: float
    log_density: object
    B: float

    def sample(self, u: np.ndarray) -> np.ndarray:
        return np.interp(u, self.cdf, self.grid)


def _tabulate(log_density, B: float) -> _MagnetisationTable:
    lo, hi, _ = localize(log_density, -B, B, 16385)
    x = simpson_grid(lo, hi, 32769)
    L = np.asarray(log_density(x), dtype=float)
    log_mass = float(log_integral(x, L))
    # strictly increasing cdf for a well-defined inverse
    cdf = np.maximum.accumulate(trapezoid_cdf(x, np.exp(L - log_mass)))
    keep = np.concatenate(([True], np.diff(cdf) > 0))
    return _MagnetisationTable(x[keep], cdf[keep], log_mass, log_density, B)


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


def _lower_tail_bin(s: np.ndarray, config: SimConfig):
    """The bin in standard units of m_{n-1}(t) given s0 = s, as (sign, lo, hi):
    the companions hit it when sign * Z lies in [lo, hi] for a standard
    normal Z. Rows whose bin lies wholly above the mean are reflected
    (sign -1), so lo <= 0 on every row and the hit probability is read from
    the lower tail, where log_ndtr neither cancels nor underflows."""
    sd = _companion_sd(config.n, config.t)
    a, h = config.alpha_target, config.bin_halfwidth
    lo, hi = (a - h - s) / sd, (a + h - s) / sd
    upper = lo > 0
    return np.where(upper, -1.0, 1.0), np.where(upper, -hi, lo), np.where(upper, -lo, hi)


def _hit_table(initial: _MagnetisationTable, config: SimConfig) -> _MagnetisationTable:
    """The law of s0 given a hit: the time-0 magnetisation law tilted by the
    hit probability. Its mass over the initial table's is the acceptance."""
    a, h = config.alpha_target, config.bin_halfwidth

    def log_density(s):
        # plus log(Phi(hi) - Phi(lo)), the hit probability, with lo <= 0
        _, lo, hi = _lower_tail_bin(np.asarray(s), config)
        log_hi = log_ndtr(hi)
        with np.errstate(divide="ignore"):  # log(0) where Phi(lo) == Phi(hi) in floats
            return initial.log_density(s) + log_hi + np.log(-np.expm1(log_ndtr(lo) - log_hi))

    sd = _companion_sd(config.n, config.t)
    return _tabulate(log_density, max(initial.B, abs(a) + h + 12.0 * sd))


def estimate_acceptance(spec: pot.PotentialSpec, config: SimConfig) -> float:
    """P(m_{n-1}(t) in the bin), by quadrature over the initial magnetisation."""
    initial = _initial_magnetisation_table(spec, config.n)
    return math.exp(_hit_table(initial, config).log_mass - initial.log_mass)


def _evolve_reject(table: _MagnetisationTable, config: SimConfig) -> EmpiricalKernel:
    """The reject sampler on three Gaussian coordinates per replica; table is
    the time-0 magnetisation table."""
    n, t = config.n, config.t
    a, h = config.alpha_target, config.bin_halfwidth
    rng = _rng(config.seed)

    accepted: list[np.ndarray] = []
    done = 0
    while done < config.replicas:
        block = min(_BLOCK, config.replicas - done)
        s0 = table.sample(rng.random(block))
        d = math.sqrt(1.0 - 1.0 / n) * rng.standard_normal(block)  # x1(0) - s0
        # the companions' magnetisation: s0 - d/(n - 1) at time 0, plus the
        # mean of their n - 1 Brownian increments
        m_comp = s0 - d / (n - 1.0) + math.sqrt(t / (n - 1.0)) * rng.standard_normal(block)
        hit = np.abs(m_comp - a) <= h
        accepted.append(s0[hit] + d[hit] + math.sqrt(t) * rng.standard_normal(np.count_nonzero(hit)))
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
    return EmpiricalKernel(samples=samples, accepted_count=int(samples.size), acceptance_rate=rate,
                           log_acceptance_rate=math.log(rate), method=METHOD_REJECT, config=config)


def _companion_in_bin(s0: np.ndarray, u: np.ndarray, config: SimConfig) -> np.ndarray:
    """m_{n-1}(t) given s0 and a hit: a normal truncated to the bin, read off
    its inverse CDF at the uniform draws u in the lower-tail form."""
    sign, lo, hi = _lower_tail_bin(s0, config)
    log_hi = log_ndtr(hi)
    # u Phi(hi) + (1 - u) Phi(lo), in log space through Phi(hi)
    z = ndtri_exp(log_hi + np.log(u + (1.0 - u) * np.exp(log_ndtr(lo) - log_hi)))
    return s0 + sign * _companion_sd(config.n, config.t) * np.clip(z, lo, hi)


def _evolve_exact(hits: _MagnetisationTable, config: SimConfig, log_rate: float) -> EmpiricalKernel:
    """The exact sampler; hits is the law of s0 given a hit (_hit_table) and
    log_rate the log of its acceptance estimate."""
    n, t = config.n, config.t
    rng = _rng(config.seed)
    sd_m = _companion_sd(n, t)

    R = config.replicas
    s0 = hits.sample(rng.random(R))
    m_comp = _companion_in_bin(s0, rng.random(R), config)

    # first spin at time 0 given (s0, m_comp), then its Brownian increment
    var_m = sd_m**2
    slope = (-1.0 / n) / var_m
    cond_var = (1.0 - 1.0 / n) - (1.0 / n**2) / var_m
    x1_0 = s0 + slope * (m_comp - s0) + math.sqrt(max(cond_var, 0.0)) * rng.standard_normal(R)
    x1_t = x1_0 + math.sqrt(t) * rng.standard_normal(R)

    return EmpiricalKernel(samples=x1_t, accepted_count=int(R), acceptance_rate=math.exp(log_rate),
                           log_acceptance_rate=log_rate, method=METHOD_EXACT, config=config)


def evolve_and_condition(config: SimConfig, spec: pot.PotentialSpec) -> EmpiricalKernel:
    """Empirical conditional law of the first spin at time t given that the
    other spins' magnetisation fell in [alpha - h, alpha + h]."""
    # the time-0 table is built once, whichever samplers read it
    table = _initial_magnetisation_table(spec, config.n)
    if config.method == METHOD_REJECT:
        return _evolve_reject(table, config)
    hits = _hit_table(table, config)
    log_rate = hits.log_mass - table.log_mass
    if config.method == METHOD_AUTO and math.exp(log_rate) * config.replicas >= 10.0 * MIN_ACCEPTED:
        return _evolve_reject(table, config)
    return _evolve_exact(hits, config, log_rate)


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
