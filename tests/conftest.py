import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

import csv
import math

from scipy.special import logsumexp

from gibbsdyn import gridmin, kernels, mc_sim, potential as pot, quadrature, tilted
from gibbsdyn.errors import AccuracyError, DomainError, NotDifferentiableError, OrderingError
from gibbsdyn.gridmin import INV_PHI, REFINE_TOL


@pytest.fixture(scope="session")
def zero():
    return pot.zero()


@pytest.fixture(scope="session")
def quadratic():
    return pot.polynomial([0.0, 0.0, 1.0])


@pytest.fixture(scope="session")
def double_well():
    # r^4 - 4 r^2 + 3
    return pot.polynomial([3.0, 0.0, -4.0, 0.0, 1.0])


@pytest.fixture(scope="session")
def shallow_quartic():
    # r^4 - r^2/2 + 1
    return pot.polynomial([1.0, 0.0, -0.5, 0.0, 1.0])


@pytest.fixture(scope="session")
def cosine1():
    return pot.cosine_well(1.0)


@pytest.fixture(scope="session")
def glued1():
    return pot.glued_exp(1.0)


@pytest.fixture(scope="session")
def builtin_specs(zero, quadratic, double_well, shallow_quartic, cosine1, glued1):
    return {
        "zero": zero,
        "r^2": quadratic,
        "double_well": double_well,
        "shallow_quartic": shallow_quartic,
        "cosine_beta1": cosine1,
        "cosine_beta04": pot.cosine_well(0.4),
        "cos_of_square": pot.cos_of_square(),
        "glued_beta1": glued1,
        "abs": pot.absolute(),
    }


def brute_force_minimisers(spec, t, alpha, n_grid=1_000_000, value_tol=1e-7, gap=1e-3):
    """Independent oracle: dense uniform scan of the un-normalised tilted rate
    on the same kind of truncation window the library uses. Returns the grid
    minimum and one location per near-minimal cluster (cluster argmins)."""
    c = alpha / (1.0 + t)
    k = (1.0 + t) / (2.0 * t)
    floor = min(spec.v_floor, 0.0)
    v_c = float(pot.eval(spec, c)) - floor
    R = np.sqrt((v_c + 10.0) / k)
    xs = np.linspace(c - R, c + R, n_grid)
    vals = np.asarray(pot.eval(spec, xs)) + xs**2 / 2.0 + (xs - alpha) ** 2 / (2.0 * t)
    m = float(vals.min())
    near = np.flatnonzero(vals <= m + value_tol * max(1.0, abs(m)))
    splits = np.flatnonzero(np.diff(xs[near]) > gap)
    locations = []
    for block in np.split(near, splits + 1):
        best = block[np.argmin(vals[block])]
        locations.append(float(xs[best]))
    return m, sorted(locations)


def all_triples_phi2_min(vals, xs):
    """Independent oracle: minimum of the second difference quotient over
    every triple i < j < k of an increasing grid, by the literal O(m^3) scan
    (one vectorised j-k plane per i)."""
    m = xs.size
    best = np.inf
    idx = np.arange(m)
    for i in range(m - 2):
        jj, kk = np.meshgrid(idx[i + 1 : m - 1], idx[i + 2 : m], indexing="ij")
        valid = kk > jj
        with np.errstate(divide="ignore", invalid="ignore"):
            q = pot.phi2_grid(vals, xs, np.full(jj.shape, i), jj, kk)
        best = min(best, float(np.min(np.where(valid, q, np.inf))))
    return best


def bin_averaged_kernel(spec, n, t, alpha, h):
    """Independent oracle for the binned Monte Carlo law: spin 1 at time t
    given that the companions' magnetisation m_{n-1}(t) lies in
    [alpha - h, alpha + h].

    The law is the mixture over alpha' in the bin of the exact-alpha kernels
    evolved_kernel(spec, n, t, alpha'), weighted by the density of
    m_{n-1}(t) at alpha'. That density is the time-0 magnetisation law
    exp(-n [V(s) + s^2/2]) convolved with N(0, (1/n + t)/(n - 1)); it is
    summed on a dense uniform s-grid over [-10, 10]. The bin integral is
    composite Simpson over 17 nodes."""
    alphas = np.linspace(alpha - h, alpha + h, 17)
    simpson = np.full(alphas.size, 2.0)
    simpson[1::2] = 4.0
    simpson[[0, -1]] = 1.0
    s = np.linspace(-10.0, 10.0, 400_001)
    log_base = -n * (np.asarray(pot.eval(spec, s)) + s**2 / 2.0)
    var_m = (1.0 / n + t) / (n - 1.0)
    log_density = np.array([logsumexp(log_base - (a - s) ** 2 / (2.0 * var_m)) for a in alphas])
    weights = simpson * np.exp(log_density - log_density.max())
    weights /= weights.sum()

    parts = [kernels.evolved_kernel(spec, n, t, float(a)) for a in alphas]
    x = np.linspace(min(k.grid[0] for k in parts), max(k.grid[-1] for k in parts), 16385)
    dens = sum(w * np.interp(x, k.grid, k.density, left=0.0, right=0.0) for w, k in zip(weights, parts))
    mass = float(np.trapezoid(dens, x))
    dens = dens / mass
    mean = float(np.trapezoid(x * dens, x))
    variance = float(np.trapezoid((x - mean) ** 2 * dens, x))
    return kernels.KernelEstimate(
        grid=x, density=dens, mean=mean, variance=variance, total_mass_defect=abs(1.0 - mass)
    )


def literal_log_num_integrand(machine, r, s):
    """Oracle for the g machine's numerator log-integrand
    -n (V(r (1 - 1/n) + s/n) - floor) - k2 (r - c)^2, written with one numpy
    temporary per operation, broadcasting r against s."""
    arg = r * (1.0 - 1.0 / machine.n) + s / machine.n
    v = np.asarray(pot.eval(machine.spec, arg)) - machine.floor
    return -machine.n * v - machine.k2 * (r - machine.center) ** 2


def unblocked_log_g(machine, s):
    """Slow oracle for kernels._GMachine.log_g on a call its first grid
    passes: the literal full s x r numerator array on the machine's r grid,
    reduced by one log_integral over axis 1."""
    s = np.asarray(s, dtype=float)
    machine._ensure(float(s.min()), float(s.max()))
    r = machine.r
    log_num = quadrature.log_integral(r, literal_log_num_integrand(machine, r[None, :], s[:, None]), axis=1)
    return log_num - machine._log_den


def unblocked_evolved_kernel(spec, n, t, alpha, cfg=kernels.DEFAULT_QUAD, log_g=unblocked_log_g):
    """Slow oracle for kernels.evolved_kernel on a call whose g machine never
    rebuilds: the same s-law support and grids, with the numerator and the
    N(s, t) mixture each built as one full array and reduced in one call.
    Every log g, the s-support probes included, is log_g(machine, s) on the
    machine's full r grid."""
    machine = kernels._GMachine(spec, n, t, alpha, cfg, tilted.DEFAULT_TOL)

    def log_h(s):
        s = np.asarray(s, dtype=float)
        return log_g(machine, s) - s**2 / 2.0

    anchors = [0.0]
    if pot.has_analytic_deriv(spec, 1):
        for q in machine.ms.locations:
            try:
                anchors.append(-float(pot.deriv(spec, q, 1)))
            except NotDifferentiableError:
                pass
    pad = math.sqrt(2.0 * cfg.drop) + 2.0
    s_lo, s_hi, _ = quadrature.expanding_localize(
        log_h, min(anchors) - pad, max(anchors) + pad, n_coarse=513, drop=cfg.drop
    )
    s = quadrature.simpson_grid(s_lo, s_hi, max(cfg.grid_n // 4, 1025))
    log_w = log_h(s) + quadrature.simpson_log_weights(s)
    log_w = log_w - quadrature.logsumexp(log_w)

    zpad = math.sqrt(2.0 * cfg.drop * t) + 2.0
    x = quadrature.simpson_grid(s[0] - zpad, s[-1] + zpad, cfg.grid_n)
    log_px = quadrature.logsumexp(log_w[None, :] - (x[:, None] - s[None, :]) ** 2 / (2.0 * t), axis=1)
    log_px = log_px - 0.5 * math.log(2.0 * math.pi * t)
    defect = abs(1.0 - math.exp(float(quadrature.log_integral(x, log_px))))
    return kernels._kernel_from_log_density(x, log_px, extra_defect=defect)


def full_probe_evolved_kernel(spec, n, t, alpha, cfg=kernels.DEFAULT_QUAD):
    """Oracle for kernels.evolved_kernel's strided s-support probes: the
    unblocked pipeline with every log g, probes included, from the g
    machine's own log_g on its full r grid, so the machine may rebuild."""
    return unblocked_evolved_kernel(spec, n, t, alpha, cfg, log_g=lambda machine, s: machine.log_g(s))


def scalar_golden_section(f, lo: float, hi: float):
    """Slow oracle for gridmin.golden_section: the one-bracket loop that the
    batched version runs per bracket, with f(x) a scalar function. Returns
    (x, f(x))."""
    a, b = float(lo), float(hi)
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a <= REFINE_TOL * max(1.0, abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = f(d)
    if fc < fd:
        return c, fc
    return d, fd


def phi2_symmetric_form(f, x: float, y: float, z: float) -> float:
    """Oracle for potential.phi2: the equivalent three-term form
    f(x)/((x-y)(x-z)) + f(y)/((y-x)(y-z)) + f(z)/((z-x)(z-y))."""
    if not (x < y < z):
        raise OrderingError(f"need x < y < z, got ({x}, {y}, {z})")
    fx, fy, fz = float(f(x)), float(f(y)), float(f(z))
    return fx / ((x - y) * (x - z)) + fy / ((y - x) * (y - z)) + fz / ((z - x) * (z - y))


def check_nonneg_on_grid(spec, radius: float = pot.DEFAULT_WINDOW_RADIUS, n: int = 20001) -> float:
    """Minimum of V over a dense grid on [-radius, radius], to check the
    V >= 0 convention of the families that promise it."""
    xs = np.linspace(-radius, radius, n)
    return float(np.min(pot.eval(spec, xs)))


def g_bound_diagnostic(spec, n, t, alpha, cfg=kernels.DEFAULT_QUAD, tol=tilted.DEFAULT_TOL):
    """Oracle for the g factor's bound: the ratio G_t(n, alpha) of tilted
    Gaussian integrals

        G = int exp(((1+t)/t)^2 z^2) exp(-n V(z)) w(z) dz / int exp(-n V(r)) w(r) dr

    with w the (n-1)-fold tilt weight. Approaches exp(((1+t)/t)^2 q^2) at a
    good alpha. The numerator only converges when (n-1)(1+t)/(2t) exceeds
    ((1+t)/t)^2; smaller n raises AccuracyError."""
    if n < 2:
        raise DomainError("g_bound_diagnostic requires n >= 2")
    if not (t > 0):
        raise DomainError("g_bound_diagnostic requires t > 0")
    n = kernels._capped(n)
    c2 = ((1.0 + t) / t) ** 2
    k2 = (n - 1) * (1.0 + t) / (2.0 * t)
    if k2 - c2 < 0.05 * k2:
        raise AccuracyError(
            "G_t integral is divergent or near-divergent at this n and t",
            diagnostics={"tilt_curvature": k2, "growth_curvature": c2, "n": n, "t": t},
        )

    m = kernels._GMachine(spec, n, t, alpha, cfg, tol)
    c, floor = m.center, m.floor
    log_den = m._log_den_integrand

    def log_num(z):
        z = np.asarray(z)
        return c2 * z**2 - n * (np.asarray(pot.eval(spec, z)) - floor) - k2 * (z - c) ** 2

    spread = max(1.0, max(abs(q) for q in m.ms.locations), abs(c))
    lo0, hi0 = c - 4.0 * spread - 4.0, c + 4.0 * spread + 4.0

    dlo, dhi, _ = quadrature.expanding_localize(log_den, lo0, hi0, n_coarse=2049, drop=cfg.drop)
    nlo, nhi, _ = quadrature.expanding_localize(log_num, lo0, hi0, n_coarse=2049, drop=cfg.drop)
    rd = quadrature.simpson_grid(dlo, dhi, cfg.grid_n)
    rn = quadrature.simpson_grid(nlo, nhi, cfg.grid_n)
    return float(np.exp(quadrature.log_integral(rn, log_num(rn)) - quadrature.log_integral(rd, log_den(rd))))


def csv_writer_table(path, header, rows):
    """Slow oracle for cli._write_csv: the csv.writer table the CLI wrote
    before it wrote by columns, with floats as repr and other values as
    csv.writer formats them (str for ints)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)


def uncached_glued_c_beta(b):
    """Oracle for potential._glued_c_beta: the same global minimum of
    g(s) - b s^2, computed afresh on every call."""

    def objective(s):
        return pot._glue(np.abs(s) - 1.0) - b * np.asarray(s) ** 2

    return float(gridmin.global_minimum(objective, 0.0, 2.0 * (b + 10.0), n_grid=200001)[1])


def polyval_eval(spec, r, order=0):
    """Oracle for potential.eval (order 0) and potential.deriv (order 1, 2)
    on the polynomial family: numpy's polyval of the coefficients
    differentiated by polyder."""
    c = np.polynomial.polynomial.polyder(np.asarray(spec.coefficients, dtype=float), order)
    return np.polynomial.polynomial.polyval(np.asarray(r, dtype=float), c)


def allocating_reject_samples(table, config):
    """Oracle for mc_sim._evolve_reject: its block loop written with one
    numpy temporary per operation, as (accepted first spins, replicas)."""
    n, t = config.n, config.t
    a, h = config.alpha_target, config.bin_halfwidth
    rng = mc_sim._rng(config.seed)
    accepted = []
    done = 0
    while done < config.replicas:
        block = min(mc_sim._BLOCK, config.replicas - done)
        s0 = table.sample(rng.random(block))
        z = rng.standard_normal((block, n))
        spins0 = s0[:, None] + z - z.mean(axis=1, keepdims=True)
        noise = rng.standard_normal((block, n)) * math.sqrt(t)
        spins_t = spins0 + noise
        m_comp = spins_t[:, 1:].mean(axis=1)
        hit = np.abs(m_comp - a) <= h
        accepted.append(spins_t[hit, 0])
        done += block
    return np.concatenate(accepted), done
