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

from gibbsdyn import classify, gridmin, kernels, mc_sim, potential as pot, quadrature, tilted
from gibbsdyn.errors import AccuracyError, DomainError, GibbsDynError, InconclusiveError, NotDifferentiableError
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


def phi2_grid(values, xs, i, j, k):
    """The second difference quotient of grid values over the index triples
    (i, j, k), xs[i] < xs[j] < xs[k], for index arrays i, j, k."""
    x, y, z = xs[i], xs[j], xs[k]
    fx, fy, fz = values[i], values[j], values[k]
    return ((fz - fy) / (z - y) - (fy - fx) / (y - x)) / (z - x)


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
            q = phi2_grid(vals, xs, np.full(jj.shape, i), jj, kk)
        best = min(best, float(np.min(np.where(valid, q, np.inf))))
    return best


def second_difference_curvature(spec, xs):
    """Slow oracle for pot.deriv(spec, xs, 2) without an analytic V'': the
    symmetric second difference (V(x+h) - 2V(x) + V(x-h))/h^2, written out,
    with the step h = FD_STEP_SCALE * max(1, |x|) * max(1, |V(x)|)^(1/4) that
    keeps the rounding noise 4 eps |V|/h^2 bounded where V is large."""
    v0 = np.asarray(pot.eval(spec, xs))
    h = pot.FD_STEP_SCALE * np.maximum(1.0, np.abs(xs)) * np.maximum(1.0, np.abs(v0)) ** 0.25
    vp = np.asarray(pot.eval(spec, xs + h))
    vm = np.asarray(pot.eval(spec, xs - h))
    return (vp - 2.0 * v0 + vm) / h**2


MAX_SCAN_POINTS = 4_194_305  # grid-size cap of the doubling curvature scans

# Working window of the builtin families' oracles; all builtin structure
# lives well inside it.
WINDOW_RADIUS = 20.0


def window_radius(spec) -> float:
    """Half-width of a spec's working window: the table's range for
    custom_table, else WINDOW_RADIUS."""
    if spec.family == "custom_table":
        return float(max(abs(spec.table_r[0]), abs(spec.table_r[-1])))
    return WINDOW_RADIUS


def _scan_curvature_infimum(spec, radius: float, n_grid: int):
    """(inf of V'' on the n_grid-point grid of [-radius, radius], argmin).
    An analytic V'' is golden-refined around the grid minimum; without one
    (pot.deriv takes second differences) each interior point also takes
    twice the Phi2 quotient of its consecutive triple, the smaller of the
    two."""
    xs = np.linspace(-radius, radius, n_grid)
    vals = pot.deriv(spec, xs, 2)
    analytic = pot.has_analytic_deriv(spec)
    if not analytic:
        vals[1:-1] = np.fmin(vals[1:-1], 2.0 * classify._consecutive_phi2(np.asarray(pot.eval(spec, xs)), xs))
    vals = np.where(np.isfinite(vals), vals, np.inf)
    i = int(np.argmin(vals))
    best_x, best_v = float(xs[i]), float(vals[i])
    if analytic and 0 < i < xs.size - 1:
        x, v = gridmin.golden_section(lambda s, _: pot.deriv(spec, s, 2), xs[i - 1 : i], xs[i + 1 : i + 2])
        if v[0] < best_v:
            best_x, best_v = float(x[0]), float(v[0])
    return best_v, best_x


def doubling_curvature_scan(spec):
    """Oracle for potential.curvature_infimum: inf V'' by a grid scan from
    the working window window_radius(spec), whose radius doubles until
    the infimum settles (within 1e-3 relative between doublings), or
    returns -inf once it dips under -2 classify.UNBOUNDED_SENTINEL. Each
    grid resolves oscillations whose local period shrinks like 1/r, up to
    MAX_SCAN_POINTS points. Raises InconclusiveError when neither happens
    within seven doublings. Returns (infimum, argmin)."""
    infima = []
    radius = window_radius(spec)
    for _ in range(7):
        spacing = math.pi / (10.0 * radius)
        n_grid = int(min(MAX_SCAN_POINTS, max(classify.SCAN_POINTS, 2.0 * radius / spacing)))
        n_grid = n_grid if n_grid % 2 == 1 else n_grid + 1
        inf_v, arg = _scan_curvature_infimum(spec, radius, n_grid)
        if inf_v < -2.0 * classify.UNBOUNDED_SENTINEL:
            return -math.inf, arg
        if infima and abs(inf_v - infima[-1]) <= 1e-3 * max(1.0, abs(infima[-1])):
            return inf_v, arg
        infima.append(inf_v)
        radius *= 2.0
    raise InconclusiveError(
        "curvature infimum neither settled nor passed the unboundedness sentinel in seven doublings",
        diagnostics={"radius": radius / 2.0, "last_infima": infima[-2:]},
    )


def minorant_status_at_tc(spec, beta):
    """Oracle for the closed-form status at t_c (the classification's
    gibbs_at_tc, from potential.curvature_infimum_on_interval): the status
    read off the convex minorant of g_t = V + b r^2 with b = (1 + t)/(2t)
    just below beta: at t = (1 + eps) first_bad_time(beta) for eps = 1e-2
    and 1e-4, the widest polished edge of the tilted._ConvexMinorant whose
    tilt centres span the working window [-R, R] (R = window_radius(spec);
    0 when there is no edge).

    At b = beta, V + b r^2 is convex, with an affine stretch exactly where the
    curvature infimum is attained on an interval. Around an isolated infimum
    of contact order 2k the width shrinks like eps^(1/(2k)), a ratio of 10,
    3.16, 2.15, ... over the two decades; over a flat piece it tends to the
    piece's length, a ratio near 1. Gibbs when the finer width is 0 or the
    ratio is at least 2, non_gibbs at most 1.25, unknown in between."""

    radius = window_radius(spec)

    def widest(eps):
        t = (1.0 + eps) * classify.first_bad_time(beta)
        minorant = tilted._ConvexMinorant(spec, t, [-(1.0 + t) * radius, (1.0 + t) * radius])
        return max((q2 - q1 for _, q1, q2, _, _ in minorant.edges), default=0.0)

    coarse, fine = widest(1e-2), widest(1e-4)
    if fine == 0.0 or coarse >= 2.0 * fine:
        return classify.GIBBS
    return classify.NON_GIBBS if coarse <= 1.25 * fine else classify.UNKNOWN


def scalar_equivalence_sides(f, beta, window, grid_n=201):
    """Slow oracle for classify.equivalence_sides: the same two sides with f
    called on one float at a time, for f a scalar function."""
    lo, hi = float(window[0]), float(window[1])
    xs_triple = np.linspace(lo, hi, int(grid_n))
    fv_triple = np.asarray([float(f(x)) for x in xs_triple])
    side_triple = bool(classify._consecutive_phi2(fv_triple, xs_triple).min() <= -beta + 1e-12)
    xs = np.linspace(lo, hi, 8 * int(grid_n) + 1)
    fv = np.asarray([float(f(x)) for x in xs])
    _, bridges = tilted.lower_hull(xs, fv + beta * xs**2)
    return bool(bridges), side_triple


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


def literal_log_num_integrand(machine, r, arg):
    """Oracle for the g machine's log-integrands
    -n (V(arg) - floor) - k2 (r - c)^2, written with one numpy temporary per
    operation, broadcasting r against arg: the denominator's at arg = r, a
    numerator's at its V argument r (1 - 1/n) + s/n."""
    v = np.asarray(pot.eval(machine.spec, arg)) - machine.floor
    return -machine.n * v - machine.k2 * (r - machine.center) ** 2


def literal_log_g(machine, s, r):
    """Slow oracle for log g at the s values on a given r grid: the literal
    numerator log-integrands at V argument r (1 - 1/n) + s/n, a few s rows at
    a time, each reduced by scipy's logsumexp with Simpson's log weights,
    over the denominator on r."""
    s = np.asarray(s, dtype=float)
    rows = max(1, 2**20 // r.size)
    lw = quadrature.simpson_log_weights(r)
    log_num = np.concatenate([
        logsumexp(
            literal_log_num_integrand(machine, r, r * (1.0 - 1.0 / machine.n) + s[i : i + rows, None] / machine.n) + lw,
            axis=1,
        )
        for i in range(0, s.size, rows)
    ])
    return log_num - quadrature.log_integral(r, literal_log_num_integrand(machine, r, r))


def unblocked_log_g(machine, s):
    """Slow oracle for kernels._GMachine.log_g on a call its first grid
    passes: on the call's r grid and V lattice (machine._grid), the literal
    full s x r numerator array, with the V argument of s row i and r node j
    written as the lattice point base + (i k + j m) delta, over the
    denominator on the same r grid as a one-row array. Each row L is reduced
    literally as log(sum(exp(L - max L + lw))) + max L, with lw the Simpson
    log weights of r."""
    s = np.asarray(s, dtype=float)
    machine._ensure(float(s.min()), float(s.max()))
    r, base, delta, k, m = machine._grid(s)
    lw = quadrature.simpson_log_weights(r)

    def log_rows(L):
        peak = L.max(axis=1)
        return np.log(np.exp(L - peak[:, None] + lw).sum(axis=1)) + peak

    arg = base + (np.arange(s.size)[:, None] * k + np.arange(r.size)[None, :] * m) * delta
    log_num = log_rows(literal_log_num_integrand(machine, r[None, :], arg))
    return log_num - log_rows(literal_log_num_integrand(machine, r, r)[None, :])[0]


def _oracle_s_support(spec, n, t, alpha, cfg, log_g, n_coarse):
    """log h(s) = log g(s) - s^2/2 of an s-law oracle, on log_g(machine, s)
    for its own g machine, and the s-support that kernels._s_law's scan
    finds with n_coarse s rows per round: (log_h, s_lo, s_hi)."""
    machine = kernels._GMachine(spec, n, t, alpha, cfg, tilted.DEFAULT_TOL)

    def log_h(s, log_g=log_g):
        s = np.asarray(s, dtype=float)
        return log_g(machine, s) - s**2 / 2.0

    anchors = [0.0]
    for q in machine.ms.locations:
        try:
            anchors.append(-float(pot.deriv(spec, q, 1)))
        except NotDifferentiableError:
            pass
    pad = math.sqrt(2.0 * quadrature.DEFAULT_DROP) + 2.0
    s_lo, s_hi, _ = quadrature.expanding_localize(log_h, min(anchors) - pad, max(anchors) + pad, n_coarse=n_coarse)
    return log_h, s_lo, s_hi


def unblocked_s_law(
    spec, n, t, alpha, cfg=kernels.DEFAULT_QUAD, log_g=unblocked_log_g, n_coarse=kernels.S_PROBE_POINTS,
    fine_log_g=None,
):
    """Slow oracle for kernels._s_law on a call whose g machine never
    rebuilds: the same support search (n_coarse s rows per round) and s
    grid, with every log g, the support scan included, from
    log_g(machine, s) on that call's r grid, and the fine pass's from
    fine_log_g where it is given. The s grid has the fewest odd rows whose
    step is at most S_STEP_PER_SD sqrt(t / (1 + t)), half the sd of the
    mixture's integrand in s (53-61 rows at t = 1, 91-93 at t = 0.2,
    123-155 at t = 0.1), with trapezoid weights: 1 inside, 1/2 at both ends.
    Returns (s, log_w)."""
    log_h, s_lo, s_hi = _oracle_s_support(spec, n, t, alpha, cfg, log_g, n_coarse)
    step = kernels.S_STEP_PER_SD * math.sqrt(t / (1.0 + t))
    s = np.linspace(s_lo, s_hi, quadrature.odd_count(math.ceil((s_hi - s_lo) / step) + 1))
    trapezoid = np.ones(s.size)
    trapezoid[[0, -1]] = 0.5
    log_w = log_h(s, fine_log_g or log_g) + np.log(trapezoid)
    return s, log_w - quadrature.logsumexp(log_w)


def dense_probe_s_law(spec, n, t, alpha, scanned, s_scanned, cfg=kernels.DEFAULT_QUAD):
    """Slow oracle for kernels._s_law's support scan: the s-law whose
    support is found from 513 s rows per round, with every log g from the
    g machine's own log_g, so the machine may rebuild, and whose fine pass
    is integrated literally (literal_log_g) on an r grid of `scanned`, the
    g machine of the call it checks, whose fine s grid was s_scanned.
    Where V is smooth that is the call's own fine r grid: on a small
    grid_n, Simpson's error on the r grid is far above 1e-12 and moves
    with the grid. At a kink of V it is the r grid that `scanned` lays on
    the oracle's own s grid (scanned._grid): Simpson's error then moves
    with where each row's kink falls between r nodes, and on a grid fitted
    to its s step those places run through the same few phases in every
    period of rows, as they do in the call it checks."""
    fixed = scanned._grid(s_scanned)[0]

    def r_grid(s):
        return scanned._grid(s)[0] if pot.kinks(spec) else fixed

    return unblocked_s_law(
        spec, n, t, alpha, cfg, log_g=lambda machine, s: machine.log_g(s), n_coarse=513,
        fine_log_g=lambda machine, s: literal_log_g(machine, s, r_grid(s)),
    )


def simpson_s_law(spec, n, t, alpha, rows, cfg=kernels.DEFAULT_QUAD):
    """Reference for the evolved kernel's row rule: the s-law over
    kernels._s_law's support, every log g from the g machine's own log_g,
    by Simpson's rule on `rows` (odd) s rows in place of the kernel's
    trapezoid on the fewest odd rows with step at most
    S_STEP_PER_SD sqrt(t / (1 + t)). Returns (s, log_w)."""
    log_h, s_lo, s_hi = _oracle_s_support(
        spec, n, t, alpha, cfg, lambda machine, s: machine.log_g(s), kernels.S_PROBE_POINTS
    )
    s = np.linspace(s_lo, s_hi, rows)
    log_w = log_h(s) + quadrature.simpson_log_weights(s)
    return s, log_w - quadrature.logsumexp(log_w)


def fixed_row_kernel(spec, n, t, alpha, rows, cfg=kernels.DEFAULT_QUAD):
    """Oracle for the evolved kernel's row rule: kernels.evolved_kernel with
    its fine s pass, a trapezoid on the fewest odd rows whose step is at
    most S_STEP_PER_SD sqrt(t / (1 + t)) (53-61 rows at t = 1), replaced by
    simpson_s_law on `rows` s rows over the same support. The mixture, the
    lattice and the moments are the kernel's own, so only the s rows and
    their weights differ."""
    s, log_w = simpson_s_law(spec, n, t, alpha, rows, cfg)
    return kernels._kernel_from_log_density(*kernels._gaussian_mixture(s, log_w, t, cfg))


def literal_lattice_mixture(s, log_w, t, cfg=kernels.DEFAULT_QUAD):
    """Slow oracle for kernels._gaussian_mixture: the x lattice by its rule
    (spacing ds/r with the least r no coarser than cfg.grid_n nodes over
    [s[0] - zpad, s[-1] + zpad], P = ceil(zpad r/ds) steps beyond either end)
    and the mixture as the literal log-space sum, scipy's logsumexp of
    log_w - (x - s)^2/(2t) over each row of the x x s array, built a few
    hundred rows at a time. Returns (x, log density)."""
    zpad = math.sqrt(2.0 * quadrature.DEFAULT_DROP * t) + 2.0
    ds = (s[-1] - s[0]) / (s.size - 1)
    r = max(1, math.ceil(ds / ((s[-1] - s[0] + 2.0 * zpad) / (quadrature.odd_count(cfg.grid_n) - 1))))
    P = math.ceil(zpad * r / ds)
    x = s[0] + (np.arange(2 * P + r * (s.size - 1) + 1) - P) * (ds / r)
    rows = 256
    log_px = np.concatenate(
        [logsumexp(log_w[None, :] - (x[i : i + rows, None] - s[None, :]) ** 2 / (2.0 * t), axis=1)
         for i in range(0, x.size, rows)]
    )
    return x, log_px - 0.5 * math.log(2.0 * math.pi * t)


def pointwise_mixture(s, log_w, t, x):
    """The N(s, t) mixture of an s-law evaluated exactly at any x, on no
    lattice: sum_j exp(log_w_j) N(x - s_j; t), in linear space, a few
    hundred x at a time."""
    w = np.exp(log_w)
    rows = 256
    return np.concatenate(
        [np.exp(-((x[i : i + rows, None] - s[None, :]) ** 2) / (2.0 * t)) @ w for i in range(0, x.size, rows)]
    ) / math.sqrt(2.0 * math.pi * t)


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


def _newton_polish(tr, q, lo, hi, alpha):
    """Up to 8 Newton steps on U'(x) = V'(x) + x + (x - alpha)/t from q, one
    point at a time, each step clipped to [lo, hi], with a central-difference
    slope at step 1e-7 max(1, |x|). Stops once |U'| < NEWTON_RESIDUAL or the
    slope is not positive and finite; keeps q where V' does not exist at one
    of its points or the residual grew."""

    def foc(x):
        try:
            return pot.deriv(tr.potential, x, 1) + x + (x - alpha) / tr.t
        except NotDifferentiableError:
            return math.nan

    x = q
    f = f_start = foc(q)
    for _ in range(8):
        if abs(f) < tilted.NEWTON_RESIDUAL:
            break
        h = 1e-7 * max(1.0, abs(x))
        up, down = foc(x + h), foc(x - h)
        if math.isnan(up) or math.isnan(down):
            return q
        fp = (up - down) / (2 * h)
        if fp <= 0 or not math.isfinite(fp) or not math.isfinite(f / fp):
            break
        x = min(max(x - f / fp, lo), hi)
        f = foc(x)
    return x if abs(f) <= abs(f_start) else q


def golden_then_polish_refine(tr, xs, idx):
    """Slow oracle for tilted._refine: every bracket [xs[idx - 1], xs[idx + 1]]
    by golden section on the shifted rate, then the Newton polish
    (_newton_polish) of the golden-section point. Returns (x, U(x)) arrays."""
    lo, hi = xs[np.maximum(idx - 1, 0)], xs[np.minimum(idx + 1, xs.size - 1)]
    x, _ = gridmin.golden_section(tilted._shifted_rate(tr), lo, hi)
    x = np.array([_newton_polish(tr, *p) for p in zip(x.tolist(), lo.tolist(), hi.tolist(), tr.alpha.tolist())])
    return x, tilted.eval_rate(tr, x)


def initial_kernel_probe_finds_bad(spec) -> bool:
    """Kernel-level oracle for the status at t = 0 (classify.gibbs_at(spec,
    0)): the gap between initial-kernel means along alpha_n = alpha +-
    (n-1)^(-1/2), at 17 alphas of [-2, 2] and a table's two end nodes, for
    n = 10,000 and 100,000. At t = 0 the limit kernel is N(-V'(alpha), 1),
    so curvature alone leaves a gap of about 2 |V''(alpha)| (n-1)^(-1/2),
    which shrinks by sqrt(10) between the two n (a ratio of 0.32), while a
    slope jump keeps its gap (ratios 0.5 to 1 on the tables of the tests). A
    gap at n = 100,000 above 1e-9 and above 0.4 times the gap at 10,000 marks
    a bad magnetisation. A fixed threshold on the gap at one n would read the
    curvature of the double well (a gap of 0.8 at alpha = 2 for n = 10,000)
    as a kink and miss slope jumps below it."""

    def gap(n, a):
        eps = 1.0 / math.sqrt(n - 1)
        return abs(kernels.initial_kernel(spec, n, a + eps).mean - kernels.initial_kernel(spec, n, a - eps).mean)

    ends = [spec.table_r[0], spec.table_r[-1]] if spec.family == "custom_table" else []
    for a in np.linspace(-2.0, 2.0, 17).tolist() + ends:
        far = gap(100_000, a)
        if far > 1e-9 and far > 0.4 * gap(10_000, a):
            return True
    return False


def literal_lower_hull(xs, g):
    """Oracle for tilted.lower_hull: Andrew's monotone chain one point at a
    time, every hull pair tested for a bridge, and each rise threshold from
    a 7-wide sliding max over the whole grid (clipped at the ends)."""
    d2 = np.pad(np.abs(np.diff(g, 2)), 1, mode="edge")
    loc = np.lib.stride_tricks.sliding_window_view(np.pad(d2, 3, mode="edge"), 7).max(axis=1)
    x, y = np.asarray(xs, dtype=float).tolist(), np.asarray(g, dtype=float).tolist()
    hull = [0]
    for i in range(1, len(x)):
        while len(hull) >= 2:
            i1, i2 = hull[-2], hull[-1]
            if (x[i2] - x[i1]) * (y[i] - y[i1]) - (x[i] - x[i1]) * (y[i2] - y[i1]) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)

    def rises(i1, i2):
        between = slice(i1 + 1, i2)
        chord = g[i1] + (g[i2] - g[i1]) * (xs[between] - xs[i1]) / (xs[i2] - xs[i1])
        return float(np.max(g[between] - chord)) > max(1e-9, 3.0 * float(loc[i1 : i2 + 1].max()))

    return hull, [(i1, i2) for i1, i2 in zip(hull, hull[1:]) if i2 - i1 >= tilted.SEPARATION_STEPS and rises(i1, i2)]


class OrderingError(GibbsDynError, ValueError):
    """Triple arguments are not strictly ordered x < y < z."""


def phi2(f, x: float, y: float, z: float) -> float:
    """Second difference quotient of f over the ordered triple x < y < z:

        ((f(z) - f(y))/(z - y) - (f(y) - f(x))/(y - x)) / (z - x)
    """
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise DomainError("triple must be finite")
    if not (x < y < z):
        raise OrderingError(f"need x < y < z, got ({x}, {y}, {z})")
    fx, fy, fz = float(f(x)), float(f(y)), float(f(z))
    return ((fz - fy) / (z - y) - (fy - fx) / (y - x)) / (z - x)


def phi2_symmetric_form(f, x: float, y: float, z: float) -> float:
    """Oracle for phi2: the equivalent three-term form
    f(x)/((x-y)(x-z)) + f(y)/((y-x)(y-z)) + f(z)/((z-x)(z-y))."""
    if not (x < y < z):
        raise OrderingError(f"need x < y < z, got ({x}, {y}, {z})")
    fx, fy, fz = float(f(x)), float(f(y)), float(f(z))
    return fx / ((x - y) * (x - z)) + fy / ((y - x) * (y - z)) + fz / ((z - x) * (z - y))


def check_nonneg_on_grid(spec, radius: float = WINDOW_RADIUS, n: int = 20001) -> float:
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

    def log_den(z):
        z = np.asarray(z)
        return m._log_integrand(z) - k2 * (z - c) ** 2

    def log_num(z):
        z = np.asarray(z)
        return c2 * z**2 - n * (np.asarray(pot.eval(spec, z)) - floor) - k2 * (z - c) ** 2

    spread = max(1.0, max(abs(q) for q in m.ms.locations), abs(c))
    lo0, hi0 = c - 4.0 * spread - 4.0, c + 4.0 * spread + 4.0

    dlo, dhi, _ = quadrature.expanding_localize(log_den, lo0, hi0, n_coarse=2049)
    nlo, nhi, _ = quadrature.expanding_localize(log_num, lo0, hi0, n_coarse=2049)
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


def literal_reject_samples(table, config):
    """Slow oracle for mc_sim._evolve_reject: the literal n-spin pipeline.

    Each replica's n spins start as the Gaussian bridge s0 + z - mean(z)
    around an initial magnetisation s0 drawn from `table`, and each spin adds
    an independent N(0, t) increment. The first spin is kept when the other
    n - 1 spins' magnetisation lands in the bin. Replicas are drawn in blocks
    of at most 2^21 spins."""
    n, t = config.n, config.t
    a, h = config.alpha_target, config.bin_halfwidth
    rng = mc_sim._rng(config.seed)
    rows = max(1, 2**21 // n)
    accepted = []
    for done in range(0, config.replicas, rows):
        block = min(rows, config.replicas - done)
        s0 = table.sample(rng.random(block))
        z = rng.standard_normal((block, n))
        spins_0 = s0[:, None] + z - z.mean(axis=1, keepdims=True)
        spins_t = spins_0 + rng.standard_normal((block, n)) * math.sqrt(t)
        hit = np.abs(spins_t[:, 1:].mean(axis=1) - a) <= h
        accepted.append(spins_t[hit, 0])
    return np.concatenate(accepted)


def dense_log_acceptance(spec, config, s_points=200_001, a_points=201):
    """Oracle for the log of the acceptance P(m_{n-1}(t) in bin) without
    the hit probability's closed form: the time-0 law exp(-n [V(s) + s^2/2])
    times the N(s, (1/n + t)/(n - 1)) density of m_{n-1}(t) at alpha', summed
    by scipy's logsumexp over a dense s grid on [-8, 8] and by Simpson's rule
    over a_points values of alpha' across the bin, over the time-0 law's
    mass on the same s grid."""
    n, t = config.n, config.t
    a, h = config.alpha_target, config.bin_halfwidth
    var_m = (1.0 / n + t) / (n - 1.0)
    s = np.linspace(-8.0, 8.0, s_points)
    log_base = -n * (np.asarray(pot.eval(spec, s)) + s**2 / 2.0)
    alphas = np.linspace(a - h, a + h, a_points)
    simpson = np.full(a_points, 2.0)
    simpson[1::2] = 4.0
    simpson[[0, -1]] = 1.0
    log_density = np.array([logsumexp(log_base - (x - s) ** 2 / (2.0 * var_m)) for x in alphas])
    log_hit = logsumexp(log_density + np.log(simpson * (alphas[1] - alphas[0]) / 3.0))
    return float(log_hit - 0.5 * math.log(2.0 * math.pi * var_m) - logsumexp(log_base))


def two_sample_dkw_floor(m, k, delta):
    """A level that the two-sample KS statistic of m and k draws from one law
    exceeds with probability at most delta: the DKW bound of each sample at
    delta/2, added by the triangle inequality."""
    return sum(math.sqrt(math.log(4.0 / delta) / (2.0 * size)) for size in (m, k))
