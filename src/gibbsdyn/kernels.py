"""Finite-n conditional kernels by quadrature, their large-n limit, and the
selection-sequence convergence experiments. Every integral runs in log space
except the evolved kernel's Gaussian mixture (below).

The objects, all probability laws on the line represented as grid densities:

    initial_kernel   first spin given the others' magnetisation alpha at t = 0:
                     density(x) propto exp(-n V((n-1)/n alpha + x/n)) exp(-x^2/2)
    eta_kernel       magnetisation at time 0 given magnetisation alpha at time t:
                     density(s) propto exp(-n [V(s) + s^2/2 + (s-alpha)^2/(2t)])
    g_factor         tilt weight g_{n,t}(alpha, s): ratio of the integrals
                     int exp(-n V(r + (s-r)/n)) w(r) dr / int exp(-n V(r)) w(r) dr
                     with w(r) = exp(-(n-1) (r - alpha/(1+t))^2 (1+t)/(2t))
    evolved_kernel   first spin given the others at time t: the N(s, t)-mixture
                     of the g-weighted standard Gaussian s-law
    limit_kernel     the n -> infinity specification kernel N(-V'(q), 1+t) at a
                     good alpha with tilted-rate minimiser q

For V = 0 the pipeline is exact: g factors cancel bitwise and the quadrature
recovers N(0, 1) / N(0, 1+t) to machine precision.

The g-factor numerator's V argument r (1 - 1/n) + s/n is a Hankel
array: on an r grid whose step is a whole multiple of the s step's
lattice, V runs once on a 1-D lattice per call, and every s row is a
strided view of it (_GMachine._grid and _log_num), reduced in row blocks
of bounded memory.

The N(s, t) mixture is a discrete Gaussian convolution in linear space on
a lattice shared with the s grid (see _lattice and _gaussian_mixture).

The s-law's support is located by a coarse scan of S_PROBE_POINTS s rows,
each integrated on its call's r grid (_GMachine._grid) like the fine s
pass, so every rebuild of the machine is decided on the edges of the grid
the fine pass uses. The fine s pass is a trapezoid rule, exponentially
accurate on an integrand this smooth and fast-decaying (Trefethen and
Weideman, SIAM Review 56, 2014), on as few rows as its resolution needs:
the step is at most S_STEP_PER_SD of the sd sqrt(t / (1 + t)) of the
mixture's integrand in s, N(0, 1) x N(x - s, t), for fixed x. That is 53-61
rows at t = 1, 91-93 at t = 0.2, 123-155 at t = 0.1, about 370 at t = 0.01.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from gibbsdyn import potential as pot
from gibbsdyn import tilted
from gibbsdyn.errors import AccuracyError, BadMagnetisationError, ConfigError, DomainError, NotDifferentiableError
from gibbsdyn.quadrature import (
    DEFAULT_DROP,
    ROW_BLOCK_ELEMENTS,
    expanding_localize,
    localize,
    log_integral,
    logsumexp,
    odd_count,
    refine_if_rough,
    simpson_grid,
    simpson_log_weights,
    trapezoid_cdf,
)

N_CAP = 100_000  # beyond this the LDP concentration under-resolves any fixed grid
GRID_N_MIN = 64
GRID_N_MAX = 65_536  # 16x the default; the r grids, x lattice and 1-D grids grow linearly with grid_n
# s rows per round of the s-support scan. The s-law's log-density varies on
# the scale of its N(0, 1) factor, whose region within DEFAULT_DROP of the
# peak is 2 sqrt(2 DEFAULT_DROP) = 17.9 wide. The first round's window is
# 2 (sqrt(2 DEFAULT_DROP) + 2) = 21.9 wide plus the anchors' spread, so with
# coinciding anchors about 50 rows fall across that region, and the window
# kept is padded by one coarse step beyond the rows within DEFAULT_DROP.
S_PROBE_POINTS = 65
# a coarser step of the fine s pass turns the mixture into a comb at small t
S_STEP_PER_SD = 0.5
# the g machine's per-call r grid is at most this many times finer than
# grid_n nodes over its window (see _lattice_steps)
NODE_INFLATION = 1.125
GAUSS_EXP_FLOOR = 700.0  # the mixture's Gaussian table is 0 beyond exp(-this)

SEQ_CONSTANT = "constant"
SEQ_MINUS = "minus_inv_sqrt"
SEQ_PLUS = "plus_inv_sqrt"


@dataclass(frozen=True)
class QuadratureConfig:
    """grid_n sets the node count of the 1-D kernel grids and the coarsest
    spacing of the g machine's r grids and of the evolved kernel's x
    lattice. The evolved kernel's s rows do not depend on it: their step is
    at most S_STEP_PER_SD sqrt(t / (1 + t)), 53-61 trapezoid rows at t = 1.
    It lies in [GRID_N_MIN, GRID_N_MAX]."""

    grid_n: int = 4096

    def __post_init__(self):
        if not GRID_N_MIN <= self.grid_n <= GRID_N_MAX:
            raise ConfigError(f"grid_n must lie in [{GRID_N_MIN}, {GRID_N_MAX}]")


DEFAULT_QUAD = QuadratureConfig()


@dataclass(frozen=True)
class KernelEstimate:
    """A 1-D law as a normalised grid density with its first two moments.

    total_mass_defect records |1 - integral| of exp(L - logZ), the density
    before the final renormalisation, with logZ the Simpson integral of
    exp(L) on the same grid. That is rounding only, and it grows with |L|
    (about n V). For the evolved kernel it is the larger of that and how far
    the lattice integral of its exactly normalised mixture is from 1.
    """

    grid: np.ndarray
    density: np.ndarray
    mean: float
    variance: float
    total_mass_defect: float

    def cdf(self) -> np.ndarray:
        return trapezoid_cdf(self.grid, self.density)

    def cdf_at(self, x) -> np.ndarray:
        return np.interp(x, self.grid, self.cdf(), left=0.0, right=1.0)

    def moment_summary(self) -> dict:
        return {
            "mean": self.mean,
            "variance": self.variance,
            "total_mass_defect": self.total_mass_defect,
            "grid_lo": float(self.grid[0]),
            "grid_hi": float(self.grid[-1]),
            "grid_n": int(self.grid.size),
        }


def _kernel_from_log_density(x: np.ndarray, L: np.ndarray, extra_defect: float = 0.0) -> KernelEstimate:
    logZ = log_integral(x, L)
    dens = np.exp(L - logZ)
    lw = np.exp(simpson_log_weights(x))
    mass = float(np.sum(lw * dens))
    mean = float(np.sum(lw * x * dens) / mass)
    var = float(np.sum(lw * (x - mean) ** 2 * dens) / mass)
    defect = max(abs(1.0 - mass), abs(extra_defect))
    return KernelEstimate(grid=x, density=dens / mass, mean=mean, variance=var, total_mass_defect=defect)


def _build_kernel(log_f, window: tuple[float, float], cfg: QuadratureConfig, n_coarse: int) -> KernelEstimate:
    lo, hi, _ = localize(log_f, window[0], window[1], n_coarse)
    x = simpson_grid(lo, hi, cfg.grid_n)
    L = np.asarray(log_f(x), dtype=float)
    x, L = refine_if_rough(x, L, log_f)
    return _kernel_from_log_density(x, L)


def _capped(n: int) -> int:
    if n > N_CAP:
        warnings.warn(
            f"n = {n} exceeds the quadrature cap {N_CAP}; using n = {N_CAP}. "
            "At this scale the limit kernel is the right object.",
            RuntimeWarning,
            stacklevel=3,
        )
        return N_CAP
    return int(n)


def gaussian_kernel(mean: float, variance: float, cfg: QuadratureConfig = DEFAULT_QUAD) -> KernelEstimate:
    """An exact Gaussian sampled on the standard grid (mean +- 10 sd)."""
    if not (variance > 0):
        raise DomainError("variance must be positive")
    sd = math.sqrt(variance)
    x = simpson_grid(mean - 10.0 * sd, mean + 10.0 * sd, cfg.grid_n)
    L = -((x - mean) ** 2) / (2.0 * variance) - 0.5 * math.log(2.0 * math.pi * variance)
    return _kernel_from_log_density(x, L)


def initial_kernel(spec: pot.PotentialSpec, n: int, alpha: float, cfg: QuadratureConfig = DEFAULT_QUAD) -> KernelEstimate:
    """Conditional law of the first spin given the others' magnetisation at
    time 0; exact standard normal when V = 0."""
    if n < 2:
        raise DomainError("initial_kernel requires n >= 2")
    n = _capped(n)
    if not math.isfinite(alpha):
        raise DomainError("alpha must be finite")
    abar = (n - 1) * alpha / n
    floor = min(spec.v_floor, 0.0)
    v_anchor = float(pot.eval(spec, abar)) - floor

    def log_f(x):
        v = np.asarray(pot.eval(spec, abar + np.asarray(x) / n)) - floor
        return -n * v - np.asarray(x) ** 2 / 2.0

    # V - floor >= 0, so exp(-x^2/2) dominates and the mass obeys
    # x^2/2 <= n*(V(abar)-floor) + drop around the x = 0 anchor.
    B = math.sqrt(2.0 * (n * v_anchor + DEFAULT_DROP)) + 2.0
    # steep potentials squeeze the integrand onto an x-scale of 1/sqrt(|V''|/n + 1);
    # keep the coarse spacing below it so the localization cannot skip the mass
    width = 1.0 / math.sqrt(1.0 + abs(pot.deriv(spec, abar, 2)) / n)
    n_coarse = int(min(2_097_153, max(32769, 8.0 * B / width)))
    return _build_kernel(log_f, (-B, B), cfg, n_coarse=n_coarse)


def eta_kernel(
    spec: pot.PotentialSpec,
    n: int,
    t: float,
    alpha: float,
    cfg: QuadratureConfig = DEFAULT_QUAD,
    tol: tilted.ToleranceConfig = tilted.DEFAULT_TOL,
) -> KernelEstimate:
    """Conditional law of the magnetisation at time 0 given magnetisation
    alpha at time t; concentrates on the tilted-rate minimisers as n grows."""
    if not (t > 0):
        raise DomainError("eta_kernel requires t > 0")
    if n < 1:
        raise DomainError("eta_kernel requires n >= 1")
    n = _capped(n)
    tr = tilted.TiltedRate(spec, t, alpha)
    ms = tilted.global_minimisers(tr, tol)
    u_min = ms.value

    def log_f(s):
        return -n * (tilted.eval_rate(tr, np.asarray(s)) - u_min)

    c = tr.center
    k = tr.tilt_curvature
    floor = min(spec.v_floor, 0.0)
    const = alpha**2 / (2.0 * (1.0 + t))
    excess = max(u_min - floor - const, 0.0) + (DEFAULT_DROP + 5.0) / n
    R = math.sqrt(excess / k)
    return _build_kernel(log_f, (c - R, c + R), cfg, n_coarse=16385)


def _lattice_steps(rho: float) -> tuple[int, int]:
    """(k, m) for a g-factor call with s step ds on a window of r step dr0,
    given rho = dr0 (n - 1) / ds: the r step m ds / (k (n - 1)), which is
    dr0 m / (rho k), is no coarser than dr0 and at most NODE_INFLATION times
    finer. From rho = 8 on, k = 1 and m = floor(rho), whose inflation
    rho / m is below 9/8; below 8, the smallest m that has such a k (at
    most 15)."""
    if rho >= 8.0:
        return 1, math.floor(rho)
    m = 1
    while rho * math.ceil(m / rho) / m > NODE_INFLATION:
        m += 1
    return math.ceil(m / rho), m


def _log_rows(L: np.ndarray, lw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-integrals of the rows of L with log weights lw, and each row's
    (left, right) edge value minus its peak, overwriting L. The row peak is
    taken once and serves as the edge test's reference and the log-sum-exp
    shift; then lw is added, exp taken in place and each row summed."""
    peak = L.max(axis=1)
    L -= peak[:, None]
    edges = L[:, [0, -1]]
    L += lw
    np.exp(L, out=L)
    return np.log(L.sum(axis=1)) + peak, edges


class _GMachine:
    """Shared-window evaluator for the tilt weight g_{n,t}(alpha, .).

    Builds one r window covering the support of the denominator integrand
    and of the numerator integrands at the extreme s values requested,
    reusing it across calls. Each call lays its own r grid on the window
    (_grid), fitted to its uniform s grid so that every numerator V argument
    is a point of one 1-D lattice (_log_num). If an endpoint turns hot it
    rebuilds with a wider s span and a deeper drop, and if one is still hot,
    once more with the hottest rows' s values added to the probes.
    """

    def __init__(self, spec, n, t, alpha, cfg, tol):
        self.spec = spec
        self.n = n
        self.t = t
        self.alpha = alpha
        self.cfg = cfg
        tr = tilted.TiltedRate(spec, t, alpha)
        self.ms = tilted.global_minimisers(tr, tol)
        self.center = tr.center
        self.k2 = (n - 1) * (1.0 + t) / (2.0 * t)
        self.floor = min(spec.v_floor, 0.0)
        self.window = None
        self.s_span = None

    def _log_integrand(self, arg):
        """-n (V(arg) - floor), built in pot.eval's output array."""
        out = pot.eval(self.spec, arg)
        out -= self.floor
        out *= -self.n
        return out

    def _build(self, s_lo: float, s_hi: float, extra_drop: float = 0.0, hot_s=()):
        n, c, k2 = self.n, self.center, self.k2
        probes = (s_lo, s_hi, *hot_s)
        anchors = []
        for q in self.ms.locations:
            for s in (s_lo, 0.0, s_hi):
                shifted = q + (s - q) / n
                anchors.append(
                    n * (float(pot.eval(self.spec, shifted)) - self.floor) + k2 * (q - c) ** 2
                )
            anchors.append(n * (float(pot.eval(self.spec, q)) - self.floor) + k2 * (q - c) ** 2)
        A = min(anchors)
        drop = DEFAULT_DROP + extra_drop
        R = math.sqrt((A + drop + 5.0) / k2) + (abs(s_lo) + abs(s_hi)) / n

        def log_union(r):
            # normalise each probe integrand by its own peak so that rows whose
            # overall level is suppressed still contribute their support
            quad = k2 * (r - c) ** 2
            parts = [self._log_integrand(r) - quad]
            parts += [self._log_integrand(r * (1.0 - 1.0 / n) + s / n) - quad for s in probes]
            return np.maximum.reduce([p - p.max() for p in parts])

        lo, hi, _ = localize(log_union, c - R, c + R, 16385, drop=drop)
        self.window = (lo, hi)
        self.s_span = (s_lo, s_hi)

    def _ensure(self, s_lo: float, s_hi: float):
        if self.s_span is None or s_lo < self.s_span[0] or s_hi > self.s_span[1]:
            span_lo = min(s_lo, self.s_span[0]) if self.s_span else s_lo
            span_hi = max(s_hi, self.s_span[1]) if self.s_span else s_hi
            self._build(span_lo, span_hi)

    def _grid(self, s_arr: np.ndarray):
        """The r grid and V lattice of one call on the uniform s grid s_arr:
        (r, base, delta, k, m) with ds/n = k delta and dr (1 - 1/n) = m delta,
        so that the numerator's V argument r_j (1 - 1/n) + s_i/n is the
        lattice point base + (i k + j m) delta. dr is no coarser than
        cfg.grid_n nodes over the window and at most NODE_INFLATION times
        finer (_lattice_steps); r starts at the window's low end and has an
        odd node count reaching its high end."""
        n = self.n
        lo, hi = self.window
        dr0 = (hi - lo) / (odd_count(self.cfg.grid_n) - 1)
        if s_arr.size > 1:
            ds = (s_arr[-1] - s_arr[0]) / (s_arr.size - 1)
            k, m = _lattice_steps(dr0 * (n - 1) / ds)
            delta = ds / (n * k)
        else:
            k, m, delta = 1, 1, dr0 * (1.0 - 1.0 / n)
        dr = m * delta / (1.0 - 1.0 / n)
        r = lo + np.arange(odd_count(math.ceil((hi - lo) / dr) + 1)) * dr
        return r, lo * (1.0 - 1.0 / n) + s_arr[0] / n, delta, k, m

    def _log_num(self, grid, rows: int, quad: np.ndarray, lw: np.ndarray):
        """Numerator log-integrals of the first `rows` s rows of a call's
        grid, and each row's (left, right) edge value minus its peak.

        V runs once, on the (rows - 1) k + (R - 1) m + 1 lattice points;
        row i is the lattice at i k + j m over the R nodes j. The lattice is
        regrouped by phase, phases[c, u] = lattice[c k + u m], so that row
        i = t m + c is the contiguous window phases[c, t k : t k + R], and
        all rows are one strided (t, c, j) view. quad is subtracted into a
        buffer and the rows reduced by _log_rows in blocks of at most
        ROW_BLOCK_ELEMENTS elements (one row where a row is longer). The
        last t holds only the rows - (T - 1) m phases that are rows, and
        only those are reduced."""
        r, base, delta, k, m = grid
        R = r.size
        T = -(-rows // m)  # t values; the last may hold fewer than m phases
        U = (T - 1) * k + R
        lattice = self._log_integrand(base + np.arange((rows - 1) * k + (R - 1) * m + 1) * delta)
        # the last t's phases beyond the rows read clipped indices and are never reduced
        phases = lattice.take(np.arange(m)[:, None] * k + np.arange(U) * m, mode="clip")
        del lattice  # the blocks read only the regrouped copy
        view = as_strided(phases, shape=(T, m, R), strides=(k * phases.strides[1], *phases.strides))
        row_cap = max(1, ROW_BLOCK_ELEMENTS // R)
        bt, bc = max(1, row_cap // m), min(m, row_cap)  # t values and phases per block
        full, tail = divmod(rows, m)  # the t values with all m phases, and the last t's phases
        blocks = [
            (t * m + c, view[t : min(t + bt, full), c : c + bc]) for t in range(0, full, bt) for c in range(0, m, bc)
        ]
        blocks += [(full * m + c, view[full : full + 1, c : min(c + bc, tail)]) for c in range(0, tail, bc)]
        buf = np.empty(min(bt, T) * bc * R)
        log_num = np.empty(rows)
        edges = np.empty((rows, 2))
        for first, block in blocks:  # each block is the rows first, first + 1, ...
            L = np.subtract(block, quad, out=buf[: block.size].reshape(block.shape)).reshape(-1, R)
            i = slice(first, first + L.shape[0])
            log_num[i], edges[i] = _log_rows(L, lw)
        return log_num, edges

    def log_g(self, s_arr: np.ndarray) -> np.ndarray:
        """log g at every s of the uniform grid s_arr, numerator and
        denominator integrated on the call's r grid (_grid); while a
        numerator or the denominator has a hot edge the window is rebuilt
        wider, at most twice."""
        s_arr = np.asarray(s_arr, dtype=float)
        self._ensure(float(s_arr.min()), float(s_arr.max()))
        cold = -(DEFAULT_DROP - 15.0)
        for attempt in range(3):
            grid = self._grid(s_arr)
            r = grid[0]
            quad = self.k2 * (r - self.center) ** 2
            lw = simpson_log_weights(r)
            log_num, edges = self._log_num(grid, s_arr.size, quad, lw)
            den = self._log_integrand(r)
            den -= quad
            # the denominator is a 1-row block, so V = 0 gives g = 1 bitwise
            log_den, den_edges = _log_rows(den[None, :], lw)
            num_edge, den_edge = float(np.max(edges)), float(np.max(den_edges))
            if max(num_edge, den_edge) <= cold:
                return log_num - log_den[0]
            if attempt == 2:
                break
            hot_s = []
            if attempt == 1:
                # a bimodal row can reach past the support of the extreme-s
                # probes, so the hottest row at each hot edge becomes a probe
                hot_s = [float(s_arr[np.argmax(side)]) for side in edges.T if side.max() > cold]
            span = float(s_arr.max()) - float(s_arr.min()) + 1.0
            self._build(
                float(s_arr.min()) - 0.2 * span,
                float(s_arr.max()) + 0.2 * span,
                extra_drop=25.0,
                hot_s=hot_s,
            )
        raise AccuracyError(
            "g-factor quadrature window too narrow",
            diagnostics={
                "num_edge": num_edge,
                "den_edge": den_edge,
                "n": self.n,
                "t": self.t,
                "alpha": self.alpha,
            },
        )


def g_factor(
    spec: pot.PotentialSpec,
    n: int,
    t: float,
    alpha: float,
    s: float,
    cfg: QuadratureConfig = DEFAULT_QUAD,
    tol: tilted.ToleranceConfig = tilted.DEFAULT_TOL,
) -> float:
    """The tilt weight g_{n,t}(alpha, s); exactly 1 for V = 0.

    At a good alpha with minimiser q the large-n limit is
    exp(-V'(q) (s - q)); the s-independent factor exp(q V'(q)) cancels in
    every kernel ratio, so downstream mixtures only see exp(-s V'(q))."""
    if n < 2:
        raise DomainError("g_factor requires n >= 2")
    if not (t > 0):
        raise DomainError("g_factor requires t > 0")
    n = _capped(n)
    out = _GMachine(spec, n, t, alpha, cfg, tol).log_g(np.asarray([float(s)]))
    return float(np.exp(out[0]))


def _s_law(machine: _GMachine) -> tuple[np.ndarray, np.ndarray]:
    """The g-weighted N(0, 1) s-law on its trapezoid grid: (s, log_w) with
    log_w the log of its normalised quadrature weights, so that
    sum(exp(log_w)) = 1. Its support is found by a coarse scan of
    S_PROBE_POINTS s rows, each on its call's r grid (_GMachine._grid), and
    the grid has the fewest odd rows whose step is at most
    S_STEP_PER_SD sqrt(t / (1 + t)), half the sd of the mixture's integrand
    in s: 53-61 rows at t = 1, 91-93 at t = 0.2, 123-155 at t = 0.1. A t
    so small that this needs more than GRID_N_MAX rows raises DomainError."""
    # support anchored at 0 and at the limit means -V'(q), then grown until
    # the edges are cold
    anchors = [0.0]
    for q in machine.ms.locations:
        try:
            anchors.append(-float(pot.deriv(machine.spec, q, 1)))
        except NotDifferentiableError:
            pass
    pad = math.sqrt(2.0 * DEFAULT_DROP) + 2.0
    s_lo, s_hi, _ = expanding_localize(
        lambda s: machine.log_g(s) - s**2 / 2.0,
        min(anchors) - pad,
        max(anchors) + pad,
        n_coarse=S_PROBE_POINTS,
    )
    ds_max = S_STEP_PER_SD * math.sqrt(machine.t / (1.0 + machine.t))
    rows = odd_count(math.ceil((s_hi - s_lo) / ds_max) + 1)  # odd, for _lattice
    if rows > GRID_N_MAX:
        raise DomainError(f"the evolved kernel's s-law needs {rows:.3g} trapezoid rows at t = {machine.t!r}, "
                          f"more than {GRID_N_MAX}")
    s = simpson_grid(s_lo, s_hi, rows)
    log_w = machine.log_g(s) - s**2 / 2.0
    log_w[[0, -1]] -= math.log(2.0)  # trapezoid end weights; the step cancels in the normalisation
    return s, log_w - logsumexp(log_w)


def _lattice(s: np.ndarray, t: float, cfg: QuadratureConfig) -> tuple[np.ndarray, int, int]:
    """The x grid of the N(s, t) mixture on the s grid's own lattice:
    (x, r, P) with x_i = s[0] + (i - P) ds/r.

    r is the smallest integer that keeps the spacing no coarser than
    cfg.grid_n nodes over [s[0] - zpad, s[-1] + zpad] would give, and P the
    fewest steps that reach zpad beyond either end of the s grid. The node
    count 2P + r (s.size - 1) + 1 is odd and at least odd_count(grid_n)."""
    zpad = math.sqrt(2.0 * DEFAULT_DROP * t) + 2.0
    ds = (s[-1] - s[0]) / (s.size - 1)
    h_max = (s[-1] - s[0] + 2.0 * zpad) / (odd_count(cfg.grid_n) - 1)
    r = max(1, math.ceil(ds / h_max))
    P = math.ceil(zpad * r / ds)
    m = 2 * P + r * (s.size - 1) + 1
    return s[0] + (np.arange(m) - P) * (ds / r), r, P


def _gaussian_mixture(s: np.ndarray, log_w: np.ndarray, t: float, cfg: QuadratureConfig):
    """The N(s, t) mixture of the s-law as (x, log density) on _lattice.

    On the lattice x_i - s_j = (i - P - r j) ds/r is a whole number of
    steps, so the mixture is the discrete convolution
    p_i = sum_j w_j G[i - P - r j] with one table G of the Gaussian at every
    step. It runs in linear space as r direct polyphase np.convolve calls:
    every term is positive, so nothing cancels, and w = exp(log_w) <= 1.
    G is 0 where its exponent is below -GAUSS_EXP_FLOOR, so the table has
    no subnormal exp, and a density above e^-600 loses terms e^-100 smaller
    than itself (at most s.size of them). An FFT would leave an absolute
    error near 1e-16 of the peak in every node, which swamps (and can make
    negative) tails near e^-100. Nodes whose sum underflows get -inf."""
    x, r, P = _lattice(s, t, cfg)
    h = (s[-1] - s[0]) / (s.size - 1) / r
    K = P + r * (s.size - 1)  # the largest |i - P - r j| in steps
    expo = (np.arange(-K, K + 1) * h) ** 2 / (2.0 * t)
    G = np.zeros(expo.size)
    keep = expo <= GAUSS_EXP_FLOOR
    G[keep] = np.exp(-expo[keep])
    w = np.exp(log_w)
    p = np.empty(x.size)
    # G index k + K of node i and s node j is i + r (s.size - 1 - j), so the
    # nodes i = a mod r see only G[a::r], each over a full window of w
    for a in range(r):
        p[a::r] = np.convolve(w, G[a::r], mode="valid")
    with np.errstate(divide="ignore"):
        log_px = np.log(p) - 0.5 * math.log(2.0 * math.pi * t)
    return x, log_px


def evolved_kernel(
    spec: pot.PotentialSpec,
    n: int,
    t: float,
    alpha: float,
    cfg: QuadratureConfig = DEFAULT_QUAD,
    tol: tilted.ToleranceConfig = tilted.DEFAULT_TOL,
) -> KernelEstimate:
    """Conditional law of the first spin given the others' magnetisation
    alpha at time t: the N(s, t) mixture of the g-weighted N(0, 1) s-law."""
    if n < 2:
        raise DomainError("evolved_kernel requires n >= 2")
    if not (t > 0):
        raise DomainError("evolved_kernel requires t > 0")
    n = _capped(n)
    machine = _GMachine(spec, n, t, alpha, cfg, tol)
    s, log_w = _s_law(machine)
    x, log_px = _gaussian_mixture(s, log_w, t, cfg)
    # the mixture is normalised in exact arithmetic; the grid integral's
    # deviation from 1 is the real truncation defect
    defect = abs(1.0 - math.exp(float(log_integral(x, log_px))))
    return _kernel_from_log_density(x, log_px, extra_defect=defect)


def limit_kernel(
    spec: pot.PotentialSpec,
    t: float,
    alpha: float,
    cfg: QuadratureConfig = DEFAULT_QUAD,
    tol: tilted.ToleranceConfig = tilted.DEFAULT_TOL,
) -> KernelEstimate:
    """The limiting specification kernel N(-V'(q), 1+t) at a good alpha.

    At a kink q of V, -V'(q) is the subgradient for which U'(q) = V'(q) + q
    + (q - alpha)/t vanishes; the evolved kernel's mean tends to it. At a
    bad alpha raises BadMagnetisationError carrying the two extreme
    minimisers and their selection-limit kernels."""
    if not (t > 0):
        raise DomainError("limit_kernel requires t > 0")

    def kernel_at(q):
        try:
            mean = -float(pot.deriv(spec, q, 1))
        except NotDifferentiableError:
            mean = q + (q - alpha) / t
        return gaussian_kernel(mean, 1.0 + t, cfg)

    ms = tilted.global_minimisers(tilted.TiltedRate(spec, t, alpha), tol)
    if ms.multiple:
        raise BadMagnetisationError(
            f"alpha = {alpha} is a bad magnetisation at t = {t}: "
            f"minimisers {ms.q_min} and {ms.q_max} give distinct limit kernels",
            q_min=ms.q_min,
            q_max=ms.q_max,
            kernel_min=kernel_at(ms.q_min),
            kernel_max=kernel_at(ms.q_max),
        )
    return kernel_at(ms.locations[0])


def w1_distance(a: KernelEstimate, b: KernelEstimate) -> float:
    """Wasserstein-1 distance between two grid laws: integral of |F_a - F_b|."""
    lo = min(a.grid[0], b.grid[0])
    hi = max(a.grid[-1], b.grid[-1])
    x = np.linspace(lo, hi, 16385)
    fa = a.cdf_at(x)
    fb = b.cdf_at(x)
    return float(np.trapezoid(np.abs(fa - fb), x))


@dataclass(frozen=True)
class LadderRow:
    n: int
    alpha_n: float
    mean: float
    variance: float
    w1_to_limit: float


def _alpha_sequence(sequence: str, alpha: float, n: int) -> float:
    if sequence == SEQ_CONSTANT:
        return alpha
    if sequence == SEQ_MINUS:
        return alpha - 1.0 / math.sqrt(n)
    if sequence == SEQ_PLUS:
        return alpha + 1.0 / math.sqrt(n)
    raise ConfigError(f"unknown selection sequence {sequence!r}")


def convergence_experiment(
    spec: pot.PotentialSpec,
    t: float,
    alpha: float,
    n_ladder,
    sequence: str = SEQ_CONSTANT,
    cfg: QuadratureConfig = DEFAULT_QUAD,
    tol: tilted.ToleranceConfig = tilted.DEFAULT_TOL,
) -> list[LadderRow]:
    """Evolved-kernel moments along an n-ladder with conditioning values
    alpha_n chosen by the selection sequence, plus the W1 distance to the
    limit_kernel (at a bad alpha its q_min branch for minus_inv_sqrt, its
    q_max branch for plus_inv_sqrt)."""
    ladder = [int(n) for n in n_ladder]
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("n_ladder must be strictly increasing")

    try:
        reference = limit_kernel(spec, t, alpha, cfg, tol)
    except BadMagnetisationError as err:
        if sequence == SEQ_CONSTANT:
            raise
        reference = err.kernel_min if sequence == SEQ_MINUS else err.kernel_max

    rows = []
    for n in ladder:
        a_n = _alpha_sequence(sequence, alpha, n)
        k = evolved_kernel(spec, n, t, a_n, cfg, tol)
        rows.append(
            LadderRow(
                n=n,
                alpha_n=a_n,
                mean=k.mean,
                variance=k.variance,
                w1_to_limit=w1_distance(k, reference),
            )
        )
    return rows
