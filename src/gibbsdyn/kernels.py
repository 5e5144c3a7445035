"""Finite-n conditional kernels by log-space quadrature, their large-n limit,
and the selection-sequence convergence experiments.

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

The two 2-D quadratures, the g-factor numerator over s x r and the N(s, t)
mixture over x x s, run in row blocks of bounded memory
(quadrature.row_blocks), each block built in place in one buffer per call
and each row reduced exactly as on the whole array.

The s-law's support is located by probes that integrate the numerator on
every k-th node of the g machine's r grid (k = 8 for the default grid; see
_probe_stride), with the Simpson weights of that strided grid. The strided
grid keeps both end nodes, so a probe sees the same edge values, and probe
rows with a hot edge are redone on the full grid, so every rebuild of the
machine is decided there. The fine s pass, the denominator and the mixture
use the full grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from gibbsdyn import potential as pot
from gibbsdyn import tilted
from gibbsdyn.errors import AccuracyError, BadMagnetisationError, ConfigError, DomainError, NotDifferentiableError
from gibbsdyn.quadrature import (
    DEFAULT_DROP,
    expanding_localize,
    localize,
    log_integral,
    logsumexp,
    refine_if_rough,
    row_blocks,
    simpson_grid,
    simpson_log_weights,
    trapezoid_cdf,
)

N_CAP = 100_000  # beyond this the LDP concentration under-resolves any fixed grid
PROBE_STRIDES = (8, 4, 2)  # r-grid strides tried for the s-support probes, largest first
PROBE_MIN_NODES = 129  # fewest r nodes a strided probe grid may keep

SEQ_CONSTANT = "constant"
SEQ_MINUS = "minus_inv_sqrt"
SEQ_PLUS = "plus_inv_sqrt"


@dataclass(frozen=True)
class QuadratureConfig:
    truncation_mass: float = 1e-12
    grid_n: int = 4096

    def __post_init__(self):
        if not (0.0 < self.truncation_mass <= 1e-6):
            raise ConfigError("truncation_mass must lie in (0, 1e-6]")
        if self.grid_n < 64:
            raise ConfigError("grid_n must be >= 64")

    @property
    def drop(self) -> float:
        """Log-depth below the integrand max that is kept on the grid."""
        return max(DEFAULT_DROP, -math.log(self.truncation_mass) + 8.0)


DEFAULT_QUAD = QuadratureConfig()


@dataclass(frozen=True)
class KernelEstimate:
    """A 1-D law as a normalised grid density with its first two moments.

    total_mass_defect records |1 - integral| of the density before the final
    renormalisation, i.e. the truncation/discretisation error actually made.
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
    lo, hi, _ = localize(log_f, window[0], window[1], n_coarse, drop=cfg.drop)
    x = simpson_grid(lo, hi, cfg.grid_n)
    L = np.asarray(log_f(x), dtype=float)
    x, L = refine_if_rough(x, L, log_f, drop=cfg.drop)
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
    B = math.sqrt(2.0 * (n * v_anchor + cfg.drop)) + 2.0
    # steep potentials squeeze the integrand onto an x-scale of 1/sqrt(|V''|/n + 1);
    # keep the coarse spacing below it so the localization cannot skip the mass
    h = pot.fd_step(abar)
    vpp = abs(
        (float(pot.eval(spec, abar + h)) - 2.0 * float(pot.eval(spec, abar)) + float(pot.eval(spec, abar - h)))
        / h**2
    )
    width = 1.0 / math.sqrt(1.0 + vpp / n)
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
    excess = max(u_min - floor - const, 0.0) + (cfg.drop + 5.0) / n
    R = math.sqrt(excess / k)
    return _build_kernel(log_f, (c - R, c + R), cfg, n_coarse=16385)


def _probe_stride(m: int) -> int:
    """Largest stride k in PROBE_STRIDES that leaves an odd Simpson grid of
    at least PROBE_MIN_NODES nodes on an m-node grid ((m - 1) % 2k == 0),
    else 1."""
    for k in PROBE_STRIDES:
        if (m - 1) % (2 * k) == 0 and (m - 1) // k + 1 >= PROBE_MIN_NODES:
            return k
    return 1


class _GMachine:
    """Shared-grid evaluator for the tilt weight g_{n,t}(alpha, .).

    Builds one r-grid covering the support of the denominator integrand and
    of the numerator integrands at the extreme s values requested, reusing it
    across calls. If an endpoint turns hot it rebuilds with a wider s span and
    a deeper drop, and if one is still hot, once more with the hottest rows'
    s values added to the probes.
    """

    def __init__(self, spec, n, t, alpha, cfg, tol):
        self.spec = spec
        self.n = n
        self.t = t
        self.alpha = alpha
        self.cfg = cfg
        self.tol = tol
        tr = tilted.TiltedRate(spec, t, alpha)
        self.ms = tilted.global_minimisers(tr, tol)
        self.center = tr.center
        self.k2 = (n - 1) * (1.0 + t) / (2.0 * t)
        self.floor = min(spec.v_floor, 0.0)
        self.r = None
        self.s_span = None

    def _log_integrand(self, arg, quad):
        """-n (V(arg) - floor) - quad, built in pot.eval's output array."""
        out = pot.eval(self.spec, arg)
        out -= self.floor
        out *= -self.n
        out -= quad
        return out

    def _log_den_integrand(self, r):
        r = np.asarray(r)
        return self._log_integrand(r, self.k2 * (r - self.center) ** 2)

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
        drop = self.cfg.drop + extra_drop
        R = math.sqrt((A + drop + 5.0) / k2) + (abs(s_lo) + abs(s_hi)) / n

        def log_union(r):
            # normalise each probe integrand by its own peak so that rows whose
            # overall level is suppressed still contribute their support
            quad = k2 * (r - c) ** 2
            parts = [self._log_integrand(r, quad)]
            parts += [self._log_integrand(r * (1.0 - 1.0 / n) + s / n, quad) for s in probes]
            return np.maximum.reduce([p - p.max() for p in parts])

        lo, hi, _ = localize(log_union, c - R, c + R, 16385, drop=drop)
        self.r = simpson_grid(lo, hi, self.cfg.grid_n)
        self.s_span = (s_lo, s_hi)
        # the s-free parts of the integrands on this grid, for every _log_num
        self._ra = self.r * (1.0 - 1.0 / n)
        self._quad = k2 * (self.r - c) ** 2
        self._lw = simpson_log_weights(self.r)
        self._stride = _probe_stride(self.r.size)
        self._probe_lw = simpson_log_weights(self.r[:: self._stride])
        self._den_integrand = self._log_integrand(self.r, self._quad)
        self._log_den = float(log_integral(self.r, self._den_integrand, lw=self._lw))

    def _ensure(self, s_lo: float, s_hi: float):
        if self.s_span is None or s_lo < self.s_span[0] or s_hi > self.s_span[1]:
            span_lo = min(s_lo, self.s_span[0]) if self.s_span else s_lo
            span_hi = max(s_hi, self.s_span[1]) if self.s_span else s_hi
            self._build(span_lo, span_hi)

    def _log_num(self, s_arr: np.ndarray, stride: int = 1):
        """Numerator log-integrals for every s on every stride-th r node,
        built and reduced in row blocks, and each row's (left, right) edge
        value minus its peak."""
        r, ra, quad = self.r[::stride], self._ra[::stride], self._quad[::stride]
        lw = self._lw if stride == 1 else self._probe_lw
        log_num = np.empty(s_arr.size)
        edges = np.empty((s_arr.size, 2))
        blocks = row_blocks(s_arr.size, r.size)
        buf = np.empty((min(blocks[0].stop, s_arr.size), r.size))
        for rows in blocks:
            s = s_arr[rows]
            # V argument r (1 - 1/n) + s/n, built in one buffer per call
            arg = np.add(ra, s[:, None] / self.n, out=buf[: s.size])
            L = self._log_integrand(arg, quad)
            log_num[rows] = log_integral(r, L, axis=1, lw=lw)
            edges[rows] = L[:, [0, -1]] - L.max(axis=1)[:, None]
        return log_num, edges

    def _redo_hot_rows(self, s_arr, log_num, edges, cold, one_suffices):
        """Redo on the full grid, in place, the rows whose strided edges are
        hotter than `cold`. The strided grid keeps both end nodes and its
        peak is no higher than the full grid's, so every other row is cold on
        the full grid too. With one_suffices (the first rebuild depends only
        on whether some row is hot), the hottest row goes first, and when it
        is hot on the full grid the rest keep their strided edges."""
        hot = np.flatnonzero(edges.max(axis=1) > cold)
        if one_suffices and hot.size:
            hottest = hot[[np.argmax(edges[hot].max(axis=1))]]
            log_num[hottest], edges[hottest] = self._log_num(s_arr[hottest])
            if edges[hottest].max() > cold:
                return
            hot = np.flatnonzero(edges.max(axis=1) > cold)
        if hot.size:
            log_num[hot], edges[hot] = self._log_num(s_arr[hot])

    def log_g(self, s_arr: np.ndarray, probe: bool = False) -> np.ndarray:
        """log g at every s; a probe integrates the numerator on every
        _stride-th r node, and every rebuild is still decided on full-grid
        edges (see _redo_hot_rows)."""
        s_arr = np.asarray(s_arr, dtype=float)
        self._ensure(float(s_arr.min()), float(s_arr.max()))
        cold = -(self.cfg.drop - 15.0)
        stride = self._stride if probe else 1
        for attempt in range(3):
            log_num, edges = self._log_num(s_arr, stride)
            if stride > 1:
                self._redo_hot_rows(s_arr, log_num, edges, cold, one_suffices=attempt == 0)
            num_edge = float(np.max(edges))
            den_edge = float(
                max(self._den_integrand[0], self._den_integrand[-1]) - self._den_integrand.max()
            )
            if max(num_edge, den_edge) <= cold:
                return log_num - self._log_den
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

    # s-law support: anchored at 0 and at the limit means -V'(q), then grown
    # until the edges are cold, probed on the strided r grid.
    anchors = [0.0]
    if pot.has_analytic_deriv(spec, 1):
        for q in machine.ms.locations:
            try:
                anchors.append(-float(pot.deriv(spec, q, 1)))
            except NotDifferentiableError:
                pass
    pad = math.sqrt(2.0 * cfg.drop) + 2.0
    s_lo, s_hi, _ = expanding_localize(
        lambda s: machine.log_g(s, probe=True) - s**2 / 2.0,
        min(anchors) - pad,
        max(anchors) + pad,
        n_coarse=513,
        drop=cfg.drop,
    )
    s = simpson_grid(s_lo, s_hi, max(cfg.grid_n // 4, 1025))
    log_w = machine.log_g(s) - s**2 / 2.0 + simpson_log_weights(s)
    log_w = log_w - logsumexp(log_w)  # normalised s-law weights

    zpad = math.sqrt(2.0 * cfg.drop * t) + 2.0
    x = simpson_grid(s[0] - zpad, s[-1] + zpad, cfg.grid_n)
    log_px = np.empty(x.size)
    blocks = row_blocks(x.size, s.size)
    buf = np.empty((min(blocks[0].stop, x.size), s.size))
    for rows in blocks:
        # log_w - (x - s)^2 / (2t), built in place in one buffer
        B = np.subtract(x[rows, None], s, out=buf[: x[rows].size])
        np.square(B, out=B)
        B /= 2.0 * t
        np.subtract(log_w, B, out=B)
        log_px[rows] = logsumexp(B, axis=1)
    log_px = log_px - 0.5 * math.log(2.0 * math.pi * t)

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

    At a bad alpha raises BadMagnetisationError carrying the two extreme
    minimisers and their selection-limit kernels."""
    if not (t > 0):
        raise DomainError("limit_kernel requires t > 0")
    ms = tilted.global_minimisers(tilted.TiltedRate(spec, t, alpha), tol)
    if ms.multiple:
        k_min = gaussian_kernel(-float(pot.deriv(spec, ms.q_min, 1)), 1.0 + t, cfg)
        k_max = gaussian_kernel(-float(pot.deriv(spec, ms.q_max, 1)), 1.0 + t, cfg)
        raise BadMagnetisationError(
            f"alpha = {alpha} is a bad magnetisation at t = {t}: "
            f"minimisers {ms.q_min} and {ms.q_max} give distinct limit kernels",
            q_min=ms.q_min,
            q_max=ms.q_max,
            kernel_min=k_min,
            kernel_max=k_max,
        )
    q = ms.locations[0]
    return gaussian_kernel(-float(pot.deriv(spec, q, 1)), 1.0 + t, cfg)


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
