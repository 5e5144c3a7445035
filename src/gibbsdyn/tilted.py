"""The two-layer model: tilted rate function, its global minimisers, badness
of a conditioning magnetisation, bad-set scans, and the limiting potential.

The central object for time t > 0 and conditioning value alpha is

    U(r) = V(r) + r^2/2 + (r - alpha)^2 / (2t)           (un-normalised rate)
         = V(r) + (r - alpha/(1+t))^2 * (1+t)/(2t) + alpha^2 / (2(1+t)),

whose normalised version U - inf U is the large-deviation rate of the
magnetisation at time 0 given magnetisation alpha at time t. alpha is bad
exactly when U has multiple global minimisers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from gibbsdyn import potential as pot
from gibbsdyn.errors import ConfigError, DomainError, NotDifferentiableError
from gibbsdyn.gridmin import golden_section, local_minima_indices

COARSE_GRID_N = 32768  # coarse scan resolution on the truncation window
REFINE_TOL = 1e-13  # golden-section x-tolerance when refining a candidate basin
# refined values within (eps_val, INDETERMINATE_FACTOR*eps_val] of the minimum
# are near-ties: flagged indeterminate rather than silently resolved
INDETERMINATE_FACTOR = 10.0
TRUNCATION_MARGIN = 10.0  # quadratic tilt must exceed best-so-far by this much outside


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances for minimiser detection.

    eps_val_rel: relative band below the refined minimum that counts as a tie.
    delta_cluster: minimum separation between reported minimiser locations.
    Both must be finite and positive.
    """

    eps_val_rel: float = 1e-9
    delta_cluster: float = 1e-6

    def __post_init__(self):
        for name in ("eps_val_rel", "delta_cluster"):
            value = getattr(self, name)
            if not (value > 0) or not math.isfinite(value):
                raise ConfigError(f"{name} must be finite and positive, got {value!r}")

    def eps_val(self, value: float) -> float:
        return self.eps_val_rel * max(1.0, abs(value))


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class TiltedRate:
    potential: pot.PotentialSpec
    t: float
    alpha: float

    def __post_init__(self):
        if not (self.t > 0) or not math.isfinite(self.t):
            raise DomainError("TiltedRate requires t > 0; t = 0 belongs to the initial-kernel path")
        if not 0.0 < self.tilt_curvature < math.inf:
            raise DomainError(f"tilt curvature (1 + t)/(2 t) is not finite and positive at t = {self.t!r}")
        if not math.isfinite(self.alpha):
            raise DomainError("alpha must be finite")

    @property
    def center(self) -> float:
        """Center alpha/(1+t) of the quadratic tilt."""
        return self.alpha / (1.0 + self.t)

    @property
    def tilt_curvature(self) -> float:
        """Coefficient (1+t)/(2t) of the squared distance to the center."""
        return (1.0 + self.t) / (2.0 * self.t)


@dataclass(frozen=True)
class MinimiserSet:
    """Global minimisers of the un-normalised tilted rate.

    value is the common minimum (the constant C_{t,alpha} that normalises the
    rate function). Clusters whose refined values lie within (eps_val,
    INDETERMINATE_FACTOR*eps_val] of the minimum are near-ties: they do not
    count as minimisers but set indeterminate=True.
    """

    locations: tuple[float, ...]
    value: float
    multiple: bool
    q_min: float
    q_max: float
    indeterminate: bool = False
    near_values: tuple[float, ...] = field(default_factory=tuple)


def eval_rate(tr: TiltedRate, r):
    """Un-normalised rate U(r) = V(r) + r^2/2 + (r - alpha)^2/(2t)."""
    arr = np.asarray(r, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError("rate argument must be finite")
    v = np.asarray(pot.eval(tr.potential, arr))
    out = v + arr**2 / 2.0 + (arr - tr.alpha) ** 2 / (2.0 * tr.t)
    if np.isscalar(r) or np.asarray(r).ndim == 0:
        return float(out)
    return out


def _truncation_radius(tr: TiltedRate, best_value: float) -> float:
    """Radius R around the tilt center such that the tilt alone exceeds
    best_value + margin outside; since V >= v_floor, no minimiser can be there."""
    k = tr.tilt_curvature
    floor = min(tr.potential.v_floor, 0.0)
    excess = max(best_value - floor, 0.0) + TRUNCATION_MARGIN
    return math.sqrt(excess / k)


def _shifted_rate(tr: TiltedRate):
    """J(r) = (V(r) - v_floor) + k (r - c)^2 >= 0, the tilt-centred form used
    for window construction; differs from eval_rate by a constant."""
    c = tr.center
    k = tr.tilt_curvature
    floor = min(tr.potential.v_floor, 0.0)

    def J(r):
        return (np.asarray(pot.eval(tr.potential, r)) - floor) + k * (np.asarray(r) - c) ** 2

    return J


def _foc_residual(tr: TiltedRate, q: float) -> float:
    """First-order condition V'(q) + q + (q - alpha)/t, when V' is available."""
    d1 = pot.deriv(tr.potential, q, 1)
    return d1 + q + (q - tr.alpha) / tr.t


def _newton_polish(tr: TiltedRate, q: float, bracket: tuple[float, float]) -> float:
    """Safeguarded Newton steps on the first-order condition. Golden section is
    value-based and stalls at x-accuracy ~sqrt(eps); polishing the root of the
    derivative recovers full precision."""
    lo, hi = bracket
    x = q
    try:
        f_start = _foc_residual(tr, q)
    except NotDifferentiableError:
        return q
    f = f_start
    for _ in range(8):
        if abs(f) < 1e-13:
            break
        h = 1e-7 * max(1.0, abs(x))
        try:
            fp = (_foc_residual(tr, x + h) - _foc_residual(tr, x - h)) / (2 * h)
        except NotDifferentiableError:
            return q
        if fp <= 0 or not math.isfinite(fp):
            break
        step = f / fp
        if not math.isfinite(step):
            break
        x = min(max(x - step, lo), hi)
        try:
            f = _foc_residual(tr, x)
        except NotDifferentiableError:
            return q
    return x if abs(f) <= abs(f_start) else q


def global_minimisers(tr: TiltedRate, tol: ToleranceConfig = DEFAULT_TOL) -> MinimiserSet:
    """All global minimisers of the tilted rate, by coarse grid scan on the
    truncation window, golden-section refinement of every near-minimal basin,
    Newton polish on the first-order condition when V is differentiable, and
    clustering at delta_cluster."""
    J = _shifted_rate(tr)
    c = tr.center

    # Anchor the truncation window at the tilt center, then tighten once with
    # the coarse minimum.
    R = _truncation_radius(tr, float(J(np.asarray([c]))[0]))
    xs = np.linspace(c - R, c + R, COARSE_GRID_N)
    vs = J(xs)
    b = float(vs.min())
    R2 = _truncation_radius(tr, b)
    if R2 < 0.5 * R:
        xs = np.linspace(c - R2, c + R2, COARSE_GRID_N)
        vs = J(xs)
        b = float(vs.min())

    dx = xs[1] - xs[0]
    # Discretisation band: a true tie can sit up to ~curvature*dx^2/2 above the
    # sampled minimum.
    d2 = np.abs(np.diff(vs, 2))
    band = max(1e-6 * max(1.0, b), 2.0 * float(d2.max()) if d2.size else 0.0, 1e-12)

    cand_idx = [i for i in local_minima_indices(vs) if vs[i] <= b + band]
    # a flat continuum of minimisers can flag thousands of grid candidates;
    # refine only the best few, keep the rest at grid resolution
    cand_idx.sort(key=lambda i: vs[i])
    refine_budget = 48
    refined: list[tuple[float, float]] = []
    for rank, i in enumerate(cand_idx):
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, xs.size - 1)]
        if lo == hi or rank >= refine_budget:
            refined.append((float(xs[i]), float(eval_rate(tr, float(xs[i])))))
            continue
        x, _ = golden_section(lambda s: float(J(np.asarray([s]))[0]), lo, hi, tol=REFINE_TOL)
        if pot.has_analytic_deriv(tr.potential, 1):
            x = _newton_polish(tr, x, (lo, hi))
        refined.append((float(x), float(eval_rate(tr, x))))
    refined.sort(key=lambda p: p[0])

    if not refined:  # pragma: no cover - the grid always has a minimum
        raise RuntimeError("no minimiser candidates found")

    best = min(v for _, v in refined)
    eps = tol.eps_val(best)
    ties = sorted((x, v) for x, v in refined if v <= best + eps)
    near = sorted(
        v for _, v in refined if best + eps < v <= best + INDETERMINATE_FACTOR * eps
    )

    # merge tie locations closer than delta_cluster
    locations: list[float] = []
    for x, _ in ties:
        if locations and abs(x - locations[-1]) <= tol.delta_cluster:
            continue
        locations.append(x)

    return MinimiserSet(
        locations=tuple(locations),
        value=best,
        multiple=len(locations) >= 2,
        q_min=locations[0],
        q_max=locations[-1],
        indeterminate=bool(near),
        near_values=tuple(near),
    )


def is_bad(potential_spec: pot.PotentialSpec, t: float, alpha: float, tol: ToleranceConfig = DEFAULT_TOL):
    """Whether alpha is a bad magnetisation at time t, with the evidence.

    Returns (bad, MinimiserSet); bad is True exactly when the tilted rate has
    multiple global minimisers.
    """
    if not (t > 0):
        raise DomainError("is_bad requires t > 0")
    ms = global_minimisers(TiltedRate(potential_spec, t, alpha), tol)
    return ms.multiple, ms


@dataclass(frozen=True)
class BadScanRow:
    alpha: float
    n_minimisers: int
    q_min: float
    q_max: float
    value: float
    indeterminate: bool


@dataclass(frozen=True)
class BadScanResult:
    intervals: tuple[tuple[float, float], ...]
    rows: tuple[BadScanRow, ...]

    @property
    def empty(self) -> bool:
        return len(self.intervals) == 0


def _bisect_badness(potential_spec, t, a_good, a_bad, tol, width=1e-6):
    """Refine the boundary between a good and a bad alpha to the given width."""
    lo, hi = a_good, a_bad
    while abs(hi - lo) > width:
        mid = 0.5 * (lo + hi)
        bad, _ = is_bad(potential_spec, t, mid, tol)
        if bad:
            hi = mid
        else:
            lo = mid
    return hi


def bad_set_scan(
    potential_spec: pot.PotentialSpec,
    t: float,
    window: tuple[float, float],
    grid_n: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> BadScanResult:
    """Scan alpha over the window, merge adjacent bad grid points into
    intervals, and refine interval endpoints by bisection to width <= 1e-6.

    Isolated bad grid points are reported as degenerate intervals.
    """
    lo, hi = float(window[0]), float(window[1])
    if not (lo < hi):
        raise ConfigError("scan window must satisfy lo < hi")
    if grid_n < 2:
        raise ConfigError("grid_n must be >= 2")
    if not (t > 0):
        raise DomainError("bad_set_scan requires t > 0")

    alphas = np.linspace(lo, hi, int(grid_n))
    results = [is_bad(potential_spec, t, float(a), tol) for a in alphas]

    rows = tuple(
        BadScanRow(
            alpha=float(a),
            n_minimisers=len(ms.locations),
            q_min=ms.q_min,
            q_max=ms.q_max,
            value=ms.value,
            indeterminate=ms.indeterminate,
        )
        for a, (bad, ms) in zip(alphas, results)
    )
    flags = [bad for bad, _ in results]

    intervals: list[tuple[float, float]] = []
    i = 0
    n = len(alphas)
    while i < n:
        if not flags[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and flags[j + 1]:
            j += 1
        left = float(alphas[i])
        right = float(alphas[j])
        if i > 0:
            left = _bisect_badness(potential_spec, t, float(alphas[i - 1]), left, tol)
        if j + 1 < n:
            right = _bisect_badness(potential_spec, t, float(alphas[j + 1]), right, tol)
        intervals.append((left, right))
        i = j + 1

    return BadScanResult(intervals=tuple(intervals), rows=rows)


def limiting_potential(potential_spec: pot.PotentialSpec, t: float, r, tol: ToleranceConfig = DEFAULT_TOL):
    """Large-n limit of the evolved potential by inf-convolution:

        V_t(r) = inf_s [ V(s) + (s - r/(1+t))^2 * (1+t)/(2t) ]

    computed with the same global-minimisation machinery (the infimand is the
    tilted rate at alpha = r, up to the constant r^2/(2(1+t)))."""
    if not (t > 0):
        raise DomainError("limiting_potential requires t > 0")
    scalar = np.isscalar(r) or np.asarray(r).ndim == 0
    rs = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(rs)
    for i, ri in enumerate(rs):
        ms = global_minimisers(TiltedRate(potential_spec, t, float(ri)), tol)
        out[i] = ms.value - ri**2 / (2.0 * (1.0 + t))
    return float(out[0]) if scalar else out
