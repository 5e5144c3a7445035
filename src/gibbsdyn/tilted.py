"""The two-layer model: tilted rate function, its global minimisers, badness
of a conditioning magnetisation, bad-set scans, and the limiting potential.

The central object for time t > 0 and conditioning value alpha is

    U(r) = V(r) + r^2/2 + (r - alpha)^2 / (2t)           (un-normalised rate)
         = V(r) + (r - alpha/(1+t))^2 * (1+t)/(2t) + alpha^2 / (2(1+t))
         = g_t(r) - (alpha/t) r + alpha^2/(2t),   g_t = V + (1+t)/(2t) r^2,

whose normalised version U - inf U is the large-deviation rate of the
magnetisation at time 0 given magnetisation alpha at time t. alpha is bad
exactly when U has multiple global minimisers: when alpha/t is the slope of
a bridging edge of the convex minorant of g_t. global_minimisers answers one
alpha; bad_set_scan and limiting_potential read many off one minorant. Both
paths share one truncation window (_window), one rule for distinct contacts
(at least three grid steps apart) and one tie band (_tie), so is_bad and
bad_set_scan agree by construction.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from gibbsdyn import potential as pot
from gibbsdyn.errors import ConfigError, DomainError, NotDifferentiableError
from gibbsdyn.gridmin import REFINE_TOL, _drive, local_minima_indices
from gibbsdyn.gridmin import golden_section  # unused: perfbench's selftest.Bindings requires the binding

COARSE_GRID_N = 32768  # coarse scan resolution on the truncation window
SEPARATION_STEPS = 3  # grid points fewer steps apart than this touch one minimiser
# refined values within (eps_val, INDETERMINATE_FACTOR*eps_val] of the minimum
# are near-ties: flagged indeterminate rather than silently resolved
INDETERMINATE_FACTOR = 10.0
TRUNCATION_MARGIN = 10.0  # quadratic tilt must exceed best-so-far by this much outside
NEWTON_RESIDUAL = 1e-13  # a contact has settled once |U'(x)| = |V'(x) + x + (x - alpha)/t| is below this
# Newton steps per contact at most, then bisection: a finite-difference slope
# taken across a kink makes tiny steps that never leave the bracket
NEWTON_STEPS = 4
# a point lies above a chord when its cross product is below -HULL_ROUNDING
# times the two products' magnitudes: 8 eps, a bound on their rounding
HULL_ROUNDING = 8.0 * np.finfo(float).eps


def _tie(gap, eps):
    """(tie, near-tie) for value gaps above the minimum, elementwise: a tie
    within eps, a near-tie within (eps, INDETERMINATE_FACTOR*eps]."""
    return gap <= eps, (eps < gap) & (gap <= INDETERMINATE_FACTOR * eps)


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

    def eps_val(self, value):
        return self.eps_val_rel * np.maximum(1.0, np.abs(value))


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class TiltedRate:
    potential: pot.PotentialSpec
    t: float
    alpha: float | np.ndarray  # an array of alphas is a batch, as _refine takes it

    def __post_init__(self):
        if not (self.t > 0) or not math.isfinite(self.t):
            raise DomainError("TiltedRate requires t > 0; t = 0 belongs to the initial-kernel path")
        if not 0.0 < self.tilt_curvature < math.inf:
            raise DomainError(f"tilt curvature (1 + t)/(2 t) is not finite and positive at t = {self.t!r}")
        if not np.isfinite(self.alpha).all():
            raise DomainError("alpha must be finite")

    @property
    def center(self):
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
    return float(out) if np.ndim(r) == 0 else out


def _truncation_radius(tr: TiltedRate, best_value):
    """Radius R around the tilt center such that the tilt alone exceeds
    best_value + margin outside; since V >= v_floor, no minimiser can be there."""
    excess = np.maximum(best_value - min(tr.potential.v_floor, 0.0), 0.0) + TRUNCATION_MARGIN
    return np.sqrt(excess / tr.tilt_curvature)


def _window(spec: pot.PotentialSpec, t: float, alphas) -> tuple[float, float]:
    """Truncation window spanning the alphas' windows. Each alpha's minimum of
    J (_shifted_rate) is bounded by J at three points: its own tilt center,
    the lowest center and r = 0; the last two keep the window tight where a
    fast-growing V is huge at the centers. A window whose width or whose
    g_t = V + k r^2 at either end overflows raises DomainError."""
    tr = TiltedRate(spec, t, np.asarray(alphas, dtype=float))
    k, cs = tr.tilt_curvature, tr.center
    floor = min(spec.v_floor, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        j = np.asarray(pot.eval(spec, np.append(cs, 0.0))) - floor
        jc, j0 = j[:-1], j[-1]
        best = np.minimum.reduce([jc, jc.min() + k * (cs - cs[np.argmin(jc)]) ** 2, j0 + k * cs**2])
        radii = _truncation_radius(tr, best)
        lo, hi = float(np.min(cs - radii)), float(np.max(cs + radii))
        ends = np.array([lo, hi])
        if not (math.isfinite(hi - lo) and np.isfinite(np.asarray(pot.eval(spec, ends)) + k * ends**2).all()):
            raise DomainError(f"g_t overflows on the truncation window at t = {t!r} for alpha in "
                              f"[{float(tr.alpha.min())!r}, {float(tr.alpha.max())!r}]")
    return lo, hi


def _shifted_rate(tr: TiltedRate):
    """J(r, j) = (V(r) - v_floor) + k (r - c_j)^2 >= 0 at the tilt center c_j
    of the j-th alpha, the tilt-centred form used for window construction;
    differs from eval_rate by a constant."""
    c = np.atleast_1d(tr.center)
    k = tr.tilt_curvature
    floor = min(tr.potential.v_floor, 0.0)

    def J(r, j):
        return (np.asarray(pot.eval(tr.potential, r)) - floor) + k * (r - c[j]) ** 2

    return J


def _refine(tr: TiltedRate, xs: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, U(x)) arrays: for each j, the minimum for tr.alpha[j] in the basin
    of grid point idx[j], bracketed by its neighbours, all brackets in one
    batch (_drive). Each bracket runs rtsafe (Press et al., Numerical
    Recipes 3rd ed., section 9.4) on U'(x) = V'(x) + x + (x - alpha)/t: the
    signs of U' narrow the bracket; Newton from the grid vertex
    (central-difference slope) while its steps stay inside the bracket, for
    at most NEWTON_STEPS steps; then bisection on the sign of U', until
    |U'| < NEWTON_RESIDUAL or the bracket is REFINE_TOL wide. The bisection
    ends at a point where U' turns from <= 0 to > 0, or at a bracket end
    where U is monotone. At a kink, where V' does not exist, the signs of U'
    at x - h and x + h decide: the kink is the minimiser when they turn from
    <= 0 to >= 0, else they pick the half. The same rule returns a kink of
    pot.kinks that lies in the bracket (found by bisect on the sorted
    kinks), before the first step, where bisection would stop a rounding
    residue away from it after some 45 rounds. Inside a custom_table's cell
    U' is affine, so one Newton step lands on its root."""
    lo, hi = xs[np.maximum(idx - 1, 0)], xs[np.minimum(idx + 1, xs.size - 1)]

    def deriv(x, j):  # V'(x), NaN where it does not exist
        try:
            return pot.deriv(tr.potential, x, 1)
        except NotDifferentiableError:  # a kink in the batch: NaN there, V' elsewhere
            return np.concatenate([deriv(x[i : i + 1], j) for i in range(x.size)]) if x.size > 1 else np.full(1, np.nan)

    kinks = pot.kinks(tr.potential)

    def rtsafe(x, a, b, alpha):
        def foc(x):  # U'(x), once V'(x) is sent in
            return (yield x) + x + (x - alpha) / tr.t

        def sides(x):  # U' just below and just above x
            h = 1e-7 * max(1.0, abs(x))
            return (yield from foc(x - h)), (yield from foc(x + h))

        for kink in kinks[bisect_left(kinks, a) : bisect_right(kinks, b)]:
            down, up = yield from sides(kink)
            if down <= 0.0 <= up:
                return kink
        steps = 0
        while True:
            f = yield from foc(x)
            h = 1e-7 * max(1.0, abs(x))
            if math.isnan(f):  # V' does not exist at x: a kink
                down, up = yield from sides(x)
                if down <= 0.0 <= up:
                    return x
                f, steps = (down if down > 0.0 else up), NEWTON_STEPS
            elif abs(f) < NEWTON_RESIDUAL:
                return x
            if f > 0.0:
                b = x
            else:
                a = x
            if b - a <= REFINE_TOL * max(1.0, abs(a) + abs(b)):
                return 0.5 * (a + b)
            if steps < NEWTON_STEPS:
                up, down = (yield from foc(x + h)), (yield from foc(x - h))
                slope = (up - down) / (2 * h)
                newton = x - f / slope if slope > 0.0 else math.nan
                if a < newton < b:
                    x, steps = newton, steps + 1
                    continue
                steps = NEWTON_STEPS
            x = 0.5 * (a + b)

    x = np.array(_drive([rtsafe(*p) for p in zip(xs[idx].tolist(), lo.tolist(), hi.tolist(), tr.alpha.tolist())], deriv))
    return x, eval_rate(tr, x)


def global_minimisers(tr: TiltedRate, tol: ToleranceConfig = DEFAULT_TOL) -> MinimiserSet:
    """All global minimisers of the tilted rate, by the rules of _ConvexMinorant:
    a coarse scan of the truncation window (_window); near-minimal grid
    candidates fewer than three grid steps apart form one run, whose lowest
    point is refined, and both ends too when the run spans three or more
    steps (_refine: safeguarded Newton with bisection, one loop for every
    family); the refined values that tie are clustered at
    delta_cluster. A continuum of minimisers is reported by a few refined
    contacts, its two ends included."""
    xs = np.linspace(*_window(tr.potential, tr.t, [tr.alpha]), COARSE_GRID_N)
    vs = _shifted_rate(tr)(xs, 0)
    b = float(vs.min())

    # Discretisation band: a true tie can sit up to ~curvature*dx^2/2 above the
    # sampled minimum.
    d2 = np.abs(np.diff(vs, 2))
    band = max(1e-6 * max(1.0, b), 2.0 * float(d2.max()) if d2.size else 0.0, 1e-12)

    cand = local_minima_indices(vs)
    cand = cand[vs[cand] <= b + band]
    picks = set()
    for run in np.split(cand, np.flatnonzero(np.diff(cand) >= SEPARATION_STEPS) + 1):
        picks.add(int(run[np.argmin(vs[run])]))
        if run[-1] - run[0] >= SEPARATION_STEPS:
            picks.update((int(run[0]), int(run[-1])))
    picks = np.asarray(sorted(picks))
    qs, values = _refine(TiltedRate(tr.potential, tr.t, np.full(picks.size, tr.alpha)), xs, picks)
    best = float(values.min())
    tie, near = _tie(values - best, tol.eps_val(best))
    near = np.sort(values[near]).tolist()

    # merge tie locations closer than delta_cluster
    locations: list[float] = []
    for x in np.sort(qs[tie]).tolist():
        if not locations or x - locations[-1] > tol.delta_cluster:
            locations.append(x)
    return MinimiserSet(tuple(locations), best, multiple=len(locations) >= 2, q_min=locations[0],
                        q_max=locations[-1], indeterminate=bool(near), near_values=tuple(near))


def is_bad(potential_spec: pot.PotentialSpec, t: float, alpha: float, tol: ToleranceConfig = DEFAULT_TOL):
    """Whether alpha is a bad magnetisation at time t, with the evidence.

    Returns (bad, MinimiserSet); bad is True exactly when the tilted rate has
    multiple global minimisers.
    """
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


def _chain(xa: np.ndarray, ya: np.ndarray) -> np.ndarray:
    """Lower hull indices of the points (xa, ya), xa increasing, by Andrew's
    monotone chain with its decisions unchanged: point i pops the stack top
    while cross(top two, i) <= 0. When the top two are consecutive points
    (i-1, i), the next test is cross(i-1, i, i+1); that is computed for every
    i at once, in the chain's operand order, so each sign is the chain's bit
    for bit, and every run of points up to the next test that pops is pushed
    as one slice. Only pops and the points of non-convex stretches go
    through the scalar loop."""
    n = xa.size
    c = (xa[1:-1] - xa[:-2]) * (ya[2:] - ya[:-2]) - (xa[2:] - xa[:-2]) * (ya[1:-1] - ya[:-2])
    stops = (np.flatnonzero(c <= 0.0) + 1).tolist() + [n - 1]  # middles whose test pops; n-1 ends the last run
    x, y = (array("d", v.tobytes()) for v in (xa, ya))
    hull = array("q", [0])
    i = 1
    while i < n:
        while len(hull) >= 2:
            i1, i2 = hull[-2], hull[-1]
            if (x[i2] - x[i1]) * (y[i] - y[i1]) - (x[i] - x[i1]) * (y[i2] - y[i1]) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
        i += 1
        if hull[-2] == i - 2:  # the top two are consecutive: push up to the next middle whose test pops
            stop = stops[bisect_left(stops, i - 1)]
            hull.frombytes(np.arange(i, stop + 1, dtype=np.int64).tobytes())
            i = stop + 1
    return np.frombuffer(hull, dtype=np.int64)


def _kept(xa: np.ndarray, ya: np.ndarray) -> np.ndarray:
    """Indices of the points that may be lower-hull vertices, increasing: all
    but those above the chord of an edge of the sample's hull, the sample
    being every isqrt(n)-th point and the last (Akl & Toussaint, Inf.
    Process. Lett. 7, 1978). Only edges that skip a sample have points
    above them. A point counts as above when its cross product with the
    edge's ends, in the chain's operand order, is below -HULL_ROUNDING times
    the sum of the two products' magnitudes, so rounding cannot place it
    there; a point above the chord of two input points is never a strict
    lower-hull vertex."""
    n = xa.size
    samples = np.append(np.arange(0, n - 1, math.isqrt(n)), n - 1)
    sh = _chain(xa[samples], ya[samples])
    wide = np.flatnonzero(np.diff(sh) >= 2)
    keep = np.ones(n, dtype=bool)
    for a, b in zip(samples[sh[wide]].tolist(), samples[sh[wide + 1]].tolist()):
        under = slice(a + 1, b)
        p1 = (xa[under] - xa[a]) * (ya[b] - ya[a])
        p2 = (xa[b] - xa[a]) * (ya[under] - ya[a])
        keep[under] = p1 - p2 >= -HULL_ROUNDING * (np.abs(p1) + np.abs(p2))
    return np.flatnonzero(keep)


def lower_hull(xs: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Lower convex hull of the points (xs, g), xs increasing, at least three
    of them, as (hull indices in an int64 ndarray, bridging edges (i1, i2)).

    The points above a chord of a sparse sample's hull cannot be hull
    vertices and are dropped first (_kept); Andrew's monotone chain (_chain)
    runs on the rest, and its indices are mapped back. Under a bridge only
    the few points near its contacts are left for the chain's scalar loop. A
    convex g has no such chord, and the chain sees every point.

    An edge bridges when it spans at least three grid steps and rises above
    the samples between by more than max(1e-9, 3 x the max of |second
    difference| within three points of the edge, clipped to the grid): the
    second difference is the offset a grid makes where it straddles a
    minimum."""
    xa, ya = np.asarray(xs, dtype=float), np.asarray(g, dtype=float)
    keep = _kept(xa, ya)
    h = keep[_chain(xa[keep], ya[keep])]
    k = np.flatnonzero(np.diff(h) >= SEPARATION_STEPS)
    d2 = np.pad(np.abs(np.diff(ya, 2)), 1, mode="edge")

    def rises(i1, i2):
        between = slice(i1 + 1, i2)
        chord = ya[i1] + (ya[i2] - ya[i1]) * (xa[between] - xa[i1]) / (xa[i2] - xa[i1])
        return float(np.max(ya[between] - chord)) > max(1e-9, 3.0 * float(d2[max(i1 - 3, 0) : i2 + 4].max()))

    return h, [(i1, i2) for i1, i2 in zip(h[k].tolist(), h[k + 1].tolist()) if rises(i1, i2)]


class _ConvexMinorant:
    """The convex minorant of g_t = V + (1+t)/(2t) r^2 for many alphas:
    U_alpha = g_t - (alpha/t) r + alpha^2/(2t) is minimal where the line of
    slope alpha/t supports g_t. The hull is built once, on COARSE_GRID_N
    points spanning the alphas' truncation windows (_window). Each hull edge
    (i1, i2) spanning at least SEPARATION_STEPS grid steps (bridging, or a
    piece of an affine stretch of g_t) is a candidate; edges holds its common
    tangent (alpha*, q1, q2, v1, v2), in increasing alpha*. All candidates
    are polished together: both contacts of every edge are refined (_refine,
    from the hull vertex) at slope alpha*/t in one batch, and
    each alpha* moves to its chord slope until it settles, for at most 8
    rounds."""

    def __init__(self, spec: pot.PotentialSpec, t: float, alphas):
        self.spec, self.t = spec, t
        self.xs = np.linspace(*_window(spec, t, alphas), COARSE_GRID_N)
        g = np.asarray(pot.eval(spec, self.xs)) + (1.0 + t) / (2.0 * t) * self.xs**2
        self.hull = lower_hull(self.xs, g)[0]
        self.slopes = np.diff(g[self.hull]) / np.diff(self.xs[self.hull])
        k = np.flatnonzero(np.diff(self.hull) >= SEPARATION_STEPS)
        self.i1, self.i2 = self.hull[k], self.hull[k + 1]
        alpha, q1, q2, v1, v2 = t * self.slopes[k], *np.zeros((4, k.size))
        live = np.arange(k.size)
        for _ in range(8):
            if not live.size:
                break
            both = np.concatenate([self.i1[live], self.i2[live]])
            x, v = _refine(TiltedRate(spec, t, np.tile(alpha[live], 2)), self.xs, both)
            q1[live], q2[live], v1[live], v2[live] = np.split(np.concatenate([x, v]), 4)
            step = t * (v2[live] - v1[live]) / (q2[live] - q1[live])  # t x (chord slope - alpha/t)
            moving = ~(np.abs(step) <= REFINE_TOL * np.maximum(1.0, np.abs(alpha[live])))
            alpha[live[moving]] += step[moving]
            live = live[moving]
        self.edges = list(zip(*(a.tolist() for a in (alpha, q1, q2, v1, v2))))

    def contacts(self, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x, U_alpha(x)) arrays at polished global minimisers: each alpha's
        hull contact vertex, on the side of each candidate that the polished
        edges give."""
        i = self.hull[np.searchsorted(self.slopes, alphas / self.t)]
        k = np.searchsorted([e[0] for e in self.edges], alphas, side="right")
        lo, hi = np.append(0, self.i2)[k], np.append(self.i1, self.xs.size - 1)[k]
        return _refine(TiltedRate(self.spec, self.t, alphas), self.xs, np.clip(i, lo, hi))


def bad_set_scan(
    potential_spec: pot.PotentialSpec,
    t: float,
    window: tuple[float, float],
    grid_n: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> BadScanResult:
    """The bad alphas in the window and one row per alpha of a grid_n-point
    scan, read off one _ConvexMinorant. At fixed t the bad set is discrete:
    t x the slope of each candidate edge whose polished contacts lie more
    than delta_cluster apart and tie (_tie), also between scan points, as
    degenerate intervals (alpha, alpha). A row is the polished contact at
    slope alpha/t; the same _tie rule on the value gap |alpha - alpha*|
    |q2 - q1| / t to the nearest bad edge shows both contacts or flags it."""
    lo, hi = float(window[0]), float(window[1])
    if not (lo < hi):
        raise ConfigError("scan window must satisfy lo < hi")
    if grid_n < 2:
        raise ConfigError("grid_n must be >= 2")

    alphas = np.linspace(lo, hi, int(grid_n))
    minorant = _ConvexMinorant(potential_spec, t, alphas)
    edges = [e[:4] for e in minorant.edges if e[2] - e[1] > tol.delta_cluster and _tie(abs(e[4] - e[3]), tol.eps_val(e[3]))[0]]
    bad: list[tuple[float, float, float, float]] = []
    for e in edges:  # edges that tie one another are pieces of one affine stretch: keep the widest
        if bad and _tie(abs(e[0] - bad[-1][0]) * (e[2] - bad[-1][1]) / t, tol.eps_val(e[3]))[0]:
            bad[-1] = max(bad[-1], e, key=lambda f: f[2] - f[1])
        else:
            bad.append(e)
    x, values = minorant.contacts(alphas)
    e = np.asarray(edges, dtype=float).reshape(-1, 4)
    gaps = np.abs(alphas[:, None] - e[:, 0]) * (e[:, 2] - e[:, 1]) / t
    gaps = np.column_stack([gaps, np.full(alphas.size, math.inf)])
    near = np.argmin(gaps, axis=1)  # the nearest bad edge; the last column stands for none
    tie, indeterminate = _tie(gaps.min(axis=1), tol.eps_val(values))
    q_min, q_max = (np.where(tie, np.append(e[:, j], 0.0)[near], x) for j in (1, 2))
    cols = (alphas, 1 + tie, q_min, q_max, values, indeterminate)
    rows = tuple(map(BadScanRow, *(c.tolist() for c in cols)))
    return BadScanResult(tuple((a + 0.0, a + 0.0) for a, *_ in bad if lo <= a <= hi), rows)


def limiting_potential(potential_spec: pot.PotentialSpec, t: float, r):
    """Large-n limit of the evolved potential by inf-convolution,

        V_t(r) = inf_s [ V(s) + (s - r/(1+t))^2 * (1+t)/(2t) ],

    the Legendre transform of the convex minorant of g_t at slope r/t, up to
    a quadratic: the polished contact value of _ConvexMinorant at alpha = r
    minus r^2/(2(1+t))."""
    scalar = np.ndim(r) == 0
    rs = np.atleast_1d(np.asarray(r, dtype=float))
    if rs.size == 0:
        return rs
    minorant = _ConvexMinorant(potential_spec, t, rs)
    out = minorant.contacts(rs)[1] - rs**2 / (2.0 * (1.0 + t))
    return float(out[0]) if scalar else out
