"""Crossover-time computation and sequential-Gibbs classification.

The curvature bound beta = -inf Phi2(V) (equivalently -inf V''/2 for twice
differentiable V) determines the crossover time through the closed form

    t_c = +inf            if beta <= 1/2,
    t_c = 1/(beta - 1/2)  if 1/2 < beta < inf,
    t_c = 0               if beta = +inf (curvature unbounded below).

beta is read off potential.curvature_infimum, the closed-form inf V'' of
every builtin family. Only a custom_table is scanned: on its own range, each
grid point takes the smaller of the second difference of potential.deriv and
twice the Phi2 quotient of its consecutive triple (_table_curvature_infimum).

Status at t = t_c depends on whether the curvature infimum is attained on an
interval (flat piece -> not Gibbs at t_c) or only at isolated points
(-> Gibbs at t_c), which the potential states in closed form
(potential.curvature_infimum_on_interval). It is unknown only where t_c is
0 or +inf. At t = 0 the potential is sequentially Gibbs exactly when it has
no kink (potential.kinks). The report's method is second_derivative where
V'' is in closed form (potential.has_analytic_deriv), else
phi2_scan.

Note: the direct two-layer scan (tilted.bad_set_scan) first reports bad
magnetisations at t = 1/(2*beta - 1) (first_bad_time), a factor 2 below the
closed-form t_c above. The two conventions cannot both hold; this module
reports both, keeps t_c as the crossover time, and reads the status at the
first bad time. The discrepancy is documented in the README.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from gibbsdyn import potential as pot
from gibbsdyn import tilted
from gibbsdyn.errors import ConfigError, DomainError, InconclusiveError
from gibbsdyn.gridmin import golden_section  # unused: perfbench's selftest.Bindings requires the binding
from gibbsdyn.kernels import initial_kernel  # unused: perfbench's selftest.Bindings requires the binding

GIBBS = "gibbs"
NON_GIBBS = "non_gibbs"
UNKNOWN = "unknown"

METHOD_SECOND_DERIVATIVE = "second_derivative"
METHOD_PHI2_SCAN = "phi2_scan"

UNBOUNDED_SENTINEL = 1e6  # a table's scanned curvature below -2*this reports beta = +inf

SCAN_POINTS = 32769  # points of a table's curvature scan
CLASSIFICATION_CACHE_SIZE = 64  # potentials whose classification stays memoised


def _table_curvature_infimum(spec: pot.PotentialSpec) -> float:
    """inf V'' of a custom_table over its own range [-R, R]
    (R the larger |node| of its two ends) on SCAN_POINTS grid points.

    Each interior point takes the smaller of the second difference of
    pot.deriv and twice the Phi2 quotient of its consecutive triple
    (np.fmin: a NaN never hides a finite value). The triples see a concave
    kink that falls between grid points, where every second difference
    steps over it. A table cannot be extended past its range, so an
    infimum at the table edge is inconclusive."""
    radius = float(max(abs(spec.table_r[0]), abs(spec.table_r[-1])))
    xs = np.linspace(-radius, radius, SCAN_POINTS)
    vals = pot.deriv(spec, xs, 2)
    vals[1:-1] = np.fmin(vals[1:-1], 2.0 * _consecutive_phi2(np.asarray(pot.eval(spec, xs)), xs))
    finite = np.isfinite(vals)
    if not finite.any():
        raise InconclusiveError("curvature is nowhere finite on the scan window")
    vals = np.where(finite, vals, np.inf)
    i = int(np.argmin(vals))
    if radius - abs(xs[i]) < 2.0 * (2.0 * radius / (SCAN_POINTS - 1)):
        raise InconclusiveError(
            "curvature infimum sits at the table edge; widen the table to classify",
            diagnostics={"arg_inf": float(xs[i]), "inf_curvature": float(vals[i]), "window_radius": radius},
        )
    return float(vals[i])


def _consecutive_phi2(vals: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Second difference quotients of the consecutive triples
    (x_l, x_{l+1}, x_{l+2}) of an increasing grid with values vals.

    Their minimum is also the minimum over all triples of the grid: the
    quotient of any triple x_i < x_j < x_k is a positive-weight average of the
    consecutive quotients with i <= l <= k - 2."""
    slopes = np.diff(vals) / np.diff(xs)
    return np.diff(slopes) / (xs[2:] - xs[:-2])


@dataclass(frozen=True)
class ClassificationReport:
    beta: float  # -inf Phi2(V); +inf when curvature is unbounded below
    t_c: float  # crossover time in [0, +inf]
    gibbs_at_tc: str  # gibbs | non_gibbs; unknown only when t_c is 0 or +inf
    method: str  # second_derivative | phi2_scan
    witness_alpha: float | None = None
    witness: tilted.MinimiserSet | None = None

    @property
    def t_first_bad(self) -> float:
        """First bad time of the direct scan, 1/(2 beta - 1); see first_bad_time."""
        return first_bad_time(self.beta)

    def to_json_dict(self) -> dict:
        d = {
            "beta": self.beta if math.isfinite(self.beta) else "inf",
            "t_c": self.t_c if math.isfinite(self.t_c) else "inf",
            "t_first_bad": self.t_first_bad if math.isfinite(self.t_first_bad) else "inf",
            "gibbs_at_tc": self.gibbs_at_tc,
            "method": self.method,
        }
        if self.witness_alpha is not None and self.witness is not None:
            d["witness"] = {
                "alpha": self.witness_alpha,
                "minimisers": list(self.witness.locations),
                "value": self.witness.value,
            }
        return d


def first_bad_time(beta: float) -> float:
    """The first time at which some magnetisation is bad in the direct
    two-layer picture: the convex minorant of g_t = V + (1 + t)/(2t) r^2
    first bridges when (1 + t)/(2t) drops below beta, at t = 1/(2 beta - 1).
    +inf when beta <= 1/2 and 0 when beta = +inf."""
    return math.inf if beta <= 0.5 else 1.0 / (2.0 * beta - 1.0)


def crossover_time(
    spec: pot.PotentialSpec,
    tol: tilted.ToleranceConfig = tilted.DEFAULT_TOL,
    find_witness: bool = True,
) -> ClassificationReport:
    """Classify the potential: curvature bound beta, crossover time t_c, and
    the Gibbs status at t_c, with a bad-magnetisation witness when t_c is
    finite and positive.

    beta, t_c, the status and the method depend on the potential alone and
    are computed once per potential (see _classification); only the witness
    search, which depends on tol, runs on every call."""
    beta, t_c, status, method = _classification(spec, _float_bits(spec))
    witness_alpha, witness = None, None
    if find_witness and 0.0 < t_c < math.inf:
        witness_alpha, witness = _find_bad_witness(spec, 1.05 * t_c, tol)
    return ClassificationReport(beta, t_c, status, method, witness_alpha, witness)


def _float_bits(spec: pot.PotentialSpec) -> bytes:
    """Bit patterns of the spec's float fields. Specs that compare equal can
    still differ in the sign of a zero, and that sign reaches beta:
    polynomial([0.0]) classifies to beta = -0.0, polynomial([-0.0]) to 0.0."""
    return np.array(
        [*spec.coefficients, spec.beta, spec.c_beta, *spec.table_r, *spec.table_v, spec.v_floor]
    ).tobytes()


@functools.lru_cache(maxsize=CLASSIFICATION_CACHE_SIZE)
def _classification(spec: pot.PotentialSpec, float_bits: bytes):
    """(beta, t_c, status at t_c, method) of the potential, memoised.

    The key is the spec's value; float_bits (see _float_bits) only sharpens
    it. Errors such as InconclusiveError propagate and are not cached.
    _classification.cache_clear() empties the cache."""
    method = METHOD_SECOND_DERIVATIVE if pot.has_analytic_deriv(spec) else METHOD_PHI2_SCAN
    if spec.family == "custom_table":  # the one family without a closed form
        beta = -0.5 * _table_curvature_infimum(spec)
        beta = math.inf if beta > UNBOUNDED_SENTINEL else beta
    else:
        beta = -0.5 * pot.curvature_infimum(spec)

    if beta == math.inf:
        return beta, 0.0, UNKNOWN, method
    if beta <= 0.5:
        return beta, math.inf, UNKNOWN, method
    status = NON_GIBBS if pot.curvature_infimum_on_interval(spec) else GIBBS
    return beta, 1.0 / (beta - 0.5), status, method


def _find_bad_witness(spec, t_probe, tol):
    """A bad alpha at the probe time: alpha = 0 first (covers every even
    builtin), then the bad alphas on [-5, 5] of tilted.bad_set_scan, whose
    hull spans the windows of alpha = -5, 0, 5, smallest |alpha| first,
    each confirmed by is_bad."""
    bad, ms = tilted.is_bad(spec, t_probe, 0.0, tol)
    if bad:
        return 0.0, ms
    scan = tilted.bad_set_scan(spec, t_probe, (-5.0, 5.0), 3, tol)
    for a in sorted((a for a, _ in scan.intervals), key=abs):
        bad, ms = tilted.is_bad(spec, t_probe, a, tol)
        if bad:
            return a, ms
    return None, None


def gibbs_at(spec: pot.PotentialSpec, t: float) -> bool:
    """Sequential Gibbsianness at a finite time t per the crossover
    classification: True below t_c, False above, the t_c status at t_c
    (within 1e-9 relative).

    The classification is memoised per potential, so a sweep over many t
    classifies the potential once (see crossover_time).
    At t = 0 the limit kernel is N(-V'(alpha), 1), so the bad magnetisations
    are the kinks of V (potential.kinks), whatever the size of the slope
    jump: the potential is sequentially Gibbs exactly when it has none, a
    custom_table only when it is constant (V' = 0 beyond its ends)."""
    if not 0 <= t < math.inf:  # NaN too
        raise DomainError("gibbs_at requires a finite t >= 0")
    if t == 0:
        return not pot.kinks(spec)
    report = crossover_time(spec, find_witness=False)
    if math.isinf(report.t_c):
        return True
    if abs(t - report.t_c) <= 1e-9 * max(t, report.t_c):
        return report.gibbs_at_tc == GIBBS
    return t < report.t_c


def gibbs_at_tc(spec: pot.PotentialSpec) -> str:
    """Gibbs status exactly at the crossover time; only defined for finite
    positive t_c."""
    report = crossover_time(spec, find_witness=False)
    if report.t_c == 0.0 or math.isinf(report.t_c):
        raise DomainError(f"status at t_c is not applicable when t_c = {report.t_c}")
    return report.gibbs_at_tc


def equivalence_sides(f, beta: float, window: tuple[float, float], grid_n: int = 201):
    """Grid evaluation of the two equivalent statements:

        tilt side    some alpha gives f(x) + beta x^2 - alpha x multiple
                     global minimisers on the grid;
        triple side  some grid triple has Phi2 f <= -beta.

    f maps a grid array to the array of its values, as a PotentialSpec does,
    and is called once per grid. Returns (tilt_side, triple_side). The triple
    side is exact over all triples of the grid (see _consecutive_phi2).
    The tilt side holds when f + beta x^2 on a grid 8x finer has a bridging
    hull edge (see tilted.lower_hull): a tilt alpha ties two separated global
    minimisers exactly when a hull edge of slope alpha spans the gap. Where
    f + beta x^2 is not finite on a grid, DomainError."""
    lo, hi = float(window[0]), float(window[1])
    if not (lo < hi) or not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError("equivalence window must be finite with lo < hi")
    if grid_n < 3:
        raise ConfigError("equivalence_sides needs grid_n >= 3 (one triple)")
    if not math.isfinite(beta):
        raise DomainError("beta must be finite")

    def grid(n):  # n window points, f's values there and f + beta x^2
        xs = np.linspace(lo, hi, n)
        fv = f(xs)
        if not isinstance(fv, np.ndarray) or fv.shape != xs.shape:
            raise ConfigError("equivalence_sides needs f to map a grid array to an array of its shape")
        with np.errstate(over="ignore", invalid="ignore"):
            g = fv + beta * xs**2
        if not np.isfinite(g).all():
            raise DomainError(f"f + beta x^2 is not finite on the equivalence grid at beta = {beta!r}")
        return xs, fv, g

    xs, fv, _ = grid(int(grid_n))
    side_triple = bool(_consecutive_phi2(fv, xs).min() <= -beta + 1e-12)
    xs, _, g = grid(8 * int(grid_n) + 1)
    _, bridges = tilted.lower_hull(xs, g)
    return bool(bridges), side_triple


def equivalence_oracle(f, beta: float, window: tuple[float, float], grid_n: int = 201) -> bool:
    """True when the two sides of equivalence_sides agree; f maps arrays to arrays."""
    side_tilt, side_triple = equivalence_sides(f, beta, window, grid_n)
    return side_tilt == side_triple
