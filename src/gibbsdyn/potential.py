"""Potential families, their derivatives, and the second difference quotient.

A potential is a non-negative function of the magnetisation. Builtin families:

    zero            V(r) = 0
    polynomial      V(r) = sum_k a_k r^k, even leading degree, positive leading coefficient
    cosine_well     V(r) = 2*beta*(1 + cos r)
    cos_of_square   V(r) = 1 - cos(r^2)
    glued_exp       V(r) = g(r) - beta*r^2 - C_beta, with g a convex (g'' >= 0)
                    C^1 glue of exp(-1/(|r|-1) + |r|-1) outside [-1, 1] and
                    the flat piece g = 0 inside, and C_beta = inf_s [g(s) - beta*s^2];
                    so inf V'' = -2 beta, attained on [-1, 1]
    abs             V(r) = |r|
    custom_table    linear interpolation of tabulated samples

Every family has one derivative model: V' in closed form, a custom_table's
the slope of the cell holding r (0 beyond its ends), and kinks names the
points where V' does not exist (the kink of |r| at 0, a table's nodes where
V' jumps by more than rounding), at which deriv raises NotDifferentiableError.
V'' is in closed form for zero, polynomial, cosine_well and cos_of_square
(has_analytic_deriv) and a central second difference otherwise.

Every family but custom_table states inf V'' in closed form
(curvature_infimum), and every family whether that infimum is attained on an
interval rather than at isolated points only (curvature_infimum_on_interval).
Polynomials may dip below zero when not normalised; the model is invariant
under constant shifts, so the infimum is stored (v_floor) and quadrature
windows compensate.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from gibbsdyn.errors import DomainError, NotDifferentiableError
from gibbsdyn.gridmin import global_minimum

FAMILIES = ("zero", "polynomial", "cosine_well", "cos_of_square", "glued_exp", "abs", "custom_table")

# Step rule of the second difference (deriv at order 2 without a closed form).
FD_STEP_SCALE = 1e-5

# log-values are capped here before exponentiation to keep scans overflow-free
_EXP_CAP = 500.0


@dataclass(frozen=True)
class PotentialSpec:
    family: str
    coefficients: tuple[float, ...] = ()
    beta: float = 0.0
    c_beta: float = 0.0
    table_r: tuple[float, ...] = ()
    table_v: tuple[float, ...] = ()
    v_floor: float = 0.0  # min(inf V, 0); 0 for families that are >= 0 by construction
    params: dict = field(default_factory=dict, compare=False)

    def __call__(self, r):
        return eval(self, r)

    def to_json_dict(self) -> dict:
        return {"family": self.family, "params": dict(self.params)}


def _glue(u: np.ndarray) -> np.ndarray:
    """exp(-1/u + u) for u > 0, 0 for u <= 0, with capped exponent."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 0
    if np.any(pos):
        expo = np.minimum(-1.0 / u[pos] + u[pos], _EXP_CAP)
        out[pos] = np.exp(expo)
    return out


def _glue_d1(u: np.ndarray) -> np.ndarray:
    """d/du exp(-1/u + u) = (1 + u^-2) exp(-1/u + u) for u > 0, 0 otherwise."""
    u = np.asarray(u, dtype=float)
    out, pos = _glue(u), u > 0
    out[pos] *= 1.0 + u[pos] ** -2
    return out


def _poly_val(coeffs: tuple[float, ...], r) -> np.ndarray:
    """Horner's rule in one output array: numpy's polyval recurrence
    c + out*r, computed as out *= r; out += c. IEEE addition and
    multiplication commute, so the bits are polyval's. polyval starts from
    r*0 + c_last, which is c_last when c_last != 0, so then the first step
    is one multiply, r*c_last + c_next."""
    if len(coeffs) >= 2 and coeffs[-1] != 0.0:
        out = np.multiply(r, coeffs[-1])
        out += coeffs[-2]
        rest = coeffs[-3::-1]
    else:
        out = np.multiply(r, 0.0)
        out += coeffs[-1]
        rest = coeffs[-2::-1]
    for c in rest:
        out *= r
        out += c
    return out


def _poly_deriv_coeffs(coeffs: tuple[float, ...], order: int) -> tuple[float, ...]:
    """polyder applied `order` times, memoised (_poly_deriv_memo). Equal
    tuples can differ in the sign of a zero, which reaches polyder's bits,
    so the memo is keyed on the coefficients' bit pattern."""
    return _poly_deriv_memo(np.array(coeffs, dtype=float).tobytes(), order)


@functools.lru_cache(maxsize=64)
def _poly_deriv_memo(coeff_bits: bytes, order: int) -> tuple[float, ...]:
    c = np.frombuffer(coeff_bits, dtype=float)
    for _ in range(order):
        c = np.polynomial.polynomial.polyder(c)
    return tuple(c)


def _poly_min(coeffs: tuple[float, ...]) -> float:
    """Global minimum of an even-degree, positive-leading polynomial via the
    real critical points of its derivative."""
    d1 = np.asarray(_poly_deriv_coeffs(coeffs, 1))
    if not np.any(d1 != 0.0):
        return float(coeffs[0]) if coeffs else 0.0
    roots = np.polynomial.polynomial.polyroots(d1)
    real = roots[np.abs(roots.imag) < 1e-9].real
    if real.size == 0:
        return float(_poly_val(coeffs, np.asarray([0.0]))[0])
    vals = _poly_val(coeffs, real)
    return float(vals.min())


_BOOL_TYPES = frozenset({bool, np.bool_})


def _has_bool(value) -> bool:
    """Whether a numeric parameter (a number, or a list or array of numbers)
    holds a boolean: float(True) is 1.0, so a JSON true would otherwise pass
    as the number 1."""
    if isinstance(value, np.ndarray):
        return value.dtype == bool
    if isinstance(value, (list, tuple)):
        return not _BOOL_TYPES.isdisjoint(map(type, value))
    return type(value) in _BOOL_TYPES


def _beta(family: str, beta) -> float:
    """beta as a float, once it is checked to be a finite number > 0."""
    if _has_bool(beta):
        raise DomainError(f"{family} beta must be a number, not a boolean, got {beta!r}")
    if not (0 < beta < math.inf):
        raise DomainError(f"{family} requires a finite beta > 0, got {beta!r}")
    return float(beta)


def zero() -> PotentialSpec:
    return PotentialSpec("zero", params={})


def polynomial(coefficients, normalize: bool = False) -> PotentialSpec:
    """Polynomial potential, coefficients lowest-degree-first.

    The leading degree must be even with positive coefficient (coercivity),
    or the polynomial must be constant. With normalize=True the constant is
    shifted so that inf V = 0.
    """
    if not isinstance(normalize, bool):
        raise DomainError(f"polynomial normalize must be true or false, got {normalize!r}")
    if _has_bool(coefficients):
        raise DomainError(f"polynomial coefficients must be numbers, not booleans, got {coefficients!r}")
    try:
        coeffs = [] if isinstance(coefficients, str) else [float(c) for c in coefficients]
    except (TypeError, ValueError):
        coeffs = []
    if not coeffs:
        raise DomainError(f"polynomial coefficients must be a non-empty list of numbers, got {coefficients!r}")
    if not all(map(math.isfinite, coeffs)):
        raise DomainError(f"polynomial coefficients must be finite, got {coefficients!r}")
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs.pop()
    deg = len(coeffs) - 1
    if deg > 0:
        if deg % 2 != 0:
            raise DomainError(f"polynomial leading degree must be even, got {deg}")
        if coeffs[-1] <= 0.0:
            raise DomainError("polynomial leading coefficient must be positive")
    vmin = _poly_min(tuple(coeffs))
    if normalize:
        coeffs[0] -= vmin
        vmin = 0.0
    return PotentialSpec(
        "polynomial",
        coefficients=tuple(coeffs),
        v_floor=min(vmin, 0.0),
        params={"coefficients": list(coeffs), "normalize": normalize},
    )


def cosine_well(beta: float) -> PotentialSpec:
    b = _beta("cosine_well", beta)
    return PotentialSpec("cosine_well", beta=b, params={"beta": b})


def cos_of_square() -> PotentialSpec:
    return PotentialSpec("cos_of_square", params={})


def glued_exp(beta: float) -> PotentialSpec:
    """Convex glue minus beta*r^2, shifted by C_beta so that inf V = 0.

    C_beta = inf_s [g(s) - beta*s^2] is computed once per beta in a process
    (_glued_c_beta); every call returns a fresh spec."""
    b = _beta("glued_exp", beta)
    return PotentialSpec("glued_exp", beta=b, c_beta=_glued_c_beta(b), params={"beta": b})


@functools.lru_cache(maxsize=64)
def _glued_c_beta(b: float) -> float:
    """C_beta of glued_exp(b) by a grid scan plus golden-section refinement
    (gridmin.global_minimum), memoised per b; _glued_c_beta.cache_clear()
    empties the memo."""

    def objective(s):
        return _glue(np.abs(s) - 1.0) - b * np.asarray(s) ** 2

    # g - beta*s^2 -> infinity superexponentially, so the minimum is inside a
    # modest radius; 2*(b+10) is generous for every b of practical size.
    radius = 2.0 * (b + 10.0)
    _, c_beta = global_minimum(objective, 0.0, radius, n_grid=200001)
    return float(c_beta)


def absolute() -> PotentialSpec:
    return PotentialSpec("abs", params={})


def custom_table(grid, values) -> PotentialSpec:
    """Linear interpolation of (grid, values), held at the end values beyond
    the grid. V' is the cell slope; the nodes where it jumps are the
    table's kinks."""
    for name, samples in (("grid", grid), ("values", values)):
        if _has_bool(samples):
            raise DomainError(f"custom_table {name} must hold numbers, not booleans, got {samples!r}")
    r = np.asarray(grid, dtype=float)
    v = np.asarray(values, dtype=float)
    if r.ndim != 1 or r.size < 2 or r.shape != v.shape:
        raise DomainError("custom_table needs matching 1-D grid and values with >= 2 points")
    if np.any(np.diff(r) <= 0):
        raise DomainError("custom_table grid must be strictly increasing")
    if not (np.isfinite(r).all() and np.isfinite(v).all()):
        raise DomainError("custom_table samples must be finite")
    if v.min() < -1e-12:
        raise DomainError("custom_table values must be non-negative")
    params = {"grid": list(r), "values": list(v), "interpolation": "linear"}
    return PotentialSpec("custom_table", table_r=tuple(r), table_v=tuple(v), params=params)


def _table_from_params(p: dict) -> PotentialSpec:
    if p.get("interpolation", "linear") != "linear":
        raise DomainError(f"custom_table interpolation must be 'linear', got {p['interpolation']!r}")
    return custom_table(p["grid"], p["values"])


# family -> (the params keys it reads, its builder); from_json rejects other keys
_BUILDERS = {
    "zero": ((), lambda p: zero()),
    "polynomial": (
        ("coefficients", "normalize"),
        lambda p: polynomial(p["coefficients"], p.get("normalize", False)),
    ),
    "cosine_well": (("beta",), lambda p: cosine_well(p["beta"])),
    "cos_of_square": ((), lambda p: cos_of_square()),
    "glued_exp": (("beta",), lambda p: glued_exp(p["beta"])),
    "abs": ((), lambda p: absolute()),
    "custom_table": (("grid", "values", "interpolation"), _table_from_params),
}


def from_json(source) -> PotentialSpec:
    """Build a PotentialSpec from a JSON document {"family": ..., "params": {...}}.

    source may be a dict, a JSON string, or a path to a JSON file.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            doc = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("params", {}), dict):
        raise DomainError("a potential spec is a JSON object {\"family\": ..., \"params\": {...}}")
    family = doc.get("family")
    if family not in _BUILDERS:
        raise DomainError(f"unknown potential family {family!r}; expected one of {FAMILIES}")
    keys, build = _BUILDERS[family]
    params = doc.get("params", {})
    unknown = sorted(set(params) - set(keys))
    if unknown:
        raise DomainError(f"{family} takes no params {unknown}; it reads {list(keys)}")
    try:
        return build(params)
    except DomainError:
        raise
    except (TypeError, ValueError) as err:  # a parameter of the wrong type, such as beta = "x"
        raise DomainError(f"invalid {family} params: {err}") from err


def _all_finite(arr: np.ndarray) -> bool:
    # one point is checked on a float, a fraction of np.isfinite's cost
    return math.isfinite(arr.item()) if arr.size == 1 else bool(np.isfinite(arr).all())


def eval(spec: PotentialSpec, r):
    """Evaluate V at r (scalar or array). Non-finite input is a domain error.

    An array result is a fresh array: callers may overwrite it."""
    arr = np.asarray(r, dtype=float)
    if not _all_finite(arr):
        raise DomainError("potential argument must be finite")
    # one point is computed on a float: scalar arithmetic costs a fraction
    # of the in-place ufunc calls of Horner on a one-element array
    x = arr.item() if arr.size == 1 else arr
    fam = spec.family
    if fam == "zero":
        out = np.zeros_like(x)
    elif fam == "polynomial":
        out = _poly_val(spec.coefficients, x)
    elif fam == "cosine_well":
        out = 2.0 * spec.beta * (1.0 + np.cos(x))
    elif fam == "cos_of_square":
        out = 1.0 - np.cos(np.square(x))
    elif fam == "glued_exp":
        out = _glue(np.abs(x) - 1.0) - spec.beta * np.square(x) - spec.c_beta
    elif fam == "abs":
        out = np.abs(x)
    elif fam == "custom_table":
        out = np.interp(x, np.asarray(spec.table_r), np.asarray(spec.table_v))
    else:  # pragma: no cover - constructor guards the family name
        raise DomainError(f"unknown family {fam!r}")
    if np.isscalar(r) or arr.ndim == 0:
        return float(out)
    return np.array(out).reshape(arr.shape) if arr.size == 1 else out


def has_analytic_deriv(spec: PotentialSpec) -> bool:
    """Whether V'' is in closed form: for zero, polynomial, cosine_well and
    cos_of_square; deriv takes a second difference for the others."""
    return spec.family in ("zero", "polynomial", "cosine_well", "cos_of_square")


def kinks(spec: PotentialSpec) -> tuple[float, ...]:
    """The points where V' does not exist, increasing: 0 for abs, and the
    nodes of a custom_table where V' jumps (_table_slope_jumps), its end
    nodes included when the end cell is not flat."""
    if spec.family == "custom_table":
        return tuple(np.asarray(spec.table_r)[_table_slope_jumps(spec) != 0.0].tolist())
    return (0.0,) if spec.family == "abs" else ()


def curvature_infimum(spec: PotentialSpec) -> float:
    """inf V'' over the line, in closed form, for every family but
    custom_table: 0 for zero and abs (its kink is convex), -2 beta for
    cosine_well and glued_exp (the glue has g'' >= 0 and is 0 on [-1, 1]),
    -inf for cos_of_square (V'' = 2 sin r^2 + 4 r^2 cos r^2), and the
    minimum of the V'' polynomial for polynomial."""
    fam = spec.family
    if fam in ("zero", "abs"):
        return 0.0
    if fam in ("cosine_well", "glued_exp"):
        return -2.0 * spec.beta
    if fam == "cos_of_square":
        return -math.inf
    if fam == "polynomial":
        return _poly_min(_poly_deriv_coeffs(spec.coefficients, 2))
    raise DomainError(f"family {fam!r} has no closed-form curvature infimum")


def curvature_infimum_on_interval(spec: PotentialSpec) -> bool:
    """Whether inf V'' is attained on an interval, not only at isolated
    points: on the flat piece [-1, 1] of glued_exp, everywhere for zero and
    polynomials of degree <= 2 (constant V''), and away from the kink for
    abs. A polynomial of degree >= 4 has a non-constant V'' polynomial,
    cosine_well's -2 beta cos r is minimal at isolated points, and
    cos_of_square's infimum -inf is not attained. A custom_table is affine
    on every cell: V'' = 0 there is the infimum on the table's range exactly
    when V' jumps down at no interior node (_table_slope_jumps); a jump down
    is a concave kink, where the infimum -inf sits at a node."""
    fam = spec.family
    if fam == "custom_table":
        return not np.any(_table_slope_jumps(spec)[1:-1] < 0.0)
    if fam == "polynomial":
        return len(spec.coefficients) <= 3
    return fam in ("zero", "abs", "glued_exp")


def _table_slopes(spec: PotentialSpec) -> np.ndarray:
    """A custom_table's V' on each cell, left to right, the slope 0 beyond
    either end included: m + 1 values for m nodes."""
    return np.pad(np.diff(spec.table_v) / np.diff(spec.table_r), 1)


def _table_slope_jumps(spec: PotentialSpec) -> np.ndarray:
    """The jumps of a custom_table's V' at its nodes (_table_slopes), 0 where
    within the rounding of the two slopes: rounding of eps |v| in each sample
    and eps |r| in each node moves a cell's slope s_i by up to eps (|v_i| +
    |v_{i+1}| + |s_i| (|r_i| + |r_{i+1}|)) / (r_{i+1} - r_i). So an affine
    table whose samples are rounded jumps at its end nodes only."""
    r, v, slopes = np.abs(spec.table_r), np.abs(spec.table_v), _table_slopes(spec)
    noise = np.finfo(float).eps * (v[:-1] + v[1:] + np.abs(slopes[1:-1]) * (r[:-1] + r[1:])) / np.diff(spec.table_r)
    noise, jumps = np.pad(noise, 1), np.diff(slopes)
    return np.where(np.abs(jumps) > noise[:-1] + noise[1:], jumps, 0.0)


def deriv(spec: PotentialSpec, r, order: int = 1):
    """First or second derivative of V at r.

    V' is analytic for every family. A custom_table's is the slope of the
    cell holding r, a node taking the cell to its right, and 0 beyond the
    ends, where eval holds the end values; an end node is a kink unless its
    end cell is flat. order=1 at a point of kinks(spec) raises
    NotDifferentiableError.

    V'' is analytic where has_analytic_deriv says so, else the central
    second difference (V(r+h) - 2V(r) + V(r-h))/h^2, abs and custom_table
    included. The step is h = FD_STEP_SCALE * max(1, |r|) * max(1,
    |V(r)|)^(1/4), so that its rounding noise 4 eps |V|/h^2 stays bounded
    where the potential is superexponentially large. This is the package's
    only second difference.
    """
    if order not in (1, 2):
        raise DomainError("order must be 1 or 2")
    arr = np.asarray(r, dtype=float)
    if not _all_finite(arr):
        raise DomainError("potential argument must be finite")
    scalar = np.isscalar(r) or arr.ndim == 0
    arr = np.atleast_1d(arr)
    fam = spec.family

    if order == 1:
        ks = kinks(spec)
        if ks:  # each point against its nearest kink at or above it
            k = np.asarray(ks)
            hit = arr == k[np.searchsorted(k, arr).clip(max=k.size - 1)]
            if hit.any():
                raise NotDifferentiableError(f"family {fam!r} is not differentiable at r = {float(arr[hit][0])}")

    if fam == "abs" and order == 1:
        out = np.sign(arr)
    elif fam == "zero":
        out = np.zeros_like(arr)
    elif fam == "polynomial":
        # one point on a float, as in eval
        x = arr.item() if arr.size == 1 else arr
        out = np.reshape(_poly_val(_poly_deriv_coeffs(spec.coefficients, order), x), arr.shape)
    elif fam == "cosine_well":
        out = -2.0 * spec.beta * (np.sin(arr) if order == 1 else np.cos(arr))
    elif fam == "cos_of_square":
        if order == 1:
            out = 2.0 * arr * np.sin(arr**2)
        else:
            out = 2.0 * np.sin(arr**2) + 4.0 * arr**2 * np.cos(arr**2)
    elif fam == "glued_exp" and order == 1:
        out = np.sign(arr) * _glue_d1(np.abs(arr) - 1.0) - 2.0 * spec.beta * arr
    elif fam == "custom_table" and order == 1:
        out = _table_slopes(spec)[np.searchsorted(spec.table_r, arr, side="right")]
    else:
        # the second difference with the step rule of the docstring
        v0 = np.asarray(eval(spec, arr))
        h = FD_STEP_SCALE * np.maximum(1.0, np.abs(arr)) * np.maximum(1.0, np.abs(v0)) ** 0.25
        out = (np.asarray(eval(spec, arr + h)) - 2.0 * v0 + np.asarray(eval(spec, arr - h))) / h**2
    return float(out[0]) if scalar else np.asarray(out)
