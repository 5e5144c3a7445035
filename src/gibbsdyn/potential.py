"""Potential families, their derivatives, and the second difference quotient.

A potential is a non-negative function of the magnetisation. Builtin families:

    zero            V(r) = 0
    polynomial      V(r) = sum_k a_k r^k, even leading degree, positive leading coefficient
    cosine_well     V(r) = 2*beta*(1 + cos r)
    cos_of_square   V(r) = 1 - cos(r^2)
    glued_exp       V(r) = g(r) - beta*r^2 - C_beta, with g a convex C^1 glue of
                    exp(-1/(|r|-1) + |r|-1) outside [-1, 1] and 0 inside, and
                    C_beta = inf_s [g(s) - beta*s^2]
    abs             V(r) = |r|
    custom_table    linear interpolation of tabulated samples

The smoothness tag (C2_analytic / C1_only / lsc_only) selects which
classification path downstream modules may use. Polynomials may dip below
zero when not normalised; the model is invariant under constant shifts, so
the infimum is stored (v_floor) and quadrature windows compensate.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from gibbsdyn.errors import DomainError, NotDifferentiableError, OrderingError
from gibbsdyn.gridmin import global_minimum

C2_ANALYTIC = "C2_analytic"
C1_ONLY = "C1_only"
LSC_ONLY = "lsc_only"

FAMILIES = ("zero", "polynomial", "cosine_well", "cos_of_square", "glued_exp", "abs", "custom_table")

# Working window for grid scans; all builtin structure lives well inside it.
DEFAULT_WINDOW_RADIUS = 20.0

# Step rule for finite-difference derivatives.
FD_STEP_SCALE = 1e-5

# log-values are capped here before exponentiation to keep scans overflow-free
_EXP_CAP = 500.0


@dataclass(frozen=True)
class PotentialSpec:
    family: str
    smoothness: str
    coefficients: tuple[float, ...] = ()
    beta: float = 0.0
    c_beta: float = 0.0
    table_r: tuple[float, ...] = ()
    table_v: tuple[float, ...] = ()
    v_floor: float = 0.0  # min(inf V, 0); 0 for families that are >= 0 by construction
    normalized: bool = False
    params: dict = field(default_factory=dict, compare=False)

    def __call__(self, r):
        return eval(self, r)

    def to_json_dict(self) -> dict:
        d = {"family": self.family, "params": dict(self.params)}
        return d


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
    out = np.zeros_like(u)
    pos = u > 0
    if np.any(pos):
        up = u[pos]
        expo = np.minimum(-1.0 / up + up, _EXP_CAP)
        out[pos] = (1.0 + up**-2) * np.exp(expo)
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


def zero() -> PotentialSpec:
    return PotentialSpec("zero", C2_ANALYTIC, params={})


def polynomial(coefficients, normalize: bool = False) -> PotentialSpec:
    """Polynomial potential, coefficients lowest-degree-first.

    The leading degree must be even with positive coefficient (coercivity),
    or the polynomial must be constant. With normalize=True the constant is
    shifted so that inf V = 0.
    """
    coeffs = [float(c) for c in coefficients]
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
        C2_ANALYTIC,
        coefficients=tuple(coeffs),
        v_floor=min(vmin, 0.0),
        normalized=normalize,
        params={"coefficients": list(coeffs), "normalize": normalize},
    )


def cosine_well(beta: float) -> PotentialSpec:
    if not (beta > 0):
        raise DomainError("cosine_well requires beta > 0")
    return PotentialSpec("cosine_well", C2_ANALYTIC, beta=float(beta), params={"beta": float(beta)})


def cos_of_square() -> PotentialSpec:
    return PotentialSpec("cos_of_square", C2_ANALYTIC, params={})


def glued_exp(beta: float) -> PotentialSpec:
    """Convex glue minus beta*r^2, shifted by C_beta so that inf V = 0.

    C_beta = inf_s [g(s) - beta*s^2] is computed once per beta in a process
    (_glued_c_beta); every call returns a fresh spec."""
    if not (beta > 0):
        raise DomainError("glued_exp requires beta > 0")
    b = float(beta)
    return PotentialSpec("glued_exp", C1_ONLY, beta=b, c_beta=_glued_c_beta(b), params={"beta": b})


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
    return PotentialSpec("abs", LSC_ONLY, params={})


def custom_table(grid, values, smoothness: str = C1_ONLY) -> PotentialSpec:
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
    return PotentialSpec(
        "custom_table",
        smoothness,
        table_r=tuple(r),
        table_v=tuple(v),
        params={"grid": list(r), "values": list(v), "interpolation": "linear"},
    )


_BUILDERS = {
    "zero": lambda p: zero(),
    "polynomial": lambda p: polynomial(p["coefficients"], bool(p.get("normalize", False))),
    "cosine_well": lambda p: cosine_well(p["beta"]),
    "cos_of_square": lambda p: cos_of_square(),
    "glued_exp": lambda p: glued_exp(p["beta"]),
    "abs": lambda p: absolute(),
    "custom_table": lambda p: custom_table(
        p["grid"], p["values"], p.get("smoothness", C1_ONLY)
    ),
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
    family = doc.get("family")
    if family not in _BUILDERS:
        raise DomainError(f"unknown potential family {family!r}; expected one of {FAMILIES}")
    return _BUILDERS[family](doc.get("params", {}))


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


def fd_step(r: float) -> float:
    """Central-difference step used for non-analytic derivatives."""
    return FD_STEP_SCALE * max(1.0, abs(float(r)))


def has_analytic_deriv(spec: PotentialSpec, order: int) -> bool:
    fam = spec.family
    if order == 1:
        return fam in ("zero", "polynomial", "cosine_well", "cos_of_square", "glued_exp", "abs")
    return fam in ("zero", "polynomial", "cosine_well", "cos_of_square")


def deriv(spec: PotentialSpec, r, order: int = 1):
    """First or second derivative of V at r.

    Analytic for closed-form families; central finite differences with step
    fd_step(r) otherwise (flagged by has_analytic_deriv). order=1 on the abs
    family at r=0 raises NotDifferentiableError.
    """
    if order not in (1, 2):
        raise DomainError("order must be 1 or 2")
    arr = np.asarray(r, dtype=float)
    if not _all_finite(arr):
        raise DomainError("potential argument must be finite")
    scalar = np.isscalar(r) or arr.ndim == 0
    arr = np.atleast_1d(arr)
    fam = spec.family

    if fam == "abs":
        if np.any(arr == 0.0):
            raise NotDifferentiableError("|r| is not differentiable at r = 0")
        out = np.sign(arr) if order == 1 else np.zeros_like(arr)
        return float(out[0]) if scalar else out
    if order == 1 and spec.smoothness == LSC_ONLY:
        raise NotDifferentiableError(f"family {fam!r} does not admit a first derivative")

    if fam == "zero":
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
    else:
        # central finite differences, step h = 1e-5 * max(1, |r|)
        h = FD_STEP_SCALE * np.maximum(1.0, np.abs(arr))
        vp = np.asarray(eval(spec, arr + h))
        vm = np.asarray(eval(spec, arr - h))
        if order == 1:
            out = (vp - vm) / (2.0 * h)
        else:
            v0 = np.asarray(eval(spec, arr))
            out = (vp - 2.0 * v0 + vm) / h**2
    return float(out[0]) if scalar else np.asarray(out)


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


def phi2_grid(values: np.ndarray, xs: np.ndarray, i, j, k) -> np.ndarray:
    """Vectorised second difference quotient from precomputed values on a grid.

    i, j, k are integer index arrays with xs[i] < xs[j] < xs[k].
    """
    x, y, z = xs[i], xs[j], xs[k]
    fx, fy, fz = values[i], values[j], values[k]
    return ((fz - fy) / (z - y) - (fy - fx) / (y - x)) / (z - x)


def with_window(spec: PotentialSpec, radius: float) -> PotentialSpec:
    """Spec copy annotated with a non-default working window radius."""
    params = dict(spec.params)
    params["window_radius"] = radius
    return replace(spec, params=params)


def window_radius(spec: PotentialSpec) -> float:
    if spec.family == "custom_table":
        return float(max(abs(spec.table_r[0]), abs(spec.table_r[-1])))
    return float(spec.params.get("window_radius", DEFAULT_WINDOW_RADIUS))
