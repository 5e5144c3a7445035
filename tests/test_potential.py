import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    OrderingError,
    check_nonneg_on_grid,
    phi2,
    phi2_grid,
    phi2_symmetric_form,
    polyval_eval,
    second_difference_curvature,
    uncached_glued_c_beta,
)
from gibbsdyn import classify, potential as pot
from gibbsdyn.errors import DomainError, NotDifferentiableError

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


def ordered_triple():
    return (
        st.tuples(finite, finite, finite)
        .map(sorted)
        .filter(lambda t: t[1] - t[0] > 1e-3 and t[2] - t[1] > 1e-3)
    )


# --- evaluation -------------------------------------------------------------


POLY_INPUTS = {
    "0-d": np.array(-1.3),
    "0-d -0.0": np.array(-0.0),
    "float -0.0": -0.0,
    "(1,)": np.array([0.7]),
    "(1,) -0.0": np.array([-0.0]),
    "(8, 4097)": np.random.default_rng(0).normal(scale=4.0, size=(8, 4097)),
    "large": np.array([1e300, -1e300, 3e77, -2e100, 1e154, 0.0, -0.0]),
}


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# The constants, and the quadratic's second derivative, have one coefficient
# and start Horner from r*0 + c; the rest start from r*c_last. The constants
# 0.0 and -0.0 are equal tuples whose derivatives differ in the sign of zero.
@pytest.mark.parametrize(
    "coefficients",
    [
        [3.0, 0.0, -4.0, 0.0, 1.0],
        [1.0, 0.0, -0.5, 0.0, 1.0],
        [0.5, -1.0, 2.0],
        [-3.0],
        [0.0],
        [-0.0],
        [2.0, 1e-3, 0.0, -7.0, 5.0, 0.5, 3.0],
    ],
    ids=["double_well", "shallow_quartic", "quadratic", "negative_constant", "zero_constant", "minus_zero", "degree6"],
)
@pytest.mark.parametrize("name", list(POLY_INPUTS))
def test_polynomial_horner_is_bitwise_polyval(coefficients, name):
    spec = pot.polynomial(coefficients)
    r = POLY_INPUTS[name]
    with np.errstate(over="ignore", invalid="ignore"):
        assert _same_bits(pot.eval(spec, r), polyval_eval(spec, r))
        for order in (1, 2):
            # deriv evaluates on atleast_1d(r) and unwraps scalars
            want = polyval_eval(spec, np.atleast_1d(np.asarray(r, dtype=float)), order)
            got = pot.deriv(spec, r, order)
            assert _same_bits(np.atleast_1d(got), want)


LITERAL_FAMILIES = {
    "cosine_beta04": lambda s, r: 2.0 * s.beta * (1.0 + np.cos(r)),
    "cos_of_square": lambda s, r: 1.0 - np.cos(r**2),
    "glued_beta1": lambda s, r: pot._glue(np.abs(r) - 1.0) - s.beta * r**2 - s.c_beta,
}


@pytest.mark.parametrize("family", list(LITERAL_FAMILIES))
@pytest.mark.parametrize("name", list(POLY_INPUTS))
def test_one_point_families_are_bitwise_literal(builtin_specs, family, name):
    # eval computes one point on a Python float, more points on the array
    spec, r = builtin_specs[family], POLY_INPUTS[name]
    with np.errstate(over="ignore", invalid="ignore"):
        assert _same_bits(pot.eval(spec, r), LITERAL_FAMILIES[family](spec, np.asarray(r, dtype=float)))


def test_eval_zero(zero):
    assert pot.eval(zero, 3.7) == 0.0


def test_eval_cosine_well_at_origin(cosine1):
    # 2*beta*(1 + cos 0) with beta = 1
    assert pot.eval(cosine1, 0.0) == pytest.approx(4.0, abs=1e-14)


def test_eval_polynomial_horner_oracle(double_well):
    # independent Horner evaluation of 3 - 4 r^2 + r^4
    def horner(r):
        acc = 0.0
        for c in (1.0, 0.0, -4.0, 0.0, 3.0):
            acc = acc * r + c
        return acc

    assert pot.eval(double_well, 1.0) == pytest.approx(0.0, abs=1e-14)
    for r in np.linspace(-3, 3, 23):
        assert pot.eval(double_well, float(r)) == pytest.approx(horner(float(r)), rel=1e-13)


def test_eval_rejects_nonfinite(zero):
    with pytest.raises(DomainError):
        pot.eval(zero, math.nan)
    with pytest.raises(DomainError):
        pot.eval(zero, math.inf)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "wrap", [float, np.array, lambda v: np.array([v]), lambda v: np.array([[v]])], ids=["float", "0-d", "(1,)", "(1, 1)"]
)
def test_one_point_nonfinite_is_domain_error(double_well, cosine1, bad, wrap):
    # a one-point argument is checked on a float, larger ones by np.isfinite
    for spec in (double_well, cosine1):
        with pytest.raises(DomainError):
            pot.eval(spec, wrap(bad))
        for order in (1, 2):
            with pytest.raises(DomainError):
                pot.deriv(spec, wrap(bad), order)


def test_poly_deriv_coeffs_memoised():
    coeffs = (3.0, 0.0, -4.0, 0.0, 1.0)
    for order in (1, 2):
        first = pot._poly_deriv_coeffs(coeffs, order)
        assert pot._poly_deriv_coeffs(coeffs, order) is first
    # equal tuples that differ in the sign of a zero keep their own bits
    assert math.copysign(1.0, pot._poly_deriv_coeffs((0.0,), 1)[0]) == 1.0
    assert math.copysign(1.0, pot._poly_deriv_coeffs((-0.0,), 1)[0]) == -1.0


def test_builtin_nonnegativity_on_grid(builtin_specs):
    for name, spec in builtin_specs.items():
        if name == "double_well":
            continue  # shift-invariant model; this builtin dips to -1 by design
        assert check_nonneg_on_grid(spec) >= -1e-12, name


def test_polynomial_normalization():
    norm = pot.polynomial([3.0, 0.0, -4.0, 0.0, 1.0], normalize=True)
    assert check_nonneg_on_grid(norm) >= -1e-12
    assert pot.eval(norm, math.sqrt(2.0)) == pytest.approx(0.0, abs=1e-12)
    assert norm.v_floor == 0.0


def test_polynomial_coercivity_validation():
    with pytest.raises(DomainError):
        pot.polynomial([0.0, 1.0, 2.0, 1.0])  # odd leading degree
    with pytest.raises(DomainError):
        pot.polynomial([0.0, 0.0, -1.0])  # negative leading coefficient
    for coefficients in ([], "abc", "123", 5, [1.0, "x", 1.0]):  # not a non-empty list of numbers
        with pytest.raises(DomainError):
            pot.polynomial(coefficients)


@pytest.mark.parametrize("family, params, names", [
    ("polynomial", {"coefficients": [5, 0, 1], "normalize": "false"}, "normalize"),
    ("polynomial", {"coefficients": [5, 0, 1], "normalize": 0}, "normalize"),
    ("polynomial", {"coefficients": [math.nan, 0, 1]}, "coefficients"),
    ("polynomial", {"coefficients": [0, 0, math.inf]}, "coefficients"),
    ("cosine_well", {"beta": math.inf}, "beta"),
    ("glued_exp", {"beta": math.inf}, "beta"),
    ("cosine_well", {"beta": True}, "beta"),
    ("glued_exp", {"beta": True}, "beta"),
    ("polynomial", {"coefficients": [True, 0, 1]}, "coefficients"),
    ("custom_table", {"grid": [-1, 0, True], "values": [1, 0, 1]}, "grid"),
    ("custom_table", {"grid": [-1, 0, 1], "values": [True, False, True]}, "values"),
], ids=["normalize-string", "normalize-int", "coefficient-nan", "coefficient-inf", "cosine-beta-inf", "glued-beta-inf",
        "cosine-beta-bool", "glued-beta-bool", "coefficient-bool", "table-grid-bool", "table-values-bool"])
def test_spec_parameters_are_validated_at_construction(family, params, names):
    # a string or number for normalize is no JSON boolean ("false" would
    # read as true), a JSON boolean is no number (float(True) is 1.0), and a
    # non-finite coefficient or beta fails only later, through a misleading
    # error
    with pytest.raises(DomainError, match=names):
        pot.from_json({"family": family, "params": params})


@pytest.mark.parametrize("build, names", [
    (lambda: pot.cosine_well(np.True_), "beta"),
    (lambda: pot.glued_exp(False), "beta"),
    (lambda: pot.polynomial((1.0, 0.0, np.True_)), "coefficients"),
    (lambda: pot.polynomial(np.array([True, False, True])), "coefficients"),
    (lambda: pot.custom_table(np.array([False, True]), [0.0, 1.0]), "grid"),
    (lambda: pot.custom_table([0.0, 1.0], (np.False_, 1.0)), "values"),
], ids=["cosine-numpy-bool", "glued-bool", "coefficient-numpy-bool", "coefficients-bool-array",
        "table-grid-bool-array", "table-values-numpy-bool"])
def test_constructors_reject_booleans(build, names):
    with pytest.raises(DomainError, match=f"{names} must .*not .*boolean"):
        build()


def test_glued_exp_c1_at_glue_points(glued1):
    # one-sided difference quotients agree at the glue points +-1
    for r0 in (-1.0, 1.0):
        h = 1e-7
        left = (pot.eval(glued1, r0) - pot.eval(glued1, r0 - h)) / h
        right = (pot.eval(glued1, r0 + h) - pot.eval(glued1, r0)) / h
        assert abs(left - right) < 1e-6


def test_glued_exp_inside_is_exact_parabola(glued1):
    rs = np.linspace(-0.99, 0.99, 101)
    expected = -1.0 * rs**2 - glued1.c_beta
    assert np.allclose(pot.eval(glued1, rs), expected, atol=0.0)


def test_glued_exp_c_beta_against_scipy():
    from scipy.optimize import minimize_scalar

    for beta in (0.7, 1.0, 2.5):
        spec = pot.glued_exp(beta)

        def obj(s):
            u = abs(s) - 1.0
            g = math.exp(-1.0 / u + u) if u > 0 else 0.0
            return g - beta * s * s

        res = minimize_scalar(obj, bounds=(1.0, 3.0 * (beta + 5.0)), method="bounded",
                              options={"xatol": 1e-12})
        assert spec.c_beta == pytest.approx(res.fun, abs=1e-9)


def test_glued_exp_c_beta_computed_once_per_beta(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return global_minimum(*args, **kwargs)

    global_minimum = pot.global_minimum
    monkeypatch.setattr(pot, "global_minimum", counting)
    pot._glued_c_beta.cache_clear()
    try:
        a, b, c = pot.glued_exp(1.0), pot.glued_exp(1.0), pot.glued_exp(1)
    finally:
        pot._glued_c_beta.cache_clear()
    assert len(calls) == 1
    assert a == b == c
    assert a.params == b.params and a.params is not b.params


@pytest.mark.parametrize("b", [0.5, 1, 2.5])
def test_glued_exp_c_beta_memo_is_bitwise(b):
    want = uncached_glued_c_beta(float(b)).hex()
    assert pot.glued_exp(b).c_beta.hex() == want
    assert pot.glued_exp(b).c_beta.hex() == want  # from the memo


# --- derivatives ------------------------------------------------------------


def test_deriv_quadratic():
    r2 = pot.polynomial([0.0, 0.0, 1.0])
    assert pot.deriv(r2, 1.0, 1) == pytest.approx(2.0, abs=1e-14)


def test_deriv_cos_of_square_second():
    spec = pot.cos_of_square()
    assert pot.deriv(spec, math.sqrt(math.pi), 2) == pytest.approx(-4.0 * math.pi, rel=1e-10)


def test_deriv_glued_second_inside(glued1):
    # V restricted to [-1, 1] is exactly -beta r^2 - C_beta, so V'' = -2
    assert pot.deriv(glued1, 0.0, 2) == pytest.approx(-2.0, abs=1e-4)
    assert not pot.has_analytic_deriv(glued1)


def test_deriv_abs():
    a = pot.absolute()
    assert pot.deriv(a, 2.0, 1) == 1.0
    assert pot.deriv(a, -0.5, 1) == -1.0
    with pytest.raises(NotDifferentiableError):
        pot.deriv(a, 0.0, 1)
    # order 2 takes the second difference, 2/h at the kink
    curv = pot.deriv(a, 0.0, 2)
    assert math.isfinite(curv) and curv > 0.0


def test_second_derivative_is_the_one_second_difference(glued1):
    # every family without an analytic V'' takes the oracle's second
    # difference, bit for bit; the grid holds 0, abs's kink
    grid = np.linspace(-4.0, 4.0, 81)
    table = pot.custom_table(grid, (grid**2 - 16.0) ** 2 / 16.0)
    xs = np.linspace(-4.0, 4.0, 4001)
    assert 0.0 in xs
    for spec in (glued1, pot.absolute(), table):
        assert not pot.has_analytic_deriv(spec)
        assert _same_bits(pot.deriv(spec, xs, 2), second_difference_curvature(spec, xs)), spec.family


def test_deriv_matches_finite_differences(builtin_specs):
    rng = np.random.default_rng(11)
    for name, spec in builtin_specs.items():
        for r in rng.uniform(-3, 3, size=5):
            h = 1e-6 * max(1.0, abs(r))
            fd = (pot.eval(spec, r + h) - pot.eval(spec, r - h)) / (2 * h)
            assert pot.deriv(spec, float(r), 1) == pytest.approx(fd, rel=1e-5, abs=1e-5), name


def test_custom_table_roundtrip():
    rs = np.linspace(-5, 5, 2001)
    vs = 2.0 * (1.0 + np.cos(rs))
    spec = pot.custom_table(rs, vs)
    assert pot.eval(spec, 0.0) == pytest.approx(4.0, abs=1e-5)
    # V' inside a cell is the cell's slope, near -2 sin r; the node r = 1 is
    # a kink, where V' does not exist
    assert rs[1200] == 1.0
    slope = (vs[1201] - vs[1200]) / (rs[1201] - rs[1200])
    assert pot.deriv(spec, 1.0025, 1) == slope == pytest.approx(-2.0 * math.sin(1.0025), abs=1e-3)
    with pytest.raises(NotDifferentiableError):
        pot.deriv(spec, 1.0, 1)


def test_table_deriv_is_the_cell_slope():
    # slopes -3, 0, 1, 2, 2: the nodes -1, 0 and 1 are kinks, the node 2 is
    # not (its two cells share a slope); beyond the ends, where eval holds
    # the end values, V' = 0, so the end nodes -2 and 3 are kinks too
    spec = pot.custom_table([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0], [4.0, 1.0, 1.0, 2.0, 4.0, 6.0])
    assert pot.kinks(spec) == (-2.0, -1.0, 0.0, 1.0, 3.0)
    xs = [-5.0, -1.5, -0.5, 0.5, 1.5, 2.0, 2.5, 4.0]
    assert pot.deriv(spec, xs, 1).tolist() == [0.0, -3.0, 0.0, 1.0, 2.0, 2.0, 2.0, 0.0]
    assert pot.deriv(spec, -1.5, 1) == -3.0
    for kink in pot.kinks(spec):
        with pytest.raises(NotDifferentiableError, match=f"r = {kink}"):
            pot.deriv(spec, [0.25, kink, 2.5], 1)
    # a flat end cell leaves its end node smooth, and it takes its end
    # cell's slope
    flat = pot.custom_table([-1.0, 0.0, 1.0, 2.0], [1.0, 1.0, 0.0, 0.0])
    assert pot.kinks(flat) == (0.0, 1.0)
    assert pot.deriv(flat, [-1.0, 2.0], 1).tolist() == [0.0, 0.0]


def test_table_kinks_leave_out_rounded_slopes():
    # affine samples on a grid of step 0.1 have cell slopes that differ by
    # rounding, up to 7e-15 here: no interior kink, and no concave one
    grid = np.linspace(-4.0, 4.0, 81)
    spec = pot.custom_table(grid, 0.3 * grid + 2.0)
    assert len(set(np.diff(spec.table_v) / np.diff(grid))) > 1
    assert pot.kinks(spec) == (-4.0, 4.0)
    assert pot.curvature_infimum_on_interval(spec)
    # a jump far below the slopes but far above their rounding stays a kink
    values = 0.3 * grid + 2.0 + 1e-9 * np.abs(grid - grid[50])
    assert pot.kinks(pot.custom_table(grid, values)) == (-4.0, grid[50], 4.0)


def test_from_json_variants(tmp_path):
    spec = pot.from_json({"family": "cosine_well", "params": {"beta": 2.0}})
    assert spec.beta == 2.0
    path = tmp_path / "spec.json"
    path.write_text('{"family": "polynomial", "params": {"coefficients": [0, 0, 1]}}')
    spec2 = pot.from_json(str(path))
    assert pot.eval(spec2, 3.0) == 9.0
    for family, params in [
        ("nope", {}),
        # params keys the family does not read
        ("polynomial", {"coefficients": [3, 0, -4, 0, 1], "normalise": True}),
        ("cosine_well", {"beta": 1.0, "window_radius": 5.0}),
        ("zero", {"beta": 1.0}),
        # a value the family cannot honour
        ("custom_table", {"grid": [-1, 0, 1], "values": [1, 0, 1], "interpolation": "cubic"}),
    ]:
        with pytest.raises(DomainError):
            pot.from_json({"family": family, "params": params})


def test_embedded_specs_parse_back(builtin_specs):
    # the spec a report embeds (to_json_dict) rebuilds an equal spec, the
    # normalised polynomial's "normalize" and the table's "interpolation" included
    table = pot.custom_table(np.linspace(-2, 2, 81), np.abs(np.linspace(-2, 2, 81)))
    specs = {**builtin_specs, "normalised": pot.polynomial([3, 0, -4, 0, 1], normalize=True), "table": table}
    for name, spec in specs.items():
        assert pot.from_json(spec.to_json_dict()) == spec, name
    assert table.to_json_dict()["params"]["interpolation"] == "linear"
    assert specs["normalised"].to_json_dict()["params"]["normalize"] is True


def test_curvature_infimum_on_interval_per_family(builtin_specs):
    # True where inf V'' holds on an interval: V'' constant (zero, r^2 and
    # every polynomial of degree <= 2), V'' = 0 away from the kink of |r|,
    # V'' = -2 beta on glued_exp's flat piece [-1, 1]
    flat = {"zero", "r^2", "abs", "glued_beta1"}
    for name, spec in builtin_specs.items():
        assert pot.curvature_infimum_on_interval(spec) is (name in flat), name
    assert pot.curvature_infimum_on_interval(pot.glued_exp(2.5))
    for coefficients in ([2.0], [1.0, -3.0, 0.5]):
        assert pot.curvature_infimum_on_interval(pot.polynomial(coefficients))
    # a non-constant V'' polynomial: isolated infima, contact order 4 included
    for coefficients in ([0, 0, -3, 0, 0, 0, 1], [1.0, 2.0, 0.0, 0.0, 3.0]):
        assert not pot.curvature_infimum_on_interval(pot.polynomial(coefficients, normalize=True))
    assert not pot.curvature_infimum_on_interval(pot.cosine_well(2.5))
    # a table: V'' = 0 on every cell is the infimum unless some node slope
    # decreases, a concave kink
    grid = np.linspace(-4.0, 4.0, 81)
    assert pot.curvature_infimum_on_interval(pot.custom_table(grid, np.abs(grid)))
    assert pot.curvature_infimum_on_interval(pot.custom_table(grid, grid + 4.0))
    assert not pot.curvature_infimum_on_interval(pot.custom_table(grid, (grid**2 - 16.0) ** 2 / 16.0))
    assert not pot.curvature_infimum_on_interval(pot.custom_table([-4.0, 0.05, 4.0], [0.0, 1.0, 0.0]))
    assert pot.curvature_infimum_on_interval(pot.custom_table([-1.0, 1.0], [0.0, 0.0]))


def test_custom_table_smoothness_tags():
    # a table's smoothness is read off its nodes (kinks), not set by a tag:
    # a spec that still carries the old smoothness key is rejected, whatever
    # its value, since ignoring it would hide an answer that changed
    grid, values = [-1.0, 0.0, 1.0], [1.0, 0.0, 1.0]
    with pytest.raises(TypeError):
        pot.custom_table(grid, values, "lsc_only")
    for tag in ("C1_only", "lsc_only", "C2_analytic", "bogus"):
        with pytest.raises(DomainError, match="smoothness"):
            pot.from_json({"family": "custom_table", "params": {"grid": grid, "values": values, "smoothness": tag}})


def test_custom_table_smoothness_survives_json():
    # the spec a report embeds rebuilds the same nodes, so the same kinks and
    # the same status at t = 0; it writes no smoothness key. Only a constant
    # table is Gibbs at t = 0: any other jumps to V' = 0 at an end node
    grid = np.linspace(-4.0, 4.0, 81)
    for values, gibbs in ((0.3 * grid + 2.0, False), (np.abs(grid), False), (np.full(81, 2.0), True)):
        spec = pot.custom_table(grid, values)
        back = pot.from_json(spec.to_json_dict())
        assert back == spec and pot.kinks(back) == pot.kinks(spec)
        assert classify.gibbs_at(spec, 0.0) is gibbs and classify.gibbs_at(back, 0.0) is gibbs
        assert "smoothness" not in spec.to_json_dict()["params"]


# --- second difference quotient ---------------------------------------------


@given(ordered_triple())
def test_phi2_of_square_is_one(triple):
    x, y, z = triple
    assert phi2(lambda s: s * s, x, y, z) == pytest.approx(1.0, rel=1e-9, abs=1e-9)


@given(ordered_triple())
def test_phi2_of_affine_vanishes(triple):
    x, y, z = triple
    assert phi2(lambda s: 3.0 * s + 5.0, x, y, z) == pytest.approx(0.0, abs=1e-9)


def test_phi2_quartic_unit_triple():
    assert phi2(lambda s: s**4, -1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_phi2_ordering_error():
    with pytest.raises(OrderingError):
        phi2(lambda s: s, 1.0, 0.0, 2.0)
    with pytest.raises(OrderingError):
        phi2(lambda s: s, 0.0, 0.0, 2.0)


@given(ordered_triple())
def test_phi2_symmetric_form_agreement(triple):
    x, y, z = triple
    f = lambda s: s**4 - 2.0 * s**2 + 0.5 * s
    a = phi2(f, x, y, z)
    b = phi2_symmetric_form(f, x, y, z)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-10)


@given(
    ordered_triple(),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
)
def test_phi2_linearity(triple, theta, kappa):
    x, y, z = triple
    f = lambda s: s**3
    g = lambda s: math.cos(s)
    combo = lambda s: theta * f(s) + kappa * g(s)
    lhs = phi2(combo, x, y, z)
    rhs = theta * phi2(f, x, y, z) + kappa * phi2(g, x, y, z)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-8)


@given(
    st.tuples(finite, finite, finite, finite)
    .map(sorted)
    .filter(lambda q: min(q[1] - q[0], q[2] - q[1], q[3] - q[2]) > 1e-2)
)
def test_phi2_chaining_identities(quad):
    # chaining via the divided-difference recurrence
    # f[a,b,d] = f[a,b,c] + (d-c) f[a,b,c,d],  f[a,b,c,d] = (f[b,c,d]-f[a,b,c])/(d-a)
    a, b, c, d = quad
    f = lambda s: s**4 - s
    pab = phi2(f, a, b, c)
    pbc = phi2(f, b, c, d)
    lhs1 = (d - a) * phi2(f, a, b, d)
    rhs1 = (c - a) * pab + (d - c) * pbc
    assert lhs1 == pytest.approx(rhs1, rel=1e-10, abs=1e-7)
    lhs2 = (d - a) * phi2(f, a, c, d)
    rhs2 = (b - a) * pab + (d - b) * pbc
    assert lhs2 == pytest.approx(rhs2, rel=1e-10, abs=1e-7)


def test_phi2_convexity_correspondence():
    rng = np.random.default_rng(5)
    triples = np.sort(rng.uniform(-3, 3, size=(200, 3)), axis=1)
    triples = triples[(np.diff(triples, axis=1) > 1e-3).all(axis=1)]
    sq = [phi2(lambda s: s * s, *t) for t in triples]
    ex = [phi2(math.exp, *t) for t in triples]
    assert min(sq) >= -1e-12
    assert min(ex) >= -1e-12
    concave = [phi2(lambda s: -s * s, *t) for t in triples]
    assert min(concave) < 0


def test_phi2_bounded_by_half_curvature(builtin_specs):
    # for twice differentiable V: min Phi2 over triples >= min V''/2 (up to tol)
    for name, spec in builtin_specs.items():
        if not pot.has_analytic_deriv(spec):
            continue
        xs = np.linspace(-6.0, 6.0, 101)
        vals = np.asarray(pot.eval(spec, xs))
        i, j, k = np.meshgrid(np.arange(0, 101, 4), np.arange(1, 101, 4), np.arange(2, 101, 4), indexing="ij")
        mask = (i < j) & (j < k)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = phi2_grid(vals, xs, i, j, k)
        min_phi2 = float(q[mask & np.isfinite(q)].min())
        curv = np.asarray(pot.deriv(spec, np.linspace(-6, 6, 4001), 2))
        assert min_phi2 >= curv.min() / 2.0 - 1e-6, name


def test_phi2_glued_flat_region(glued1):
    rng = np.random.default_rng(9)
    for _ in range(50):
        x, y, z = np.sort(rng.uniform(-0.98, 0.98, size=3))
        if y - x < 1e-3 or z - y < 1e-3:
            continue
        val = phi2(lambda s: pot.eval(glued1, s), float(x), float(y), float(z))
        assert val == pytest.approx(-1.0, abs=1e-9)
