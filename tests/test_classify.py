import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import conftest
from conftest import (
    all_triples_phi2_min,
    doubling_curvature_scan,
    initial_kernel_probe_finds_bad,
    minorant_status_at_tc,
    phi2,
    scalar_equivalence_sides,
)
from gibbsdyn import classify, kernels, potential as pot, tilted
from gibbsdyn.errors import ConfigError, DomainError, InconclusiveError


def test_crossover_gallery(builtin_specs):
    r = classify.crossover_time(builtin_specs["cosine_beta1"], find_witness=False)
    assert r.beta == pytest.approx(1.0, abs=1e-9)
    assert r.t_c == pytest.approx(2.0, abs=1e-6)
    assert r.gibbs_at_tc == classify.GIBBS
    assert r.method == classify.METHOD_SECOND_DERIVATIVE

    assert math.isinf(classify.crossover_time(builtin_specs["cosine_beta04"], find_witness=False).t_c)
    assert classify.crossover_time(builtin_specs["cos_of_square"], find_witness=False).t_c == 0.0

    for name in ("zero", "r^2", "shallow_quartic"):
        assert math.isinf(classify.crossover_time(builtin_specs[name], find_witness=False).t_c), name

    r = classify.crossover_time(builtin_specs["glued_beta1"], find_witness=False)
    assert r.t_c == pytest.approx(2.0, abs=1e-3)
    assert r.gibbs_at_tc == classify.NON_GIBBS
    assert r.method == classify.METHOD_PHI2_SCAN

    r = classify.crossover_time(builtin_specs["double_well"], find_witness=False)
    assert r.beta == pytest.approx(4.0, abs=1e-8)
    assert r.t_c == pytest.approx(2.0 / 7.0, abs=1e-6)
    assert r.gibbs_at_tc == classify.GIBBS


def test_crossover_witness(builtin_specs):
    r = classify.crossover_time(builtin_specs["double_well"])
    assert r.witness_alpha is not None
    assert r.witness.multiple


def test_two_methods_agree_on_smooth_builtins(builtin_specs):
    # -inf Phi2 V equals -inf V''/2 for twice differentiable V; the Phi2 side
    # takes the consecutive triples of a 1e-4-spaced grid on [-20, 20]
    xs = np.linspace(-20.0, 20.0, 400_001)
    for name in ("zero", "r^2", "double_well", "shallow_quartic", "cosine_beta1", "cosine_beta04"):
        spec = builtin_specs[name]
        beta_dd = -0.5 * pot.curvature_infimum(spec)
        beta_phi2 = -classify._consecutive_phi2(np.asarray(pot.eval(spec, xs)), xs).min()
        if abs(beta_dd) < 1e-9:
            assert abs(beta_phi2) < 1e-6, name
        else:
            assert beta_phi2 == pytest.approx(beta_dd, rel=1e-3), name


def test_rate_function_crossover_bracketing(builtin_specs):
    # the two-layer scan flips from empty to non-empty at 1/(2 beta - 1)
    for name in ("double_well", "cosine_beta1", "glued_beta1"):
        spec = builtin_specs[name]
        beta = classify.crossover_time(spec, find_witness=False).beta
        t_x = 1.0 / (2.0 * beta - 1.0)
        assert tilted.bad_set_scan(spec, 0.93 * t_x, (-4, 4), 201).empty, name
        assert not tilted.bad_set_scan(spec, 1.07 * t_x, (-4, 4), 201).empty, name


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the closed-form crossover time 1/(beta - 1/2) and the two-layer "
        "minimisation disagree by a factor 2 in time: the scan already finds "
        "bad magnetisations at 0.95*t_c (first bad point is at 1/(2 beta - 1))"
    ),
)
def test_bracketing_around_reported_tc(builtin_specs):
    for name in ("double_well", "cosine_beta1"):
        spec = builtin_specs[name]
        t_c = classify.crossover_time(spec, find_witness=False).t_c
        assert not tilted.bad_set_scan(spec, 1.05 * t_c, (-4, 4), 201).empty, name
        assert tilted.bad_set_scan(spec, 0.95 * t_c, (-4, 4), 201).empty, name


def test_gibbs_at(builtin_specs):
    cw = builtin_specs["cosine_beta1"]
    assert classify.gibbs_at(cw, 1.0) is True
    assert classify.gibbs_at(cw, 3.0) is False
    assert classify.gibbs_at(cw, 2.0) is True  # Gibbs at t_c for the cosine well
    assert classify.gibbs_at(builtin_specs["glued_beta1"], 2.0) is False
    assert classify.gibbs_at(builtin_specs["abs"], 0.0) is False
    assert classify.gibbs_at(builtin_specs["abs"], 1.0) is True  # convex potential
    assert classify.gibbs_at(builtin_specs["cos_of_square"], 0.0) is True
    assert classify.gibbs_at(builtin_specs["cos_of_square"], 0.3) is False
    for t in (-0.5, math.nan, math.inf):  # NaN fails every comparison, `t < 0` too
        with pytest.raises(DomainError):
            classify.gibbs_at(cw, t)


def test_gibbs_at_t0_matches_the_initial_kernel_probe(builtin_specs):
    # at t = 0 the status is the closed form (no kink of V) against the
    # kernel-level probe it replaced, on every builtin, glued_exp(2.5), a
    # constant table, affine tables on 33 and 81 nodes and g**2 tables, whose
    # every node is a convex kink with a slope jump of 0.2, 0.1 and 0.02 on
    # 81, 161 and 801 nodes: all three read False, whatever the size of the
    # jump. An affine table's only kinks are its end nodes, where V' jumps
    # to 0: on 81 nodes its rounded slopes differ by up to 7e-15, a rounding
    # the kinks leave out, as the probe's split of about 1e-12 does
    grids = {n: np.linspace(-4.0, 4.0, n) for n in (33, 81, 161, 801)}
    tables = {f"square{n}": pot.custom_table(grids[n], grids[n] ** 2) for n in (81, 161, 801)}
    affine = {f"affine{n}": pot.custom_table(grids[n], 0.3 * grids[n] + 2.0) for n in (33, 81)}
    constant = pot.custom_table(grids[81], np.full(81, 2.0))
    specs = {**builtin_specs, "glued_beta25": pot.glued_exp(2.5), "constant": constant, **affine, **tables}
    for name, spec in specs.items():
        assert classify.gibbs_at(spec, 0.0) is (not initial_kernel_probe_finds_bad(spec)), name
    assert [classify.gibbs_at(spec, 0.0) for spec in tables.values()] == [False, False, False]
    assert [pot.kinks(spec) for spec in affine.values()] == [(-4.0, 4.0), (-4.0, 4.0)]
    assert classify.gibbs_at(constant, 0.0) is True and not pot.kinks(constant)


def test_gibbs_at_reads_a_non_gibbs_status_at_tc():
    spec = pot.glued_exp(1.0)
    t_c = classify.crossover_time(spec, find_witness=False).t_c
    assert classify.gibbs_at(spec, t_c) is False
    assert classify.gibbs_at(spec, t_c * (1.0 - 5e-10)) is False  # inside the 1e-9 band
    assert classify.gibbs_at(spec, t_c * (1.0 - 2e-9)) is True


def test_gibbs_at_monotone(builtin_specs):
    ts = np.geomspace(0.02, 10.0, 9)
    for name, spec in builtin_specs.items():
        flags = [classify.gibbs_at(spec, float(t)) for t in ts]
        # non-increasing boolean sequence: once lost, never recovered
        assert flags == sorted(flags, reverse=True), (name, flags)


def _random_polynomials(count=20, sizes=(5, 7), seed=0):
    """count seeded random normalised polynomials, with sizes coefficients in
    turn: by default 20, quartics and sextics."""
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(count):
        c = rng.normal(size=sizes[i % len(sizes)])
        c[-1] = abs(c[-1])
        specs.append(pot.polynomial(c.tolist(), normalize=True))
    return specs


def test_gibbs_at_tc(builtin_specs):
    assert classify.gibbs_at_tc(builtin_specs["cosine_beta1"]) == classify.GIBBS
    assert classify.gibbs_at_tc(builtin_specs["glued_beta1"]) == classify.NON_GIBBS
    assert classify.gibbs_at_tc(builtin_specs["double_well"]) == classify.GIBBS
    grid = np.linspace(-4.0, 4.0, 81)
    gibbs = [
        pot.cosine_well(2.5),
        # V'' = 30 r^4 - 6: an isolated infimum of contact order 4
        pot.polynomial([0, 0, -3, 0, 0, 0, 1], normalize=True),
        pot.custom_table(grid, (grid**2 - 16.0) ** 2 / 16.0),
    ]
    for spec in _random_polynomials():
        if 0.5 < classify.crossover_time(spec, find_witness=False).beta < 1e3:
            gibbs.append(spec)
    assert len(gibbs) == 3 + 8
    for spec in gibbs:
        assert classify.gibbs_at_tc(spec) == classify.GIBBS, spec.params
    for b in (0.8, 2.5):  # V'' = -2 b on the flat piece [-1, 1]
        assert classify.gibbs_at_tc(pot.glued_exp(b)) == classify.NON_GIBBS, b
    with pytest.raises(DomainError):
        classify.gibbs_at_tc(builtin_specs["zero"])  # t_c = inf
    with pytest.raises(DomainError):
        classify.gibbs_at_tc(builtin_specs["cos_of_square"])  # t_c = 0


def test_status_at_tc_matches_the_minorant_oracle(builtin_specs):
    # the closed-form status against the convex-minorant decider it replaced,
    # on every spec with a finite positive t_c (1/2 < beta < inf)
    grid = np.linspace(-4.0, 4.0, 81)
    quartic = (grid**2 - 16.0) ** 2 / 16.0
    specs = [
        *builtin_specs.values(), pot.glued_exp(0.8), pot.glued_exp(2.5), pot.cosine_well(2.5),
        pot.polynomial([0, 0, -3, 0, 0, 0, 1], normalize=True), *_random_polynomials(),
        *_random_polynomials(10, (7,), seed=1),
        pot.custom_table(grid, quartic), pot.custom_table([-4.0, 0.05, 4.0], [0.0, 1.0, 0.0]),
    ]
    checked = 0
    for spec in specs:
        report = classify.crossover_time(spec, find_witness=False)
        if 0.5 < report.beta < math.inf:
            assert report.gibbs_at_tc == minorant_status_at_tc(spec, report.beta), spec.params
            checked += 1
    assert checked == 26


def test_a_large_closed_form_beta_stays_finite():
    # the unboundedness sentinel caps only a table's scanned curvature: a
    # closed-form beta above it is exact, so t_c = 1/(beta - 1/2) is finite
    cases = [
        (pot.cosine_well(2e6), 2e6, classify.GIBBS),
        (pot.glued_exp(3e6), 3e6, classify.NON_GIBBS),
        (pot.polynomial([0, 0, -1e7, 0, 1]), 1e7, classify.GIBBS),
    ]
    for spec, beta, status in cases:
        r = classify.crossover_time(spec)
        assert r.beta == beta and r.t_c == 1.0 / (beta - 0.5), spec.params
        assert r.gibbs_at_tc == status, spec.params
        assert r.witness_alpha == 0.0 and r.witness.multiple, spec.params


def test_first_bad_time_is_half_the_reported_crossover_time(builtin_specs):
    assert classify.first_bad_time(4.0) == 1.0 / 7.0
    assert classify.first_bad_time(math.inf) == 0.0
    assert math.isinf(classify.first_bad_time(0.5)) and math.isinf(classify.first_bad_time(-1.0))
    for name, spec in builtin_specs.items():
        r = classify.crossover_time(spec, find_witness=False)
        assert r.t_first_bad == classify.first_bad_time(r.beta), name
        if 0.0 < r.t_c < math.inf:
            assert r.t_first_bad == pytest.approx(r.t_c / 2.0, rel=1e-12), name
    doc = classify.crossover_time(builtin_specs["zero"], find_witness=False).to_json_dict()
    assert doc["t_first_bad"] == "inf"


@pytest.mark.parametrize("name", ["double_well", "cosine_beta1", "glued_beta1"])
def test_kernel_route_agrees_with_the_status_at_the_first_bad_time(builtin_specs, name):
    # evolved-kernel mean splits along alpha_n = +-1/sqrt(n) at t = 1/(2 beta - 1):
    # around an isolated curvature infimum they shrink like n^(-1/6) (a factor
    # 0.71 per 8x in n), over a flat piece they grow towards a limit
    spec = builtin_specs[name]
    report = classify.crossover_time(spec, find_witness=False)
    t = report.t_first_bad
    splits = []
    for n in (50, 400, 3200):
        a = 1.0 / math.sqrt(n)
        splits.append(kernels.evolved_kernel(spec, n, t, -a).mean - kernels.evolved_kernel(spec, n, t, a).mean)
    ratios = [b / a for a, b in zip(splits, splits[1:])]
    if all(q < 0.85 for q in ratios):
        status = classify.GIBBS
    elif all(q > 0.98 for q in ratios):
        status = classify.NON_GIBBS
    else:
        status = classify.UNKNOWN
    assert status == report.gibbs_at_tc, (splits, ratios)


@given(st.integers(3, 40), st.booleans(), st.integers(0, 2**32 - 1))
def test_consecutive_triples_give_the_all_triples_minimum(m, uniform, seed):
    rng = np.random.default_rng(seed)
    if uniform:
        xs = np.linspace(-rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0), m)
    else:
        xs = np.cumsum(rng.uniform(1e-3, 1.0, m)) - rng.uniform(0.0, 10.0)
    vals = rng.normal(0.0, 1.0, m) * 10.0 ** rng.uniform(-3.0, 3.0) + rng.uniform(-2.0, 2.0) * xs**2
    want = all_triples_phi2_min(vals, xs)
    assert classify._consecutive_phi2(vals, xs).min() == pytest.approx(want, rel=1e-12, abs=0.0)


def test_custom_table_edge_inconclusive():
    # (r+3)^3 on [-3, 3]: curvature decreases all the way to the table edge;
    # the error is not cached, so every call raises it
    rs = np.linspace(-3, 3, 2001)
    spec = pot.custom_table(rs, (rs + 3.0) ** 3)
    for _ in range(2):
        with pytest.raises(InconclusiveError):
            classify.crossover_time(spec, find_witness=False)


def test_witness_off_alpha_zero():
    # V + r/2 tilts the double well: at 1.05 t_c = 0.3 alpha = 0 is good, and
    # the bad alpha is 0.3 x 1/2 = 0.15
    spec = pot.polynomial([3.0, 0.5, -4.0, 0.0, 1.0], normalize=True)
    r = classify.crossover_time(spec)
    assert r.witness_alpha == pytest.approx(0.15, abs=1e-9)
    assert r.witness.multiple


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_gibbs_at_sweep_classifies_once(builtin_specs, monkeypatch):
    spec = builtin_specs["cos_of_square"]
    classify._classification.cache_clear()
    scans = _count_calls(monkeypatch, pot, "curvature_infimum")
    flags = [classify.gibbs_at(spec, float(t)) for t in np.geomspace(0.02, 10.0, 9)]
    report = classify.crossover_time(spec, find_witness=True)
    assert flags == [False] * 9 and report.t_c == 0.0
    assert len(scans) == 1


def _json(report) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True)  # tells -0.0 from 0.0


@pytest.mark.parametrize("radius", [5.0, 10.0])
def test_unsettled_curvature_scan_is_inconclusive(monkeypatch, radius):
    # the doubling scan that checks the closed forms does not settle on an
    # unbounded curvature: V'' of 1 - cos(r^2) falls like -4 r^2, and from
    # these working-window radii seven doublings neither settle nor pass the
    # unboundedness sentinel, so the oracle reports no finite infimum
    monkeypatch.setattr(conftest, "WINDOW_RADIUS", radius)
    with pytest.raises(InconclusiveError) as err:
        doubling_curvature_scan(pot.cos_of_square())
    assert err.value.diagnostics["radius"] == 64.0 * radius
    first, last = err.value.diagnostics["last_infima"]
    assert last < first < -1e4


def test_curvature_infimum_matches_the_doubling_scan(builtin_specs):
    # the closed forms against the grid scan they replaced, within the scan's
    # own error: golden-refined for an analytic V'', grid-bound for glued_exp
    # (a second difference) and abs (a kink between grid points)
    specs = [
        *builtin_specs.values(), pot.glued_exp(0.8), pot.glued_exp(2.5), pot.cosine_well(0.4), pot.cosine_well(2.5),
        pot.polynomial([0, 0, -3, 0, 0, 0, 1], normalize=True), *_random_polynomials(),
    ]
    for spec in specs:  # in beta = -inf V''/2
        got, want = -0.5 * pot.curvature_infimum(spec), -0.5 * doubling_curvature_scan(spec)[0]
        if spec.family == "cos_of_square":
            assert got == want == math.inf
        elif spec.family == "abs":
            assert got == 0.0 and abs(want) < 1e-8
        elif spec.family == "glued_exp":
            assert got == pytest.approx(want, rel=1e-5, abs=0.0), spec.params
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), spec.params
    assert {spec.family for spec in specs} == set(pot.FAMILIES) - {"custom_table"}
    with pytest.raises(DomainError):
        pot.curvature_infimum(pot.custom_table([-1.0, 1.0], [0.0, 0.0]))


def test_signed_zero_specs_are_classified_apart():
    # polynomial([0.0]) == polynomial([-0.0]), but their betas differ in sign
    pos, neg = pot.polynomial([0.0]), pot.polynomial([-0.0])
    assert pos == neg
    classify._classification.cache_clear()
    betas = [classify.crossover_time(s, find_witness=False).beta for s in (pos, neg, pos, neg)]
    assert [math.copysign(1.0, b) for b in betas] == [-1.0, 1.0, -1.0, 1.0]


def test_cached_reports_equal_recomputation(builtin_specs):
    cached = {}
    for name, spec in builtin_specs.items():
        classify.crossover_time(spec)
        cached[name] = _json(classify.crossover_time(spec))
    for name, spec in builtin_specs.items():
        classify._classification.cache_clear()
        assert _json(classify.crossover_time(spec)) == cached[name], name


@pytest.mark.parametrize(
    "beta, window, grid_n, error",
    [
        (1.0, (-6, 6), 2, ConfigError),
        (1.0, (1, -1), 201, ConfigError),
        (1.0, (1, 1), 201, ConfigError),
        (math.inf, (-6, 6), 201, DomainError),
    ],
)
def test_equivalence_sides_rejects_degenerate_input(beta, window, grid_n, error):
    with pytest.raises(error):
        classify.equivalence_sides(lambda x: x**4 - 4 * x**2, beta, window, grid_n)


@pytest.mark.parametrize("beta, f", [
    (-1e308, lambda x: x**4), (1e308, lambda x: x**4), (1.0, lambda x: np.where(x > 5.0, np.inf, x**2)),
], ids=["beta-1e308", "beta+1e308", "f-inf"])
def test_equivalence_sides_rejects_a_non_finite_tilt(beta, f, recwarn):
    # f + beta x^2 overflows on the grid: no hull arithmetic on inf or NaN,
    # and no numpy warning before the error
    with pytest.raises(DomainError, match="not finite"):
        classify.equivalence_sides(f, beta, (-6, 6), 201)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("f", [lambda x: 0.0, lambda x: x[1:], lambda x: list(x)], ids=["scalar", "short", "list"])
def test_equivalence_sides_rejects_f_that_does_not_map_arrays(f):
    # f is called once per grid, so it has to return an array of the grid's shape
    with pytest.raises(ConfigError):
        classify.equivalence_sides(f, 1.0, (-6, 6), 201)


@pytest.mark.parametrize("beta", [0.5, 3.0])
def test_equivalence_sides_on_specs_matches_scalar_oracle(builtin_specs, beta):
    grid = np.linspace(-4.0, 4.0, 81)
    cases = [(spec, (-6.0, 6.0)) for spec in [*builtin_specs.values(), pot.glued_exp(2.5)]]
    cases.append((pot.custom_table(grid, (grid**2 - 16.0) ** 2 / 16.0), (-4.0, 4.0)))
    for spec, window in cases:
        assert classify.equivalence_sides(spec, beta, window, 201) == scalar_equivalence_sides(spec, beta, window, 201)
        # the spec's array values are its per-point values, bit for bit, on both grids
        for n in (201, 8 * 201 + 1):
            xs = np.linspace(*window, n)
            assert pot.eval(spec, xs).tobytes() == np.array([float(pot.eval(spec, x)) for x in xs]).tobytes()


@pytest.mark.xfail(
    strict=True,
    reason="linear interpolation has concave kinks where Phi2 is unbounded below, so beta = inf "
    "and t_c = 0; crossover_time reports a step-dependent finite beta instead",
)
def test_custom_table_kinks_give_immediate_crossover():
    grid = np.linspace(-4.0, 4.0, 81)
    spec = pot.custom_table(grid, (grid**2 - 16.0) ** 2 / 16.0)
    # Phi2 at the kink at 0.1 grows like 1/h as the triple shrinks
    assert phi2(spec, 0.1 - 1e-6, 0.1, 0.1 + 1e-6) < -1e5
    assert classify.crossover_time(spec, find_witness=False).t_c == 0.0


def test_curvature_scan_sees_a_kink_between_its_grid_points():
    # the tent's concave kink lies midway between two scan nodes, so every
    # second difference of the scan steps over it and reads V'' = 0; the
    # consecutive triple across the kink sees it
    xs = np.linspace(-4.0, 4.0, classify.SCAN_POINTS)
    x0 = -4.0 + 16794.5 * 8.0 / (classify.SCAN_POINTS - 1)
    spec = pot.custom_table([-4.0, x0, 4.0], [0.0, 1.0, 0.0])
    assert abs(pot.deriv(spec, xs, 2).min() / 2.0) < 1e-3
    assert classify.crossover_time(spec).beta > 0.5


def test_equivalence_oracle_examples():
    assert classify.equivalence_sides(np.zeros_like, 1.0, (-6, 6), 201) == (False, False)
    assert classify.equivalence_sides(lambda x: x * x, 0.5, (-6, 6), 201) == (False, False)
    # the quartic's curvature bound is 4: crossing it flips both sides together
    # (the closer beta sits to the bound, the finer the grid has to be to
    # resolve the shallow tie)
    quartic = lambda x: x**4 - 4 * x**2 + 4
    assert classify.equivalence_sides(quartic, 3.5, (-6, 6), 301) == (True, True)
    assert classify.equivalence_sides(quartic, 3.9, (-6, 6), 801) == (True, True)
    assert classify.equivalence_sides(quartic, 4.1, (-6, 6), 301) == (False, False)
    for beta in (0.3, 1.0, 3.5, 4.01):
        assert classify.equivalence_oracle(quartic, beta, (-6, 6), 201)
    # on [0, 6] the hump at 0 is a window end: the edge from it to the well
    # bridges, by a rise threshold taken near 0, not near 6 where x^4 curves
    assert classify.equivalence_sides(quartic, 3.5, (0, 6), 201) == (True, True)


def make_piecewise_quadratic(rng):
    """Random C^1 piecewise-quadratic f >= 0 via twice-integrated piecewise
    constant curvature; returns (callable, -inf Phi2 f)."""
    knots = np.sort(rng.uniform(-4.0, 4.0, size=3))
    curvs = rng.uniform(-4.0, 4.0, size=4)
    dense = np.linspace(-8.0, 8.0, 4001)
    c = np.select([dense < knots[0], dense < knots[1], dense < knots[2]], curvs[:3], default=curvs[3])
    slope = np.concatenate(([0.0], np.cumsum(0.5 * (c[1:] + c[:-1]) * np.diff(dense))))
    slope += rng.uniform(-2.0, 2.0)
    vals = np.concatenate(([0.0], np.cumsum(0.5 * (slope[1:] + slope[:-1]) * np.diff(dense))))
    vals -= vals.min()
    bound = -min(curvs) / 2.0
    return (lambda x, d=dense, v=vals: np.interp(x, d, v)), bound


def test_equivalence_oracle_randomised_agreement():
    rng = np.random.default_rng(2024)
    agreements = 0
    for _ in range(50):
        f, bound = make_piecewise_quadratic(rng)
        margin = rng.uniform(0.4, 1.2)
        beta = bound + (margin if rng.random() < 0.5 else -margin)
        if beta <= 0.05:
            beta = bound + margin
        agreements += classify.equivalence_oracle(f, float(beta), (-6, 6), 201)
    assert agreements == 50
