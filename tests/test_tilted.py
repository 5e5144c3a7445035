import math

import numpy as np
import pytest

from conftest import brute_force_minimisers
from gibbsdyn import potential as pot
from gibbsdyn import tilted
from gibbsdyn.errors import ConfigError, DomainError

SQRT15 = math.sqrt(1.5)


def test_eval_rate_examples(zero, double_well):
    assert tilted.eval_rate(tilted.TiltedRate(zero, 1.0, 0.0), 0.0) == 0.0
    assert tilted.eval_rate(tilted.TiltedRate(zero, 1.0, 2.0), 1.0) == pytest.approx(1.0)
    # independent evaluation of V + r^2/2 + r^2/2 at r=1: r^4 - 3r^2 + 3 -> 1
    assert tilted.eval_rate(tilted.TiltedRate(double_well, 1.0, 0.0), 1.0) == pytest.approx(1.0)


def test_rate_requires_positive_t(zero):
    with pytest.raises(DomainError):
        tilted.TiltedRate(zero, 0.0, 1.0)
    with pytest.raises(DomainError):
        tilted.TiltedRate(zero, -1.0, 1.0)


def test_rate_requires_finite_positive_tilt_curvature(zero):
    # 2 t overflows at t = 1e308 (curvature 0); (1 + t)/(2 t) overflows at 5e-324
    for t in (1e308, 5e-324):
        with pytest.raises(DomainError):
            tilted.TiltedRate(zero, t, 1.0)
    assert tilted.TiltedRate(zero, 1e300, 1.0).tilt_curvature == 0.5


def test_completing_the_square_identity(builtin_specs):
    # V + r^2/2 + (r-a)^2/(2t) = V + (r - a/(1+t))^2 (1+t)/(2t) + a^2/(2(1+t))
    rng = np.random.default_rng(3)
    for spec in builtin_specs.values():
        for _ in range(5):
            r, a = rng.uniform(-4, 4, size=2)
            t = rng.uniform(0.05, 5.0)
            tr = tilted.TiltedRate(spec, t, a)
            lhs = tilted.eval_rate(tr, r)
            rhs = (
                pot.eval(spec, r)
                + (r - a / (1 + t)) ** 2 * (1 + t) / (2 * t)
                + a**2 / (2 * (1 + t))
            )
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_global_minimisers_flat_potential(zero):
    ms = tilted.global_minimisers(tilted.TiltedRate(zero, 1.0, 3.0))
    assert not ms.multiple
    assert ms.locations[0] == pytest.approx(1.5, abs=1e-9)
    assert ms.value == pytest.approx(2.25, abs=1e-12)


def test_global_minimisers_quadratic(quadratic):
    # FOC 2r + r + (r-4)/1 = 0 -> q = 1
    ms = tilted.global_minimisers(tilted.TiltedRate(quadratic, 1.0, 4.0))
    assert not ms.multiple
    assert ms.locations[0] == pytest.approx(1.0, abs=1e-9)
    m, locs = brute_force_minimisers(quadratic, 1.0, 4.0)
    assert ms.value == pytest.approx(m, abs=1e-7)


def test_global_minimisers_double_well(double_well):
    ms = tilted.global_minimisers(tilted.TiltedRate(double_well, 1.0, 0.0))
    assert ms.multiple
    assert ms.q_min == pytest.approx(-SQRT15, abs=1e-8)
    assert ms.q_max == pytest.approx(SQRT15, abs=1e-8)
    assert ms.value == pytest.approx(0.75, abs=1e-9)


def test_first_order_condition_residual(builtin_specs):
    rng = np.random.default_rng(17)
    for name, spec in builtin_specs.items():
        # the stationarity contract applies to continuously differentiable V
        if spec.smoothness == pot.LSC_ONLY:
            continue
        for _ in range(4):
            t = rng.uniform(0.1, 3.0)
            a = rng.uniform(-3, 3)
            ms = tilted.global_minimisers(tilted.TiltedRate(spec, t, a))
            for q in ms.locations:
                res = pot.deriv(spec, q, 1) + q + (q - a) / t
                assert abs(res) < 1e-8, (name, t, a, q, res)


def test_tolerance_config_validation():
    with pytest.raises(ConfigError):
        tilted.ToleranceConfig(eps_val_rel=0.0)
    with pytest.raises(ConfigError):
        tilted.ToleranceConfig(delta_cluster=-1.0)
    # nan <= 0 is False, so a sign check alone lets NaN through
    for field in ("eps_val_rel", "delta_cluster"):
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                tilted.ToleranceConfig(**{field: value})


def test_is_bad_examples(zero, double_well):
    assert tilted.is_bad(zero, 1.0, 0.7)[0] is False
    bad, ms = tilted.is_bad(double_well, 1.0, 0.0)
    assert bad is True and ms.multiple
    assert tilted.is_bad(double_well, 0.1, 0.0)[0] is False
    with pytest.raises(DomainError):
        tilted.is_bad(zero, 0.0, 0.0)


def test_bad_pair_derivative_identity(double_well):
    # V'(q1) - V'(q2) = (q2 - q1)(1 + 1/t) at any bad alpha
    for t in (0.5, 1.0, 2.0):
        bad, ms = tilted.is_bad(double_well, t, 0.0)
        assert bad
        lhs = pot.deriv(double_well, ms.q_min, 1) - pot.deriv(double_well, ms.q_max, 1)
        rhs = (ms.q_max - ms.q_min) * (1.0 + 1.0 / t)
        assert lhs == pytest.approx(rhs, abs=1e-6)


def test_normalisation_identity(double_well):
    tr = tilted.TiltedRate(double_well, 1.0, 0.0)
    ms = tilted.global_minimisers(tr)
    xs = np.linspace(-4, 4, 4001)
    normalised = tilted.eval_rate(tr, xs) - ms.value
    assert normalised.min() >= -1e-9
    for q in ms.locations:
        assert tilted.eval_rate(tr, q) - ms.value <= 1e-9


def test_badness_symmetry_for_even_potentials(double_well, cosine1):
    for spec in (double_well, cosine1):
        for t in (0.5, 1.0, 3.0):
            for a in (0.0, 0.3, 1.1, 2.4):
                assert (
                    tilted.is_bad(spec, t, a)[0] == tilted.is_bad(spec, t, -a)[0]
                ), (spec.family, t, a)


def test_oracle_equivalence_against_brute_force(builtin_specs):
    rng = np.random.default_rng(101)
    pairs = [(float(t), float(a)) for t, a in zip(rng.uniform(0.1, 4.0, 20), rng.uniform(-3.5, 3.5, 20))]
    for name, spec in builtin_specs.items():
        for t, a in pairs:
            ms = tilted.global_minimisers(tilted.TiltedRate(spec, t, a))
            m, locs = brute_force_minimisers(spec, t, a, n_grid=1_000_000)
            assert len(locs) == len(ms.locations), (name, t, a, locs, ms.locations)
            for got, want in zip(ms.locations, locs):
                assert got == pytest.approx(want, abs=1e-4), (name, t, a)


def test_indeterminate_band(double_well):
    # a tiny linear tilt puts the two wells within the (eps, 10 eps] band:
    # reported as a single minimiser but flagged indeterminate
    eps_tilt = 2e-9
    spec = pot.polynomial([3.0, eps_tilt, -4.0, 0.0, 1.0])
    bad, ms = tilted.is_bad(spec, 1.0, 0.0)
    assert not bad
    assert ms.indeterminate
    assert len(ms.near_values) == 1


def test_bad_set_scan_examples(zero, quadratic, double_well):
    assert tilted.bad_set_scan(zero, 1.0, (-5, 5), 101).empty
    assert tilted.bad_set_scan(quadratic, 2.0, (-5, 5), 101).empty
    res = tilted.bad_set_scan(double_well, 1.0, (-5, 5), 1001)
    assert not res.empty
    assert any(lo - 1e-6 <= 0.0 <= hi + 1e-6 for lo, hi in res.intervals)
    # csv rows cover the whole grid
    assert len(res.rows) == 1001


def test_bad_set_scan_isolated_point_degenerate_interval(glued1):
    # double-tangent ties are isolated in alpha for symmetric potentials:
    # the bad set past the crossover is the degenerate interval {0}
    res = tilted.bad_set_scan(glued1, 2.5, (-3, 3), 301)
    assert len(res.intervals) == 1
    lo, hi = res.intervals[0]
    assert abs(lo) <= 1e-6 and abs(hi) <= 1e-6


def test_flat_envelope_gives_minimiser_continuum(glued1):
    # at the time where the tilt exactly cancels the parabolic dip the rate is
    # constant on [-1, 1]: a continuum of global minimisers at alpha = 0
    bad, ms = tilted.is_bad(glued1, 1.0, 0.0)
    assert bad
    assert ms.q_min == pytest.approx(-1.0, abs=0.05)
    assert ms.q_max == pytest.approx(1.0, abs=0.05)
    assert len(ms.locations) > 10


def test_newton_polish_at_kink_returns_start():
    # V' does not exist at the kink of |r|: the polish keeps the golden-section point
    tr = tilted.TiltedRate(pot.absolute(), 1.0, 0.0)
    assert tilted._newton_polish(tr, 0.0, (-0.1, 0.1)) == 0.0


def test_bad_set_scan_validation(zero):
    with pytest.raises(ConfigError):
        tilted.bad_set_scan(zero, 1.0, (2, 2), 10)
    with pytest.raises(ConfigError):
        tilted.bad_set_scan(zero, 1.0, (-1, 1), 1)
    with pytest.raises(DomainError):
        tilted.bad_set_scan(zero, 0.0, (-1, 1), 10)


def test_monotone_badness_in_time(builtin_specs):
    # once a bad magnetisation appears it never disappears at later times
    ts = np.geomspace(0.05, 8.0, 7)
    for name, spec in builtin_specs.items():
        flags = [not tilted.bad_set_scan(spec, float(t), (-4, 4), 65).empty for t in ts]
        assert flags == sorted(flags), (name, flags)


def test_limiting_potential_examples(zero, quadratic, double_well):
    assert tilted.limiting_potential(zero, 1.7, 0.3) == pytest.approx(0.0, abs=1e-12)
    # min_s [s^2 + (s-1)^2] = 1/2 at s = 1/2
    assert tilted.limiting_potential(quadratic, 1.0, 2.0) == pytest.approx(0.5, abs=1e-9)
    # min_s [s^4 - 3 s^2 + 3] = 3/4
    assert tilted.limiting_potential(double_well, 1.0, 0.0) == pytest.approx(0.75, abs=1e-9)
    with pytest.raises(DomainError):
        tilted.limiting_potential(zero, 0.0, 1.0)


def test_limiting_potential_upper_bound(builtin_specs):
    rng = np.random.default_rng(7)
    for spec in builtin_specs.values():
        rs = rng.uniform(-3, 3, size=5)
        for t in (0.3, 1.0, 2.0):
            vt = tilted.limiting_potential(spec, t, rs)
            bound = np.asarray(pot.eval(spec, rs / (1.0 + t)))
            assert np.all(vt <= bound + 1e-9)
