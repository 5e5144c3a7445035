import math

import numpy as np
import pytest

from conftest import WINDOW_RADIUS, brute_force_minimisers, golden_then_polish_refine, literal_lower_hull
from gibbsdyn import classify, gridmin, potential as pot
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
        for _ in range(4):
            t = rng.uniform(0.1, 3.0)
            a = rng.uniform(-3, 3)
            ms = tilted.global_minimisers(tilted.TiltedRate(spec, t, a))
            for q in ms.locations:
                if q in pot.kinks(spec):  # no V' there: U' turns from <= 0 to >= 0 across the kink
                    down, up = (pot.deriv(spec, x, 1) + x + (x - a) / t for x in (q - 1e-7, q + 1e-7))
                    assert down <= 0.0 <= up, (name, t, a, q)
                    continue
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
    # constant on [-1, 1]: a continuum of global minimisers at alpha = 0,
    # reported by a few refined contacts that tie, its two ends included
    bad, ms = tilted.is_bad(glued1, 1.0, 0.0)
    assert bad
    assert ms.q_min == pytest.approx(-1.0, abs=0.05)
    assert ms.q_max == pytest.approx(1.0, abs=0.05)
    assert len(ms.locations) <= 8
    tr, eps = tilted.TiltedRate(glued1, 1.0, 0.0), tilted.DEFAULT_TOL.eps_val(ms.value)
    assert all(tilted._tie(tilted.eval_rate(tr, q) - ms.value, eps)[0] for q in ms.locations)


def refine(spec, t, alphas, xs, idx):
    tr = tilted.TiltedRate(spec, t, np.asarray(alphas, dtype=float))
    return tilted._refine(tr, np.asarray(xs, dtype=float), np.asarray(idx))


def test_refine_at_kink_returns_the_kink():
    # V' does not exist at the kink of |r|, where U' turns from -1 to +1: a
    # bracket whose grid vertex is the kink returns it, and so does the scan
    x, value = refine(pot.absolute(), 1.0, [0.0], [-0.1, 0.0, 0.1], [1])
    assert x.tolist() == [0.0] and value.tolist() == [0.0]
    ms = tilted.global_minimisers(tilted.TiltedRate(pot.absolute(), 1.0, 0.0))
    assert ms.locations == (0.0,) and ms.value == 0.0


@pytest.mark.parametrize("t", [0.3, 0.5, 0.7, 0.8, 1.0, 3.0])
def test_kink_minimiser_is_the_kink_when_bisection_brackets_it(t):
    # at alpha = 0 the scan's grid misses r = 0, and bisection on the sign of
    # U' = sign(r) + r (1 + 1/t) closes in on it from both sides; the kink
    # that pot.kinks names is returned, not a rounding residue of +-3e-14
    assert pot.kinks(pot.absolute()) == (0.0,)
    ms = tilted.global_minimisers(tilted.TiltedRate(pot.absolute(), t, 0.0))
    assert ms.locations == (0.0,) and ms.value == 0.0


def test_kink_contact_is_returned_before_the_first_step(monkeypatch):
    # at t = 2, U' = sign(r) + r + (r - alpha)/t turns from <= 0 to >= 0 at
    # the kink r = 0 for |alpha| <= 2: those brackets return it after one
    # pair of V' calls instead of bisecting ~45 rounds to REFINE_TOL; the
    # others settle by Newton. Every row is the closed-form minimiser
    calls = []
    deriv = pot.deriv

    def counting(spec, x, order=1):
        calls.append(np.size(x))
        return deriv(spec, x, order)

    monkeypatch.setattr(pot, "deriv", counting)
    t, alphas = 2.0, np.linspace(-5.0, 5.0, 201)
    res = tilted.bad_set_scan(pot.absolute(), t, (-5.0, 5.0), alphas.size)
    assert len(calls) <= 7 and res.empty
    q = np.sign(alphas) * np.maximum(np.abs(alphas) - t, 0.0) / (1.0 + t)
    value = np.abs(q) + q**2 / 2.0 + (q - alphas) ** 2 / (2.0 * t)
    rows = res.rows
    assert [r.alpha for r in rows] == alphas.tolist() and all(r.n_minimisers == 1 and r.q_min == r.q_max for r in rows)
    kink = np.abs(alphas) <= t
    assert [r.q_min for r, at_kink in zip(rows, kink) if at_kink] == [0.0] * int(kink.sum())
    assert [r.q_min for r in rows] == pytest.approx(q.tolist(), abs=1e-12)
    assert [r.value for r in rows] == pytest.approx(value.tolist(), rel=1e-13)


@pytest.mark.parametrize("name", ["abs", "double_well", "glued_beta1"])
def test_refine_kink_in_a_batch_leaves_the_others_alone(builtin_specs, name):
    # a bracket whose vertex is the kink of |r| returns it; every other
    # bracket of the batch gets the bits it gets alone. The other vertices
    # sit near the minimisers of U, where the refinement moves them
    spec, t = builtin_specs[name], 1.0
    alphas = np.array([0.0, 3.0, -2.5, 1.8])
    starts = [0.0] + [tilted.global_minimisers(tilted.TiltedRate(spec, t, float(a))).locations[0] + 3e-6
                      for a in alphas[1:]]
    xs = np.ravel([(q - 0.01, q, q + 0.01) for q in starts])  # bracket j is xs[3j : 3j + 3]
    batch, _ = refine(spec, t, alphas, xs, 3 * np.arange(alphas.size) + 1)
    alone = [refine(spec, t, [a], xs[3 * j : 3 * j + 3], [1])[0][0] for j, a in enumerate(alphas)]
    assert batch.tolist() == alone
    if name == "abs":
        assert batch[0] == 0.0
    assert all(b != q for b, q in zip(batch[1:], starts[1:]))


def test_bad_set_scan_validation(zero):
    with pytest.raises(ConfigError):
        tilted.bad_set_scan(zero, 1.0, (2, 2), 10)
    with pytest.raises(ConfigError):
        tilted.bad_set_scan(zero, 1.0, (-1, 1), 1)
    with pytest.raises(DomainError):
        tilted.bad_set_scan(zero, 0.0, (-1, 1), 10)


def test_monotone_badness_in_time(builtin_specs):
    # once the bad set is non-empty it stays non-empty at later times. Each
    # scan covers every alpha whose tilt center alpha/(1+t) lies in the
    # potential's working window: bad alphas move with t, so a fixed alpha
    # window can lose them (pinned below for cos_of_square)
    ts = np.geomspace(0.05, 8.0, 7)
    for name, spec in builtin_specs.items():
        spans = [(1.0 + t) * WINDOW_RADIUS for t in ts]
        flags = [not tilted.bad_set_scan(spec, float(t), (-a, a), 65).empty for t, a in zip(ts, spans)]
        assert flags == sorted(flags), (name, flags)
    spec, t = builtin_specs["cos_of_square"], float(ts[5])
    assert tilted.bad_set_scan(spec, t, (-4, 4), 65).empty
    nearest = sorted(a for a, _ in tilted.bad_set_scan(spec, t, (-8, 8), 65).intervals)
    assert nearest == pytest.approx([-6.8724286, 6.8724286], abs=1e-6)
    assert all(tilted.is_bad(spec, t, a)[0] for a in nearest)


def test_limiting_potential_examples(zero, quadratic, double_well):
    assert tilted.limiting_potential(zero, 1.7, 0.3) == pytest.approx(0.0, abs=1e-12)
    # min_s [s^2 + (s-1)^2] = 1/2 at s = 1/2
    assert tilted.limiting_potential(quadratic, 1.0, 2.0) == pytest.approx(0.5, abs=1e-9)
    # min_s [s^4 - 3 s^2 + 3] = 3/4
    assert tilted.limiting_potential(double_well, 1.0, 0.0) == pytest.approx(0.75, abs=1e-9)
    with pytest.raises(DomainError):
        tilted.limiting_potential(zero, 0.0, 1.0)
    assert tilted.limiting_potential(zero, 1.0, np.array([])).shape == (0,)


def test_limiting_potential_upper_bound(builtin_specs):
    rng = np.random.default_rng(7)
    for spec in builtin_specs.values():
        rs = rng.uniform(-3, 3, size=5)
        for t in (0.3, 1.0, 2.0):
            vt = tilted.limiting_potential(spec, t, rs)
            bound = np.asarray(pot.eval(spec, rs / (1.0 + t)))
            assert np.all(vt <= bound + 1e-9)


# t x the common-tangent slopes of g_t = 1 - cos(r^2) + (1+t)/(2t) r^2 (the
# positive half; the set is even), checked against the tangent equations
COS_OF_SQUARE_BAD = {0.5: (2.4344631,), 0.2: (2.0275883, 3.6456905, 4.7360712)}


@pytest.mark.parametrize("t, window, grid_n", [(0.5, (-3, 3), 1001), (0.2, (-5, 5), 201)])
def test_bad_set_scan_finds_bad_alphas_between_scan_points(t, window, grid_n):
    spec = pot.cos_of_square()
    res = tilted.bad_set_scan(spec, t, window, grid_n)
    want = sorted(sign * a for a in COS_OF_SQUARE_BAD[t] for sign in (-1.0, 1.0))
    assert all(lo == hi for lo, hi in res.intervals)
    assert [lo for lo, _ in res.intervals] == pytest.approx(want, abs=1e-6)
    for lo, _ in res.intervals:
        assert tilted.is_bad(spec, t, lo)[0], lo


def test_bad_set_scan_near_onset(double_well):
    # the onset is 1/(2 beta - 1) = 1/7; an even grid puts the bad alpha = 0
    # between scan points, and the hull's rise shrinks like (t - 1/7)^2
    assert tilted.bad_set_scan(double_well, 0.1425, (-5, 5), 200).empty
    res = tilted.bad_set_scan(double_well, 0.144, (-5, 5), 200)
    assert [lo for lo, _ in res.intervals] == pytest.approx([0.0], abs=1e-12)


@pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
def test_bad_set_scan_alphas_confirmed_by_oracles(builtin_specs, t):
    # sound: every reported alpha is bad for is_bad and for the dense scan.
    # Complete: every scan alpha where is_bad finds several minimisers is
    # reported, and the rows show two minimisers exactly there (glued_beta1
    # at t = 1 and the quartic bottom of cosine_beta1 at t = 1 included)
    reported = 0
    for name, spec in builtin_specs.items():
        res = tilted.bad_set_scan(spec, t, (-4, 4), 33)
        alphas = [a for a, _ in res.intervals]
        reported += len(alphas)
        for alpha in alphas:
            assert tilted.is_bad(spec, t, alpha)[0], (name, t, alpha)
            _, locs = brute_force_minimisers(spec, t, alpha)
            if len(locs) < 2:
                # a continuum of minimisers (glued_beta1 at t = 1) is one
                # cluster: the minimiser jumps across it as alpha crosses
                locs = [brute_force_minimisers(spec, t, alpha + d)[1][0] for d in (-1e-4, 1e-4)]
            assert locs[-1] - locs[0] > 1e-3, (name, t, alpha, locs)
        for row in res.rows:
            bad, _ = tilted.is_bad(spec, t, row.alpha)
            assert bad == (row.n_minimisers == 2), (name, t, row.alpha)
            assert not bad or any(abs(a - row.alpha) <= 1e-6 for a in alphas), (name, t, row.alpha)
    assert reported >= 3


def test_flat_envelope_is_a_reported_bad_alpha(glued1):
    # the affine piece of g_1 on [-1, 1] is a continuum of minimisers at alpha = 0
    res = tilted.bad_set_scan(glued1, 1.0, (-5, 5), 1001)
    assert res.intervals == ((0.0, 0.0),)
    row = res.rows[500]
    assert row.n_minimisers == 2 and row.q_min == pytest.approx(-1.0, abs=0.05) and row.q_max == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("name", ["cos_of_square", "double_well", "glued_beta1"])
def test_bad_set_scan_wide_window(builtin_specs, monkeypatch, name):
    # a +-50 scan spreads the hull's points over the alphas' truncation
    # windows (+-80; glued_beta1's would reach +-1e8 if bounded only by the
    # tilt center): the reported alphas are confirmed by is_bad, and a hull
    # on 4x as many points reports the same set
    spec, t = builtin_specs[name], 1.0
    got = [a for a, _ in tilted.bad_set_scan(spec, t, (-50, 50), 41).intervals]
    assert got and all(tilted.is_bad(spec, t, a)[0] for a in got)
    monkeypatch.setattr(tilted, "COARSE_GRID_N", 4 * tilted.COARSE_GRID_N)
    finer = [a for a, _ in tilted.bad_set_scan(spec, t, (-50, 50), 41).intervals]
    assert len(finer) == len(got) and finer == pytest.approx(got, abs=1e-6)


@pytest.mark.parametrize("window", [(-3.0, 3.0), (-50.0, 50.0)])
def test_limiting_potential_matches_per_r_minimisation(builtin_specs, window):
    rs = np.linspace(*window, 13)
    for name, spec in builtin_specs.items():
        for t in (0.3, 1.0, 2.5):
            want = [
                tilted.global_minimisers(tilted.TiltedRate(spec, t, float(r))).value - r**2 / (2.0 * (1.0 + t))
                for r in rs
            ]
            assert tilted.limiting_potential(spec, t, rs) == pytest.approx(want, abs=1e-9), (name, t)


def test_is_bad_keeps_a_quartic_bottom_whole(cosine1):
    # g_1 = 4 + r^4/12 + ... at the onset t = 1: adjacent grid candidates of
    # one flat bottom are one run, refined once
    bad, ms = tilted.is_bad(cosine1, 1.0, 0.0)
    assert not bad and len(ms.locations) == 1


def test_global_minimisers_window_of_fast_growing_potential(glued1):
    # V is about e^37 at the tilt center -38.5: the window is bounded by U
    # at r = 0, not only at the center. Oracle: a dense scan on [-60, 10]
    ms = tilted.global_minimisers(tilted.TiltedRate(glued1, 0.3, -50.0))
    xs = np.linspace(-60.0, 10.0, 2_000_001)
    vs = tilted.eval_rate(tilted.TiltedRate(glued1, 0.3, -50.0), xs)
    assert ms.locations == pytest.approx([xs[np.argmin(vs)]], abs=1e-4)
    assert ms.locations == pytest.approx([-6.1819], abs=1e-4)
    assert ms.value == pytest.approx(float(vs.min()), rel=1e-9)
    assert ms.value == pytest.approx(3332.2508, abs=1e-4)


def test_limiting_potential_scalar_matches_vector_on_wide_window(glued1):
    scalar = tilted.limiting_potential(glued1, 0.3, -50.0)
    vector = tilted.limiting_potential(glued1, 0.3, np.array([-50.0, -40.0]))
    assert scalar == pytest.approx(vector[0], abs=1e-9)
    assert scalar == pytest.approx(2370.7123, abs=1e-4)


def _count_batches(monkeypatch, *modules):
    """(brackets, rounds) of every _drive batch that the modules run."""
    batches, drive = [], gridmin._drive

    def counted(runs, f):
        rounds = []
        out = drive(runs, lambda x, j: rounds.append(x.size) or f(x, j))
        batches.append((len(runs), len(rounds)))
        return out

    for module in modules:
        monkeypatch.setattr(module, "_drive", counted)
    return batches


def test_scan_and_limitpot_refine_in_batches(double_well, monkeypatch):
    # one refinement batch (_drive) for all rows (or points), plus at most two
    # per round of the common-tangent polish, which has at most 8 rounds. Newton
    # settles every row of the double well in 7 rounds (two steps); golden
    # section would take 49 rounds, then 4 of Newton polish
    batches = _count_batches(monkeypatch, gridmin, tilted)
    res = tilted.bad_set_scan(double_well, 0.3, (-5.0, 5.0), 201)
    assert len(res.rows) == 201 and [lo for lo, _ in res.intervals] == pytest.approx([0.0], abs=1e-12)
    row_rounds = [r for n, r in batches if n == 201]
    assert len(row_rounds) == 1 and row_rounds[0] <= 10 and len(batches) <= 1 + 2 * 8
    batches.clear()
    assert tilted.limiting_potential(double_well, 0.3, np.linspace(-4.0, 4.0, 101)).shape == (101,)
    assert [n for n, _ in batches].count(101) == 1 and len(batches) <= 1 + 2 * 8


def _first_bad_time_sides(spec):
    # times on both sides of the first bad time 1/(2 beta - 1); none below 0
    # when beta is infinite, and two plain times when no time is bad
    beta = classify.crossover_time(spec, find_witness=False).beta
    if math.isinf(beta):
        return (0.1, 0.5)
    return (0.8 / (2.0 * beta - 1.0), 1.25 / (2.0 * beta - 1.0)) if beta > 0.5 else (0.5, 2.0)


def _rate_curvature(tr, q):
    """U'' at q: from V'' where the family has it in closed form, else the
    central second difference at steps 1e-4 and 1e-5, NaN where the two
    differ by more than 1% (a kink of V within reach: U'' does not exist)."""
    if pot.has_analytic_deriv(tr.potential):
        return float(pot.deriv(tr.potential, q, 2)) + 1.0 + 1.0 / tr.t
    d2 = [float((tilted.eval_rate(tr, q + h) - 2.0 * tilted.eval_rate(tr, q) + tilted.eval_rate(tr, q - h)) / h**2)
          for h in (1e-4, 1e-5)]
    return d2[0] if abs(d2[0] - d2[1]) <= 1e-2 * abs(d2[0]) else math.nan


def _assert_same_contacts(tr, fast, slow, where):
    # each side is (count, near-tie flag, value, locations)
    assert fast[:2] == slow[:2], where
    assert abs(fast[2] - slow[2]) <= 1e-12 * max(1.0, abs(slow[2])), where
    for p, q in zip(fast[3], slow[3]):
        assert not _rate_curvature(tr, q) >= 1e-3 or abs(p - q) <= 1e-9, where


def _assert_refines_like_golden_then_polish(spec, t, monkeypatch, where):
    # global_minimisers at 13 alphas and a 25-row bad_set_scan of [-3, 3],
    # with tilted._refine and with the oracle refinement
    alphas = np.linspace(-3.0, 3.0, 13)
    answers = []
    for refine in (tilted._refine, golden_then_polish_refine):
        monkeypatch.setattr(tilted, "_refine", refine)
        minimisers = [tilted.global_minimisers(tilted.TiltedRate(spec, t, a)) for a in alphas]
        answers.append((minimisers, tilted.bad_set_scan(spec, t, (-3.0, 3.0), 25)))
    (fast, fast_scan), (slow, slow_scan) = answers
    for a, f, s in zip(alphas, fast, slow):
        sides = [(len(m.locations), m.indeterminate, m.value, m.locations) for m in (f, s)]
        _assert_same_contacts(tilted.TiltedRate(spec, t, a), *sides, (where, t, a))
    assert len(fast_scan.intervals) == len(slow_scan.intervals), (where, t)
    assert np.ravel(fast_scan.intervals) == pytest.approx(np.ravel(slow_scan.intervals), abs=1e-12), (where, t)
    for f, s in zip(fast_scan.rows, slow_scan.rows):
        sides = [(r.n_minimisers, r.indeterminate, r.value, (r.q_min, r.q_max)) for r in (f, s)]
        _assert_same_contacts(tilted.TiltedRate(spec, t, s.alpha), *sides, (where, t, s.alpha))


@pytest.mark.parametrize("name", ["zero", "r^2", "double_well", "shallow_quartic", "cosine_beta1", "cosine_beta04",
                                  "cos_of_square", "glued_beta1", "abs", "glued_beta25"])
def test_newton_first_contacts_equal_golden_then_polish(builtin_specs, name, monkeypatch):
    # the same minimiser counts, near-tie flags and bad alphas as the oracle
    # refinement; values within 1e-12 relative, and locations within 1e-9
    # wherever U'' >= 1e-3 at the contact (a flatter bottom pins x less, and
    # at the kink of |r| the oracle's polish cannot step, so it keeps golden
    # section's x-accuracy ~sqrt(eps))
    spec = builtin_specs[name] if name != "glued_beta25" else pot.glued_exp(2.5)
    for t in _first_bad_time_sides(spec):
        _assert_refines_like_golden_then_polish(spec, t, monkeypatch, name)


def test_newton_first_falls_back_where_it_does_not_settle(builtin_specs, monkeypatch):
    T = tilted.TiltedRate
    # from the kink of |r| with |alpha| = 1.0004 at t = 1, U' has one sign on
    # both sides: the side values pick the half, and bisection finds the
    # minimiser (|alpha| - t)/(1 + t) = 2e-4 off the kink
    x, _ = refine(pot.absolute(), 1.0, [1.0004, -1.0004], [-0.01, 0.0, 0.01], [1, 1])
    assert x == pytest.approx([2e-4, -2e-4], rel=0.0, abs=1e-12)
    for alpha in (1.0004, -1.0004):
        ms = tilted.global_minimisers(T(pot.absolute(), 1.0, alpha))
        assert ms.locations == pytest.approx([math.copysign(2e-4, alpha)], rel=0.0, abs=1e-12)
    # Newton stops after 4 steps: a finite-difference slope taken across the
    # kink makes tiny steps that never leave the bracket (44 rounds measured)
    batches = _count_batches(monkeypatch, tilted)
    tilted.bad_set_scan(pot.absolute(), 2.0, (-5.0, 5.0), 201)
    row_rounds = [r for n, r in batches if n == 201]
    assert len(row_rounds) == 1 and row_rounds[0] <= 60
    monkeypatch.undo()
    specs = {name: builtin_specs[name] for name in ("glued_beta1", "cosine_beta1")}
    fast = {name: tilted.global_minimisers(T(spec, 1.0, 0.0)) for name, spec in specs.items()}
    monkeypatch.setattr(tilted, "_refine", golden_then_polish_refine)
    slow = {name: tilted.global_minimisers(T(spec, 1.0, 0.0)) for name, spec in specs.items()}
    # the continuum of glued_exp(1) keeps its 5 contacts that tie, where
    # Newton does not settle and bisection finishes
    glued = fast["glued_beta1"]
    assert len(glued.locations) == 5 and not glued.indeterminate
    assert glued.locations == pytest.approx(slow["glued_beta1"].locations, rel=0.0, abs=1e-12)
    tr, eps = T(specs["glued_beta1"], 1.0, 0.0), tilted.DEFAULT_TOL.eps_val(glued.value)
    assert all(tilted._tie(tilted.eval_rate(tr, q) - glued.value, eps)[0] for q in glued.locations)
    # the quartic bottom of cosine_well(1) at t = 1 pins its value, not its
    # location: U = 4 + r^4/12 + O(r^6) differs from 4 by less than rounding
    # for |r| < 3e-4
    assert fast["cosine_beta1"].value == slow["cosine_beta1"].value
    assert len(fast["cosine_beta1"].locations) == 1 and abs(fast["cosine_beta1"].q_min) <= 1e-4


def _bench_table():
    grid = np.linspace(-4.0, 4.0, 81)
    return grid, pot.custom_table(grid, (grid**2 - 16.0) ** 2 / 16.0)


def test_table_witness_is_the_cell_root():
    # V' on a cell of a table is its slope s, so U' = s + r + r/t has its root
    # -s t/(1 + t) there: the witness at 1.05 t_c sits on the cells on either
    # side of the node 0, each within 2 ulps of its cell's root (the rounding
    # of U' alone is about 1.4 ulps of x at this U'' = 1 + 1/t ~ 9500)
    grid, spec = _bench_table()
    report = classify.crossover_time(spec)
    t, v = 1.05 * report.t_c, spec.table_v
    assert report.witness_alpha == 0.0
    roots = [-(v[i + 1] - v[i]) / (grid[i + 1] - grid[i]) * t / (1.0 + t) for i in (39, 40)]
    assert roots[0] < 0.0 < roots[1]
    for x, root in zip(report.witness.locations, roots):
        assert abs(x - root) <= 2.0 * np.spacing(abs(root)), (x, root)


def test_table_minimiser_on_a_node_is_the_node():
    # at t = 1, alpha = 0.3 the minimiser is the kink at the node grid[69]
    # itself, not a rounding residue beside it
    grid, spec = _bench_table()
    ms = tilted.global_minimisers(tilted.TiltedRate(spec, 1.0, 0.3))
    assert grid[69] in pot.kinks(spec)
    assert ms.locations == (grid[69],) and grid[69] == 2.9000000000000004


def test_table_minimiser_on_an_end_node_is_the_node():
    # V' jumps from -3 to 0 at the end node 1, and U' = V' + 2r at t = 1,
    # alpha = 0 turns from -1 to 2 there: the minimiser is the node itself
    spec = pot.custom_table([-1.0, 0.0, 1.0], [3.0, 3.0, 0.0])
    assert pot.kinks(spec) == (0.0, 1.0)
    assert tilted.global_minimisers(tilted.TiltedRate(spec, 1.0, 0.0)).locations == (1.0,)


def _random_tables(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(5, 41))
        grid = np.concatenate([[-4.0], np.sort(rng.uniform(-4.0, 4.0, m - 2)), [4.0]])
        yield pot.custom_table(grid, rng.uniform(0.0, 1.0) * grid**2 + rng.uniform(0.0, 2.0, m))


def test_table_contacts_equal_golden_then_polish(monkeypatch):
    # one refinement loop for tables too: against the golden-section oracle,
    # the same minimiser counts, near-tie flags and bad alphas, values within
    # 1e-12 relative, locations within 1e-9 inside a cell; 332 of the 468
    # minimisers sit on kinks
    for k, spec in enumerate(_random_tables(12, seed=5)):
        for t in (0.3, 1.0, 3.0):
            _assert_refines_like_golden_then_polish(spec, t, monkeypatch, k)


def _hull_inputs(builtin_specs):
    for name, spec in builtin_specs.items():
        for t in (0.2, 1.0, 2.5):
            for window in ((-3.0, 3.0), (-8.0, 5.0)):
                xs = np.linspace(*window, tilted.COARSE_GRID_N)
                yield name, xs, np.asarray(pot.eval(spec, xs)) + (1.0 + t) / (2.0 * t) * xs**2
    xs = np.linspace(-50.0, 50.0, 4 * tilted.COARSE_GRID_N)  # the finer hull of the wide-window scan
    yield "glued_beta1-4x", xs, np.asarray(pot.eval(builtin_specs["glued_beta1"], xs)) + xs**2
    rng = np.random.default_rng(3)
    # the cases of the sample hull that lower_hull prunes by (tilted._kept)
    xs = np.linspace(-1.0, 1.0, tilted.COARSE_GRID_N)
    stride = math.isqrt(xs.size)
    dip = xs[100 * stride + stride // 2]  # between two samples, 40 steps wide: no sample sees it
    yield "narrow-dip", xs, xs**2 - 0.05 * np.exp(-(((xs - dip) / (20.0 * (xs[1] - xs[0]))) ** 2))
    for window in ((-1.0, 2.0), (-2.0, 1.0)):  # a bridge from index 0, and one to n - 1
        xs = np.linspace(*window, tilted.COARSE_GRID_N)
        yield "bridge-at-end", xs, (xs**2 - 1.0) ** 2
    xs = np.linspace(-1.3, 1.3, tilted.COARSE_GRID_N)
    yield "two-bridges", xs, 0.01 * xs**2 - np.cos(2.0 * np.pi * xs)
    xs = np.linspace(-3.0, 3.0, tilted.COARSE_GRID_N)
    g = np.asarray(pot.eval(builtin_specs["glued_beta1"], xs)) + xs**2
    flat = np.abs(xs) <= 1.0  # the flat piece's edge: rounding noise decides the cross products under it
    g[flat] *= 1.0 + 1e-16 * rng.normal(size=int(flat.sum()))
    yield "glued_beta1-noise", xs, g
    for n in (64**2 - 1, 64**2, 64**2 + 1):  # the stride steps from 63 to 64
        xs = np.linspace(-3.0, 3.0, n)
        yield "double_well-stride", xs, np.asarray(pot.eval(builtin_specs["double_well"], xs)) + xs**2 * 1.3 / 0.6
    for n in (3, 4, 5, 7, 16, 100, 1000, 5000):
        for _ in range(4):
            xs = np.unique(rng.uniform(-2.0, 2.0, n))
            yield "random", xs, rng.normal(size=xs.size)
            xs = np.linspace(-1.0, 1.0, n)
            yield "noise-1e-17", xs, 1e-17 * rng.normal(size=n)
            yield "quantised", xs, np.round(4.0 * rng.normal(size=n).cumsum()) / 4.0
            yield "parabola-noise", xs, xs**2 + 1e-13 * rng.normal(size=n)
            yield "line", xs, rng.uniform(-3.0, 3.0) * xs + rng.uniform(-1.0, 1.0)
    for n in (16, 100):  # convex at the rounding level: the signs depend on the operand order
        xs = np.linspace(-1.0, 1.0, n)
        for _ in range(40):
            yield "line-curving", xs, rng.uniform(-3.0, 3.0) * xs + rng.uniform(-1.0, 1.0) + 1e-16 * ((n - 1) / 2.0) ** 2 * xs**2


def test_lower_hull_is_the_literal_chain(builtin_specs):
    # the fast-forwarded chain takes every decision of the one-point-at-a-time
    # chain: hull indices and bridges are equal, not close; glued_beta1 at
    # t = 1 is the flat envelope, where the cross products are rounding noise
    checked = 0
    for name, xs, g in _hull_inputs(builtin_specs):
        hull, bridges = tilted.lower_hull(xs, g)
        want_hull, want_bridges = literal_lower_hull(xs, g)
        assert list(hull) == want_hull and bridges == want_bridges, (name, xs.size)
        checked += 1
    assert checked == 9 * 6 + 1 + 8 + 8 * 4 * 5 + 2 * 40


def test_lower_hull_chain_skips_the_points_under_the_bridge(double_well):
    # the double well at t = 0.3 on the bad-scan window [-5, 5]: the sample
    # hull's bridge chord drops the points under the bridge but the few
    # between its ends and the true contacts, at most 2 strides of them
    xs = tilted._ConvexMinorant(double_well, 0.3, np.linspace(-5.0, 5.0, 1001)).xs
    g = np.asarray(pot.eval(double_well, xs)) + 1.3 / 0.6 * xs**2
    hull, bridges = tilted.lower_hull(xs, g)
    [(i1, i2)] = bridges
    kept = tilted._kept(xs, g)
    assert kept.size <= xs.size - (i2 - i1 - 1) + 2 * math.isqrt(xs.size)
    assert np.isin(hull, kept).all()


def test_end_edge_rise_threshold_stays_on_its_own_end():
    # the edge from the left end to the parabola's tangent point x = 0.3
    # rises 0.04 above a bump on [0, 0.1], against a threshold of 0.0021 from
    # the kink at 0.1; the right end's |second difference| is 0.2. A window
    # wrapped around the grid would take the threshold from there (0.6) and
    # hide the bridge
    xs = np.linspace(0.0, 1.0, 1001)
    g = np.where(xs < 0.1, xs * (0.1 - xs), (xs - 0.5) ** 2 - 0.16) + 1e5 * np.maximum(xs - 0.95, 0.0) ** 2
    _, bridges = tilted.lower_hull(xs, g)
    assert len(bridges) == 1 and bridges[0][0] == 0 and abs(bridges[0][1] - 300) <= 1
    _, mirrored = tilted.lower_hull(xs, g[::-1])
    assert [(1000 - i2, 1000 - i1) for i1, i2 in mirrored] == bridges
