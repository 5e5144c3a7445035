import numpy as np
import pytest

from conftest import scalar_golden_section
from gibbsdyn import gridmin, potential as pot, tilted

SPECS = {
    "double_well": lambda: pot.polynomial([3.0, 0.0, -4.0, 0.0, 1.0]),
    "cosine_beta1": lambda: pot.cosine_well(1.0),
    "glued_beta1": lambda: pot.glued_exp(1.0),
    "abs": pot.absolute,
    "table81": lambda: pot.custom_table(np.linspace(-4.0, 4.0, 81), np.abs(np.sin(2.0 * np.linspace(-4.0, 4.0, 81)))),
}


def brackets(spec, t, alphas):
    """Each alpha's tilted rate, bracketed around its grid minimum, with
    widths from 2e-9 to 2 and one degenerate bracket (lo == hi), so the
    brackets meet the tolerance in different rounds."""
    tr = tilted.TiltedRate(spec, t, alphas)
    xs = np.linspace(-4.0, 4.0, 2001)
    centres = np.asarray([xs[np.argmin(tilted.eval_rate(tilted.TiltedRate(spec, t, a), xs))] for a in alphas])
    half = np.geomspace(1e-9, 1.0, alphas.size)
    half[alphas.size // 2] = 0.0
    return tr, centres - half, centres + half


def scalar(J, lo, hi, j):
    """The oracle on bracket j alone: (result, number of f calls)."""
    calls = []
    result = scalar_golden_section(lambda s: calls.append(s) or float(J(np.asarray([s]), np.asarray([j]))[0]), lo, hi)
    return result, len(calls)


@pytest.mark.parametrize("m", [1, 2, 201])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_golden_section_batch_equals_scalar_loop_bitwise(name, m):
    spec, t = SPECS[name](), 0.7
    tr, lo, hi = brackets(spec, t, np.linspace(-2.0, 2.5, m))
    J = tilted._shifted_rate(tr)
    x, fx = gridmin.golden_section(J, lo, hi)
    want, calls = zip(*(scalar(J, lo[j], hi[j], j) for j in range(m)))
    assert list(zip(x.tolist(), fx.tolist())) == list(want), name
    assert lo[m // 2] == hi[m // 2] and x[m // 2] == lo[m // 2]
    assert m <= 2 or len(set(calls)) > 10


def test_golden_section_evaluates_f_once_per_round():
    # one f call per round for the whole batch: the two starting points,
    # then one per shrink of the slowest bracket
    spec, t = SPECS["double_well"](), 0.7
    tr, lo, hi = brackets(spec, t, np.linspace(-2.0, 2.5, 9))
    J = tilted._shifted_rate(tr)
    sizes = []
    gridmin.golden_section(lambda s, j: sizes.append(s.size) or J(s, j), lo, hi)
    assert len(sizes) == max(scalar(J, lo[j], hi[j], j)[1] for j in range(lo.size))
    assert sizes[0] == 9 and sizes == sorted(sizes, reverse=True)


@pytest.mark.parametrize("b", [0.5, 1.0, 2.5])
def test_global_minimum_equals_scalar_refinement(b):
    # glued_exp's C_beta: every candidate basin refined by the scalar loop,
    # smallest value (then smallest x) wins
    def objective(s):
        return pot._glue(np.abs(s) - 1.0) - b * np.asarray(s) ** 2

    radius = 2.0 * (b + 10.0)
    xs = np.linspace(0.0, radius, 200001)
    vs = objective(xs)
    band = max(1e-6 * max(1.0, abs(vs.min())), 0.75 * float(np.abs(np.diff(vs, 2)).max()))
    cand = [i for i in gridmin.local_minima_indices(vs) if vs[i] <= vs.min() + band]
    scalar = lambda s: float(objective(np.asarray([s]))[0])  # noqa: E731
    found = [scalar_golden_section(scalar, xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]) for i in cand]
    want = min(found, key=lambda m: (m[1], m[0]))
    assert gridmin.global_minimum(objective, 0.0, radius, 200001) == want
    assert pot.glued_exp(b).c_beta == want[1]


def test_local_minima_indices_matches_the_set_form():
    # the former list/set/sorted construction: equal arrays, dtype included,
    # on plateaus (quantised values), endpoint minima, NaNs and 0-3 points
    def set_form(v):
        out = list(np.flatnonzero((v[1:-1] <= v[:-2]) & (v[1:-1] <= v[2:])) + 1)
        if v.size >= 2 and v[0] < v[1]:
            out.insert(0, 0)
        if v.size >= 2 and v[-1] < v[-2]:
            out.append(v.size - 1)
        return np.asarray(sorted(set(out)), dtype=int)

    rng = np.random.default_rng(7)
    for n in (0, 1, 2, 3, 4, 9, 200):
        for _ in range(20):
            v = np.round(rng.normal(size=n) * 2.0) / 2.0
            if n and rng.random() < 0.3:
                v[rng.integers(n)] = np.nan
            got, want = gridmin.local_minima_indices(v), set_form(v)
            assert got.dtype == want.dtype and np.array_equal(got, want), v
