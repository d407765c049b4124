"""Path algebra: grids, concatenation, shift, translation, random times."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penalab.integrands import Integrand
from penalab.paths import (ConfigurationError, SamplePath, TimeGrid, concat,
                           hitting_time, last_exit_time, make_grid, shift,
                           translate)


def path(vals, dt=0.5):
    vals = np.asarray(vals, dtype=float)
    return SamplePath(TimeGrid(t_max=(len(vals) - 1) * dt, dt=dt, n=len(vals) - 1),
                      vals)


def test_make_grid_basic():
    g = make_grid(1.0, 0.5)
    assert g.n == 2
    np.testing.assert_allclose(g.times(), [0.0, 0.5, 1.0])
    assert make_grid(10.0, 0.001).n == 10000


def test_make_grid_rejects_non_multiple():
    with pytest.raises(ConfigurationError):
        make_grid(1.0, 0.3)
    with pytest.raises(ConfigurationError):
        make_grid(-1.0, 0.5)
    with pytest.raises(ConfigurationError):
        make_grid(1.0, 0.0)


def test_sample_path_invariants():
    with pytest.raises(ValueError):
        path([0.0, np.inf])
    with pytest.raises(ValueError):
        SamplePath(make_grid(1.0, 0.5), np.zeros(2))


def test_concat_zero_paths():
    x = path(np.zeros(3))          # [0, 1]
    y = path(np.zeros(5))          # [0, 2]
    z = concat(x, y)
    assert z.grid.t_max == 3.0
    assert np.all(z.values == 0.0)


def test_concat_endpoint_mismatch_freezes():
    x = path([0.0, 1.0])
    y = path([0.0, 7.0, 3.0])
    z = concat(x, y)
    np.testing.assert_array_equal(z.values, [0.0, 1.0, 1.0, 1.0])


def test_concat_matching_endpoints_glues():
    x = path([0.0, 0.5])
    y = path([0.5, 0.2])
    z = concat(x, y)
    np.testing.assert_array_equal(z.values, [0.0, 0.5, 0.2])
    np.testing.assert_allclose(z.grid.times(), [0.0, 0.5, 1.0])


def test_concat_requires_same_dt():
    with pytest.raises(ValueError):
        concat(path([0.0, 1.0], dt=0.5), path([1.0, 2.0], dt=0.25))


def test_shift_identity_and_basic():
    x = path([0.0, 1.0, 2.0])
    np.testing.assert_array_equal(shift(x, 0.0).values, x.values)
    s = shift(x, 0.5)
    np.testing.assert_array_equal(s.values, [1.0, 2.0])
    with pytest.raises(ValueError):
        shift(x, 1.0)              # full-horizon shift leaves nothing
    with pytest.raises(ValueError):
        shift(x, 2.0)


def test_shift_of_concat_recovers_tail():
    x = path([0.0, 0.25, -0.5])
    y = path([-0.5, 1.0, 2.0, 0.0])
    z = concat(x, y)
    np.testing.assert_array_equal(z.values[:3], x.values)
    np.testing.assert_array_equal(shift(z, x.grid.t_max).values, y.values)


def test_translate_zero_and_indicator():
    g = make_grid(2.0, 0.5)
    x = SamplePath(g, np.zeros(g.n + 1))
    f0 = Integrand.zero()
    np.testing.assert_array_equal(translate(x, f0).values, x.values)
    f = Integrand.indicator(0.0, 1.0)
    np.testing.assert_allclose(translate(x, f).values, [0.0, 0.5, 1.0, 1.0, 1.0])
    # truncation beyond the support changes nothing
    np.testing.assert_array_equal(translate(x, f, T=1.0).values,
                                  translate(x, f).values)
    # truncation inside the support freezes the drift
    np.testing.assert_allclose(translate(x, f, T=0.5).values,
                               [0.0, 0.5, 0.5, 0.5, 0.5])


def test_translate_roundtrip():
    g = make_grid(2.0, 0.01)
    rng = np.random.default_rng(5)
    x = SamplePath(g, rng.standard_normal(g.n + 1))
    f = Integrand.step([0.0, 0.4, 1.2], [1.3, -0.7])
    back = translate(translate(x, f), f.scaled(-1.0))
    np.testing.assert_allclose(back.values, x.values, rtol=0, atol=1e-9)


def test_last_exit_cases():
    g = make_grid(2.0, 0.5)
    zero = SamplePath(g, np.zeros(g.n + 1))
    le = last_exit_time(zero)
    assert le.time == 2.0 and le.censored
    lin = SamplePath(g, g.times())
    le = last_exit_time(lin)
    assert le.time == 0.0 and not le.censored
    # never returns to zero, never starts there
    pos = SamplePath(g, 1.0 + g.times())
    assert last_exit_time(pos).time == 0.0
    # interior strict sign change resolves to the later grid point
    w = path([1.0, -1.0, 2.0, 5.0], dt=1.0)
    assert last_exit_time(w).time == 2.0
    # an exact interior zero is the last exit, not the step after it
    z = path([1.0, -1.0, 0.0, 2.0, 3.0], dt=1.0)
    assert last_exit_time(z).time == 2.0
    # an exact zero at the horizon is censored
    end = last_exit_time(path([1.0, 2.0, 0.0], dt=1.0))
    assert end.time == 2.0 and end.censored


def test_hitting_cases():
    g = make_grid(1.0, 0.1)
    const = SamplePath(g, np.full(g.n + 1, 0.7))
    assert hitting_time(const, 0.7) == 0.0
    lin = SamplePath(g, g.times())
    assert hitting_time(lin, 0.5) == 0.5
    down = SamplePath(g, 1.0 - g.times())
    assert hitting_time(down, 0.0) == 1.0
    assert hitting_time(lin, 5.0) is None
    # levels between grid values resolve to the first point past them
    assert hitting_time(lin, 0.37) == 0.4
    steep = SamplePath(g, 1.0 - 2.0 * g.times())
    assert hitting_time(steep, -0.5) == 0.8
    assert hitting_time(down, -0.5) is None        # never reaches it
    # identically zero path hits 0 at once
    assert hitting_time(SamplePath(g, np.zeros(g.n + 1)), 0.0) == 0.0
    # an exact interior visit is the hit, not the step after it
    assert hitting_time(path([2.0, 1.0, 0.0, -1.0], dt=1.0), 0.0) == 2.0
    assert hitting_time(path([2.0, 0.0, 0.0, 1.0], dt=1.0), 0.0) == 1.0


def test_hitting_monotone_under_horizon_extension():
    rng = np.random.default_rng(11)
    vals = np.concatenate([[0.0], np.cumsum(rng.standard_normal(400)) * 0.1])
    short = path(vals[:201], dt=0.01)
    full = path(vals, dt=0.01)
    for a in (0.3, -0.2, 1.5):
        t_short = hitting_time(short, a)
        if t_short is not None:
            assert hitting_time(full, a) == t_short


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=20),
       st.lists(st.floats(-5, 5), min_size=2, max_size=20))
def test_concat_prefix_exact(xs, ys):
    ys = [xs[-1]] + ys[1:]         # force matching endpoints
    x, y = path(xs), path(ys)
    z = concat(x, y)
    assert np.array_equal(z.values[: len(xs) - 1], x.values[:-1])
    assert np.array_equal(shift(z, x.grid.t_max).values, y.values)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 50), st.integers(0, 49))
def test_shift_indexing(n, k):
    k = min(k, n - 1)
    vals = np.arange(n + 1, dtype=float)
    x = path(vals, dt=0.25)
    s = shift(x, k * 0.25)
    assert np.array_equal(s.values, vals[k:])
