"""Grids, discretized paths, translation by a drift primitive, random times."""
import numpy as np
import pytest

from penalab.integrands import Integrand
from penalab.paths import (ConfigurationError, SamplePath, TimeGrid, hitting_index,
                           last_exit_time, make_grid)


def path(vals, dt=0.5):
    vals = np.asarray(vals, dtype=float)
    return SamplePath(TimeGrid(t_max=(len(vals) - 1) * dt, dt=dt, n=len(vals) - 1),
                      vals)


def test_make_grid_basic():
    g = make_grid(1.0, 0.5)
    assert g.n == 2
    np.testing.assert_allclose(np.arange(g.n + 1) * g.dt, [0.0, 0.5, 1.0])
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


def test_translate_zero_and_indicator():
    # a path X is translated to X + h, h = f.primitive_on_grid(times, T)
    g = make_grid(2.0, 0.5)
    t = np.arange(g.n + 1) * g.dt
    np.testing.assert_array_equal(Integrand.zero().primitive_on_grid(t), np.zeros(5))
    f = Integrand.step([0.0, 1.0], [1.0])
    np.testing.assert_allclose(f.primitive_on_grid(t), [0.0, 0.5, 1.0, 1.0, 1.0])
    # truncation beyond the support changes nothing
    np.testing.assert_array_equal(f.primitive_on_grid(t, T=1.0), f.primitive_on_grid(t))
    # truncation inside the support freezes the drift
    np.testing.assert_allclose(f.primitive_on_grid(t, T=0.5), [0.0, 0.5, 0.5, 0.5, 0.5])


def test_translate_roundtrip():
    g = make_grid(2.0, 0.01)
    t = np.arange(g.n + 1) * g.dt
    x = np.random.default_rng(5).standard_normal(len(t))
    f = Integrand.step([0.0, 0.4, 1.2], [1.3, -0.7])
    back = (x + f.primitive_on_grid(t)) + Integrand.step(f.breaks, -f.levels).primitive_on_grid(t)
    np.testing.assert_allclose(back, x, rtol=0, atol=1e-9)


def test_last_exit_cases():
    g = make_grid(2.0, 0.5)
    t = np.arange(g.n + 1) * g.dt
    zero = SamplePath(g, np.zeros(g.n + 1))
    le = last_exit_time(zero)
    assert le.time == 2.0 and le.censored
    lin = SamplePath(g, t)
    le = last_exit_time(lin)
    assert le.time == 0.0 and not le.censored
    # never returns to zero, never starts there
    pos = SamplePath(g, 1.0 + t)
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
    t = np.arange(g.n + 1) * g.dt
    const = SamplePath(g, np.full(g.n + 1, 0.7))
    assert hitting_index(const.values, 0.7) * g.dt == 0.0
    lin = SamplePath(g, t)
    assert hitting_index(lin.values, 0.5) * g.dt == 0.5
    down = SamplePath(g, 1.0 - t)
    assert hitting_index(down.values, 0.0) * g.dt == 1.0
    assert hitting_index(lin.values, 5.0) is None
    # levels between grid values resolve to the first point past them
    assert hitting_index(lin.values, 0.37) * g.dt == 0.4
    steep = SamplePath(g, 1.0 - 2.0 * t)
    assert hitting_index(steep.values, -0.5) * g.dt == 0.8
    assert hitting_index(down.values, -0.5) is None        # never reaches it
    # identically zero path hits 0 at once
    assert hitting_index(np.zeros(g.n + 1), 0.0) == 0
    # an exact interior visit is the hit, not the step after it
    assert hitting_index(np.array([2.0, 1.0, 0.0, -1.0]), 0.0) == 2
    assert hitting_index(np.array([2.0, 0.0, 0.0, 1.0]), 0.0) == 1


def test_hitting_monotone_under_horizon_extension():
    rng = np.random.default_rng(11)
    vals = np.concatenate([[0.0], np.cumsum(rng.standard_normal(400)) * 0.1])
    for a in (0.3, -0.2, 1.5):
        k_short = hitting_index(vals[:201], a)
        if k_short is not None:
            assert hitting_index(vals, a) == k_short
