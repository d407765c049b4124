"""Samplers: laws, determinism, the weighted sigma-finite draw."""
import numpy as np
import pytest

from penalab.functionals import exp_density, phi_a
from penalab.integrands import Integrand
from penalab.paths import (ConfigurationError, hitting_index, last_exit_index,
                           last_exit_time, make_grid)
from penalab.samplers import (WProposal, _PhiloxKey, sample_bessel3, sample_bm,
                              sample_bridge, sample_symmetrized_bessel,
                              sample_W, substream)


def test_substream_determinism():
    a = substream(123, 7).standard_normal(16)
    b = substream(123, 7).standard_normal(16)
    c = substream(123, 8).standard_normal(16)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert substream(123, 7).standard_normal() == a[0] == b[0]


@pytest.mark.parametrize("m, i", [(0, 0), (13, 5), (20070845, 37120),
                                  (2 ** 64 - 1, 2 ** 64 - 1)])
def test_substream_equals_keyed_philox(m, i):
    got = substream(m, i)
    want = np.random.Generator(np.random.Philox(key=[m, i]))
    st_got, st_want = got.bit_generator.state, want.bit_generator.state
    assert st_got.keys() == st_want.keys()
    for k in st_want:
        if k == "state":
            for part in ("counter", "key"):
                np.testing.assert_array_equal(st_got[k][part], st_want[k][part])
        else:
            np.testing.assert_array_equal(st_got[k], st_want[k])
    np.testing.assert_array_equal(got.standard_normal(1000), want.standard_normal(1000))


def test_philox_key_gives_only_two_uint64_words():
    key = _PhiloxKey(13, 5)
    np.testing.assert_array_equal(key.generate_state(2, np.uint64), [13, 5])
    for n_words, dtype in ((2, np.uint32), (1, np.uint64), (4, np.uint64), (4, np.uint32)):
        with pytest.raises(ValueError, match="2 uint64 words"):
            key.generate_state(n_words, dtype)
    with pytest.raises(ValueError, match="2 uint64 words"):
        key.generate_state(2)                   # the default dtype is uint32


def test_bm_moments():
    g = make_grid(1.0, 0.01)
    N = 3000
    ends = np.empty(N)
    incs = []
    for i in range(N):
        p = sample_bm(0.0, g, substream(1, i))
        ends[i] = p.values[-1]
        if i < 500:
            incs.append(np.diff(p.values))
    incs = np.concatenate(incs)
    assert abs(incs.mean()) <= 4 * incs.std() / np.sqrt(len(incs))
    assert abs(incs.var() - 0.01) <= 4 * 0.01 * np.sqrt(2.0 / len(incs))
    assert abs(ends.mean()) <= 4 * ends.std() / np.sqrt(N)
    assert abs(ends.var() - 1.0) <= 4 * np.sqrt(2.0 / N)
    # starting point honored
    q = sample_bm(2.5, g, substream(1, 0))
    assert q.values[0] == 2.5


def test_bm_fixed_seed_reproduces():
    g = make_grid(1.0, 0.01)
    p1 = sample_bm(0.0, g, substream(5, 9))
    p2 = sample_bm(0.0, g, substream(5, 9))
    np.testing.assert_array_equal(p1.values, p2.values)


def test_bridge_endpoints_and_covariance():
    dt = 1e-3
    N = 4000
    samp = np.empty((N, 3))
    for i in range(N):
        p = sample_bridge(1.0, dt, substream(2, i))
        assert p.values[0] == 0.0 and p.values[-1] == 0.0
        samp[i] = p.values[[250, 500, 750]]
    # Cov(X_s, X_t) = s - s t / u at three (s, t) pairs
    for (j, k), want in (((0, 1), 0.125), ((0, 2), 0.0625), ((1, 1), 0.25)):
        prod = samp[:, j] * samp[:, k]
        se = prod.std() / np.sqrt(N)
        assert abs(prod.mean() - want) <= 4 * se + 1e-12
    with pytest.raises(ValueError):
        sample_bridge(0.0, dt, substream(2, 0))
    with pytest.raises(ValueError):
        sample_bridge(0.0015, 0.001, substream(2, 0))   # not a grid multiple


def bessel_mean(a: float, t: float) -> float:
    """m_a(t) = a + int_0^t phi_a(s) ds; the sqrt singularity at 0 is removed
    by the substitution s = r^2."""
    if t == 0.0:
        return float(a)
    if a == 0.0:
        return float(np.sqrt(8.0 * t / np.pi))
    r = np.linspace(0.0, np.sqrt(t), 4001)
    integ = np.empty_like(r)
    integ[0] = 0.0                      # 2 r phi_a(r^2) -> 0 as r -> 0
    integ[1:] = 2.0 * r[1:] * phi_a(a, r[1:] ** 2)
    return float(a + np.trapezoid(integ, r))


def test_bessel_mean_values():
    assert bessel_mean(0.0, 1.0) == pytest.approx(np.sqrt(8 / np.pi))
    assert bessel_mean(2.0, 0.0) == 2.0
    assert bessel_mean(0.0, 4.0) == pytest.approx(np.sqrt(32 / np.pi))
    # quadrature route for a > 0 agrees with direct integration
    from scipy.integrate import quad
    direct = 1.0 + quad(lambda s: phi_a(1.0, s), 0, 1.0)[0]
    assert bessel_mean(1.0, 1.0) == pytest.approx(direct, rel=1e-6)


def test_bessel3_nonnegative_and_mean_curve():
    dt = 1e-3
    g = make_grid(1.0, dt)
    for a in (0.0, 1.0):
        N = 3000
        vals = np.empty((N, 5))
        ks = [100, 250, 500, 750, 1000]
        for i in range(N):
            p = sample_bessel3(a, g, substream(3, i))
            assert np.all(p.values >= 0.0)
            vals[i] = p.values[ks]
        for j, k in enumerate(ks):
            m = bessel_mean(a, k * dt)
            se = vals[:, j].std() / np.sqrt(N)
            assert abs(vals[:, j].mean() - m) <= 4 * se
    with pytest.raises(ValueError):
        sample_bessel3(-1.0, g, substream(3, 0))


def test_bessel3_short_time_drift_from_level():
    # from a = 2 the mean grows like t * phi_a(0+) = t / 2
    dt = 1e-4
    g = make_grid(0.01, dt)
    N = 4000
    ends = np.empty(N)
    for i in range(N):
        ends[i] = sample_bessel3(2.0, g, substream(31, i)).values[-1]
    drift = ends.mean() - 2.0
    se = ends.std() / np.sqrt(N)
    assert abs(drift - 0.01 * 0.5) <= 4 * se + 1e-4


def test_symmetrized_bessel_sign_and_moments():
    dt = 1e-3
    g = make_grid(1.0, dt)
    N = 4000
    ends = np.empty(N)
    for i in range(N):
        p = sample_symmetrized_bessel(g, substream(4, i))
        inner = p.values[1:]
        assert np.all(inner > 0) or np.all(inner < 0)
        ends[i] = p.values[-1]
    se = ends.std() / np.sqrt(N)
    assert abs(ends.mean()) <= 4 * se
    m0 = bessel_mean(0.0, 1.0)
    se_abs = np.abs(ends).std() / np.sqrt(N)
    assert abs(np.abs(ends).mean() - m0) <= 4 * se_abs


def test_wproposal_contracts():
    with pytest.raises(ConfigurationError):
        WProposal(kind="gamma", theta=1.0, alpha=0.4)   # needs alpha > 1/(2 theta)
    WProposal(kind="gamma", theta=1.0, alpha=0.6)
    with pytest.raises(ConfigurationError):
        WProposal(kind="nope")
    with pytest.raises(ConfigurationError):
        WProposal(kind="gamma", theta=-1.0)
    p = WProposal.for_decay(2.0)
    assert p.theta == 0.5
    with pytest.raises(ConfigurationError):
        p.validate(4.0)             # horizon too small for the tail limit
    p.validate(10.0)


def test_w_weight_formula_and_glue():
    grid = make_grid(20.0, 0.01)
    prop = WProposal(kind="gamma", theta=1.0, alpha=1.0)
    for i in range(50):
        wp = sample_W(prop, grid, substream(6, i))
        k = wp.path.grid.index(wp.u)
        assert wp.path.values[k] == 0.0
        le = last_exit_time(wp.path)
        assert le.time == wp.u and not le.censored
    # weight at u = theta equals sqrt(theta/2) * e (raw u, before rounding)
    theta = 1.0
    w_at_theta = np.sqrt(theta / 2.0) * np.exp(1.0)
    u, w, c = WProposal(kind="gamma", theta=theta).draw(40.0, substream(7, 0))
    assert w == pytest.approx(np.sqrt(theta / 2.0) * np.exp(u / theta))
    assert w_at_theta == pytest.approx(np.sqrt(0.5) * np.e)


@pytest.mark.parametrize("prop, t_max", [
    (WProposal(kind="gamma", theta=1.0, alpha=1.0), 20.0),
    (WProposal(kind="heavy", theta=10.0), 3.0),
])
def test_w_need_draw_is_prefix_of_full_draw(prop, t_max):
    grid = make_grid(t_max, 0.01)
    f = Integrand.step([0.0, 1.0], [1.0])
    k_f = int(round(f.support_end / grid.dt))
    for i in range(12):
        full = sample_W(prop, grid, substream(31, i))
        ku = grid.index(full.u)
        for need in (1, ku - 1, ku + 5, grid.n, grid.n + 7):
            cut = sample_W(prop, grid, substream(31, i), need=need)
            m = min(grid.n, max(ku, need))
            assert len(cut.path.values) == m + 1
            np.testing.assert_array_equal(cut.path.values, full.path.values[: m + 1])
            assert (cut.weight, cut.u, cut.censored) == (full.weight, full.u, full.censored)
        # the horizon the exit-density and tail-vanishing legs ask for
        cut = sample_W(prop, grid, substream(31, i), need=k_f)
        for t in (None, 0.0, 1.0, 2.0, 5.0):
            assert exp_density(f, cut.path.values, grid.dt, t=t) == \
                exp_density(f, full.path.values, grid.dt, t=t)


def test_w_need_zero_draw_stops_at_the_bridge_end():
    # need=0 builds the bridge and the sign only; the coarse grid makes ku
    # reach both its floor 1 and the grid.n - 1 clamp
    grid = make_grid(12.0, 0.5)
    reached = set()
    for prop in (WProposal(kind="gamma", theta=1.0), WProposal(kind="gamma", theta=0.5),
                 WProposal(kind="heavy", theta=10.0)):
        for i in range(50):
            full = sample_W(prop, grid, substream(41, i))
            cut = sample_W(prop, grid, substream(41, i), need=0)
            ku = grid.index(full.u)
            reached.add(ku)
            assert cut.path.grid.n == ku
            np.testing.assert_array_equal(cut.path.values, full.path.values[: ku + 1])
            assert (cut.weight, cut.u, cut.censored) == (full.weight, full.u, full.censored)
            assert cut.path.values[-1] == 0.0
            assert last_exit_index(full.path.values) == ku
    assert {1, grid.n - 1} <= reached


def test_heavy_proposal_weight_density_identity():
    # w(u) * q_trunc(u) must reproduce the sigma-finite density m0(u)
    theta, t_max = 10.0, 40.0
    prop = WProposal(kind="heavy", theta=theta)
    F = (2.0 / np.pi) * np.arctan(np.sqrt(t_max / theta))
    for i in range(200):
        u, w, c = prop.draw(t_max, substream(8, i))
        assert 0.0 < u <= t_max and not c
        q = np.sqrt(theta) / (np.pi * np.sqrt(u) * (theta + u)) / F
        assert w * q == pytest.approx(1.0 / np.sqrt(2 * np.pi * u), rel=1e-12)


def test_w_sign_settles_which_levels_the_bessel_leg_hits():
    # eps is the sign of the leg after index(u); tau0's rule reads a need=0
    # draw and eps, and agrees with the full path wherever the leg of the
    # other sign reaches |x| by the horizon; the rule counts the rest as hit,
    # where the full path sees only its bridge (the 0.5-long horizon)
    xs = (-1.0, -0.5, 0.5, 1.0)
    heavy, gamma = WProposal(kind="heavy", theta=10.0), WProposal(kind="gamma", theta=1.0)
    seen = set()
    for prop, grid in ((heavy, make_grid(40.0, 0.01)), (gamma, make_grid(40.0, 0.01)),
                       (heavy, make_grid(0.5, 0.01))):
        for i in range(120):
            full = sample_W(prop, grid, substream(43, i))
            cut = sample_W(prop, grid, substream(43, i), need=0)
            ku = grid.index(full.u)
            leg = full.path.values[ku + 1:]
            assert cut.eps == full.eps == np.sign(leg[0])
            assert np.all(np.sign(leg) == full.eps)
            for x in xs:
                rule = cut.eps == np.sign(x) and hitting_index(cut.path.values + x, 0.0) is None
                never = hitting_index(full.path.values + x, 0.0) is None
                settled = full.eps == np.sign(x) or np.max(np.abs(leg)) >= abs(x)
                if settled:
                    assert rule == never, (prop.kind, grid.t_max, i, x)
                else:
                    assert not rule
                    assert never == (hitting_index(cut.path.values + x, 0.0) is None)
                seen.add((prop.kind, grid.t_max, full.eps, settled))
    assert {(k, 40.0, s, True) for k in ("heavy", "gamma") for s in (-1.0, 1.0)} <= seen
    assert ("heavy", 0.5, -1.0, False) in seen and ("heavy", 0.5, 1.0, False) in seen
