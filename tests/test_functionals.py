"""Functionals: local times, Feynman-Kac weights, Wiener integrals,
exponential densities, Bessel mean functions, envelope."""
import numpy as np
import pytest
from scipy import special

from penalab import functionals
from penalab.functionals import (abs_gauss_exp_moment, exp_density, f_phi_integral, fk_log_weight,
                                 fk_log_weights, gaussian_envelope, local_time_signed,
                                 occupation_integral, phi_a, wiener_integral)
from penalab.integrands import Integrand, MeasureSpec
from penalab.paths import SamplePath, hitting_index, last_exit_index, make_grid
from penalab.samplers import sample_W, substream, WProposal

RNG = np.random.default_rng(321)


def bm_matrix(n_paths, n_steps, dt, seed, x0=0.0):
    rng = np.random.default_rng(seed)
    X = np.concatenate(
        [np.full((n_paths, 1), x0),
         x0 + np.cumsum(rng.standard_normal((n_paths, n_steps)) * np.sqrt(dt), axis=1)],
        axis=1)
    return X


def test_local_time_away_from_level_is_zero():
    g = make_grid(1.0, 0.01)
    p = SamplePath(g, np.full(g.n + 1, 5.0))
    assert local_time_signed(p.values) == 0.0


def test_signed_local_time_mean_exact():
    # E exp(-lam L_t) has the closed form erfcx(lam sqrt(t/2)) from 0
    dt, t, lam = 1e-3, 1.0, 1.0
    X = bm_matrix(6000, int(t / dt), dt, seed=44)
    lt = local_time_signed(X)
    vals = np.exp(-lam * lt)
    exact = special.erfcx(lam * np.sqrt(t / 2.0))
    se = vals.std() / np.sqrt(len(vals))
    budget = 0.5 * lam * lam * np.sqrt(dt) * exact
    assert abs(vals.mean() - exact) <= 4 * se + budget


def test_signed_local_time_splits_exactly():
    vals = np.concatenate([[0.0], np.cumsum(RNG.standard_normal(400)) * 0.05])
    k = 137
    total = local_time_signed(vals)
    left = local_time_signed(vals, upto=k)
    right = (abs(vals[-1]) - abs(vals[k])
             - np.sum(np.where(vals[k:-1] >= 0, 1, -1) * np.diff(vals[k:])))
    assert total == pytest.approx(left + right, abs=1e-12)


def fk_weight(V, x, t=None):
    """K_t(V; x), at the horizon when t is None."""
    k = None if t is None else x.grid.index(t)
    return float(np.exp(fk_log_weight(V, x.values, x.dt, upto=k)))


def test_fk_weight_trivial_cases():
    g = make_grid(2.0, 0.01)
    p = SamplePath(g, np.zeros(g.n + 1))
    assert fk_weight(MeasureSpec(), p, 2.0) == 1.0
    far = SamplePath(g, np.full(g.n + 1, 5.0))
    assert fk_weight(MeasureSpec.point(0.0, 3.0), far, 2.0) == 1.0
    # box density along the zero path: occupation = t exactly
    got = fk_weight(MeasureSpec.box(-1, 1, 1), p, 2.0)
    assert got == pytest.approx(np.exp(-2.0), rel=1e-12)


def test_fk_weight_multiplicative_on_concat():
    dt = 0.01
    gen = substream(99, 0)
    b = np.concatenate([[0.0], np.cumsum(gen.standard_normal(100)) * np.sqrt(dt)])
    b -= np.linspace(0, 1, 101) * b[-1]
    b[-1] = 0.0
    y = np.concatenate([[0.0], np.cumsum(np.abs(gen.standard_normal(150))) * 0.02])
    # a bridge on [0, 1] glued at its endpoint 0.0 to a path on [1, 2.5]
    z = SamplePath(make_grid(2.5, dt), np.concatenate([b[:-1], y]))
    tail = SamplePath(make_grid(1.5, dt), z.values[100:])
    for V in (MeasureSpec.point(0.0, 1.0), MeasureSpec.box(-0.5, 0.5, 2.0),
              MeasureSpec.points([(-0.3, 1.0), (0.2, 0.5)])):
        whole = fk_weight(V, z)
        left = fk_weight(V, z, 1.0)
        right = fk_weight(V, tail)
        assert whole == pytest.approx(left * right, rel=1e-12)


def test_fk_weight_on_sigma_finite_draw_stops_at_u():
    # after the last zero the sign is constant: no further level-0 time
    grid = make_grid(16.0, 0.01)
    wp = sample_W(WProposal(kind="gamma", theta=1.0, alpha=1.0), grid, substream(5, 3))
    V = MeasureSpec.point(0.0, 1.3)
    ku = wp.path.grid.index(wp.u)
    upto = np.exp(fk_log_weight(V, wp.path.values, 0.01, upto=ku))
    full = fk_weight(V, wp.path)
    assert full == pytest.approx(upto, rel=1e-12)


def test_local_time_cut_after_the_last_exit():
    # on a sigma-finite draw the level-0 local time is complete at index
    # k + 1, k = last_exit_index: the step out of the exact 0 at k still
    # counts, and adds 2 |v[k+1]| when the Bessel leg is negative
    grid = make_grid(20.0, 0.01)
    signs = set()
    for i in range(40):
        v = sample_W(WProposal(kind="heavy", theta=10.0), grid, substream(11, i)).path.values
        k = last_exit_index(v)
        if k >= grid.n - 1:
            continue
        signs.add(np.sign(v[k + 1]))
        full = local_time_signed(v)
        assert local_time_signed(v, upto=k + 1) == pytest.approx(full, abs=1e-12)
        if v[k + 1] < 0:
            cut = local_time_signed(v, upto=k)
            assert full - cut == pytest.approx(2.0 * abs(v[k + 1]), abs=1e-12)
            assert abs(full - cut) > 0.0
    assert signs == {-1.0, 1.0}


_CUT_VS = (("box", MeasureSpec.box(-1.0, 1.0, 1.0)),
           ("two-atom", MeasureSpec.points([(-0.5, 1.0), (0.5, 2.0)])))


def test_per_path_cut_matches_each_paths_scalar_cut():
    # one cut per path is one masked pass; each row must agree with its own
    # scalar cut, including a zero-length cut and a cut at the horizon
    dt = 0.01
    X = bm_matrix(64, 200, dt, seed=57)
    ks = np.random.default_rng(58).integers(0, 201, size=64)
    ks[:4] = (0, 200, 1, 199)
    for level in (0.0, 0.5):
        got = local_time_signed(X, level=level, upto=ks)
        want = [local_time_signed(x, level=level, upto=k) for x, k in zip(X, ks)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    V = MeasureSpec.box(-1.0, 1.0, 1.0)
    got = occupation_integral(X, dt, V, upto=ks)
    want = [occupation_integral(x, dt, V, upto=k) for x, k in zip(X, ks)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    for _, V in _CUT_VS:
        got = fk_log_weight(V, X, dt, upto=ks)
        want = [fk_log_weight(V, x, dt, upto=k) for x, k in zip(X, ks)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    # the same cut for every path, given per path, is the scalar cut
    np.testing.assert_allclose(local_time_signed(X, upto=np.full(64, 120)),
                               local_time_signed(X, upto=120), rtol=0, atol=1e-13)


def test_zero_length_cut_is_exactly_zero():
    dt = 0.1
    x = np.zeros(11)                       # inside the box, where v = 1
    box = MeasureSpec.box(-1.0, 1.0, 1.0)
    assert occupation_integral(x, dt, box, upto=0) == 0.0
    assert occupation_integral(x, dt, box, upto=1) == pytest.approx(dt, abs=1e-15)
    X = bm_matrix(8, 10, dt, seed=59)
    np.testing.assert_array_equal(occupation_integral(X, dt, box, upto=np.zeros(8, int)), 0.0)
    for _, V in _CUT_VS:
        np.testing.assert_array_equal(fk_log_weight(V, X, dt, upto=np.zeros(8, int)), 0.0)
        np.testing.assert_array_equal(fk_log_weight(V, X, dt, upto=0), 0.0)
        np.testing.assert_array_equal(local_time_signed(X, level=0.5, upto=0), 0.0)


def _fk_log_weight_one(V, values, dt, upto=None):
    """log K(V) for one V, computing its own local time per atom: the
    one-V formula, kept as the reference for the shared local times."""
    out = 0.0
    for loc, lam in V.atoms:
        out = out - lam * local_time_signed(values, level=loc, upto=upto)
    if V.has_density:
        out = out - occupation_integral(values, dt, V, upto=upto)
    return out + np.zeros(np.shape(values)[:-1])


def test_fk_log_weights_share_one_local_time_per_level(monkeypatch):
    # nondeg-bound's three V read the level-0 local time once, and each
    # weight keeps the one-V arithmetic 0.0 - lam * L (+ 0) bit for bit
    dt = 0.01
    X = bm_matrix(16, 300, dt, seed=61)
    Vs = (MeasureSpec.point(0.0, 1.0), MeasureSpec.point(0.0, 2.0),
          MeasureSpec.box(-1.0, 1.0, 1.0), *(V for _, V in _CUT_VS))
    for x, upto in ((X, None), (X[3], None), (X, 120), (X, np.arange(16) * 15)):
        for V, got in zip(Vs, fk_log_weights(Vs, x, dt, upto=upto)):
            np.testing.assert_array_equal(got, _fk_log_weight_one(V, x, dt, upto=upto))
            np.testing.assert_array_equal(fk_log_weight(V, x, dt, upto=upto), got)
    levels = []
    real = functionals.local_time_signed

    def spy(values, level=0.0, upto=None):
        levels.append(level)
        return real(values, level=level, upto=upto)

    monkeypatch.setattr(functionals, "local_time_signed", spy)
    fk_log_weights(Vs, X, dt)
    assert sorted(levels) == [-0.5, 0.0, 0.5]


def _log_kernel_after(V, X, dt, k):
    """log K(V) accrued on (k, end] per row, from prefix sums of the signed
    increments and of the trapezoid steps: the formula markov's stopping
    row once built by hand, kept as the oracle for the per-path cut."""
    rows = np.arange(X.shape[0])
    out = np.zeros(X.shape[0])
    for loc, lam in V.atoms:
        v = X - loc
        sgn = np.where(v[:, :-1] >= 0, 1.0, -1.0)
        csum = np.concatenate(
            [np.zeros((X.shape[0], 1)), np.cumsum(sgn * np.diff(X, axis=1), axis=1)], axis=1)
        out -= lam * (np.abs(v[:, -1]) - np.abs(v[rows, k]) - (csum[:, -1] - csum[rows, k]))
    if V.has_density:
        dens = V.density(X)
        occ = np.concatenate(
            [np.zeros((X.shape[0], 1)),
             np.cumsum(0.5 * (dens[:, 1:] + dens[:, :-1]) * dt, axis=1)], axis=1)
        out -= occ[:, -1] - occ[rows, k]
    return out


def test_kernel_after_a_stopping_index_matches_prefix_sums():
    # markov's stopping row: tau ^ T with tau the first visit to 1
    dt, kT = 0.01, 100
    X = bm_matrix(256, 1000, dt, seed=60)
    hits = (hitting_index(row[: kT + 1], 1.0) for row in X)
    k_tau = np.array([kT if k is None else k for k in hits])
    assert 0 < np.count_nonzero(k_tau < kT) < 256
    for V in (MeasureSpec.point(0.0, 1.0), MeasureSpec.point(0.0, 2.0),
              MeasureSpec.box(-1.0, 1.0, 1.0), *(V for _, V in _CUT_VS)):
        got = fk_log_weight(V, X, dt) - fk_log_weight(V, X, dt, upto=k_tau)
        np.testing.assert_allclose(got, _log_kernel_after(V, X, dt, k_tau), rtol=1e-12, atol=1e-12)


def test_wiener_integral_step_exact():
    g = make_grid(2.0, 0.25)
    vals = np.array([0.0, 1.0, -1.0, 2.0, 0.5, 0.5, 3.0, -2.0, 1.0])
    p = SamplePath(g, vals)
    f = Integrand.step([0.0, 1.0], [1.0])
    got = wiener_integral(f, p.values, p.dt)
    assert got == pytest.approx(vals[4] - vals[0], abs=1e-15)
    assert wiener_integral(Integrand.zero(), p.values, p.dt) == 0.0
    with pytest.raises(ValueError):
        wiener_integral(Integrand.step([0.0, 3.0], [1.0]), p.values, p.dt)
    off_grid = Integrand.step([0.0, 0.3], [1.0])
    with pytest.raises(ValueError):
        wiener_integral(off_grid, p.values, p.dt)


def _wiener_loop(f, values, dt, t=None):
    """The per-call loop wiener_integral once was: the bitwise oracle."""
    v = np.asarray(values)
    n = v.shape[-1] - 1
    k_end = n if t is None else int(round(t / dt))
    out = 0.0
    for j, c in enumerate(f.levels):
        if c == 0.0:
            continue
        a, b = f.breaks[j], f.breaks[j + 1]
        ka, kb = int(round(a / dt)), int(round(b / dt))
        if abs(ka * dt - a) > 1e-9 * max(1.0, a) or abs(kb * dt - b) > 1e-9 * max(1.0, b):
            raise ValueError("step breakpoints must lie on the grid")
        ka, kb = min(ka, k_end), min(kb, k_end)
        if kb > ka:
            out = out + c * (v[..., kb] - v[..., ka])
    return out + np.zeros(v.shape[:-1])


def test_wiener_integral_memo_matches_the_per_call_loop():
    dt = 0.01
    X = bm_matrix(5, 300, dt, seed=47)
    fs = (Integrand.step([0.0, 1.0], [1.0]),
          Integrand.step([0.0, 0.5, 1.0, 1.5], [1.0, -0.5, 0.25]),
          Integrand.step([0.0, 1.0, 2.0], [0.6, -0.6]),
          Integrand.step([0.0, 0.5, 1.0, 1.5], [1.0, -0.5, 0.25]).shifted(0.3),
          Integrand.step([0.0, 0.5, 1.0, 2.0], [0.0, 2.0, 0.0]))
    # None, inside a piece, on a break, beyond the support; each twice, so
    # the second call is served from the memo
    for f in fs:
        for t in (None, 0.73, 0.5, 1.0, 1.5, 2.5, None, 0.73, 1.0, 2.5):
            for vals in (X[0], X):
                got = wiener_integral(f, vals, dt, t=t)
                want = _wiener_loop(f, vals, dt, t=t)
                assert np.shape(got) == np.shape(want)
                np.testing.assert_array_equal(np.asarray(got).view(np.uint64),
                                              np.asarray(want).view(np.uint64))


def test_wiener_integral_off_grid_breakpoint_raises_on_every_call():
    f = Integrand.step([0.0, 0.305, 1.0], [1.0, -1.0])
    X = bm_matrix(2, 200, 0.01, seed=48)
    for _ in range(2):
        with pytest.raises(ValueError, match="on the grid"):
            wiener_integral(f, X, 0.01)
        with pytest.raises(ValueError, match="on the grid"):
            wiener_integral(f, X[0], 0.01, t=0.5)


def test_wiener_integral_ito_isometry():
    dt = 1e-3
    X = bm_matrix(4000, 1500, dt, seed=46)
    for f in (Integrand.step([0.0, 1.0], [1.0]),
              Integrand.step([0.0, 0.5, 1.0, 1.5], [1.0, -0.5, 0.25]),
              Integrand.step([0.0, 1.0], [0.7])):
        w = wiener_integral(f, X, dt)
        var = w.var()
        se = np.sqrt(2.0 / len(w)) * var     # var of the variance estimator
        assert abs(var - f.l2_sq) <= 4 * se + 1e-3
        assert abs(w.mean()) <= 4 * w.std() / np.sqrt(len(w))


def test_exp_density_unit_mean_and_multiplicativity():
    dt = 1e-3
    X = bm_matrix(4000, 1000, dt, seed=47)
    f = Integrand.step([0.0, 1.0], [1.0])
    e = exp_density(f, X, dt)
    se = e.std() / np.sqrt(len(e))
    assert abs(e.mean() - 1.0) <= 4 * se
    assert np.all(exp_density(Integrand.zero(), X, dt) == 1.0)
    # exact multiplicativity at a grid split
    t = 0.5
    k = int(t / dt)
    left = exp_density(f, X, dt, t=t)
    right = exp_density(f.shifted(t), X[:, k:], dt)
    np.testing.assert_allclose(left * right, e, rtol=1e-12)


def test_phi_a_closed_forms():
    assert phi_a(0.0, 2.0 / np.pi) == pytest.approx(1.0)
    assert phi_a(1e-6, 0.5) == pytest.approx(phi_a(0.0, 0.5), rel=1e-4)
    # small-time limit 1/a for a > 0
    assert phi_a(2.0, 1e-8) == pytest.approx(0.5, rel=1e-12)
    ts = np.geomspace(1e-3, 30, 50)
    assert np.all(phi_a(1.0, ts) <= phi_a(0.0, ts))
    with pytest.raises(ValueError):
        phi_a(-1.0, 1.0)
    with pytest.raises(ValueError):
        phi_a(1.0, 0.0)


def test_f_phi_integral_exact_vs_quadrature():
    f = Integrand.step([0.0, 1.0], [1.0])
    # a=0 closed form: sqrt(2/pi) * 2 sqrt(1)
    assert f_phi_integral(f, 0.0) == pytest.approx(2.0 * np.sqrt(2 / np.pi))
    from scipy.integrate import quad
    want = quad(lambda s: phi_a(1.5, s), 0, 1.0)[0]
    assert f_phi_integral(f, 1.5) == pytest.approx(want, rel=1e-5)
    assert f_phi_integral(Integrand.zero(), 0.0) == 0.0


def test_phi_a_and_abs_gauss_exp_moment_match_scipy_special():
    # math.erf and scipy's cephes erf differ by a few ulp at most
    ts = np.geomspace(1e-3, 50.0, 200)
    for a in (0.1, 1.0, 3.0):
        want = special.erf(a / np.sqrt(2.0 * ts)) / a
        np.testing.assert_allclose(phi_a(a, ts), want, rtol=1e-13, atol=0)
        assert isinstance(phi_a(a, 0.7), float)
    for b in (0.3, 1.0, -0.5, -5.0):
        want = (np.exp(b * b / 2) * (2 - special.erfc(b / np.sqrt(2))) if b >= 0
                else special.erfcx(-b / np.sqrt(2)))
        assert abs_gauss_exp_moment(b) == pytest.approx(want, rel=1e-13, abs=0)


def test_envelope_closed_form_and_trivial_tail():
    f = Integrand.step([0.0, 1.0], [1.0])
    assert gaussian_envelope(f, 2.0) == 0.0
    sig = f.tail_l2(0.5)
    b = np.sqrt(2 / np.pi) * f.f_tilde(0.5) + 0.5 * sig ** 2
    closed = (np.exp(2 * b) * abs_gauss_exp_moment(2 * sig)
              - 2 * np.exp(b) * abs_gauss_exp_moment(sig) + 1.0)
    assert gaussian_envelope(f, 0.5) == pytest.approx(closed, rel=1e-9)


def test_abs_gauss_exp_moment():
    # E e^{b|N|} via brute force
    z = np.abs(np.random.default_rng(7).standard_normal(400_000))
    for b in (0.3, 1.0, -0.5):
        mc = np.exp(b * z).mean()
        assert abs_gauss_exp_moment(b) == pytest.approx(mc, rel=5e-3)


def test_occupation_integral_matches_local_time_route():
    # occupation identity: time quadrature vs local-time-in-space integral
    dt = 1e-3
    X = bm_matrix(800, 1000, dt, seed=49)
    V = MeasureSpec.box(-1.0, 1.0, 1.0)
    occ = occupation_integral(X, dt, V).mean()
    ys = np.linspace(-1, 1, 41)
    lt = np.mean([local_time_signed(X, level=y).mean() for y in ys])
    assert occ == pytest.approx(lt * 2.0, rel=0.05)


_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(96)


def gaussian_envelope_gh(f: Integrand, t: float) -> float:
    """Gauss-Hermite evaluation of the expectation gaussian_envelope takes
    in closed form."""
    sig = f.tail_l2(t)
    b = np.sqrt(2.0 / np.pi) * f.f_tilde(t) + 0.5 * sig * sig
    if sig == 0.0 and b == 0.0:
        return 0.0
    z = np.sqrt(2.0) * _GH_NODES
    g = (np.exp(sig * np.abs(z) + b) - 1.0) ** 2
    return float(np.dot(_GH_WEIGHTS, g) / np.sqrt(np.pi))


def test_envelope_gh_cross_check():
    f = Integrand.step([0.0, 1.0], [0.5])
    for t in (0.0, 0.5):
        exact = gaussian_envelope(f, t)
        gh = gaussian_envelope_gh(f, t)
        assert gh == pytest.approx(exact, rel=5e-3)
