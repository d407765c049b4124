"""Structural behavior of the experiment battery at toy scale."""
import hashlib
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from penalab import estimator, experiments, functionals, samplers
from penalab.config import RunConfig
from penalab.estimator import derive_seed
from penalab.experiments import BATTERY, REGISTRY, envelope_rows, run_experiment
from penalab.functionals import occupation_integral
from penalab.integrands import Integrand, MeasureSpec
from penalab.paths import last_exit_time
from penalab.samplers import WProposal

TOY = RunConfig(dt=1e-2, t_max=40.0, n_paths=600, master_seed=99)


def test_registry_and_battery_shape():
    assert len(BATTERY) == 14
    assert set(BATTERY) <= set(REGISTRY)
    assert "phi-atom" in REGISTRY            # individually runnable
    with pytest.raises(KeyError):
        run_experiment("nope", TOY)


def test_verdicts_are_reproducible():
    a = run_experiment("w-oracle", TOY)
    b = run_experiment("w-oracle", TOY)
    assert [(r.name, r.verdict, r.lhs.mean) for r in a] == \
           [(r.name, r.verdict, r.lhs.mean) for r in b]


def test_w_oracle_matched_leg_draws_only_its_bridge(monkeypatch):
    # every row that reads g reads it as u, so the alpha and matched legs
    # stop each draw at index(u); only the first 64 substreams of the alpha
    # leg's tag are redrawn in full, to check that the last exit is u
    draws, streams = [], []
    real_draw, real_stream = experiments.sample_W, estimator.substream

    def spy_draw(prop, grid, rng, need=None):
        wp = real_draw(prop, grid, rng, need=need)
        draws.append((prop, grid, need, wp))
        return wp

    def spy_stream(seed, index):
        streams.append((seed, index))
        return real_stream(seed, index)

    monkeypatch.setattr(experiments, "sample_W", spy_draw)
    monkeypatch.setattr(estimator, "substream", spy_stream)
    cfg = RunConfig(dt=0.01, n_paths=320, master_seed=13)
    rows = run_experiment("w-oracle", cfg)
    assert all(r.verdict == "PASS" for r in rows)
    assert len(draws) == len(streams) == 2064
    seed = derive_seed(cfg.master_seed, "w-oracle")
    legs = {}
    for (prop, grid, need, wp), stream in zip(draws, streams):
        legs.setdefault((prop, need), []).append((grid, wp, stream))
    alpha = legs.pop((experiments._damped(cfg), 0))
    full = legs.pop((experiments._damped(cfg), None))
    matched = legs.pop((WProposal.for_decay(2.0), 0))
    assert legs == {}
    assert len(alpha) == len(matched) == 1000 and len(full) == 64
    for g, wp, _ in alpha + matched:
        assert wp.path.grid.n == g.index(wp.u)
    assert [s for _, _, s in alpha] == [(seed, i) for i in range(1000)]
    assert [s for _, _, s in full] == [(seed, i) for i in range(64)]
    for (_, cut, _), (g, wp, _) in zip(alpha, full):
        assert wp.path.grid.n == g.n
        assert (cut.u, cut.weight, cut.censored) == (wp.u, wp.weight, wp.censored)


@pytest.mark.parametrize("n_workers", [1, 2])
def test_w_oracle_alpha_leg_keeps_the_full_draw_sums(monkeypatch, n_workers):
    # g equals u on every full draw, so the alpha sums over bridge-only
    # draws keep every bit of the sums over full draws that read g
    cfg = RunConfig(dt=0.01, n_paths=320, master_seed=13, n_workers=n_workers)
    seed = derive_seed(cfg.master_seed, "w-oracle")
    legs = []
    real = experiments.run_chunked

    def spy(n_paths, leg_seed, chunk_fn, workers=1):
        accs = real(n_paths, leg_seed, chunk_fn, workers)
        legs.append((n_paths, leg_seed, accs))
        return accs

    monkeypatch.setattr(experiments, "run_chunked", spy)
    run_experiment("w-oracle", cfg)
    [new] = [accs for n, s, accs in legs if (n, s) == (1000, seed)]

    def full_fn(wp):
        g = last_exit_time(wp.path).time
        return {f"a{a}": wp.weight * np.exp(-a * g) for a in (1.0, 2.0, 5.0)}

    old = real(1000, seed, experiments._w_pass(experiments._damped(cfg), cfg.grid(), full_fn),
               n_workers)
    assert sorted(old) == sorted(new) == ["a1.0", "a2.0", "a5.0"]
    for k in old:
        assert (old[k].s, old[k].q, old[k].n, old[k].cens) == \
               (new[k].s, new[k].q, new[k].n, new[k].cens), k


def test_w_oracle_structural_check_catches_a_broken_bessel_leg(monkeypatch):
    # a Bessel leg whose second half changes sign has a last exit past u on
    # every full draw; the bridge-only draws of the alpha rows never see it
    real = samplers._bessel3_values

    def broken(a, n, dt, rng):
        out = real(a, n, dt, rng)
        if n > 1:
            out[len(out) // 2:] *= -1.0
        return out

    monkeypatch.setattr(samplers, "_bessel3_values", broken)
    rows = run_experiment("w-oracle", RunConfig(dt=0.01, n_paths=320, master_seed=13))
    named = {r.name: r for r in rows}
    mism = named.pop("w-oracle/last-exit-equals-u")
    assert (mism.verdict, mism.lhs.mean) == ("FAIL", 64.0)
    assert len(named) == 4 and all(r.verdict == "PASS" for r in named.values())


def test_cm_brownian_runs_one_leg_per_drift(monkeypatch):
    # both drifts and the oracle row read the f=unit leg's paths: the f=0
    # diffs are exactly 0 on any path, so they need no leg of their own
    seeds = []
    real = experiments.run_chunked

    def spy(n_paths, seed, chunk_fn, n_workers=1):
        seeds.append(seed)
        return real(n_paths, seed, chunk_fn, n_workers)

    monkeypatch.setattr(experiments, "run_chunked", spy)
    rows = run_experiment("cm-brownian", TOY)
    assert seeds == [derive_seed(TOY.master_seed, "cm-f=unit")]
    assert "cm-brownian/oracle/sigmoid-shift" in [r.name for r in rows]


def test_negative_controls_detect_violations():
    rows = run_experiment("nondeg-bound", TOY)
    control = [r for r in rows if "negative-control" in r.name]
    assert control and all(r.verdict == "PASS" for r in control)
    # the control passes exactly because the raw comparison violates
    c = control[0]
    assert c.lhs.mean > c.rhs.mean + c.tolerance


def test_domination_controls():
    rows = run_experiment("domination", TOY)
    named = {r.name: r for r in rows}
    assert named["domination/f=0"].lhs.mean == 0.0
    assert named["domination/f=0/negative-control"].lhs.mean > 0
    assert named["domination/f=signed"].verdict == "PASS"


def test_domination_draws_no_paths(monkeypatch):
    # the rows follow from the hypothesis v0(y + d) >= v1(y), not from draws
    def no_leg(*args, **kwargs):
        raise AssertionError("domination ran a Monte Carlo leg")

    monkeypatch.setattr(experiments, "run_chunked", no_leg)
    rows = run_experiment("domination", TOY)
    assert [r.name for r in rows] == ["domination/f=0", "domination/f=0/negative-control",
                                      "domination/f=signed",
                                      "domination/f=signed/negative-control"]
    assert all(r.verdict == "PASS" and r.tolerance == 0.0 for r in rows)
    assert [r.lhs.mean for r in rows] == [0.0, 1.0, 0.0, 1.0]


def test_domination_reads_the_shifts_that_occur(monkeypatch):
    # a plateau of half-width 1.3 covers the box under the shift 0 of f=0,
    # but not under the signed drift's shifts down to -0.6: at y = -1 it
    # gives v0(-1.6) = 1 - 0.3 / 1.7
    monkeypatch.setattr(experiments, "V_PLATEAU", MeasureSpec.bump(1.3, 3.0))
    named = {r.name: r for r in run_experiment("domination", TOY)}
    assert named["domination/f=0"].verdict == "PASS"
    assert named["domination/f=signed"].verdict == "FAIL"
    assert named["domination/f=signed"].lhs.mean == pytest.approx(0.3 / 1.7, rel=1e-12)


def test_domination_hypothesis_orders_the_occupations_of_paths():
    # what the rows stand for: with a gap of 0, occ(X + h^t; v0) >=
    # occ(X + h^T; v1) on every path and every t; with the shrunk plateau
    # (gap 1) a path through the box breaks it
    dt, n = 0.01, 400
    X = np.concatenate([np.zeros((32, 1)), np.cumsum(
        np.random.default_rng(62).standard_normal((32, n)) * np.sqrt(dt), axis=1)], axis=1)
    f = experiments.F_SIGNED
    hT = f.primitive_on_grid(np.arange(n + 1) * dt, T=1.0)
    occ1 = occupation_integral(X + hT, dt, experiments.V_BOX)
    for t in (1.0, 1.5, 2.0, 4.0):
        Xh = X + f.primitive_on_grid(np.arange(n + 1) * dt, T=t)
        assert np.all(occupation_integral(Xh, dt, experiments.V_PLATEAU) >= occ1)
        shrunk = occupation_integral(Xh, dt, MeasureSpec.bump(inner=0.5, outer=0.6))
        assert np.any(shrunk < occ1)


def test_tail_vanishing_control_present():
    rows = run_experiment("tail-vanishing", TOY)
    names = [r.name for r in rows]
    assert "tail-vanishing/negative-control" in names
    control = [r for r in rows if "negative-control" in r.name][0]
    assert control.verdict == "PASS"


def test_envelope_rows_toy():
    rows = envelope_rows(TOY)
    named = {r.name: r for r in rows}
    assert named["envelope/t=5.0/a=0.0"].lhs.mean == 0.0    # empty tail
    assert named["envelope/quadrature-vs-mc"].verdict == "PASS"
    assert named["envelope/negative-control"].verdict == "PASS"


def test_translation_identity_control_exact_zero():
    rows = run_experiment("translation-identity", TOY)
    named = {r.name: r for r in rows}
    c = named["translation-identity/control-f=0"]
    assert c.lhs.mean == 0.0 and c.lhs.std_error == 0.0
    assert c.verdict == "PASS"


def test_cm_brownian_control_exact_zero():
    rows = run_experiment("cm-brownian", TOY)
    for r in rows:
        if r.name.startswith("cm-brownian/f=0/"):
            assert r.lhs.mean == 0.0 and r.verdict == "PASS"


def test_envelope_rows_keep_their_bytes():
    # envelope_rows is not a CLI experiment, so no results.csv pins it; the
    # digest was re-recorded when abs_gauss_exp_moment moved from
    # scipy.special to math.erfc, which moves its closed-form side
    rows = envelope_rows(RunConfig(dt=0.01, n_paths=320, master_seed=13))
    key = repr([(r.name, r.lhs.mean.hex(), r.lhs.std_error.hex(), r.rhs.mean.hex(),
                 r.rhs.std_error.hex(), r.tolerance.hex(), r.verdict, r.mode, r.note)
                for r in rows])
    assert hashlib.sha256(key.encode()).hexdigest() == (
        "3417cf97172ff49f54d39eb41d9630f0394700e1d78c4a91faa8eb26d573df98")


def test_exit_factors_follow_their_closed_forms():
    # for u >= 1 only the bridge factor is left, E exp(b_kf - 1/2) with
    # Var b_kf = 1 - 1/u; for u < 1 the bridge factor is exp(-u/2) and the
    # Bessel factor E exp(eps R_r - r/2) = E cosh(R_r) e^{-r/2} = 1 + r
    cfg = RunConfig(dt=0.01, n_paths=320, master_seed=13)
    f = experiments.F_UNIT
    for j, u in enumerate((0.3, 0.8, 1.0, 2.4, 6.0)):
        m, se = experiments._exit_factors(cfg, f, u, f"law{j}", 20_000)
        ku = max(1, int(round(u / cfg.dt)))
        u_snap = ku * cfg.dt
        if u_snap >= 1.0:
            want = np.exp(-0.5 / u_snap)
        else:
            r = (int(round(1.0 / cfg.dt)) - ku) * cfg.dt
            want = np.exp(-0.5 * u_snap) * (1.0 + r)
        if u == 1.0:
            # the pinned bridge reads 0: the factor is the constant exp(-1/2)
            assert abs(m - want) <= 1e-12, (u, m)
        else:
            assert abs(m - want) <= 4.0 * se, (u, m, want, se)


def test_exit_factors_draw_only_the_grid_values_they_read(monkeypatch):
    # a bridge row reads b_kf (2 normals) and a Bessel row its end point
    # (3 normals); the sign is a uniform, not a normal
    asked = []

    class Counting:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, size=None, **kw):
            asked.append(int(np.prod(size)))
            return self.gen.standard_normal(size, **kw)

        def __getattr__(self, name):
            return getattr(self.gen, name)

    real = experiments.substream
    monkeypatch.setattr(experiments, "substream", lambda *a: Counting(real(*a)))
    cfg = RunConfig(dt=1e-3, n_paths=320, master_seed=13)
    for j, u in enumerate((0.0, 0.02, 0.5, 0.98, 1.0, 1.3, 6.0)):
        asked.clear()
        experiments._exit_factors(cfg, experiments.F_UNIT, u, f"t{j}", 500)
        assert sum(asked) <= 5 * 500, (u, asked)


def test_exit_density_holds_bounded_blocks():
    # numpy reports its data buffers to tracemalloc; the whole-matrix
    # product side peaked near 24 MB here (a (500, 6000) bridge matrix)
    tracemalloc.start()
    try:
        rows = run_experiment("exit-density", RunConfig(dt=1e-3, n_paths=320, master_seed=13))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 15
    assert peak < 8 * 2 ** 20, peak


def test_tau0_reads_only_the_bridge_and_the_sign(monkeypatch):
    # one need=0 sample_W call per draw, and every Bessel leg is empty
    calls, legs = [], []
    real_draw, real_leg = experiments.sample_W, samplers._bessel3_values

    def spy_draw(prop, grid, rng, need=None):
        calls.append(need)
        return real_draw(prop, grid, rng, need=need)

    def spy_leg(a, n, dt, rng):
        legs.append(n)
        return real_leg(a, n, dt, rng)

    monkeypatch.setattr(experiments, "sample_W", spy_draw)
    monkeypatch.setattr(samplers, "_bessel3_values", spy_leg)
    rows = run_experiment("tau0", TOY)
    assert all(r.verdict == "PASS" for r in rows)
    assert calls == [0] * (TOY.n_paths // 2)
    assert legs == [0] * (TOY.n_paths // 2)


def test_kernel_identity_and_markov_share_one_local_time_per_matrix(monkeypatch):
    # the three V of a chunk matrix read one level-0 local time per cut:
    # kernel-identity one per leg's chunk (6 legs of 1 chunk), markov one
    # per cut of its lhs chunk (the whole path, upto=kT, upto=tau ^ T)
    calls = []
    real = functionals.local_time_signed

    def spy(values, level=0.0, upto=None):
        calls.append((values, level, upto))
        return real(values, level=level, upto=upto)

    monkeypatch.setattr(functionals, "local_time_signed", spy)
    cfg = RunConfig(dt=0.01, n_paths=512, master_seed=13)
    counts = {}
    for name in ("kernel-identity", "markov"):
        calls.clear()
        rows = run_experiment(name, cfg)
        assert all(r.verdict == "PASS" for r in rows), name
        assert {level for _, level, _ in calls} == {0.0}
        keys = [(id(v), None if k is None else np.asarray(k).tobytes()) for v, _, k in calls]
        assert len(set(keys)) == len(keys), name
        counts[name] = len(calls)
    assert counts == {"kernel-identity": 6, "markov": 3}


def test_declared_gamma_proposals_are_the_drawn_ones(monkeypatch):
    # check_horizon reads the declarations, so they must name every gamma
    # proposal an experiment draws from and every nonzero drift whose Wiener
    # integral it takes, and only those
    drawn = []
    real = experiments.sample_W

    def spy(prop, grid, rng, **cut):
        drawn.append(prop)
        return real(prop, grid, rng, **cut)

    snapped = []
    real_steps = Integrand.grid_steps

    def steps_spy(f, dt, k_end):
        snapped.append(f)
        return real_steps(f, dt, k_end)

    monkeypatch.setattr(experiments, "sample_W", spy)
    monkeypatch.setattr(Integrand, "grid_steps", steps_spy)
    cfg = RunConfig(dt=0.05, n_paths=4, master_seed=3)
    for name in REGISTRY:
        drawn.clear()
        snapped.clear()
        run_experiment(name, cfg)
        declared = experiments._GAMMA_PROPOSALS.get(name, lambda cfg: ())(cfg)
        assert {p for p in drawn if p.kind == "gamma"} == set(declared), name
        # Integrand holds arrays and has no hash: compare by identity
        drifts = experiments._DRIFTS.get(name, ())
        assert {id(f) for f in snapped if not f.is_zero} == {id(f) for f in drifts}, name


# -- closed forms of the m0 integrals, against 30-digit mpmath quadrature ----


def _mp_m0(u):
    return 1 / mp.sqrt(2 * mp.pi * u)


@pytest.mark.parametrize("t_max", (0.5, 1.0, 2.0, 2.7, 4.0, 10.0, 40.0, 400.0))
def test_translation_tail_budget_closed_form(t_max):
    # step levels 0.1 .. 3 put c = 2 hbar^2 below and above 1, and t_max
    # below and above both kinks of stay: every piece of the closed form
    with mp.workdps(30):
        for level in (0.1, 0.6, 1.0, 1.5, 3.0):
            c = 2 * mp.mpf(level) ** 2

            def integrand(u):
                stay = min(1, c / max(u - mp.sqrt(u), 1))
                return _mp_m0(u) * (stay / 2 + mp.exp(-mp.sqrt(u)))

            kinks = [s * s for s in ((1 + mp.sqrt(5)) / 2, (1 + mp.sqrt(1 + 4 * c)) / 2)]
            pts = [mp.mpf(t_max)] + sorted(k for k in kinks if k > t_max) + [mp.inf]
            want = mp.quad(integrand, pts)
            got = experiments._translation_tail_budget(Integrand.step([0.0, 1.0], [level]), t_max)
            assert abs(got / want - 1) < 1e-13, (t_max, level)


def test_tau0_tail_closed_form():
    with mp.workdps(30):
        for t_max in (0.5, 2.0, 4.0, 40.0, 400.0):
            for x in (0.1, 0.5, 1.0, 2.0):
                want = mp.quad(lambda u: _mp_m0(u) * (1 - mp.exp(-2 * mp.mpf(x) ** 2 / u)) / 2,
                               [t_max, mp.inf])
                for sx in (x, -x):
                    assert abs(experiments._tau0_tail(sx, t_max) / want - 1) < 1e-13, (t_max, sx)
    assert experiments._tau0_tail(0.0, 40.0) == 0.0


def test_m0_masses_closed_form():
    # w-oracle's right sides and all 12 exit-density bins
    with mp.workdps(30):
        for a in (0.5, 1.0, 2.0, 5.0, 10.0):
            got = experiments._m0_mass(a, 0.0, float("inf"))
            assert got == 1.0 / np.sqrt(2.0 * a)
            want = mp.quad(lambda u: _mp_m0(u) * mp.exp(-a * u), [0, mp.inf])
            assert abs(got / want - 1) < 1e-13, a
        edges = np.arange(0.0, 6.5, 0.5)
        for lo, hi in zip(edges[:-1], edges[1:]):
            want = mp.quad(lambda u: _mp_m0(u) * mp.exp(-u), [lo, hi])
            assert abs(experiments._m0_mass(1.0, lo, hi) / want - 1) < 1e-13, (lo, hi)
