"""Structural behavior of the experiment battery at toy scale."""
import hashlib
import tracemalloc

import numpy as np
import pytest

from penalab import experiments
from penalab.config import RunConfig
from penalab.estimator import derive_seed
from penalab.experiments import BATTERY, REGISTRY, envelope_rows, run_experiment
from penalab.integrands import Integrand
from penalab.samplers import WProposal, substream

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
    # the matched leg reads only g, so its draws stop at index(u); leg 1
    # keeps full draws, on which it checks that the last exit is u
    draws = []
    real = experiments.sample_W

    def spy(prop, grid, rng, need=None):
        wp = real(prop, grid, rng, need=need)
        draws.append((prop, grid, wp))
        return wp

    monkeypatch.setattr(experiments, "sample_W", spy)
    rows = run_experiment("w-oracle", RunConfig(dt=0.01, n_paths=320, master_seed=13))
    assert all(r.verdict == "PASS" for r in rows)
    prop2 = WProposal.for_decay(2.0)
    matched = [(g, wp) for p, g, wp in draws if p == prop2]
    full = [(g, wp) for p, g, wp in draws if p != prop2]
    assert len(matched) == len(full) == 1000
    assert all(wp.path.grid.n == g.index(wp.u) for g, wp in matched)
    assert all(wp.path.grid.n == g.n for g, wp in full)


def test_cm_brownian_runs_one_leg_per_drift(monkeypatch):
    # the oracle row reads the f=unit leg's paths instead of redrawing them
    seeds = []
    real = experiments.run_chunked

    def spy(n_paths, seed, chunk_fn, n_workers=1):
        seeds.append(seed)
        return real(n_paths, seed, chunk_fn, n_workers)

    monkeypatch.setattr(experiments, "run_chunked", spy)
    rows = run_experiment("cm-brownian", TOY)
    assert sorted(seeds) == sorted(derive_seed(TOY.master_seed, f"cm-{f}")
                                   for f in ("f=0", "f=unit"))
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
    # digest was recorded at commit 74b774e, before its Bessel paths came
    # from the shared chunk pass
    rows = envelope_rows(RunConfig(dt=0.01, n_paths=320, master_seed=13))
    key = repr([(r.name, r.lhs.mean.hex(), r.lhs.std_error.hex(), r.rhs.mean.hex(),
                 r.rhs.std_error.hex(), r.tolerance.hex(), r.verdict, r.mode, r.note)
                for r in rows])
    assert hashlib.sha256(key.encode()).hexdigest() == (
        "c8700d4f8e5acdcfb7ac7510daa84e7b04aa9a36612282d616d68306bb1bb050")


def _whole_matrix_factors(cfg, f, u, seed_tag, n_inner):
    # the exit-density product side as it was before it streamed its
    # normals: one (n_inner, ku) bridge matrix and one (n_inner, kr, 3)
    # Bessel tensor per node
    ku = max(1, int(round(u / cfg.dt)))
    u_snap = ku * cfg.dt
    seed_n = derive_seed(cfg.master_seed, f"exit-rhs-{seed_tag}")
    gen_pi = substream(seed_n, 0)
    gen_r = substream(seed_n, 1)
    kf = min(int(round(f.support_end / cfg.dt)), ku)
    W = gen_pi.standard_normal((n_inner, ku))
    W *= np.sqrt(cfg.dt)
    np.cumsum(W, axis=1, out=W)
    if kf == ku:
        b_kf = np.zeros(n_inner)
    else:
        b_kf = W[:, kf - 1] - (kf * cfg.dt / u_snap) * W[:, -1]
    pib = np.exp(b_kf - 0.5 * f.l2sq_partial(u_snap))
    pi_m, pi_se = pib.mean(), pib.std() / np.sqrt(n_inner)
    r = f.support_end - u_snap
    if r <= 0:
        return pi_m, pi_se
    kr = int(round(r / cfg.dt))
    W3 = gen_r.standard_normal((n_inner, kr, 3))
    W3 *= np.sqrt(cfg.dt)
    np.cumsum(W3, axis=1, out=W3)
    end = W3[:, -1]
    bes = np.sqrt(np.einsum("nj,nj->n", end, end))
    epsv = np.where(gen_r.random(n_inner) < 0.5, 1.0, -1.0)
    rb = np.exp(epsv * bes - 0.5 * r)
    r_m, r_se = rb.mean(), rb.std() / np.sqrt(n_inner)
    return pi_m * r_m, abs(pi_m) * r_se + abs(r_m) * pi_se


@pytest.mark.parametrize("block", [7, 60, 240, 3000, experiments._PRODUCT_BLOCK])
def test_exit_factors_stream_keeps_the_whole_matrix_bits(monkeypatch, block):
    # at dt 0.01 a bridge row holds ku = u / dt doubles (read only past
    # u = 1) and a Bessel row 3 (1 - u) / dt: a block holds many rows, one
    # row exactly (ku = 240 at u = 2.4, 3 kr = 60 at u = 0.8), or less than
    # one row
    monkeypatch.setattr(experiments, "_PRODUCT_BLOCK", block)
    cfg = RunConfig(dt=0.01, n_paths=320, master_seed=13)
    f = experiments.F_UNIT
    for j, u in enumerate((0.0, 0.02, 0.2, 0.6, 0.8, 0.98, 1.0, 1.3, 2.4, 6.0)):
        got = experiments._exit_factors(cfg, f, u, f"t{j}", 500)
        want = _whole_matrix_factors(cfg, f, u, f"t{j}", 500)
        assert [v.hex() for v in map(float, got)] == [v.hex() for v in map(float, want)], u


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


def test_tau0_draws_stop_on_demand(monkeypatch):
    # one sample_W call per draw, each stopping where |path| reaches 1
    calls = []
    real = experiments.sample_W

    def spy(prop, grid, rng, need=None, reach=None):
        wp = real(prop, grid, rng, need=need, reach=reach)
        calls.append((need, reach, wp.path.grid.n < grid.n))
        return wp

    monkeypatch.setattr(experiments, "sample_W", spy)
    rows = run_experiment("tau0", TOY)
    assert all(r.verdict == "PASS" for r in rows)
    assert len(calls) == TOY.n_paths // 2
    assert {(need, reach) for need, reach, _ in calls} == {(None, 1.0)}
    assert sum(cut for *_, cut in calls) > 0.9 * len(calls)


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
