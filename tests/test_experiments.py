"""Structural behavior of the experiment battery at toy scale."""
import hashlib

import pytest

from penalab import experiments
from penalab.config import RunConfig
from penalab.estimator import derive_seed
from penalab.experiments import BATTERY, REGISTRY, envelope_rows, run_experiment
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
