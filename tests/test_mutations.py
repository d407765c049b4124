"""Mutation audit: each defect planted here on purpose must make the rows
aimed at it FAIL, at toy scale, where the intact code passes them."""
import dataclasses

import numpy as np

from penalab import experiments
from penalab.config import RunConfig
from penalab.experiments import run_experiment
from penalab.paths import SamplePath

TOY = RunConfig(dt=1e-2, t_max=40.0, n_paths=600, master_seed=99)


def _verdicts(name, prefix):
    rows = {r.name: r.verdict for r in run_experiment(name, TOY) if r.name.startswith(prefix)}
    assert rows
    return rows


def test_a_fixed_bessel_sign_fails_every_tau0_row_off_zero(monkeypatch):
    # eps = +1 and |leg| instead of a fair sign: levels x < 0 lose all their
    # mass and levels x > 0 double theirs
    rows = ["tau0/x=-1.0", "tau0/x=-0.5", "tau0/x=0.5", "tau0/x=1.0"]
    assert _verdicts("tau0", "tau0/x=") == dict.fromkeys(rows + ["tau0/x=0"], "PASS")
    real = experiments.sample_W

    def fixed_sign(prop, grid, rng, need=None):
        wp = real(prop, grid, rng, need=need)
        v = np.array(wp.path.values)
        k = wp.path.grid.index(wp.u)
        v[k:] = np.abs(v[k:])
        return dataclasses.replace(wp, path=SamplePath(grid=wp.path.grid, values=v), eps=1.0)

    monkeypatch.setattr(experiments, "sample_W", fixed_sign)
    got = _verdicts("tau0", "tau0/x=")
    assert {k: got[k] for k in rows} == dict.fromkeys(rows, "FAIL")


def test_a_scaled_drift_density_fails_the_zero_drift_controls(monkeypatch):
    # exp_density(0, X) = 1 exactly; scaled by 1 + 1e-3 the f=0 paired
    # differences are no longer 0
    rows = [f"cm-brownian/f=0/{k}" for k in ("F=exp(-g^T)", "F=sigmoid(X1)", "F=exp(-L1)")]
    assert _verdicts("cm-brownian", "cm-brownian/f=0/") == dict.fromkeys(rows, "PASS")
    real = experiments.exp_density
    monkeypatch.setattr(experiments, "exp_density",
                        lambda *a, **k: real(*a, **k) * (1.0 + 1e-3))
    assert _verdicts("cm-brownian", "cm-brownian/f=0/") == dict.fromkeys(rows, "FAIL")
