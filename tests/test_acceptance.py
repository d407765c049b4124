"""Acceptance battery: one test per criterion, one printed verdict line each.

Scale: by default 20 000 paths per estimator at dt = 1e-3 (statistical
tolerances scale with the measured standard errors, absolute budgets are
pinned).  Set PENALAB_DESK=1 for the full desk scale (100 000 paths), or
PENALAB_ACCEPT_N to choose directly.  Run with `pytest tests/test_acceptance.py -v -s`.
"""
import json
import os

import numpy as np
import pytest

from penalab.cli import main as cli_main
from penalab.config import RunConfig
from penalab.experiments import envelope_rows, run_experiment

_N = int(os.environ.get("PENALAB_ACCEPT_N",
                        "100000" if os.environ.get("PENALAB_DESK") else "20000"))
CFG = RunConfig(dt=1e-3, t_max=40.0, n_paths=_N, master_seed=20070845)

_cache: dict = {}


def rows_of(name):
    if name not in _cache:
        _cache[name] = run_experiment(name, CFG)
    return _cache[name]


def _assert_all_pass(rows, criterion, detail=""):
    bad = [r for r in rows if r.verdict != "PASS"]
    line = f"ACCEPTANCE {criterion}: " + ("PASS" if not bad else "FAIL")
    if detail:
        line += f" - {detail}"
    print(line)
    if bad:
        msg = "\n".join(f"  {r.verdict} {r.name}: lhs={r.lhs.mean:.6g} "
                        f"rhs={r.rhs.mean:.6g} tol={r.tolerance:.3g}" for r in bad)
        pytest.fail(f"criterion {criterion} violated:\n{msg}")


def test_criterion_01_sturm_exactness():
    rows = rows_of("phi-atom")
    named = {r.name: r for r in rows}
    for lam in (0.5, 1.0, 2.0):
        assert named[f"phi-atom/maxerr/lam={lam}"].tolerance == 1e-6
    assert named["phi-atom/oracle/two-atom"].tolerance == 1e-7
    assert named["phi-atom/oracle/three-atom"].tolerance == 1e-7
    _assert_all_pass(rows, 1, "solver matches closed forms at dx=1e-3")


def test_criterion_02_sigma_finite_oracle():
    rows = rows_of("w-oracle")
    named = {r.name: r for r in rows}
    for a in (1.0, 2.0, 5.0):
        r = named[f"w-oracle/alpha={a}"]
        assert r.lhs.discretization_budget == pytest.approx(a * CFG.dt)
    mism = named["w-oracle/last-exit-equals-u"]
    assert mism.lhs.mean == 0.0 and _N // 2 >= 10_000
    _assert_all_pass(rows, 2, "damped last-exit integrals match Gamma closed forms")


def test_criterion_03_penalisation_limit():
    _assert_all_pass(rows_of("penal-limit"), 3,
                     "sqrt(pi t/2) W_x[K_t] near the normalizer at t=25")


def test_criterion_04_kernel_identity_and_markov():
    rows = rows_of("kernel-identity") + rows_of("markov")
    stopping = [r for r in rows if "stopping" in r.name]
    assert len(stopping) == 3
    _assert_all_pass(rows, 4, "kernel identity and Markov transport, Z battery")


def test_criterion_05_never_hitting_mass():
    rows = rows_of("tau0")
    for r in rows:
        assert max(r.lhs.censor_rate, r.rhs.censor_rate) == 0.0
        if "/x=" in r.name and r.lhs.n_paths:
            # the only unverified residual is quadrature roundoff, << tol/10
            assert "analytic tail" in r.note
    _assert_all_pass(rows, 5, "never-hitting mass equals |x|")


def test_criterion_06_translation_identity():
    rows = rows_of("translation-identity")
    combos = [r for r in rows if r.name.startswith("translation-identity/f=")]
    assert len(combos) == 6
    control = [r for r in rows if "control" in r.name][0]
    assert control.lhs.mean == 0.0 and control.lhs.std_error == 0.0
    _assert_all_pass(rows, 6, "translation identity, 6 combos + exact-zero control")


def test_criterion_07_truncated_translation():
    rows = rows_of("translation-identity")
    named = {r.name: r for r in rows}
    inside = named["translation-identity/truncated/T=0.5"]
    beyond = named["translation-identity/truncated/T=3.0"]
    full = named["translation-identity/f=half/V=d0/G=1"]
    assert beyond.lhs.mean == full.lhs.mean      # T beyond support: same values
    _assert_all_pass([inside, beyond], 7, "truncated drift inside and beyond support")


def test_criterion_08_translated_exit_density():
    rows = rows_of("exit-density")
    named = {r.name: r for r in rows}
    spot = named["exit-density/pinned-spot-u=1"]
    # the bridge of length 1 read at its midpoint: exp(s(1 - s)/2 - 1/4), exact
    assert spot.rhs.std_error == 0.0 and spot.lhs.std_error > 0.0
    assert spot.rhs.mean == pytest.approx(np.exp(-0.125), abs=1e-12)
    _assert_all_pass(rows, 8, "binned exit law matches the product formula")


def test_criterion_09_one_sided_suites():
    rows = (rows_of("convex-moments") + rows_of("nondeg-bound")
            + rows_of("tail-vanishing") + rows_of("domination"))
    if "envelope" not in _cache:
        _cache["envelope"] = envelope_rows(CFG)
    rows = rows + _cache["envelope"]
    controls = [r for r in rows if "negative-control" in r.name]
    assert len(controls) == 6
    _assert_all_pass(rows, 9, "convex domination, bounds, vanishing, envelope"
                              " + 6 must-fail controls")


def test_criterion_10_deterministic_analysis():
    rows = rows_of("tail-transform") + rows_of("dichotomy")
    named = {r.name: r for r in rows}
    for lam in (0.01, 0.001):
        assert f"dichotomy/full-space/lam={lam}" in named
    _assert_all_pass(rows, 10, "tail-transform bounds, phi monotonicity,"
                               " 1/lambda divergence")


def test_criterion_11_reproducibility(tmp_path):
    args = ["--dt", "0.01", "--n", "320", "--seed", "13"]
    bodies = []
    for run in ("a", "b"):
        out = tmp_path / run
        rc = cli_main(args + ["--out", str(out), "verify-all"])
        assert rc == 0
        bodies.append((next(out.iterdir()) / "results.csv").read_bytes())
    assert bodies[0] == bodies[1]
    # worker count must not move the means
    means = []
    for w in ("1", "2"):
        out = tmp_path / f"w{w}"
        rc = cli_main(args + ["--workers", w, "--out", str(out),
                              "verify", "w-oracle"])
        assert rc == 0
        rows = json.loads((next(out.iterdir()) / "summary.json").read_text())["rows"]
        means.append({r["experiment"]: r["lhs_mean"] for r in rows})
    for k, v in means[0].items():
        assert means[1][k] == pytest.approx(v, rel=1e-12, abs=1e-15)
    print("ACCEPTANCE 11: PASS - byte-identical reruns, worker-invariant means")
