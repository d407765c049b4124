"""Estimator harness: determinism, accumulation, verdict logic."""
import numpy as np
import pytest

from penalab.estimator import (CHUNK, EstimatorResult, IdentityCheck,
                               bessel_chunk_pass, bm_chunk_pass, derive_seed,
                               path_pass, run_chunked)


def test_derive_seed_stable_and_distinct():
    a = derive_seed(42, "x")
    assert a == derive_seed(42, "x")
    assert a != derive_seed(42, "y")
    assert a != derive_seed(43, "x")
    assert 0 <= a < 2 ** 63


def _toy_chunk(seed, start, size):
    vals = np.arange(start, start + size, dtype=float) * 1e-8 + 1.0
    cens = np.zeros(size, dtype=bool)
    cens[(start + np.arange(size)) % 97 == 0] = True
    return {"v": (vals, cens)}


def test_run_chunked_worker_invariance():
    n = 5 * CHUNK + 17
    a1 = run_chunked(n, 0, _toy_chunk, n_workers=1)["v"]
    a2 = run_chunked(n, 0, _toy_chunk, n_workers=2)["v"]
    a4 = run_chunked(n, 0, _toy_chunk, n_workers=4)["v"]
    assert a1.s == a2.s == a4.s          # bit-identical partials, fixed order
    assert a1.q == a2.q == a4.q
    assert a1.cens == a2.cens == a4.cens
    r = a1.result()
    assert r.n_paths == n
    assert r.censor_rate == pytest.approx(a1.cens / n)


def test_run_chunked_rejects_empty():
    with pytest.raises(ValueError):
        run_chunked(0, 0, _toy_chunk)
    acc = run_chunked(3, 0, _toy_chunk)["v"]
    assert acc.n == 3


def test_constant_functional_zero_se():
    acc = run_chunked(1000, 0, lambda s, a, m: {"c": (np.ones(m), None)})["c"]
    r = acc.result()
    assert r.mean == 1.0
    assert r.std_error == 0.0


def test_bm_chunk_pass_matches_substreams():
    from penalab.samplers import sample_bm, substream
    from penalab.paths import make_grid
    got = {}

    def ev(X):
        got["X"] = X.copy()
        return {"end": (X[:, -1], None)}

    run_chunked(3, 11, bm_chunk_pass(0.5, 50, 0.01, ev))
    g = make_grid(0.5, 0.01)
    for i in range(3):
        p = sample_bm(0.5, g, substream(11, i))
        np.testing.assert_array_equal(got["X"][i], p.values)


def test_bessel_chunk_pass_matches_substreams():
    from penalab.samplers import sample_bessel3, substream
    from penalab.paths import make_grid
    got = {}

    def ev(X):
        got["X"] = X.copy()
        return {"end": (X[:, -1], None)}

    run_chunked(3, 12, bessel_chunk_pass(1.5, 50, 0.01, ev))
    g = make_grid(0.5, 0.01)
    for i in range(3):
        p = sample_bessel3(1.5, g, substream(12, i))
        np.testing.assert_array_equal(got["X"][i], p.values)


def test_path_pass_shapes():
    from penalab.samplers import substream
    gens = []

    def make(gen):
        idx = len(gens)
        gens.append(gen)
        return {"a": (float(idx), idx % 2 == 0), "b": (1.0, False)}

    accs = run_chunked(10, 0, path_pass(make))
    # path i draws from substream i
    for i, gen in enumerate(gens):
        assert gen.standard_normal() == substream(0, i).standard_normal()
    assert accs["a"].result().mean == pytest.approx(4.5)
    assert accs["a"].result().censor_rate == pytest.approx(0.5)
    assert accs["b"].result().std_error == 0.0


def test_identity_check_verdicts():
    lhs = EstimatorResult(mean=1.0, std_error=0.01, n_paths=100)
    rhs = EstimatorResult.exact(1.02)
    c = IdentityCheck.build("t", lhs, rhs)
    assert c.verdict == "PASS" and c.tolerance == pytest.approx(0.04)
    c2 = IdentityCheck.build("t", lhs, EstimatorResult.exact(1.1))
    assert c2.verdict == "FAIL"
    up = IdentityCheck.build("t", lhs, EstimatorResult.exact(5.0), mode="upper")
    assert up.verdict == "PASS"
    up2 = IdentityCheck.build(
        "t", EstimatorResult(mean=6.0, std_error=0.01, n_paths=100),
        EstimatorResult.exact(5.0), mode="upper")
    assert up2.verdict == "FAIL"
    # a negative control passes exactly when the plain comparison fails
    for plain in (c, c2, up, up2):
        neg = IdentityCheck.must_fail("t", plain.lhs, plain.rhs, mode=plain.mode)
        assert neg.verdict == ("PASS" if plain.verdict == "FAIL" else "FAIL")
        assert neg.tolerance == plain.tolerance


def test_censoring_forces_inconclusive():
    lhs = EstimatorResult(mean=1.0, std_error=0.01, n_paths=100, censor_rate=0.06)
    c = IdentityCheck.build("t", lhs, EstimatorResult.exact(1.0))
    assert c.verdict == "INCONCLUSIVE"
    assert IdentityCheck.must_fail("t", lhs, EstimatorResult.exact(1.0)).verdict == "FAIL"
    ok = EstimatorResult(mean=1.0, std_error=0.01, n_paths=100, censor_rate=0.04)
    assert IdentityCheck.build("t", ok, EstimatorResult.exact(1.0)).verdict == "PASS"


def test_tolerance_model_fields():
    r = EstimatorResult(mean=2.0, std_error=0.1, n_paths=10,
                        discretization_budget=0.05, z_mult=4.0)
    assert r.tolerance_part() == pytest.approx(4 * 0.1 + 0.05)


def test_kahan_reproducibility_against_order():
    # same chunked reduction twice gives bit-identical sums
    rng = np.random.default_rng(3)
    data = rng.standard_normal(10_000) * 1e6

    def chunk(seed, start, size):
        return {"v": (data[start:start + size], None)}

    s1 = run_chunked(10_000, 0, chunk)["v"].s
    s2 = run_chunked(10_000, 0, chunk)["v"].s
    assert s1 == s2
    assert abs(s1 - np.sum(data, dtype=np.longdouble)) / abs(s1) < 1e-12


def test_path_pass_unweighted_constant():
    from penalab.paths import make_grid
    from penalab.samplers import sample_bm
    g = make_grid(0.5, 0.01)

    def make(gen):
        sample_bm(0.0, g, gen)
        return {"v": (1.0, False)}

    r = run_chunked(500, 3, path_pass(make))["v"].result()
    assert r.mean == 1.0 and r.std_error == 0.0 and r.n_paths == 500
    with pytest.raises(ValueError):
        run_chunked(0, 3, path_pass(make))


def test_path_pass_weighted_damped_exit():
    from penalab.paths import last_exit_time, make_grid
    from penalab.samplers import WProposal, sample_W
    g = make_grid(40.0, 0.01)
    prop = WProposal(kind="gamma", theta=1.0, alpha=1.0)

    def make(gen):
        wp = sample_W(prop, g, gen)
        return {"v": (wp.weight * np.exp(-last_exit_time(wp.path).time), wp.censored)}

    r = run_chunked(2500, 4, path_pass(make))["v"].result(budget=0.01)
    assert abs(r.mean - 2 ** -0.5) <= 4 * r.std_error + 0.01
