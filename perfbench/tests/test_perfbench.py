"""Tests of the benchmark's own logic: python3 -m pytest perfbench/tests"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import job  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402

HEADER = ("experiment,lhs_mean,lhs_se,rhs_mean,rhs_se,tolerance,"
          "censor_rate,n_paths,dt,seed,verdict")


def csv_text(rows):
    """rows: (name, tolerance, verdict)"""
    return "\n".join([HEADER] + [f"{n},1,0.1,1,0,{t},0,2000,0.001,13,{v}"
                                 for n, t, v in rows]) + "\n"


def span(sid, name, t0, t1, parent=None, thread=1):
    return (sid, name, t0, t1, parent, thread)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        span(1, "root", 0.0, 10.0),
        span(2, "a", 1.0, 4.0, parent=1),
        span(3, "b", 3.0, 6.0, parent=1, thread=2),     # overlaps a on another thread
        span(4, "a.inner", 2.0, 3.0, parent=2),
        span(5, "late", 9.0, 12.0, parent=1, thread=2),  # runs past its parent's end
    ]
    selfs = tr.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 9.0))
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_layer_metrics_from_nested_spans():
    spans = [
        span(1, "experiments.tau0", 0.0, 10.0),
        span(2, "estimator.run_chunked", 1.0, 9.0, parent=1),
        span(3, "estimator.chunk_fn", 1.0, 5.0, parent=2, thread=2),
        span(4, "estimator.chunk_fn", 2.0, 8.0, parent=2, thread=3),
        span(5, "estimator.bm_chunk", 2.0, 8.0, parent=4, thread=3),
        span(6, "estimator.eval_matrix", 5.0, 7.5, parent=5, thread=3),
        span(7, "functionals.fk_log_weight", 5.0, 7.0, parent=6, thread=3),
        span(8, "functionals.local_time_signed", 5.5, 6.5, parent=7, thread=3),
    ]
    counters = {"estimator.worker_s": 2 * 8.0, "estimator.paths": 512}
    m = tr.layer_metrics(spans, counters, ("tau0", "markov"))
    assert m["estimator.chunk_fn.s"] == (pytest.approx(10.0), "s")
    assert m["estimator.self_s"][0] == pytest.approx(8.0 - 7.0)     # chunks cover [1, 8]
    assert m["estimator.parallel_eff"][0] == pytest.approx(10.0 / 16.0)
    assert m["estimator.bm_sample_s"][0] == pytest.approx(6.0 - 2.5)
    assert m["functionals.fk_log_weight.s"][0] == pytest.approx(1.0)
    assert m["functionals.fk_log_weight.calls"] == (1, "count")
    assert m["experiments.tau0.s"][0] == pytest.approx(10.0)
    assert m["experiments.markov.s"][0] == 0.0
    assert m["experiments.self_s"][0] == pytest.approx(2.0)
    assert m["estimator.paths"] == (512, "count")


def test_non_pass_row_counts_as_failed():
    expected = ["a", "b", "c"]
    ok = run.parse_results(csv_text([("a", 1, "PASS"), ("b", 1, "PASS"), ("c", 1, "PASS")]))
    assert run.count_failures(ok, expected) == (3, 0, 0)
    bad = run.parse_results(csv_text([("a", 1, "PASS"), ("b", 1, "FAIL"),
                                      ("c", 1, "INCONCLUSIVE")]))
    assert run.count_failures(bad, expected) == (3, 2, 0)
    odd = run.parse_results(csv_text([("a", 1, "PASS"), ("z", 1, "PASS"), ("a", 1, "PASS")]))
    # z unexpected, a repeated, b and c missing
    assert run.count_failures(odd, expected) == (5, 4, 4)


def test_crashed_job_fails_every_row():
    reps = [{"results_csv": csv_text([("a", 1, "PASS"), ("b", 1, "FAIL")])},
            {"results_csv": None}]
    attempted, failed, off_set, digests = run.check_rows(reps, ["a", "b"])
    assert (attempted, failed, off_set, len(digests)) == (4, 3, 2, 1)


def test_experiment_names_may_hold_commas():
    rows = run.parse_results(csv_text([("exit-density/bin(0.0,0.5]", 0.4, "PASS")]))
    assert rows[0]["experiment"] == "exit-density/bin(0.0,0.5]"
    assert rows[0]["tolerance"] == "0.4"
    assert rows[0]["verdict"] == "PASS"


def test_tol_gmean_ignores_rows_with_zero_tolerance():
    rows = run.parse_results(csv_text([("x/1", 0.5, "PASS"), ("x/2", 1.5, "PASS"),
                                       ("x/control", 0, "PASS"), ("y/1", 4.0, "PASS")]))
    assert run.tol_gmean(rows) == pytest.approx((1.0 * 4.0) ** 0.5)


def test_seed_argument_reaches_master_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("PENALAB_SEED", "99")
    from penalab.config import config_from_sources
    cfg = job.make_config(config_from_sources, "weighted", 13, str(tmp_path))
    assert (cfg.master_seed, cfg.n_workers, cfg.n_paths) == (13, 2, job.N_PATHS)
    report = run.run_job(ROOT, tmp_path, "translation", 13, "setup", timeout=120.0)
    assert report["ok"] and report["master_seed"] == 13
    assert report["setup_s"] > 0


def test_philox_words_counts_raw_draws():
    from penalab.samplers import substream
    g = substream(5, 1)
    assert tr.philox_words(g.bit_generator) == 0
    g.bit_generator.random_raw(7)
    assert tr.philox_words(g.bit_generator) == 7


def test_tracer_counts_a_chunked_run_and_uninstalls():
    import penalab.estimator as est
    import penalab.experiments as ex
    originals = (ex.run_chunked, est.substream, ex.substream)
    t = tr.Tracer()
    undo = tr.install(t)
    try:
        chunk = ex.bm_chunk_pass(0.0, 50, 0.01, lambda X: {"v": (X[:, -1], None)})
        accs = ex.run_chunked(600, 3, chunk, 2)
    finally:
        undo()
    assert (ex.run_chunked, est.substream, ex.substream) == originals
    assert accs["v"].n == 600
    t.flush_all_rng()
    m = tr.layer_metrics(t.spans, t.counters, ())
    assert m["estimator.paths"][0] == 600
    assert m["estimator.chunks"][0] == 3
    assert m["estimator.bm_steps"][0] == 600 * 50
    assert m["samplers.substream.calls"][0] == 600
    # one word per normal, plus the ziggurat's rare rejections
    assert 600 * 50 <= m["samplers.rng_words"][0] < 1.05 * 600 * 50
    assert 0 < m["estimator.parallel_eff"][0] <= 1.0


def test_rng_words_repeat_exactly():
    from penalab.paths import make_grid
    from penalab.samplers import WProposal

    def traced_words():
        import penalab.experiments as ex
        t = tr.Tracer()
        undo = tr.install(t)
        try:
            grid = make_grid(2.0, 0.01)
            for i in range(20):
                ex.sample_W(WProposal(kind="heavy", theta=10.0), grid, ex.substream(11, i))
        finally:
            undo()
        t.flush_all_rng()
        return t.counters["samplers.rng_words"], t.counters["samplers.path_steps"]

    first = traced_words()
    assert first == traced_words()
    assert first[1] == 20 * 201
