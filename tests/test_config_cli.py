"""Configuration parsing and the command line surface."""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from penalab import cli
from penalab.cli import main
from penalab.config import RunConfig, config_from_sources, parse_config_file


def test_config_defaults_and_validation():
    cfg = RunConfig()
    assert cfg.dt == 1e-3 and cfg.t_max == 40.0 and cfg.n_paths == 100_000
    assert cfg.z_mult == pytest.approx(4.0, abs=1e-9)
    with pytest.raises(ValueError):
        RunConfig(dt=-1.0)
    with pytest.raises(ValueError):
        RunConfig(n_paths=0)
    with pytest.raises(ValueError):
        RunConfig(dt=0.3, t_max=1.0)       # horizon not a multiple of dt


def test_master_seed_must_fit_a_philox_key_word(capsys):
    RunConfig(master_seed=0)
    RunConfig(master_seed=2 ** 64 - 1)
    for bad in (-1, 2 ** 64):
        with pytest.raises(ValueError, match="master_seed"):
            RunConfig(master_seed=bad)
    assert main(["--seed", "-1", "sample", "bm"]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\n dt = 0.002\n n_paths=500 # inline\nmaster_seed=9\n")
    got = parse_config_file(str(p))
    assert got == {"dt": 0.002, "n_paths": 500, "master_seed": 9}
    bad = tmp_path / "bad.cfg"
    bad.write_text("nope=3\n")
    with pytest.raises(ValueError):
        parse_config_file(str(bad))
    bad2 = tmp_path / "bad2.cfg"
    bad2.write_text("just a line\n")
    with pytest.raises(ValueError):
        parse_config_file(str(bad2))


def test_config_file_rejects_duplicate_key(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("dt=0.01\nn_paths=320\nt_max=10\nn_paths=5\n")
    with pytest.raises(ValueError, match=f"{p}:4: duplicate key 'n_paths'"):
        parse_config_file(str(p))


def test_config_file_rejects_unread_key(tmp_path):
    # eps_localtime was a key nothing read; naming it must fail, not be ignored
    p = tmp_path / "run.cfg"
    p.write_text("dt=0.01\nt_max=10\nn_paths=100\nmaster_seed=1\neps_localtime=0.1\n")
    with pytest.raises(ValueError, match="unknown key 'eps_localtime'"):
        config_from_sources(str(p), {}, env={})
    assert "eps_localtime" not in RunConfig().as_dict()


def test_override_precedence(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("dt=0.002\nt_max=10\nn_paths=100\nmaster_seed=1\n")
    cfg = config_from_sources(str(p), {"master_seed": 2}, env={})
    assert cfg.master_seed == 2 and cfg.dt == 0.002
    cfg2 = config_from_sources(str(p), {"master_seed": 2},
                               env={"PENALAB_SEED": "77"})
    assert cfg2.master_seed == 77


def test_config_file_must_pin_core_keys(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("t_max=10\nn_paths=100\nmaster_seed=1\n")   # dt missing
    with pytest.raises(ValueError, match="dt"):
        config_from_sources(str(p), {}, env={})
    # a flag can supply the missing key
    cfg = config_from_sources(str(p), {"dt": 0.01}, env={})
    assert cfg.dt == 0.01


def test_cli_verify_writes_results_and_exit_code(tmp_path):
    rc = main(["--dt", "0.008", "--n", "600", "--seed", "5",
               "--out", str(tmp_path), "verify", "w-oracle"])
    assert rc == 0
    runs = list(tmp_path.iterdir())
    assert len(runs) == 1
    csv = (runs[0] / "results.csv").read_text()
    header = csv.splitlines()[0]
    assert header == ("experiment,lhs_mean,lhs_se,rhs_mean,rhs_se,tolerance,"
                      "censor_rate,n_paths,dt,seed,verdict")
    summary = json.loads((runs[0] / "summary.json").read_text())
    assert summary["config"]["master_seed"] == 5
    assert all(r["verdict"] == "PASS" for r in summary["rows"])


def test_cli_reruns_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        rc = main(["--dt", "0.008", "--n", "400", "--seed", "11",
                   "--out", str(out), "verify", "w-oracle"])
        assert rc == 0
    csv_a = next(a.iterdir()) / "results.csv"
    csv_b = next(b.iterdir()) / "results.csv"
    assert csv_a.read_bytes() == csv_b.read_bytes()


def test_cli_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("PENALAB_SEED", "4242")
    rc = main(["--dt", "0.008", "--n", "300", "--out", str(tmp_path),
               "verify", "tail-transform"])
    assert rc == 0
    summary = json.loads((next(tmp_path.iterdir()) / "summary.json").read_text())
    assert summary["config"]["master_seed"] == 4242


def test_cli_phi_subcommand(capsys):
    rc = main(["phi", "atom:0:2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("# C_V = 0.5")
    line0 = [ln for ln in out.splitlines() if ln.startswith("0,")][0]
    assert float(line0.split(",")[1]) == pytest.approx(0.5, abs=1e-8)


@pytest.mark.parametrize("spec, expected", [
    ("atom:0", "bad V token 'atom:0': expected atom:<loc>:<mass>"),
    ("box:1:2", "bad V token 'box:1:2': expected box:<a>:<b>:<h>"),
    ("wedge:0:1:1", "unknown V token 'wedge:0:1:1'"),
])
def test_cli_phi_rejects_malformed_spec(spec, expected, capsys):
    assert main(["phi", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and expected in err


def test_cli_sample_writes_paths(tmp_path):
    rc = main(["--dt", "0.01", "--seed", "3", "--out", str(tmp_path),
               "sample", "bridge", "--paths", "4"])
    assert rc == 0
    csv = (next(tmp_path.iterdir()) / "paths.csv").read_text().splitlines()
    assert csv[0] == "t,path0,path1,path2,path3"
    last = csv[-1].split(",")
    assert all(float(v) == 0.0 for v in last[1:])  # bridge endpoints


def test_cli_sample_w_meta(tmp_path):
    rc = main(["--dt", "0.01", "--seed", "3", "--out", str(tmp_path),
               "sample", "w", "--paths", "3"])
    assert rc == 0
    run = next(tmp_path.iterdir())
    meta = (run / "meta.csv").read_text().splitlines()
    assert meta[0] == "path,weight,u,censored"
    assert len(meta) == 4


def test_cli_sample_rejects_nonpositive_path_count(tmp_path, capsys):
    for n in ("0", "-3"):
        assert main(["--out", str(tmp_path), "sample", "bm", "--paths", n]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and n in err
    assert list(tmp_path.iterdir()) == []              # no run directory made


def test_cli_rejects_too_few_paths_for_every_leg(tmp_path, capsys):
    # the smallest legs run n_paths // 4 paths: below 4 one of them has none
    for n in ("3", "1"):
        rc = main(["--dt", "0.01", "--n", n, "--out", str(tmp_path), "verify", "tau0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "n_paths must be at least 4" in err
    assert list(tmp_path.iterdir()) == []              # no run directory made
    assert RunConfig(n_paths=4).n_paths == 4


def test_cli_rejects_bad_config(tmp_path, capsys):
    p = tmp_path / "x.cfg"
    p.write_text("dt=-4\n")
    rc = main(["--config", str(p), "verify", "tail-transform"])
    assert rc == 1
    assert not list(tmp_path.glob("*/results.csv"))    # no partial output


def test_cli_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["verify", "not-an-experiment"])


def test_cli_report_aggregates(tmp_path, capsys):
    rc = main(["--dt", "0.008", "--n", "300", "--seed", "5",
               "--out", str(tmp_path), "verify", "tail-transform"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["report", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "tail-transform/exact-4/3" in out


def test_cli_report_without_summary_is_an_error(tmp_path, capsys):
    # a mistyped path must not read as a run whose every verdict is PASS
    for p in (tmp_path / "missing", tmp_path):
        assert main(["report", str(p)]) == 1
        assert capsys.readouterr().err == f"no summary.json under {p}\n"


def test_cli_report_rejects_a_malformed_summary(tmp_path, capsys):
    # empty, not JSON, JSON without a rows list, rows that are not a list
    for i, text in enumerate(("", "{not json", "[1, 2]", '{"config": {}}', '{"rows": 3}')):
        f = tmp_path / f"r{i}" / "summary.json"
        f.parent.mkdir()
        f.write_text(text)
        assert main(["report", str(f.parent)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{f}: ") and err.count("\n") == 1


def test_cli_worker_count_reproduces_means(tmp_path):
    outs = []
    for w in ("1", "2"):
        d = tmp_path / f"w{w}"
        rc = main(["--dt", "0.008", "--n", "512", "--seed", "21",
                   "--workers", w, "--out", str(d), "verify", "w-oracle"])
        assert rc == 0
        run = next(d.iterdir())
        rows = json.loads((run / "summary.json").read_text())["rows"]
        outs.append(((run / "results.csv").read_bytes(), rows))
    assert outs[0] == outs[1]


def test_cli_worker_count_reproduces_bytes(tmp_path):
    # the exit-density product side runs its Simpson nodes on the workers
    bodies = []
    for w in ("1", "2"):
        d = tmp_path / f"w{w}"
        rc = main(["--dt", "0.01", "--n", "320", "--seed", "13", "--workers", w,
                   "--out", str(d), "verify", "exit-density", "tail-vanishing"])
        assert rc == 0
        run = next(d.iterdir())
        assert sorted(p.name for p in run.iterdir()) == ["results.csv", "summary.json"]
        bodies.append((run / "results.csv").read_bytes())
    assert bodies[0] == bodies[1]


def test_verify_deterministic_rows_keep_their_bytes(tmp_path):
    # (experiments, results.csv digest, digest of the summary.json rows);
    # summary.json keeps every float at full precision, so it also pins the
    # last bits that the %.12g of results.csv rounds away
    cases = (
        # phi-atom (the Sturm solver) and tail-transform draw no paths; the
        # csv digest was recorded at commit 0ce91e7, before the solver filled
        # its free runs in closed form, and that rewrite must not move a byte
        (["phi-atom", "tail-transform"],
         "82cae4918edd73517d46062061939eb22912d14cf7a01153b765833d5158152e",
         "23b5288e17d44407ac39be394c7e0e54bca98b48455cd74f9f3832711ceffc6f"),
        # the whole battery, recorded at commit 74b774e, before the samplers
        # and the exit/hit indices were reduced to one copy each
        (cli.BATTERY,
         "cd56073ce0e867fa35ef9b269f8deb550a746b4d34c450712603bd4af0a383ef",
         "c10a23eb1087a38e6bf6cbd3aa24dfa8c37df1d400059f5758d45415af82f318"),
    )
    for k, (names, csv_digest, rows_digest) in enumerate(cases):
        out = tmp_path / str(k)
        cfg = RunConfig(dt=0.01, n_paths=320, master_seed=13, out_dir=str(out))
        assert cli.cmd_verify(cfg, list(names)) == 0
        run = next(out.iterdir())
        body = (run / "results.csv").read_bytes()
        assert hashlib.sha256(body).hexdigest() == csv_digest, names
        rows = json.loads((run / "summary.json").read_text())["rows"]
        rows_json = json.dumps(rows, sort_keys=True).encode()
        assert hashlib.sha256(rows_json).hexdigest() == rows_digest, names


def test_run_dir_same_second_gets_distinct_directories(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.time, "strftime", lambda *a: "20070845-000000")
    cfg = RunConfig(out_dir=str(tmp_path / "out"))
    a, b = cli._run_dir(cfg), cli._run_dir(cfg)
    assert a != b and a.is_dir() and b.is_dir()
    assert a.name == "20070845-000000-seed20070845"
    assert b.name == "20070845-000000-seed20070845-1"
    # another run creates the same name just before this one does
    real_mkdir = Path.mkdir
    claimed = []

    def racing_mkdir(self, *args, **kwargs):
        if not claimed:
            claimed.append(self)
            real_mkdir(self, parents=True)
        return real_mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", racing_mkdir)
    c = cli._run_dir(cfg.replaced(out_dir=str(tmp_path / "race")))
    assert claimed == [tmp_path / "race" / "20070845-000000-seed20070845"]
    assert c.name == "20070845-000000-seed20070845-1"


def test_short_horizon_for_a_gamma_proposal_fails_before_any_experiment(tmp_path, capsys):
    # t_max=4 leaves the theta=1 proposal a tail of 4.7e-3, above the 1e-6
    # limit: no experiment runs, no run directory is made
    p = tmp_path / "run.cfg"
    p.write_text("dt=0.01\nt_max=4\nn_paths=100\nmaster_seed=1\n")
    out = tmp_path / "out"
    for command in (["verify", "phi-atom", "w-oracle"], ["verify-all"],
                    ["sample", "w", "--paths", "2"]):
        assert main(["--config", str(p), "--out", str(out), *command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: horizon t_max=4.0 too small"), err
        assert not out.exists()
    # commands that draw no gamma paths keep any horizon
    assert main(["--config", str(p), "--out", str(out), "sample", "bm", "--paths", "2"]) == 0
    cfg = config_from_sources(str(p), {}, env={})
    cli.check_horizon(["phi-atom", "tau0", "translation-identity", "nondeg-bound"], cfg)
    cli.check_horizon(cli.BATTERY, cfg.replaced(t_max=13.0))
    with pytest.raises(ValueError, match="t_max=10.0 too small"):
        cli.check_horizon(["w-oracle"], cfg.replaced(t_max=10.0))
