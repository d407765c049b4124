"""One benchmark job in a fresh process: set up penalab, run `cmd_verify` once.

    python3 perfbench/job.py --root ROOT --workload NAME --seed N --out DIR \
        --spawned-at T --mode {setup,run,trace} --report FILE [--workers N]

`--spawned-at` is the parent's `time.monotonic()` just before it started
this process, so `setup_s` covers interpreter start, importing penalab,
numpy and scipy, and resolving the config.  `run` then times `cmd_verify`
from its start until `results.csv` is written; `trace` does the same with
the tracer installed and writes the spans to `DIR/trace.json`.  The report
is one JSON object written to FILE.  `setup` stops after set-up.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

T_MAX = 40.0
N_PATHS = 2000
DEFAULT_SEED = 20070845

# every experiment of penalab.experiments.REGISTRY, pinned here so that a
# registry change shows up as a row-set mismatch instead of a silent new load
ALL_EXPERIMENTS = (
    "phi-atom", "w-oracle", "penal-limit", "kernel-identity", "markov", "tau0",
    "cm-brownian", "translation-identity", "exit-density", "convex-moments",
    "nondeg-bound", "tail-vanishing", "domination", "tail-transform", "dichotomy",
)

WORKLOADS = {
    # the whole user command on short paths: every layer works, per-call
    # overhead shows, and it is the only load where sturm and
    # MeasureSpec.density matter
    "battery": {"experiments": ALL_EXPERIMENTS, "dt": 0.01, "n_workers": 1},
    # sigma-finite draws that read only a prefix of each path, on 2 workers:
    # sample_W dominates, so horizon-on-demand and the pool show here
    "weighted": {"experiments": ("w-oracle", "exit-density", "tail-vanishing"),
                 "dt": 1e-3, "n_workers": 2},
    # the headline identity: functionals over full paths, serial
    "translation": {"experiments": ("translation-identity",), "dt": 1e-3, "n_workers": 1},
}


def make_config(config_from_sources, workload: str, seed: int, out_dir: str):
    """The RunConfig of one job.  The seed argument is authoritative: the
    PENALAB_SEED environment override is not consulted."""
    w = WORKLOADS[workload]
    overrides = {"dt": w["dt"], "t_max": T_MAX, "n_paths": N_PATHS, "master_seed": seed,
                 "n_workers": w["n_workers"], "out_dir": out_dir}
    return config_from_sources(None, overrides, env={})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--workers", type=int, help="override the workload's worker count")
    ap.add_argument("--report", required=True)
    args = ap.parse_args(argv)

    src = Path(args.root, "src").resolve()
    sys.path.insert(0, str(src))
    import penalab
    if Path(penalab.__file__).resolve().parent != src / "penalab":
        raise SystemExit(f"imported penalab from {penalab.__file__}, not from {src}")
    import penalab.cli as cli
    from penalab.config import config_from_sources

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
        config_from_sources = penalab.config.config_from_sources

    cfg = make_config(config_from_sources, args.workload, args.seed, args.out)
    if args.workers is not None:
        cfg = cfg.replaced(n_workers=args.workers)
    t_first = time.monotonic()
    report = {"setup_s": t_first - args.spawned_at, "master_seed": cfg.master_seed}
    if args.mode != "setup":
        written = []
        write_results = cli.write_results

        def timed_write_results(*a, **kw):
            out = write_results(*a, **kw)
            written.append(time.monotonic())
            return out

        cli.write_results = timed_write_results
        report["exit_code"] = cli.cmd_verify(cfg, list(WORKLOADS[args.workload]["experiments"]))
        report["wall_s"] = written[0] - t_first
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.dump(Path(args.out, "trace.json"))
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
