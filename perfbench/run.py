"""Benchmark of `penalab verify` on three pinned workloads.

    python3 perfbench/run.py --workload {battery,weighted,translation} \
        [--seed N] [--seconds S] [--trace 0|1]

BENCHMARK.json lists `battery` and `weighted`; `translation` can be run
by hand as the control of changes that should not move it.

Run from the root of a source checkout (the one holding `src/penalab`).
Each job is a fresh process (`job.py`) that runs `penalab.cli.cmd_verify`
once into a scratch `out_dir` under `.perfbench_tmp/`, which is removed at
the end.  The load is a closed loop with one client: jobs run one after
another, never overlapping.

`--trace 0` first starts a few set-up-only processes, then repeats the job
while another one still fits in `--seconds`.  It reports the fastest job's
`wall_s`, the medians of `setup_s` and `peak_rss_mb`, and `tol_gmean`.
`--trace 1` runs one untraced and one traced job and reports the per-layer
metrics of the traced one, with the tracing overhead.  Every job's `results.csv` is checked
against the row set in `reference.json`: a row fails when it is missing,
unexpected or not PASS, and a crashed job fails every row.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from job import ALL_EXPERIMENTS, DEFAULT_SEED, WORKLOADS  # noqa: E402
from tracer import layer_metrics  # noqa: E402

SETUP_PROBES = 4         # counted set-up-only processes per untraced run
HARD_LIMIT_S = 170.0     # every job of a run ends by then
REFERENCE = HERE / "reference.json"


def parse_results(text: str) -> list[dict]:
    """Rows of results.csv as dicts.  Fields are not quoted and experiment
    names may hold commas (`bin(0.0,0.5]`), so the name is what is left of
    the other, comma-free columns."""
    header, *lines = text.splitlines()
    cols = header.split(",")
    return [dict(zip(cols, line.rsplit(",", len(cols) - 1))) for line in lines]


def count_failures(rows: list[dict], expected) -> tuple[int, int, int]:
    """(attempted, failed, off_set).  Each output row is one operation, and
    so is each expected row the output lacks.  A row fails when it is
    missing, unexpected, repeated or not PASS; `off_set` counts the failures
    that are not verdicts (missing, unexpected or repeated rows)."""
    expected = set(expected)
    seen: set = set()
    failed = off_set = 0
    for r in rows:
        name = r["experiment"]
        if name not in expected or name in seen:
            off_set += 1
        elif r["verdict"] != "PASS":
            failed += 1
        seen.add(name)
    missing = len(expected - seen)
    return len(rows) + missing, failed + off_set + missing, off_set + missing


def tol_gmean(rows: list[dict]) -> float:
    """Geometric mean over experiments of each experiment's mean tolerance,
    over the rows whose tolerance is above 0.  Averaging within an
    experiment first keeps rare-event rows (sparse bins, far tails), whose
    tolerance swings fivefold between seeds, from dominating."""
    by_exp = defaultdict(list)
    for r in rows:
        tol = float(r["tolerance"])
        if tol > 0:
            by_exp[r["experiment"].split("/")[0]].append(tol)
    return math.exp(statistics.fmean(math.log(statistics.fmean(v)) for v in by_exp.values()))


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env.pop("PENALAB_SEED", None)
    # the job's own --workers threads are the only parallelism
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               TMPDIR=str(work))
    return env


def run_job(root: Path, work: Path, workload: str, seed: int, mode: str,
            timeout: float, workers: int | None = None) -> dict:
    """Start job.py in a fresh process and wait for it.  Returns its report,
    with `results_csv` (text, or None) and `ok` (the job completed)."""
    out = Path(tempfile.mkdtemp(dir=work, prefix=f"{mode}-"))
    report_path = out / "report.json"
    cmd = [sys.executable, str(HERE / "job.py"), "--root", str(root), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--mode", mode,
           "--report", str(report_path)]
    if workers is not None:
        cmd += ["--workers", str(workers)]
    log_path = out / "job.log"
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], stdout=log,
                                  stderr=subprocess.STDOUT, env=child_env(work),
                                  cwd=root, timeout=timeout)
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            rc = None
    report = {"elapsed_s": time.monotonic() - spawned, "ok": False, "results_csv": None}
    if rc == 0 and report_path.is_file():
        report.update(json.loads(report_path.read_text(encoding="utf-8")), ok=True)
    else:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        why = "timed out" if rc is None else f"exited with {rc}"
        print(f"job {mode} {workload} seed={seed} {why}:\n{tail}", file=sys.stderr)
    found = sorted(out.glob("*/results.csv"))
    if found:
        report["results_csv"] = found[0].read_text(encoding="utf-8")
    trace = out / "trace.json"
    if trace.is_file():
        report["trace"] = json.loads(trace.read_text(encoding="utf-8"))
    shutil.rmtree(out, ignore_errors=True)
    return report


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def check_rows(reps: list[dict], expected) -> tuple[int, int, int, set]:
    """Sum (attempted, failed, off_set) over jobs, a job without results
    failing every expected row; also return the set of CSV digests."""
    attempted = failed = off_set = 0
    digests = set()
    for rep in reps:
        text = rep["results_csv"]
        if text is None:
            a = f = o = len(expected)
        else:
            a, f, o = count_failures(parse_results(text), expected)
            digests.add(hashlib.sha256(text.encode("utf-8")).hexdigest())
        attempted += a
        failed += f
        off_set += o
    return attempted, failed, off_set, digests


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="master seed of every job (default %(default)s)")
    ap.add_argument("--seconds", type=float, default=60.0,
                    help="measuring time of an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "penalab" / "cli.py").is_file():
        print(f"{root} holds no penalab source tree (src/penalab); nothing to benchmark",
              file=sys.stderr)
        return 2
    expected = load_reference()["rows"][args.workload]
    start = time.monotonic()
    deadline = start + args.seconds
    hard = start + HARD_LIMIT_S
    (root / ".perfbench_tmp").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root / ".perfbench_tmp"))
    try:
        def job(mode):
            return run_job(root, work, args.workload, args.seed, mode,
                           timeout=max(1.0, hard - time.monotonic()))

        setups = []
        if not args.trace:
            job("setup")                      # fills __pycache__; not counted
            setups = [job("setup") for _ in range(SETUP_PROBES)]
        reps, longest = [], 0.0
        while True:
            rep = job("run")
            reps.append(rep)
            longest = max(longest, rep["elapsed_s"])
            if not rep["ok"] or args.trace or time.monotonic() + longest > deadline:
                break
        traced = job("trace") if args.trace and rep["ok"] else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:                       # another run still uses it
            pass

    checked = reps + ([traced] if traced else [])
    attempted, failed, off_set, digests = check_rows(checked, expected)
    done = [r for r in reps if r["ok"]]
    for i, r in enumerate(done, 1):
        print(f"job {i}: wall_s={r['wall_s']:.4f} setup_s={r['setup_s']:.4f} "
              f"peak_rss_mb={r['peak_rss_mb']:.1f} exit_code={r['exit_code']}")
    if not done or (args.trace and not (traced and traced["ok"])):
        print("no job completed; no metrics", file=sys.stderr)
        return 1
    ref = load_reference()["digests"].get(args.workload, {}).get(str(args.seed))
    for d in sorted(digests):
        status = "no reference for this seed" if ref is None else \
            ("matches the reference" if d == ref else "differs from the reference")
        print(f"results.csv sha256 {d}: {status}")
    print(f"fail_frac = {failed}/{attempted} = {failed / attempted:.4f}")
    for r in parse_results(done[0]["results_csv"]):
        if r["verdict"] != "PASS":
            print(f"{r['verdict']}: {r['experiment']}")
    # a non-PASS verdict is a failed operation, counted in `failed`; the
    # output itself is wrong when rows are missing or foreign, or when the
    # same config and seed gave different bytes
    correct = off_set == 0 and len(digests) == 1 and all(r["ok"] for r in checked)

    # the fastest job: on a shared host, slower jobs are slowed by other
    # tenants, not by the program, so the minimum is the steadiest estimate
    wall = min(r["wall_s"] for r in done)
    if args.trace:
        layers = layer_metrics(traced["trace"]["spans"], traced["trace"]["counters"],
                               ALL_EXPERIMENTS)
        layers["trace.overhead_s"] = (traced["wall_s"] - wall, "s")
        metrics = {k: metric(v, unit) for k, (v, unit) in layers.items()}
    else:
        rows = parse_results(done[0]["results_csv"])
        metrics = {
            "wall_s": metric(wall, "s"),
            "setup_s": metric(statistics.median(
                [r["setup_s"] for r in setups if r["ok"]] + [r["setup_s"] for r in done]), "s"),
            "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in done), "MB"),
            "tol_gmean": metric(tol_gmean(rows), "1"),
        }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
