"""Command line interface: configuration, experiment registry, persistence.

Subcommands: phi, sample, verify, verify-all, report.  Results go to a fresh
timestamped+seed directory under --out; identical config and seed reproduce
byte-identical CSV bodies.  Exit code 0 iff every verdict is PASS
(any FAIL -> 1, else any INCONCLUSIVE -> 2).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .config import RunConfig, config_from_sources
from .estimator import IdentityCheck
from .experiments import BATTERY, REGISTRY, _damped, check_horizon, run_experiment
from .integrands import DensityPiece, MeasureSpec
from .paths import make_grid
from .samplers import sample_bessel3, sample_bm, sample_bridge, \
    sample_symmetrized_bessel, sample_W, substream
from .sturm import scale_gamma, solve_phi

CSV_HEADER = ("experiment,lhs_mean,lhs_se,rhs_mean,rhs_se,tolerance,"
              "censor_rate,n_paths,dt,seed,verdict")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def check_to_csv_row(c: IdentityCheck, cfg: RunConfig) -> str:
    return ",".join([
        c.name, _fmt(c.lhs.mean), _fmt(c.lhs.std_error), _fmt(c.rhs.mean),
        _fmt(c.rhs.std_error), _fmt(c.tolerance),
        _fmt(max(c.lhs.censor_rate, c.rhs.censor_rate)),
        str(max(c.lhs.n_paths, c.rhs.n_paths)), _fmt(cfg.dt),
        str(cfg.master_seed), c.verdict,
    ])


def _run_dir(cfg: RunConfig) -> Path:
    """A fresh directory per run; mkdir itself claims the name, so two runs
    started in the same second with the same seed get distinct ones."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    base = Path(cfg.out_dir)
    k = 0
    while True:
        suffix = f"-{k}" if k else ""
        d = base / f"{stamp}-seed{cfg.master_seed}{suffix}"
        try:
            d.mkdir(parents=True, exist_ok=False)
            return d
        except FileExistsError:
            k += 1


def _write_atomic(path: Path, text: str) -> None:
    """Write text to a temporary file beside path, then rename it into place,
    so a reader never sees a partial file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8", newline="\n")
    os.replace(tmp, path)


def write_results(run_dir: Path, cfg: RunConfig, rows: list[IdentityCheck]) -> None:
    body = "\n".join([CSV_HEADER] + [check_to_csv_row(c, cfg) for c in rows]) + "\n"
    _write_atomic(run_dir / "results.csv", body)
    summary = {
        "config": cfg.as_dict(),
        "rows": [{
            "experiment": c.name, "lhs_mean": c.lhs.mean, "lhs_se": c.lhs.std_error,
            "rhs_mean": c.rhs.mean, "rhs_se": c.rhs.std_error,
            "tolerance": c.tolerance, "mode": c.mode,
            "censor_rate": max(c.lhs.censor_rate, c.rhs.censor_rate),
            "n_paths": max(c.lhs.n_paths, c.rhs.n_paths),
            "verdict": c.verdict, "note": c.note,
        } for c in rows],
    }
    _write_atomic(run_dir / "summary.json",
                  json.dumps(summary, indent=1, sort_keys=True) + "\n")


def exit_code(verdicts) -> int:
    """0 iff every verdict is PASS; any FAIL -> 1, else any INCONCLUSIVE -> 2."""
    verdicts = set(verdicts)
    if "FAIL" in verdicts:
        return 1
    if "INCONCLUSIVE" in verdicts:
        return 2
    return 0


def _print_rows(rows: list[IdentityCheck]) -> None:
    for c in rows:
        print(f"{c.verdict:12s} {c.name:48s} lhs={c.lhs.mean:.6g} "
              f"rhs={c.rhs.mean:.6g} tol={c.tolerance:.3g}")


_VSPEC_ARGS = {"atom": ("loc", "mass"), "box": ("a", "b", "h"),
               "bump": ("inner", "outer", "h")}


def _parse_vspec(spec: str) -> MeasureSpec:
    """Compact measure syntax: 'atom:<loc>:<mass>' / 'box:<a>:<b>:<h>' /
    'bump:<inner>:<outer>:<h>', comma separated.  A malformed token raises
    ValueError naming it and the numbers its kind takes."""
    atoms = []
    pieces = []
    for tok in spec.split(","):
        kind, *args = tok.strip().split(":")
        if kind not in _VSPEC_ARGS:
            raise ValueError(f"unknown V token {tok!r}; kinds: " + ", ".join(_VSPEC_ARGS))
        names = _VSPEC_ARGS[kind]
        form = ":".join([kind, *(f"<{n}>" for n in names)])
        try:
            vals = [float(p) for p in args]
        except ValueError:
            vals = None
        if vals is None or len(vals) != len(names):
            raise ValueError(f"bad V token {tok!r}: expected {form}")
        if kind == "atom":
            atoms.append(tuple(vals))
        elif kind == "box":
            a, b, h = vals
            pieces.append(DensityPiece(a, b, h, h))
        else:
            inner, outer, h = vals
            pieces.extend([DensityPiece(-outer, -inner, 0.0, h),
                           DensityPiece(-inner, inner, h, h),
                           DensityPiece(inner, outer, h, 0.0)])
    return MeasureSpec(atoms=tuple(atoms), pieces=tuple(pieces))


def cmd_phi(cfg: RunConfig, V: MeasureSpec) -> int:
    sol = solve_phi(V, L=cfg.L, dx=cfg.dx)
    print(f"# C_V = {_fmt(sol.C_V)}")
    print("x,phi,dphi,gamma")
    xs = np.arange(-5.0, 5.0 + 1e-12, 0.5)
    for x in xs:
        print(",".join(_fmt(v) for v in
                       (x, sol.phi_at(x), sol.dphi_at(x), scale_gamma(sol, x))))
    return 0


def cmd_sample(cfg: RunConfig, kind: str, n_sample: int) -> int:
    run_dir = _run_dir(cfg)
    grid = make_grid(min(cfg.t_max, 4.0), cfg.dt)
    cols = []
    meta = []
    for i in range(n_sample):
        gen = substream(cfg.master_seed, i)
        if kind == "bm":
            p = sample_bm(0.0, grid, gen)
        elif kind == "bridge":
            p = sample_bridge(grid.t_max, cfg.dt, gen)
        elif kind == "bessel3":
            p = sample_bessel3(0.0, grid, gen)
        elif kind == "symmetrized-bessel":
            p = sample_symmetrized_bessel(grid, gen)
        elif kind == "w":
            wp = sample_W(_damped(cfg), cfg.grid(), gen)
            p = wp.path
            meta.append((i, wp.weight, wp.u, int(wp.censored)))
        else:
            print(f"unknown sample kind {kind!r}", file=sys.stderr)
            return 1
        cols.append(p.values)
    n_rows = max(len(c) for c in cols)
    lines = ["t," + ",".join(f"path{i}" for i in range(n_sample))]
    for r in range(n_rows):
        vals = [(_fmt(c[r]) if r < len(c) else "") for c in cols]
        lines.append(_fmt(r * cfg.dt) + "," + ",".join(vals))
    _write_atomic(run_dir / "paths.csv", "\n".join(lines) + "\n")
    if meta:
        mlines = ["path,weight,u,censored"] + [
            f"{i},{_fmt(w)},{_fmt(u)},{c}" for i, w, u, c in meta]
        _write_atomic(run_dir / "meta.csv", "\n".join(mlines) + "\n")
    print(f"wrote {run_dir}/paths.csv")
    return 0


def cmd_verify(cfg: RunConfig, names: list[str]) -> int:
    rows: list[IdentityCheck] = []
    for name in names:
        t0 = time.time()
        got = run_experiment(name, cfg)
        rows.extend(got)
        worst = max((c.verdict for c in got),
                    key=lambda v: ("PASS", "INCONCLUSIVE", "FAIL").index(v))
        print(f"[{time.time() - t0:7.1f}s] {name:20s} {len(got):3d} rows, worst: {worst}")
    run_dir = _run_dir(cfg)
    write_results(run_dir, cfg, rows)
    _print_rows(rows)
    print(f"results: {run_dir}/results.csv")
    return exit_code(c.verdict for c in rows)


def cmd_report(paths: list[str]) -> int:
    rows = []
    for p in paths:
        found = sorted(Path(p).rglob("summary.json"))
        if not found:
            print(f"no summary.json under {p}", file=sys.stderr)
            return 1
        for f in found:
            try:
                got = json.loads(f.read_text(encoding="utf-8"))["rows"]
            except (ValueError, KeyError, TypeError):
                got = None
            if not isinstance(got, list):
                print(f"{f}: not a summary (empty, invalid JSON or no rows list)", file=sys.stderr)
                return 1
            rows.extend((str(f.parent.name), r) for r in got)
    print(f"{'run':28s} {'experiment':48s} {'verdict':12s} lhs rhs tol")
    for run, r in rows:
        print(f"{run:28s} {r['experiment']:48s} {r['verdict']:12s} "
              f"{r['lhs_mean']:.6g} {r['rhs_mean']:.6g} {r['tolerance']:.3g}")
    return exit_code(r["verdict"] for _, r in rows)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="penalab",
                                 description="sigma-finite path measure laboratory")
    ap.add_argument("--config", help="flat key=value config file")
    ap.add_argument("--dt", type=float)
    ap.add_argument("--n", type=int, dest="n_paths")
    ap.add_argument("--seed", type=int, dest="master_seed")
    ap.add_argument("--theta", type=float)
    ap.add_argument("--out", dest="out_dir")
    ap.add_argument("--workers", type=int, dest="n_workers")
    sub = ap.add_subparsers(dest="command", required=True)
    p_phi = sub.add_parser("phi", help="solve and print the normalizer table")
    p_phi.add_argument("vspec", help="e.g. 'atom:0:2' or 'box:-1:1:1'")
    p_s = sub.add_parser("sample", help="write path CSVs")
    p_s.add_argument("kind", choices=["bm", "bridge", "bessel3",
                                      "symmetrized-bessel", "w"])
    p_s.add_argument("--paths", type=int, default=8)
    p_v = sub.add_parser("verify", help="run named experiments")
    p_v.add_argument("names", nargs="+", choices=sorted(REGISTRY))
    sub.add_parser("verify-all", help="run the full battery")
    p_r = sub.add_parser("report", help="aggregate summary.json files")
    p_r.add_argument("dirs", nargs="+")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "report":
        return cmd_report(args.dirs)
    overrides = {k: getattr(args, k, None)
                 for k in ("dt", "n_paths", "master_seed", "theta", "out_dir",
                           "n_workers")}
    try:
        cfg = config_from_sources(args.config, overrides)
        V = _parse_vspec(args.vspec) if args.command == "phi" else None
        if args.command == "sample" and args.paths < 1:
            raise ValueError(f"--paths must be at least 1, got {args.paths}")
        if args.command == "sample" and args.kind == "w":
            _damped(cfg).validate(cfg.t_max)
        if args.command == "verify-all":
            args.names = BATTERY
        if args.command in ("verify", "verify-all"):
            check_horizon(args.names, cfg)
    except (ValueError, OSError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 1
    if args.command == "phi":
        return cmd_phi(cfg, V)
    if args.command == "sample":
        return cmd_sample(cfg, args.kind, args.paths)
    if args.command in ("verify", "verify-all"):
        return cmd_verify(cfg, list(dict.fromkeys(args.names)))
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
