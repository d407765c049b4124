"""Run configuration: flat key=value files, env/flag overrides, validation."""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace

from .paths import TimeGrid, make_grid

__all__ = ["RunConfig", "parse_config_file", "config_from_sources"]

# the smallest n_paths that leaves every Monte Carlo leg (n_paths // 4 at the
# least) at least one path
MIN_PATHS = 4


@dataclass(frozen=True)
class RunConfig:
    dt: float = 1e-3
    t_max: float = 40.0
    n_paths: int = 100_000
    master_seed: int = 20070845
    theta: float = 1.0          # gamma proposal scale for exp(-g)-damped functionals
    n_workers: int = 1
    out_dir: str = "penalab-out"

    def __post_init__(self):
        for key in ("dt", "t_max", "theta"):
            val = getattr(self, key)
            if not (math.isfinite(val) and val > 0):
                raise ValueError(f"{key} must be finite and positive, got {val}")
        if self.n_paths < MIN_PATHS:
            raise ValueError(f"n_paths must be at least {MIN_PATHS}, got {self.n_paths}:"
                             " the smallest legs run n_paths // 4 paths")
        if self.n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if not (0 <= self.master_seed < 2 ** 64):
            # it keys a Philox substream as one uint64 word
            raise ValueError("master_seed must lie in [0, 2**64)")
        self.grid()                 # t_max must be an integer multiple of dt

    def grid(self) -> TimeGrid:
        """The full-horizon time grid, t_max / dt steps."""
        return make_grid(self.t_max, self.dt)

    def replaced(self, **kw) -> "RunConfig":
        return replace(self, **kw)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_INT_KEYS = {"n_paths", "master_seed", "n_workers"}
_STR_KEYS = {"out_dir"}


def parse_config_file(path: str) -> dict:
    """Flat key=value lines; '#' starts a comment; unknown and repeated
    keys rejected."""
    known = {f.name for f in fields(RunConfig)}
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in out:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = _coerce(key, val)
    return out


def _coerce(key: str, val: str):
    if key in _STR_KEYS:
        return val
    if key in _INT_KEYS:
        return int(val)
    return float(val)


_CORE_KEYS = ("dt", "t_max", "n_paths", "master_seed")


def config_from_sources(file_path: str | None = None, overrides: dict | None = None,
                        env: dict | None = None) -> RunConfig:
    """File keys, then CLI overrides, then the PENALAB_SEED env variable.

    A config file must pin the core keys (dt, t_max, n_paths, master_seed),
    possibly via flags; defaults apply only to flags-without-file usage."""
    env = os.environ if env is None else env
    kw: dict = {}
    if file_path is not None:
        kw.update(parse_config_file(file_path))
    if overrides:
        kw.update({k: v for k, v in overrides.items() if v is not None})
    if "PENALAB_SEED" in env:
        kw["master_seed"] = int(env["PENALAB_SEED"])
    if file_path is not None:
        missing = [k for k in _CORE_KEYS if k not in kw]
        if missing:
            raise ValueError(f"config file {file_path} leaves core keys unset: "
                             + ", ".join(missing))
    return RunConfig(**kw)
