"""Uniform time grids, discretized paths, and the random times read off them.

Zero detection is by sign change (x_{i-1} * x_i <= 0), never by an
epsilon band: it is parameter-free and exact for the constructed
bridge/Bessel concatenations, whose gluing value is a literal 0.0.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "TimeGrid", "SamplePath", "WeightedPath", "LastExit",
    "make_grid", "last_exit_time", "last_exit_index", "hitting_index",
]

_REL_TOL = 1e-9


class ConfigurationError(ValueError):
    """Raised for inconsistent grid / sampler configuration."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * dt, i = 0..n, with t_n = t_max."""
    t_max: float
    dt: float
    n: int

    def index(self, t: float) -> int:
        """Grid index of t; t must lie on the grid within rounding."""
        k = int(round(t / self.dt))
        if k < 0 or k > self.n or abs(k * self.dt - t) > _REL_TOL * max(1.0, abs(t)):
            raise ValueError(f"{t} is not a grid time")
        return k

    def restricted(self, n: int) -> "TimeGrid":
        return TimeGrid(t_max=n * self.dt, dt=self.dt, n=n)


def make_grid(t_max: float, dt: float) -> TimeGrid:
    if t_max <= 0 or dt <= 0:
        raise ConfigurationError("t_max and dt must be positive")
    ratio = t_max / dt
    n = int(round(ratio))
    if n < 1 or abs(ratio - n) > _REL_TOL * max(1.0, ratio):
        raise ConfigurationError(f"t_max={t_max} is not an integer multiple of dt={dt}")
    return TimeGrid(t_max=float(t_max), dt=float(dt), n=n)


@dataclass(frozen=True)
class SamplePath:
    """One discretized path: values[i] = X_{t_i}."""
    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n + 1,):
            raise ValueError(f"values length {v.shape} does not match grid n={self.grid.n}")
        if not np.all(np.isfinite(v)):
            raise ValueError("path values must be finite")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dt(self) -> float:
        return self.grid.dt


@dataclass(frozen=True)
class WeightedPath:
    """One draw against the sigma-finite measure: path + importance weight.

    u is the sampled bridge length (the last exit time from 0 by
    construction); the path value at index(u) is exactly 0.  eps is the
    sign of the path after index(u), drawn even when that leg is not.
    """
    path: SamplePath
    weight: float
    u: float
    eps: float
    censored: bool = False

    def __post_init__(self):
        if not (self.weight > 0):
            raise ValueError("weight must be positive")
        if self.u < 0:
            raise ValueError("u must be nonnegative")
        k = self.path.grid.index(self.u)
        if self.path.values[k] != 0.0:
            raise ValueError("path must glue exactly at the bridge endpoint")


# -- random times -----------------------------------------------------------

class LastExit(NamedTuple):
    time: float
    censored: bool      # result at t_max: the true last exit may lie beyond


def last_exit_index(values: np.ndarray) -> int:
    """Index of the last zero: the largest i whose straddling pair has
    values[i-1] * values[i] <= 0, resolved to the endpoint that is exactly 0
    when there is one.  Returns 0 when the path never revisits 0."""
    v = np.asarray(values)
    prod = v[:-1] * v[1:]
    hits = np.nonzero(prod <= 0)[0]
    if hits.size == 0:
        return 0
    i = int(hits[-1]) + 1          # pair (i-1, i)
    if v[i] == 0.0:
        return i
    if v[i - 1] == 0.0:
        return i - 1
    return i


def last_exit_time(x: SamplePath) -> LastExit:
    i = last_exit_index(x.values)
    return LastExit(time=i * x.dt, censored=(i == x.grid.n))


def hitting_index(values: np.ndarray, a: float) -> Optional[int]:
    """Index of the first visit to level a (sign change of x - a), or None."""
    v = np.asarray(values) - a
    if v[0] == 0.0:
        return 0
    prod = v[:-1] * v[1:]
    hits = np.nonzero(prod <= 0)[0]
    if hits.size == 0:
        return None
    i = int(hits[0]) + 1
    if v[i - 1] == 0.0:
        return i - 1
    return i
