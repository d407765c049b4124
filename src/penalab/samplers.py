"""Exact-in-law path samplers and the importance-weighted sampler for the
sigma-finite bridge/Bessel measure.

Each law has one row builder, ``_bm_values``, ``_bridge_values`` and
``_bessel3_values``, which fills one path's values from one generator.  The
SamplePath samplers, the sigma-finite draw and the chunk passes of
``estimator`` (``bm_chunk_pass``, ``bessel_chunk_pass``) all build their rows
with it, so a law is drawn by the same operations wherever it is used.  The
exit-density product side builds no rows: it reads one grid value per
factor and draws that value's Gaussian law directly.

Reproducibility contract: one Philox substream per path index, keyed by
(master_seed, stream_index).  Identical (master_seed, stream_index, config)
reproduce a path bit-for-bit regardless of batching or thread count.  Inside
one sigma-finite draw the consumption order is fixed: bridge length, bridge
normals, global sign, Bessel normals.  Because the Bessel normals come last,
a draw cut at a horizon index (``sample_W(..., need=k)``) is a bit-exact
prefix of the full draw; it serves functionals that read the path only up
to max(index(u), k), and its grid is the prefix's, not the horizon's.  With
k = 0 the draw stops at the end of the bridge: w-oracle's rows read only
g = u, and it redraws the first 64 of those draws in full to check that the
last exit equals u.  Every draw also carries its sign eps.  The leg
eps * R, with R a BES(3) from 0, is continuous and tends to eps * infinity,
so path + x hits 0 on it exactly when x's sign is not eps: tau0 reads only
a need=0 draw and its sign.

Two proposals are available for the bridge-length integral du / sqrt(2 pi u):

* ``gamma(theta)`` - Gamma(1/2, theta); weight sqrt(theta/2) exp(u/theta).
  Finite variance for functionals dominated by C exp(-alpha g) with
  alpha > 1/(2 theta); the caller declares alpha and the pairing is checked
  at configuration time.
* ``heavy(theta)`` - the square of a half-Cauchy of scale sqrt(theta),
  truncated to (0, t_max]; weight F(t_max) sqrt(pi/2) (theta+u)/sqrt(theta).
  Polynomially growing weights, for bounded functionals whose conditional
  mean decays only polynomially in g.  The estimator then targets the
  restriction of the measure to {g <= t_max}; the caller owns the tail
  budget for what lies beyond.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .paths import ConfigurationError, SamplePath, TimeGrid, WeightedPath

__all__ = [
    "substream", "WProposal",
    "sample_bm", "sample_bridge", "sample_bessel3", "sample_symmetrized_bessel",
    "sample_W",
]

GAMMA_TAIL_LIMIT = 1e-6


class _PhiloxKey(ISeedSequence):
    """Seed sequence that hands Philox its key words as they are.

    ``Philox(key=...)`` still builds a keyless ``SeedSequence()``, which
    reads OS entropy only to discard it; seeding through this class skips
    that and gives the same key, counter and stream."""

    __slots__ = ("words",)

    def __init__(self, master_seed: int, stream_index: int):
        self.words = (master_seed, stream_index)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key is exactly 2 uint64 words")
        return np.array(self.words, dtype=np.uint64)


def substream(master_seed: int, stream_index: int) -> np.random.Generator:
    """Philox generator keyed by (master_seed, stream_index); its state equals
    that of ``np.random.Philox(key=[master_seed, stream_index])``."""
    return np.random.Generator(np.random.Philox(_PhiloxKey(master_seed, stream_index)))


# -- elementary samplers ------------------------------------------------------


def _bm_values(x0: float, n: int, dt: float, rng: np.random.Generator) -> np.ndarray:
    v = np.empty(n + 1)
    v[0] = 0.0
    np.cumsum(rng.standard_normal(n), out=v[1:])
    v *= np.sqrt(dt)
    v += x0
    v[0] = x0
    return v


def sample_bm(x0: float, grid: TimeGrid, rng: np.random.Generator) -> SamplePath:
    """Brownian motion from x0: independent N(0, dt) increments."""
    return SamplePath(grid=grid, values=_bm_values(x0, grid.n, grid.dt, rng))


def _bridge_values(ku: int, dt: float, rng: np.random.Generator) -> np.ndarray:
    b = np.empty(ku + 1)
    b[0] = 0.0
    np.cumsum(rng.standard_normal(ku), out=b[1:])
    b *= np.sqrt(dt)
    u = ku * dt
    b -= (np.arange(ku + 1) * dt / u) * b[-1]
    b[-1] = 0.0                      # endpoint is a literal zero
    return b


def sample_bridge(u: float, dt: float, rng: np.random.Generator) -> SamplePath:
    """Brownian bridge 0 -> 0 of length u via B_s - (s/u) B_u."""
    if u <= 0:
        raise ValueError("bridge length must be positive")
    ku = int(round(u / dt))
    if ku < 1 or abs(ku * dt - u) > 1e-9 * max(1.0, u):
        raise ValueError("u must be a positive grid multiple of dt")
    grid = TimeGrid(t_max=ku * dt, dt=dt, n=ku)
    return SamplePath(grid=grid, values=_bridge_values(ku, dt, rng))


def _bessel3_values(a: float, n: int, dt: float, rng: np.random.Generator) -> np.ndarray:
    """Norm of a 3-d Brownian motion from (a, 0, 0) at steps 0..n."""
    out = np.empty(n + 1)
    out[0] = a
    w = rng.standard_normal((n, 3))
    np.cumsum(w, axis=0, out=w)
    w *= np.sqrt(dt)
    w[:, 0] += a
    np.sqrt(np.einsum("ij,ij->i", w, w), out=out[1:])
    return out


def sample_bessel3(a: float, grid: TimeGrid, rng: np.random.Generator) -> SamplePath:
    """3-d Bessel process from a >= 0, as the norm of 3-d Brownian motion
    started at (a, 0, 0) - exact in law at the grid points."""
    if a < 0:
        raise ValueError("a must be nonnegative")
    return SamplePath(grid=grid, values=_bessel3_values(a, grid.n, grid.dt, rng))


def sample_symmetrized_bessel(grid: TimeGrid, rng: np.random.Generator) -> SamplePath:
    """eps * Bessel(3) from 0 with an independent fair sign eps."""
    eps = 1.0 if rng.random() < 0.5 else -1.0
    v = eps * _bessel3_values(0.0, grid.n, grid.dt, rng)
    return SamplePath(grid=grid, values=v)


# -- the sigma-finite sampler -------------------------------------------------


@dataclass(frozen=True)
class WProposal:
    """Proposal for the bridge length u against du / sqrt(2 pi u)."""
    kind: str = "gamma"             # "gamma" | "heavy"
    theta: float = 1.0
    alpha: float | None = None      # declared decay of the test functionals

    def __post_init__(self):
        if self.kind not in ("gamma", "heavy"):
            raise ConfigurationError(f"unknown proposal kind {self.kind!r}")
        if self.theta <= 0:
            raise ConfigurationError("theta must be positive")
        if self.kind == "gamma" and self.alpha is not None:
            if not (self.alpha > 1.0 / (2.0 * self.theta)):
                raise ConfigurationError(
                    f"declared decay alpha={self.alpha} needs alpha > 1/(2 theta)"
                    f" = {1.0 / (2.0 * self.theta)}")

    @staticmethod
    def for_decay(alpha: float) -> "WProposal":
        """Gamma proposal matched to functionals dominated by exp(-alpha g)."""
        if alpha <= 0:
            raise ConfigurationError("alpha must be positive")
        return WProposal(kind="gamma", theta=1.0 / alpha, alpha=alpha)

    def validate(self, t_max: float) -> None:
        if self.kind == "gamma":
            tail = math.erfc(math.sqrt(t_max / self.theta))
            if tail >= GAMMA_TAIL_LIMIT:
                raise ConfigurationError(
                    f"horizon t_max={t_max} too small for theta={self.theta}"
                    f" (proposal tail {tail:.2e} >= {GAMMA_TAIL_LIMIT})")

    def draw(self, t_max: float, rng: np.random.Generator) -> tuple[float, float, bool]:
        """Return (u_raw, weight, censored)."""
        if self.kind == "gamma":
            u = float(rng.gamma(0.5, self.theta))
            w = float(np.sqrt(self.theta / 2.0) * np.exp(u / self.theta))
            censored = u > t_max
            return (min(u, t_max), w, censored)
        F = (2.0 / np.pi) * np.arctan(np.sqrt(t_max / self.theta))
        q = rng.random() * F
        u = float(self.theta * np.tan(0.5 * np.pi * q) ** 2)
        u = min(u, t_max)           # guards the open upper edge
        w = float(F * np.sqrt(np.pi / 2.0) * (self.theta + u) / np.sqrt(self.theta))
        return (u, w, False)


def sample_W(proposal: WProposal, grid: TimeGrid, rng: np.random.Generator,
             need: int | None = None) -> WeightedPath:
    """One weighted draw: bridge of sampled length u glued to eps times a
    Bessel(3) path from 0, with the importance weight of the proposal and
    the sign eps.

    The mean of weight * F(path) over draws estimates the sigma-finite
    integral of F (restricted to {g <= t_max} for the heavy proposal).

    With ``need`` the Bessel leg stops at m = min(grid.n, max(index(u), need))
    and the path lives on ``grid.restricted(m)``: its values, weight, u,
    sign and censor flag are a bit-exact prefix of the full draw from the
    same generator.  Such a draw serves only functionals that read indices
    up to m (or the sign); ``path.grid.n`` and
    ``last_exit_time(path).censored`` describe the prefix, not the horizon,
    and must not be read."""
    proposal.validate(grid.t_max)
    u_raw, w, censored = proposal.draw(grid.t_max, rng)
    ku = min(max(int(round(u_raw / grid.dt)), 1), grid.n - 1)
    bridge = _bridge_values(ku, grid.dt, rng)
    eps = 1.0 if rng.random() < 0.5 else -1.0
    m = grid.n if need is None else min(grid.n, max(ku, need))
    bes = _bessel3_values(0.0, m - ku, grid.dt, rng)
    v = np.empty(m + 1)
    v[: ku + 1] = bridge
    np.multiply(bes, eps, out=v[ku:])
    v[ku] = 0.0
    path = SamplePath(grid=grid if m == grid.n else grid.restricted(m), values=v)
    return WeightedPath(path=path, weight=w, u=ku * grid.dt, eps=eps, censored=censored)
