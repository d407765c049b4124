"""Path functionals: local times, Feynman-Kac weights, Wiener integrals,
exponential densities, the Bessel mean inverse and tail envelopes.

Array kernels accept a trailing path axis, so a (batch, n+1) matrix of paths
evaluates in one call.  Integrands are step functions: Wiener integrals
telescope exactly over their pieces.

The local time is the signed-increment estimator derived from the |X - y|
decomposition: exactly unbiased in the mean for Brownian paths at any step
size, with no bandwidth, and identically 0 on paths that never change sign
around the level.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .integrands import Integrand, MeasureSpec

__all__ = [
    "local_time_signed",
    "occupation_integral", "fk_log_weight", "fk_log_weights",
    "wiener_integral", "exp_density",
    "phi_a", "f_phi_integral", "gaussian_envelope",
    "abs_gauss_exp_moment",
]

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
_erf = np.vectorize(math.erf, otypes=[float])


# -- local times -------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _trapezoid_weights(m: int, dt: float) -> np.ndarray:
    """Trapezoid weights of m nodes at step dt (0 for one node), built once
    per (m, dt) and shared read-only."""
    w = np.zeros(m)
    w[1:] += 0.5 * dt
    w[:-1] += 0.5 * dt
    w.setflags(write=False)
    return w


def _cut(values, upto):
    """(paths up to the latest cut, each path's cut as a column, the earliest
    cut) for ``upto``: one node index, one per path, or None for all nodes."""
    v = np.asarray(values)
    k = np.asarray(v.shape[-1] - 1 if upto is None else upto)
    cuts = k.ravel().tolist()
    return v[..., : max(cuts) + 1], k[..., None], min(cuts)


def local_time_signed(values: np.ndarray, level: float = 0.0,
                      upto: int | np.ndarray | None = None) -> np.ndarray:
    """Signed-increment estimator |X_t - y| - |X_0 - y| - sum sgn(X_i - y) dX_i,
    up to node ``upto``: one index for every path or one per path.

    Mean-exact for Brownian increments (the correction sum is a martingale);
    identically 0 on paths that never change sign around the level.  On a
    sigma-finite draw, upto = k + 1 with k = last_exit_index reproduces the
    level-0 full-path value: the step out of the exact 0 at k adds
    2 |v[k+1]| when the Bessel leg is negative, so upto = k is one step
    short.  That full-path value is itself biased as a Feynman-Kac weight:
    the bridge's pinned end and the Bessel step out of 0 are not Brownian
    increments, and exp(-lambda L) is not linear in L, so exp(-lambda L)
    from signed increments misses W[exp(-lambda L)] (z = -4.0 at dt 0.01
    and -3.2 at dt 1e-3 against the exact value, n 20 000, lambda = 1).
    The fix is ROADMAP's open item on Feynman-Kac weights without grid bias.
    """
    v, k, k0 = _cut(values, upto)
    if level != 0.0:                 # x - 0.0 is x, bit for bit
        v = v - level
    dv = v[..., 1:] - v[..., :-1]
    sgn = np.where(v[..., :-1] >= 0, 1.0, -1.0)
    # past the earliest cut, each path keeps the steps before its own cut
    live = np.arange(k0, dv.shape[-1]) < k
    sgn[..., k0:] *= live
    end = v[..., k0] + np.vecdot(dv[..., k0:], live)
    return np.abs(end) - np.abs(v[..., 0]) - np.einsum("...i,...i->...", sgn, dv)


# -- Feynman-Kac weights ------------------------------------------------------

def occupation_integral(values: np.ndarray, dt: float, V: MeasureSpec,
                        upto: int | np.ndarray | None = None) -> np.ndarray:
    """int_0^t v(X_s) ds for the density part of V, trapezoidal, up to node
    ``upto`` as in ``local_time_signed``: the trapezoid to the earliest cut
    plus each path's own steps from there to its cut."""
    v, k, k0 = _cut(values, upto)
    dens = V.density(v)
    live = np.arange(k0, dens.shape[-1] - 1) < k
    steps = np.vecdot(dens[..., k0:-1] + dens[..., k0 + 1:], live)
    return dens[..., : k0 + 1] @ _trapezoid_weights(k0 + 1, dt) + 0.5 * dt * steps


def fk_log_weights(Vs, values: np.ndarray, dt: float,
                   upto: int | np.ndarray | None = None) -> list[np.ndarray]:
    """log K_t(V; X) = -sum_k lambda_k L_t^{x_k} - int_0^t v(X_s) ds for each V
    in Vs, up to node ``upto`` as in ``local_time_signed``; one L per level."""
    lts = {loc: local_time_signed(values, level=loc, upto=upto)
           for loc in {loc for V in Vs for loc, _ in V.atoms}}
    outs = []
    for V in Vs:
        out = 0.0
        for loc, lam in V.atoms:
            out = out - lam * lts[loc]
        if V.has_density:
            out = out - occupation_integral(values, dt, V, upto=upto)
        outs.append(out + np.zeros(np.shape(values)[:-1]))
    return outs


def fk_log_weight(V: MeasureSpec, values: np.ndarray, dt: float, upto=None) -> np.ndarray:
    """log K_t(V; X) for one V, as in ``fk_log_weights``."""
    return fk_log_weights((V,), values, dt, upto)[0]


# -- Wiener integrals ---------------------------------------------------------

def wiener_integral(f: Integrand, values: np.ndarray, dt: float,
                    t: float | None = None) -> np.ndarray:
    """int_0^t f(s) dX_s, as the exact telescoping sum over the steps of f
    (breakpoints snapped to the grid, see ``Integrand.grid_steps``).
    t = None means the full horizon, which must contain the support of f.
    """
    v = np.asarray(values)
    n = v.shape[-1] - 1
    k_end = n if t is None else int(round(t / dt))
    if t is None and f.support_end > n * dt * (1 + 1e-12):
        raise ValueError("support of f exceeds the path horizon")
    out = 0.0
    for c, ka, kb in f.grid_steps(dt, k_end):
        out = out + c * (v[..., kb] - v[..., ka])
    return out + np.zeros(v.shape[:-1])


def exp_density(f: Integrand, values: np.ndarray, dt: float,
                t: float | None = None) -> np.ndarray:
    """E_t(f; X) = exp(int_0^t f dX - 0.5 int_0^t f^2 ds)."""
    n = np.shape(values)[-1] - 1
    tt = n * dt if t is None else t
    return np.exp(wiener_integral(f, values, dt, t=t) - 0.5 * f.l2sq_partial(tt))


# -- the Bessel mean inverse ----------------------------------------------------

def phi_a(a: float, t) -> np.ndarray:
    """Mean inverse of the 3-d Bessel process at time t, started from a.

    a = 0: sqrt(2 / (pi t)); a > 0: erf(a / sqrt(2 t)) / a.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("t must be positive")
    if a < 0:
        raise ValueError("a must be nonnegative")
    if a == 0.0:
        out = np.sqrt(2.0 / (np.pi * t))
    else:
        out = _erf(a / np.sqrt(2.0 * t)) / a
    return out if out.ndim else float(out)


def f_phi_integral(f: Integrand, a: float) -> float:
    """int_0^inf f(s) phi_a(s) ds, with the sqrt singularity absorbed by
    s = r^2; exact per piece when a = 0, piecewise trapezoid otherwise."""
    if f.is_zero:
        return 0.0
    tot = 0.0
    for j, c in enumerate(f.levels):
        if c == 0.0:
            continue
        lo, hi = np.sqrt(f.breaks[j]), np.sqrt(f.breaks[j + 1])
        if a == 0.0:
            tot += c * _SQRT_2_OVER_PI * 2.0 * (hi - lo)
            continue
        r = np.linspace(lo, hi, 2001)
        integ = np.zeros_like(r)
        pos = r > 0
        integ[pos] = 2.0 * r[pos] * phi_a(a, r[pos] ** 2)
        tot += c * np.trapezoid(integ, r)
    return float(tot)


# -- tail transforms and the Gaussian envelope -----------------------------------

def abs_gauss_exp_moment(beta: float) -> float:
    """E exp(beta |N|) = 2 exp(beta^2/2) Phi(beta); for beta < 0 it is
    exp(x^2) erfc(x) with x = -beta / sqrt 2, which overflows past beta ~ -37."""
    if beta >= 0:
        return float(np.exp(beta * beta / 2.0) * (2.0 - math.erfc(beta / np.sqrt(2.0))))
    x = -beta / np.sqrt(2.0)
    return math.exp(x * x) * math.erfc(x)


def gaussian_envelope(f: Integrand, t: float) -> float:
    """E(t) = E[(exp(sigma_t |N| + c f~(t) + sigma_t^2/2) - 1)^2],
    c = sqrt(2/pi).

    Expanding the square reduces this to half-Gaussian exponential moments,
    which is exact; the tests cross-check it by Gauss-Hermite (the |N| kink
    caps plain quadrature at ~0.1% accuracy)."""
    sig = f.tail_l2(t)
    b = _SQRT_2_OVER_PI * f.f_tilde(t) + 0.5 * sig * sig
    if sig == 0.0 and b == 0.0:
        return 0.0
    return float(np.exp(2.0 * b) * abs_gauss_exp_moment(2.0 * sig)
                 - 2.0 * np.exp(b) * abs_gauss_exp_moment(sig) + 1.0)
