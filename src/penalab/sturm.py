"""Sturm-Liouville solver for the penalisation normalizer.

Solves phi'' = 2 phi V(dx) in the distributional sense on [-L, L] with slope
boundary conditions phi'(-L) = -1, phi'(+L) = +1, by superposition of two
fundamental solutions integrated left to right (Heun scheme between atoms,
derivative jumps 2 lambda_k phi(x_k) applied exactly at atom nodes) and a
2x2 linear solve for the combination.

Truncation to [-L, L] is exact, not approximate, once L exceeds the support
of V: outside the support phi'' = 0, so the slopes are already constant.

The Heun update runs in Python only at acting steps: a step acts when the
density is nonzero at either of its nodes or an atom sits at its right node.
At every other step (all of them for atomic V away from the atoms, all but
the support for a density) g = 0 on both nodes and no jump follows, so the
update reduces exactly to y += (dx/2) (p + p) with p unchanged: the products
with g are zeros, and adding a zero changes no float but a negative zero,
which the slope-0 and slope-1 starts never produce.  A run of free
steps between two acting steps is therefore one sequential cumsum of that
constant increment, which performs the same additions in the same order as
the step-by-step loop; the tabulated solution is bit-identical to it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrands import MeasureSpec

__all__ = ["PhiSolution", "solve_phi", "scale_gamma", "atomic_phi_oracle", "BOX_L", "DX"]

BOX_L = 50.0                    # the solve box is [-BOX_L, BOX_L]
DX = 1e-3                       # its step


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class PhiSolution:
    """Tabulated solution on [-L, L]: values, left derivatives, scale function."""
    xs: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray            # left one-sided derivative at each node
    C_V: float                  # inf phi, attained on the grid
    gamma_table: np.ndarray     # gamma(x) = int_0^x phi^-2, tabulated on xs

    def phi_at(self, y) -> np.ndarray:
        out = np.interp(y, self.xs, self.phi)
        # exact linear continuation phi ~ C + |y| beyond the solved box
        y = np.asarray(y, dtype=float)
        hi = y > self.xs[-1]
        lo = y < self.xs[0]
        if np.any(hi):
            out = np.where(hi, self.phi[-1] + (y - self.xs[-1]), out)
        if np.any(lo):
            out = np.where(lo, self.phi[0] + (self.xs[0] - y), out)
        return out if out.ndim else float(out)

    def dphi_at(self, y) -> np.ndarray:
        out = np.interp(y, self.xs, self.dphi)
        y = np.asarray(y, dtype=float)
        out = np.where(y > self.xs[-1], 1.0, out)
        out = np.where(y < self.xs[0], -1.0, out)
        return out if out.ndim else float(out)


def _integrate(g: np.ndarray, jump_at: np.ndarray, dx: float,
               y0: float, p0: float) -> tuple[np.ndarray, np.ndarray]:
    """Heun for y'' = g y from the left end, with derivative jumps
    jump_at * y at the nodes: values y and left derivatives p per node.

    Only acting steps (V reaches an end: g != 0 there, or an atom at the
    right end) run the Heun update; each run of free steps between them is
    one cumsum of the constant increment the update reduces to."""
    m = len(g) - 1
    acts = np.flatnonzero((g[:-1] != 0) | (g[1:] != 0) | (jump_at[1:] != 0))
    y = np.empty(m + 1)
    p = np.empty(m + 1)
    y[0], p[0] = y0, p0
    pr = p0 + jump_at[0] * y0
    i = 0                                             # node the next step leaves
    for k in (*acts.tolist(), m):
        if k > i:                                     # free run: steps i .. k-1
            y[i + 1:k + 1] = 0.5 * dx * (pr + pr)
            np.cumsum(y[i:k + 1], out=y[i:k + 1])
            p[i + 1:k + 1] = pr + 0.5 * dx * (0.0 + 0.0)
            pr = p[k] + jump_at[k] * y[k]
        if k == m:
            break
        yc = y[k]
        ye = yc + dx * pr                             # Heun predictor
        pe = pr + dx * g[k] * yc
        y[k + 1] = yc + 0.5 * dx * (pr + pe)
        p[k + 1] = pr + 0.5 * dx * (g[k] * yc + g[k + 1] * ye)
        pr = p[k + 1] + jump_at[k + 1] * y[k + 1]     # atom jump, applied exactly
        i = k + 1
    return y, p


def solve_phi(V: MeasureSpec, L: float = BOX_L, dx: float = DX) -> PhiSolution:
    if V.support_radius() >= L / 2:
        raise SolverError("support of V must lie inside (-L/2, L/2)")
    if V.total_mass() <= 0:
        raise SolverError("V = 0 admits no solution with the slope conditions")
    m = int(round(2 * L / dx))
    xs = -L + np.arange(m + 1) * dx
    dens = V.density(xs) if V.has_density else np.zeros(m + 1)
    g = 2.0 * dens                                    # phi'' = g phi between atoms

    jump_at = np.zeros(m + 1)                         # derivative jump factor 2*lambda
    for loc, lam in V.atoms:
        k = int(round((loc + L) / dx))
        jump_at[k] += 2.0 * lam

    y1, p1 = _integrate(g, jump_at, dx, 1.0, 0.0)
    y2, p2 = _integrate(g, jump_at, dx, 0.0, 1.0)
    A = np.array([[0.0, 1.0], [p1[-1] + jump_at[-1] * y1[-1], p2[-1] + jump_at[-1] * y2[-1]]])
    # no atom sits at +L (support check), so the jump terms at -L/+L vanish
    b = np.array([-1.0, 1.0])
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if abs(det) < 1e-12 * max(1.0, abs(A[1, 0]), abs(A[1, 1])):
        raise SolverError("singular boundary system (is V admissible?)")
    a = np.linalg.solve(A, b)
    phi = a[0] * y1 + a[1] * y2
    dphi = a[0] * p1 + a[1] * p2

    if np.any(phi <= 0):
        raise SolverError("solver produced a nonpositive phi")
    inv2 = 1.0 / (phi * phi)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (inv2[1:] + inv2[:-1]) * dx)])
    k0 = int(round(L / dx))
    gamma = cum - cum[k0]

    return PhiSolution(xs=xs, phi=phi, dphi=dphi,
                       C_V=float(phi.min()), gamma_table=gamma)


def scale_gamma(sol: PhiSolution, x) -> np.ndarray:
    """gamma_V(x) = int_0^x phi^-2, by trapezoid on the solution grid."""
    out = np.interp(x, sol.xs, sol.gamma_table)
    return out if np.ndim(x) else float(out)


def atomic_phi_oracle(atoms) -> "AtomicPhi":
    """Independent closed-form construction for purely atomic V.

    Between atoms phi'' = 0, so phi is piecewise linear with slope -1 left of
    the first atom and +1 right of the last; each atom bends the slope by
    2 lambda phi.  Assembling those constraints gives a small linear system
    for the atom values, solved directly - no ODE stepping involved.
    """
    atoms = sorted((float(x), float(l)) for x, l in atoms)
    xs = np.array([x for x, _ in atoms])
    lams = np.array([l for _, l in atoms])
    K = len(atoms)
    # unknowns phi_k at atoms; slopes s_k = -1 + sum_{j<=k} 2 lam_j phi_j
    A = np.zeros((K, K))
    b = np.zeros(K)
    for k in range(K - 1):
        # phi_{k+1} - phi_k = (x_{k+1} - x_k) * s_k
        gap = xs[k + 1] - xs[k]
        A[k, k + 1] += 1.0
        A[k, k] -= 1.0
        A[k, : k + 1] -= gap * 2.0 * lams[: k + 1]
        b[k] = -gap
    A[K - 1, :] = 2.0 * lams
    b[K - 1] = 2.0
    vals = np.linalg.solve(A, b)
    if np.any(vals <= 0):
        raise SolverError("oracle produced nonpositive atom values")
    return AtomicPhi(xs=xs, lams=lams, vals=vals)


@dataclass(frozen=True)
class AtomicPhi:
    xs: np.ndarray
    lams: np.ndarray
    vals: np.ndarray

    @property
    def C_V(self) -> float:
        return float(self.vals.min())

    def __call__(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        slopes = -1.0 + np.concatenate([[0.0], np.cumsum(2.0 * self.lams * self.vals)])
        # piecewise-linear evaluation from the nearest atom on the left
        idx = np.searchsorted(self.xs, y, side="right")
        base = np.where(idx > 0, self.vals[np.clip(idx - 1, 0, None)], self.vals[0])
        anchor = np.where(idx > 0, self.xs[np.clip(idx - 1, 0, None)], self.xs[0])
        out = base + slopes[idx] * (y - anchor)
        return out if out.ndim else float(out)
