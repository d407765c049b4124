"""Deterministic integrands f (drift densities) and penalisation measures V.

An Integrand is a finite step function: all norms, primitives and tail
transforms come out in closed form.  A MeasureSpec is a finite sum of point
atoms plus a piecewise-linear density of compact support, whose rightmost
support edge is closed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Integrand", "MeasureSpec", "DensityPiece"]


def _as_float_array(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite values not allowed")
    return a


@dataclass(frozen=True)
class Integrand:
    """A deterministic step function f with compact support:
    f = sum_k levels[k] * 1_[breaks[k], breaks[k+1]).
    """

    breaks: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        nz = np.nonzero(self.levels)[0]
        object.__setattr__(self, "support_end",
                           float(self.breaks[nz[-1] + 1]) if nz.size else 0.0)
        # the l2sq_partial and grid_steps memos; created here so that worker
        # threads sharing an instance never race to install them
        object.__setattr__(self, "_l2sq", {})
        object.__setattr__(self, "_steps", {})

    # -- constructors ------------------------------------------------------

    @staticmethod
    def step(breaks: Sequence[float], levels: Sequence[float]) -> "Integrand":
        b = _as_float_array(breaks)
        c = _as_float_array(levels)
        if b.ndim != 1 or c.ndim != 1 or len(b) != len(c) + 1:
            raise ValueError("need len(breaks) == len(levels) + 1")
        if b[0] != 0.0 or np.any(np.diff(b) <= 0):
            raise ValueError("breaks must start at 0 and increase strictly")
        return Integrand(breaks=b, levels=c)

    @staticmethod
    def zero() -> "Integrand":
        return Integrand.step([0.0, 1.0], [0.0])

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.support_end == 0.0

    def grid_steps(self, dt: float, k_end: int) -> tuple:
        """((level, ka, kb), ...) for the nonzero pieces with their breakpoints
        snapped to the grid of step dt and capped at index k_end, empty ones
        dropped; memoised per (dt, k_end).  A breakpoint off the grid raises,
        and such a request is never memoised."""
        key = (dt, k_end)
        steps = self._steps.get(key)
        if steps is None:
            found = []
            for j, c in enumerate(self.levels):
                if c == 0.0:
                    continue
                a, b = self.breaks[j], self.breaks[j + 1]
                ka, kb = int(round(a / dt)), int(round(b / dt))
                if abs(ka * dt - a) > 1e-9 * max(1.0, a) or abs(kb * dt - b) > 1e-9 * max(1.0, b):
                    raise ValueError(f"step breakpoints must lie on the grid of step dt={dt}")
                ka, kb = min(ka, k_end), min(kb, k_end)
                if kb > ka:
                    found.append((c, ka, kb))
            steps = self._steps[key] = tuple(found)
        return steps

    # -- integrals ----------------------------------------------------------

    def primitive(self, t) -> np.ndarray:
        """h(t) = int_0^t f(s) ds, exact."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        seg = np.concatenate([[0.0], np.cumsum(self.levels * np.diff(self.breaks))])
        idx = np.clip(np.searchsorted(self.breaks, t, side="right") - 1, 0, len(self.levels))
        base = seg[idx]
        last = len(self.levels) - 1
        lev = np.where(idx <= last, self.levels[np.clip(idx, 0, last)], 0.0)
        out = base + lev * (t - self.breaks[idx])
        out[t >= self.breaks[-1]] = seg[-1]
        return out if out.shape != (1,) else float(out[0])

    def primitive_on_grid(self, times: np.ndarray, T: float | None = None) -> np.ndarray:
        """h_{t ^ T} on the grid times (T = None means no truncation)."""
        t = np.asarray(times, dtype=float)
        if T is not None:
            t = np.minimum(t, float(T))
        return np.atleast_1d(self.primitive(t))

    def l2sq_partial(self, t: float) -> float:
        """int_0^t f(s)^2 ds, memoised per t on the instance (callers ask
        for the same few t once per path)."""
        memo = self._l2sq
        t = float(t)
        if t not in memo:
            memo[t] = float(Integrand.step(self.breaks, self.levels ** 2).primitive(t))
        return memo[t]

    @property
    def l2_sq(self) -> float:
        return self.l2sq_partial(self.support_end)

    @property
    def l1(self) -> float:
        return float(np.sum(np.abs(self.levels) * np.diff(self.breaks)))

    def tail_l2(self, t: float) -> float:
        """sigma_t = sqrt(int_t^inf f^2)."""
        return float(np.sqrt(max(0.0, self.l2_sq - self.l2sq_partial(t))))

    def f_tilde(self, t):
        """int_t^inf |f(s)| (s - t)^{-1/2} ds, exact per piece, at a time or
        an array of times (a float for a scalar t).

        The square-root singularity is absorbed: on a piece [a,b) with level c
        the contribution is |c| * 2 (sqrt(b-t) - sqrt(max(a,t)-t)), which is
        0 for a piece that ends by t; so f~ is 0 past the support.
        """
        t = np.asarray(t, dtype=float)
        tot = np.zeros(t.shape)
        for k, c in enumerate(self.levels):
            if c == 0.0:
                continue
            a, b = self.breaks[k], self.breaks[k + 1]
            tot += abs(c) * 2.0 * (np.sqrt(np.maximum(b - t, 0.0)) - np.sqrt(np.maximum(a, t) - t))
        return tot if tot.ndim else float(tot)

    def shifted(self, t0: float) -> "Integrand":
        """f(. + t0)."""
        if t0 <= 0:
            return self
        b = np.maximum(self.breaks - t0, 0.0)
        keep = self.breaks[1:] > t0
        nb = np.concatenate([[0.0], b[1:][keep]])
        nl = self.levels[keep]
        if nl.size == 0:
            return Integrand.zero()
        return Integrand.step(nb, nl)


@dataclass(frozen=True)
class DensityPiece:
    """Linear density segment from (a, ha) to (b, hb), supported on [a, b)."""
    a: float
    b: float
    ha: float
    hb: float

    def mass(self) -> float:
        return 0.5 * (self.ha + self.hb) * (self.b - self.a)

    def weighted_mass(self) -> float:
        """int (1 + |x|) v(x) dx over the piece, exact (splits at 0)."""
        def part(a, b, ha, hb, sign):
            # integrate (1 + sign*x)(ha + slope*(x-a)) on [a,b]
            if b <= a:
                return 0.0
            slope = (hb - ha) / (self.b - self.a)
            h_at = lambda x: self.ha + slope * (x - self.a)
            # 2-point Gauss-Legendre is exact for this quadratic
            m, r = 0.5 * (a + b), 0.5 * (b - a)
            g = r / np.sqrt(3.0)
            tot = 0.0
            for x in (m - g, m + g):
                tot += (1.0 + sign * x) * h_at(x)
            return tot * r
        if self.b <= 0:
            return part(self.a, self.b, self.ha, self.hb, -1.0)
        if self.a >= 0:
            return part(self.a, self.b, self.ha, self.hb, 1.0)
        return part(self.a, 0.0, self.ha, self.hb, -1.0) + part(0.0, self.b, self.ha, self.hb, 1.0)


@dataclass(frozen=True)
class MeasureSpec:
    """Penalisation measure: point atoms plus a compactly supported density."""

    atoms: tuple = ()               # ((location, mass > 0), ...)
    pieces: tuple = ()              # (DensityPiece, ...), disjoint interiors

    def __post_init__(self):
        for _, lam in self.atoms:
            if lam <= 0:
                raise ValueError("atom masses must be positive")
        for p in self.pieces:
            if p.b < p.a or p.ha < 0 or p.hb < 0:
                raise ValueError(f"density piece {p} needs a <= b and heights >= 0")
        spans = sorted((p.a, p.b) for p in self.pieces)
        if any(a2 < b1 for (_, b1), (a2, _) in zip(spans, spans[1:])):
            raise ValueError("density pieces must not overlap")
        w = self.weighted_total()
        if (self.atoms or self.pieces) and not (0.0 < w < np.inf):
            raise ValueError("need 0 < int (1+|x|) V(dx) < inf")
        # the empty measure is allowed as a trivial kernel (weight 1);
        # the penalisation admissibility condition is enforced where the
        # limit theorems need it (the ODE solver and the experiments)

    @staticmethod
    def point(location: float = 0.0, mass: float = 1.0) -> "MeasureSpec":
        return MeasureSpec(atoms=((float(location), float(mass)),))

    @staticmethod
    def points(pairs) -> "MeasureSpec":
        return MeasureSpec(atoms=tuple((float(x), float(l)) for x, l in pairs))

    @staticmethod
    def box(a: float = -1.0, b: float = 1.0, height: float = 1.0) -> "MeasureSpec":
        return MeasureSpec(pieces=(DensityPiece(a, b, height, height),))

    @staticmethod
    def bump(inner: float = 2.0, outer: float = 3.0, height: float = 1.0) -> "MeasureSpec":
        """Continuous plateau: height on [-inner, inner], linear to 0 at +-outer."""
        return MeasureSpec(pieces=(
            DensityPiece(-outer, -inner, 0.0, height),
            DensityPiece(-inner, inner, height, height),
            DensityPiece(inner, outer, height, 0.0),
        ))

    def _knot_table(self):
        """(xp, fp, edge, hb) for one-shot np.interp evaluation; duplicated
        knots encode jumps (np.interp picks the right-hand value at a
        duplicate), and hb is the height at the rightmost support edge."""
        cached = getattr(self, "_knots", None)
        if cached is not None:
            return cached
        xp: list[float] = []
        fp: list[float] = []
        prev_b: float | None = None
        prev_hb = 0.0
        for p in sorted(self.pieces, key=lambda q: q.a):
            if prev_b is None or p.a > prev_b:
                if prev_b is not None and prev_hb != 0.0:
                    xp.append(prev_b)
                    fp.append(0.0)
                xp.append(p.a)
                fp.append(0.0)
                if p.ha != 0.0:
                    xp.append(p.a)
                    fp.append(p.ha)
            elif p.ha != prev_hb:
                xp.append(p.a)
                fp.append(p.ha)
            xp.append(p.b)
            fp.append(p.hb)
            prev_b, prev_hb = p.b, p.hb
        if prev_hb != 0.0:
            xp.append(prev_b)
            fp.append(0.0)
        edge = max(p.b for p in self.pieces)
        hb = sum(p.hb for p in self.pieces if p.b == edge)
        table = (np.asarray(xp), np.asarray(fp), edge, hb)
        object.__setattr__(self, "_knots", table)
        return table

    def density(self, x) -> np.ndarray:
        """Density value; the right support edge is closed (box is 1_[a,b])."""
        x = np.asarray(x, dtype=float)
        if not self.pieces:
            return np.zeros_like(x)
        xp, fp, edge, hb = self._knot_table()
        out = np.asarray(np.interp(x, xp, fp, left=0.0, right=0.0))
        if hb:
            np.putmask(out, x == edge, hb)
        return out

    @property
    def has_density(self) -> bool:
        return len(self.pieces) > 0

    def total_mass(self) -> float:
        return float(sum(l for _, l in self.atoms) + sum(p.mass() for p in self.pieces))

    def weighted_total(self) -> float:
        """int (1 + |x|) V(dx), in closed form."""
        at = sum(l * (1.0 + abs(x)) for x, l in self.atoms)
        den = sum(p.weighted_mass() for p in self.pieces)
        return float(at + den)

    def support_radius(self) -> float:
        r = 0.0
        for x, _ in self.atoms:
            r = max(r, abs(x))
        for p in self.pieces:
            r = max(r, abs(p.a), abs(p.b))
        return r
