"""Streaming Monte Carlo harness.

One Philox substream per path index; paths are processed in fixed-size
chunks whose partial sums are combined in chunk order with compensated
(Kahan) addition, so results do not depend on the worker count and repeat
bit-for-bit for a fixed seed.
"""
from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .samplers import _bessel3_values, _bm_values, substream

__all__ = [
    "EstimatorResult", "IdentityCheck", "derive_seed",
    "run_chunked", "bm_chunk_pass", "bessel_chunk_pass",
    "path_pass", "CHUNK", "Z_TWO_SIDED", "Z_ONE_SIDED",
]

CHUNK = 256                      # fixed: part of the reproducibility contract
Z_TWO_SIDED = 4.0                # two-sided rows allow 4 standard errors
Z_ONE_SIDED = 3.0                # one-sided guards allow 3
CENSOR_LIMIT = 0.05


def derive_seed(master_seed: int, tag: str) -> int:
    """Stable 63-bit sub-seed for an estimator leg, from (master_seed, tag)."""
    h = hashlib.blake2b(f"{master_seed}:{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(h, "big") >> 1


@dataclass(frozen=True)
class EstimatorResult:
    mean: float
    std_error: float
    n_paths: int
    censor_rate: float = 0.0
    discretization_budget: float = 0.0
    z_mult: float = Z_TWO_SIDED

    @staticmethod
    def exact(value: float, budget: float = 0.0) -> "EstimatorResult":
        return EstimatorResult(mean=float(value), std_error=0.0, n_paths=0,
                               discretization_budget=budget)

    def tolerance_part(self) -> float:
        return self.z_mult * self.std_error + self.discretization_budget


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    lhs: EstimatorResult
    rhs: EstimatorResult
    verdict: str                 # PASS | FAIL | INCONCLUSIVE
    tolerance: float
    mode: str = "two-sided"      # "two-sided" | "upper"  (upper: lhs <= rhs + tol)
    note: str = ""

    @staticmethod
    def build(name: str, lhs: EstimatorResult, rhs: EstimatorResult,
              mode: str = "two-sided", extra_budget: float = 0.0,
              note: str = "") -> "IdentityCheck":
        tol = lhs.tolerance_part() + rhs.tolerance_part() + extra_budget
        censor = max(lhs.censor_rate, rhs.censor_rate)
        d = lhs.mean - rhs.mean
        if censor > CENSOR_LIMIT:
            verdict = "INCONCLUSIVE"
        elif mode == "upper":
            verdict = "PASS" if d <= tol else "FAIL"
        else:
            verdict = "PASS" if abs(d) <= tol else "FAIL"
        return IdentityCheck(name=name, lhs=lhs, rhs=rhs, verdict=verdict,
                             tolerance=tol, mode=mode, note=note)

    @staticmethod
    def must_fail(name: str, lhs: EstimatorResult, rhs: EstimatorResult,
                  mode: str = "two-sided", note: str = "") -> "IdentityCheck":
        """Negative control: PASS exactly when the plain comparison FAILs."""
        raw = IdentityCheck.build(name, lhs, rhs, mode=mode, note=note)
        return replace(raw, verdict="PASS" if raw.verdict == "FAIL" else "FAIL")


class _Accum:
    """Compensated accumulation of sum, sum of squares and censor count."""

    __slots__ = ("s", "s_c", "q", "q_c", "cens", "n")

    def __init__(self):
        self.s = 0.0
        self.s_c = 0.0
        self.q = 0.0
        self.q_c = 0.0
        self.cens = 0
        self.n = 0

    def _kadd(self, attr_s, attr_c, x):
        s = getattr(self, attr_s)
        c = getattr(self, attr_c)
        y = x - c
        t = s + y
        setattr(self, attr_c, (t - s) - y)
        setattr(self, attr_s, t)

    def add_chunk(self, values: np.ndarray, censored) -> None:
        v = np.asarray(values, dtype=float)
        self._kadd("s", "s_c", float(np.sum(v)))
        self._kadd("q", "q_c", float(np.sum(v * v)))
        if censored is not None:
            self.cens += int(np.count_nonzero(censored))
        self.n += v.size

    def result(self, budget: float = 0.0, z_mult: float = Z_TWO_SIDED) -> EstimatorResult:
        if self.n == 0:
            raise ValueError("estimator ran over zero paths")
        mean = self.s / self.n
        var = max(0.0, self.q / self.n - mean * mean)
        se = np.sqrt(var / self.n)
        return EstimatorResult(mean=mean, std_error=float(se), n_paths=self.n,
                               censor_rate=self.cens / self.n,
                               discretization_budget=budget, z_mult=z_mult)


def run_chunked(n_paths: int, seed: int, chunk_fn, n_workers: int = 1) -> dict:
    """Drive chunk_fn(seed, start_index, size) -> {name: (values, censored)}
    over ceil(n/CHUNK) chunks and accumulate deterministically.

    Chunk boundaries are fixed by CHUNK, not by the worker count; partials
    are combined in chunk order, so any worker count yields the same sums.
    """
    if n_paths <= 0:
        raise ValueError("n_paths must be positive")
    starts = list(range(0, n_paths, CHUNK))
    jobs = [(s, min(CHUNK, n_paths - s)) for s in starts]
    accs: dict[str, _Accum] = {}

    def run(job):
        return chunk_fn(seed, *job)

    # the pool yields its results in job order, so the sums keep their bits
    with ThreadPoolExecutor(max_workers=n_workers) as ex:
        for out in ex.map(run, jobs) if n_workers > 1 else map(run, jobs):
            for name, (vals, cens) in out.items():
                accs.setdefault(name, _Accum()).add_chunk(vals, cens)
    return accs


def _matrix_pass(row_values, n_steps: int, eval_matrix):
    """Chunk function that fills a (size, n_steps+1) matrix with one
    row_values(generator) per path substream and hands it to eval_matrix(X)."""

    def chunk_fn(seed: int, start: int, size: int):
        X = np.empty((size, n_steps + 1))
        for i in range(size):
            X[i] = row_values(substream(seed, start + i))
        return eval_matrix(X)

    return chunk_fn


def bm_chunk_pass(x0: float, n_steps: int, dt: float, eval_matrix):
    """Chunk function for Brownian ensembles from x0."""
    return _matrix_pass(lambda g: _bm_values(x0, n_steps, dt, g), n_steps, eval_matrix)


def bessel_chunk_pass(a: float, n_steps: int, dt: float, eval_matrix):
    """Chunk function for 3-d Bessel ensembles from a >= 0."""
    return _matrix_pass(lambda g: _bessel3_values(a, n_steps, dt, g), n_steps, eval_matrix)


def path_pass(make_path_values):
    """Chunk function for per-path sampling: make_path_values(gen)
    -> {name: (value, censored_flag)}."""

    def chunk_fn(seed: int, start: int, size: int):
        rows: dict[str, tuple[list, list]] = {}
        for i in range(size):
            out = make_path_values(substream(seed, start + i))
            for name, (val, cens) in out.items():
                vals, cmask = rows.setdefault(name, ([], []))
                vals.append(val)
                cmask.append(bool(cens))
        return {k: (np.array(v), np.array(c)) for k, (v, c) in rows.items()}

    return chunk_fn
