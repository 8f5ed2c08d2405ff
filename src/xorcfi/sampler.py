"""Seeded sampling of random 3-XOR formulas.

Randomness is pinned to numpy's Philox4x64 counter-based generator,
keyed with the 128-bit value (seed << 64) | trial, so every trial owns
an independent stream and byte-identical reruns only need (seed, trial).
Only Generator.integers() is drawn from, to keep the stream easy to
reimplement elsewhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .formula import XorClause, XorFormula


@dataclass(frozen=True)
class SampleConfig:
    n: int
    m: Optional[int] = None
    ratio: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least 3 variables")
        if self.m is None and self.ratio is None:
            raise ValueError("one of m or ratio is required")
        if self.m is not None and self.ratio is not None:
            raise ValueError("give m or ratio, not both")
        if self.ratio is not None and not math.isfinite(self.ratio):
            raise ValueError("ratio must be finite")
        _check_u64(self.seed, "seed")
        m = self.effective_m
        if m < 1:
            raise ValueError("need at least 1 clause")
        if m > self.max_clauses:
            raise ValueError(
                f"m={m} exceeds the {self.max_clauses} distinct clauses on {self.n} variables"
            )

    @property
    def effective_m(self) -> int:
        if self.m is not None:
            return self.m
        return round(self.ratio * self.n)

    @property
    def max_clauses(self) -> int:
        return math.comb(self.n, 3)


def _check_u64(value: int, what: str) -> None:
    if not 0 <= value < 2**64:
        raise ValueError(f"{what} must fit in 64 bits")


def trial_rng(seed: int, trial: int = 0) -> np.random.Generator:
    """Philox stream for one trial; streams never collide across trials."""
    _check_u64(seed, "seed")
    _check_u64(trial, "trial index")
    return np.random.Generator(np.random.Philox(key=(seed << 64) | trial))


def sample_homogeneous(cfg: SampleConfig, trial: int = 0) -> XorFormula:
    """m distinct 3-subsets drawn uniformly without replacement, all rhs 0.

    Triples are drawn three integers at a time and a triple with a
    repeated variable is redrawn. The draws come in blocks of rows from
    one rng.integers call, which reads the stream exactly as that many
    single draws; the draws of a block left over once m triples are
    chosen are never used.
    """
    n, m = cfg.n, cfg.effective_m
    rng = trial_rng(cfg.seed, trial)
    if m > cfg.max_clauses // 2:
        chosen = _shuffle_prefix_subsets(rng, n, m)
    else:
        chosen = set()
        while len(chosen) < m:
            # Over-draw so that one block usually suffices; any block size
            # gives the same formula.
            rows = rng.integers(1, n + 1, size=(2 * (m - len(chosen)) + 16, 3))
            rows.sort(axis=1)
            rows = rows[(rows[:, 0] != rows[:, 1]) & (rows[:, 1] != rows[:, 2])]
            for t in map(tuple, rows.tolist()):
                chosen.add(t)
                if len(chosen) == m:
                    break
    return XorFormula(n, tuple(XorClause(t, 0) for t in sorted(chosen)))


def _shuffle_prefix_subsets(rng: np.random.Generator, n: int, m: int):
    """Fisher-Yates prefix over all triples; used when m is a large fraction."""
    pool = list(itertools.combinations(range(1, n + 1), 3))
    for i in range(m):
        j = i + int(rng.integers(0, len(pool) - i))
        pool[i], pool[j] = pool[j], pool[i]
    return set(pool[:m])
