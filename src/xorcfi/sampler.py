"""Seeded sampling of random 3-XOR formulas.

Randomness is pinned to numpy's Philox4x64 counter-based generator,
keyed with the 128-bit value (seed << 64) | trial, so every trial owns
an independent stream and byte-identical reruns only need (seed, trial).
Only Generator.integers() is drawn from, to keep the stream easy to
reimplement elsewhere.

Trials are drawn a chunk at a time. One Philox bit generator is re-keyed
to each trial of the chunk, which reads the same stream as a new one, and
gives it one block of draws; numpy operations over the whole chunk then
pick each trial's triples and check that they cover every variable.
A trial whose block holds too few distinct triples is drawn again from
its stream's start with a block twice as long, until every trial is
full. Only the dense case (m above half of C(n,3)) draws per trial, by
a Fisher-Yates prefix. Sampling a single trial is a chunk of one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .formula import XorClause, XorFormula, has_full_rank


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
        if self.ratio is not None and not math.isfinite(self.ratio * self.n):
            raise ValueError(f"ratio * n = {self.ratio:g} * {self.n} is not finite")
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


# Draw rows screened per chunk: enough to amortise numpy's per-call cost
# over many hard-regime trials, few enough that memory does not grow with
# the trial count. A trial needing more rows is a chunk on its own.
_CHUNK_ROWS = 1 << 13


def trial_rng(seed: int, trial: int = 0,
              reuse: Optional[np.random.Generator] = None) -> np.random.Generator:
    """Philox stream for one trial; streams never collide across trials.

    A new generator's Philox is keyed with (seed << 64) | trial. Passing
    `reuse` re-keys that generator instead and resets its counter and
    buffers, which reads the same stream at a fraction of the cost of
    building one.
    """
    _check_u64(seed, "seed")
    _check_u64(trial, "trial index")
    if reuse is None:
        return np.random.Generator(np.random.Philox(key=(seed << 64) | trial))
    reuse.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": np.array([trial, seed], np.uint64)},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return reuse


@dataclass(frozen=True)
class TrialDraw:
    """One trial's m distinct triples, before any formula object exists.

    `triples` is an (m, 3) int64 array: each row a strictly increasing
    triple of 1-based variables, the rows in ascending order, which is
    the formula's clause order.
    """

    trial: int
    n: int
    triples: np.ndarray
    covers_all: bool  # every variable occurs in some triple

    def formula(self) -> XorFormula:
        return XorFormula(self.n, tuple(XorClause(t, 0) for t in map(tuple, self.triples.tolist())))

    def full_rank(self) -> bool:
        """Whether the formula is uniquely satisfiable; a variable in no
        triple settles it without an elimination."""
        return self.covers_all and has_full_rank(self.n, self.triples.tolist())


def draw_name(cfg: SampleConfig, trial: int) -> str:
    """The name of one trial's draw: `sample`'s file stem, `generate`'s instance id."""
    return f"n{cfg.n:04d}_m{cfg.effective_m:04d}_s{cfg.seed}_t{trial:04d}"


def chunks(cfg: SampleConfig, trials: range) -> Iterator[range]:
    """trials cut into consecutive chunks of about _CHUNK_ROWS draw rows."""
    step = max(1, _CHUNK_ROWS // _block_rows(cfg.effective_m))
    for start in range(0, len(trials), step):
        yield trials[start:start + step]


def draws(cfg: SampleConfig, trials: range) -> Iterator[TrialDraw]:
    """The draws of trials in order, screened a chunk at a time."""
    for chunk in chunks(cfg, trials):
        yield from screen(cfg, chunk)


def screen(cfg: SampleConfig, trials: range) -> List[TrialDraw]:
    """The draws of a chunk of trials, in trial order."""
    n, m = cfg.n, cfg.effective_m
    triples = np.empty((len(trials), m, 3), np.int64)
    rng = None
    if m > cfg.max_clauses // 2:
        for i, trial in enumerate(trials):
            rng = trial_rng(cfg.seed, trial, rng)
            triples[i] = sorted(_shuffle_prefix_subsets(rng, n, m))
    else:
        todo, rows = np.arange(len(trials)), _block_rows(m)
        while len(todo):
            blocks = np.empty((len(todo), rows, 3), np.int64)
            for i, j in enumerate(todo.tolist()):
                rng = trial_rng(cfg.seed, trials[j], rng)
                blocks[i] = rng.integers(1, n + 1, size=blocks.shape[1:])
            full, chosen = _first_distinct(blocks, n, m)
            triples[todo[full]] = chosen
            # A short block is drawn again from its stream's start, twice as long.
            todo, rows = todo[~full], 2 * rows
    used = np.sort(triples.reshape(len(trials), -1), axis=1)
    covers_all = ((used[:, 1:] != used[:, :-1]).sum(axis=1) == n - 1).tolist()
    return [TrialDraw(trial, n, triples[i], covers_all[i]) for i, trial in enumerate(trials)]


def sample_homogeneous(cfg: SampleConfig, trial: int = 0) -> XorFormula:
    """m distinct 3-subsets drawn uniformly without replacement, all rhs 0."""
    return screen(cfg, range(trial, trial + 1))[0].formula()


def _block_rows(m: int) -> int:
    # Over-draw so that one block usually holds m distinct triples.
    return 2 * m + 16


def _first_distinct(blocks: np.ndarray, n: int, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Each trial's first m distinct triples of its block, sorted: returns
    `full`, which trials' blocks hold m, and those trials' (k, m, 3) triples.

    A triple is its row sorted; a row with a repeated variable is skipped,
    and so is a repeat of an earlier triple of the same block. Triples are
    compared as codes a·(n+1)² + b·(n+1) + c, which order them as tuples;
    codes that do not fit in int64 are Python ints.
    """
    base = n + 1
    blocks.sort(axis=2)
    dtype = np.int64 if base**3 < 2**63 else object
    a, b, c = blocks.transpose(2, 0, 1).astype(dtype, copy=False)
    code = (a * base + b) * base + c
    by_trial = np.arange(len(code))[:, None]
    order = np.argsort(code, axis=1, kind="stable")
    ranked = code[by_trial, order]
    new = np.ones(code.shape, bool)
    new[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    first = np.empty_like(new)
    first[by_trial, order] = new
    first &= (a != b) & (b != c)
    count = first.cumsum(axis=1)
    full = count[:, -1] >= m
    chosen = np.sort(code[full][(first & (count <= m))[full]].reshape(-1, m), axis=1)
    rest = chosen // base  # np.divmod takes no object arrays
    return full, np.stack([rest // base, rest % base, chosen % base], axis=2)


def _shuffle_prefix_subsets(rng: np.random.Generator, n: int, m: int):
    """Fisher-Yates prefix over all triples; used when m is a large fraction."""
    pool = list(itertools.combinations(range(1, n + 1), 3))
    for i in range(m):
        j = i + int(rng.integers(0, len(pool) - i))
        pool[i], pool[j] = pool[j], pool[i]
    return set(pool[:m])
