"""Seeded sampling: determinism, forced cases, uniformity, bounds."""

import math
from collections import Counter

import numpy as np
import pytest

from xorcfi.sampler import SampleConfig, chunks, draws, sample_homogeneous, screen, trial_rng

from oracles import sample_per_draw


def test_forced_single_triple():
    f = sample_homogeneous(SampleConfig(n=3, m=1, seed=7))
    assert f.clauses[0].vars == (1, 2, 3) and f.clauses[0].rhs == 0


def test_forced_complete_triples():
    f = sample_homogeneous(SampleConfig(n=4, m=4, seed=7))
    assert [cl.vars for cl in f.clauses] == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]


def test_determinism_same_seed():
    cfg = SampleConfig(n=10, m=20, seed=123)
    assert sample_homogeneous(cfg, 0) == sample_homogeneous(cfg, 0)
    assert sample_homogeneous(cfg, 5) == sample_homogeneous(cfg, 5)


def test_trials_are_independent_streams():
    cfg = SampleConfig(n=10, m=20, seed=123)
    assert sample_homogeneous(cfg, 0) != sample_homogeneous(cfg, 1)


def test_exact_clause_count_without_replacement():
    for m in (1, 10, 30, 60):
        f = sample_homogeneous(SampleConfig(n=12, m=m, seed=9))
        assert f.m == m
        assert len({cl.vars for cl in f.clauses}) == m


def test_homogeneous_means_all_rhs_zero():
    f = sample_homogeneous(SampleConfig(n=15, m=30, seed=4))
    assert f.is_homogeneous


def test_shuffle_prefix_branch():
    # m above half the triple count takes the Fisher-Yates path.
    total = math.comb(6, 3)
    f = sample_homogeneous(SampleConfig(n=6, m=total - 1, seed=11))
    assert f.m == total - 1


def test_m_bounds_validated():
    with pytest.raises(ValueError):
        SampleConfig(n=4, m=5, seed=0)
    with pytest.raises(ValueError):
        SampleConfig(n=3, m=2, seed=0)
    with pytest.raises(ValueError):
        SampleConfig(n=2, m=1, seed=0)
    with pytest.raises(ValueError):
        SampleConfig(n=5, seed=0)
    with pytest.raises(ValueError, match="give m or ratio, not both"):
        SampleConfig(n=10, m=10, ratio=3.0)


def test_ratio_resolves_m():
    cfg = SampleConfig(n=10, ratio=2.0, seed=0)
    assert cfg.effective_m == 20
    assert sample_homogeneous(cfg).m == 20


def test_single_draw_uniform_over_triples():
    # C(5,3) = 10 distinct triples on 5 variables; frequency of each over
    # 10000 seeded draws stays within 0.01 of 1/10. draws gives each trial
    # the clause sample_homogeneous gives it, at the chunked cost.
    counts = Counter()
    for draw in draws(SampleConfig(n=5, m=1, seed=2024), range(10000)):
        counts[tuple(draw.triples[0].tolist())] += 1
    assert len(counts) == 10
    for count in counts.values():
        assert abs(count / 10000 - 1 / 10) < 0.01


def test_seed_and_trial_must_fit_64_bits():
    with pytest.raises(ValueError):
        trial_rng(-1, 0)
    with pytest.raises(ValueError):
        trial_rng(0, 2**64)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            SampleConfig(n=3, m=1, seed=seed)
    SampleConfig(n=3, m=1, seed=2**64 - 1)


def test_block_draws_match_one_draw_per_call():
    # Small n and m near C(n,3)/2 make repeated variables and repeated
    # triples frequent, so blocks end mid-way and are drawn again; m just
    # above C(n,3)/2 takes the Fisher-Yates path.
    grid = []
    for n in (3, 4, 5, 6, 12, 30):
        half = math.comb(n, 3) // 2
        grid += [(n, m) for m in {1, max(1, half - 1), max(1, half), half + 1, n}
                 if m <= math.comb(n, 3)]
    grid += [(100, 100), (100, 400), (100, 2000), (1000, 1000), (1000, 2000)]
    for n, m in grid:
        for seed in (0, 5000, 2**64 - 1):
            for trial in range(4):
                cfg = SampleConfig(n=n, m=m, seed=seed)
                assert sample_homogeneous(cfg, trial) == sample_per_draw(cfg, trial), (n, m, seed, trial)


def _short_first_blocks(cfg, trials):
    """The trials whose first block of 2m + 16 rows holds fewer than m
    distinct triples, counted one row at a time."""
    m = cfg.effective_m
    short = []
    for trial in trials:
        rows = trial_rng(cfg.seed, trial).integers(1, cfg.n + 1, size=(2 * m + 16, 3))
        if len({tuple(sorted(r)) for r in rows.tolist() if len(set(r)) == 3}) < m:
            short.append(trial)
    return short


def test_screen_matches_per_draw_oracle_on_whole_chunks():
    # Every batch spans two chunks, a whole one and one trial more. At
    # m = C(n,3)/2 some first blocks fall short, so those trials are
    # screened again with longer blocks; m just above it takes
    # Fisher-Yates. The last two sizes are the largest n whose triple codes
    # fit in int64 and the smallest whose do not, so that their codes are
    # Python ints.
    grid = [(n, m) for n in (5, 6, 7, 12, 30, 100, 1000) for m in (n, 2 * n)
            if m <= math.comb(n, 3) // 2]
    grid += [(6, 10), (7, 17), (5, 6), (6, 11), (7, 18), (12, 111), (30, 2031)]
    grid += [(2**21 - 2, 2), (2**21, 2)]
    for n, m in grid:
        for seed in (0, 5000, 2**64 - 1):
            cfg = SampleConfig(n=n, m=m, seed=seed)
            step = len(next(chunks(cfg, range(10**9))))
            parts = list(chunks(cfg, range(step + 1)))
            assert [len(c) for c in parts] == [step, 1]
            draws = [d for chunk in parts for d in screen(cfg, chunk)]
            assert [d.trial for d in draws] == list(range(step + 1))
            for d in draws:
                f = sample_per_draw(cfg, d.trial)
                assert d.formula() == f, (n, m, seed, d.trial)
                assert d.triples.tolist() == [list(cl.vars) for cl in f.clauses]
                assert d.covers_all == (len({v for cl in f.clauses for v in cl.vars}) == n)
            if (n, m) == (6, 10):
                assert _short_first_blocks(cfg, range(step + 1))


def test_one_trial_is_a_chunk_of_one():
    cfg = SampleConfig(n=30, m=30, seed=5000)
    for d in screen(cfg, range(40)):
        assert sample_homogeneous(cfg, d.trial) == d.formula()
        [alone] = screen(cfg, range(d.trial, d.trial + 1))
        assert alone.triples.tolist() == d.triples.tolist()


def test_rekeyed_stream_checks_64_bits():
    cfg = SampleConfig(n=30, m=30, seed=2**64 - 1)
    with pytest.raises(ValueError, match="trial index must fit in 64 bits"):
        screen(cfg, range(2**64 - 2, 2**64 + 1))
    rng = trial_rng(0, 0)
    with pytest.raises(ValueError, match="seed must fit in 64 bits"):
        trial_rng(2**64, 0, rng)
    with pytest.raises(ValueError, match="trial index must fit in 64 bits"):
        trial_rng(0, -1, rng)


def _philox(seed, trial):
    """A new generator keyed with the stream contract's 128-bit key."""
    return np.random.Generator(np.random.Philox(key=(seed << 64) | trial))


def test_rekeying_leaks_no_state():
    # A bounded integers call leaves half of a 64-bit word buffered; the
    # re-keyed generator must not read it.
    used = trial_rng(1, 2)
    used.integers(1, 31, size=5)
    assert used.bit_generator.state["has_uint32"] == 1
    fresh = _philox(5000, 7).integers(1, 31, size=(40, 3))
    assert (trial_rng(5000, 7, used).integers(1, 31, size=(40, 3)) == fresh).all()
    # A new and a re-keyed generator read one stream up to the 64-bit extremes.
    for seed, trial in ((0, 0), (0, 2**64 - 1), (2**63, 2**63), (2**64 - 1, 0),
                        (2**64 - 1, 2**64 - 1)):
        fresh = trial_rng(seed, trial).integers(1, 31, size=(40, 3))
        assert (trial_rng(seed, trial, used).integers(1, 31, size=(40, 3)) == fresh).all()

    # Generators of their own draw unchanged around screen calls.
    cfg = SampleConfig(n=30, m=30, seed=5000)
    ours, reference = trial_rng(5000, 3), _philox(5000, 3)
    parts = []
    for chunk in chunks(cfg, range(300)):
        parts.append(ours.integers(1, 31, size=(50, 3)))
        screen(cfg, chunk)
    drawn = np.concatenate(parts)
    assert (drawn == reference.integers(1, 31, size=drawn.shape)).all()
