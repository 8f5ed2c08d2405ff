"""Seeded sampling: determinism, forced cases, uniformity, bounds."""

import math
from collections import Counter

import pytest

from xorcfi.sampler import SampleConfig, sample_homogeneous, trial_rng

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
    # 10000 seeded draws stays within 0.01 of 1/10.
    counts = Counter()
    for trial in range(10000):
        counts[sample_homogeneous(SampleConfig(n=5, m=1, seed=2024), trial).clauses[0].vars] += 1
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
