"""Non-expansion certificates and the adversarial data construction."""

import math
from itertools import combinations

import numpy as np
import pytest

from conftest import make_dist, random_dist
from wcmean.baselines import sample_mean_estimator
from wcmean.collectors import gen_selective
from wcmean.core import L2, LINF, SampleTargetDistribution
from wcmean.lowerbound import (
    BruteForceSizeError,
    _pair_masks,
    _qualifying_sides,
    adversarial_values,
    best_S_bruteforce,
    check_non_expanding,
    semilinear_callable,
)
from wcmean.optimizer import OgdConfig, run_with_doubling

MARGIN = 1e-9


def half_split_dist(n=8, reps=3):
    """Every pair qualifies for S = first half: alpha = 1."""
    half = n // 2
    lo, hi = list(range(half)), list(range(half, n))
    pairs = []
    for _ in range(reps):
        pairs.append((lo, hi))
        pairs.append((hi, lo))
    return make_dist(n, pairs), list(range(half))


# ── certificate counting ─────────────────────────────────────────────


def test_check_non_expanding_hand_counts():
    dist = make_dist(
        4,
        [
            ([0], [2, 3]),  # side 1 for S = {0, 1}
            ([2, 3], [0]),  # side 2
            ([0, 2], [3]),  # neither: sample straddles S
            ([0], [1]),  # neither: target meets S
        ],
    )
    cert = check_non_expanding(dist, [0, 1])
    assert cert.side1_count == 1
    assert cert.side2_count == 1
    assert cert.alpha == pytest.approx(0.5)


def test_check_non_expanding_rejects_bad_index():
    dist = make_dist(3, [([0], [1])])
    with pytest.raises(ValueError):
        check_non_expanding(dist, [3])
    # int() truncated this subset to (0, 1) and certified it
    with pytest.raises(ValueError, match="subset indices must be integers"):
        check_non_expanding(dist, [0.9, 1.7, True])


def test_half_split_alpha_is_one():
    dist, S = half_split_dist()
    cert = check_non_expanding(dist, S)
    assert cert.alpha == pytest.approx(1.0)


def set_sides(dist, S):
    """Side indicators from the set definition, pair by pair."""
    S = set(S)
    side1 = [set(p.sample) <= S and not set(p.target) & S for p in dist.pairs]
    side2 = [not set(p.sample) & S and set(p.target) <= S for p in dist.pairs]
    return np.array(side1, dtype=bool), np.array(side2, dtype=bool)


def test_check_non_expanding_matches_set_definition():
    rng = np.random.default_rng(53)
    for trial in range(60):
        n = int(rng.integers(1, 10))
        # random_dist draws targets independently of samples, so many pairs
        # overlap; half the instances also have empty samples
        dist = random_dist(rng, n, int(rng.integers(1, 12)), allow_empty=trial % 2 == 0)
        for _ in range(4):
            S = [j for j in range(n) if rng.random() < 0.5]
            side1, side2 = set_sides(dist, S)
            cert = check_non_expanding(dist, S)
            assert (cert.side1_count, cert.side2_count) == (side1.sum(), side2.sum())
            assert cert.alpha == float(dist.pair_weights @ (side1 | side2)) / dist.m
            sides = _qualifying_sides(sum(1 << j for j in S), *_pair_masks(dist))
            assert np.array_equal(sides[0], side1) and np.array_equal(sides[1], side2)


def test_check_non_expanding_beyond_64_indices():
    dist = make_dist(200, [(range(190), [199]), ([150], [3, 199]), ([], [0])])
    for S, sides in ((range(190), (1, 1)), ([0, 3, 199], (0, 2))):
        cert = check_non_expanding(dist, S)
        assert (cert.side1_count, cert.side2_count) == sides
        assert sides == tuple(int(side.sum()) for side in set_sides(dist, S))


def test_empty_subset_counts_empty_samples():
    dist = make_dist(3, [([], [0]), ([1], [2])])
    cert = check_non_expanding(dist, [])
    assert cert.side1_count == 1 and cert.side2_count == 0


# ── brute force vs in-test enumeration ───────────────────────────────


def exhaustive_best_alpha(dist):
    best = -1.0
    for size in range(dist.n + 1):
        for S in combinations(range(dist.n), size):
            best = max(best, check_non_expanding(dist, S).alpha)
    return best


def test_bruteforce_matches_enumeration():
    rng = np.random.default_rng(51)
    for _ in range(10):
        dist = random_dist(rng, 6, 8)
        cert = best_S_bruteforce(dist)
        assert cert.alpha == pytest.approx(exhaustive_best_alpha(dist))
        # the reported subset really achieves the reported alpha
        again = check_non_expanding(dist, cert.subset)
        assert again.alpha == pytest.approx(cert.alpha)


def test_bruteforce_size_guard():
    dist = make_dist(23, [([0], [1])])
    with pytest.raises(BruteForceSizeError):
        best_S_bruteforce(dist)


# ── meet-in-the-middle search vs the per-subset scan ────────────────


def reference_best_S(dist):
    """The per-subset chunked scan that the matrix-product search replaced:
    every subset's side tests on uint64 masks, chunks of 2^12."""
    a_masks = np.array(
        [sum(1 << j for j in pair.sample) for pair in dist.pairs], dtype=np.uint64
    )
    b_masks = np.array(
        [sum(1 << j for j in pair.target) for pair in dist.pairs], dtype=np.uint64
    )
    weights = dist.pair_weights
    zero = np.uint64(0)
    total = 1 << dist.n
    chunk = 1 << min(12, dist.n)
    best_mass = -math.inf
    best_key = None
    best_sides = (0, 0)
    for start in range(0, total, chunk):
        S = np.arange(start, min(start + chunk, total), dtype=np.uint64)[:, None]
        side1 = ((S & a_masks) == a_masks) & ((S & b_masks) == zero)
        side2 = ((S & a_masks) == zero) & ((S & b_masks) == b_masks)
        masses = (side1 | side2) @ weights
        chunk_max = float(masses.max())
        if chunk_max < best_mass - 1e-9:
            continue
        if chunk_max <= best_mass + 1e-9 and best_key == ():
            continue
        for idx in np.flatnonzero(masses >= chunk_max - 1e-9):
            mass = float(masses[idx])
            key = tuple(j for j in range(dist.n) if (start + int(idx)) >> j & 1)
            if mass > best_mass + 1e-9 or (
                mass >= best_mass - 1e-9 and best_key is not None and key < best_key
            ):
                best_mass = mass
                best_key = key
                best_sides = (int(side1[idx].sum()), int(side2[idx].sum()))
    return best_key, best_mass / dist.m, best_sides


def assert_matches_reference(dist):
    cert = best_S_bruteforce(dist)
    subset, alpha, sides = reference_best_S(dist)
    assert cert.subset == subset
    assert (cert.side1_count, cert.side2_count) == sides
    assert abs(cert.alpha - alpha) <= 1e-12
    return cert


def weighted(rng, dist):
    probs = rng.random(dist.m) + 0.05
    return SampleTargetDistribution(dist.n, dist.pairs, tuple(probs / probs.sum()))


@pytest.mark.parametrize("n", range(1, 13))
def test_bruteforce_matches_reference_search(n):
    # n = 1 leaves the low half 0 bits; odd n splits unevenly; random_dist's
    # targets are drawn apart from the samples, so pairs often overlap
    rng = np.random.default_rng(540 + n)
    for trial in range(12):
        dist = random_dist(rng, n, int(rng.integers(1, 16)), allow_empty=trial % 2 == 0)
        assert_matches_reference(dist)
        assert_matches_reference(weighted(rng, dist))


@pytest.mark.parametrize("overlap", [False, True])
def test_bruteforce_matches_reference_on_selective(overlap):
    assert_matches_reference(gen_selective(n=18, windows=(1, 2, 4, 8), overlap=overlap))


def test_bruteforce_tie_breaks_to_lexicographically_smallest():
    # {1, 2} qualifies on side 1 and {0, 3} on side 2; the scan meets {1, 2}
    # (mask 6) first, but (0, 3) is the smaller tuple
    dist = make_dist(4, [([1, 2], [0, 3])])
    assert best_S_bruteforce(dist).subset == (0, 3)
    # at n = 16 the side-2 winner holds index 15, so it lies in a later chunk
    # than the side-1 winner (1, 2, ..., 14)
    dist = make_dist(16, [([1, 2], [0, 15])])
    cert = assert_matches_reference(dist)
    assert cert.subset == (0, *range(3, 16))
    # every subset ties at zero mass when each pair overlaps: the empty set wins
    dist = make_dist(5, [([0, 1], [1, 2]), ([3], [3, 4])])
    assert assert_matches_reference(dist).subset == ()


def test_bruteforce_near_tie_after_the_empty_set():
    # the empty set leads the chunk with 15 and 16 out of S; the chunk with
    # 15 in and 16 out beats it by 1.5e-9 through {2, 15}, while its first
    # candidate {15} is within 1e-9 of the empty set
    e = 0.25e-9
    pairs = make_dist(17, [([], [16]), ([15], [16]), ([2, 15], [16])]).pairs
    dist = SampleTargetDistribution(17, pairs, (1 - 2 * e, e, e))
    assert assert_matches_reference(dist).subset == tuple(range(16))


def test_bruteforce_single_pair():
    cert = assert_matches_reference(make_dist(3, [([0], [2])]))
    assert (cert.subset, cert.alpha, cert.side1_count, cert.side2_count) == ((0,), 1.0, 1, 0)


def test_bruteforce_all_samples_empty():
    # an empty sample lies inside every S, so side 1 wants the targets outside:
    # S = {} certifies every pair
    dist = make_dist(4, [([], [0]), ([], [1, 3]), ([], [2])])
    cert = assert_matches_reference(dist)
    assert (cert.subset, cert.alpha, cert.side1_count, cert.side2_count) == ((), 1.0, 3, 0)


def test_bruteforce_at_the_size_cap():
    dist = gen_selective(n=22, windows=(1, 2, 4, 8))
    cert = best_S_bruteforce(dist)
    assert check_non_expanding(dist, cert.subset) == cert
    assert cert.alpha > 0.0
    # no single-index change of the subset certifies more
    for j in range(dist.n):
        flipped = check_non_expanding(dist, set(cert.subset) ^ {j})
        assert flipped.alpha <= cert.alpha + 1e-12


# ── adversarial data ─────────────────────────────────────────────────


def test_semilinear_callable_matches_weights():
    dist = make_dist(4, [([0, 2], [1])])
    est = sample_mean_estimator(dist)
    f = semilinear_callable(est, dist)
    assert f(0, np.array([2.0, 4.0])) == pytest.approx(3.0)


def test_adversarial_requires_positive_alpha():
    dist = make_dist(3, [([0, 1], [1, 2])])
    with pytest.raises(ValueError):
        adversarial_values(dist, [0], semilinear_callable(sample_mean_estimator(dist), dist))


def test_adversarial_values_on_half_split():
    dist, S = half_split_dist()
    cert = check_non_expanding(dist, S)
    est = sample_mean_estimator(dist)
    data, achieved = adversarial_values(dist, S, semilinear_callable(est, dist))
    assert np.all(np.abs(data.values) <= 1.0 + MARGIN)
    assert achieved >= cert.alpha / 4.0 - MARGIN


def test_adversarial_values_beat_ogd_outputs():
    dist, S = half_split_dist(n=6, reps=2)
    cert = check_non_expanding(dist, S)
    for regime in (L2, LINF):
        est, _, _ = run_with_doubling(dist, OgdConfig(regime=regime, t_max=30, seed=1))
        _, achieved = adversarial_values(dist, S, semilinear_callable(est, dist))
        assert achieved >= cert.alpha / 4.0 - MARGIN, regime


def test_adversarial_values_on_random_certified_instances():
    rng = np.random.default_rng(52)
    done = 0
    while done < 5:
        dist = random_dist(rng, 6, 10)
        cert = best_S_bruteforce(dist)
        if cert.alpha == 0.0:
            continue
        est = sample_mean_estimator(dist)
        _, achieved = adversarial_values(
            dist, cert.subset, semilinear_callable(est, dist)
        )
        assert achieved >= cert.alpha / 4.0 - MARGIN
        done += 1
