"""Process generators: postconditions, determinism, edge cases."""

import itertools
import json
from collections import deque

import numpy as np
import pytest

from wcmean.collectors import (
    _BLOCK,
    _MAX_REGROWTHS,
    _Draws,
    _reachable_count,
    _recruitment_lists,
    gen_importance,
    gen_selective,
    gen_snowball,
)
from wcmean.core import (
    IndexPair,
    SampleTargetDistribution,
    SchemaError,
    distribution_to_dict,
    load_distribution_file,
    save_distribution_file,
)

SIGMA = 3.0


# ── importance sampling ──────────────────────────────────────────────


def test_importance_certain_inclusion():
    dist, _ = gen_importance(n=10, split=5, probs=(1.0, 1.0), m=5, seed=0)
    assert all(p.sample == tuple(range(10)) for p in dist.pairs)


def test_importance_full_targets():
    dist, _ = gen_importance(m=20, seed=1)
    assert all(p.target == tuple(range(dist.n)) for p in dist.pairs)


def test_importance_inclusion_rate_concentrates():
    m = 10_000
    dist, _ = gen_importance(m=m, seed=3)
    rate = sum(1 for p in dist.pairs if 0 in p.sample) / m
    # Bernoulli(0.1): 3 sigma = 3 sqrt(.1*.9/m) = 0.009
    assert 0.1 - SIGMA * np.sqrt(0.09 / m) <= rate <= 0.1 + SIGMA * np.sqrt(0.09 / m)


def test_importance_group_structure():
    dist, gs = gen_importance(n=6, split=2, probs=(0.3, 0.7), m=5, seed=0)
    assert gs.groups == ((0, 1), (2, 3, 4, 5))
    np.testing.assert_allclose(gs.inclusion_prob, [0.3, 0.3, 0.7, 0.7, 0.7, 0.7])


def test_importance_determinism():
    a, _ = gen_importance(m=1, seed=9)
    b, _ = gen_importance(m=1, seed=9)
    assert a.pairs == b.pairs


def test_importance_rejects_bad_probs():
    with pytest.raises(ValueError):
        gen_importance(probs=(0.0, 0.5))
    with pytest.raises(ValueError):
        gen_importance(probs=(0.5, 1.5))


@pytest.mark.parametrize("generate", [gen_importance, gen_snowball])
def test_generators_reject_bad_m_and_seed_themselves(generate):
    # the generator's own message, not numpy's
    with pytest.raises(ValueError, match=r"m must be >= 1, got -1"):
        generate(m=-1)
    with pytest.raises(ValueError, match=r"m must be >= 1, got 0"):
        generate(m=0)
    with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
        generate(m=3, seed=-1)


SMALL = {
    gen_importance: dict(n=10, split=5, m=5),
    gen_snowball: dict(n=10, k=2, num_neighbors=3, m=5),
    gen_selective: dict(n=8),
}


@pytest.mark.parametrize(
    "generate, field, value",
    [
        # a float count was truncated, run as a bool's 0 or 1, or failed
        # with a TypeError from numpy or range that the CLI maps to no exit code
        (gen_snowball, "k", 2.5),
        (gen_snowball, "k", True),
        (gen_snowball, "n", 10.0),
        (gen_snowball, "num_neighbors", 3.0),
        (gen_snowball, "recruit", 2.0),
        (gen_snowball, "m", 5.0),
        (gen_snowball, "seed", 1.5),
        (gen_importance, "n", 10.0),
        (gen_importance, "split", 2.5),
        (gen_importance, "m", 5.0),
        (gen_importance, "seed", 0.0),
        (gen_importance, "probs", (0.1, True)),
        (gen_selective, "n", 8.0),
        (gen_selective, "windows", (1.7,)),
    ],
)
def test_generators_refuse_non_integer_counts(generate, field, value):
    with pytest.raises(ValueError, match=rf"^{field} must (be an int|hold ints|hold floats), got "):
        generate(**{**SMALL[generate], field: value})


def test_generators_take_numpy_integer_counts(tmp_path):
    counts = dict(n=10, k=4, num_neighbors=3, recruit=2, m=5, seed=1)
    built = [
        (gen_snowball(**{key: np.int64(v) for key, v in counts.items()})[0], gen_snowball(**counts)[0]),
        (
            gen_importance(**{key: np.int32(v) for key, v in SMALL[gen_importance].items()})[0],
            gen_importance(**SMALL[gen_importance])[0],
        ),
        (gen_selective(n=np.int64(8), windows=(np.int64(2),)), gen_selective(n=8, windows=(2,))),
    ]
    for dist, expected in built:
        # the same process, and a file json can write: n is a Python int
        assert dist == expected and type(dist.n) is int
        save_distribution_file(dist, tmp_path / "d.json")


# ── snowball sampling ────────────────────────────────────────────────


def test_snowball_k_one_is_single_start():
    dist, _ = gen_snowball(n=10, k=1, m=20, seed=0)
    assert all(len(p.sample) == 1 for p in dist.pairs)


def test_snowball_k_equals_n_exhausts():
    dist, _ = gen_snowball(n=8, k=8, num_neighbors=3, recruit=2, m=10, seed=0)
    assert all(p.sample == tuple(range(8)) for p in dist.pairs)


def test_snowball_sample_size_always_k():
    dist, _ = gen_snowball(n=30, k=11, m=1000, seed=4)
    assert all(len(p.sample) == 11 for p in dist.pairs)


def test_snowball_full_targets_and_point_cloud():
    dist, points = gen_snowball(n=12, k=4, m=5, seed=0)
    assert all(p.target == tuple(range(12)) for p in dist.pairs)
    assert points.shape == (12, 2)
    assert np.all((points >= 0.0) & (points <= 1.0))


def test_snowball_byte_identical_serialization():
    a, _ = gen_snowball(m=40, seed=6)
    b, _ = gen_snowball(m=40, seed=6)
    assert json.dumps(distribution_to_dict(a)) == json.dumps(distribution_to_dict(b))


def test_snowball_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_snowball(n=10, k=11)
    with pytest.raises(ValueError):
        gen_snowball(num_neighbors=0)
    with pytest.raises(ValueError):
        gen_snowball(recruit=6, num_neighbors=5)
    with pytest.raises(ValueError):
        gen_snowball(graph="undirected")
    with pytest.raises(ValueError):
        gen_snowball(traversal="dfs")
    with pytest.raises(ValueError):
        gen_snowball(start="alternating")
    with pytest.raises(ValueError):
        gen_snowball(stall="abort")


@pytest.mark.parametrize(
    "variant",
    [
        {"graph": "mutual"},
        {"traversal": "rounds"},
        {"start": "fixed"},
        {"stall": "redraw"},
        {"graph": "mutual", "traversal": "rounds", "start": "fixed", "stall": "redraw"},
    ],
)
def test_snowball_variants_keep_invariants(variant):
    dist, _ = gen_snowball(n=25, k=10, m=200, seed=8, **variant)
    assert all(len(p.sample) == 10 for p in dist.pairs)
    assert all(p.target == tuple(range(25)) for p in dist.pairs)
    again, _ = gen_snowball(n=25, k=10, m=200, seed=8, **variant)
    assert dist.pairs == again.pairs


def test_snowball_fixed_start_shares_first_vertex():
    dist, _ = gen_snowball(n=30, k=5, m=50, seed=11, start="fixed", stall="redraw")
    commons = set(dist.pairs[0].sample)
    for p in dist.pairs[1:]:
        commons &= set(p.sample)
    assert commons  # the fixed start is in every draw


def test_snowball_redraw_from_a_start_that_cannot_grow_fails():
    # vertex 4 reaches 7 vertices over all its mutual links, but a FIFO
    # growth recruiting one of them at a time never collects 7
    with pytest.raises(ValueError, match=rf"start vertex 4 .* {_MAX_REGROWTHS} attempts"):
        gen_snowball(n=40, k=7, num_neighbors=4, recruit=1, m=120, seed=0, graph="mutual", stall="redraw")


# ── bit-identity with numpy's draws ──────────────────────────────────


def reference_gen_snowball(n, k, num_neighbors, recruit, m, seed, graph, traversal, start, stall):
    """The generator as it drew through ``Generator.integers`` and ``choice``.

    It has no regrowth cap: run it only on inputs it finishes.
    """
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    nbrs = _recruitment_lists(points, num_neighbors, graph)
    if stall == "redraw":
        viable = [v for v in range(n) if _reachable_count(nbrs, v) >= k]
        if not viable:
            raise ValueError("no start vertex can reach k members; redraw would loop")
    else:
        viable = list(range(n))

    def pick_start():
        return viable[int(rng.integers(len(viable)))]

    def grow_once(s):
        included = {s}
        queue = deque([s])
        while len(included) < k:
            if traversal == "fifo":
                if not queue:
                    if stall == "redraw":
                        return None
                    fresh = [v for v in range(n) if v not in included]
                    v = int(fresh[rng.integers(len(fresh))])
                    included.add(v)
                    queue.append(v)
                    continue
                recruiters = [queue.popleft()]
            else:
                recruiters = sorted(included)
            grew = False
            for recruiter in recruiters:
                cands = nbrs[recruiter]
                if len(cands) == 0:
                    continue
                picks = rng.choice(cands, size=min(recruit, len(cands)), replace=False)
                for u in picks:
                    u = int(u)
                    if u not in included:
                        included.add(u)
                        queue.append(u)
                        grew = True
                        if len(included) == k:
                            return included
            if traversal == "rounds" and not grew:
                if stall == "redraw":
                    return None
                fresh = [v for v in range(n) if v not in included]
                v = int(fresh[rng.integers(len(fresh))])
                included.add(v)
                queue.append(v)
        return included

    def draw(s):
        while True:
            got = grow_once(s)
            if got is not None:
                return got

    full = tuple(range(n))
    fixed_start = pick_start() if start == "fixed" else None
    pairs = []
    for _ in range(m):
        s = fixed_start if fixed_start is not None else pick_start()
        pairs.append(IndexPair(tuple(sorted(draw(s))), full))
    return SampleTargetDistribution(n, tuple(pairs)), points


READINGS = list(
    itertools.product(("directed", "mutual"), ("fifo", "rounds"), ("perdraw", "fixed"), ("fresh", "redraw"))
)


# (n, k, num_neighbors, recruit, m): k = 1, k = n, recruit = neighbors,
# one recruit, and the tables' n, k, neighbours and recruits
@pytest.mark.parametrize(
    "shape",
    [
        (20, 8, 5, 2, 40),
        (20, 1, 3, 2, 40),
        (12, 12, 3, 2, 40),
        (20, 6, 4, 4, 40),
        (20, 5, 4, 1, 40),
        (30, 10, 6, 3, 40),
        (50, 25, 5, 2, 30),
    ],
)
def test_snowball_draws_match_numpy_generator_calls(shape):
    for seed, (graph, traversal, start, stall) in itertools.product(range(3), READINGS):
        kw = dict(seed=seed, graph=graph, traversal=traversal, start=start, stall=stall)
        try:
            dist, points = gen_snowball(*shape, **kw)
        except ValueError as exc:
            # only a start set that cannot reach k is refused on these inputs
            assert "no start vertex" in str(exc)
            with pytest.raises(ValueError, match="no start vertex"):
                reference_gen_snowball(*shape, **kw)
            continue
        ref_dist, ref_points = reference_gen_snowball(*shape, **kw)
        assert dist == ref_dist, (shape, kw)
        np.testing.assert_array_equal(points, ref_points)


def test_draws_match_generator_integers_and_choice():
    # interleaved on one stream, so a draw too many or too few shows in every later call
    highs = (1, 2, 3, 5, 7, 12, 1000, 2**31 + 7, 2**32 - 1, 2**32)
    for seed in range(20):
        ref, draws = np.random.default_rng(seed), _Draws(np.random.default_rng(seed))
        for pop in range(1, 13):
            for size in range(pop + 1):
                assert draws.sampler(pop, size)() == ref.choice(pop, size, replace=False).tolist()
                high = highs[(pop + size) % len(highs)]
                assert draws.bounded(high - 1) == int(ref.integers(high))


@pytest.mark.parametrize(
    "pop, size",
    # numpy's tail shuffle serves pop > 10 000 with size > pop // 50, Floyd the rest
    [(10_000, 9_000), (10_001, 200), (10_001, 201), (20_000, 400), (20_000, 401), (10_001, 10_001)],
)
def test_draws_match_generator_choice_on_large_populations(pop, size):
    ref, draws = np.random.default_rng(5), _Draws(np.random.default_rng(5))
    for _ in range(2):
        assert draws.sampler(pop, size)() == ref.choice(pop, size, replace=False).tolist()
    assert draws.bounded(pop) == int(ref.integers(pop + 1))


class WordStream:
    """A stand-in Generator whose ``integers`` serves fixed uint32 words in blocks."""

    def __init__(self, words):
        self.words = words
        self.served = 0

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 2**32, np.uint32)
        block = self.words[self.served : self.served + size]
        self.served += size
        return np.array(block, dtype=np.uint32)


class ScalarLemire:
    """numpy's bounded draw for one uint32 range, word by word, with no block
    reads: ``buffered_bounded_lemire_uint32`` in numpy's distributions.c."""

    def __init__(self, words):
        self.words = words
        self.pos = 0
        self.rejected = []  # (span, position of the rejected word)

    def draw(self, rng):
        if rng == 0:
            return 0
        rng_excl = rng + 1
        m = self.words[self.pos] * rng_excl
        self.pos += 1
        leftover = m & 0xFFFFFFFF
        if leftover < rng_excl:
            threshold = (0xFFFFFFFF - rng) % rng_excl
            while leftover < threshold:
                self.rejected.append((rng_excl, self.pos - 1))
                m = self.words[self.pos] * rng_excl
                self.pos += 1
                leftover = m & 0xFFFFFFFF
        return m >> 32

    def choice(self, pop, size):
        """Generator.choice(pop, size, replace=False) for pop <= 10 000."""
        idx = []
        for j in range(pop - size, pop):
            v = self.draw(j)
            idx.append(j if v in idx else v)
        for i in range(size - 1, 0, -1):
            j = self.draw(i)
            idx[i], idx[j] = idx[j], idx[i]
        return idx


def test_draws_take_numpys_rejections_inside_choice():
    # numpy rejects a product whose low word is under (2**32 - span) % span:
    # word 0 for every span but powers of two, and for span 50 any low word
    # under 46, such as the 4 that this word gives
    low_50 = 2 * pow(25, -1, 2**31)
    assert (low_50 * 50) & 0xFFFFFFFF == 4 < (2**32 - 50) % 50
    words = np.random.default_rng(0).integers(0, 2**32, size=3 * _BLOCK, dtype=np.uint32).tolist()
    words[::3] = [0] * len(words[::3])
    words[1::7] = [low_50] * len(words[1::7])
    # a run of zeros where the first block ends, so a rejection reads on into the next
    words[_BLOCK - 4 : _BLOCK + 1] = [0] * 5
    draws, ref = _Draws(WordStream(words)), ScalarLemire(words)
    reused = draws.sampler(5, 3)  # as gen_snowball keeps one per vertex
    while ref.pos < 2 * _BLOCK:
        assert draws.sampler(3, 2)() == ref.choice(3, 2), ref.pos
        assert reused() == ref.choice(5, 3), ref.pos
        assert draws.bounded(4) == ref.draw(4), ref.pos
        assert draws.sampler(50, 2)() == ref.choice(50, 2), ref.pos
        assert draws.sampler(5, 5)() == ref.choice(5, 5), ref.pos
        assert draws.bounded(49) == ref.draw(49), ref.pos
    spans = {span for span, _ in ref.rejected}
    assert {3, 5, 50} <= spans
    assert (_BLOCK - 1) in {pos for _, pos in ref.rejected}
    assert draws.sampler(0, 0)() == []


# ── selective prediction ─────────────────────────────────────────────


def test_selective_tiny_enumeration():
    dist = gen_selective(n=4, windows=[1])
    assert dist.m == 3
    assert dist.pairs[1].sample == (0, 1)
    assert dist.pairs[1].target == (2,)
    assert dist.probs == pytest.approx((1 / 3, 1 / 3, 1 / 3))
    # w = 2 fits only t = 2; each window carries half the probability
    dist = gen_selective(n=4, windows=[1, 2])
    assert [(len(p.sample), p.target) for p in dist.pairs] == [
        (1, (1,)), (2, (2,)), (3, (3,)), (2, (2, 3))
    ]
    assert dist.probs == pytest.approx((1 / 6, 1 / 6, 1 / 6, 1 / 2))


def selective_windows(dist):
    return [len(p.target) for p in dist.pairs]


def test_selective_default_pair_count():
    # t ranges over {w, ..., 32 - w}: 31 + 29 + 25 + 17 + 1 pairs
    dist = gen_selective()
    assert dist.m == 103
    assert sum(dist.probs) == pytest.approx(1.0)
    for p, w in zip(dist.probs, selective_windows(dist)):
        assert p == pytest.approx(1.0 / (5 * (32 - 2 * w + 1)))
    for w in (1, 2, 4, 8, 16):
        mass = sum(p for p, v in zip(dist.probs, selective_windows(dist)) if v == w)
        assert mass == pytest.approx(0.2)


def test_selective_disjoint_prefix_structure():
    dist = gen_selective()
    for p in dist.pairs:
        assert not set(p.sample) & set(p.target)
        assert p.sample == tuple(range(len(p.sample)))
        assert p.target[0] == len(p.sample)
        assert p.target == tuple(range(p.target[0], p.target[-1] + 1))
        assert len(p.target) <= len(p.sample) <= 32 - len(p.target)


def test_selective_overlap_structure():
    dist = gen_selective(overlap=True)
    disjoint = gen_selective()
    assert dist.m == 103
    assert dist.probs == disjoint.probs
    for p, q in zip(dist.pairs, disjoint.pairs):
        t = len(p.sample)
        assert set(p.sample) & set(p.target) == {t - 1}
        assert p.sample == q.sample
        assert p.target == (t - 1,) + q.target


def test_selective_rejects_oversized_window():
    with pytest.raises(ValueError):
        gen_selective(n=8, windows=[8])
    with pytest.raises(ValueError):
        gen_selective(n=8, windows=[5])  # 2w > n: no prefix t in {w, ..., n - w}
    assert gen_selective(n=8, windows=[4]).m == 1
    with pytest.raises(ValueError):
        gen_selective(n=8, windows=[])
    with pytest.raises(ValueError):
        gen_selective(n=8, windows=[0])


# ── file ingestion ───────────────────────────────────────────────────


def test_load_distribution_round_trip(tmp_path):
    dist, _ = gen_importance(m=5, seed=2)
    path = tmp_path / "d.json"
    save_distribution_file(dist, path)
    assert load_distribution_file(path).pairs == dist.pairs


def test_load_distribution_schema_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "pairs": [{"A": [0], "B": []}]}')
    with pytest.raises(SchemaError):
        load_distribution_file(path)
