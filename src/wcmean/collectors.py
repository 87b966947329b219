"""Generators for the three studied data-collection processes."""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .baselines import GroupStructure
from .core import IndexPair, SampleTargetDistribution


def _is_int(value) -> bool:
    """An int or a numpy integer, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_ints(**counts) -> None:
    """Refuse a float or bool count, which would be truncated, run as 0 or 1,
    or fail inside numpy or ``range`` with a TypeError."""
    for name, value in counts.items():
        if not _is_int(value):
            raise ValueError(f"{name} must be an int, got {value!r}")


def _check_m_seed(m: int, seed: int) -> None:
    """The draw count and the rng seed, checked before numpy sees them."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def gen_importance(
    n: int = 50,
    split: int = 25,
    probs: tuple[float, float] = (0.1, 0.5),
    m: int = 2000,
    seed: int = 0,
) -> tuple[SampleTargetDistribution, GroupStructure]:
    """Independent Bernoulli inclusion with two probability groups.

    Indices [0, split) are included with probs[0], the rest with probs[1];
    every target set is the full population.
    """
    _check_ints(n=n, split=split, m=m, seed=seed)
    if not 0 < split < n:
        raise ValueError(f"split must lie strictly inside (0, {n}), got {split}")
    for p in probs:
        if isinstance(p, bool) or not isinstance(p, (int, float, np.integer, np.floating)):
            raise ValueError(f"probs must hold floats, got {p!r}")
        if not 0.0 < p <= 1.0:
            raise ValueError(f"inclusion probabilities must lie in (0, 1], got {p}")
    _check_m_seed(m, seed)
    rng = np.random.default_rng(seed)
    inclusion = np.where(np.arange(n) < split, probs[0], probs[1])
    draws = rng.random((m, n)) < inclusion
    full = tuple(range(n))
    pairs = tuple(
        IndexPair(tuple(int(j) for j in np.flatnonzero(row)), full) for row in draws
    )
    gs = GroupStructure(
        groups=(tuple(range(split)), tuple(range(split, n))),
        inclusion_prob=inclusion,
    )
    return SampleTargetDistribution(int(n), pairs), gs


def _recruitment_lists(
    points: np.ndarray, num_neighbors: int, graph: str
) -> list[np.ndarray]:
    """Per-vertex recruitment candidates on the nearest-neighbor graph."""
    n = len(points)
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    # stable argsort so distance ties break by index, keeping draws reproducible
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :num_neighbors]
    if graph == "directed":
        return [nearest[v] for v in range(n)]
    if graph == "mutual":
        adj = np.zeros((n, n), dtype=bool)
        for v in range(n):
            adj[v, nearest[v]] = True
        adj &= adj.T
        return [np.flatnonzero(adj[v]) for v in range(n)]
    raise ValueError(f"graph must be 'directed' or 'mutual', got {graph!r}")


def _reachable_count(nbrs: list[list[int]], start: int) -> int:
    seen = {start}
    stack = [start]
    while stack:
        for u in nbrs[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen)


# Regrowths of one draw under stall="redraw" before it fails: reachability
# admits a start that a FIFO growth recruiting fewer than all neighbours may
# never grow to k members from.  The slowest growth that does finish among
# the tested inputs (k = n = 40, directed FIFO) took 671 regrowths per draw
# on average and 3867 at most.
_MAX_REGROWTHS = 50_000

# uint32 draws read from the Generator per block
_BLOCK = 1024


class _Draws:
    """numpy's bounded draws, made in Python on a Generator's uint32 stream.

    It exists so that the snowball samples stay bit-identical to
    ``Generator.integers`` and ``Generator.choice`` while skipping their
    argument handling, which costs about 12 µs per call and made most of
    the generator's time.  ``bounded(hi)`` equals ``rng.integers(hi + 1)``:
    Lemire's multiply with numpy's rejection threshold (Lemire 2019).
    ``sampler(pop, size)`` builds ``rng.choice(pop, size, replace=False)``
    once as a function of no arguments: Floyd's sampling (Bentley & Floyd
    1987) and a Fisher-Yates pass, whose indices take Lemire's multiply and
    shift inline, or numpy's tail shuffle for pop > 10 000.  So a snowball
    recruit costs one Python call; only the rare rejection goes through
    ``_redraw``.  Blocks are read ahead of the last draw, so the
    Generator must serve nothing else afterwards.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        # chain's C-level __next__ reads a block per _BLOCK draws and
        # resumes no Python frame in between
        self._next = chain.from_iterable(iter(self._block, None)).__next__

    def _block(self) -> list[int]:
        return self._rng.integers(0, 2**32, size=_BLOCK, dtype=np.uint32).tolist()

    def _redraw(self, m: int, span: int) -> int:
        """Lemire's product ``m`` for ``span``, drawn again while its low word
        is under numpy's threshold; called only when that word is under span."""
        threshold = (0x100000000 - span) % span
        while (m & 0xFFFFFFFF) < threshold:
            m = self._next() * span
        return m

    def bounded(self, hi: int) -> int:
        """A uniform integer in [0, hi] for hi < 2**32; hi == 0 consumes no draw."""
        if hi == 0:
            return 0
        span = hi + 1
        m = self._next() * span
        if (m & 0xFFFFFFFF) < span:
            m = self._redraw(m, span)
        return m >> 32

    def sampler(self, pop: int, size: int) -> Callable[[], list[int]]:
        """``size`` distinct uniform picks from range(pop), in numpy's order,
        as a function of no arguments, built once for a caller that draws
        with the same pop and size again and again."""
        if pop > 10_000 and size > pop // 50:
            bounded = self.bounded

            def tail_shuffle() -> list[int]:
                # the last `size` places of a Fisher-Yates pass run from the end
                idx = list(range(pop))
                for i in range(pop - 1, pop - size - 1, -1):
                    j = bounded(i)
                    idx[i], idx[j] = idx[j], idx[i]
                return idx[pop - size :]

            return tail_shuffle
        nxt, redraw = self._next, self._redraw
        floyd, shuffle = range(pop - size, pop), range(size - 1, 0, -1)

        def floyd_shuffle() -> list[int]:
            picks = []
            taken = set()
            for j in floyd:
                if j:
                    span = j + 1
                    m = nxt() * span
                    if (m & 0xFFFFFFFF) < span:
                        m = redraw(m, span)
                    v = m >> 32
                    if v in taken:
                        v = j
                else:  # a draw from range(1) is 0 and consumes no draw
                    v = 0
                taken.add(v)
                picks.append(v)
            # each swap index is a Lemire draw too, not numpy's masked one
            for i in shuffle:
                span = i + 1
                m = nxt() * span
                if (m & 0xFFFFFFFF) < span:
                    m = redraw(m, span)
                j = m >> 32
                picks[i], picks[j] = picks[j], picks[i]
            return picks

        return floyd_shuffle


def gen_snowball(
    n: int = 50,
    k: int = 25,
    num_neighbors: int = 5,
    recruit: int = 2,
    m: int = 2000,
    seed: int = 0,
    graph: str = "directed",
    traversal: str = "fifo",
    start: str = "perdraw",
    stall: str = "fresh",
) -> tuple[SampleTargetDistribution, np.ndarray]:
    """Snowball sampling over a random point cloud in the unit square.

    Each draw grows a sample from a uniform start vertex by recruiting
    ``recruit`` distinct uniform picks among each member's neighbors
    (already-included picks are skipped), stopping at exactly k members;
    the target set is the full population.  Returns the distribution and
    the (n, 2) point cloud.

    The recruitment semantics are deliberately parameterized, since
    published snowball experiments rarely pin them down:

    - graph: "directed" recruits among each vertex's ``num_neighbors``
      nearest points; "mutual" keeps only reciprocated neighbor links.
    - traversal: "fifo" lets each member recruit once, in inclusion
      order; "rounds" sweeps every member again each round.
    - start: "perdraw" draws a fresh uniform start per sample; "fixed"
      draws one start for the whole distribution.
    - stall: when growth dies before k, "fresh" inserts a uniform
      unincluded vertex, "redraw" regrows the sample from its start
      (starts are then restricted to vertices that can reach k members).
      A draw still short of k after ``_MAX_REGROWTHS`` regrowths raises
      ValueError.

    Every sample is the one that ``Generator.integers`` for the starts and
    ``Generator.choice(..., replace=False)`` for each recruiter's picks
    would draw; ``_Draws`` makes those draws with one Python call per
    recruiter, in a growth loop of its own for each traversal.  The counts
    must be ints or numpy integers: a float or a bool raises ValueError.
    """
    _check_ints(n=n, k=k, num_neighbors=num_neighbors, recruit=recruit, m=m, seed=seed)
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    if not 1 <= num_neighbors < n:
        raise ValueError(f"num_neighbors must lie in [1, {n}), got {num_neighbors}")
    if not 1 <= recruit <= num_neighbors:
        raise ValueError(f"recruit must lie in [1, {num_neighbors}], got {recruit}")
    if traversal not in ("fifo", "rounds"):
        raise ValueError(f"traversal must be 'fifo' or 'rounds', got {traversal!r}")
    if start not in ("perdraw", "fixed"):
        raise ValueError(f"start must be 'perdraw' or 'fixed', got {start!r}")
    if stall not in ("fresh", "redraw"):
        raise ValueError(f"stall must be 'fresh' or 'redraw', got {stall!r}")
    _check_m_seed(m, seed)
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    nbrs = [c.tolist() for c in _recruitment_lists(points, num_neighbors, graph)]
    draws = _Draws(rng)

    if stall == "redraw":
        viable = [v for v in range(n) if _reachable_count(nbrs, v) >= k]
        if not viable:
            raise ValueError("no start vertex can reach k members; redraw would loop")
    else:
        viable = list(range(n))

    def pick_start() -> int:
        return viable[draws.bounded(len(viable) - 1)]

    def add_fresh(included: set[int]) -> int:
        fresh = [v for v in range(n) if v not in included]
        v = fresh[draws.bounded(len(fresh) - 1)]
        included.add(v)
        return v

    # each vertex's candidates and the draw of its recruits among them; a
    # vertex with none (mutual graph) recruits none and draws nothing
    recruits = [(cands, draws.sampler(len(cands), min(recruit, len(cands)))) for cands in nbrs]

    # one growth attempt per traversal; None signals a stall under redraw
    def grow_fifo(s: int) -> set[int] | None:
        included = {s}
        queue: deque[int] = deque([s])
        while len(included) < k:
            if not queue:
                if stall == "redraw":
                    return None
                queue.append(add_fresh(included))
                continue
            cands, pick = recruits[queue.popleft()]
            for i in pick():
                u = cands[i]
                if u not in included:
                    included.add(u)
                    if len(included) == k:
                        return included
                    queue.append(u)
        return included

    def grow_rounds(s: int) -> set[int] | None:
        included = {s}
        while len(included) < k:
            grew = False
            for recruiter in sorted(included):
                cands, pick = recruits[recruiter]
                for i in pick():
                    u = cands[i]
                    if u not in included:
                        included.add(u)
                        grew = True
                        if len(included) == k:
                            return included
            if not grew:
                if stall == "redraw":
                    return None
                add_fresh(included)
        return included

    grow_once = grow_fifo if traversal == "fifo" else grow_rounds

    def draw(s: int) -> set[int]:
        for _ in range(_MAX_REGROWTHS):
            got = grow_once(s)
            if got is not None:
                return got
        raise ValueError(
            f"start vertex {s} did not grow to {k} members in {_MAX_REGROWTHS} "
            "attempts under stall='redraw'; use stall='fresh'"
        )

    full = tuple(range(n))
    fixed_start = pick_start() if start == "fixed" else None
    pairs = []
    for _ in range(m):
        s = fixed_start if fixed_start is not None else pick_start()
        pairs.append(IndexPair(tuple(sorted(draw(s))), full))
    return SampleTargetDistribution(int(n), tuple(pairs)), points


def gen_selective(
    n: int = 32,
    windows: Sequence[int] = (1, 2, 4, 8, 16),
    overlap: bool = False,
) -> SampleTargetDistribution:
    """Selective prediction: a random window w, then a random prefix length t.

    The process draws w uniformly from ``windows`` and then t uniformly
    from {w, ..., n - w}.  The sample is the prefix {0, ..., t-1} and the
    target is {t, ..., t+w-1} (disjoint convention) or {t-1, ..., t-1+w}
    (overlap convention: the newest observed point is also a target).  The
    process is returned exactly, without randomness: one pair per (w, t),
    ordered by window and then prefix length, with probability
    1 / (len(windows) (n - 2w + 1)).  A window with 2w > n has no valid
    prefix and is an error.
    """
    _check_ints(n=n)
    windows = tuple(windows)
    if not windows:
        raise ValueError("at least one window length is required")
    for w in windows:
        if not _is_int(w):
            raise ValueError(f"windows must hold ints, got {w!r}")
        if w < 1:
            raise ValueError(f"window lengths must be >= 1, got {w}")
        if 2 * w > n:
            raise ValueError(f"window {w} leaves no valid prefix for population {n}")
    pairs = []
    probs = []
    for w in windows:
        prefixes = range(w, n - w + 1)
        for t in prefixes:
            sample = tuple(range(t))
            if overlap:
                target = tuple(range(t - 1, t + w))
            else:
                target = tuple(range(t, t + w))
            pairs.append(IndexPair(sample, target))
            probs.append(1.0 / (len(windows) * len(prefixes)))
    return SampleTargetDistribution(int(n), tuple(pairs), tuple(probs))

