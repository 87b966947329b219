"""Property tests of distribution construction and of the distribution file
reader against per-pair and per-list reference loops kept here."""

import bisect
import operator

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from wcmean.core import IndexPair, SampleTargetDistribution, SchemaError, distribution_from_dict


def reference_pairs(n, pairs):
    """Pair by pair: sorted distinct ints, or the ValueError naming the
    first fault."""
    canonical = []
    for i, pair in enumerate(pairs):
        try:
            sample = tuple(sorted(set(map(operator.index, pair.sample))))
            target = tuple(sorted(set(map(operator.index, pair.target))))
        except TypeError as exc:
            raise ValueError(f"pair {i}: indices must be integers: {exc}") from None
        if not target:
            raise ValueError(f"pair {i}: target set is empty")
        for idx in (sample, target):
            if idx and (idx[0] < 0 or idx[-1] >= n):
                j = idx[0] if idx[0] < 0 else idx[bisect.bisect_left(idx, n)]
                raise ValueError(f"pair {i}: index {j} outside [0, {n})")
        canonical.append(IndexPair(sample, target))
    return tuple(canonical)


def outcome(build, *args):
    """("ok", what ``build(*args)`` returns), or ("raised", the type, code
    and text of the ValueError it raises)."""
    try:
        return "ok", build(*args)
    except ValueError as exc:
        return "raised", type(exc), getattr(exc, "code", None), str(exc)


@st.composite
def index_pairs(draw):
    n = draw(st.integers(1, 8))
    faulty = draw(st.booleans())
    index = st.integers(0, n - 1)
    # numpy integers and bools, which operator.index takes
    element = st.one_of(index, index.map(np.int64), index.map(np.uint8), st.booleans())
    if faulty:
        element = st.one_of(
            element, st.sampled_from([-3, -1, n, n + 2, 10**30, 0.5, 2.0, np.float64(1.0)])
        )

    def sequence(min_size):
        raw = st.lists(element, min_size=min_size, max_size=6)
        # as drawn (unsorted, duplicates), or already canonical
        seq = draw(st.one_of(raw, raw.map(lambda v: sorted(set(v)))))
        return draw(st.sampled_from([tuple, list]))(seq)

    pairs = []
    targets = []
    for _ in range(draw(st.integers(1, 6))):
        if targets and draw(st.booleans()):
            target = draw(st.sampled_from(targets))  # the same object again
        else:
            target = sequence(0 if faulty else 1)
            targets.append(target)
        pairs.append(IndexPair(sequence(0), target))
    return n, tuple(pairs)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(index_pairs())
def test_constructor_matches_the_per_pair_reference(drawn):
    n, pairs = drawn
    expected = outcome(reference_pairs, n, pairs)
    got = outcome(lambda: SampleTargetDistribution(n, pairs).pairs)
    assert got == expected
    if got[0] == "raised":
        return
    assert all(type(j) is int for p in got[1] for j in p.sample + p.target)
    for given_pair, kept in zip(pairs, got[1]):
        # a pair already in canonical form is kept as the very object
        canonical = all(
            type(idx) is tuple and all(type(j) is int for j in idx)
            for idx in (given_pair.sample, given_pair.target)
        ) and given_pair == kept
        assert (kept is given_pair) == canonical


def reference_index_list(raw, n, where):
    if not isinstance(raw, list) or not all(isinstance(j, int) and not isinstance(j, bool) for j in raw):
        raise SchemaError("bad_schema", f"{where}: expected a list of integers")
    for j in raw:
        if not 0 <= j < n:
            raise SchemaError("index_out_of_range", f"{where}: index {j} outside [0, {n})")
    for prev, cur in zip(raw, raw[1:]):
        if cur == prev:
            raise SchemaError("duplicate_indices", f"{where}: duplicate index {cur}")
        if cur < prev:
            raise SchemaError("unsorted_indices", f"{where}: indices not sorted")
    return tuple(raw)


def reference_from_dict(data):
    """List by list, in file order (the header checks left out: the test
    draws a valid header)."""
    n = data["n"]
    pairs = []
    probs = []
    for i, entry in enumerate(data["pairs"]):
        if not isinstance(entry, dict) or "A" not in entry or "B" not in entry:
            raise SchemaError("bad_schema", f'pair {i}: expected keys "A" and "B"')
        sample = reference_index_list(entry["A"], n, f'pair {i} "A"')
        target = reference_index_list(entry["B"], n, f'pair {i} "B"')
        if not target:
            raise SchemaError("empty_target", f'pair {i}: "B" must be nonempty')
        pairs.append(IndexPair(sample, target))
        if "p" in entry:
            p = entry["p"]
            if not isinstance(p, (int, float)) or isinstance(p, bool):
                raise SchemaError("bad_schema", f'pair {i}: "p" must be a number')
            try:
                probs.append(float(p))
            except OverflowError:
                raise SchemaError("bad_schema", f'pair {i}: "p" too large for a float') from None
    if not probs:
        return SampleTargetDistribution(n, tuple(pairs))
    if len(probs) != len(pairs):
        raise SchemaError("bad_schema", '"p" must be given for every pair or for none')
    return SampleTargetDistribution(n, tuple(pairs), tuple(probs))


@st.composite
def file_data(draw):
    n = draw(st.integers(1, 8))
    faulty = draw(st.booleans())
    element = st.integers(0, n - 1)
    if faulty:
        # what json.loads can hand over, and a few Python values it cannot
        element = st.one_of(
            element,
            st.sampled_from([-1, n, 10**30, True, False, 1.0, "1", None, [0], np.int64(0)]),
        )

    def index_list(min_size):
        raw = st.lists(element, min_size=min_size, max_size=6)
        # sorted and distinct where the values allow it, or as drawn when faulty
        canonical = raw.map(lambda v: sorted({repr(x): x for x in v}.values(), key=repr))
        seq = draw(st.one_of(canonical, raw) if faulty else canonical)
        if faulty and draw(st.integers(0, 9)) == 0:
            return tuple(seq)
        return list(seq)

    m = draw(st.integers(1, 5))
    weighted = draw(st.booleans())
    entries = []
    for _ in range(m):
        entry = {"A": index_list(0), "B": index_list(0 if faulty else 1)}
        if weighted:
            entry["p"] = 1 / m
        if faulty:
            roll = draw(st.integers(0, 19))
            if roll == 0:
                del entry[draw(st.sampled_from(["A", "B"]))]
            elif roll == 1:
                entry = [entry.get("A"), entry.get("B")]
            elif roll == 2:
                entry["p"] = draw(st.sampled_from([True, "0.5", 10**400, -1.0]))
            elif roll == 3 and weighted:
                del entry["p"]
            elif roll == 3:
                entry["p"] = 1.0
        entries.append(entry)
    return {"n": n, "pairs": entries}


@settings(derandomize=True, deadline=None, max_examples=400)
@given(file_data())
def test_reader_matches_the_per_list_reference(data):
    expected = outcome(reference_from_dict, data)
    got = outcome(distribution_from_dict, data)
    assert got == expected
    if got[0] == "ok":
        assert all(type(j) is int for p in got[1].pairs for j in p.sample + p.target)
