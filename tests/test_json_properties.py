"""Property test of the distribution and estimator JSON formats."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from wcmean.core import (
    IndexPair,
    SampleTargetDistribution,
    SchemaError,
    SemilinearEstimator,
    distribution_from_dict,
    distribution_to_dict,
    estimator_from_dict,
    estimator_to_dict,
)


def index_lists(n, min_size=0):
    return st.lists(st.integers(0, n - 1), min_size=min_size, unique=True).map(sorted)


@st.composite
def valid_inputs(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 5))
    pairs = tuple(
        IndexPair(tuple(draw(index_lists(n))), tuple(draw(index_lists(n, min_size=1))))
        for _ in range(m)
    )
    probs = None
    if draw(st.booleans()):
        counts = draw(st.lists(st.integers(0, 9), min_size=m, max_size=m).filter(any))
        probs = tuple(k / sum(counts) for k in counts)
    dist = SampleTargetDistribution(n, pairs, probs)
    values = st.floats(allow_nan=False, allow_infinity=False)
    est = SemilinearEstimator(
        n,
        tuple(
            draw(st.dictionaries(st.integers(0, n - 1), values, max_size=n))
            for _ in range(m)
        ),
    )
    return dist, est


def json_copy(data):
    return json.loads(json.dumps(data))


@settings(derandomize=True, deadline=None)
@given(valid_inputs(), st.data())
def test_json_round_trip_and_index_error_codes(inputs, data):
    dist, est = inputs
    assert distribution_from_dict(json_copy(distribution_to_dict(dist))) == dist
    assert estimator_from_dict(json_copy(estimator_to_dict(est))) == est

    # corrupt one index list of a valid file: each fault has its own code
    raw = distribution_to_dict(dist)
    entry = raw["pairs"][data.draw(st.integers(0, dist.m - 1))]
    key = data.draw(st.sampled_from(["A", "B"]).filter(lambda k: entry[k]))
    idx = entry[key]
    faults = {
        "index_out_of_range": idx + [data.draw(st.sampled_from([-1, dist.n]))],
        "duplicate_indices": idx[:1] + idx,
    }
    if len(idx) > 1:
        faults["unsorted_indices"] = idx[1::-1] + idx[2:]
    for code, bad in faults.items():
        entry[key] = bad
        with pytest.raises(SchemaError) as exc:
            distribution_from_dict(raw)
        assert exc.value.code == code
    entry[key] = idx

    weights = estimator_to_dict(est)["weights"]
    row = weights[data.draw(st.integers(0, est.m - 1))]
    row.append([dist.n, 1.0])
    with pytest.raises(SchemaError) as exc:
        estimator_from_dict({"n": est.n, "weights": weights})
    assert exc.value.code == "index_out_of_range"
    row[-1:] = [[0, 1.0], [0, 1.0]]
    with pytest.raises(SchemaError) as exc:
        estimator_from_dict({"n": est.n, "weights": weights})
    assert exc.value.code == "duplicate_indices"
