"""Property tests of the distribution and estimator JSON formats."""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from wcmean.core import (
    _WRITE_BLOCK_ROWS,
    IndexPair,
    SampleTargetDistribution,
    SchemaError,
    SemilinearEstimator,
    distribution_from_dict,
    distribution_to_dict,
    estimator_from_dict,
    load_estimator_file,
    save_estimator_file,
)

# values whose text is easy to get wrong: a signed zero, the smallest
# subnormal, the largest float, and the switches to exponent notation
EDGE_VALUES = [0.0, -0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-05]


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


@pytest.fixture(scope="module")
def est_path(tmp_path_factory):
    """One file path, rewritten by each example."""
    return tmp_path_factory.mktemp("json") / "est.json"


def write_and_read(est, path):
    """The text save_estimator_file writes for est, and the estimator read back."""
    save_estimator_file(est, path)
    return path.read_text(), load_estimator_file(path)


@settings(derandomize=True, deadline=None)
@given(valid_inputs(), st.data())
def test_json_round_trip_and_index_error_codes(est_path, inputs, data):
    dist, est = inputs
    assert distribution_from_dict(json_copy(distribution_to_dict(dist))) == dist
    text, loaded = write_and_read(est, est_path)
    assert loaded == est

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

    weights = json.loads(text)["weights"]
    row = weights[data.draw(st.integers(0, est.m - 1))]
    row.append([dist.n, 1.0])
    with pytest.raises(SchemaError) as exc:
        estimator_from_dict({"n": est.n, "weights": weights})
    assert exc.value.code == "index_out_of_range"
    row[-1:] = [[0, 1.0], [0, 1.0]]
    with pytest.raises(SchemaError) as exc:
        estimator_from_dict({"n": est.n, "weights": weights})
    assert exc.value.code == "duplicate_indices"


# m = 1, a whole block, and counts of rows that are not a multiple of it
@pytest.mark.parametrize("m", [1, _WRITE_BLOCK_ROWS, _WRITE_BLOCK_ROWS + 1, 2 * _WRITE_BLOCK_ROWS + 7])
@settings(derandomize=True, deadline=None, max_examples=50)
@given(data=st.data())
def test_estimator_file_text_is_json_dumps_of_the_rows(est_path, m, data):
    n = data.draw(st.integers(1, 6))
    values = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))
    # rows may be empty, and may hold explicit zeros
    maps = data.draw(st.lists(st.dictionaries(st.integers(0, n - 1), values), min_size=m, max_size=m))
    est = SemilinearEstimator(n, tuple(maps))
    dense = est.dense()
    rows = [
        [[j, dense[i, j].item()] for j in np.flatnonzero(est.support[i]).tolist()]
        for i in range(m)
    ]
    text, loaded = write_and_read(est, est_path)
    assert text == json.dumps({"n": n, "weights": rows}) + "\n"
    assert loaded.n == n
    assert np.array_equal(loaded.support, est.support)
    # bit for bit, so a zero keeps its sign
    assert loaded.values.tobytes() == est.values.tobytes()
