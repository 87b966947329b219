"""End-to-end CLI coverage through click's test runner."""

import errno
import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from wcmean.baselines import (
    sample_mean_estimator,
    selective_prediction_estimator,
    subgroup_estimator,
)
from wcmean.cli import main
from wcmean.collectors import gen_importance, gen_selective
from wcmean.core import (
    SemilinearEstimator,
    fixed_data_error,
    load_distribution_file,
    save_estimator_file,
)
from wcmean.experiments import synthetic_values
from wcmean.optimizer import OgdConfig, run_with_doubling

SMALL_EXP = ["--m", "60", "--t-max", "8", "--eps", "0.05"]


@pytest.fixture
def runner():
    return CliRunner()


def gen(runner, tmp_path, process, *extra):
    out = tmp_path / f"{process}.json"
    result = runner.invoke(
        main, ["generate", process, "--out", str(out), "--m", "40", *extra]
    )
    assert result.exit_code == 0, result.output
    return out


# ── generate ─────────────────────────────────────────────────────────


def test_generate_importance_writes_dist_and_meta(runner, tmp_path):
    out = gen(runner, tmp_path, "importance")
    meta = json.loads((tmp_path / "importance.meta.json").read_text())
    data = json.loads(out.read_text())
    assert len(data["pairs"]) == 40
    assert len(meta["groups"]) == 2
    assert meta["seed"] == 0


def test_generate_snowball_variant_flags(runner, tmp_path):
    out = gen(
        runner,
        tmp_path,
        "snowball",
        "--k", "8",
        "--graph", "mutual",
        "--traversal", "rounds",
        "--start-policy", "fixed",
        "--stall", "redraw",
    )
    meta = json.loads((tmp_path / "snowball.meta.json").read_text())
    assert meta["graph"] == "mutual"
    assert meta["traversal"] == "rounds"
    assert meta["start"] == "fixed"
    assert meta["stall"] == "redraw"
    data = json.loads(out.read_text())
    assert all(len(p["A"]) == 8 for p in data["pairs"])
    assert len(meta["points"]) == 50


def test_generate_selective_counts_pairs(runner, tmp_path):
    out = gen(runner, tmp_path, "selective")
    data = json.loads(out.read_text())
    assert len(data["pairs"]) == 103
    assert sum(pair["p"] for pair in data["pairs"]) == pytest.approx(1.0)


def test_generate_selective_overlap_flag(runner, tmp_path):
    out = gen(runner, tmp_path, "selective", "--overlap")
    meta = json.loads((tmp_path / "selective.meta.json").read_text())
    assert meta["window_convention"] == "overlap"
    data = json.loads(out.read_text())
    pair = data["pairs"][6]  # w=1, t=7 under the default window list
    assert set(pair["A"]) & set(pair["B"])


def test_selective_probabilities_reach_every_command(runner, tmp_path):
    dist = gen(runner, tmp_path, "selective", "--n", "8", "--windows", "1,2")
    library = gen_selective(n=8, windows=[1, 2])
    assert [pair["p"] for pair in json.loads(dist.read_text())["pairs"]] == list(library.probs)

    cert_path = tmp_path / "cert.json"
    result = runner.invoke(
        main, ["lowerbound", "--dist", str(dist), "--subset", "0,1,2,3", "--out", str(cert_path)]
    )
    assert result.exit_code == 0, result.output
    # only t = 4 qualifies, once per window: 1/14 + 1/10, not 2 of 12 pairs
    assert json.loads(cert_path.read_text())["alpha"] == pytest.approx(1 / 14 + 1 / 10)

    values = tmp_path / "x.json"
    x = np.arange(8.0)
    values.write_text(json.dumps(x.tolist()))
    report = tmp_path / "report.csv"
    result = runner.invoke(
        main,
        ["evaluate", "--dist", str(dist), "--baseline", "selective_prediction",
         "--dataset", f"file:{values}", "--out", str(report)],
    )
    assert result.exit_code == 0, result.output
    expect = fixed_data_error(selective_prediction_estimator(library), library, x)
    assert float(report.read_text().splitlines()[1].split(",")[2]) == pytest.approx(
        expect, abs=1e-6
    )

    est = tmp_path / "est.json"
    result = runner.invoke(
        main,
        ["optimize", "--dist", str(dist), "--regime", "l2", "--t-max", "10",
         "--eps", "0.05", "--out", str(est)],
    )
    assert result.exit_code == 0, result.output
    _, trace, _ = run_with_doubling(library, OgdConfig(regime="l2", eps=0.05, t_max=10))
    summary = json.loads((tmp_path / "est.summary.json").read_text())
    assert summary["best_value"] == pytest.approx(trace.best_value, rel=1e-12)


def test_generate_rejects_bad_windows(runner, tmp_path):
    result = runner.invoke(
        main,
        ["generate", "selective", "--out", str(tmp_path / "x.json"), "--windows", "a,b"],
    )
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "process, args, message",
    [
        ("importance", ["--m", "-1"], "m must be >= 1, got -1"),
        ("snowball", ["--m", "3", "--seed", "-1"], "seed must be >= 0, got -1"),
    ],
)
def test_generate_bad_m_or_seed_is_usage_error(runner, tmp_path, process, args, message):
    out = tmp_path / "x.json"
    result = runner.invoke(main, ["generate", process, *args, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not out.exists()


def test_generate_snowball_redraw_that_cannot_grow_is_usage_error(runner, tmp_path):
    out = tmp_path / "d.json"
    args = ["--n", "40", "--k", "7", "--neighbors", "4", "--recruit", "1", "--graph", "mutual"]
    result = runner.invoke(
        main,
        ["generate", "snowball", "--out", str(out), *args, "--stall", "redraw", "--m", "120", "--seed", "0"],
    )
    assert result.exit_code == 2, result.output
    assert "start vertex 4" in result.output
    assert not out.exists()


def test_generate_determinism(runner, tmp_path):
    a = gen(runner, tmp_path, "snowball")
    text_a = a.read_text()
    b_dir = tmp_path / "again"
    b_dir.mkdir()
    b = gen(runner, b_dir, "snowball")
    assert text_a == b.read_text()


# ── optimize ─────────────────────────────────────────────────────────


def test_optimize_writes_all_outputs(runner, tmp_path):
    dist = gen(runner, tmp_path, "importance")
    est = tmp_path / "est.json"
    result = runner.invoke(
        main,
        [
            "optimize",
            "--dist", str(dist),
            "--regime", "l2",
            "--t-max", "10",
            "--eps", "0.05",
            "--out", str(est),
        ],
    )
    assert result.exit_code == 0, result.output
    assert est.exists()
    summary = json.loads((tmp_path / "est.summary.json").read_text())
    assert "best_value" in summary
    trace_lines = (tmp_path / "est.trace.csv").read_text().strip().splitlines()
    assert len(trace_lines) >= 2


def test_optimize_missing_dist_is_usage_error(runner, tmp_path):
    result = runner.invoke(
        main,
        ["optimize", "--dist", str(tmp_path / "none.json"), "--regime", "l2",
         "--out", str(tmp_path / "e.json")],
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("eps", ["0", "nan", "inf"])
def test_optimize_rejects_bad_eps(runner, tmp_path, eps):
    dist = gen(runner, tmp_path, "importance")
    result = runner.invoke(
        main,
        ["optimize", "--dist", str(dist), "--regime", "linf", "--eps", eps,
         "--t-max", "2", "--out", str(tmp_path / "e.json")],
    )
    assert result.exit_code == 2, result.output
    assert "eps must be positive and finite" in result.output


# ── evaluate ─────────────────────────────────────────────────────────


def test_evaluate_baselines_on_datasets(runner, tmp_path):
    dist = gen(runner, tmp_path, "importance")
    out = tmp_path / "report.csv"
    result = runner.invoke(
        main,
        [
            "evaluate",
            "--dist", str(dist),
            "--baseline", "reweighting",
            "--baseline", "sample_mean",
            "--dataset", "constant",
            "--dataset", "worst-l2",
            "--eps", "0.05",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "estimator,dataset,error"
    assert len(lines) == 1 + 4
    # sample-mean weights sum to one, so constant data is recovered exactly
    values = {tuple(l.split(",")[:2]): float(l.split(",")[2]) for l in lines[1:]}
    assert values[("sample_mean", "constant")] == pytest.approx(0.0, abs=1e-9)
    assert all(v >= 0 for v in values.values())
    assert (tmp_path / "report.provenance.json").exists()


def test_evaluate_spatial_dataset_via_metadata(runner, tmp_path):
    dist = gen(runner, tmp_path, "snowball")
    out = tmp_path / "report.csv"
    result = runner.invoke(
        main,
        [
            "evaluate",
            "--dist", str(dist),
            "--baseline", "sample_mean",
            "--dataset", f"spatial:{tmp_path / 'snowball.meta.json'}",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output


def test_evaluate_requires_some_estimator(runner, tmp_path):
    dist = gen(runner, tmp_path, "importance")
    result = runner.invoke(
        main,
        ["evaluate", "--dist", str(dist), "--dataset", "constant",
         "--out", str(tmp_path / "r.csv")],
    )
    assert result.exit_code == 2


def test_evaluate_unknown_dataset_spec(runner, tmp_path):
    dist = gen(runner, tmp_path, "importance")
    result = runner.invoke(
        main,
        ["evaluate", "--dist", str(dist), "--baseline", "sample_mean",
         "--dataset", "mystery", "--out", str(tmp_path / "r.csv")],
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("dataset", ["worst-linf", "worst-l2"])
def test_evaluate_rejects_nan_eps(runner, tmp_path, dataset):
    dist = gen(runner, tmp_path, "importance")
    result = runner.invoke(
        main,
        ["evaluate", "--dist", str(dist), "--baseline", "sample_mean",
         "--dataset", dataset, "--eps", "nan", "--out", str(tmp_path / "r.csv")],
    )
    assert result.exit_code == 2, result.output


@pytest.mark.parametrize("eps", ["nan", "inf", "0"])
def test_evaluate_rejects_bad_eps_on_fixed_datasets(runner, tmp_path, eps):
    dist = gen(runner, tmp_path, "importance")
    out = tmp_path / "r.csv"
    result = runner.invoke(
        main,
        ["evaluate", "--dist", str(dist), "--baseline", "sample_mean",
         "--dataset", "constant", "--dataset", "intergroup", "--eps", eps,
         "--out", str(out)],
    )
    assert result.exit_code == 2, result.output
    assert "eps must be positive and finite" in result.output
    assert not out.exists()
    assert not out.with_suffix(".provenance.json").exists()


def test_evaluate_malformed_dist_is_schema_error(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    result = runner.invoke(
        main,
        ["evaluate", "--dist", str(bad), "--baseline", "sample_mean",
         "--dataset", "constant", "--out", str(tmp_path / "r.csv")],
    )
    assert result.exit_code == 3


@pytest.mark.parametrize(
    "where, digits, code",
    [
        ("weight", 400, "bad_schema"),
        ("p", 400, "bad_schema"),
        # past Python's 4300-digit limit the JSON reader itself refuses it
        ("weight", 5000, "malformed_json"),
    ],
    ids=["estimator-weight", "pair-probability", "past-digit-limit"],
)
def test_evaluate_oversized_integer_is_schema_error(runner, tmp_path, where, digits, code):
    # valid JSON, but no float holds it
    big = "9" * digits
    p = f', "p": {big}' if where == "p" else ""
    weight = big if where == "weight" else "1.0"
    dist_path, est_path = tmp_path / "dist.json", tmp_path / "est.json"
    dist_path.write_text('{"n": 2, "pairs": [{"A": [0], "B": [0, 1]' + p + "}]}")
    est_path.write_text('{"n": 2, "weights": [[[0, ' + weight + "]]]}")
    result = runner.invoke(
        main,
        ["evaluate", "--dist", str(dist_path), "--estimator", str(est_path),
         "--dataset", "constant", "--out", str(tmp_path / "r.csv")],
    )
    assert result.exit_code == 3, result.output
    assert f"[{code}]" in result.output


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--dataset", "file:{tmp}/missing.json"),
        ("--dataset", "spatial:{tmp}/nope.json"),
        ("--metadata", "{tmp}"),  # a directory
        ("--metadata", "{tmp}/nothere.json"),
    ],
)
def test_evaluate_unreadable_input_is_schema_error(runner, tmp_path, flag, value):
    dist = gen(runner, tmp_path, "importance")
    args = ["evaluate", "--dist", str(dist), "--baseline", "sample_mean",
            "--out", str(tmp_path / "r.csv"), flag, value.format(tmp=tmp_path)]
    if flag != "--dataset":
        args += ["--dataset", "constant"]
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert "[unreadable]" in result.output


@pytest.mark.parametrize("flag", ["--dist", "--metadata", "--dataset"])
def test_evaluate_non_utf8_input_is_malformed_json(runner, tmp_path, flag):
    dist = gen(runner, tmp_path, "importance")
    binary = tmp_path / "bin.json"
    binary.write_bytes(b"\xff\xfe\x00{")
    inputs = {"--dist": str(dist), "--metadata": str(dist.with_suffix(".meta.json")),
              "--dataset": "constant"}
    inputs[flag] = f"file:{binary}" if flag == "--dataset" else str(binary)
    args = ["evaluate", "--baseline", "sample_mean", "--out", str(tmp_path / "r.csv")]
    for option, value in inputs.items():
        args += [option, value]
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert "[malformed_json]" in result.output


def evaluate_dataset(runner, tmp_path, kind, content):
    """Run evaluate on a 50-point importance process with one dataset file."""
    dist = gen(runner, tmp_path, "importance")
    data = tmp_path / "data.json"
    data.write_text(content if isinstance(content, str) else json.dumps(content))
    return runner.invoke(
        main,
        ["evaluate", "--dist", str(dist), "--baseline", "sample_mean",
         "--dataset", f"{kind}:{data}", "--out", str(tmp_path / "r.csv")],
    )


@pytest.mark.parametrize(
    "kind, content",
    [
        ("file", ["a", "b"]),
        ("file", {"y": [1, 2]}),
        ("file", [[1.0, 2.0]] * 25),
        ("file", "[NaN" + ", 1.0" * 49 + "]"),
        ("spatial", {"points": "abc"}),
        ("spatial", list(range(50))),
        ("spatial", [[0.5, 0.5], [0.5]]),
    ],
    ids=[
        "file-strings",
        "file-no-x-key",
        "file-nested",
        "file-nan",
        "spatial-string",
        "spatial-flat",
        "spatial-ragged",
    ],
)
def test_evaluate_malformed_dataset_is_schema_error(runner, tmp_path, kind, content):
    result = evaluate_dataset(runner, tmp_path, kind, content)
    assert result.exit_code == 3, result.output
    assert "[bad_schema]" in result.output


@pytest.mark.parametrize(
    "kind, content",
    [("file", [1.0, 2.0, 3.0]), ("file", {"x": [1.0]}), ("spatial", [[0.5, 0.5]] * 3)],
)
def test_evaluate_dataset_of_wrong_size_is_usage_error(runner, tmp_path, kind, content):
    result = evaluate_dataset(runner, tmp_path, kind, content)
    assert result.exit_code == 2, result.output


def test_evaluate_selective_overlap_matches_experiment_estimator(runner, tmp_path):
    # the experiment's estimator averages the last w observed values, w being
    # the number of unobserved target indices: |B| - 1 under --overlap
    dist = gen(runner, tmp_path, "selective", "--n", "18", "--windows", "1,2,4,8", "--overlap")
    library = gen_selective(n=18, windows=[1, 2, 4, 8], overlap=True)
    weights = []
    for pair in library.pairs:
        t = len(pair.sample)
        k = min(len(pair.target) - 1, t)
        weights.append({j: 1.0 / k for j in range(t - k, t)})
    expected = tmp_path / "experiment_rule.json"
    save_estimator_file(SemilinearEstimator(library.n, tuple(weights)), expected)
    report = tmp_path / "r.csv"
    result = runner.invoke(
        main,
        ["evaluate", "--dist", str(dist), "--estimator", str(expected),
         "--baseline", "selective_prediction", "--dataset", "worst-l2", "--out", str(report)],
    )
    assert result.exit_code == 0, result.output
    values = [line.split(",")[2] for line in report.read_text().splitlines()[1:]]
    assert values == ["1.179098", "1.179098"]


@pytest.mark.parametrize("dataset", ["worst-l2", "worst-linf", "constant"])
def test_evaluate_estimator_whose_loss_gram_overflows_is_usage_error(runner, tmp_path, dataset):
    # finite weights near 1e200: the loss factor is finite, its Gram and its
    # quadratic forms are not
    dist_path, est_path = tmp_path / "dist.json", tmp_path / "est.json"
    dist_path.write_text('{"n": 2, "pairs": [{"A": [0], "B": [0, 1]}, {"A": [1], "B": [1]}]}')
    est_path.write_text('{"n": 2, "weights": [[[0, 1e200]], [[1, 1.0]]]}')
    result = runner.invoke(
        main,
        ["evaluate", "--dist", str(dist_path), "--estimator", str(est_path),
         "--dataset", dataset, "--out", str(tmp_path / "r.csv")],
    )
    assert result.exit_code == 2, result.output
    assert "non-finite" in result.output
    assert not (tmp_path / "r.csv").exists()


def test_evaluate_intergroup_follows_the_metadata_split(runner, tmp_path):
    # +1 on the metadata's first group, 10 indices, as the importance table
    # reads it, not on the first half
    dist = gen(runner, tmp_path, "importance", "--n", "40", "--split", "10")
    library, gs = gen_importance(n=40, split=10, m=40, seed=0)
    est = subgroup_estimator(library, gs)
    expected, first_half = (
        f"{fixed_data_error(est, library, synthetic_values('intergroup', 40, split)):.6f}"
        for split in (10, None)
    )
    assert expected != first_half
    out = tmp_path / "r.csv"
    args = ["evaluate", "--dist", str(dist), "--baseline", "subgroup",
            "--dataset", "intergroup", "--out", str(out)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert out.read_text().splitlines()[1] == f"subgroup,intergroup,{expected}"
    # groups of another population are refused
    other_n = tmp_path / "other.meta.json"
    other_n.write_text(json.dumps({"groups": [[0], [1]], "inclusion_prob": [0.5, 0.5]}))
    result = runner.invoke(main, [*args, "--metadata", str(other_n)])
    assert result.exit_code == 2, result.output
    assert "population size does not match" in result.output


def test_evaluate_intergroup_without_groups_takes_the_first_half(runner, tmp_path):
    dist = gen(runner, tmp_path, "selective", "--n", "18", "--windows", "1,2,4,8")
    out = tmp_path / "r.csv"
    result = runner.invoke(
        main,
        ["evaluate", "--dist", str(dist), "--baseline", "sample_mean",
         "--dataset", "intergroup", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    library = gen_selective(n=18, windows=[1, 2, 4, 8])
    x = synthetic_values("intergroup", 18)
    value = fixed_data_error(sample_mean_estimator(library), library, x)
    assert out.read_text().splitlines()[1] == f"sample_mean,intergroup,{value:.6f}"


@pytest.mark.parametrize(
    "command, args, code",
    [
        ("evaluate", ["--estimator", "{est}", "--dataset", "constant"], 0),
        ("evaluate", ["--baseline", "sample_mean", "--dataset", "worst-l2"], 0),
        ("evaluate", ["--estimator", "{est}", "--dataset", "intergroup"], 3),
        ("evaluate", ["--baseline", "reweighting", "--dataset", "constant"], 3),
        ("lowerbound", ["--estimator", "{est}"], 0),
        ("lowerbound", ["--baseline", "sample_mean"], 0),
        ("lowerbound", ["--baseline", "subgroup"], 3),
    ],
)
def test_default_metadata_is_read_only_when_needed(runner, tmp_path, command, args, code):
    # a malformed <dist>.meta.json stops only a command that needs the groups
    dist = half_split_file(tmp_path)
    dist.with_suffix(".meta.json").write_text("{broken")
    est = tmp_path / "est.json"
    save_estimator_file(sample_mean_estimator(load_distribution_file(dist)), est)
    args = [arg.format(est=est) for arg in args]
    result = runner.invoke(
        main, [command, "--dist", str(dist), *args, "--out", str(tmp_path / "r.out")]
    )
    assert result.exit_code == code, result.output
    if code:
        assert "[malformed_json]" in result.output


def test_evaluate_sdp_sweep_cap_exit_code(runner, tmp_path, capped_sdp):
    dist = gen(runner, tmp_path, "importance")
    result = runner.invoke(
        main,
        ["evaluate", "--dist", str(dist), "--baseline", "sample_mean",
         "--dataset", "worst-linf", "--out", str(tmp_path / "r.csv")],
    )
    assert result.exit_code == 4, result.output
    assert "sdp solver did not converge" in result.output
    assert len(capped_sdp) == 1


# ── experiment ───────────────────────────────────────────────────────


def test_experiment_importance_smoke(runner, tmp_path):
    result = runner.invoke(
        main,
        ["experiment", "importance", "--out-dir", str(tmp_path), *SMALL_EXP],
    )
    assert result.exit_code == 0, result.output
    csv_text = (tmp_path / "importance.csv").read_text()
    assert csv_text.startswith("data_values,")
    prov = json.loads((tmp_path / "importance.provenance.json").read_text())
    assert prov["experiment"] == "importance"
    assert "points" not in prov


def test_experiment_seed_averaging(runner, tmp_path):
    result = runner.invoke(
        main,
        ["experiment", "importance", "--out-dir", str(tmp_path),
         "--num-seeds", "2", *SMALL_EXP],
    )
    assert result.exit_code == 0, result.output
    prov = json.loads((tmp_path / "importance.provenance.json").read_text())
    assert prov["seeds"] == [0, 1]


def test_experiment_provenance_holds_no_point_cloud(runner, tmp_path):
    result = runner.invoke(
        main,
        ["experiment", "snowball", "--out-dir", str(tmp_path), "--num-seeds", "2", *SMALL_EXP],
    )
    assert result.exit_code == 0, result.output
    prov = json.loads((tmp_path / "snowball.provenance.json").read_text())

    def keys(node):
        if isinstance(node, dict):
            for key, value in node.items():
                yield key
                yield from keys(value)
        elif isinstance(node, list):
            for value in node:
                yield from keys(value)

    assert "runs" in prov
    assert "points" not in set(keys(prov))


def test_experiment_rejects_bad_num_seeds(runner, tmp_path):
    result = runner.invoke(
        main,
        ["experiment", "importance", "--out-dir", str(tmp_path), "--num-seeds", "0"],
    )
    assert result.exit_code == 2


def test_experiment_rejects_nan_eps(runner, tmp_path):
    result = runner.invoke(
        main,
        ["experiment", "importance", "--out-dir", str(tmp_path), "--m", "20",
         "--t-max", "2", "--eps", "nan"],
    )
    assert result.exit_code == 2, result.output


# ── lowerbound ───────────────────────────────────────────────────────


def half_split_file(tmp_path):
    pairs = [{"A": [0, 1], "B": [2, 3]}, {"A": [2, 3], "B": [0, 1]}]
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"n": 4, "pairs": pairs}))
    return path


def test_lowerbound_with_explicit_subset(runner, tmp_path):
    dist = half_split_file(tmp_path)
    out = tmp_path / "cert.json"
    result = runner.invoke(
        main,
        ["lowerbound", "--dist", str(dist), "--subset", "0,1", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    cert = json.loads(out.read_text())
    assert cert["alpha"] == pytest.approx(1.0)
    assert cert["subset"] == [0, 1]


def test_lowerbound_bruteforce_with_adversary(runner, tmp_path):
    dist = half_split_file(tmp_path)
    out = tmp_path / "cert.json"
    result = runner.invoke(
        main,
        ["lowerbound", "--dist", str(dist), "--baseline", "sample_mean",
         "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    cert = json.loads(out.read_text())
    adv = cert["adversary"]
    assert adv["achieved_error"] >= adv["alpha_over_4"] - 1e-9
    assert np.all(np.abs(adv["x"]) <= 1.0 + 1e-9)


def test_lowerbound_adversary_from_estimator_file(runner, tmp_path):
    # a saved sample-mean estimator gets the certificate and adversary that
    # --baseline sample_mean gets, under the file's stem
    dist = half_split_file(tmp_path)
    est = tmp_path / "est.json"
    save_estimator_file(sample_mean_estimator(load_distribution_file(dist)), est)
    certs = {}
    for name, args in [("est", ["--estimator", str(est)]), ("sample_mean", ["--baseline", "sample_mean"])]:
        out = tmp_path / f"{name}.cert.json"
        result = runner.invoke(main, ["lowerbound", "--dist", str(dist), *args, "--out", str(out)])
        assert result.exit_code == 0, result.output
        certs[name] = json.loads(out.read_text())
        assert certs[name]["adversary"].pop("estimator") == name
    assert certs["est"] == certs["sample_mean"]


@pytest.mark.parametrize("command", ["evaluate", "lowerbound"])
def test_estimator_file_with_another_n_is_refused_before_it_is_built(runner, tmp_path, command):
    # n = 10**15 would size the estimator's arrays at petabytes
    dist = half_split_file(tmp_path)
    est = tmp_path / "est.json"
    est.write_text(json.dumps({"n": 10**15, "weights": [[[0, 1.0]]]}))
    extra = ["--dataset", "constant"] if command == "evaluate" else []
    result = runner.invoke(
        main,
        [command, "--dist", str(dist), "--estimator", str(est), *extra,
         "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == 2, result.output
    assert "population size mismatch" in result.output


def test_lowerbound_unparsable_subset_is_usage_error(runner, tmp_path):
    dist = half_split_file(tmp_path)
    result = runner.invoke(
        main,
        ["lowerbound", "--dist", str(dist), "--subset", "0,a", "--out", str(tmp_path / "c.json")],
    )
    assert result.exit_code == 2, result.output
    assert "cannot parse subset" in result.output


def test_lowerbound_rejects_estimator_and_baseline(runner, tmp_path):
    dist = half_split_file(tmp_path)
    result = runner.invoke(
        main,
        ["lowerbound", "--dist", str(dist), "--baseline", "sample_mean",
         "--estimator", str(dist), "--out", str(tmp_path / "c.json")],
    )
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "meta",
    [
        {"groups": 5, "inclusion_prob": [0.5]},
        {"groups": [[0, 1], [2, 3]], "inclusion_prob": [2.0, 0.5, 0.5, 0.5]},
        {"groups": [[0, 1], [2, 3]], "inclusion_prob": [float("nan"), 0.5, 0.5, 0.5]},
        {"groups": [[0, 1], [2, 3]], "inclusion_prob": [[0.5, 0.5, 0.5, 0.5]]},
        {"groups": [[0, 1], [2, 3]], "inclusion_prob": [10**400, 0.5, 0.5, 0.5]},
        {"groups": [[0, 1], [2, 3]]},
        [0.5, 0.5, 0.5, 0.5],
    ],
    ids=[
        "groups-not-a-list",
        "probability-above-one",
        "probability-nan",
        "probabilities-nested",
        "probability-oversized-integer",
        "no-probabilities",
        "not-an-object",
    ],
)
@pytest.mark.parametrize("command", ["evaluate", "lowerbound"])
def test_malformed_metadata_is_schema_error(runner, tmp_path, command, meta):
    dist = half_split_file(tmp_path)
    bad = tmp_path / "badmeta.json"
    bad.write_text(json.dumps(meta))
    extra = ["--dataset", "constant"] if command == "evaluate" else ["--subset", "0,1"]
    result = runner.invoke(
        main,
        [command, "--dist", str(dist), "--baseline", "reweighting",
         "--metadata", str(bad), "--out", str(tmp_path / "r.out"), *extra],
    )
    assert result.exit_code == 3, result.output
    assert "[bad_schema]" in result.output


def test_lowerbound_size_cap_exit_code(runner, tmp_path):
    big = tmp_path / "big.json"
    big.write_text(
        json.dumps({"n": 30, "pairs": [{"A": [0], "B": [1]}]})
    )
    result = runner.invoke(
        main,
        ["lowerbound", "--dist", str(big), "--out", str(tmp_path / "c.json")],
    )
    assert result.exit_code == 5


# ── output paths that cannot be written ──────────────────────────────


# the calls that start each command's work, made to raise: an output path
# must be refused before any of them runs
WORK = {
    "optimize": ["run_with_doubling"],
    "generate": ["gen_selective"],
    "evaluate": ["fixed_data_error", "worst_case_cell"],
    "lowerbound": ["check_non_expanding", "best_S_bruteforce"],
    "experiment": ["run_experiment"],
}


@pytest.mark.parametrize(
    "command, option, target, reason",
    [
        ("optimize", "--out", "{tmp}", errno.EISDIR),
        ("optimize", "--trace", "{tmp}/nodir/t.csv", errno.ENOENT),
        ("optimize", "--summary", "{tmp}", errno.EISDIR),
        ("generate", "--out", "{tmp}/nodir/s.json", errno.ENOENT),
        ("evaluate", "--out", "{tmp}/nodir/r.csv", errno.ENOENT),
        ("lowerbound", "--out", "{tmp}/nodir/c.json", errno.ENOENT),
        ("lowerbound", "--out", "{tmp}/half.json/c.json", errno.ENOTDIR),
        ("experiment", "--out-dir", "{tmp}/half.json", errno.EEXIST),  # a file, not a directory
    ],
    ids=["optimize-directory", "optimize-trace-no-parent", "optimize-summary-directory",
         "generate-no-parent", "evaluate-no-parent", "lowerbound-no-parent",
         "lowerbound-parent-is-a-file", "experiment-file-as-out-dir"],
)
def test_unwritable_output_path_is_usage_error(runner, tmp_path, monkeypatch, command, option, target, reason):
    def started(*args, **kwargs):
        raise AssertionError(f"{command} started its work before checking {option}")

    for name in WORK[command]:
        monkeypatch.setattr(f"wcmean.cli.{name}", started)
    dist = str(half_split_file(tmp_path))
    target = target.format(tmp=tmp_path)
    out = str(tmp_path / "out.json")
    args = {
        "optimize": ["--dist", dist, "--regime", "l2", "--t-max", "4", "--out", out],
        "generate": ["selective"],
        "evaluate": ["--dist", dist, "--baseline", "sample_mean", "--dataset", "constant"],
        "lowerbound": ["--dist", dist, "--subset", "0,1"],
        "experiment": ["importance", *SMALL_EXP],
    }[command]
    result = runner.invoke(main, [command, *args, option, target])
    assert result.exit_code == 2, result.output
    assert f"error: cannot write {target}: {os.strerror(reason)}" in result.output
    # no output was created or truncated on the way
    assert [p.name for p in tmp_path.iterdir()] == ["half.json"]


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
