import math
from unittest import mock

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from metricmass import samples

from metricmass.applications import (
    ProximityClassifier,
    classifier_from_dict,
    classifier_to_dict,
    classify,
    classify_batch,
    coding_report,
    false_alarm_certificate,
    load_classifier,
    nn_encode,
    save_classifier,
)
from metricmass.distributions import UniformIntervalSpec, draw_sample
from metricmass.estimators import good_turing
from metricmass.oracles import conditional_missing_mass
from metricmass.samples import make_sample
from metricmass.spaces import discrete, lp, scaled_indicator

from helpers import pool_threads


def line_sample(*xs):
    return make_sample(np.array(xs, dtype=float)[:, None])


def test_training_point_is_normal():
    clf = ProximityClassifier(line_sample(0.0, 2.0), gamma=1.0)
    assert classify(clf, [2.0]) == "normal"


def test_far_point_is_anomalous():
    clf = ProximityClassifier(line_sample(0.0), gamma=1.0)
    assert classify(clf, [1.5]) == "anomalous"
    assert classify(clf, [1.0]) == "normal"  # boundary included


def test_gamma_above_diameter_always_normal():
    train = line_sample(0.0, 1.0, 2.0)
    clf = ProximityClassifier(train, gamma=10.0)
    for q in (-5.0, 0.5, 7.0):
        assert classify(clf, [q]) == "normal"


def test_false_alarm_identity_monte_carlo():
    spec = UniformIntervalSpec(0.0, 1.0)
    train = draw_sample(spec, 40, seed=3)
    gamma = 0.05
    clf = ProximityClassifier(train, gamma=gamma)
    rng = np.random.default_rng(0)
    queries = rng.uniform(0, 1, size=(20_000, 1))
    verdicts = classify_batch(clf, queries)
    frac = np.mean([v == "anomalous" for v in verdicts])
    mhat = conditional_missing_mass(spec, train, gamma).value
    assert frac == pytest.approx(mhat, abs=3 * math.sqrt(0.25 / 20_000) + 1e-3)


@pytest.mark.parametrize("block, n_queries", [(700, 51), (samples.SUMMARY_BLOCK_ELEMENTS, 5000)])
def test_classify_batch_blocks_match_dense_rule(block, n_queries):
    # 300 training points: blocks of 2 queries with a last one of 1, or of
    # 873 queries with a partial sixth one.  Lattice points put many
    # queries at exactly d == gamma, which is normal.
    rng = np.random.default_rng(4)
    train = make_sample(rng.integers(0, 8, size=(300, 2)).astype(float))
    queries = rng.integers(-4, 12, size=(n_queries, 2)).astype(float)
    gamma = 1.0
    nearest = cdist(queries, train.points).min(axis=1)
    assert (nearest == gamma).any() and (nearest > gamma).any()
    expected = ["anomalous" if d > gamma else "normal" for d in nearest]
    with mock.patch.object(samples, "SUMMARY_BLOCK_ELEMENTS", block):
        assert classify_batch(ProximityClassifier(train, gamma), queries) == expected
        for threads in (1, 2, 3):
            with pool_threads(threads):
                assert classify_batch(ProximityClassifier(train, gamma), queries) == expected


def test_classify_batch_query_at_gamma_is_normal():
    clf = ProximityClassifier(line_sample(0.0, 2.0), gamma=1.0)
    assert classify_batch(clf, [[1.0], [3.0], [3.5], [-1.25]]) == [
        "normal", "normal", "anomalous", "anomalous"]


def test_certificate_methods_and_monotonicity():
    train = line_sample(*([1.0] * 200))
    clf = ProximityClassifier(train, gamma=0.5)
    mart = false_alarm_certificate(clf, 0.1, method="martingale_min")
    assert mart.side == "upper"
    assert mart.value < 0.2  # constant training sample is easy

    gt = false_alarm_certificate(clf, 0.1, method="good_turing")
    n = train.n
    expected = good_turing(train, 0.5) + 1 / n + math.sqrt(3 / (n * 0.1))
    assert gt.value == pytest.approx(min(1.0, expected))

    looser = false_alarm_certificate(clf, 0.01, method="martingale_min")
    assert looser.value >= mart.value - 1e-12


def test_certificate_vacuous_when_separated():
    train = line_sample(0.0, 10.0, 20.0, 30.0)
    clf = ProximityClassifier(train, gamma=1.0)
    for method in ("martingale_min", "good_turing"):
        est = false_alarm_certificate(clf, 0.2, method=method)
        assert est.value == 1.0
        assert est.vacuous


def test_nn_encode_exact_and_ties():
    cb = line_sample(0.0, 10.0)
    assert nn_encode(cb, [4.0]) == 0
    assert nn_encode(cb, [10.0]) == 1
    tie = line_sample(0.0, 1.0, 0.0)
    assert nn_encode(tie, [0.0]) == 0  # lowest index wins
    assert nn_encode(line_sample(3.0, 1.0, 5.0), [2.0]) == 0


def test_coding_report_full_sample():
    s = line_sample(*np.linspace(0, 1, 50))
    rep = coding_report(s, epsilon=0.2, delta=0.1, use_net=False)
    assert rep.codebook == tuple(range(50))
    assert rep.exceed_prob_estimate.method == "martingale_min"
    assert rep.expected_error_bound is None


def test_nan_gamma_epsilon_and_diameter_rejected():
    s = line_sample(0.0, 1.0, 2.0)
    with pytest.raises(ValueError, match="gamma"):
        ProximityClassifier(training=s, gamma=math.nan)
    with pytest.raises(ValueError, match="epsilon"):
        coding_report(s, epsilon=math.nan, delta=0.1)
    with pytest.raises(ValueError, match="diameter"):
        coding_report(s, epsilon=0.5, delta=0.1, diameter=math.nan)


def test_coding_report_net_constant_sample():
    s = line_sample(*([2.0] * 30))
    rep = coding_report(s, epsilon=0.5, delta=0.1, use_net=True)
    assert len(rep.codebook) == 1
    assert rep.exceed_prob_estimate.method == "net_bound"
    assert rep.exceed_prob_estimate.m == 1


def test_coding_report_net_reconstruction_within_eps():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 1, size=(80, 2))
    s = make_sample(pts)
    eps = 0.3
    rep = coding_report(s, epsilon=eps, delta=0.1, use_net=True)
    codebook = s.subsample(list(rep.codebook))
    for x in pts:
        j = nn_encode(codebook, x)
        assert np.linalg.norm(x - codebook.points[j]) <= eps / 2 + 1e-12


def test_coding_report_expected_error_bound():
    s = line_sample(*np.linspace(0, 1, 40))
    rep = coding_report(s, epsilon=0.2, delta=0.1, use_net=True, diameter=1.0)
    assert rep.expected_error_bound == pytest.approx(
        1.0 * rep.exceed_prob_estimate.value + 0.2)


def test_coding_net_bound_covers_oracle_exceedance():
    # The reported bound targets the missing mass at eps/2; cross-check it
    # against the exact oracle value on continuous data.
    spec = UniformIntervalSpec(0.0, 1.0)
    eps = 0.1
    for seed in range(10):
        s = draw_sample(spec, 500, seed=seed)
        rep = coding_report(s, epsilon=eps, delta=0.1, use_net=True)
        assert 5 <= len(rep.codebook) <= 25  # about 1/(eps/2) net points
        oracle = conditional_missing_mass(spec, s, eps / 2).value
        assert oracle <= rep.exceed_prob_estimate.value + 1e-12


def test_classifier_round_trip_euclidean(tmp_path):
    clf = ProximityClassifier(line_sample(0.0, 1.0, 5.0), gamma=0.7)
    clone = classifier_from_dict(classifier_to_dict(clf))
    assert clone.gamma == clf.gamma
    assert np.array_equal(clone.training.points, clf.training.points)
    for q in (-1.0, 0.9, 3.0, 6.0):
        assert classify(clone, [q]) == classify(clf, [q])


def test_classifier_round_trip_discrete():
    train = make_sample(np.array(["a", "b"]), discrete())
    clf = ProximityClassifier(train, gamma=0.5)
    clone = classifier_from_dict(classifier_to_dict(clf))
    assert classify(clone, "a") == "normal"
    assert classify(clone, "z") == "anomalous"


@pytest.mark.parametrize("space, points, queries", [
    (lp(2, 1.0), [[0.0, 0.0], [1.0, 1.0]], [[0.2, 0.2], [0.4, 0.4], [3.0, 0.0]]),
    (scaled_indicator(2.0), [0.0, 1.0, 4.0], [0.1, 0.5, 9.0]),
])
def test_classifier_round_trip_lp_and_scaled_indicator(space, points, queries, tmp_path):
    clf = ProximityClassifier(make_sample(points, space), gamma=0.5)
    save_classifier(clf, tmp_path / "clf.json")
    clone = load_classifier(tmp_path / "clf.json")
    assert clone.training.space == space
    assert np.array_equal(clone.training.points, clf.training.points)
    assert classify_batch(clone, queries) == classify_batch(clf, queries)


def test_classifier_round_trip_integer_symbols(tmp_path):
    # Integer symbols used to be saved as strings, so a reloaded classifier
    # called the training symbol 1 anomalous.
    clf = ProximityClassifier(make_sample(np.array([1, 2, 3]), discrete()), gamma=0.5)
    save_classifier(clf, tmp_path / "clf.json")
    clone = load_classifier(tmp_path / "clf.json")
    assert classify(clf, 1) == classify(clone, 1) == "normal"
    assert classify(clone, 4) == "anomalous"


def test_classifier_file_format_is_pinned():
    import json
    symbols = ProximityClassifier(make_sample(np.array(["a", "b"]), discrete()), gamma=0.5)
    assert json.dumps(classifier_to_dict(symbols)) == (
        '{"gamma": 0.5, "space": {"kind": "discrete"}, "training": ["a", "b"]}')
    steps = ProximityClassifier(make_sample([0.0, 1.5], scaled_indicator(2.0)), gamma=0.25)
    assert json.dumps(classifier_to_dict(steps)) == (
        '{"gamma": 0.25, "space": {"kind": "scaled_indicator", "dim": 1, "p": 2.0}, '
        '"training": [0.0, 1.5]}')
