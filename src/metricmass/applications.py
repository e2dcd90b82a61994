"""Proximity-based anomaly detection and nearest-neighbor coding.

The proximity classifier flags a query anomalous when it is farther than
gamma from every training point.  Its false-alarm rate, the probability
that a point drawn from the training distribution lands outside every
training ball, is exactly the conditional missing mass at radius gamma, so
the estimators provide data-dependent certificates for it.  Only the
false-alarm side is modeled; calibrating gamma from the training data
itself would void the guarantees and is out of scope.

Nearest-neighbor coding encodes a point by the index of its closest
codebook entry.  With the full sample as codebook the probability that the
reconstruction error exceeds eps is the conditional missing mass at eps;
with a greedy eps/2-net as codebook every sample point reconstructs within
eps/2, and the exceedance probability is bounded through the net instead.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .estimators import (
    GOOD_TURING,
    MARTINGALE_MIN,
    Estimate,
    check_delta,
    good_turing_interval,
    martingale_upper_bound,
    net_missing_mass_bound,
    upper_estimate,
)
from .samples import Sample, farthest_first_net
from .serialize import Record
from .spaces import check_radius, space_from_dict

NORMAL = "normal"
ANOMALOUS = "anomalous"


@dataclass(frozen=True)
class ProximityClassifier:
    training: Sample
    gamma: float

    def __post_init__(self):
        check_radius(self.gamma, name="gamma")
        if self.training.n < 1:
            raise ValueError("training sample must be non-empty")


def classify(classifier: ProximityClassifier, y) -> str:
    """Anomalous iff the query is farther than gamma from every training point."""
    space = classifier.training.space
    d = space.cross_distances(space.as_point(y), classifier.training.points)
    return ANOMALOUS if d.min() > classifier.gamma else NORMAL


def classify_batch(classifier: ProximityClassifier, queries) -> list[str]:
    """Verdicts from whether a training point lies within gamma of each
    query (:meth:`~metricmass.samples.Sample.covers`), so no
    |queries| x n matrix is held."""
    covered = classifier.training.covers(queries, classifier.gamma)
    return [NORMAL if c else ANOMALOUS for c in covered.tolist()]


def false_alarm_certificate(classifier: ProximityClassifier, delta: float,
                            method: str = MARTINGALE_MIN) -> Estimate:
    """Upper confidence bound on the false-alarm rate, valid with
    probability at least 1 - delta over the training sample."""
    check_delta(delta)
    training, gamma = classifier.training, classifier.gamma
    if method == MARTINGALE_MIN:
        return martingale_upper_bound(training, gamma, delta)
    if method == GOOD_TURING:
        interval = good_turing_interval(training, gamma, delta)
        return upper_estimate(interval.value + interval.radius, GOOD_TURING, delta,
                              radius=interval.radius)
    raise ValueError(f"unknown certificate method {method!r}")


def nn_encode(codebook: Sample, x) -> int:
    """Index of the nearest codebook point; ties go to the lowest index."""
    if codebook.n < 1:
        raise ValueError("codebook must be non-empty")
    space = codebook.space
    d = space.cross_distances(space.as_point(x), codebook.points)
    return int(np.argmin(d[0]))


@dataclass(frozen=True)
class CodingReport(Record):
    codebook: tuple[int, ...]
    epsilon: float
    exceed_prob_estimate: Estimate
    expected_error_bound: float | None = None


def coding_report(sample: Sample, epsilon: float, delta: float,
                  use_net: bool = False,
                  diameter: float | None = None) -> CodingReport:
    """Bound the probability that nearest-neighbor reconstruction errs by
    more than epsilon.

    With the full sample as codebook the exceedance target is the missing
    mass at epsilon; with a greedy eps/2-net codebook it is the missing mass
    at eps/2, bounded through the net-size bound.  When a distortion ceiling
    is declared the expected reconstruction error is bounded by
    diameter * exceedance + epsilon.
    """
    check_radius(epsilon, name="epsilon")
    check_delta(delta)
    if use_net:
        net = farthest_first_net(sample, epsilon / 2.0)
        bound = net_missing_mass_bound(sample, epsilon / 2.0, net, delta)
        codebook = tuple(int(i) for i in net)
    else:
        bound = martingale_upper_bound(sample, epsilon, delta)
        codebook = tuple(range(sample.n))
    expected = None
    if diameter is not None:
        check_radius(diameter, name="declared diameter", positive=True)
        expected = diameter * bound.value + epsilon
    return CodingReport(codebook=codebook, epsilon=epsilon,
                        exceed_prob_estimate=bound,
                        expected_error_bound=expected)


# -- persistence --------------------------------------------------------------

def classifier_to_dict(classifier: ProximityClassifier) -> dict:
    training = classifier.training
    return {"gamma": classifier.gamma, "space": training.space.to_dict(),
            "training": training.points.tolist()}


def classifier_from_dict(payload: dict) -> ProximityClassifier:
    training = Sample(np.asarray(payload["training"]), space_from_dict(payload["space"]))
    return ProximityClassifier(training=training, gamma=payload["gamma"])


def save_classifier(classifier: ProximityClassifier, path) -> None:
    with open(path, "w") as fh:
        json.dump(classifier_to_dict(classifier), fh)


def load_classifier(path) -> ProximityClassifier:
    with open(path) as fh:
        return classifier_from_dict(json.load(fh))
