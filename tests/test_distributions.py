import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metricmass.cli import main
from metricmass.distributions import (
    BasisUniformSpec,
    DiscreteSpec,
    LowdimEmbeddingSpec,
    PointMassSpec,
    ScaledIndicatorSpec,
    SphereAtomSpec,
    UniformIntervalSpec,
    adversarial_pair,
    discrete_uniform,
    discrete_zipf,
    draw_sample,
    indicator_process,
    sample_points,
    spec_from_dict,
    spec_to_dict,
)


def test_point_mass_single_atom_sampling():
    spec = DiscreteSpec(("a",), (1.0,))
    pts = sample_points(spec, 5, seed=0)
    assert list(pts) == ["a"] * 5


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        DiscreteSpec(("a", "b"), (0.5, 0.6))
    with pytest.raises(ValueError):
        DiscreteSpec(("a", "b"), (1.5, -0.5))
    # NaN passes both a minimum test and a sum test.
    with pytest.raises(ValueError, match="non-negative"):
        DiscreteSpec(("a", "b"), (math.nan, 1.0))
    with pytest.raises(ValueError, match="non-negative"):
        PointMassSpec(((0.0,), (1.0,)), (1.0, math.nan))


def test_discrete_spec_rejects_repeated_symbols(tmp_path, capsys):
    # Two atoms of one symbol are one point to the kernel, at distance 0,
    # but two points at distance 1 to the finite oracle: with both draws of
    # atom 0 of ("a", "a"), it reported a missing mass of 0.5, not 0.
    with pytest.raises(ValueError, match="symbol 'a' is listed more than once"):
        DiscreteSpec(("a", "a"), (0.5, 0.5))
    with pytest.raises(ValueError, match="symbol 'b' is listed more than once"):
        DiscreteSpec(("a", "b", "c", "b"), (0.25, 0.25, 0.25, 0.25))
    # Symbols the kernel finds equal, though Python does not.
    with pytest.raises(ValueError, match="symbol 1 is listed more than once"):
        DiscreteSpec((1, 1.0), (0.5, 0.5))
    # Symbols numpy does not sort are compared by the kernel itself.
    with pytest.raises(ValueError, match="symbol 'a' is listed more than once"):
        DiscreteSpec(("a", None, "a"), (0.5, 0.25, 0.25))
    # NaN symbols are unequal to each other, as the kernel has them.
    assert DiscreteSpec((math.nan, math.nan), (0.5, 0.5)).atom_count() == 2
    payload = '{"kind": "discrete", "symbols": ["a", "a"], "weights": [0.5, 0.5]}'
    assert main(["simulate", "--distribution", payload, "--n", "5",
                 "--out", str(tmp_path / "sim")]) == 2
    assert "symbol 'a' is listed more than once" in capsys.readouterr().err


def test_determinism_under_seed():
    spec = discrete_zipf(20)
    a = sample_points(spec, 50, seed=123)
    b = sample_points(spec, 50, seed=123)
    c = sample_points(spec, 50, seed=124)
    assert (a == b).all()
    assert (a != c).any()


def test_basis_uniform_draws_are_basis_vectors():
    spec = BasisUniformSpec(dim=6)
    pts = sample_points(spec, 40, seed=1)
    assert pts.shape == (40, 6)
    assert ((pts == 0) | (pts == 1)).all()
    assert (pts.sum(axis=1) == 1).all()
    d = spec.space().pairwise_distances(pts)
    off = d[np.triu_indices(40, 1)]
    assert set(np.round(np.unique(off), 12)) <= {0.0, round(math.sqrt(2), 12)}


def test_sphere_atom_weights_and_frequency():
    spec = SphereAtomSpec(dim=100, n_design=8)
    w = spec.atom_weights()
    assert w[0] == pytest.approx(1 - 0.5 ** (1 / 8))
    assert w[0] == pytest.approx(0.0830, abs=2e-4)
    assert w[1:].sum() == pytest.approx(0.5 ** (1 / 8))
    assert w.sum() == pytest.approx(1.0)

    idx = spec.sample_indices(200_000, np.random.default_rng(0))
    freq = (idx == 0).mean()
    assert freq == pytest.approx(w[0], abs=3 * math.sqrt(0.083 * 0.917 / 200_000))


FINITE_SPECS = [
    discrete_zipf(500),
    discrete_uniform(3),
    DiscreteSpec(("a", "b", "c", "d"), (0.5, 0.0, 0.25, 0.25)),
    PointMassSpec(((0.0, 0.0), (1.0, 0.0), (0.0, 2.0)), (0.2, 0.3, 0.5)),
    PointMassSpec(((1.0,),), (1.0,)),
    SphereAtomSpec(dim=40, n_design=7),
    BasisUniformSpec(dim=9),
]


@given(st.sampled_from(FINITE_SPECS), st.integers(1, 300), st.integers(0, 2 ** 63))
@settings(max_examples=300)
def test_sample_indices_equal_generator_choice(spec, count, seed):
    # The same indices from the same stream, which is left in the same state.
    drawn, chosen = np.random.default_rng(seed), np.random.default_rng(seed)
    idx = spec.sample_indices(count, drawn)
    expected = chosen.choice(spec.atom_count(), size=count, p=spec.atom_weights())
    assert idx.dtype == expected.dtype
    assert np.array_equal(idx, expected)
    assert drawn.random() == chosen.random()


def test_sphere_atom_no_atom_probability_half():
    spec = SphereAtomSpec(dim=50, n_design=6)
    rng = np.random.default_rng(5)
    misses = 0
    trials = 4000
    for _ in range(trials):
        idx = spec.sample_indices(6, rng)
        misses += (idx != 0).all()
    p = misses / trials
    assert p == pytest.approx(0.5, abs=3 * math.sqrt(0.25 / trials))


def test_sphere_atom_distance_matrix_matches_geometry():
    spec = SphereAtomSpec(dim=5, n_design=3)
    m = spec.atom_distance_matrix()
    pts = spec.atom_points()
    direct = spec.space().pairwise_distances(pts)
    assert np.allclose(m, direct)


def test_points_from_indices_agree_with_atoms():
    for spec in (SphereAtomSpec(dim=4, n_design=3), BasisUniformSpec(dim=4),
                 discrete_uniform(5)):
        idx = np.array([0, 2, 1, 0])
        direct = spec.points_from_indices(idx)
        via_atoms = spec.atom_points()[idx]
        assert (np.asarray(direct) == np.asarray(via_atoms)).all()
        # Built once per spec: every draw indexes the same atom array.
        assert spec.atom_points() is spec.atom_points()


def test_uniform_interval_sampling_and_cdf():
    spec = UniformIntervalSpec(2.0, 4.0)
    pts = sample_points(spec, 1000, seed=3)
    assert pts.shape == (1000, 1)
    assert pts.min() >= 2.0 and pts.max() <= 4.0
    assert spec.cdf(3.0) == 0.5
    # An infinite length overflowed numpy's draw; NaN is no end either.
    for a, b in ((0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="interval requires"):
            UniformIntervalSpec(a, b)


def test_scaled_indicator_metric_identity():
    spec = ScaledIndicatorSpec(p=2.0)
    space = spec.space()
    assert space.distance(0.0, 1.0) == pytest.approx(1.0)
    pts = indicator_process(2.0, 10, seed=0)
    assert (pts >= 0).all()
    assert len(indicator_process(2.0, 1, seed=1)) == 1


# Inputs where exp underflows (-rate * x below about -745), subnormals, both
# zeros, negatives down to -inf, and NaN.
CDF_INPUTS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                       st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 700.0, 745.2,
                                        800.0, -800.0, 1e308, -1e308]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.lists(CDF_INPUTS, max_size=40), st.floats(1e-3, 1e3), st.booleans())
@settings(max_examples=200)
def test_scaled_indicator_cdf_matches_the_elementwise_rule(xs, rate, scalar):
    # The rule the CDF was written as, one math.exp per element.
    spec = ScaledIndicatorSpec(p=2.0, rate=rate)
    x = np.array(xs[:1] if scalar and xs else xs, dtype=float)
    if scalar and xs:
        x = x.reshape(())
    expected = np.array([0.0 if v < 0 else 1.0 - math.exp(-rate * v)
                         for v in x.ravel().tolist()]).reshape(x.shape)
    got = spec.cdf(x)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_scaled_indicator_requires_p_above_one():
    with pytest.raises(ValueError):
        ScaledIndicatorSpec(p=1.0)


def test_lowdim_embedding_pads_ambient():
    spec = LowdimEmbeddingSpec(d_intrinsic=2, d_ambient=7)
    pts = sample_points(spec, 30, seed=2)
    assert pts.shape == (30, 7)
    assert np.allclose(pts[:, 2:], 0.0)
    assert np.abs(pts[:, :2]).max() > 0.0


def test_adversarial_pair_dimension_rule():
    mu, mu_prime = adversarial_pair(14, 0.1, 1.2)
    assert mu.dim == mu_prime.dim
    assert mu.dim >= 280
    assert 14 * 14 / (mu.dim - 14) <= 0.1
    assert mu.n_design == 14


def test_adversarial_pair_hypotheses():
    with pytest.raises(ValueError):
        adversarial_pair(14, 1.0, 1.2)
    with pytest.raises(ValueError):
        adversarial_pair(14, 0.1, 1.0)
    with pytest.raises(ValueError):
        adversarial_pair(14, 0.1, 1.5)  # sqrt(2) ~ 1.414 < 1.5
    with pytest.raises(ValueError):
        adversarial_pair(5, 0.1, 1.2)  # n below ln(4)/epsilon


def test_draw_sample_provenance():
    spec = discrete_uniform(4)
    s = draw_sample(spec, 25, seed=9)
    assert s.atom_indices is not None
    assert (spec.points_from_indices(s.atom_indices) == s.points).all()

    cont = draw_sample(UniformIntervalSpec(0, 1), 10, seed=9)
    assert cont.atom_indices is None


def test_spec_json_round_trip():
    specs = [
        discrete_zipf(7),
        PointMassSpec(((0.0,), (1.0,)), (0.5, 0.5)),
        SphereAtomSpec(dim=9, n_design=4),
        BasisUniformSpec(dim=3),
        UniformIntervalSpec(0.0, 2.0),
        ScaledIndicatorSpec(p=2.5, rate=0.7),
        LowdimEmbeddingSpec(2, 5),
    ]
    for spec in specs:
        clone = spec_from_dict(spec_to_dict(spec))
        assert clone == spec


def test_basis_uniform_distinct_draws_saturate_good_turing():
    # With n far below the dimension, draws are usually all distinct basis
    # vectors and every point is then isolated at any radius below sqrt(2).
    from metricmass.estimators import good_turing

    spec = BasisUniformSpec(dim=2000)
    hits = 0
    for i in range(30):
        s = draw_sample(spec, 10, seed=i)
        if len(np.unique(s.atom_indices)) == 10:
            hits += 1
            assert good_turing(s, 1.2) == 1.0
    assert hits >= 25  # birthday collisions are rare at n=10, D=2000


def test_frequencies_match_weights():
    spec = DiscreteSpec(("a", "b", "c"), (0.6, 0.3, 0.1))
    pts = sample_points(spec, 100_000, seed=11)
    for sym, w in zip(spec.symbols, spec.weights):
        freq = (pts == sym).mean()
        assert freq == pytest.approx(w, abs=3 * math.sqrt(w * (1 - w) / 100_000) + 1e-3)


def test_spec_from_dict_names_missing_and_unexpected_fields():
    with pytest.raises(ValueError, match="discrete.*'symbols'"):
        spec_from_dict({"kind": "discrete", "weights": [1.0]})
    with pytest.raises(ValueError, match="basis_uniform.*'size'"):
        spec_from_dict({"kind": "basis_uniform", "dim": 2, "size": 3})
    with pytest.raises(ValueError, match="unknown distribution kind"):
        spec_from_dict({"kind": "gaussian"})


@pytest.mark.parametrize("payload, field", [
    ({"kind": "basis_uniform", "dim": "3"}, "'dim'"),
    ({"kind": "sphere_atom", "dim": 9.0, "n_design": 4}, "'dim'"),
    ({"kind": "uniform_interval", "a": True, "b": 1.0}, "'a'"),
    ({"kind": "discrete", "symbols": "ab", "weights": [0.5, 0.5]}, "'symbols'"),
    ({"kind": "discrete", "symbols": ["a", 2], "weights": [0.5, 0.5]}, "'symbols'"),
    ({"kind": "point_mass", "points": [[0.0], ["1"]], "weights": [0.5, 0.5]}, "'points'"),
    ({"kind": "point_mass", "points": [0.0, 1.0], "weights": [0.5, 0.5]}, "'points'"),
])
def test_spec_from_dict_names_wrongly_typed_fields(payload, field):
    # {"dim": "3"} used to fail in __post_init__ with "'<' not supported
    # between instances of 'str' and 'int'".
    with pytest.raises(ValueError, match=f"{payload['kind']} spec: {field} must be"):
        spec_from_dict(payload)


def test_spec_from_dict_takes_integers_for_float_fields():
    assert spec_from_dict({"kind": "uniform_interval", "a": 0, "b": 2}) == UniformIntervalSpec(0.0, 2.0)


def test_specs_from_lists_are_hashable_tuples():
    spec = spec_from_dict({"kind": "point_mass", "points": [[0.0], [1.0]],
                           "weights": [0.5, 0.5]})
    assert spec == PointMassSpec(((0.0,), (1.0,)), (0.5, 0.5))
    assert hash(spec) == hash(PointMassSpec(((0.0,), (1.0,)), (0.5, 0.5)))
    assert hash(DiscreteSpec(["a", "b"], [0.5, 0.5])) == hash(DiscreteSpec(("a", "b"), (0.5, 0.5)))
