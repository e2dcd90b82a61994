"""Synthetic distribution generators, including the adversarial constructions.

Every generator is deterministic given (spec, seed).  Finite-support specs
additionally expose their atom list, weights and atom-to-atom distances,
and the two scalar specs their ``cdf``; :mod:`metricmass.oracles` picks
its exact branch from these.  Samples drawn through :func:`draw_sample`
from a finite-support spec carry their atom indices as provenance for the
same purpose.

The basis-plus-atom family is the construction showing that no universal
estimator of the expected missing mass exists: a mixture of uniform mass on
D canonical basis vectors with a small atom at the origin, weighted so the
atom appears in an n-point sample with probability exactly 1/2.  With
1 < r < sqrt(2) the conditional missing mass collapses to zero when the
origin is drawn and stays near one otherwise, forcing variance close to the
maximum 1/4 once D is large against n.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .samples import Sample
from .spaces import (
    MetricSpace,
    discrete,
    euclidean,
    scaled_indicator,
)


def _cached(spec, name: str, build):
    value = spec.__dict__.get(name)
    if value is None:
        value = build()
        object.__setattr__(spec, name, value)
    return value


class _FiniteSupportMixin:
    """Shared machinery for distributions with finitely many atoms."""

    def atom_count(self) -> int:
        return len(self.atom_weights())

    def sample_indices(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``rng.choice(atom_count, size=count, p=weights)``: the same draws
        from the same stream, from a CDF built once as ``choice`` builds it."""
        def build():
            cdf = self.atom_weights().cumsum()
            cdf /= cdf[-1]
            cdf.flags.writeable = False
            return cdf
        cdf = _cached(self, "_cdf", build)
        return cdf.searchsorted(rng.random(count), side="right")

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return self.points_from_indices(self.sample_indices(count, rng))

    def points_from_indices(self, idx) -> np.ndarray:
        return self.atom_points()[np.asarray(idx, dtype=int)]


class _ListedAtomsMixin(_FiniteSupportMixin):
    """Atoms listed one by one in a field, with a weight each."""

    def _list_atoms(self, name: str, atoms: tuple) -> None:
        # Lists, as read from JSON, become tuples so the spec stays hashable.
        object.__setattr__(self, name, atoms)
        object.__setattr__(self, "weights", tuple(self.weights))
        w = self.atom_weights()
        if len(atoms) != len(w) or len(w) == 0:
            raise ValueError(f"{name} and weights must be non-empty and aligned")
        if not (w >= 0).all():  # NaN too
            raise ValueError("weights must be non-negative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")

    def atom_weights(self) -> np.ndarray:
        return _cached(self, "_weights", lambda: np.asarray(self.weights, dtype=float))


@dataclass(frozen=True)
class DiscreteSpec(_ListedAtomsMixin):
    """Finitely many symbols under the discrete metric."""
    symbols: tuple[str, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        self._list_atoms("symbols", tuple(self.symbols))
        # Two atoms of one symbol would be one point at distance 0 to the
        # kernel but two atoms apart to the finite oracle.
        points = self.atom_points()
        codes = discrete().symbol_codes(points)
        if codes is None:  # symbols numpy does not sort: the kernel's verdicts
            codes = discrete().kernel(points, points).argmin(axis=1)
        repeated = np.bincount(codes)[codes] > 1
        if repeated.any():
            raise ValueError(f"symbol {self.symbols[int(repeated.argmax())]!r} "
                             "is listed more than once")

    kind = "discrete"

    def space(self) -> MetricSpace:
        return discrete()

    def atom_points(self) -> np.ndarray:
        return _cached(self, "_points", lambda: np.asarray(self.symbols))

    def atom_distance_matrix(self) -> np.ndarray:
        k = len(self.symbols)
        return _cached(self, "_dmat", lambda: 1.0 - np.eye(k))


def discrete_uniform(k: int) -> DiscreteSpec:
    syms = tuple(f"s{i}" for i in range(k))
    return DiscreteSpec(syms, tuple([1.0 / k] * k))


def discrete_zipf(k: int) -> DiscreteSpec:
    w = np.array([1.0 / (i + 1) for i in range(k)])
    w /= w.sum()
    syms = tuple(f"s{i}" for i in range(k))
    return DiscreteSpec(syms, tuple(w))


@dataclass(frozen=True)
class PointMassSpec(_ListedAtomsMixin):
    """Finitely many atoms at explicit coordinates in euclidean space."""
    points: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        self._list_atoms("points", tuple(tuple(p) for p in self.points))
        if len({len(p) for p in self.points}) != 1:
            raise ValueError("all atoms must share one dimension")

    kind = "point_mass"

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def space(self) -> MetricSpace:
        return euclidean(self.dim)

    def atom_points(self) -> np.ndarray:
        return _cached(self, "_points", lambda: np.asarray(self.points, dtype=float))

    def atom_distance_matrix(self) -> np.ndarray:
        return _cached(self, "_dmat",
                       lambda: self.space().pairwise_distances(self.atom_points()))


@dataclass(frozen=True)
class SphereAtomSpec(_FiniteSupportMixin):
    """Uniform mass on the canonical basis of R^dim mixed with an atom at the
    origin, weighted so that an n_design-point sample misses the origin with
    probability exactly 1/2."""
    dim: int
    n_design: int
    r_design: float = 1.2

    def __post_init__(self):
        if self.dim < 1 or self.n_design < 1:
            raise ValueError("dim and n_design must be positive")
        if not 1.0 < self.r_design < math.sqrt(2.0):
            raise ValueError("r_design must lie strictly between 1 and sqrt(2)")

    kind = "sphere_atom"

    @property
    def atom_weight(self) -> float:
        return 1.0 - 0.5 ** (1.0 / self.n_design)

    def space(self) -> MetricSpace:
        return euclidean(self.dim)

    def atom_weights(self) -> np.ndarray:
        def build():
            w = np.full(self.dim + 1, 0.5 ** (1.0 / self.n_design) / self.dim)
            w[0] = self.atom_weight
            return w
        return _cached(self, "_weights", build)

    def atom_points(self) -> np.ndarray:
        def build():
            pts = np.zeros((self.dim + 1, self.dim))
            pts[1:] = np.eye(self.dim)
            return pts
        return _cached(self, "_points", build)

    def points_from_indices(self, idx) -> np.ndarray:
        idx = np.asarray(idx, dtype=int)
        pts = np.zeros((len(idx), self.dim))
        basis = idx > 0
        pts[np.arange(len(idx))[basis], idx[basis] - 1] = 1.0
        return pts

    def atom_distance_matrix(self) -> np.ndarray:
        def build():
            k = self.dim + 1
            m = np.full((k, k), math.sqrt(2.0))
            m[0, :] = 1.0
            m[:, 0] = 1.0
            np.fill_diagonal(m, 0.0)
            return m
        return _cached(self, "_dmat", build)


@dataclass(frozen=True)
class BasisUniformSpec(_FiniteSupportMixin):
    """Uniform distribution over the canonical basis vectors of R^dim."""
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")

    kind = "basis_uniform"

    def space(self) -> MetricSpace:
        return euclidean(self.dim)

    def atom_weights(self) -> np.ndarray:
        return _cached(self, "_weights",
                       lambda: np.full(self.dim, 1.0 / self.dim))

    def atom_points(self) -> np.ndarray:
        return _cached(self, "_points", lambda: np.eye(self.dim))

    def points_from_indices(self, idx) -> np.ndarray:
        idx = np.asarray(idx, dtype=int)
        pts = np.zeros((len(idx), self.dim))
        pts[np.arange(len(idx)), idx] = 1.0
        return pts

    def atom_distance_matrix(self) -> np.ndarray:
        def build():
            m = np.full((self.dim, self.dim), math.sqrt(2.0))
            np.fill_diagonal(m, 0.0)
            return m
        return _cached(self, "_dmat", build)


@dataclass(frozen=True)
class UniformIntervalSpec:
    """Uniform distribution on [a, b] as a one-dimensional euclidean space."""
    a: float
    b: float

    def __post_init__(self):
        # An infinite length also overflows numpy's uniform draw.
        if not (self.b > self.a and math.isfinite(self.b - self.a)):
            raise ValueError("interval requires b > a, b - a finite")

    kind = "uniform_interval"

    def space(self) -> MetricSpace:
        return euclidean(1)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.a, self.b, size=(count, 1))

    def cdf(self, x) -> np.ndarray:
        """CDF at x, elementwise over an array."""
        return np.clip((np.asarray(x, dtype=float) - self.a) / (self.b - self.a), 0.0, 1.0)


@dataclass(frozen=True)
class ScaledIndicatorSpec:
    """Step functions 1_[0, X] with X exponential, represented by the scalar
    X under the distance |a - b|^(1/p); the support of this distribution is
    unbounded and not contained in any finite-dimensional subspace, yet the
    local-separation statistic stays at most 2^p + 1."""
    p: float
    rate: float = 1.0

    def __post_init__(self):
        if self.p <= 1.0:
            raise ValueError("the embedding exponent requires p > 1")
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    kind = "scaled_indicator"

    def space(self) -> MetricSpace:
        return scaled_indicator(self.p)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(scale=1.0 / self.rate, size=count)

    def cdf(self, x) -> np.ndarray:
        """CDF at x, elementwise over an array.  Evaluated with math.exp per
        element: np.exp can differ from it in the last bit, and the oracles'
        masses are pinned bit-for-bit."""
        x = np.asarray(x, dtype=float)
        cdf = np.zeros(x.shape)
        # NaN is not below zero, and stays NaN, as 1 - exp(NaN).
        inside = ~(x < 0)
        # -rate * x overflows to -inf only where exp gives 0 anyway.
        with np.errstate(over="ignore"):
            exponents = (-self.rate * x[inside]).tolist()
        cdf[inside] = 1.0 - np.fromiter(map(math.exp, exponents), float, len(exponents))
        return cdf


@dataclass(frozen=True)
class LowdimEmbeddingSpec:
    """A Gaussian mixture supported on a d_intrinsic-dimensional coordinate
    subspace, zero-padded into ambient dimension.  Components sit at the
    origin and at spread * e_j for each intrinsic axis, with equal weights."""
    d_intrinsic: int
    d_ambient: int
    spread: float = 2.0
    component_std: float = 0.5

    def __post_init__(self):
        if self.d_intrinsic < 1 or self.d_ambient < self.d_intrinsic:
            raise ValueError("need 1 <= d_intrinsic <= d_ambient")
        if self.component_std <= 0:
            raise ValueError("component_std must be positive")

    kind = "lowdim_embedding"

    def space(self) -> MetricSpace:
        return euclidean(self.d_ambient)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        k = self.d_intrinsic + 1
        comp = rng.integers(0, k, size=count)
        pts = np.zeros((count, self.d_ambient))
        noise = rng.normal(0.0, self.component_std, size=(count, self.d_intrinsic))
        pts[:, : self.d_intrinsic] = noise
        shifted = comp > 0
        pts[np.arange(count)[shifted], comp[shifted] - 1] += self.spread
        return pts


def sample_points(spec, count: int, seed) -> np.ndarray:
    """iid draws from the distribution; deterministic given the seed."""
    if count < 1:
        raise ValueError("count must be positive")
    return spec.sample(count, np.random.default_rng(seed))


def draw(spec, count: int, seed) -> tuple[np.ndarray, np.ndarray | None]:
    """The points of an ordered sample and, for a finite-support spec, their
    atom indices (else None); deterministic given the seed."""
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    if hasattr(spec, "sample_indices"):
        idx = spec.sample_indices(count, rng)
        return spec.points_from_indices(idx), idx
    return spec.sample(count, rng), None


def draw_sample(spec, count: int, seed) -> Sample:
    """Draw an ordered sample wrapped with its space; finite-support specs
    attach atom-index provenance for exact oracle evaluation."""
    points, atoms = draw(spec, count, seed)
    return Sample(points, spec.space(), atom_indices=atoms)


def indicator_process(p: float, count: int, seed, rate: float = 1.0) -> np.ndarray:
    """Draws of the step-function embedding: non-negative scalars under the
    scaled-indicator(p) distance."""
    return sample_points(ScaledIndicatorSpec(p=p, rate=rate), count, seed)


def adversarial_pair(n: int, epsilon: float, r: float
                     ) -> tuple[SphereAtomSpec, BasisUniformSpec]:
    """The indistinguishable pair defeating estimation of the expected
    missing mass at scale r.

    The two distributions agree conditionally on the origin atom never being
    drawn, yet their expected missing masses differ by at least
    (1 - epsilon)/2.  The ambient dimension starts at ceil(2n/epsilon) and
    doubles until the birthday condition n^2/(D - n) <= epsilon holds, which
    keeps the all-distinct-basis-vectors event probable.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 1.0 < r < math.sqrt(2.0):
        raise ValueError("the construction requires 1 < r < sqrt(2)")
    if n < math.log(4.0) / epsilon:
        raise ValueError("n must be at least ln(4)/epsilon")
    d = max(int(math.ceil(2.0 * n / epsilon)), n + 1)
    while n * n / (d - n) > epsilon:
        d *= 2
    return SphereAtomSpec(dim=d, n_design=n, r_design=r), BasisUniformSpec(dim=d)


# -- serialization -----------------------------------------------------------

# Every distribution kind, by the ``kind`` its dict form carries.
SPECS = {cls.kind: cls for cls in (
    DiscreteSpec, PointMassSpec, SphereAtomSpec, BasisUniformSpec,
    UniformIntervalSpec, ScaledIndicatorSpec, LowdimEmbeddingSpec)}


def spec_to_dict(spec) -> dict:
    return {"kind": spec.kind, **{f.name: getattr(spec, f.name) for f in fields(spec)}}


def spec_from_dict(payload: dict):
    body = dict(payload)
    kind = body.pop("kind", None)
    if kind not in SPECS:
        raise ValueError(f"unknown distribution kind {kind!r}")
    known = fields(SPECS[kind])
    missing = [f.name for f in known if f.default is MISSING and f.name not in body]
    unexpected = sorted(body.keys() - {f.name for f in known})
    problems = [f"{label} {', '.join(map(repr, names))}"
                for label, names in (("missing", missing), ("unexpected", unexpected)) if names]
    if problems:
        raise ValueError(f"{kind} spec: {'; '.join(problems)}")
    for f in known:
        if f.name in body and not _json_fits(body[f.name], f.type):
            raise ValueError(f"{kind} spec: {f.name!r} must be {f.type}, "
                             f"got {body[f.name]!r}")
    return SPECS[kind](**body)


def _json_fits(value, annotation: str) -> bool:
    """Whether a value read from JSON fits a field annotated ``int``,
    ``float``, ``str`` or ``tuple[T, ...]`` (a list of T)."""
    if annotation.startswith("tuple["):
        inner = annotation[len("tuple["):-len(", ...]")]
        return isinstance(value, (list, tuple)) and all(_json_fits(v, inner) for v in value)
    kinds = {"int": numbers.Integral, "float": numbers.Real, "str": str}
    return isinstance(value, kinds[annotation]) and not isinstance(value, bool)
