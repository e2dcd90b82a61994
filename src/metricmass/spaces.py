"""Point universes with pluggable distortion functions.

A space pairs a point representation with a symmetric distortion
d : X x X -> [0, inf) satisfying d(x, x) = 0.  Five kinds are supported:

* ``euclidean``         vectors in R^D, 2-norm
* ``lp``                vectors in R^D, p-norm (p >= 1)
* ``discrete``          symbols, d(x, y) = 1 whenever x != y
* ``precomputed``       integer indices into a fixed square distance matrix
* ``scaled_indicator``  non-negative scalars a, b with d(a, b) = |a - b|^(1/p),
                        the distance between step functions 1_[0,a] and 1_[0,b]
                        under the L_p norm

All built-in kinds are true metrics.  A precomputed matrix is only required
to be finite, symmetric to within ``np.allclose``, non-negative and zero on
the diagonal; callers supplying one are responsible for the triangle
inequality where an algorithm's certificate depends on it (see
:mod:`metricmass.separation`).  It is stored symmetrised, as (m + m^T) / 2,
which leaves an exactly symmetric matrix unchanged, and with every -0.0
read as +0.0.  Every kernel is thus exactly symmetric: d(x, y) and d(y, x)
are the same float, so a pass over the upper triangle reads every distance.

Every decision that depends on the kind is made here: the points, the
kernel, the discrete symbol codes, the neighbour index, ``scaled``,
``ball_halfwidth`` on a line, ``packing_cap``, ``meb_locality``,
``known_metric``, and the dict and ``kind[:a,b]`` forms of the kinds that
persist, read from one :data:`GRAMMAR` table.  Other modules compare spaces
by value instead, as in ``space == euclidean(1)``.

Only ``euclidean`` and ``lp`` have a neighbour index, a k-d tree (Bentley
1975) under the space's p-norm, and only for a radius r where r^p and the
points' coordinate extent^p lie in [2^-900, 2^900], so the tree's sums of
powers neither overflow nor lose precision to underflow.  A sample of more
than 512 points asks it whether points lie within r
(:meth:`metricmass.samples.Sample.within` and ``covers``).  Its distances
may differ from the kernel's in the last bits, so it only supplies
candidates within r (1 + 2^-30): one within r (1 - 2^-30) answers yes, none
answers no, and a point with a candidate between the two, or with every
candidate slot filled, is decided by the kernel.  No result depends on
whether the index was used.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

EUCLIDEAN = "euclidean"
LP = "lp"
DISCRETE = "discrete"
PRECOMPUTED = "precomputed"
SCALED_INDICATOR = "scaled_indicator"


class DimensionError(ValueError):
    """Point does not match the dimensionality or representation of a space."""


@dataclass(frozen=True)
class MetricSpace:
    kind: str
    dim: int | None = None
    p: float | None = None
    matrix: np.ndarray | None = field(default=None, repr=False, compare=False)

    # -- point canonicalization ------------------------------------------

    def as_points(self, points) -> np.ndarray:
        """Canonicalize an array-like of points, validating shape, range and
        finiteness."""
        if self.kind in (EUCLIDEAN, LP):
            arr = np.atleast_2d(np.asarray(points, dtype=float))
            if arr.ndim != 2 or arr.shape[1] != self.dim:
                raise DimensionError(
                    f"expected points of dimension {self.dim}, got shape {arr.shape}"
                )
            return _finite(arr)
        if self.kind == DISCRETE:
            arr = np.asarray(points)
            if arr.ndim != 1:
                raise DimensionError("discrete points must be a flat sequence of symbols")
            return arr
        if self.kind == PRECOMPUTED:
            arr = np.asarray(points, dtype=int)
            if arr.ndim != 1:
                raise DimensionError("precomputed points must be a flat index sequence")
            n = self.matrix.shape[0]
            if arr.size and (arr.min() < 0 or arr.max() >= n):
                raise DimensionError(f"index out of range for {n}x{n} distance matrix")
            return arr
        if self.kind == SCALED_INDICATOR:
            arr = _finite(np.asarray(points, dtype=float).reshape(-1))
            if arr.size and arr.min() < 0:
                raise DimensionError("scaled-indicator points must be non-negative reals")
            return arr
        raise ValueError(f"unknown space kind {self.kind!r}")

    def as_point(self, point) -> np.ndarray:
        """Canonicalize a single point to a length-1 batch."""
        if self.kind in (EUCLIDEAN, LP):
            return self.as_points(np.reshape(np.asarray(point, dtype=float), (1, -1)))
        return self.as_points([point] if np.isscalar(point) or self.kind == DISCRETE else point)

    # -- distances ---------------------------------------------------------

    def cross_distances(self, a, b) -> np.ndarray:
        """|a| x |b| matrix of distances between two point batches."""
        same = a is b  # a pairwise call: validate the one batch once
        a = self.as_points(a)
        b = a if same else self.as_points(b)
        return self.kernel(a, b)

    def kernel(self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """|a| x |b| distances between two batches already canonicalized by
        :meth:`as_points`, without validating them again, written into
        ``out`` (a C-contiguous float64 array of that shape) if given.  Each
        entry is computed from its own pair only, so any block of rows or
        columns equals the same block of the whole matrix bit for bit."""
        if out is None:
            out = np.empty((len(a), len(b)))
        if self.kind == EUCLIDEAN:
            return cdist(a, b, out=out)
        if self.kind == LP:
            return cdist(a, b, "minkowski", p=self.p, out=out)
        if self.kind == DISCRETE:
            return np.not_equal(a[:, None], b[None, :], out=out)
        if self.kind == PRECOMPUTED:
            # The indices are in range (as_points checked them); "clip"
            # spares take a buffered bounds check.
            return np.take(self.matrix[a], b, axis=1, out=out, mode="clip")
        if self.kind == SCALED_INDICATOR:
            np.subtract(a[:, None], b[None, :], out=out)
            np.abs(out, out=out)
            # In place, as ``**``: an exponent of 0.5 takes the square root.
            out **= 1.0 / self.p
            return out
        raise ValueError(f"unknown space kind {self.kind!r}")

    def symbol_codes(self, points: np.ndarray) -> np.ndarray | None:
        """Integer codes of the canonical discrete ``points``, equal for
        points i != j exactly where :meth:`kernel` gives 0, from one sort
        and a compare of neighbours: each NaN symbol, unequal to every
        symbol as ``np.not_equal`` has it, takes a code of its own.  None for
        every other kind, and for symbols numpy does not sort (object and
        structured arrays)."""
        if self.kind != DISCRETE or points.dtype.kind in "OV":
            return None
        order = np.argsort(points)
        ordered = points[order]
        fresh = np.ones(len(points), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
        codes = np.empty(len(points), dtype=np.intp)
        codes[order] = np.cumsum(fresh) - 1
        return codes

    def neighbour_index(self, points: np.ndarray, r: float):
        """The ``query`` of a k-d tree over the canonical ``points`` under
        this space's norm, for candidates near the radius r; None for a kind
        without one, or where r^p or the points' largest coordinate range
        raised to p leaves [2^-900, 2^900]."""
        if self.kind not in (EUCLIDEAN, LP) or not len(points):
            return None
        p = 2.0 if self.kind == EUCLIDEAN else self.p
        power = 1.0 if p == math.inf else p  # the tree takes maxima for p = inf
        extent = float(np.ptp(points, axis=0).max())
        if not all(x > 0 and abs(power * math.log2(x)) <= 900 for x in (r, extent)):
            return None
        return functools.partial(cKDTree(points).query, p=p)

    def pairwise_distances(self, points) -> np.ndarray:
        return self.cross_distances(points, points)

    def distance(self, x, y) -> float:
        return float(self.cross_distances(self.as_point(x), self.as_point(y))[0, 0])

    # -- kind behaviour ----------------------------------------------------

    def scaled(self, points: np.ndarray, factor: float) -> tuple[np.ndarray, "MetricSpace"]:
        """Canonical points and a space under which every distance between
        them is ``factor`` times its distance here."""
        if not factor > 0:
            raise ValueError("scale factor must be positive")
        if self.kind in (EUCLIDEAN, LP):
            return points * factor, self
        if self.kind == SCALED_INDICATOR:
            return points * factor ** self.p, self
        if self.kind == PRECOMPUTED:
            return points, precomputed(self.matrix * factor)
        raise ValueError(f"distances of a {self.kind} space cannot be rescaled")

    def ball_halfwidth(self, r: float) -> float | None:
        """Coordinate half-width of a closed r-ball on a line: r for a 1-D
        norm, r^p for the scaled indicator (|a - b| <= r^p); None where the
        points are not coordinates on a line."""
        if self.kind in (EUCLIDEAN, LP) and self.dim == 1:
            return r
        return r ** self.p if self.kind == SCALED_INDICATOR else None

    @property
    def packing_cap(self) -> int | None:
        """Dimension-based ceiling on the local-separation statistic h: 3^D
        for the 2-norm, 8^D for general p-norms, 1 for the discrete metric
        (no two distinct symbols fit in a ball of radius below 1, and no
        pair is separated at radius 1 or above), and None where no cap is
        known."""
        if self.kind in (EUCLIDEAN, LP):
            return (3 if self.kind == EUCLIDEAN else 8) ** self.dim
        return 1 if self.kind == DISCRETE else None

    @property
    def meb_locality(self) -> bool:
        """Whether the minimum enclosing ball decides exactly if points fit
        in one closed r-ball (true for the 2-norm only)."""
        return self.kind == EUCLIDEAN

    @property
    def known_metric(self) -> bool:
        """Whether the triangle inequality is known to hold; a precomputed
        matrix is only checked for symmetry, sign and its diagonal."""
        return self.kind != PRECOMPUTED

    def to_dict(self) -> dict:
        """``{"kind", "dim"?, "p"?}``, read back by :func:`space_from_dict`."""
        if self.kind not in GRAMMAR:
            raise ValueError(f"{self.kind} spaces do not persist")
        fields = {"kind": self.kind, "dim": self.dim, "p": self.p}
        return {key: value for key, value in fields.items() if value is not None}


def _finite(arr: np.ndarray) -> np.ndarray:
    # NaN compares false with every radius, so it would pass as a point
    # escaping every ball instead of failing.
    if not np.isfinite(arr).all():
        raise ValueError("point coordinates must be finite")
    return arr


def _dimension(dim) -> int:
    if not isinstance(dim, numbers.Integral) or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")
    return int(dim)


def euclidean(dim: int) -> MetricSpace:
    return MetricSpace(EUCLIDEAN, dim=_dimension(dim))


def lp(dim: int, p: float) -> MetricSpace:
    dim = _dimension(dim)
    if not p >= 1:
        raise ValueError(f"p-norms require p >= 1, got {p!r}")
    return MetricSpace(LP, dim=dim, p=float(p))


def discrete() -> MetricSpace:
    return MetricSpace(DISCRETE)


def precomputed(matrix) -> MetricSpace:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("distance matrix must be square")
    if not np.isfinite(m).all():
        raise ValueError("distance matrix entries must be finite")
    if not np.allclose(np.diag(m), 0.0):
        raise ValueError("distance matrix must have a zero diagonal")
    if not np.allclose(m, m.T):
        raise ValueError("distance matrix must be symmetric")
    if m.min() < 0:
        raise ValueError("distance matrix must be non-negative")
    with np.errstate(over="ignore"):
        mean = (m + m.T) / 2
    # Halving each term first can round away a subnormal's last bit, so
    # only entries whose sum overflows are halved before adding.
    overflow = np.isinf(mean)
    mean[overflow] = m[overflow] / 2 + m.T[overflow] / 2
    # Adding 0.0 turns -0.0, whose sign bit would make a negative bucket key
    # in the samples' distance counts, into +0.0 and leaves the rest as is.
    return MetricSpace(PRECOMPUTED, dim=None, matrix=mean + 0.0)


def scaled_indicator(p: float) -> MetricSpace:
    if not 1 <= p < math.inf:
        raise ValueError(f"scaled-indicator exponent requires finite p >= 1, got {p!r}")
    return MetricSpace(SCALED_INDICATOR, dim=1, p=float(p))


# Each kind that persists: its factory and its parameters, in the order the
# factory and the ``kind:a,b`` form take them, each with its type.
GRAMMAR = {
    EUCLIDEAN: (euclidean, (("dim", int),)),
    LP: (lp, (("dim", int), ("p", float))),
    DISCRETE: (discrete, ()),
    SCALED_INDICATOR: (scaled_indicator, (("p", float),)),
}
SPACE_FORMS = " | ".join(
    kind + (":" + ",".join(name for name, _ in params) if params else "")
    for kind, (_, params) in GRAMMAR.items())


def space_from_dict(payload: dict) -> MetricSpace:
    """The space :meth:`MetricSpace.to_dict` wrote."""
    kind = payload.get("kind")
    if kind not in GRAMMAR:
        raise ValueError(f"unknown space kind {kind!r}; persisted kinds are {SPACE_FORMS}")
    factory, params = GRAMMAR[kind]
    missing = [name for name, _ in params if name not in payload]
    if missing:
        raise ValueError(f"{kind} space is missing {', '.join(missing)}")
    space = factory(*(payload[name] for name, _ in params))
    unexpected = [key for key, value in payload.items() if space.to_dict().get(key) != value]
    if unexpected:
        raise ValueError(f"{kind} space has unexpected {', '.join(unexpected)}")
    return space


def parse_space(text: str) -> MetricSpace:
    """The space written ``kind[:a,b]``: the kind, then its parameters in
    :data:`GRAMMAR` order, for example ``euclidean:3`` or ``lp:2,1.5``."""
    usage = ValueError(f"bad space {text!r}; use {SPACE_FORMS}")
    kind, colon, arg = text.partition(":")
    values = arg.split(",") if colon else []
    if kind not in GRAMMAR or len(values) != len(GRAMMAR[kind][1]):
        raise usage
    factory, params = GRAMMAR[kind]
    try:
        args = [cast(value) for (_, cast), value in zip(params, values)]
    except ValueError:
        raise usage from None
    return factory(*args)


def ball_contains(space: MetricSpace, center, r: float, y) -> bool:
    """Whether y lies in the closed ball B(center, r) = {y : d(center, y) <= r}."""
    if not r >= 0:
        raise ValueError("radius must be non-negative")
    return space.distance(center, y) <= r
