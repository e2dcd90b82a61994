"""The local-separation statistic h and its concentration consequences.

h(X, r) is the largest cardinality of a sub-sample whose points are pairwise
separated by more than r yet all contained in one closed r-ball.  It acts as
an empirical local packing number: the variance and tail bounds in
:mod:`metricmass.bounds` degrade linearly in E[h], so small observed h
certifies concentration of the estimators regardless of the ambient
dimension.

Both h and its clique relaxation come from one branch-and-bound search
over one graph, with an edge where r < d(x_i, x_j) <= 2r; the discrete
metric's clique relaxation is read from symbol counts instead.  Every
locally separated subset is a clique of it; the 2r half relies on the triangle
inequality and is sound for every built-in space kind (precomputed
matrices are assumed to be metrics for this purpose).  The window is
closed at 2r: a pair's enclosing ball has radius d/2, and halving is
exact, so d <= 2r is the exact locality test for a pair.  The search finds
the largest clique whose every prefix passes a hereditary feasibility
predicate (every subset of a locally separated set is locally separated).
Candidate sets are Python-int bitsets, and each node peels colour classes
off its candidates in index order for its bound, as in San Segundo et
al.'s BBMC.  The clique relaxation's predicate accepts everything; h's is
the locality test below.  Witnesses are returned sorted.  A search that
lists ``CLIQUE_NODE_BUDGET`` candidates stops there with a one-sided answer:
the clique relaxation then reports the largest colour bound of the
branches it left open, and h its witness as a lower bound.

The clique value ω bounds h from above, so :func:`h_exact` given the
:func:`h_clique_relaxed` report of the same sample and radius stops as soon
as its witness reaches ω: the witness found first at that size is the one
the full search returns, since a witness is only replaced by a larger one.
A witness of size ω also proves h = ω, and is reported exact on every space
whose triangle inequality is known (all but precomputed matrices).

Locality of a candidate subset is decided by what the space tells:

* a packing cap of 1 (the discrete metric) settles h = 1 without a search;
* where the minimum enclosing ball decides locality (euclidean): its radius
  <= r, an exact test up to a relative slack of MEB_FEASIBILITY_RTOL, so
  the search result is exact when it terminates below the cap.  Three
  points are decided from their pairwise distances.  In one or two
  dimensions a larger subset fits exactly when each of its triples does
  (Helly), and the search only tests a subset whose prefix passed, so the
  triples holding the newest point decide it; in three or more dimensions
  the ball comes from exact enumeration;
* everything else: candidate centers are restricted to sample points, which
  certifies a lower bound only, since the true center may lie off-sample.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .estimators import check_delta, check_sample
from .meb import meb_radius, three_point_radius
from .samples import Sample
from .serialize import Record

EXACT = "exact"
UPPER_BOUND = "upper_bound"
LOWER_BOUND = "lower_bound"

BRUTE_FORCE = "brute_force"
CLIQUE_RELAXATION = "clique_relaxation"

DEFAULT_CAP = 8
MEB_FEASIBILITY_RTOL = 1e-9
# Candidates a search may list to branch on before it stops with a
# one-sided answer.  The 2-D samples of the estimate-local benchmark list
# at most about 2,000; 20-D normal points at n = 150, r = median pair
# distance / 1.6, searched for 6 s without a budget and stop in 1.6 s.
CLIQUE_NODE_BUDGET = 50_000


@dataclass(frozen=True)
class SeparationReport(Record):
    value: int
    certified: str
    method: str
    witness: tuple[int, ...] | None = None


def h_exact(sample: Sample, r: float, cap: int = DEFAULT_CAP,
            clique: SeparationReport | None = None) -> SeparationReport:
    """Largest locally separated sub-sample, searched up to size ``cap``.

    Returns an exact value with witness when the space admits an exact
    locality test and the search terminates below the cap within its
    budget; otherwise the value is a certified lower bound (the witness is
    still genuine).

    ``clique``, if given, must be the :func:`h_clique_relaxed` report of
    the same sample and radius.  The search then stops once its witness
    reaches that upper bound ω, with the value, method and witness of the
    full search, and a witness of size ω is reported exact unless the
    space's triangle inequality is unverified (a precomputed matrix).
    """
    check_sample(sample, r)
    if cap < 1:
        raise ValueError("cap must be at least 1")
    stop = cap
    if clique is not None:
        if (clique.certified, clique.method) != (UPPER_BOUND, CLIQUE_RELAXATION):
            raise ValueError("clique must be an h_clique_relaxed report")
        stop = min(cap, clique.value)
    space = sample.space
    if space.packing_cap == 1:
        return SeparationReport(1, EXACT, BRUTE_FORCE, witness=(0,))
    d, adj = _separation_graph(sample, r)

    if space.meb_locality:
        pts = sample.points
        r_feas = r * (1.0 + MEB_FEASIBILITY_RTOL)

        def feasible(subset: list[int]) -> bool:
            k = len(subset)
            if k <= 2:
                # The closed window d <= 2r already certifies a midpoint.
                return True
            if k == 3 or space.dim <= 2:
                # The prefix passed, so in the plane (Helly) only the
                # triples holding the new vertex are left to check.
                *prefix, v = subset
                return all(three_point_radius(d[i, j], d[i, v], d[j, v]) <= r_feas
                           for i, j in combinations(prefix, 2))
            # Sorted, so the floating-point MEB does not depend on the
            # order in which the search grew the subset.
            return meb_radius(pts[sorted(subset)]) <= r_feas
    else:
        def feasible(subset: list[int]) -> bool:
            return bool((d[:, subset].max(axis=1) <= r).any())

    best, open_bound = _largest_clique(adj, feasible, stop)
    if clique is not None and len(best) == clique.value and space.known_metric:
        return SeparationReport(len(best), EXACT, BRUTE_FORCE, witness=best)
    if len(best) >= cap:
        return SeparationReport(cap, LOWER_BOUND, BRUTE_FORCE, witness=best)
    certified = EXACT if space.meb_locality and open_bound is None else LOWER_BOUND
    return SeparationReport(len(best), certified, BRUTE_FORCE, witness=best)


def h_clique_relaxed(sample: Sample, r: float) -> SeparationReport:
    """Maximum clique of the graph with edges where r < d(x_i, x_j) <= 2r.

    Dropping the shared-center requirement in favor of its pairwise
    consequence makes this an upper bound for h; the converse can fail, so
    the certificate is one-sided.  A search that runs out of budget reports
    an upper bound that may exceed its witness, the largest clique it found.

    On the discrete metric the answer is closed, read from the sample's
    symbol codes: the window holds the distance 1 exactly when
    1/2 <= r < 1, and then joins every two draws of distinct symbols, so
    the largest clique takes one draw of each, the last one, as the search
    would.  Otherwise the graph has no edge, and the clique is the first
    point.
    """
    check_sample(sample, r)
    codes = sample.symbol_codes
    if codes is not None:
        last = sample.n - 1 - np.unique(codes[::-1], return_index=True)[1]
        witness = tuple(sorted(last.tolist())) if 0.5 <= r < 1 and last.size > 1 else (0,)
        return SeparationReport(len(witness), UPPER_BOUND, CLIQUE_RELAXATION, witness=witness)
    _, adj = _separation_graph(sample, r)
    clique, open_bound = _largest_clique(adj, lambda subset: True, sample.n)
    value = len(clique) if open_bound is None else open_bound
    return SeparationReport(value, UPPER_BOUND, CLIQUE_RELAXATION, witness=clique)


def _separation_graph(sample: Sample, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Distance matrix and the adjacency of r < d <= 2r, closed at 2r."""
    d = sample.distance_matrix()
    adj = (d > r) & (d <= 2.0 * r)
    np.fill_diagonal(adj, False)
    return d, adj


def _largest_clique(adj: np.ndarray, feasible, stop: int) -> tuple[tuple[int, ...], int | None]:
    """Largest clique of ``adj`` whose every prefix passes the hereditary
    ``feasible``, by branch and bound over bitset candidate sets with a
    colour-class bound.

    Returns the clique sorted, and None; or, if the search listed
    ``CLIQUE_NODE_BUDGET`` candidates to branch on before it finished, the
    largest clique found and an upper bound on the largest there is.  The
    search ends as soon as the clique has ``stop`` vertices.
    """
    budget = CLIQUE_NODE_BUDGET
    nbrs = [int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(adj, axis=1, bitorder="little")]
    best = [0]
    nodes = 0
    # The largest len(clique) + colour over the branches the budget left
    # open, None while the search runs within it.
    open_bound = None

    def expand(clique: list[int], cands: int) -> bool:
        nonlocal best, nodes, open_bound
        # Colour classes peeled in index order; a clique among the
        # candidates up to a class-k vertex has at most k of them.  A
        # vertex whose colour cannot beat best is never branched on.
        skip = len(best) - len(clique)
        listed: list[tuple[int, int]] = []
        uncoloured, colour = cands, 0
        while uncoloured:
            colour += 1
            free = uncoloured
            while free:
                low = free & -free
                v = low.bit_length() - 1
                free &= ~(nbrs[v] | low)
                uncoloured ^= low
                if colour > skip:
                    listed.append((v, colour))
        if listed and nodes >= budget:
            # Every branch here stays open; the last has the highest colour.
            open_bound = max(open_bound or 0, len(clique) + listed[-1][1])
            return True
        nodes += len(listed)
        for k in range(len(listed) - 1, -1, -1):
            v, colour = listed[k]
            if len(clique) + colour <= len(best):
                return False
            cands ^= 1 << v
            grown = clique + [v]
            if not feasible(grown):
                continue
            if len(grown) > len(best):
                best = grown
                if len(best) >= stop:
                    return True
            if expand(grown, cands & nbrs[v]):
                if open_bound is not None and k:  # the branches after v
                    open_bound = max(open_bound, len(clique) + listed[k - 1][1])
                return True
        return False

    if len(best) < stop:
        expand([], (1 << adj.shape[0]) - 1)
    # ``expand`` refers to itself, a cycle that would keep ``feasible``, and
    # the distance matrix it reads, alive until the next garbage collection.
    del expand
    bound = None if open_bound is None else max(open_bound, len(best))
    return tuple(sorted(best)), bound


def eh_upper_from_sample(h_observed: int, delta: float) -> float:
    """Upper estimate of E[h] from one observation, valid with probability
    at least 1 - delta: (sqrt(h) + sqrt(2 ln(1/delta)))^2."""
    if h_observed < 1:
        raise ValueError("h is at least 1 on non-empty samples")
    check_delta(delta)
    t = math.log(1.0 / delta)
    return (math.sqrt(h_observed) + math.sqrt(2.0 * t)) ** 2


def h_upper_bound(h: SeparationReport, clique: SeparationReport, space) -> tuple[int, str]:
    """The upper bound on h that E[h] is estimated from, and its source:
    the :func:`h_exact` value when certified exact (``"h"``), else the
    smaller of the clique value ω (``"clique"``) and the space's packing cap
    (``"packing_cap"``)."""
    if h.certified == EXACT:
        return h.value, "h"
    cap = space.packing_cap
    if cap is not None and cap < clique.value:
        return cap, "packing_cap"
    return clique.value, "clique"
