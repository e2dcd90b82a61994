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
al.'s BBMC.  The search is one loop over an explicit stack of frames, and
colours a child's candidates in its parent's loop, before entering it: a
child that lists no candidate has no branch and is never entered.  The
clique relaxation's predicate accepts everything; h's is the locality test
below.  Witnesses are returned sorted.  A search that lists
``CLIQUE_NODE_BUDGET`` candidates stops there with a one-sided answer: the
clique relaxation then reports the largest colour bound of the branches it
left open, and h its witness as a lower bound.

The clique value ω bounds h from above, and some space kinds cap ω itself,
in exact arithmetic (:attr:`metricmass.spaces.MetricSpace.clique_cap`: 2
under a 1-D norm, 4 in the 1-norm plane, 2^D under the sup-norm, ⌈2^p⌉ for
the scaled indicator).  One function builds both searches' window graph and
stop: the search's own bound, lowered to that ceiling provided no distance
lies within a relative ``NEIGHBOUR_SLACK`` (2^-30) of r or 2r, beyond the
kernel's rounding on these kinds, so that each window decision is the exact
one.  The relaxation's own bound is n; h's is ω, the :func:`h_clique_relaxed`
value of the same sample and radius, when given, and h also stops at its
cap.  A witness is only replaced by a larger one, so the search returns the
full search's witness, and one that finishes within its budget the same
report with the ceiling as without.  One that would run out of budget may
reach the ceiling first, and then reports the exact ω in place of a larger
colour bound; and a relaxation out of budget reports no bound above the
ceiling.

One rule certifies h.  On a space whose triangle inequality is known (all
but precomputed matrices), h is exact when its witness reaches that proven
bound on ω, or when the locality test is exact and the search ended below
the cap within its budget; else the witness is a lower bound, equal to the
cap when the search reached it.

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
from .samples import NEIGHBOUR_SLACK, Sample
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


def check_cap(cap: int) -> None:
    """Raise ValueError unless the h search's cap is at least 1."""
    if not cap >= 1:
        raise ValueError("h_cap must be at least 1")


def h_exact(sample: Sample, r: float, cap: int = DEFAULT_CAP,
            clique: SeparationReport | None = None) -> SeparationReport:
    """Largest locally separated sub-sample, searched up to size ``cap``.

    ``clique``, if given, must be the :func:`h_clique_relaxed` report of
    the same sample and radius; its value, else the space's clique ceiling
    where every window decision is exact, is a proven bound on ω.  The
    search stops once its witness reaches that bound or the cap, with the
    value, method and witness of the full search.  Unless the space's
    triangle inequality is unverified (a precomputed matrix), h is exact
    when the witness reaches the bound, or when the locality test is exact
    and the search ended below the cap within its budget.  Otherwise the
    value is a certified lower bound (the witness is still genuine).
    """
    check_sample(sample, r)
    check_cap(cap)
    if clique is not None:
        if (clique.certified, clique.method) != (UPPER_BOUND, CLIQUE_RELAXATION):
            raise ValueError("clique must be an h_clique_relaxed report")
    space = sample.space
    if space.packing_cap == 1:
        return SeparationReport(1, EXACT, BRUTE_FORCE, witness=(0,))
    d, nbrs, omega = _window(sample, r, math.inf if clique is None else clique.value)

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

    best, open_bound = _largest_clique(nbrs, feasible, min(cap, omega))
    size = len(best)
    exact = space.known_metric and (size >= omega or (space.meb_locality
                                                      and open_bound is None and size < cap))
    return SeparationReport(size, EXACT if exact else LOWER_BOUND, BRUTE_FORCE, witness=best)


def h_clique_relaxed(sample: Sample, r: float) -> SeparationReport:
    """Maximum clique of the graph with edges where r < d(x_i, x_j) <= 2r.

    Dropping the shared-center requirement in favor of its pairwise
    consequence makes this an upper bound for h; the converse can fail, so
    the certificate is one-sided.  The search ends at the space's clique
    ceiling where every window decision is exact.  A search that runs out
    of budget reports an upper bound, at most that ceiling, that may exceed
    its witness, the largest clique it found.

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
    _, nbrs, stop = _window(sample, r, sample.n)
    clique, open_bound = _largest_clique(nbrs, lambda subset: True, stop)
    value = len(clique) if open_bound is None else min(open_bound, stop)
    return SeparationReport(value, UPPER_BOUND, CLIQUE_RELAXATION, witness=clique)


def _window(sample: Sample, r: float, bound: float) -> tuple[np.ndarray, list[int], float]:
    """The distance matrix, each point's neighbours in the window graph
    r < d <= 2r (closed at 2r) as a bitset, and the search stop: ``bound``,
    lowered to the space's clique ceiling provided no distance lies within
    a relative ``NEIGHBOUR_SLACK`` of r or 2r, so that every window
    decision is the exact one."""
    d = sample.distance_matrix()
    adj = (d > r) & (d <= 2.0 * r)
    np.fill_diagonal(adj, False)
    nbrs = [int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(adj, axis=1, bitorder="little")]
    ceiling = sample.space.clique_cap
    if ceiling is not None and ceiling < bound and not any(
            ((d >= edge * (1 - NEIGHBOUR_SLACK)) & (d <= edge * (1 + NEIGHBOUR_SLACK))).any()
            for edge in (r, 2.0 * r)):
        bound = ceiling
    return d, nbrs, bound


def _largest_clique(nbrs: list[int], feasible, stop: int) -> tuple[tuple[int, ...], int | None]:
    """Largest clique whose every prefix passes the hereditary ``feasible``,
    in the graph where vertex v has the neighbour bitset ``nbrs[v]``, by
    branch and bound over bitset candidate sets with a colour-class bound,
    as one loop over an explicit stack of frames.

    Returns the clique sorted, and None; or, if the search listed
    ``CLIQUE_NODE_BUDGET`` candidates to branch on before it finished, the
    largest clique found and an upper bound on the largest there is.  The
    search ends as soon as the clique has ``stop`` vertices.

    A child's candidates are coloured in its parent's loop, before it is
    entered; a child that lists no vertex has no branch and adds no node, so
    it is never entered.
    """
    budget = CLIQUE_NODE_BUDGET
    # The vertices that may share a colour class with v: its non-neighbours.
    # Kept non-negative, which Python's ``&`` takes faster than ``~(...)``.
    everyone = (1 << len(nbrs)) - 1
    masks = [everyone ^ (nbr | 1 << v) for v, nbr in enumerate(nbrs)]
    best = [0]
    nodes = 0
    # The largest len(clique) + colour over the branches the budget left
    # open, None while the search runs within it.
    open_bound = None
    # The frame whose branches are taken: its clique, its candidates not yet
    # branched on, its listed (vertex, colour) pairs and the index of its
    # next branch, which runs down to 0.  The frames it was entered from
    # wait on the stack; the bottom one, below the root, has no branch.
    clique, cands, listed, k = [], 0, [], -1
    stack = []
    # The clique of the child to colour next and its candidates, first the
    # root's; None once it is entered or passed over.
    grown, child = [], everyone
    while len(best) < stop:
        if grown is not None:
            # Colour classes peeled in index order; a clique among the
            # candidates up to a class-c vertex has at most c of them.  A
            # vertex whose colour cannot beat best is never branched on.
            skip = len(best) - len(grown)
            fresh = []
            uncoloured, colour = child, 0
            while uncoloured:
                colour += 1
                free = uncoloured
                while free:
                    low = free & -free
                    v = low.bit_length() - 1
                    free &= masks[v]
                    uncoloured ^= low
                    if colour > skip:
                        fresh.append((v, colour))
            if fresh:
                if nodes >= budget:
                    # Every branch of the child stays open, and so does each
                    # frame's next one; the last listed has the highest colour.
                    open_bound = len(grown) + fresh[-1][1]
                    for above, _, pairs, j in (*stack, (clique, cands, listed, k)):
                        if j >= 0:
                            open_bound = max(open_bound, len(above) + pairs[j][1])
                    break
                nodes += len(fresh)
                stack.append((clique, cands, listed, k))
                clique, cands, listed, k = grown, child, fresh, len(fresh) - 1
            grown = None
        if k < 0 or len(clique) + listed[k][1] <= len(best):
            if not stack:
                break
            clique, cands, listed, k = stack.pop()
            continue
        v = listed[k][0]
        k -= 1
        cands ^= 1 << v
        grown = clique + [v]
        if not feasible(grown):
            grown = None
            continue
        if len(grown) > len(best):
            best = grown
        child = cands & nbrs[v]
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
