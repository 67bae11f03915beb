"""Brute-force minimum-lp-norm t-spanner oracle and greedy-ratio checks.

The oracle enumerates edge subsets, so it is the independent ground truth
the rest of the package is validated against.  Exhaustive mode walks every
subset and checks each with ``verify_stretch``; branch-and-bound mode prunes
on two sound tests (the norm of the degrees already forced, and
spannability of each excluded edge inside the still-available graph) and
re-verifies every surviving leaf, so both modes return the same optimum.
The branch-and-bound does O(degree) work per node: it keeps the available
edges (kept plus undecided) as one adjacency that the drop branch edits in
place and restores on backtrack, and at a leaf, where that adjacency is the
kept set, it checks only the dropped edges' stretch.  Ties break to the
lexicographically smallest kept edge set, making results reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph_core import (
    LENGTH_RTOL,
    Graph,
    degree_norm,
    layer_profile,
    lp_norm,
    weighted_distance_bounded,
    within_hops,
)
from .greedy import Spanner, greedy_spanner, verify_stretch

__all__ = [
    "BallGrowthReport",
    "OracleResult",
    "OracleSizeError",
    "ball_growth_check",
    "greedy_ratio",
    "optimal_spanner",
    "two_path_count",
]

EXHAUSTIVE_EDGE_LIMIT = 24
PRUNED_EDGE_LIMIT = 40


class OracleSizeError(ValueError):
    """Instance too large for exhaustive search."""


@dataclass(frozen=True)
class OracleResult:
    optimum: Spanner
    optimum_norm: float
    explored: int
    pruned: int
    greedy_norm: float

    @property
    def greedy_ratio(self) -> float:
        """Norm ratio of the greedy spanner to the optimum (>= 1); 1 when
        the optimum norm is 0."""
        if self.optimum_norm == 0:
            return 1.0
        return self.greedy_norm / self.optimum_norm


def optimal_spanner(g: Graph, t: int, p, prune: bool = True) -> OracleResult:
    """Globally minimum-norm t-spanner by exhaustive search.

    ``prune=False`` forces plain subset enumeration (only up to 24 edges);
    ``prune=True`` adds branch-and-bound and stretches to 40 edges.  Edges
    are ordered with the greedy spanner's complement first, which lets the
    norm bound bite early.

    The branch-and-bound keeps one mutable adjacency ``avail`` of the kept
    edges plus every undecided one: the drop branch takes its edge out of
    two lists for its subtree and puts it back in the same slots, and the
    spannability prune asks ``within_hops`` (or a Dijkstra cut at
    ``t * length``) on it.  At a leaf ``avail`` is the kept set.  The leaf
    norm is ``degree_norm`` of the running degrees, the same float
    ``lp_norm`` gives, and the stretch check asks about the dropped edges
    only (a kept edge spans itself), plus on weighted graphs any edge longer
    than its own budget ``t * min(w, d_G(u, v))``.  A drop child skips the
    norm bound test its parent just passed on the same degrees and
    incumbent.  ``prune=False`` builds a graph and calls ``verify_stretch``
    per subset, and stays the independent reference.
    """
    m = g.m
    if prune and m > PRUNED_EDGE_LIMIT:
        raise OracleSizeError(f"{m} edges exceeds the pruned limit {PRUNED_EDGE_LIMIT}")
    if not prune and m > EXHAUSTIVE_EDGE_LIMIT:
        raise OracleSizeError(
            f"{m} edges exceeds the exhaustive limit {EXHAUSTIVE_EDGE_LIMIT}"
        )
    greedy = greedy_spanner(g, t)
    greedy_edges = set(greedy.kept_edges)
    order = [e for e in g.edges if e not in greedy_edges] + [
        e for e in g.edges if e in greedy_edges
    ]

    best_norm = math.inf
    best_edges: tuple | None = None
    explored = 0
    pruned = 0

    def offer(norm: float, canon: tuple) -> None:
        # ties break to the lexicographically smallest kept edge set
        nonlocal best_norm, best_edges
        if norm < best_norm - 1e-15 or (
            math.isclose(norm, best_norm, rel_tol=1e-12)
            and (best_edges is None or canon < best_edges)
        ):
            best_norm = min(norm, best_norm)
            best_edges = canon

    def consider(kept: tuple) -> None:
        sub = g.subgraph(kept)
        norm = lp_norm(sub, p)
        if norm > best_norm:
            return
        if not verify_stretch(g, Spanner(g, tuple(sorted(kept)), t, "ORACLE"), t):
            return
        offer(norm, tuple(sorted(kept)))

    if not prune:
        for mask in range(1 << m):
            explored += 1
            kept = tuple(order[i] for i in range(m) if mask >> i & 1)
            consider(kept)
    else:
        # start from the greedy solution as the incumbent
        consider(tuple(greedy_edges))
        explored += 1
        degrees = [0] * g.n
        kept: list = []
        dropped: list[int] = []
        avail = [list(nbrs) for nbrs in g.adjacency()]
        stamp = [0] * g.n
        tick = 0
        lengths = g.lengths
        long_edges: list[int] = []
        if lengths is None:
            prune_budget = leaf_budget = None
        else:
            prune_budget = [t * lengths[e] for e in order]
            # per-edge budgets t * min(w, d_G(u, v)), as verify_stretch has
            # them.  A kept edge spans itself unless it is longer than its
            # budget; such an edge is spanned once the dropped edges of a
            # shortest path are, up to float rounding, so the leaf asks about
            # it too and decides exactly as verify_stretch would
            leaf_budget = []
            for i, (u, v) in enumerate(order):
                w = lengths[(u, v)]
                d_g = min(w, weighted_distance_bounded(g.adjacency(), lengths, u, v, w))
                leaf_budget.append(t * d_g)
                if w > t * d_g * (1.0 + LENGTH_RTOL):
                    long_edges.append(i)

        def spanned(i: int, budget: list[float] | None) -> bool:
            # order[i] is spanned within budget by the edges now in avail
            nonlocal tick
            u, v = order[i]
            if budget is None:
                tick += 1
                return within_hops(avail, u, v, t, stamp, tick)
            b = budget[i]
            return weighted_distance_bounded(avail, lengths, u, v, b) <= b * (
                1.0 + LENGTH_RTOL
            )

        def leaf(norm: float) -> None:
            if norm > best_norm:
                return
            if not all(spanned(i, leaf_budget) for i in dropped):
                return
            if not all(spanned(i, leaf_budget) for i in long_edges):
                return
            offer(norm, tuple(sorted(kept)))

        def dfs(idx: int, norm: float | None) -> None:
            # norm is None unless the parent already passed the bound test
            # on the same degrees and incumbent (the drop child)
            nonlocal explored, pruned
            explored += 1
            if norm is None:
                norm = degree_norm(degrees, p)
                if norm > best_norm + 1e-12:
                    pruned += 1
                    return
            if idx == m:
                leaf(norm)
                return
            u, v = order[idx]
            # branch 1: drop the edge (complement-first order favors drops)
            nu, nv = avail[u], avail[v]
            iu, iv = nu.index(v), nv.index(u)
            del nu[iu], nv[iv]
            if spanned(idx, prune_budget):
                dropped.append(idx)
                dfs(idx + 1, norm)
                dropped.pop()
            else:
                pruned += 1
            nu.insert(iu, v)
            nv.insert(iv, u)
            # branch 2: keep the edge
            kept.append(order[idx])
            degrees[u] += 1
            degrees[v] += 1
            dfs(idx + 1, None)
            degrees[u] -= 1
            degrees[v] -= 1
            kept.pop()

        dfs(0, None)

    assert best_edges is not None, "the full graph always spans itself"
    spanner = Spanner(base=g, kept_edges=best_edges, t=t, provenance="ORACLE")
    return OracleResult(
        optimum=spanner,
        optimum_norm=best_norm,
        explored=explored,
        pruned=pruned,
        greedy_norm=lp_norm(greedy.graph(), p),
    )


def greedy_ratio(g: Graph, t: int, p) -> float:
    """Norm ratio of the greedy spanner to the oracle optimum (>= 1)."""
    return optimal_spanner(g, t, p).greedy_ratio


@dataclass(frozen=True)
class BallGrowthReport:
    alpha: float
    inductive_violations: tuple
    optimal_bound_violations: tuple

    @property
    def inductive_ok(self) -> bool:
        return not self.inductive_violations


def ball_growth_check(h: Spanner | Graph, p2_norm: float, r_max: int) -> BallGrowthReport:
    """Ball growth against the 2-norm: report, never raise.

    Per vertex and radius: the base case |B(v,1)| <= 1 + ||h||_2 (the +1 is
    the center itself), the average-degree step
    |B(v,r+1)| <= sqrt(|B(v,r)|) * ||h||_2 for r >= 1 (exact for any graph
    with an edge), and the stronger 1 + n**((2 - 2**(1-r)) alpha) bound that
    only holds for minimum-2-norm spanners (reported, so callers assert it
    when they know h is optimal).
    """
    hg = h.graph() if isinstance(h, Spanner) else h
    n = hg.n
    alpha = math.log(p2_norm, n) if p2_norm > 0 and n > 1 else 0.0
    inductive = []
    optimal = []
    for v in range(n):
        counts = layer_profile(hg, v, r_max + 1).counts
        balls = []
        acc = 0
        for c in counts:
            acc += c
            balls.append(acc)
        if p2_norm > 0:
            if balls[1] > 1 + p2_norm * (1 + 1e-12):
                inductive.append((v, 1, balls[1], 1 + p2_norm))
            for r in range(1, r_max):
                bound = math.sqrt(balls[r]) * p2_norm
                if balls[r + 1] > bound * (1 + 1e-12):
                    inductive.append((v, r + 1, balls[r + 1], bound))
        for r in range(1, min(r_max, len(balls) - 1) + 1):
            bound = 1 + n ** ((2 - 2 ** (1 - r)) * alpha)
            if balls[r] > bound * (1 + 1e-12):
                optimal.append((v, r, balls[r], bound))
    return BallGrowthReport(
        alpha=alpha,
        inductive_violations=tuple(inductive),
        optimal_bound_violations=tuple(optimal),
    )


def two_path_count(h: Graph) -> int:
    """Number of ordered 2-walks counted by their middle vertex: sum d(v)^2.

    The count includes immediate backtracks (u = v), which makes the
    middle-vertex identity unconditional.  When the girth is at least 5,
    distinct-endpoint 2-walks biject with ordered pairs at distance exactly
    2, and the function cross-checks sum d(v)^2 == #(distance-2 pairs) + 2|E|
    by endpoint enumeration before returning.
    """
    middle = sum(d * d for d in h.degrees())
    from .graph_core import girth_at_least

    if girth_at_least(h, 5):
        distance2 = 0
        for v in range(h.n):
            distance2 += layer_profile(h, v, 2).d(2)
        assert middle == distance2 + 2 * h.m, (
            f"2-walk counts disagree on a girth >= 5 graph: {middle} vs "
            f"{distance2} + {2 * h.m}"
        )
    return middle
