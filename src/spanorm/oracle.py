"""Brute-force minimum-lp-norm t-spanner oracle and greedy-ratio checks.

The oracle enumerates edge subsets, so it is the independent ground truth
the rest of the package is validated against.  Exhaustive mode walks every
subset and checks each with ``verify_stretch``; branch-and-bound mode prunes
on two sound tests (the norm of the degrees already forced, and
spannability of each excluded edge inside the still-available graph) and
re-verifies every surviving leaf, so both modes return the same optimum.
The branch-and-bound builds no graph per node: it keeps the available
edges (kept plus undecided) as one adjacency that the drop branch edits in
place and restores on backtrack (on a unit graph one int bitmask per
vertex, so a drop is two XORs, and the spannability test a hop search over
those bits), keeps the degree multiset as one integer that the keep branch
updates in O(1), computes each multiset's norm once per search, and at a
leaf, where that adjacency is the kept set, checks only the dropped edges'
stretch.  Ties break to the lexicographically smallest kept edge set,
making results reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph_core import (
    Graph,
    degree_norm,
    layer_profile,
    lp_norm,
    within_length,
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


def _within_hops_mask(mask: list[int], u: int, v: int, cap: int) -> bool:
    """True iff ``v`` is within ``cap >= 1`` hops of ``u != v``, where bit y
    of ``mask[x]`` is set iff x-y is an edge.

    Level i of the search is the set of vertices exactly i hops from u, one
    int; v is within ``cap`` hops iff a level i < ``cap`` meets ``mask[v]``.
    An empty level stops the search, so a ``cap`` far above n costs what
    ``cap = n`` does.
    """
    near = mask[v]
    seen = level = 1 << u
    while not level & near:
        cap -= 1
        if not cap:
            return False
        reach = 0
        while level:
            low = level & -level
            reach |= mask[low.bit_length() - 1]
            level ^= low
        level = reach & ~seen
        if not level:
            return False
        seen |= level
    return True


def optimal_spanner(
    g: Graph, t: int, p, prune: bool = True, greedy: Spanner | None = None
) -> OracleResult:
    """Globally minimum-norm t-spanner by exhaustive search.

    ``prune=False`` forces plain subset enumeration (only up to 24 edges);
    ``prune=True`` adds branch-and-bound and stretches to 40 edges.  Edges
    are ordered with the greedy spanner's complement first, which lets the
    norm bound bite early.  A caller that holds ``greedy_spanner(g, t)``
    passes it as ``greedy`` to save building it again; a spanner built on
    another graph or at another stretch raises ``ValueError``.

    The branch-and-bound keeps one mutable adjacency of the kept edges
    plus every undecided one.  On a unit graph it is ``mask``, one int per
    vertex with bit y of ``mask[x]`` set iff x-y is available: the drop
    branch clears the edge's two bits for its subtree and sets them again
    on backtrack (two XORs each way), and the spannability prune asks
    ``_within_hops_mask``, a hop search whose levels are ints.  On a
    weighted graph it is ``avail``, one list per vertex: the drop branch
    takes its edge out of two lists and puts it back in the same slots,
    and the prune asks ``within_length`` with cap ``t * length``.  Both
    tests answer exactly whether the edge's ends are within the cap in the
    available edges, the verdict ``within_hops`` gives on lists, so a unit
    graph and its copy with every length 1.0 search the same tree.  Neither runs
    inside the order's prefix of greedy-complement edges, where every
    greedy edge is available and the test would pass.  At a leaf the
    adjacency is the kept set.  The leaf norm is ``degree_norm`` of the
    running degrees, the same float ``lp_norm`` gives, and the stretch
    check asks the same question about the dropped edges only: a kept edge
    spans itself, as ``verify_stretch`` sees it.  A drop child skips the
    norm bound test its parent just passed on the same degrees and
    incumbent; a keep child's test runs in the parent, before the call, on
    the same incumbent the child would see, and a child it prunes counts as
    explored and pruned without a call.  ``prune=False`` builds a graph and
    calls ``verify_stretch`` per subset, and stays the independent
    reference.

    The bound test computes ``degree_norm`` once per degree multiset the
    search meets and reads it from a dict after that.  The multiset is kept
    as ``key = sum((n+1)**d for d in degrees)``: it starts at ``n`` (every
    degree 0), and keeping edge ``(u, v)`` adds ``(n+1)**(d+1) - (n+1)**d``
    for each end before the keep child gets it.  Two facts make the
    memo return the very float a fresh call would:

    - ``degree_norm`` of a per-vertex list depends only on the multiset of
      its entries, for every ``p``.  ``INFINITY`` takes a ``max``.  A finite
      ``p`` sums with ``math.fsum``, which is correctly rounded, so its sum
      is that of the exact real sum whatever the order.  Whether a term
      overflows depends on that term alone, and as the terms are
      non-negative every partial sum is at most the whole one, so the sum
      leaves the float range in every order or in none; the scaled branch
      then divides by the ``max`` and again sums with ``fsum``.
    - The key determines the multiset: in a simple graph every degree is
      below ``n``, and at most ``n < n+1`` vertices share a degree, so the
      count of degree ``d`` is the key's ``d``-th base-``(n+1)`` digit.
      The power table needs only the exponents up to ``g``'s largest
      degree, which no degree in the search exceeds, so its size does not
      grow with ``n``.

    So the search tree, ``explored``, ``pruned`` and the optimum are those
    of a search that calls ``degree_norm`` at every node.
    """
    m = g.m
    if prune and m > PRUNED_EDGE_LIMIT:
        raise OracleSizeError(f"{m} edges exceeds the pruned limit {PRUNED_EDGE_LIMIT}")
    if not prune and m > EXHAUSTIVE_EDGE_LIMIT:
        raise OracleSizeError(
            f"{m} edges exceeds the exhaustive limit {EXHAUSTIVE_EDGE_LIMIT}"
        )
    if greedy is None:
        greedy = greedy_spanner(g, t)
    elif not (greedy.base == g and greedy.t == t):
        raise ValueError(f"greedy is a spanner of {greedy.base!r} at t={greedy.t!r}, "
                         f"not of {g!r} at t={t!r}")
    greedy_edges = set(greedy.kept_edges)
    order = [e for e in g.edges if e not in greedy_edges] + [
        e for e in g.edges if e in greedy_edges
    ]
    # order[:complement] are the edges the greedy dropped
    complement = m - len(greedy_edges)

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

    greedy_norm = lp_norm(greedy.graph(), p)
    if not prune:
        for mask in range(1 << m):
            explored += 1
            sub = g.subgraph(order[i] for i in range(m) if mask >> i & 1)
            norm = lp_norm(sub, p)
            if norm <= best_norm and verify_stretch(g, sub, t):
                offer(norm, sub.edges)
    else:
        # start from the greedy solution as the incumbent
        if verify_stretch(g, greedy.graph(), t):
            offer(greedy_norm, tuple(sorted(greedy.kept_edges)))
        explored += 1
        degrees = [0] * g.n
        kept: list = []
        dropped: list[int] = []
        lengths = g.lengths
        if lengths is None:
            mask = [0] * g.n
            for u, v in g.edges:
                mask[u] |= 1 << v
                mask[v] |= 1 << u
        else:
            mask = None
            avail = [list(nbrs) for nbrs in g.adjacency()]
            budget = [t * lengths[e] for e in order]

        def spanned(i: int) -> bool:
            # order[i] is spanned within its budget by the edges now available
            u, v = order[i]
            if mask is not None:
                return _within_hops_mask(mask, u, v, t)
            return within_length(avail, lengths, u, v, budget[i])

        def leaf(norm: float) -> None:
            if norm > best_norm:
                return
            if not all(map(spanned, dropped)):
                return
            offer(norm, tuple(sorted(kept)))

        # keeping an edge raises a degree to at most g's own largest, so
        # the table stops there whatever n is
        power = [(g.n + 1) ** d for d in range(max(g.degrees(), default=0) + 1)]
        norms: dict[int, float] = {}

        def dfs(idx: int, norm: float, key: int) -> None:
            # the caller has passed the bound test on norm, the norm of the
            # degrees; key is sum over v of (n+1)**degrees[v], which names
            # the degree multiset
            nonlocal explored, pruned
            explored += 1
            if idx == m:
                leaf(norm)
                return
            u, v = order[idx]
            # branch 1: drop the edge (complement-first order favors drops)
            if mask is not None:
                bu, bv = 1 << u, 1 << v
                mask[u] ^= bv
                mask[v] ^= bu
            else:
                nu, nv = avail[u], avail[v]
                iu, iv = nu.index(v), nv.index(u)
                del nu[iu], nv[iv]
            # in the complement prefix every greedy edge is still available,
            # and the greedy spans its dropped edges within t * length; the
            # drop child keeps the degrees, so it skips the bound test its
            # parent passed on the same incumbent
            if idx < complement or spanned(idx):
                dropped.append(idx)
                dfs(idx + 1, norm, key)
                dropped.pop()
            else:
                pruned += 1
            if mask is not None:
                mask[u] ^= bv
                mask[v] ^= bu
            else:
                nu.insert(iu, v)
                nv.insert(iv, u)
            # branch 2: keep the edge, bound-tested here: a pruned child is
            # explored and pruned without a call
            du, dv = degrees[u], degrees[v]
            key += power[du + 1] - power[du] + power[dv + 1] - power[dv]
            degrees[u] = du + 1
            degrees[v] = dv + 1
            norm = norms.get(key)
            if norm is None:
                norm = norms[key] = degree_norm(degrees, p)
            if norm > best_norm + 1e-12:
                explored += 1
                pruned += 1
            else:
                kept.append(order[idx])
                dfs(idx + 1, norm, key)
                kept.pop()
            degrees[u] = du
            degrees[v] = dv

        # the root's norm is 0.0, never above the incumbent
        dfs(0, degree_norm(degrees, p), g.n)

    assert best_edges is not None, "the full graph always spans itself"
    spanner = Spanner(base=g, kept_edges=best_edges, t=t)
    return OracleResult(
        optimum=spanner,
        optimum_norm=best_norm,
        explored=explored,
        pruned=pruned,
        greedy_norm=greedy_norm,
    )


def greedy_ratio(g: Graph, t: int, p, greedy: Spanner | None = None) -> float:
    """Norm ratio of the greedy spanner to the oracle optimum (>= 1); pass
    ``greedy_spanner(g, t)`` as ``greedy`` if it is at hand, and nothing
    else: another graph's or stretch's spanner raises ``ValueError``."""
    return optimal_spanner(g, t, p, greedy=greedy).greedy_ratio


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
    when they know h is optimal).  ``r_max`` must be an ``int`` >= 0 (not a
    bool) and ``p2_norm`` a finite number >= 0; anything else raises
    ``ValueError`` naming the argument.
    """
    if isinstance(r_max, bool) or not isinstance(r_max, int) or r_max < 0:
        raise ValueError(f"r_max must be a non-negative integer, got {r_max!r}")
    if not (math.isfinite(p2_norm) and p2_norm >= 0):
        raise ValueError(f"p2_norm must be finite and >= 0, got {p2_norm!r}")
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
