"""The classical greedy t-spanner and the universal upper-bound exponent.

The greedy algorithm scans edges in nondecreasing length order and keeps an
edge exactly when the spanner built so far does not already span it within
the stretch budget.  On unit-length inputs the output always has girth at
least t+2: a kept edge closing a cycle of length <= t+1 would have been
spanned by the rest of that cycle.

Each greedy step and each edge of the stretch check asks: is d_H(u,v) within
budget?  On unit-length graphs ``graph_core.within_hops`` answers with a
bidirectional BFS, two balls of radius about t/2 instead of one of radius t;
weighted graphs use a Dijkstra run cut at the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .graph_core import (
    Graph,
    INFINITY,
    LENGTH_RTOL,
    weighted_distance_bounded,
    within_hops,
)

__all__ = [
    "Spanner",
    "greedy_spanner",
    "upper_bound_exponent",
    "verify_stretch",
]


@dataclass(frozen=True)
class Spanner:
    """A subgraph of ``base`` together with its stretch and provenance."""

    base: Graph
    kept_edges: tuple[tuple[int, int], ...]
    t: int
    provenance: str = "GREEDY"
    _graph: list = field(default_factory=list, init=False, repr=False, compare=False)

    def graph(self) -> Graph:
        """The spanner as a Graph on the full vertex set (cached)."""
        if not self._graph:
            self._graph.append(self.base.subgraph(self.kept_edges))
        return self._graph[0]

    @property
    def m(self) -> int:
        return len(self.kept_edges)


def greedy_spanner(g: Graph, t: int) -> Spanner:
    """Greedy t-spanner of ``g`` under the deterministic edge order.

    Ties between equal-length edges break by (min endpoint, max endpoint),
    so reruns are reproducible.  A unit-length edge is kept iff the
    bidirectional ``within_hops`` finds no path of at most t hops in the
    partial spanner; for weighted graphs the true d_G(u,v) is computed (it
    can be below the edge length) and a Dijkstra run cut at t*d_G(u,v) asks.
    """
    if t < 1:
        raise ValueError(f"stretch must be a positive integer, got {t}")
    order = sorted(g.edges, key=lambda e: (g.edge_length(*e), e[0], e[1]))
    adj: list[list[int]] = [[] for _ in range(g.n)]
    kept: list[tuple[int, int]] = []
    if not g.weighted:
        # Unit lengths: d_G(u,v) = 1 for every edge, the budget is just t.
        stamp = [0] * g.n
        for tick, (u, v) in enumerate(order, start=1):
            if not within_hops(adj, u, v, t, stamp, tick):
                kept.append((u, v))
                adj[u].append(v)
                adj[v].append(u)
        return Spanner(base=g, kept_edges=tuple(kept), t=t)
    lengths = g.lengths
    assert lengths is not None
    full_adj = g.adjacency()
    for u, v in order:
        w = lengths[(u, v)]
        d_g = weighted_distance_bounded(full_adj, lengths, u, v, w)
        d_g = min(d_g, w)
        budget = t * d_g
        if weighted_distance_bounded(adj, lengths, u, v, budget) > budget * (
            1.0 + LENGTH_RTOL
        ):
            kept.append((u, v))
            adj[u].append(v)
            adj[v].append(u)
    return Spanner(base=g, kept_edges=tuple(kept), t=t)


def verify_stretch(g: Graph, h: Spanner | Graph, t: int) -> bool:
    """True iff ``h`` spans every edge of ``g`` within stretch ``t``.

    Checking edges suffices: if d_H(u,v) <= t*d_G(u,v) for every edge, the
    bound for an arbitrary pair follows by summing along a shortest G-path
    (the test suite re-validates this against an all-pairs check on small
    graphs).
    """
    if isinstance(h, Spanner):
        base_edges = set(g.edges)
        if any(e not in base_edges for e in h.kept_edges):
            raise ValueError("spanner keeps an edge outside the base graph")
        hg = h.graph()
    else:
        hg = h
    adj = hg.adjacency()
    if not g.weighted:
        stamp = [0] * hg.n
        return all(
            within_hops(adj, u, v, t, stamp, tick)
            for tick, (u, v) in enumerate(g.edges, start=1)
        )
    lengths = g.lengths
    assert lengths is not None
    full_adj = g.adjacency()
    h_lengths = hg.lengths if hg.weighted else {e: 1.0 for e in hg.edges}
    for u, v in g.edges:
        w = lengths[(u, v)]
        d_g = min(w, weighted_distance_bounded(full_adj, lengths, u, v, w))
        budget = t * d_g
        if weighted_distance_bounded(adj, h_lengths, u, v, budget) > budget * (
            1.0 + LENGTH_RTOL
        ):
            return False
    return True


def verify_stretch_all_pairs(g: Graph, h: Spanner | Graph, t: int) -> bool:
    """All-pairs form of the stretch check, for cross-validation at desk scale."""
    from .graph_core import shortest_paths

    hg = h.graph() if isinstance(h, Spanner) else h
    for v in range(g.n):
        dg = shortest_paths(g, v)
        dh = shortest_paths(hg, v)
        for u in range(g.n):
            if dg[u] == math.inf:
                if dh[u] != math.inf:
                    return False
                continue
            if dh[u] > t * dg[u] * (1.0 + LENGTH_RTOL):
                return False
    return True


def upper_bound_exponent(k: int, p) -> float:
    """Exponent of the universal upper bound for the greedy (2k-1)-spanner.

    ``max(1, (k+p)/(kp))`` for finite p (so O(n) once p >= k/(k-1)), and 1
    for the max-degree norm.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if p is INFINITY:
        return 1.0
    if not p >= 1:
        raise ValueError(f"p must satisfy p >= 1, got {p}")
    return max(1.0, (k + p) / (k * p))


def spanner_summary(g: Graph, h: Spanner, ps: Iterable = (1, 2, INFINITY)) -> dict:
    """JSON-friendly summary of a spanner run (used by the CLI)."""
    from .graph_core import girth, lp_norm

    hg = h.graph()
    gv = girth(hg)
    norms = {}
    for p in ps:
        key = "inf" if p is INFINITY else f"{float(p):g}"
        norms[key] = lp_norm(hg, p)
    return {
        "n": g.n,
        "m_in": g.m,
        "m_out": h.m,
        "girth": None if gv == math.inf else int(gv),
        "norms": norms,
        "stretch": h.t,
    }
