"""The classical greedy t-spanner and the universal upper-bound exponent.

The greedy algorithm scans edges in nondecreasing length order and keeps an
edge (u, v) of length w exactly when the spanner H built so far has
d_H(u,v) > t*w.  On unit-length inputs the output always has girth at least
t+2: a kept edge closing a cycle of length <= t+1 would have been spanned by
the rest of that cycle.

Only edges are ever checked, each against its own budget t*w, never against
d_G.  If d_H(u,v) <= t*w(u,v) for every edge of G, then d_H <= t*d_G for
every pair: sum the edge bounds along a shortest G-path.  The greedy's
output passes that check (t >= 1, so a kept edge spans itself), and the
budget t*w keeps the same edges as t*min(w, d_G(u,v)) would.  Take an edge
with d_G(u,v) < w: every edge e of a shortest u-v path is strictly shorter
than w, so the nondecreasing order scanned it earlier, and H spans it within
t*w_e, by itself if it was kept and by the check that dropped it otherwise.
So d_H(u,v) <= t*d_G(u,v) < t*w, and both budgets drop the edge.  Float
sums are compared with the relative tolerance ``LENGTH_RTOL``, inside
``graph_core.within_length``.

Each greedy step and each edge of the stretch check asks: is d_H(u,v) within
budget?  On unit-length graphs ``graph_core.within_hops`` answers with a
bidirectional BFS, two balls of radius about t/2 instead of one of radius t;
weighted graphs use ``within_length``, its Dijkstra twin, which grows one
search from u and one from v until they meet within the budget or their
heap tops add up to more than it.  The stretch check asks all its questions
of one fixed H, so on unit graphs of at most ``_BALL_MASK_MAX_N`` vertices
it precomputes every ball as a bitmask and answers each edge with one AND
(``_spans_by_balls``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Iterable, Sequence

from .graph_core import Graph, INFINITY, within_hops, within_length

__all__ = [
    "Spanner",
    "greedy_spanner",
    "upper_bound_exponent",
    "verify_stretch",
]

# The ball tables take about n*n/4 bytes and n*n time to build, while the
# per-edge BFS stops at the first meeting.  On sparse graphs (m = 3n, t = 3)
# the two break even near this size; at n = 8000 the masks took 0.055 s
# against 0.019 s for the BFS (CPython 3.11).
_BALL_MASK_MAX_N = 4096


@dataclass(frozen=True)
class Spanner:
    """A subgraph of ``base`` together with its stretch."""

    base: Graph
    kept_edges: tuple[tuple[int, int], ...]
    t: int
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
    so reruns are reproducible.  An edge of length w is kept iff the partial
    spanner has no path within t*w: ``within_hops`` with cap t on unit
    lengths, ``within_length`` with cap t*w otherwise (both search from u
    and from v at once and stop when the two searches meet or cannot).
    """
    if t < 1:
        raise ValueError(f"stretch must be a positive integer, got {t}")
    adj: list[list[int]] = [[] for _ in range(g.n)]
    kept: list[tuple[int, int]] = []
    lengths = g.lengths
    if lengths is None:
        # a Graph keeps its edges sorted by (u, v), the unit-length order
        stamp = [0] * g.n
        for tick, (u, v) in enumerate(g.edges, start=1):
            if not within_hops(adj, u, v, t, stamp, tick):
                kept.append((u, v))
                adj[u].append(v)
                adj[v].append(u)
    else:
        for u, v in sorted(g.edges, key=lambda e: (lengths[e], e)):
            if not within_length(adj, lengths, u, v, t * lengths[(u, v)]):
                kept.append((u, v))
                adj[u].append(v)
                adj[v].append(u)
    return Spanner(base=g, kept_edges=tuple(kept), t=t)


def verify_stretch(g: Graph, h: Spanner | Graph, t: int) -> bool:
    """True iff ``h`` spans every edge of ``g`` within ``t`` times its length,
    which bounds the stretch of every pair by ``t`` (see the module
    docstring; the test suite re-validates it against an all-pairs check).

    ``h`` must be a subgraph of ``g``: the same vertex count, only edges of
    ``g``, and ``g``'s lengths on them (none on a unit ``g``).  Anything else
    raises ``ValueError``.
    """
    hg = h.graph() if isinstance(h, Spanner) else h
    lengths = g.lengths
    if lengths is None:
        ok = hg.lengths is None and set(g.edges).issuperset(hg.edges)
    else:
        ok = hg.lengths is not None and hg.lengths.items() <= lengths.items()
    if hg.n != g.n or not ok:
        raise ValueError("H is not a subgraph of G: it needs G's vertex count, "
                         "edges of G only and G's lengths on them")
    adj = hg.adjacency()
    if lengths is None:
        spans = _spans_by_balls if hg.n <= _BALL_MASK_MAX_N else _spans_by_hops
        return spans(adj, g.edges, t)
    return all(within_length(adj, lengths, u, v, t * w) for (u, v), w in lengths.items())


def _spans_by_hops(adj: Sequence[Sequence[int]], edges, t: int) -> bool:
    """True iff every edge (u, v) has d(u,v) <= t in ``adj``: one BFS per edge."""
    stamp = [0] * len(adj)
    return all(
        within_hops(adj, u, v, t, stamp, tick)
        for tick, (u, v) in enumerate(edges, start=1)
    )


def _spans_by_balls(adj: Sequence[Sequence[int]], edges, t: int) -> bool:
    """``_spans_by_hops``'s verdict from precomputed balls, one AND per edge.

    Bit w of ``ball_r[x]`` is set iff d(x,w) <= r: ``ball_0[x]`` is ``1 << x``
    and ``ball_r[x]`` ORs ``ball_{r-1}`` over x and its neighbours (each
    round builds a new list, so a round grows every ball by exactly one).
    With ``big`` the round-ceil(t/2) masks and ``small`` the round-floor(t/2)
    masks, d(u,v) <= t iff ``big[u] & small[v]`` is non-zero:

    - if bit w is set in both, d(u,v) <= d(u,w) + d(w,v)
      <= ceil(t/2) + floor(t/2) = t;
    - if d(u,v) <= t, the vertex w at distance min(d(u,v), ceil(t/2)) from u
      on a shortest u-v path has d(w,v) = d(u,v) - d(u,w) <= floor(t/2)
      (it is v itself when d(u,v) <= ceil(t/2)).

    For t <= 0 no round runs and both masks are ``1 << x``, so an edge
    (u != v) is never spanned, as with ``within_hops``.
    """
    ball = [1 << x for x in range(len(adj))]
    small = ball
    half = t // 2
    for r in range(1, t - half + 1):
        ball = [reduce(or_, map(ball.__getitem__, nbrs), b) for b, nbrs in zip(ball, adj)]
        if r == half:
            small = ball
    return all(ball[u] & small[v] for u, v in edges)


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
