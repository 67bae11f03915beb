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
budget?  Weighted graphs ask ``graph_core.within_length``, a Dijkstra that
grows one search from u and one from v until they meet within the budget or
their heap tops add up to more than it.

Unit-length graphs ask ``_unspanned``, which caches one hop ball per source
vertex.  A ``Graph`` keeps its edges sorted by (u, v) with u < v, so the
edges (u, .) come in one run, and during that run H changes only by edges
at u.  With a = ceil(t/2) and b = floor(t/2), d(u,v) <= t iff ball_a(u) and
ball_b(v) meet (``_spans_by_balls`` proves it).  So ball_a(u) is marked once,
when u's run starts, and each edge (u, v) grows only v's ball of radius b,
stopping at the first marked vertex.  When an edge is kept, u's ball gains
exactly v's layers 0..a-1 of the H before the edge: a path of length <= a
from u that uses the new edge starts with it (a later use would revisit u),
and one that avoids it was in the ball already.  The search has built those
layers, since a-1 <= b, so the ball stays exact at no extra cost.  The
stretch check asks all its questions of one fixed H, so on unit graphs of at
most ``_BALL_MASK_MAX_N`` vertices it precomputes every ball as a bitmask and
answers each edge with one AND (``_spans_by_balls``); larger unit graphs run
``_unspanned`` on a copy of H's adjacency and stop at the first edge it
yields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Sequence

from .graph_core import Graph, INFINITY, within_length

__all__ = [
    "Spanner",
    "greedy_spanner",
    "upper_bound_exponent",
    "verify_stretch",
]

# The ball tables take about n*n/4 bytes and n*n time to build, while the
# ball-caching scan stops at the first meeting.  On sparse graphs (m = 3n,
# t = 3) a per-edge BFS broke even with the masks near this size (at n = 8000
# the masks took 0.055 s against 0.019 s, CPython 3.11); on 96 graphs of the
# greedy sweep (n <= 500) the masks took 0.07-0.09 s against 0.14-0.28 s for
# the scan at t = 3, 5, 7.
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
    spanner has no path within t*w.  On unit lengths the edges are scanned
    in ``g.edges`` order, one run per smaller endpoint u, by ``_unspanned``:
    it marks u's ball of radius ceil(t/2) once per run, asks each edge
    (u, v) whether v's ball of radius floor(t/2) meets it, and on a kept
    edge adds v's layers 0..ceil(t/2)-1 to u's ball (see the module
    docstring).  Weighted edges ask ``within_length`` with cap t*w.  A
    stretch that is not an ``int`` at least 1 raises ``ValueError``.
    """
    _check_stretch(t)
    if t < 1:
        raise ValueError(f"stretch must be a positive integer, got {t}")
    adj: list[list[int]] = [[] for _ in range(g.n)]
    lengths = g.lengths
    if lengths is None:
        # a Graph keeps its edges sorted by (u, v), the unit-length order
        kept = list(_unspanned(adj, g.edges, t))
    else:
        kept = []
        for u, v in sorted(g.edges, key=lambda e: (lengths[e], e)):
            if not within_length(adj, lengths, u, v, t * lengths[(u, v)]):
                kept.append((u, v))
                adj[u].append(v)
                adj[v].append(u)
    return Spanner(base=g, kept_edges=tuple(kept), t=t)


def _check_stretch(t) -> None:
    """Refuse a stretch that is not an ``int`` (a bool, float or Fraction)."""
    if isinstance(t, bool) or not isinstance(t, int):
        raise ValueError(f"stretch must be a positive integer, got {t!r}")


def verify_stretch(g: Graph, h: Spanner | Graph, t: int) -> bool:
    """True iff ``h`` spans every edge of ``g`` within ``t`` times its length,
    which bounds the stretch of every pair by ``t`` (see the module
    docstring; the test suite re-validates it against an all-pairs check).

    ``h`` must be a subgraph of ``g``: the same vertex count, only edges of
    ``g``, and ``g``'s lengths on them (none on a unit ``g``).  Anything else
    raises ``ValueError``, and so does a ``t`` that is not an ``int``; an
    ``int`` t <= 0 spans no edge.
    """
    _check_stretch(t)
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
        if hg.n <= _BALL_MASK_MAX_N:
            return _spans_by_balls(adj, g.edges, t)
        # H is fixed until the first unspanned edge, where the scan stops
        return next(_unspanned(list(map(list, adj)), g.edges, t), None) is None
    return all(within_length(adj, lengths, u, v, t * w) for (u, v), w in lengths.items())


def _unspanned(adj: list[list[int]], edges, t: int) -> Iterator[tuple[int, int]]:
    """Yield each edge (u, v) of ``edges`` with d(u,v) > t hops in ``adj``,
    and add it to ``adj`` before resuming.

    ``edges`` must come in runs of one u, one run per u (sorted
    ``Graph.edges`` do), and ``adj`` may change between yields only by this
    scan's own additions.  ``stamp[x] == u + 1`` marks
    x in ball_a(u), a = ceil(t/2), exact at every edge of u's run: marked
    when the run starts and grown by v's layers 0..a-1 on each yield.  Each
    edge searches v's ball of radius b = floor(t/2), stamping the vertices it
    has reached with minus the edge's tick, and stops at a marked vertex.
    Marks are per run, so a stale mark of an earlier u never equals u + 1,
    and the ticks are negative, so they never equal any mark.  For t <= 0
    no ball grows and every edge (u != v) is yielded, as ``within_hops``
    would find it unspanned.
    """
    a, b = (t + 1) // 2, t // 2
    stamp = [0] * len(adj)
    src = here = -1
    for tick, (u, v) in enumerate(edges, start=1):
        if u != src:
            src, here = u, u + 1
            stamp[u] = here
            frontier = [u]
            for _ in range(a):
                nxt = []
                for x in frontier:
                    for y in adj[x]:
                        if stamp[y] != here:
                            stamp[y] = here
                            nxt.append(y)
                frontier = nxt
        if stamp[v] == here:
            continue
        seen = -tick
        stamp[v] = seen
        near = [v]  # v's layers 0..a-1
        frontier = [v]
        spanned = False
        for r in range(1, b + 1):
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    mark = stamp[y]
                    if mark == here:
                        spanned = True
                        break
                    if mark != seen:
                        stamp[y] = seen
                        nxt.append(y)
                if spanned:
                    break
            if spanned or not nxt:
                break
            if r < a:
                near += nxt
            frontier = nxt
        if spanned:
            continue
        yield u, v
        adj[u].append(v)
        adj[v].append(u)
        if a > 0:
            for x in near:
                stamp[x] = here


def _spans_by_balls(adj: Sequence[Sequence[int]], edges, t: int) -> bool:
    """True iff every edge (u, v) has d(u,v) <= t in ``adj``, one AND per edge.

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
    (u != v) is never spanned, as with ``_unspanned``.
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
