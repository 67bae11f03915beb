"""Immutable undirected graphs, hop-layer profiles, girth, and lp degree norms.

Vertices are dense integer ids ``0..n-1``.  Edges are unordered pairs with
optional finite, strictly positive lengths; a graph without lengths is
treated as unit-length.  Hop layers always ignore edge lengths, even on
weighted graphs; only ``within_length`` reads them.

Shared kernels take plain adjacency lists or degree multisets:
``hop_layers`` (the one truncated multi-source BFS, read by
``layer_profile``), ``within_hops`` and ``within_length`` (bounded hop and
weighted distance tests), ``short_cycle`` (the one cycle search, where each
root searches only the vertices at or above it: its first hit in root order
is what the lift repair swaps away, and its verdict is what ``girth`` and
``girth_at_least`` read) and ``degree_norm`` (the one lp norm of degrees).
"""

from __future__ import annotations

import heapq
import math
from itertools import islice, repeat
from operator import eq, index, itemgetter, lt, mul
from typing import Iterable, Mapping, Sequence

from ._record import Frozen

__all__ = [
    "Graph",
    "GraphError",
    "INFINITY",
    "LayerProfile",
    "UNBOUNDED",
    "degree_norm",
    "girth",
    "girth_at_least",
    "hop_layers",
    "layer_profile",
    "lp_norm",
    "parse_edge_list",
    "format_edge_list",
    "write_edge_list",
    "short_cycle",
    "subset_norm",
    "within_hops",
    "within_length",
]

# Relative tolerance for comparisons between weighted (float) distances.
LENGTH_RTOL = 1e-12

# Girth of a forest.  Compares naturally against any finite cycle length.
UNBOUNDED = math.inf


class GraphError(ValueError):
    """Raised for malformed graphs or out-of-range vertex ids."""


class _Infinity:
    """Distinguished lp-norm parameter for the max-degree norm."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _Infinity()


class Graph:
    """Immutable undirected graph on vertex ids ``0..n-1``.

    No self-loops, no parallel edges.  ``lengths`` maps each edge to a
    finite, strictly positive length; ``None`` means unit lengths throughout.

    Construction refuses with ``GraphError``: an ``n`` that is not an ``int``
    (a bool included) or is negative; an edge that is not a pair; a vertex
    id that fails ``operator.index`` or lies outside ``0..n-1``; a
    self-loop; a parallel edge; and a length that is missing, on a non-edge,
    or not finite and > 0.  An edge refusal names the first bad edge in
    input order.  Edges are stored sorted, each as ``(u, v)`` with u < v.
    Canonical input (such tuples only) is checked in C-level passes; the
    per-edge loop runs only to name the edge that those passes refuse.

    The set of edges that construction validates is kept (``subgraph`` and
    the stretch check's subgraph test read it).  Adjacency lists and degrees
    are built on the first call to ``adjacency``, ``neighbors``, ``degrees``
    or ``degree`` and kept; the greedy and the stretch check never read the
    input graph's, so they never build them.  Threads that race on a first
    read each build equal tuples.

    A graph also carries what :func:`girth_at_least` and :func:`girth` have
    proven about its girth: a floor (3 at first, true of every simple graph)
    and a ceiling (``UNBOUNDED`` at first).  Nothing changes a graph's edges after
    construction, so a bound proven once holds for the graph's life.
    """

    __slots__ = ("n", "edges", "lengths", "_edge_set", "_adj", "_degrees",
                 "_girth_floor", "_girth_ceiling")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        lengths: Mapping[tuple[int, int], float] | None = None,
    ) -> None:
        if isinstance(n, bool) or not isinstance(n, int):
            raise GraphError(f"vertex count must be an integer, got {n!r}")
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        given = list(edges)
        try:
            canon = _canonical(given)
            seen = set(canon)
            # with every u < v (or u <= v once canonicalized), the least id
            # is a first and the largest a second
            ok = (len(seen) == len(canon)
                  and (canon is given or not any(map(eq, map(_first, canon), map(_second, canon))))
                  and (not canon or min(map(index, map(_first, canon))) >= 0
                       and max(map(index, map(_second, canon))) < n))
        except (TypeError, ValueError):
            ok = False
        if not ok:
            _refuse_edges(n, given)
        canon.sort()
        self.n = n
        self.edges = tuple(canon)
        self._edge_set = seen
        self.lengths = None if lengths is None else _valid_lengths(lengths, seen)
        self._adj = self._degrees = None
        self._girth_floor = 3
        self._girth_ceiling = UNBOUNDED

    # -- basic accessors ------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def weighted(self) -> bool:
        return self.lengths is not None

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency()[v]

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Ascending neighbour tuples indexed by vertex id (built on first read)."""
        adj = self._adj
        if adj is None:
            lists: list[list[int]] = [[] for _ in range(self.n)]
            for u, v in self.edges:
                lists[u].append(v)
                lists[v].append(u)
            adj = tuple(map(tuple, lists))
            self._degrees = tuple(map(len, adj))
            self._adj = adj
        return adj

    def degree(self, v: int) -> int:
        return self.degrees()[v]

    def degrees(self) -> tuple[int, ...]:
        """Degree vector indexed by vertex id (sum is always even)."""
        if self._degrees is None:
            self.adjacency()
        return self._degrees

    def edge_length(self, u: int, v: int) -> float:
        e = (u, v) if u < v else (v, u)
        if self.lengths is None:
            return 1.0
        return self.lengths[e]

    def subgraph(self, keep_edges: Iterable[tuple[int, int]]) -> "Graph":
        """Graph on the same vertex set containing only ``keep_edges``."""
        kept = _canonical(list(keep_edges))
        own = self._edge_set
        if not own.issuperset(kept):
            e = next(e for e in kept if e not in own)
            raise GraphError(f"{e} is not an edge of the base graph")
        if self.lengths is None:
            return Graph(self.n, kept)
        return Graph(self.n, kept, dict(zip(kept, map(self.lengths.__getitem__, kept))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.edges == other.edges
            and self.lengths == other.lengths
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        kind = "weighted" if self.weighted else "unit"
        return f"Graph(n={self.n}, m={self.m}, {kind})"


_first, _second = itemgetter(0), itemgetter(1)
_PAIR = frozenset((2,))


def _canonical(edges: list) -> list:
    """``edges`` itself when every edge is a tuple ``(u, v)`` with u < v,
    which three C-level passes test; otherwise a new list of ``(min, max)``
    tuples.  An edge that is not a pair, or whose ends do not compare,
    raises ``ValueError`` or ``TypeError``."""
    if (all(map(isinstance, edges, repeat(tuple)))
            and _PAIR.issuperset(map(len, edges))
            and all(map(lt, map(_first, edges), map(_second, edges)))):
        return edges
    return [(u, v) if u < v else (v, u) for u, v in edges]


def _refuse_edges(n: int, edges: list) -> None:
    """Raise ``GraphError`` for the first edge of ``edges``, in input order,
    that is not a pair of integer ids, lies out of range for ``n``, is a
    self-loop or repeats an earlier edge.  ``Graph`` calls it only once its
    bulk passes have refused ``edges``."""
    seen = set()
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise GraphError(f"edge {e!r} is not a pair of vertex ids") from None
        try:
            iu, iv = index(u), index(v)
        except TypeError:
            raise GraphError(f"edge ({u!r},{v!r}) has a vertex id that is not "
                             f"an integer") from None
        if not (0 <= iu < n and 0 <= iv < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        if iu == iv:
            raise GraphError(f"self-loop at vertex {u}")
        e = (iu, iv) if iu < iv else (iv, iu)
        if e in seen:
            raise GraphError(f"parallel edge {e}")
        seen.add(e)
    raise GraphError("vertex ids must compare and hash as integers")


def _valid_lengths(lengths: Mapping, edge_set: set) -> dict:
    """``lengths`` as a dict from canonical edges to floats, after checking
    that every key is an edge of ``edge_set`` in either orientation, every
    value finite and > 0, and every edge given a length.  A key given in
    both orientations keeps its later value.

    Canonical keys are tested in one ``issuperset`` and the values in
    C-level passes; only when these refuse does the per-entry loop run, to
    raise ``GraphError`` for the first bad entry in input order."""
    keys, ws = list(lengths), list(lengths.values())
    try:
        if not edge_set.issuperset(keys):
            keys = [(u, v) if u < v else (v, u) for u, v in keys]
        ok = (edge_set.issuperset(keys) and all(map(math.isfinite, ws))
              and (not ws or min(ws) > 0))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if ok:
        norm_len = dict(zip(keys, map(float, ws)))
    else:
        norm_len = {}
        for (u, v), w in lengths.items():
            e = (u, v) if u < v else (v, u)
            if e not in edge_set:
                raise GraphError(f"length given for non-edge {e}")
            if not (math.isfinite(w) and w > 0):
                raise GraphError(f"length {w} on edge {e} is not finite and > 0")
            norm_len[e] = float(w)
    if len(norm_len) != len(edge_set):
        raise GraphError(f"missing lengths for {len(edge_set) - len(norm_len)} edges")
    return norm_len


class LayerProfile(Frozen):
    """Hop-layer sizes ``d_0(v), d_1(v), ..., d_r(v)`` around ``source``."""

    __slots__ = ("source", "counts")

    def __init__(self, source: int, counts: tuple[int, ...]) -> None:
        if not counts or counts[0] != 1:
            raise GraphError("layer profile must start with d_0 = 1")
        self._fill(source=source, counts=counts)

    def _key(self) -> tuple:
        return (self.source, self.counts)

    def d(self, i: int) -> int:
        """Number of vertices exactly ``i`` hops away (0 beyond the radius)."""
        return self.counts[i] if i < len(self.counts) else 0


# -- norms --------------------------------------------------------------


def _check_p(p) -> None:
    # a bool is an int to Python but not a norm parameter, and a str or
    # None does not compare with 1
    if p is INFINITY:
        return
    try:
        ok = not isinstance(p, bool) and 1 <= p < math.inf
    except TypeError:
        ok = False
    if not ok:
        raise GraphError(f"norm parameter p must be a finite number >= 1 or INFINITY, "
                         f"got {p!r}")


def degree_norm(degrees: Iterable[int], p, counts: Iterable[int] | None = None) -> float:
    """lp norm of a degree multiset; 0.0 when every degree is 0.

    Degree ``degrees[i]`` is taken ``counts[i]`` times, or once when
    ``counts`` is None (a per-vertex degree list).  A histogram passes its
    ``keys()`` and ``values()``.  ``p`` is a real >= 1 (callers check it) or
    ``INFINITY``: the largest degree with a non-zero count.  The sum is
    ``math.fsum`` of ``count * float(d) ** float(p)``; for an integer ``p``
    and ``d**p`` above 2**53 a term is rounded by ``pow``, not exactly.
    Only when that sum leaves the float range is it taken scaled by the
    largest degree, ``dmax * (sum count * (d/dmax)**p) ** (1/p)``, which
    reads ``degrees`` and ``counts`` a second time.
    """
    if p is INFINITY:
        if counts is not None:
            degrees = [d for d, c in zip(degrees, counts) if c]
        return float(max(degrees, default=0))
    fp = float(p)
    powers = map(pow, map(float, degrees), repeat(fp))
    try:
        total = math.fsum(powers if counts is None else map(mul, counts, powers))
    except OverflowError:
        total = math.inf
    if total < math.inf:
        return total ** (1.0 / fp) if total else 0.0
    dmax = degree_norm(degrees, INFINITY, counts)
    pairs = zip(degrees, repeat(1) if counts is None else counts)
    total = math.fsum(c * (float(d) / dmax) ** fp for d, c in pairs if c)
    return dmax * total ** (1.0 / fp)


def lp_norm(g: Graph, p) -> float:
    """lp norm of the degree vector of ``g``; 0 for an edgeless graph.

    ``p`` is a real >= 1 or the distinguished ``INFINITY`` (max degree).
    ``lp_norm(g, 1)`` equals exactly twice the edge count.
    """
    _check_p(p)
    return degree_norm(g.degrees(), p)


def subset_norm(g: Graph, s: Iterable[int], p) -> float:
    """lp norm of the degree subvector of the vertices in ``s``.

    Degrees are taken in ``g`` itself, not in the induced subgraph.
    """
    _check_p(p)
    vs = list(s)
    for v in vs:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range for n={g.n}")
    return degree_norm([g.degree(v) for v in vs], p)


# -- hop layers and distances --------------------------------------------


def hop_layers(adj: Sequence[Sequence[int]], sources: Iterable[int], r: int) -> list[list[int]]:
    """The hop layers 0..r around ``sources`` in ``adj``: exactly ``r + 1`` lists.

    Layer 0 holds the distinct sources, layer d the vertices first met at d
    hops from the nearest source; layers past the sources' components are
    empty.  Callers check that ``r >= 0`` and that the sources are vertex ids.
    """
    seen = bytearray(len(adj))
    frontier = []
    for s in sources:
        if not seen[s]:
            seen[s] = 1
            frontier.append(s)
    layers = [frontier]
    for _ in range(r):
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = 1
                    nxt.append(y)
        layers.append(nxt)
        frontier = nxt
    return layers


def layer_profile(g: Graph, v: int, r: int) -> LayerProfile:
    """BFS layer sizes around ``v`` by hop count, truncated at radius ``r``.

    Edge lengths are ignored here by definition.  ``r`` must be an ``int``;
    a bool, float or other type raises ``GraphError``.
    """
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range for n={g.n}")
    if isinstance(r, bool) or not isinstance(r, int):
        raise GraphError(f"radius r must be an integer, got {r!r}")
    if r < 0:
        raise GraphError(f"radius must be non-negative, got {r}")
    counts = tuple(map(len, hop_layers(g.adjacency(), (v,), r)))
    return LayerProfile(source=v, counts=counts)


def within_hops(
    adj: Sequence[Sequence[int]],
    u: int,
    v: int,
    cap: int,
    stamp: list[int] | None = None,
    tick: int = 1,
) -> bool:
    """True iff the hop distance from ``u`` to ``v`` in ``adj`` is <= ``cap``.

    Bidirectional bounded BFS: each step grows the smaller frontier by one
    layer, until the two radii add up to ``cap``.  ``adj`` is raw adjacency,
    so the greedy can query its evolving spanner.  A caller issuing many
    queries allocates ``stamp`` (``len(adj)`` zeros) once and passes a new
    positive ``tick`` per query; the two sides mark ``tick`` and ``-tick``.
    """
    if u == v:
        return cap >= 0
    if cap < 1 or not adj[u] or not adj[v]:
        return False
    if stamp is None:
        stamp = [0] * len(adj)
    near, far = tick, -tick
    stamp[u] = near
    stamp[v] = far
    frontier, other = [u], [v]
    for _ in range(cap):
        if len(frontier) > len(other):
            frontier, other = other, frontier
            near, far = far, near
        nxt = []
        for x in frontier:
            for y in adj[x]:
                mark = stamp[y]
                if mark == far:
                    return True
                if mark != near:
                    stamp[y] = near
                    nxt.append(y)
        if not nxt:
            return False
        frontier = nxt
    return False


def within_length(
    adj: Sequence[Sequence[int]],
    lengths: Mapping[tuple[int, int], float],
    u: int,
    v: int,
    cap: float,
) -> bool:
    """True iff the distance from ``u`` to ``v`` in ``adj`` under ``lengths``
    is <= ``cap``, up to the relative tolerance ``LENGTH_RTOL``.

    The weighted twin of :func:`within_hops`: a bidirectional bounded
    Dijkstra.  One search grows from ``u`` and one from ``v``, each with its
    own heap and labels, and each step pops the side with the smaller heap.
    No label above the bound is ever set, and an end with no edge answers
    False before any heap is made (the weighted greedy asks that often: its
    spanner starts empty).

    - Meeting rule: relaxing x-y to a new label ``nd`` returns True as soon
      as y has a label on the other side and ``nd + other[y] <= bound``;
      both labels are lengths of real paths, so the verdict is sound, also
      at an infinite cap, which spans exactly the vertices u reaches.
    - Stop rule: False once either heap is empty, or once the two heap tops
      add up to more than the bound.

    Why the stop is safe: let P be a shortest u-v path of length D <= bound,
    and x the first vertex on P that the search from u has not settled
    (there is one: a label on v would have met v's own label 0).  x holds
    its label d(u,x), so the forward top is at most d(u,x).  If the search
    from v had settled x, the two labels of x would have met.  So some
    vertex between x and v on P is unsettled from v and holds its label,
    which bounds the backward top by d(x,v); both heaps are non-empty and
    the tops add up to at most D.  On exact sums the verdict is therefore
    the one-directional search's.  On non-dyadic floats the meeting sum
    ``(d_f + w) + d_b`` can differ from the left-to-right sum of the same
    path only in its last bits, far inside ``LENGTH_RTOL``.
    """
    bound = cap * (1.0 + LENGTH_RTOL)
    if u == v:
        return bound >= 0
    if not adj[u] or not adj[v]:
        return False  # an end with no edge reaches nothing, at any cap
    pop, push, inf = heapq.heappop, heapq.heappush, math.inf
    near, far = {u: 0.0}, {v: 0.0}
    heap, other = [(0.0, u)], [(0.0, v)]
    while heap and other:
        if len(heap) > len(other):
            heap, other, near, far = other, heap, far, near
        if heap[0][0] + other[0][0] > bound:
            return False
        dx, x = pop(heap)
        if dx > near[x]:
            continue
        for y in adj[x]:
            nd = dx + lengths[(x, y) if x < y else (y, x)]
            if nd <= bound and nd < near.get(y, inf):
                if y in far and nd + far[y] <= bound:
                    return True
                near[y] = nd
                push(heap, (nd, y))
    return False


# -- girth ----------------------------------------------------------------


def short_cycle(adj: Sequence[Sequence[int]], limit: int,
                roots: Iterable[int] | None = None) -> tuple[int, int, int, int] | None:
    """``(length, x, y, root)``: the first non-tree edge closing a walk of at
    most ``limit`` edges, and the root whose search met it; or None.

    Truncated BFS from every root in id order (or from ``roots``, which must
    be increasing), one level at a time.  Root s skips every neighbour below
    s, so it searches G[>= s], the subgraph on the vertices s..n-1.

    A non-tree edge (x,y) closes the walk root->x, x-y, y->root of
    dist[x]+dist[y]+1 edges, which contains a cycle no longer than itself.
    Conversely, let C be a shortest cycle, of length L <= ``limit``, and r
    its smallest vertex.  C lies in G[>= r], which has no shorter cycle, so
    unless an earlier root hits, r's search meets C's far edge with a walk
    of exactly L edges, while scanning only levels d with 2d+1 <= L.  So a hit proves a cycle of at
    most ``length`` edges, and None from every root at ``limit`` proves
    there is no cycle of length <= ``limit``.  ``adj`` must be simple: a
    parallel edge (a 2-cycle) is not seen.

    Locality: whether root s hits depends only on the edges of G[>= s] with
    an endpoint within ``deepest = (limit-1)//2`` hops of s in G[>= s], not
    on the order of the adjacency lists.  Levels are hop distances.  The
    search scans every edge at a vertex of level d <= deepest; an edge
    inside level d closes 2d+1 <= limit edges and is never a tree edge.  A
    vertex at level d+1 has exactly one tree edge, whichever parent it gets,
    so it offers a non-tree edge of length 2(d+1) iff it has two or more
    neighbours at level d.  So s hits iff its ball holds an edge inside a
    level d <= deepest, or a vertex at a level d+1 with 2(d+1) <= limit and
    two neighbours one level down; only which hit ``(length, x, y)`` comes
    first depends on the order.  That ball lies inside s's ball in G.  A
    caller that edits the graph may therefore skip a root that was clean
    and lies farther than ``deepest`` hops, in the edited graph, from every
    endpoint of an edited edge: no edge at its ball changed.

    Same first hit: when every root below r is clean, r's search of G[>= r]
    returns the hit, or None, that its search of G would return.

    - A clean root m leaves every closed walk through m in G[>= m] of at
      most ``limit`` edges on its BFS tree.  An edge (a,b) of such a walk
      has level(a) + level(b) <= limit - 1, so the search scans it from an
      end at a level <= deepest, and were (a,b) a non-tree edge, that scan
      would close level(a) + level(b) + 1 <= ``limit`` edges: a hit.  So the edges
      of a closed walk in G of at most ``limit`` edges whose smallest
      vertex m lies below r hold no cycle, for the walk runs in G[>= m]
      through m, and m is clean.
    - Run r's search of G, and call a stamped vertex low if its tree path
      from r visits a vertex below r.  A hit on a low vertex would be such
      a walk with a cycle in it: the non-tree edge and its two tree paths.
      So scanning a low vertex stamps only low vertices and hits nothing.
      An edge from a vertex that is not low to a low vertex at or above r
      is a non-tree edge of at most 2*deepest + 2 edges; it is no hit only
      at an odd ``limit`` with the low end at level deepest + 1, which no
      check can make a hit and no level scans.  So the vertices that are
      not low are the ones G[>= r] stamps, at the same levels, with the
      same parents and in the same order, bar those at level deepest + 1
      at an odd ``limit``, and the two searches meet the same first hit.

    A scan of every root meets its roots in this order, for each root
    before the first hit is clean; so its first hit is also that of the
    search of G from every root.  ``extremal.random_bipartite_lift`` skips
    only roots below its last hit that were clean then and, by locality,
    still are.  A root searched on its own does not see cycles through
    smaller vertices; no caller in the package does that.
    """
    n = len(adj)
    dist = [0] * n
    parent = [-1] * n
    stamp = [0] * n
    deepest = (limit - 1) // 2  # deepest level whose edges are scanned
    for s in range(n) if roots is None else roots:
        tick = s + 1
        stamp[s] = tick
        dist[s] = 0
        parent[s] = -1
        frontier = [s]
        depth = 0
        while frontier and depth <= deepest:
            depth += 1
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y < s:
                        continue  # root s searches G[>= s]
                    if stamp[y] != tick:
                        stamp[y] = tick
                        dist[y] = depth
                        parent[y] = x
                        nxt.append(y)
                    elif parent[x] != y and parent[y] != x:
                        length = dist[x] + dist[y] + 1
                        if length <= limit:
                            return length, x, y, s
            frontier = nxt
    return None


def girth(g: Graph):
    """Length (edge count) of a shortest cycle; ``UNBOUNDED`` for forests.

    Starts from the girth ceiling ``g`` carries (see :func:`girth_at_least`),
    or from any cycle witness, and asks :func:`short_cycle` for a shorter
    cycle until there is none or the length reaches the floor.  The answer
    is kept on ``g`` as both floor and ceiling, so a later ``girth`` or
    ``girth_at_least`` on ``g`` scans nothing.  No scan at limit n proves a
    forest: a cycle has at most n edges.
    """
    adj = g.adjacency()
    best = g._girth_ceiling
    while best > g._girth_floor:
        hit = short_cycle(adj, g.n if best == UNBOUNDED else best - 1)
        if hit is None:
            g._girth_floor = best
            break
        best = g._girth_ceiling = hit[0]
    return best


def girth_at_least(g: Graph, k: int) -> bool:
    """True iff ``g`` has no cycle shorter than ``k`` edges.

    ``k`` must be an ``int``; a bool, float, ``Fraction`` or str raises
    ``ValueError``.

    The verdict is read off the girth floor and ceiling ``g`` carries when
    they settle it (``k`` at most the floor, or above the ceiling).
    Otherwise one :func:`short_cycle` scan at limit ``k - 1`` decides, and
    its proof is kept on ``g``: no hit proves the girth is at least ``k``,
    the new floor; a hit of length L closes a walk of L edges that holds a
    cycle, so it proves the girth is at most L, the new ceiling.  Each
    scan raises the floor or lowers the ceiling, and a ``Graph``'s edges
    never change, so every later verdict is the one a fresh scan would
    give.  Each value written is a proven bound, so threads that race on
    one graph can lose a bound but never record a false one.
    """
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError(f"girth bound must be an integer, got {k!r}")
    if k <= g._girth_floor:
        return True
    if k > g._girth_ceiling:
        return False
    hit = short_cycle(g.adjacency(), k - 1)
    if hit is None:
        g._girth_floor = k
        return True
    g._girth_ceiling = hit[0]
    return False


# -- edge-list interchange format ----------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the interchange format: header ``n m`` then ``u v [w]`` lines.

    Comment lines start with ``#``.  A weight on any edge requires weights
    on all edges.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty edge-list input")
    head = lines[0].split()
    try:
        n, m = map(int, head)
    except ValueError:
        raise GraphError(f"expected header 'n m' of two integers, got {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise GraphError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    lengths: dict[tuple[int, int], float] = {}
    any_weight = False
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) not in (2, 3):
            raise GraphError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else None
        except ValueError:
            raise GraphError(f"bad edge line {ln!r}: 'u v [w]' must be numbers") from None
        e = (u, v) if u < v else (v, u)
        edges.append(e)
        if w is not None:
            any_weight = True
            lengths[e] = w
    if any_weight:
        if len(lengths) != len(edges):
            raise GraphError("mixed weighted and unweighted edge lines")
        return Graph(n, edges, lengths)
    return Graph(n, edges)


def _edge_lines(edges, lengths=None) -> list[str]:
    """The interchange format's ``u v [w]`` lines, without newlines."""
    if lengths is None:
        return [f"{u} {v}" for u, v in edges]
    return [f"{u} {v} {lengths[(u, v)]:.12g}" for u, v in edges]


def format_edge_list(g: Graph) -> str:
    """Inverse of :func:`parse_edge_list`; deterministic edge order.

    Lengths are written with 12 significant digits (``%.12g``): the text
    parses back to a graph that formats to the same text, and parses back
    to ``g`` itself when every length has at most 12 significant digits.
    """
    return "\n".join([f"{g.n} {g.m}", *_edge_lines(g.edges, g.lengths)]) + "\n"


def write_edge_list(path, n: int, m: int, edges: Iterable[tuple[int, int]]) -> None:
    """Stream :func:`format_edge_list`'s text of a unit graph to ``path``, a
    chunk at a time.  Unchecked: ``edges`` must be the graph's ``m`` edges,
    each (u, v) with u < v, in sorted order."""
    edges = iter(edges)
    with open(path, "w") as out:
        out.write(f"{n} {m}\n")
        while chunk := _edge_lines(islice(edges, 1 << 16)):
            out.write("\n".join(chunk) + "\n")
