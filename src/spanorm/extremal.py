"""Extremal instance generators: layered minimal spanners, tightness families,
named high-girth graphs, and girth-filtered random bipartite graphs.

Layered instances realize the lower-bound LP's optimal solutions as concrete
graphs.  The spanner is a layered graph whose sections are deterministic:
star contractions on the left, a digit grid (unique C-hop paths) in the
center, star expansions on the right, and a slice junction when a skew
degree is present.  The host adds the complete bipartite graph between the
outer layers; every host edge is then spanned in exactly t hops.

Instances above a materialization budget stay *virtual*: layer sizes plus
the deterministic edge rules.  Degree multisets (hence norms) are computed
exactly from the rules, and the stretch verdict is decided for every host
pair from the rule parameters alone, so the measured exponents and the
verification of a 10^7-vertex instance cost no memory.  Edges are listed by
one stream, ``LayeredInstance.edges``, walked from the rules in sorted
order: it feeds ``spanner()``, ``host_graph()`` and the files of
``spanorm gen``, which stores none of them.  The host is built or written
iff it has at most ``HOST_EDGE_BUDGET`` (2,000,000) edges.
"""

from __future__ import annotations

import math
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import accumulate, repeat
from typing import TYPE_CHECKING, NamedTuple

from ._record import Record
from .graph_core import (Graph, degree_norm, girth, girth_at_least, hop_layers,
                         lp_norm, short_cycle, within_hops)
from .greedy import verify_stretch

if TYPE_CHECKING:
    from .lb_lp import LcrParams

__all__ = [
    "LayeredInstance",
    "build_from_lp",
    "build_lcr",
    "build_skewed",
    "build_tightness",
    "named_girth_graph",
    "random_bipartite_lift",
]

SPANNER_EDGE_BUDGET = 300_000
HOST_EDGE_BUDGET = 2_000_000


# -- named graphs ------------------------------------------------------------


def _lcf_graph(n: int, pattern: list[int], repeats: int) -> Graph:
    """Cubic graph from LCF notation: an n-cycle plus the listed chords."""
    assert len(pattern) * repeats == n
    edges = {(i, (i + 1) % n) for i in range(n)}
    for i in range(n):
        j = (i + pattern[i % len(pattern)]) % n
        edges.add((min(i, j), max(i, j)))
    return Graph(n, sorted((min(u, v), max(u, v)) for u, v in edges))


def _gf_mul(q: int, a: int, b: int) -> int:
    if q in (2, 3, 5):
        return (a * b) % q
    if q == 4:
        # GF(4) as GF(2)[x]/(x^2+x+1); elements are 2-bit masks
        result = 0
        aa, bb = a, b
        while bb:
            if bb & 1:
                result ^= aa
            bb >>= 1
            aa <<= 1
            if aa & 4:
                aa ^= 0b111
        return result
    raise ValueError(f"unsupported field order {q}")


def _gf_add(q: int, a: int, b: int) -> int:
    if q in (2, 3, 5):
        return (a + b) % q
    return a ^ b  # q = 4


def _projective_points(q: int) -> list[tuple[int, int, int]]:
    pts = [(1, a, b) for a in range(q) for b in range(q)]
    pts += [(0, 1, a) for a in range(q)]
    pts.append((0, 0, 1))
    return pts


def projective_plane_incidence(q: int) -> Graph:
    """Point-line incidence graph of PG(2, q): bipartite, (q+1)-regular, girth 6.

    ``named_girth_graph`` verifies the degree and the girth of each build.
    """
    if q not in (2, 3, 4, 5):
        raise ValueError(f"projective plane order {q} not implemented")
    pts = _projective_points(q)
    npts = len(pts)
    edges = []
    for li, line in enumerate(pts):
        for pi, pt in enumerate(pts):
            s = 0
            for a, b in zip(line, pt):
                s = _gf_add(q, s, _gf_mul(q, a, b))
            if s == 0:
                edges.append((pi, npts + li))
    return Graph(2 * npts, edges)


# 19 vertices, 4-regular, girth 5: the unique (4,5)-cage.  Frozen edge list,
# re-verified at construction (uniqueness of the cage pins the isomorphism type).
_ROBERTSON_EDGES = [
    (0, 2), (0, 4), (0, 10), (0, 13), (1, 4), (1, 11), (1, 15), (1, 16),
    (2, 7), (2, 8), (2, 16), (3, 5), (3, 6), (3, 9), (3, 16), (4, 6),
    (4, 14), (5, 8), (5, 13), (5, 17), (6, 7), (6, 18), (7, 15), (7, 17),
    (8, 11), (8, 14), (9, 10), (9, 14), (9, 15), (10, 11), (10, 17),
    (11, 18), (12, 14), (12, 16), (12, 17), (12, 18), (13, 15), (13, 18),
]

_NAMED_SPECS = {
    # name -> (n, degree, girth)
    "petersen": (10, 3, 5),
    "heawood": (14, 3, 6),
    "mcgee": (24, 3, 7),
    "robertson": (19, 4, 5),
    "tutte_coxeter": (30, 3, 8),
    "pg2_2": (14, 3, 6),
    "pg2_3": (26, 4, 6),
    "pg2_4": (42, 5, 6),
    "pg2_5": (62, 6, 6),
}


def named_girth_graph(name: str) -> Graph:
    """One of the documented small high-girth graphs, verified on build."""
    if name not in _NAMED_SPECS:
        raise ValueError(f"unknown named graph {name!r}")
    if name == "petersen":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        g = Graph(10, outer + inner + [(i, 5 + i) for i in range(5)])
    elif name == "heawood":
        g = _lcf_graph(14, [5, -5], 7)
    elif name == "mcgee":
        g = _lcf_graph(24, [12, 7, -7], 8)
    elif name == "tutte_coxeter":
        g = _lcf_graph(30, [-13, -9, 7, -7, 9, 13], 5)
    elif name == "robertson":
        g = Graph(19, _ROBERTSON_EDGES)
    else:
        g = projective_plane_incidence(int(name.split("_")[1]))
    n, degree, girth_value = _NAMED_SPECS[name]
    assert g.n == n, name
    assert all(d == degree for d in g.degrees()), name
    assert girth(g) == girth_value, name
    return g


# -- random regular bipartite graphs with a girth floor ----------------------


def _lift_repair_rounds(side: int, degree: int) -> int:
    """Repair rounds a lift of ``side * degree`` edges may take before it gives up.

    Twenty per edge, at least 1,000 and at most 30,000.  In a count over
    seeds 0-23 of 20 sizes from (4, 3, 4) to (350, 3, 10) (fewer seeds for
    the slowest), a lift that converged needed at most 6.6 rounds per edge
    (526 rounds at (20, 4, 6)), and the lifts the tests and the benchmark
    build need at most 1.4, except at (20, 3, 8): 17 of its seeds converged
    after 1,689 to 19,538 rounds, and each now gives up.  (15, 3, 8),
    (26, 5, 6), (50, 4, 8), (60, 3, 9) and (80, 4, 8) converged at no seed
    tried; (15, 3, 8) now gives up within a second instead of after 20 s.
    """
    return min(30_000, max(1_000, 20 * side * degree))


def random_bipartite_lift(side: int, degree: int, min_girth: int, seed: int) -> Graph:
    """d-regular bipartite graph on 2*side vertices with girth >= min_girth.

    Union of ``degree`` random perfect matchings, then local surgery: while a
    short cycle survives, swap one of its matching edges with another edge of
    the same matching, preferring swap partners that do not create new short
    cycles through the rewired edges.  Deterministic for a fixed seed; raises
    ``RuntimeError`` after ``_lift_repair_rounds(side, degree)`` repair
    rounds (retry with another seed, or a larger side: near the Moore bound
    the random repair often reaches no such graph).
    Sizes no such graph has are refused at once with ``ValueError``:
    ``degree > side``, or ``side`` below the bipartite Moore bound
    ``sum((degree-1)**i for i < g/2)``, g being ``min_girth`` rounded up to
    even: the vertices within g/2 - 1 hops of an edge span a tree, which has
    that many on each side.

    Each round repairs the cycle a full ``short_cycle`` scan from root 0 would
    return first, without rescanning every root.  The first scan is full.
    After a scan hit at root h, the roots below h were clean, each in its
    search of the vertices at or above it, and by the locality rule in
    ``short_cycle`` one stays clean unless it lies within ``(limit-1)//2``
    hops of an endpoint of a net swap made since (the placed swap or the
    random kick; a failed attempt and its undo reorder lists but leave the
    edge set as it was).  So the next scan visits those near roots below h
    in id order, then h, h+1, ..., in the current adjacency order; every
    root it reaches has only clean roots below it, so by ``short_cycle``'s
    same-first-hit rule it meets the first hit of a search of the whole
    graph from root 0.  The final girth check is a full scan.

    Every edge joins a left vertex to a right one, so every cycle is even
    and every left-right path has odd length.  With ``min_girth`` = 2D + 2
    the search limit is 2D, not 2D + 1, with the same first hit.  A BFS
    from any root gives adjacent vertices levels one apart, so a non-tree
    edge met while scanning a vertex x at level D, which limit 2D + 1 scans
    and 2D does not, either closes 2D + 2 edges, too many, or leads to a
    neighbour y at level D - 1 other than x's parent.  That parent came
    before y in level D - 1, so x was stamped when y was scanned, and that
    scan already met the edge as a hit of 2D edges.  Likewise a path of at
    most 2D edges between the ends of a matching edge has at most 2D - 1,
    and the final check need not look for a cycle of 2D + 1 edges.  That
    check asserts ``girth_at_least(g, min_girth - 1)``, so the graph
    returned carries its proof (unless ``-O`` strips asserts), and a later
    ``girth_at_least`` at a bound up to ``min_girth - 1`` on it scans
    nothing.
    """
    if min_girth % 2 == 1:
        min_girth += 1  # bipartite girth is even
    if degree > side or side < sum((degree - 1) ** i for i in range(min_girth // 2)):
        raise ValueError(
            f"no {degree}-regular bipartite graph of girth >= {min_girth} "
            f"has {side} vertices a side"
        )
    rng = random.Random(seed)
    perms = [rng.sample(range(side), side) for _ in range(degree)]
    adj: list[list[int]] = [[] for _ in range(2 * side)]
    for perm in perms:
        for i, j in enumerate(perm):
            adj[i].append(side + j)
            adj[side + j].append(i)
    limit = min_girth - 2  # longest forbidden cycle; none is odd

    def first_repeat(i: int):
        """The first k whose ``perms[k][i]`` an earlier matching has, or None."""
        seen = set()
        for k in range(degree):
            if perms[k][i] in seen:
                return k
            seen.add(perms[k][i])
        return None

    def swap(k: int, i: int, j: int) -> None:
        pi, pj = perms[k][i], perms[k][j]
        for left, old, new in ((i, pi, pj), (j, pj, pi)):
            adj[left].remove(side + old)
            adj[side + old].remove(left)
            adj[left].append(side + new)
            adj[side + new].append(left)
        perms[k][i], perms[k][j] = pj, pi

    # rows holding a parallel edge; a net swap of rows i and j changes
    # those two rows only (a failed attempt and its undo leave perms as it was)
    repeated = {i for i in range(side) if first_repeat(i) is not None}
    stamp = [0] * (2 * side)
    queries = 0
    deepest = (limit - 1) // 2  # short_cycle's search radius
    hit_root = None  # root of the last scan's hit; None before the first scan
    touched: set[int] = set()  # endpoints of the net swaps since that scan

    def dirty_roots_below(h: int) -> list[int]:
        """Roots below h within ``deepest`` hops of a touched vertex."""
        return sorted(v for layer in hop_layers(adj, touched, deepest) for v in layer if v < h)

    def edge_clean(left: int, right_vertex: int) -> bool:
        """No parallel edge and no other left->right path of < limit edges."""
        nonlocal queries
        target = side + right_vertex
        if adj[left].count(target) > 1:
            return False
        # take the edge out, look for another path, put it back in its slots
        i, j = adj[left].index(target), adj[target].index(left)
        del adj[left][i], adj[target][j]
        queries += 1
        clean = not within_hops(adj, left, target, limit - 1, stamp, queries)
        adj[left].insert(i, target)
        adj[target].insert(j, left)
        return clean

    def find_short_cycle():
        """(left, matching) of a matching edge on a short cycle, or None."""
        nonlocal hit_root
        # parallel matchings first (short_cycle does not see 2-cycles)
        if repeated:
            i = min(repeated)
            return i, first_repeat(i)
        roots = None if hit_root is None else [*dirty_roots_below(hit_root),
                                               *range(hit_root, 2 * side)]
        touched.clear()
        hit = short_cycle(adj, limit, roots)
        if hit is None:
            return None
        _, x, y, hit_root = hit
        left, right = (x, y - side) if x < side else (y, x - side)
        return left, next(k for k in range(degree) if perms[k][left] == right)

    for _ in range(_lift_repair_rounds(side, degree)):
        bad = find_short_cycle()
        if bad is None:
            break
        i, k = bad
        placed = False
        for _attempt in range(80):
            j = rng.randrange(side)
            if j == i:
                continue
            swap(k, i, j)
            if edge_clean(i, perms[k][i]) and edge_clean(j, perms[k][j]):
                placed = True
                break
            swap(k, i, j)  # undo
        if not placed:
            j = rng.randrange(side)
            if j == i:
                continue
            swap(k, i, j)  # random kick to escape a local minimum
        touched.update((i, j, side + perms[k][i], side + perms[k][j]))
        for row in (i, j):
            if first_repeat(row) is None:
                repeated.discard(row)
            else:
                repeated.add(row)
    else:
        raise RuntimeError(
            f"girth repair did not converge (side={side}, degree={degree}, "
            f"min_girth={min_girth}, seed={seed})"
        )
    edges = []
    for perm in perms:
        for i, j in enumerate(perm):
            edges.append((i, side + j))
    g = Graph(2 * side, edges)
    assert girth_at_least(g, min_girth - 1)
    assert all(d == degree for d in g.degrees())
    return g


# -- layered minimal-spanner instances ----------------------------------------


class _Gap(NamedTuple):
    """Deterministic edge rule between layers i-1 (size a) and i (size b).

    contract: every layer-(i-1) vertex has one neighbor (owner map); stars
      point left.
    expand: mirror image, stars point right.
    grid: equal central layers factored as [dtilde] x [d]^digits; adjacent
      iff the slice and all digits agree except digit ``digit``.
    junct_right: central layer [dtilde] x [mprime] to a bigger layer; each
      right vertex joins its owner in every slice (back degree dtilde).
    junct_left: bigger layer to central [dtilde] x [mprime]; each left vertex
      joins its image in every slice (forward degree dtilde).
    """

    kind: str
    a: int
    b: int
    d: int = 1
    digit: int = 0
    dtilde: int = 1
    mprime: int = 1


def _owner(x: int, big: int, small: int) -> int:
    return x * small // big


def _block(x: int, big: int, small: int) -> range:
    start = (x * big + small - 1) // small
    end = ((x + 1) * big + small - 1) // small
    return range(start, end)


def _block_distribution(big: int, small: int) -> Counter:
    q, r = divmod(big, small)
    dist = Counter()
    if r:
        dist[q + 1] = r
    if small - r:
        dist[q] = small - r
    return dist


def _gap_degree_counters(gap: _Gap) -> tuple[Counter, Counter]:
    """(left-side, right-side) degree multisets contributed by one gap."""
    if gap.kind == "contract":
        return Counter({1: gap.a}), _block_distribution(gap.a, gap.b)
    if gap.kind == "expand":
        return _block_distribution(gap.b, gap.a), Counter({1: gap.b})
    if gap.kind == "grid":
        return Counter({gap.d: gap.a}), Counter({gap.d: gap.b})
    if gap.kind == "junct_right":
        per_z = _block_distribution(gap.b, gap.mprime)
        left = Counter({deg: cnt * gap.dtilde for deg, cnt in per_z.items()})
        return left, Counter({gap.dtilde: gap.b})
    if gap.kind == "junct_left":
        per_z = _block_distribution(gap.a, gap.mprime)
        right = Counter({deg: cnt * gap.dtilde for deg, cnt in per_z.items()})
        return Counter({gap.dtilde: gap.a}), right
    raise ValueError(gap.kind)


def _gap_forward(gap: _Gap, x: int) -> range:
    """Neighbors in layer i of vertex x in layer i-1, as a range."""
    if gap.kind == "contract":
        owner = _owner(x, gap.a, gap.b)
        return range(owner, owner + 1)
    if gap.kind == "expand":
        return _block(x, gap.b, gap.a)
    if gap.kind == "grid":
        s, z = divmod(x, gap.mprime)
        step = gap.d**gap.digit
        start = s * gap.mprime + z - (z // step) % gap.d * step
        return range(start, start + gap.d * step, step)
    if gap.kind == "junct_right":
        return _block(x % gap.mprime, gap.b, gap.mprime)
    if gap.kind == "junct_left":
        z = _owner(x, gap.a, gap.mprime)
        return range(z, gap.dtilde * gap.mprime, gap.mprime)
    raise ValueError(gap.kind)


def _star_ok(big: int, small: int) -> bool:
    """Whether _owner / _block split [big] into ``small`` non-empty blocks.

    For 1 <= small <= big, _owner(x) = floor(x*small/big) lies in [small],
    and _block(y) = [ceil(y*big/small), ceil((y+1)*big/small)) is exactly
    its preimage: the blocks tile [big] in order and each has at least
    floor(big/small) >= 1 vertices.  Both maps are also checked at both
    ends, so an off-by-one edit to either is refused.
    """
    if not 1 <= small <= big:
        return False
    first, last = _block(0, big, small), _block(small - 1, big, small)
    ends = (first.start, first.stop - 1, last.start, last.stop - 1)
    return (first.start == 0 and last.stop == big and bool(first) and bool(last)
            and [_owner(x, big, small) for x in ends] == [0, 0, small - 1, small - 1])


_KIND_CODES = {"contract": "c", "junct_left": "l", "grid": "g",
               "junct_right": "r", "expand": "e"}


def _rules_span_all_pairs(gaps: tuple, sizes: tuple) -> bool:
    """Whether the gap rules span every (u, w) in V_0 x V_t in t hops.

    Reads only the gap parameters, never a layer.  The spanner is layered,
    so (u, w) is spanned exactly when the forward reach of u covers w; the
    checks make every forward reach all of V_t:

    1. the kinds run contract* [junct_left] grid* [junct_right] expand*,
       and each gap's (a, b) matches the layer sizes;
    2. every star side passes ``_star_ok``: a contraction maps a vertex to
       one vertex, an expansion maps a whole layer onto the next;
    3. the C grid gaps share one slice width mprime == d**C and rewrite the
       digits 0..C-1 once each, so a central vertex reaches its whole slice
       (one vertex when C = 0);
    4. a junction reaches every one of the ``dtilde`` slices (junct_left
       joins a vertex to its image in each slice; junct_right's blocks
       ignore the slice), checked at both ends; without a junction the
       central layer is a single slice.
    """
    codes = "".join(_KIND_CODES.get(g.kind, "?") for g in gaps)
    if len(sizes) != len(gaps) + 1 or not re.fullmatch("c*l?g*r?e*", codes):
        return False
    if any((g.a, g.b) != (sizes[i], sizes[i + 1]) for i, g in enumerate(gaps)):
        return False
    center = sizes[codes.count("c") + codes.count("l")]
    grids = [g for g in gaps if g.kind == "grid"]
    d = grids[0].d if grids else 1
    mprime = d ** len(grids)
    if d < 1 or any((g.d, g.mprime, g.a, g.b) != (d, mprime, center, center)
                    for g in grids):
        return False
    if sorted(g.digit for g in grids) != list(range(len(grids))):
        return False
    for g in gaps:
        if g.kind == "contract" and not _star_ok(g.a, g.b):
            return False
        if g.kind == "expand" and not _star_ok(g.b, g.a):
            return False
    junctions = [g for g in gaps if g.kind.startswith("junct")]
    for g in junctions:
        if g.kind == "junct_left":
            big, want = g.a, [range(z, center, mprime) for z in (0, mprime - 1)]
        else:
            big, want = g.b, [_block(z, g.b, mprime) for z in (0, mprime - 1)]
        if ((g.mprime, g.dtilde * mprime) != (mprime, center) or not _star_ok(big, mprime)
                or [_gap_forward(g, x) for x in (0, g.a - 1)] != want):
            return False
    return bool(junctions) or center == mprime


class LayeredInstance(Record):
    """A layered spanner plus its host (spanner + biclique V_0 x V_t).

    Rule-based instances (from build_lcr / build_skewed) may stay virtual;
    LP-sampled instances carry explicit graphs.  Vertex ids are contiguous
    by layer: ``offsets[i]`` is the first id of layer i, set from
    ``layer_sizes`` at construction.  The fields can be reassigned (they
    are not re-validated, and ``offsets`` is not recomputed), and they
    decide ``==``; an instance holds a dict, so it does not hash.
    """

    __slots__ = ("t", "p", "layer_sizes", "gaps", "predicted", "explicit_spanner",
                 "explicit_host", "offsets")

    def __init__(self, t: int, p: float, layer_sizes: tuple, gaps: tuple = (),
                 predicted: dict | None = None, explicit_spanner: Graph | None = None,
                 explicit_host: Graph | None = None) -> None:
        self.t = t
        self.p = p
        self.layer_sizes = layer_sizes
        self.gaps = gaps
        self.predicted = {} if predicted is None else predicted
        self.explicit_spanner = explicit_spanner
        # the spanner plus the V_0 x V_t pairs it reaches
        self.explicit_host = explicit_host
        self.offsets = (0, *accumulate(layer_sizes))

    def _key(self) -> tuple:
        return (self.t, self.p, self.layer_sizes, self.gaps, self.predicted,
                self.explicit_spanner, self.explicit_host)

    # -- layout ----------------------------------------------------------

    @property
    def n(self) -> int:
        return self.offsets[-1]

    # -- spanner ----------------------------------------------------------

    def spanner_edge_count(self) -> int:
        if self.explicit_spanner is not None:
            return self.explicit_spanner.m
        # one edge per unit of left-side degree
        return sum(deg * cnt for g in self.gaps
                   for deg, cnt in _gap_degree_counters(g)[0].items())

    @property
    def virtual(self) -> bool:
        return self.explicit_spanner is None and self.spanner_edge_count() > SPANNER_EDGE_BUDGET

    def host_edge_count(self) -> int:
        """Biclique count, plus the spanner's edges when t >= 2 (at t = 1 the
        spanner lies inside the biclique), or the explicit host's edges."""
        if self.explicit_host is not None:
            return self.explicit_host.m
        pairs = self.layer_sizes[0] * self.layer_sizes[-1]
        return pairs if self.t == 1 else pairs + self.spanner_edge_count()

    @property
    def host_virtual(self) -> bool:
        return self.host_edge_count() > HOST_EDGE_BUDGET

    def edges(self, host: bool = False):
        """The spanner's (or host's) edges (u, v), u < v, in sorted order.

        Rule-based instances walk the gaps, each layer's vertices and each
        ``_gap_forward`` range in ascending order, and store nothing.  The
        host follows each layer-0 row with its biclique tail V_t; at t = 1
        that tail alone is the row, since it holds the gap's edges.
        """
        if self.explicit_spanner is not None:
            yield from (self.explicit_host if host else self.explicit_spanner).edges
            return
        tail = range(self.offsets[self.t], self.n) if host else range(0)
        for i, gap in enumerate(self.gaps):
            left, right = self.offsets[i], self.offsets[i + 1]
            for u in range(left, left + gap.a):
                if not (host and self.t == 1):
                    yield from zip(repeat(u), map(right.__add__, _gap_forward(gap, u - left)))
                if i == 0:
                    yield from zip(repeat(u), tail)

    def spanner(self) -> Graph:
        if self.explicit_spanner is not None:
            return self.explicit_spanner
        if self.virtual:
            raise ValueError(f"spanner has {self.spanner_edge_count()} edges, above the "
                             f"materialization budget {SPANNER_EDGE_BUDGET}")
        return Graph(self.n, self.edges())

    # -- degree multisets and norms ----------------------------------------

    def _per_layer_counts(self) -> list[Counter]:
        layers = []
        for i, size in enumerate(self.layer_sizes):
            lgap = self.gaps[i - 1] if i >= 1 else None
            rgap = self.gaps[i] if i < self.t else None
            left = _gap_degree_counters(lgap)[1] if lgap else None
            right = _gap_degree_counters(rgap)[0] if rgap else None
            layers.append(_combine_layer_counters(size, left, right))
        return layers

    def spanner_degree_counts(self) -> Counter:
        if self.explicit_spanner is not None:
            return Counter(self.explicit_spanner.degrees())
        return sum(self._per_layer_counts(), Counter())

    def host_degree_counts(self) -> Counter:
        if self.explicit_host is not None:
            return Counter(self.explicit_host.degrees())
        n0, nt = self.layer_sizes[0], self.layer_sizes[-1]
        per_layer = self._per_layer_counts()
        per_layer[0] = Counter({deg + nt: cnt for deg, cnt in per_layer[0].items()})
        per_layer[-1] = Counter({deg + n0: cnt for deg, cnt in per_layer[-1].items()})
        return sum(per_layer, Counter())

    def host_graph(self) -> Graph:
        """Materialized host; only within ``HOST_EDGE_BUDGET`` edges."""
        if self.host_virtual:
            raise ValueError(f"host has {self.host_edge_count()} edges, above the "
                             f"materialization budget {HOST_EDGE_BUDGET}")
        return self.explicit_host or Graph(self.n, self.edges(host=True))

    def spanner_norm(self) -> float:
        counts = self.spanner_degree_counts()
        return degree_norm(counts.keys(), self.p, counts.values())

    def host_norm(self) -> float:
        counts = self.host_degree_counts()
        return degree_norm(counts.keys(), self.p, counts.values())

    def measured(self) -> dict:
        log_n = math.log(self.n)
        return {
            "lambda_measured": math.log(self.host_norm()) / log_n,
            "ell_measured": math.log(self.spanner_norm()) / log_n,
        }

    # -- verification -------------------------------------------------------

    def verify(self, seed: int | None = None) -> bool:
        """Whether every host edge is spanned within t hops.

        LP-sampled instances run ``verify_stretch`` on their explicit graphs.
        Rule-based instances are decided for all n0*nt pairs from the gap
        rules (``_rules_span_all_pairs``): no graph is built and nothing is
        sampled, so ``seed`` is accepted and ignored.
        """
        if self.explicit_host is not None:
            return verify_stretch(self.explicit_host, self.explicit_spanner, self.t)
        return _rules_span_all_pairs(self.gaps, self.layer_sizes)


def _combine_layer_counters(
    size: int, left: Counter | None, right: Counter | None
) -> Counter:
    """Per-vertex sum of the two gap contributions at one layer.

    Every layer the builders make is degree-regular on at least one side
    (a one-key counter), so the sum is a key shift.
    """
    if not left:
        return Counter(right) if right else Counter({0: size})
    if not right:
        return Counter(left)
    if len(left) != 1:
        left, right = right, left
    if len(left) != 1:
        raise ValueError("two irregular sides at one layer")
    (shift,) = left
    return Counter({shift + deg: cnt for deg, cnt in right.items()})


# -- builders ------------------------------------------------------------------


def _gap_kind(i: int, L: int, C: int, left: bool, right: bool) -> str:
    """Kind of the gap between layers i-1 and i of an (L, C, R) shape with
    a left skew, a right skew or (both false) none."""
    if L < i <= L + C:
        return "grid"
    if i == L and left:
        return "junct_left"
    if i == L + C + 1 and right:
        return "junct_right"
    return "contract" if i <= L else "expand"


def _real_layer_sizes(L: int, C: int, R: int, left: bool, right: bool, p: float,
                      center: float, dtilde: float, d_c: float) -> list[float]:
    """Real-valued sizes from the equal-contribution recurrences.

    When C >= 1 the central layers have ``center`` vertices and ``d_c`` is
    the grid degree.  At C = 0 the middle layer is a stack of ``dtilde``
    slices under a left skew and one vertex otherwise, and ``d_c`` is the
    size of the layers beside it.
    """
    t = L + C + R
    middle = center if C >= 1 else (dtilde if left else 1.0)
    real = [0.0] * (t + 1)
    for i in range(L, L + C + 1):
        real[i] = middle
    K = middle * d_c**p
    if R >= 1:
        real[L + C + 1] = middle * d_c / (dtilde if right else 1.0)
        for i in range(L + C + 2, t + 1):
            grow = (K / real[i - 1]) ** (1.0 / p)
            real[i] = real[i - 1] * grow
    if L >= 1:
        real[L - 1] = middle * d_c / (dtilde if left else 1.0)
        for i in range(L - 2, -1, -1):
            grow = (K / real[i + 1]) ** (1.0 / p)
            real[i] = real[i + 1] * grow
    return real


def _ideal_exponents(L, C, R, left, right, p, center, dtilde, d_c, t) -> dict:
    """Exponents of the unrounded construction (the generator's own target)."""
    real = _real_layer_sizes(L, C, R, left, right, p, center, dtilde, d_c)
    degs = [0.0] * (t + 1)
    for i in range(1, t + 1):
        a, b = real[i - 1], real[i]
        kind = _gap_kind(i, L, C, left, right)
        if kind == "grid":
            ldeg = rdeg = d_c
        elif kind == "junct_left":
            ldeg, rdeg = dtilde, a * dtilde / b
        elif kind == "junct_right":
            ldeg, rdeg = b * dtilde / a, dtilde
        elif kind == "contract":
            ldeg, rdeg = 1.0, a / b
        else:
            ldeg, rdeg = b / a, 1.0
        degs[i - 1] += ldeg
        degs[i] += rdeg
    n_ideal = sum(real)
    span_p = sum(real[i] * degs[i] ** p for i in range(t + 1) if degs[i] > 0)
    host_degs = list(degs)
    host_degs[0] += real[t]
    host_degs[t] += real[0]
    host_p = sum(real[i] * host_degs[i] ** p for i in range(t + 1))
    log_n = math.log(n_ideal)
    return {
        "lambda_predicted": math.log(host_p ** (1.0 / p)) / log_n,
        "ell_predicted": math.log(span_p ** (1.0 / p)) / log_n,
        "ideal_sizes": tuple(real),
    }


def _build_layered(params: LcrParams, p, center_size, skew_exponent) -> LayeredInstance:
    from .lb_lp import SKEW_LEFT, SKEW_NONE, SKEW_RIGHT

    L, C, R = params.L, params.C, params.R
    t = params.t
    pf = float(p)
    if t == 0:
        raise ValueError("layered builders need t = L + C + R >= 1")
    if not math.isfinite(pf):
        raise ValueError(f"layered builders need a finite p, got {p}")
    if pf <= 1 and C >= 1:
        raise ValueError("layered builders need p > 1 for the decay recurrences")
    if center_size > sys.float_info.max:
        raise ValueError(f"center_size {center_size} at p = {p} overflows a float")
    skew = params.skew
    left, right = skew == SKEW_LEFT, skew == SKEW_RIGHT
    if skew == SKEW_NONE:
        dt_real = 1.0
    else:
        if skew_exponent is None:
            raise ValueError("skewed shapes need a skew degree exponent")
        top = 1.0 / (C + 1) if C >= 1 else 1.0
        if not -1e-12 <= float(skew_exponent) <= top + 1e-12:
            raise ValueError(
                f"skew exponent {skew_exponent} outside [0, {top:.4g}] "
                "(the adjacent-shape endpoint)"
            )
        dt_real = float(center_size) ** float(skew_exponent)
    dtilde = max(1, round(dt_real))
    if dtilde > 1 and ((left and L == 0) or (right and R == 0)):
        # no gap can hold the junction, so nothing would join the dtilde slices
        raise ValueError(
            f"a {skew} skew of degree {dtilde} has no {skew} junction: "
            f"the {skew} section is empty"
        )
    if C >= 1:
        if center_size < 2:
            raise ValueError("central layers need center_size >= 2")
        d_c = max(1, round((center_size / dtilde) ** (1.0 / C)))
        mprime = d_c**C
        d_real = (center_size / dt_real) ** (1.0 / C)
    else:
        # no grid: center_size is the size of the layers beside the middle
        d_c = d_real = float(center_size)
        mprime = 1
    center_actual = dtilde * mprime

    try:
        ideal = _ideal_exponents(L, C, R, left, right, pf, float(center_size), dt_real,
                                 d_real, t)
        real = _real_layer_sizes(L, C, R, left, right, pf, float(center_actual), float(dtilde),
                                 float(d_c))
        sizes = [max(1, math.floor(s + 1e-9)) for s in real]
    except OverflowError:
        raise ValueError(f"center_size {center_size} at p = {p} overflows a float") from None
    for i in range(L, L + C + 1):
        sizes[i] = center_actual

    gaps = []
    for i in range(1, t + 1):
        a, b = sizes[i - 1], sizes[i]
        kind = _gap_kind(i, L, C, left, right)
        if kind == "contract" and a < b:
            raise ValueError(f"left section must shrink, sizes {a} -> {b}")
        if kind == "expand" and a > b:
            raise ValueError(f"right section must grow, sizes {a} -> {b}")
        if kind == "grid":
            gaps.append(_Gap(kind, a, b, d=d_c, digit=i - L - 1, dtilde=dtilde, mprime=mprime))
        elif kind.startswith("junct"):
            gaps.append(_Gap(kind, a, b, dtilde=dtilde, mprime=mprime))
        else:
            gaps.append(_Gap(kind, a, b))

    return LayeredInstance(
        t=t,
        p=pf,
        layer_sizes=tuple(sizes),
        gaps=tuple(gaps),
        predicted=ideal,
    )


def build_lcr(params: LcrParams, p, center_size: int) -> LayeredInstance:
    """Plain (L,C,R)-minimal spanner instance plus its biclique host.

    ``center_size`` is the target size of the central layers for C >= 1; for
    C = 0 the center is a single vertex and ``center_size`` is the size of
    the two layers beside it (equivalently their degree toward the center).
    A ``center_size`` and ``p`` whose layer sizes or norms overflow a float
    raise ``ValueError``, here and in ``build_skewed``.
    """
    from .lb_lp import SKEW_NONE

    if params.skew != SKEW_NONE:
        raise ValueError("build_lcr builds plain shapes; use build_skewed")
    return _build_layered(params, p, center_size, None)


def build_skewed(params: LcrParams, p, center_size: int, skew_exponent=None) -> LayeredInstance:
    """Skewed minimal spanner interpolating between adjacent plain shapes.

    ``skew_exponent`` is log base center_size of the skew degree, ranging
    from 0 (exactly the plain (L,C,R) instance, edge for edge) to 1/(C+1)
    (the adjacent shape with the center grown by one layer).  A left (right)
    skew whose degree rounds above 1 needs L >= 1 (R >= 1) for its junction;
    without that section the shape is refused with ValueError.  A right
    skew needs C >= 1, which ``LcrParams`` enforces.
    """
    return _build_layered(params, p, center_size, skew_exponent)


def build_from_lp(solution: dict, n: int, seed: int, t: int,
                  p: float = 2.0) -> LayeredInstance:
    """Randomized layered instance realizing a feasible LP assignment.

    Layer i gets round(n**nu_i) vertices (capped at n); every vertex of
    layer i-1 draws min(ceil(d_i log n), n_i) random distinct neighbors in
    layer i, with a counter-keyed RNG so regeneration is reproducible and
    layers are independent.  The host connects u in V_0 to w in V_t exactly
    when the spanner has a forward path of length t, and construction
    asserts the reach lower bound Delta_t / 2**t for every source, with
    Delta_t = n**solution["Delta"].  An ``n`` below 2 is refused with
    ValueError, and so is a host of more than ``HOST_EDGE_BUDGET`` edges:
    before any draw when the layer sizes and degrees already force that
    many, else as soon as the sampled pairs pass it.  The RNGs are keyed by
    (seed, layer, vertex), so the refusal moves no draw of an instance
    within the budget.
    """
    if n < 2:
        raise ValueError(f"build_from_lp needs n >= 2, got {n}")
    sizes = []
    for i in range(t + 1):
        nu = float(solution[f"nu{i}"])
        size = max(1, round(n**nu))
        if size > n:
            if size > n + 1:
                raise ValueError(f"layer {i} size {size} exceeds the n cap")
            size = n
        sizes.append(size)
    offsets = (0, *accumulate(sizes))
    wants = [min(int(math.ceil(n ** float(solution[f"delta{i}"]) * math.log(n))), sizes[i])
             for i in range(1, t + 1)]
    delta_t = n ** float(solution["Delta"])
    reach = max(0, math.ceil(delta_t / 2**t - 1e-9))
    # the host holds a pair per source and layer-t vertex it reaches, at
    # least ``reach`` of them per source, and the spanner's edges on top at
    # t >= 2; at t = 1 the spanner's edges are the pairs
    spanner_edges = sum(size * want for size, want in zip(sizes, wants))
    base = spanner_edges if t >= 2 else 0
    _check_host_budget(max(spanner_edges, base + sizes[0] * reach))
    edges = []
    neighbors_fwd: list[list[list[int]]] = []
    for i, want in enumerate(wants, 1):
        layer_fwd = []
        for v in range(sizes[i - 1]):
            rng = random.Random(((seed * 1_000_003 + i) * 1_000_003 + v) & 0x7FFFFFFF)
            targets = rng.sample(range(sizes[i]), want)
            layer_fwd.append(targets)
            for w in targets:
                edges.append((offsets[i - 1] + v, offsets[i] + w))
        neighbors_fwd.append(layer_fwd)
    spanner = Graph(offsets[-1], edges)
    # forward reachability per source in V_0
    host_pairs = []
    for u in range(sizes[0]):
        frontier = {u}
        for i in range(1, t + 1):
            nxt = set()
            for x in frontier:
                nxt.update(neighbors_fwd[i - 1][x])
            frontier = nxt
        if len(frontier) < delta_t / 2**t - 1e-9:
            raise AssertionError(
                f"source {u} reaches {len(frontier)} layer-t vertices, below "
                f"Delta_t/2^t = {delta_t / 2**t:.3g}"
            )
        host_pairs += [(u, offsets[t] + w) for w in sorted(frontier)]
        _check_host_budget(base + len(host_pairs))
    return LayeredInstance(
        t=t,
        p=p,
        layer_sizes=tuple(sizes),
        explicit_spanner=spanner,
        # at t = 1 the pairs are the spanner's edges
        explicit_host=Graph(offsets[-1], set(edges).union(host_pairs)),
    )


def _check_host_budget(least: int) -> None:
    """Refuse an LP-sampled host known to hold at least ``least`` edges."""
    if least > HOST_EDGE_BUDGET:
        raise ValueError(f"host has at least {least} edges, above the materialization "
                         f"budget {HOST_EDGE_BUDGET}")


# -- tightness families (upper-bound matching instances) ----------------------


def _girth_supply(k: int, n: int, seed: int) -> Graph:
    """A girth >= 2k+1 near-regular graph on about n vertices (k in {2, 3})."""
    if k == 2:
        named = [("pg2_5", 62), ("pg2_4", 42), ("pg2_3", 26), ("pg2_2", 14)]
        for name, size in named:
            if size <= n:
                return named_girth_graph(name)
        return named_girth_graph("petersen")
    if k == 3:
        if n >= 400:
            return random_bipartite_lift(n // 2, 3, 8, seed=seed)
        if n >= 30:
            return named_girth_graph("tutte_coxeter")
        return named_girth_graph("mcgee")
    raise ValueError(f"no explicit high-girth construction for k={k}")


def _pad_to(g: Graph, n: int) -> Graph:
    if g.n > n:
        raise ValueError(f"construction has {g.n} > n = {n} vertices")
    return Graph(n, g.edges, g.lengths)


def _tightness_clique(big_lambda: float, pf: float, other_edges: int):
    """``(c, edges)``: the clique on c = int(Lambda**(p/(1+p))) vertices of a
    tightness instance.  ``ValueError`` before any list is built when the
    clique, the instance's ``other_edges`` and the edge joining them exceed
    ``HOST_EDGE_BUDGET``."""
    c = int(big_lambda ** (pf / (1 + pf)))
    total = c * (c - 1) // 2 + other_edges + 1
    if total > HOST_EDGE_BUDGET:
        raise ValueError(f"Lambda {big_lambda} asks for a clique on {c} vertices, "
                         f"{total} edges in all, above the budget {HOST_EDGE_BUDGET}")
    return c, [(i, j) for i in range(c) for j in range(i + 1, c)]


def build_tightness(k: int, p, n: int, big_lambda: float, seed: int = 0) -> Graph:
    """Instance whose (2k-1)-spanners all have norm Omega(min(max-bound, Lambda)).

    Four cases split on p against k/(k-1) and Lambda against the n or
    n**((k+p)/(kp)) ceiling: trees (star plus path), clique plus star, a
    pruned high-girth graph, and clique plus high-girth graph.  The tree and
    pruned cases have exactly n vertices.  The clique branches do not: with
    a clique of c = int(Lambda**(p/(1+p))) vertices, clique plus star has
    c + n + 1 (the star has n leaves), and clique plus high-girth has c plus
    the vertex count of the girth supply built for max(n // 2, 14) vertices.
    A clique instance of more than ``HOST_EDGE_BUDGET`` edges raises
    ``ValueError``, and so does an ``n`` whose range bound n**((1+p)/p)
    overflows a float.
    """
    if k not in (2, 3):
        raise ValueError("tightness instances are implemented for k in {2, 3}")
    pf = float(p)
    try:
        if not n ** (1 / pf) / 4 <= big_lambda <= 4 * n ** ((1 + pf) / pf):
            raise ValueError(f"Lambda {big_lambda} outside the representable range")
    except OverflowError:
        raise ValueError(f"n too large: n ** ((1 + p) / p) at p = {p} overflows a float") from None
    threshold = k / (k - 1)
    if pf >= threshold:
        if big_lambda <= n:
            leaves = int(big_lambda)
            if leaves > n - 1:
                raise ValueError("star case needs Lambda <= n - 1")
            edges = [(0, i) for i in range(1, leaves + 1)]
            prev = 1  # attach the path to an arbitrary leaf
            for extra in range(leaves + 1, n):
                edges.append((prev, extra))
                prev = extra
            return Graph(n, edges)
        m, edges = _tightness_clique(big_lambda, pf, n)
        center = m
        edges += [(center, center + 1 + i) for i in range(n)]
        edges.append((0, center))
        return Graph(m + n + 1, edges)
    ceiling = n ** ((k + pf) / (k * pf))
    if big_lambda <= ceiling * 2:
        supply = _girth_supply(k, n, seed)
        g = _pad_to(supply, n)
        norm = lp_norm(g, pf)
        if norm < big_lambda / 2:
            raise ValueError(
                f"Lambda {big_lambda} above the girth supply's norm {norm:.4g}"
            )
        edges = list(g.edges)
        degrees = list(g.degrees())
        while norm > big_lambda and edges:
            u, v = edges.pop()
            degrees[u] -= 1
            degrees[v] -= 1
            norm = degree_norm(degrees, pf)
        if norm < big_lambda / 2:
            # pruning stops at norm <= Lambda, so a Lambda below one edge's
            # norm empties the graph
            raise ValueError(
                f"Lambda {big_lambda} below the smallest pruned norm: the girth "
                f"supply pruned to norm <= Lambda has norm {norm:.4g} < Lambda / 2"
            )
        return Graph(n, edges)
    # Lambda too large for the high-girth graph alone: adjoin a clique sized
    # Lambda**(p/(1+p)) (consistent with ||clique||_p = Theta(Lambda); the
    # alternative exponent reading makes the norm overshoot)
    supply = _girth_supply(k, max(n // 2, 14), seed)
    m, edges = _tightness_clique(big_lambda, pf, supply.m)
    offset = m
    edges += [(offset + u, offset + v) for u, v in supply.edges]
    edges.append((0, offset))
    return Graph(m + supply.n, edges)
