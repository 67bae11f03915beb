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
verification of a 10^7-vertex instance cost no memory.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .graph_core import (Graph, degree_norm, girth, girth_at_least, lp_norm,
                         short_cycle, within_hops)
from .greedy import verify_stretch
from .lb_lp import LcrParams, SKEW_LEFT, SKEW_NONE, SKEW_RIGHT

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
    """Point-line incidence graph of PG(2, q): bipartite, (q+1)-regular, girth 6."""
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
    g = Graph(2 * npts, edges)
    assert all(d == q + 1 for d in g.degrees())
    assert girth(g) == 6
    return g


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
    elif name.startswith("pg2_"):
        g = projective_plane_incidence(int(name.split("_")[1]))
    else:
        raise ValueError(f"unknown named graph {name!r}")
    n, degree, girth_value = _NAMED_SPECS[name]
    assert g.n == n, name
    assert all(d == degree for d in g.degrees()), name
    assert girth(g) == girth_value, name
    return g


# -- random regular bipartite graphs with a girth floor ----------------------


def random_bipartite_lift(side: int, degree: int, min_girth: int, seed: int,
                          max_rounds: int = 30000) -> Graph:
    """d-regular bipartite graph on 2*side vertices with girth >= min_girth.

    Union of ``degree`` random perfect matchings, then local surgery: while a
    short cycle survives, swap one of its matching edges with another edge of
    the same matching, preferring swap partners that do not create new short
    cycles through the rewired edges.  Deterministic for a fixed seed; raises
    when the repair budget runs out (retry with another seed).
    """
    if min_girth % 2 == 1:
        min_girth += 1  # bipartite girth is even
    rng = random.Random(seed)
    perms = [rng.sample(range(side), side) for _ in range(degree)]
    adj: list[list[int]] = [[] for _ in range(2 * side)]
    for perm in perms:
        for i, j in enumerate(perm):
            adj[i].append(side + j)
            adj[side + j].append(i)
    limit = min_girth - 1  # longest forbidden cycle

    def swap(k: int, i: int, j: int) -> None:
        pi, pj = perms[k][i], perms[k][j]
        for left, old, new in ((i, pi, pj), (j, pj, pi)):
            adj[left].remove(side + old)
            adj[side + old].remove(left)
            adj[left].append(side + new)
            adj[side + new].append(left)
        perms[k][i], perms[k][j] = pj, pi

    stamp = [0] * (2 * side)
    queries = 0

    def edge_clean(left: int, right_vertex: int) -> bool:
        """No parallel edge and no alternative left->right path < min_girth-1."""
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
        # parallel matchings first (short_cycle does not see 2-cycles)
        for i in range(side):
            seen = {}
            for k in range(degree):
                if perms[k][i] in seen:
                    return i, k
                seen[perms[k][i]] = k
        hit = short_cycle(adj, limit)
        if hit is None:
            return None
        _, x, y = hit
        left, right = (x, y - side) if x < side else (y, x - side)
        for k in range(degree):
            if perms[k][left] == right:
                return left, k
        return left, 0

    for _ in range(max_rounds):
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
            if j != i:
                swap(k, i, j)  # random kick to escape a local minimum
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
    assert girth_at_least(g, min_girth)
    assert all(d == degree for d in g.degrees())
    return g


# -- layered minimal-spanner instances ----------------------------------------


@dataclass(frozen=True)
class _Gap:
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


@dataclass
class LayeredInstance:
    """A layered spanner plus its host (spanner + biclique V_0 x V_t).

    Rule-based instances (from build_lcr / build_skewed) may stay virtual;
    LP-sampled instances carry explicit graphs.  Vertex ids are contiguous
    by layer.
    """

    t: int
    p: float
    params: object
    layer_sizes: tuple
    gaps: tuple = ()
    provenance: str = "CONSTRUCTED"
    seed: int | None = None
    predicted: dict = field(default_factory=dict)
    explicit_spanner: Graph | None = None
    explicit_host_pairs: tuple | None = None  # (u, w) global-id pairs
    _spanner_cache: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        offs = [0]
        for s in self.layer_sizes:
            offs.append(offs[-1] + s)
        self.offsets = tuple(offs)

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
        return (
            self.explicit_spanner is None
            and self.spanner_edge_count() > SPANNER_EDGE_BUDGET
        )

    def spanner(self) -> Graph:
        if self.explicit_spanner is not None:
            return self.explicit_spanner
        if self._spanner_cache:
            return self._spanner_cache[0]
        if self.virtual:
            raise ValueError(
                f"spanner has {self.spanner_edge_count()} edges, above the "
                f"materialization budget {SPANNER_EDGE_BUDGET}"
            )
        edges = []
        for i, gap in enumerate(self.gaps, start=1):
            base_left = self.offsets[i - 1]
            base_right = self.offsets[i]
            for x in range(gap.a):
                for y in _gap_forward(gap, x):
                    edges.append((base_left + x, base_right + y))
        g = Graph(self.n, edges)
        self._spanner_cache.append(g)
        return g

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
        total = Counter()
        for counter in self._per_layer_counts():
            total.update(counter)
        return total

    def host_degree_counts(self) -> Counter:
        if self.explicit_host_pairs is not None:
            return Counter(self._explicit_host_graph().degrees())
        n0, nt = self.layer_sizes[0], self.layer_sizes[-1]
        per_layer = self._per_layer_counts()
        per_layer[0] = Counter({deg + nt: cnt for deg, cnt in per_layer[0].items()})
        per_layer[-1] = Counter({deg + n0: cnt for deg, cnt in per_layer[-1].items()})
        counts = Counter()
        for counter in per_layer:
            counts.update(counter)
        return counts

    def _explicit_host_graph(self) -> Graph:
        base = self.explicit_spanner
        edges = list(base.edges) + [
            (min(u, w), max(u, w)) for u, w in self.explicit_host_pairs
        ]
        return Graph(self.n, sorted(set(edges)))

    def host_graph(self) -> Graph:
        """Materialized host; only for desk-scale bicliques."""
        if self.explicit_host_pairs is not None:
            return self._explicit_host_graph()
        n0, nt = self.layer_sizes[0], self.layer_sizes[-1]
        if n0 * nt > HOST_EDGE_BUDGET:
            raise ValueError(f"biclique of {n0 * nt} edges above budget")
        spanner = self.spanner()
        base_t = self.offsets[self.t]
        edges = list(spanner.edges)
        for u in range(n0):
            for w in range(nt):
                edges.append((u, base_t + w))
        return Graph(self.n, sorted(set(edges)))

    def spanner_norm(self, p=None) -> float:
        p = self.p if p is None else p
        counts = self.spanner_degree_counts()
        return degree_norm(counts.keys(), p, counts.values())

    def host_norm(self, p=None) -> float:
        p = self.p if p is None else p
        counts = self.host_degree_counts()
        return degree_norm(counts.keys(), p, counts.values())

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
        if self.explicit_host_pairs is not None:
            return verify_stretch(self.host_graph(), self.spanner(), self.t)
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


def _real_layer_sizes(L: int, C: int, R: int, skew: str, p: float,
                      center: float, dtilde: float, d_c: float) -> list[float]:
    """Real-valued sizes from the equal-contribution recurrences."""
    t = L + C + R
    real = [0.0] * (t + 1)
    if C >= 1:
        for i in range(L, L + C + 1):
            real[i] = center
        K = center * d_c**p
        if R >= 1:
            real[L + C + 1] = center * d_c / (dtilde if skew == SKEW_RIGHT else 1.0)
            for i in range(L + C + 2, t + 1):
                grow = (K / real[i - 1]) ** (1.0 / p)
                real[i] = real[i - 1] * grow
        if L >= 1:
            real[L - 1] = center * d_c / (dtilde if skew == SKEW_LEFT else 1.0)
            for i in range(L - 2, -1, -1):
                grow = (K / real[i + 1]) ** (1.0 / p)
                real[i] = real[i + 1] * grow
    else:
        # C = 0: unit middle layer (plain) or a [dtilde] slice stack (left skew)
        mid = dtilde if skew == SKEW_LEFT else 1.0
        real[L] = mid
        side = center
        K = mid * side**p
        if R >= 1:
            real[L + 1] = side * mid
            for i in range(L + 2, t + 1):
                real[i] = real[i - 1] * (K / real[i - 1]) ** (1.0 / p)
        if L >= 1:
            real[L - 1] = side * mid / (dtilde if skew == SKEW_LEFT else 1.0)
            for i in range(L - 2, -1, -1):
                real[i] = real[i + 1] * (K / real[i + 1]) ** (1.0 / p)
    return real


def _ideal_exponents(L, C, R, skew, p, center, dtilde, d_c, t) -> dict:
    """Exponents of the unrounded construction (the generator's own target)."""
    real = _real_layer_sizes(L, C, R, skew, p, center, dtilde, d_c)
    degs = [0.0] * (t + 1)
    for i in range(1, t + 1):
        a, b = real[i - 1], real[i]
        in_left = L + 1 <= i <= L + C
        if in_left:
            ldeg = rdeg = d_c
        elif i == L and skew == SKEW_LEFT:
            ldeg, rdeg = dtilde, a * dtilde / b
        elif i == L + C + 1 and skew == SKEW_RIGHT and C >= 1:
            ldeg, rdeg = b * dtilde / a, dtilde
        elif i <= L:
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
    L, C, R = params.L, params.C, params.R
    t = params.t
    pf = float(p)
    if pf <= 1 and C >= 1:
        raise ValueError("layered builders need p > 1 for the decay recurrences")
    skew = params.skew
    if skew == SKEW_NONE:
        dt_real = 1.0
    else:
        if skew_exponent is None:
            skew_exponent = params.skew_exponent
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
    if C >= 1:
        if center_size < 2:
            raise ValueError("central layers need center_size >= 2")
        d_c = max(1, round((center_size / dtilde) ** (1.0 / C)))
        mprime = d_c**C
        center_actual = dtilde * mprime
        d_real = (center_size / dt_real) ** (1.0 / C)
    else:
        d_c = 1
        mprime = 1
        center_actual = dtilde
        d_real = float(center_size)

    ideal = _ideal_exponents(
        L, C, R, skew, pf, float(center_size), dt_real,
        d_real if C >= 1 else float(center_size), t,
    )
    real = _real_layer_sizes(
        L, C, R, skew, pf, float(center_actual) if C >= 1 else float(center_size),
        float(dtilde), float(d_c) if C >= 1 else float(center_size),
    )
    sizes = [max(1, math.floor(s + 1e-9)) for s in real]
    for i in range(L, L + C + 1):
        sizes[i] = center_actual

    gaps = []
    for i in range(1, t + 1):
        a, b = sizes[i - 1], sizes[i]
        if L + 1 <= i <= L + C:
            gaps.append(_Gap("grid", a, b, d=d_c, digit=i - L - 1,
                             dtilde=dtilde, mprime=mprime))
        elif i == L and skew == SKEW_LEFT:
            gaps.append(_Gap("junct_left", a, b, dtilde=dtilde, mprime=mprime))
        elif i == L + C + 1 and skew == SKEW_RIGHT:
            gaps.append(_Gap("junct_right", a, b, dtilde=dtilde, mprime=mprime))
        elif i <= L:
            if a < b:
                raise ValueError(f"left section must shrink, sizes {a} -> {b}")
            gaps.append(_Gap("contract", a, b))
        else:
            if a > b:
                raise ValueError(f"right section must grow, sizes {a} -> {b}")
            gaps.append(_Gap("expand", a, b))

    return LayeredInstance(
        t=t,
        p=pf,
        params=params,
        layer_sizes=tuple(sizes),
        gaps=tuple(gaps),
        provenance="CONSTRUCTED",
        predicted=ideal,
    )


def build_lcr(params: LcrParams, p, center_size: int) -> LayeredInstance:
    """Plain (L,C,R)-minimal spanner instance plus its biclique host.

    ``center_size`` is the target size of the central layers for C >= 1; for
    C = 0 the center is a single vertex and ``center_size`` is the size of
    the two layers beside it (equivalently their degree toward the center).
    """
    if params.skew != SKEW_NONE:
        raise ValueError("build_lcr builds plain shapes; use build_skewed")
    if params.C >= 1 and center_size < 2:
        raise ValueError("need center_size >= 2 for a central section")
    return _build_layered(params, p, center_size, None)


def build_skewed(params: LcrParams, p, center_size: int, skew_exponent=None) -> LayeredInstance:
    """Skewed minimal spanner interpolating between adjacent plain shapes.

    ``skew_exponent`` is log base center_size of the skew degree, ranging
    from 0 (exactly the plain (L,C,R) instance, edge for edge) to 1/(C+1)
    (the adjacent shape with the center grown by one layer).
    """
    if params.skew == SKEW_NONE:
        return _build_layered(params, p, center_size, 0.0)
    return _build_layered(params, p, center_size, skew_exponent)


def build_from_lp(solution: dict, n: int, seed: int, t: int | None = None,
                  p: float = 2.0) -> LayeredInstance:
    """Randomized layered instance realizing a feasible LP assignment.

    Layer i gets round(n**nu_i) vertices (capped at n); every vertex of
    layer i-1 draws min(ceil(d_i log n), n_i) random distinct neighbors in
    layer i, with a counter-keyed RNG so regeneration is reproducible and
    layers are independent.  The host connects u in V_0 to w in V_t exactly
    when the spanner has a forward path of length t, and construction
    asserts the reach lower bound Delta_t / 2**t for every source.
    """
    if t is None:
        t = max(
            int(name[2:]) for name in solution if name.startswith("nu")
        )
    log_n = math.log(n)
    sizes = []
    for i in range(t + 1):
        nu = float(solution[f"nu{i}"])
        size = max(1, round(n**nu))
        if size > n:
            if size > n + 1:
                raise ValueError(f"layer {i} size {size} exceeds the n cap")
            size = n
        sizes.append(size)
    inst_sizes = tuple(sizes)
    offsets = [0]
    for s in inst_sizes:
        offsets.append(offsets[-1] + s)
    edges = []
    neighbors_fwd: list[list[list[int]]] = []
    for i in range(1, t + 1):
        d_i = n ** float(solution[f"delta{i}"])
        want = min(int(math.ceil(d_i * math.log(n))), inst_sizes[i])
        layer_fwd = []
        for v in range(inst_sizes[i - 1]):
            rng = random.Random(((seed * 1_000_003 + i) * 1_000_003 + v) & 0x7FFFFFFF)
            targets = rng.sample(range(inst_sizes[i]), want)
            layer_fwd.append(targets)
            for w in targets:
                edges.append((offsets[i - 1] + v, offsets[i] + w))
        neighbors_fwd.append(layer_fwd)
    total = offsets[-1]
    spanner = Graph(total, sorted(set(edges)))
    # forward reachability per source in V_0
    delta_t = n ** float(solution.get("Delta", solution.get(f"Delta{t}", 0)))
    host_pairs = []
    for u in range(inst_sizes[0]):
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
        base_t = offsets[t]
        for w in sorted(frontier):
            host_pairs.append((u, base_t + w))
    return LayeredInstance(
        t=t,
        p=p,
        params=None,
        layer_sizes=inst_sizes,
        gaps=(),
        provenance="LP_SAMPLED",
        seed=seed,
        explicit_spanner=spanner,
        explicit_host_pairs=tuple(host_pairs),
    )


# -- tightness families (upper-bound matching instances) ----------------------


def _girth_supply(k: int, n: int, seed: int) -> Graph:
    """A girth >= 2k+1 near-regular graph on about n vertices (k in {2, 3})."""
    if k == 2:
        named = [("pg2_5", 62), ("pg2_4", 42), ("pg2_3", 26), ("pg2_2", 14)]
        for name, size in named:
            if size <= n:
                return named_girth_graph(name)
        return named_girth_graph("pg2_2") if n >= 14 else named_girth_graph("petersen")
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


def build_tightness(k: int, p, n: int, big_lambda: float, seed: int = 0) -> Graph:
    """Instance whose (2k-1)-spanners all have norm Omega(min(max-bound, Lambda)).

    Four cases split on p against k/(k-1) and Lambda against the n or
    n**((k+p)/(kp)) ceiling: trees (star plus path), clique plus star, a
    pruned high-girth graph, and clique plus high-girth graph.
    """
    if k not in (2, 3):
        raise ValueError("tightness instances are implemented for k in {2, 3}")
    pf = float(p)
    if not n ** (1 / pf) / 4 <= big_lambda <= 4 * n ** ((1 + pf) / pf):
        raise ValueError(f"Lambda {big_lambda} outside the representable range")
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
        m = int(big_lambda ** (pf / (1 + pf)))
        edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
        center = m
        edges += [(center, center + 1 + i) for i in range(n)]
        edges.append((0, center))
        return Graph(m + n + 1, edges)
    ceiling = n ** ((k + pf) / (k * pf))
    if big_lambda <= ceiling * 2:
        supply = _girth_supply(k, n, seed)
        g = _pad_to(supply, n)
        if lp_norm(g, pf) < big_lambda / 2:
            raise ValueError(
                f"Lambda {big_lambda} above the girth supply's norm "
                f"{lp_norm(g, pf):.4g}"
            )
        edges = list(g.edges)
        while lp_norm(Graph(n, edges), pf) > big_lambda and edges:
            edges.pop()
        out = Graph(n, edges)
        assert big_lambda / 2 <= lp_norm(out, pf) <= big_lambda * (1 + 1e-9)
        return out
    # Lambda too large for the high-girth graph alone: adjoin a clique sized
    # Lambda**(p/(1+p)) (consistent with ||clique||_p = Theta(Lambda); the
    # alternative exponent reading makes the norm overshoot)
    m = int(big_lambda ** (pf / (1 + pf)))
    supply = _girth_supply(k, max(n // 2, 14), seed)
    base = supply
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    offset = m
    edges += [(offset + u, offset + v) for u, v in base.edges]
    edges.append((0, offset))
    return Graph(m + base.n, edges)
