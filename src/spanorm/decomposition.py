"""Vertex classes of high-girth graphs and executable checks of their bounds.

A graph of girth at least 2k+1 decomposes (as a cover, not a partition) into
low-degree vertices, medium vertices whose (k-1)-layer is large relative to
their degree, and high vertices indexed by the layer j at which their degree
is large relative to the local expansion.  Each class contributes O(n) to
the k/(k-1)-norm; the functions here compute the classes, the contributions,
and the structural sums (the heavy-degree mass at girth 5 and the layer
ratio sum Phi) exactly, so the inequalities can be asserted on real graphs.

Layer counts.  Every class and Phi read the hop-layer sizes d_j(v) for
j <= r (r = k).  At girth >= 2r+1 they come from one table of
non-backtracking walk counts, O(r m) in all; below it, from a BFS per vertex
(:func:`~spanorm.graph_core.layer_profile`, the definition).  Each public call
makes one girth verdict and reuses it: :func:`check_coverage` and
:func:`class_contributions` refuse girth < 2k+1 before any counting,
:func:`classify` and :func:`phi` pick the path with it, and :func:`phi` also
reads it for its ``<= 2n`` assertion.  The verdict is
:func:`~spanorm.graph_core.girth_at_least`'s, and the ``Graph`` keeps its
proof: calls at one bound on one graph scan for cycles once between them,
and a graph from :func:`~spanorm.extremal.random_bipartite_lift`, whose
final check proved girth >= ``min_girth - 1``, is not scanned at all below
that bound.

A walk v = x_0, x_1, ..., x_j is non-backtracking if x_{i+1} != x_{i-1};
c_j(v) counts those of length j from v.  They obey

    c_0(v) = 1,  c_1(v) = deg(v),  c_2(v) = sum_{x in N(v)} c_1(x) - deg(v),
    c_{j+1}(v) = sum_{x in N(v)} c_j(x) - (deg(v) - 1) c_{j-1}(v)   (j >= 2):

a walk of length j+1 is a step v -> x and then a walk of length j from x
that does not step straight back to v.  Those that do are x, v followed by
a walk of length j-1 from v whose first step is not x: one for each x when
j = 1, and for j >= 2 each walk of length j-1 from v is counted for every
neighbour but its own first step, deg(v) - 1 times in the sum over x.

Claim: at girth >= 2j+1, c_j(v) = d_j(v), so the table up to r is exact at
girth >= 2r+1.  (a) Such a walk repeats no vertex: at the first repeat
x_b = x_a (a < b), b - a = 1 would be a loop and b - a = 2 a backtrack, so
x_a .. x_b is a cycle of b - a <= j edges, shorter than the girth.  So the
walk is a path of j edges and its end lies within j hops.  (b) If two walks
end at one vertex u, or one ends at u with dist(v, u) < j (compare it with
a shortest path, which is shorter, hence different), two different paths
from v to u of at most j edges each exist, and their union holds a cycle of
at most 2j edges, again shorter than the girth.  So the end map is
one-to-one into layer j.  (c) A shortest path to a vertex of layer j is
such a walk, so the map is onto.

Rows stop early, and a reader takes a missing row as all zeros.  Every walk
of length j+1 extends one of length j, so after an all-zero row every row
is zero, and the walk table stops before its first one.  On the BFS path
no vertex has a layer past n - 1, so no BFS runs past that radius, and
trailing all-zero rows are dropped.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .graph_core import Graph, girth_at_least, layer_profile, subset_norm

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "ClassContributions",
    "GirthTooSmallError",
    "PhiUndefinedError",
    "VertexClasses",
    "check_coverage",
    "class_contributions",
    "classify",
    "heavy_mass",
    "peel_low_degree",
    "phi",
]

# Ties on the real-valued thresholds count as membership; the guard keeps
# float rounding from ever breaking coverage.
THRESHOLD_GUARD = 1e-9


class GirthTooSmallError(ValueError):
    """The operation's girth precondition does not hold."""


class PhiUndefinedError(ZeroDivisionError):
    """Phi hit a vertex with neighbors but an empty k-th layer."""

    def __init__(self, vertex: int, k: int):
        self.vertex = vertex
        self.k = k
        super().__init__(f"d_{k}(v) = 0 for vertex {vertex} with neighbors")


class VertexClasses(NamedTuple):
    """The (possibly overlapping) cover V_low, V_med, V_high_j."""

    k: int
    low: frozenset
    med: frozenset
    high: dict  # j -> frozenset

    def union(self) -> frozenset:
        out = set(self.low) | set(self.med)
        for members in self.high.values():
            out |= members
        return frozenset(out)

    def multiplicity(self, v: int) -> int:
        count = int(v in self.low) + int(v in self.med)
        count += sum(1 for members in self.high.values() if v in members)
        return count


def _check_k(k) -> None:
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError(f"k must be an integer, got {k!r}")


def _walk_rows(g: Graph, radius: int) -> list:
    """``rows[j][v] = c_j(v)``, the non-backtracking walk counts, for j up to
    ``radius`` or the last non-zero row (see the module docstring)."""
    rows: list = [[1] * g.n]
    deg = g.degrees()
    if radius < 1 or not any(deg):
        return rows
    rows.append(deg)
    adj = g.adjacency()
    less = [d - 1 for d in deg]
    # what c_{j+1} subtracts: deg * c_0 at j = 1, (deg - 1) * c_{j-1} after
    back, cur = deg, deg
    for _ in range(radius - 1):
        get = cur.__getitem__
        nxt = [sum(map(get, nbrs)) - b for nbrs, b in zip(adj, back)]
        if not any(nxt):
            break
        rows.append(nxt)
        back = [a * c for a, c in zip(less, cur)]
        cur = nxt
    return rows


def _layer_rows(g: Graph, radius: int, tree_balls: bool) -> list:
    """``rows[j][v] = d_j(v)`` for j up to ``radius`` or the last non-empty
    layer: walk counts when ``tree_balls`` (girth >= 2 radius + 1), else a
    BFS per vertex."""
    if tree_balls:
        return _walk_rows(g, radius)
    reach = min(radius, g.n - 1)
    rows = list(zip(*(layer_profile(g, v, reach).counts for v in range(g.n))))
    while rows and not any(rows[-1]):
        rows.pop()
    return rows


def _row(rows: list, j: int, n: int):
    """Layer j of ``rows``: all zeros past the last row built."""
    return rows[j] if j < len(rows) else [0] * n


def _check_classifiable(g: Graph, k: int) -> None:
    if k < 3:
        raise ValueError(f"classification needs k >= 3, got {k} "
                         "(stretch-3 analysis is the low/high split at girth 5)")
    if g.weighted:
        raise ValueError("classification is defined on unit-length graphs")


def _classes(g: Graph, k: int, rows: list) -> VertexClasses:
    n = g.n
    d1 = _row(rows, 1, n)
    cap = n ** (1 / k) + THRESHOLD_GUARD
    low = frozenset(v for v, c in enumerate(d1) if c <= cap)
    scale = n ** ((k - 2) / (k - 1))
    med = frozenset(
        v
        for v, (c, top) in enumerate(zip(d1, _row(rows, k - 1, n)))
        if scale * c ** (1 / (k - 1)) <= top + THRESHOLD_GUARD
    )
    spread = n ** (1 / (k - 1))
    tails = [c ** ((k - 2) / (k - 1)) for c in d1]
    high: dict = {}
    everyone = frozenset(range(n))
    for j in range((k - 3) // 2 + 1):
        if k - 2 * j - 1 >= len(rows):
            # an empty layer is at most any threshold
            high[j] = everyone
            continue
        outer, inner = rows[k - 2 * j - 1], rows[k - 2 * j - 3]
        high[j] = frozenset(
            v
            for v, (c, b, tail) in enumerate(zip(outer, inner, tails))
            if c <= spread * b * tail + THRESHOLD_GUARD
        )
    return VertexClasses(k=k, low=low, med=med, high=high)


def classify(g: Graph, k: int) -> VertexClasses:
    """Compute V_low, V_med, and V_high_j for j = 0..floor((k-3)/2).

    Membership follows the literal inequalities on exact layer counts, with
    real-valued thresholds compared inclusively.  Degenerate vertices (zero
    layer counts) land in the high classes since 0 <= anything.
    """
    _check_k(k)
    _check_classifiable(g, k)
    return _classes(g, k, _layer_rows(g, k, girth_at_least(g, 2 * k + 1)))


def check_coverage(g: Graph, k: int) -> bool:
    """True iff every vertex lands in some class; guaranteed at girth >= 2k+1."""
    _check_k(k)
    if k < 3:
        raise ValueError(f"coverage needs k >= 3, got {k}")
    if not girth_at_least(g, 2 * k + 1):
        raise GirthTooSmallError(
            f"coverage requires girth >= {2 * k + 1}; the graph has a shorter cycle"
        )
    _check_classifiable(g, k)
    classes = _classes(g, k, _layer_rows(g, k, True))
    return len(classes.union()) == g.n


class ClassContributions(NamedTuple):
    """k/(k-1)-norm of each class, with the slack against its O(n) bound."""

    k: int
    p: float
    norms: dict  # 'low' | 'med' | ('high', j) -> float
    bounds: dict  # same keys -> asserted bound (None when not asserted)
    min_degree: int

    def slack(self, key) -> float | None:
        if self.bounds.get(key) is None:
            return None
        return self.bounds[key] - self.norms[key]


def class_contributions(g: Graph, k: int) -> ClassContributions:
    """Per-class norm at p = k/(k-1), checked against the n / n / 8n bounds.

    The low and medium bounds hold at girth >= 2k+1; the high bound is
    asserted only when the minimum degree is at least 4.
    """
    _check_k(k)
    if not girth_at_least(g, 2 * k + 1):
        raise GirthTooSmallError(f"contributions require girth >= {2 * k + 1}")
    _check_classifiable(g, k)
    classes = _classes(g, k, _layer_rows(g, k, True))
    p = k / (k - 1)
    min_deg = min(g.degrees(), default=0)
    norms: dict = {
        "low": subset_norm(g, classes.low, p),
        "med": subset_norm(g, classes.med, p),
    }
    bounds: dict = {"low": float(g.n), "med": float(g.n)}
    for j, members in classes.high.items():
        norms[("high", j)] = subset_norm(g, members, p)
        bounds[("high", j)] = 8.0 * g.n if min_deg >= 4 else None
    for key, bound in bounds.items():
        if bound is not None and norms[key] > bound * (1 + 1e-12):
            raise AssertionError(
                f"class {key} norm {norms[key]:.6g} exceeds its bound {bound:.6g}"
            )
    return ClassContributions(
        k=k, p=p, norms=norms, bounds=bounds, min_degree=min_deg
    )


def phi(g: Graph, k: int) -> Fraction:
    """Phi(k) = sum over w, v in N(w) of d_{k-1}(v)/d_k(w), exactly.

    At girth >= 2k+1 with minimum degree >= 4 the value is at most 2n, and
    the function asserts that.  A vertex with neighbors but d_k(w) = 0
    raises :class:`PhiUndefinedError` naming the vertex (cannot happen under
    the preconditions).
    """
    from fractions import Fraction

    _check_k(k)
    if k < 1:
        raise ValueError(f"phi needs k >= 1, got {k}")
    tree_balls = girth_at_least(g, 2 * k + 1)
    rows = _layer_rows(g, k, tree_balls)
    get = _row(rows, k - 1, g.n).__getitem__
    # numerators summed per denominator d_k(w): one Fraction per distinct one
    sums: dict = {}
    for w, (nbrs, dk) in enumerate(zip(g.adjacency(), _row(rows, k, g.n))):
        if not nbrs:
            continue
        if dk == 0:
            raise PhiUndefinedError(w, k)
        sums[dk] = sums.get(dk, 0) + sum(map(get, nbrs))
    total = sum((Fraction(num, dk) for dk, num in sums.items()), Fraction(0))
    if tree_balls and min(g.degrees(), default=0) >= 4:
        assert total <= 2 * g.n, f"Phi({k}) = {total} exceeds 2n = {2 * g.n}"
    return total


def heavy_mass(g: Graph) -> int:
    """Total degree of vertices with degree >= 2 sqrt(n).

    At girth >= 5 this is at most 2n (two heavy vertices share at most one
    neighbor); the value is returned unconditionally so callers can inspect
    low-girth graphs too.
    """
    threshold = 2 * math.sqrt(g.n)
    return sum(d for d in g.degrees() if d >= threshold)


class PeelResult(NamedTuple):
    """Outcome of min-degree-4 peeling: same vertex ids, peeled ones isolated."""

    graph: Graph
    core: frozenset
    removed: tuple[int, ...]


def peel_low_degree(g: Graph) -> PeelResult:
    """Repeatedly delete a vertex of degree <= 3 (lowest id first).

    Returns the peeled graph on the same vertex set (peeled vertices become
    isolated) plus the removal order; each removal changes the degree vector
    by at most 6 in the l1 norm, which the tests assert step by step.
    """
    adj = {v: set(g.neighbors(v)) for v in range(g.n)}
    alive = set(range(g.n))
    removed = []
    while True:
        candidate = min(
            (v for v in alive if len(adj[v]) <= 3),
            default=None,
        )
        if candidate is None:
            break
        alive.discard(candidate)
        removed.append(candidate)
        for u in adj[candidate]:
            adj[u].discard(candidate)
        adj[candidate] = set()
    edges = [
        (u, v) for u in alive for v in adj[u] if u < v
    ]
    return PeelResult(
        graph=Graph(g.n, sorted(edges)),
        core=frozenset(alive),
        removed=tuple(removed),
    )
