"""Vertex classes of high-girth graphs and executable checks of their bounds.

A graph of girth at least 2k+1 decomposes (as a cover, not a partition) into
low-degree vertices, medium vertices whose (k-1)-layer is large relative to
their degree, and high vertices indexed by the layer j at which their degree
is large relative to the local expansion.  Each class contributes O(n) to
the k/(k-1)-norm; the functions here compute the classes, the contributions,
and the structural sums (the heavy-degree mass at girth 5 and the layer
ratio sum Phi) exactly, so the inequalities can be asserted on real graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graph_core import Graph, girth_at_least, layer_profile, subset_norm

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


@dataclass(frozen=True)
class VertexClasses:
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


def _layer_counts(g: Graph, radius: int) -> list[tuple[int, ...]]:
    return [layer_profile(g, v, radius).counts for v in range(g.n)]


def classify(g: Graph, k: int) -> VertexClasses:
    """Compute V_low, V_med, and V_high_j for j = 0..floor((k-3)/2).

    Membership follows the literal inequalities on exact layer counts, with
    real-valued thresholds compared inclusively.  Degenerate vertices (zero
    layer counts) land in the high classes since 0 <= anything.
    """
    if k < 3:
        raise ValueError(f"classification needs k >= 3, got {k} "
                         "(stretch-3 analysis is the low/high split at girth 5)")
    if g.weighted:
        raise ValueError("classification is defined on unit-length graphs")
    n = g.n
    counts = _layer_counts(g, k)
    low = frozenset(
        v for v in range(n) if counts[v][1] <= n ** (1 / k) + THRESHOLD_GUARD
    )
    med = frozenset(
        v
        for v in range(n)
        if n ** ((k - 2) / (k - 1)) * counts[v][1] ** (1 / (k - 1))
        <= counts[v][k - 1] + THRESHOLD_GUARD
    )
    high: dict = {}
    for j in range((k - 3) // 2 + 1):
        thresh = lambda v: (
            n ** (1 / (k - 1))
            * counts[v][k - 2 * j - 3]
            * counts[v][1] ** ((k - 2) / (k - 1))
        )
        high[j] = frozenset(
            v
            for v in range(n)
            if counts[v][k - 2 * j - 1] <= thresh(v) + THRESHOLD_GUARD
        )
    return VertexClasses(k=k, low=low, med=med, high=high)


def check_coverage(g: Graph, k: int) -> bool:
    """True iff every vertex lands in some class; guaranteed at girth >= 2k+1."""
    if k < 3:
        raise ValueError(f"coverage needs k >= 3, got {k}")
    if not girth_at_least(g, 2 * k + 1):
        raise GirthTooSmallError(
            f"coverage requires girth >= {2 * k + 1}; the graph has a shorter cycle"
        )
    classes = classify(g, k)
    return len(classes.union()) == g.n


@dataclass(frozen=True)
class ClassContributions:
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
    if not girth_at_least(g, 2 * k + 1):
        raise GirthTooSmallError(f"contributions require girth >= {2 * k + 1}")
    classes = classify(g, k)
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
    if k < 1:
        raise ValueError(f"phi needs k >= 1, got {k}")
    counts = _layer_counts(g, k)
    total = Fraction(0)
    for w in range(g.n):
        if not g.neighbors(w):
            continue
        dk = counts[w][k]
        if dk == 0:
            raise PhiUndefinedError(w, k)
        total += Fraction(sum(counts[v][k - 1] for v in g.neighbors(w)), dk)
    if min(g.degrees(), default=0) >= 4 and girth_at_least(g, 2 * k + 1):
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


@dataclass(frozen=True)
class PeelResult:
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
