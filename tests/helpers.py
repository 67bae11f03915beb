"""Shared brute-force oracles and tiny graph builders for the test suite.

Everything here is deliberately independent of the library internals it is
used to check: distances come from Floyd-Warshall, girth from exhaustive
simple-cycle search, and so on.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from collections import deque
from fractions import Fraction

from hypothesis import strategies as st

from spanorm.extremal import _gap_forward, _lift_repair_rounds
from spanorm.graph_core import INFINITY, LENGTH_RTOL, Graph, within_hops
from spanorm.greedy import Spanner
from spanorm.lb_lp import ParameterError
from spanorm.simplex import LpSolution, _integer_rows, _integer_solve, _NeedsExact, solve_lp


def path_graph(k: int) -> Graph:
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> Graph:
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k: int) -> Graph:
    return Graph(k, list(itertools.combinations(range(k), 2)))


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def random_connected_graph(rng: random.Random, n: int, m: int) -> Graph:
    """Random connected graph: random spanning tree plus random extra edges."""
    assert m >= n - 1
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    all_pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(all_pairs)
    for u, v in all_pairs:
        if len(edges) >= m:
            break
        edges.add((u, v))
    return Graph(n, sorted(edges))


def reference_layered_text(inst, host: bool = False) -> str:
    """Edge-list text of a rule-based layered instance's spanner or host,
    collected gap by gap (plus the biclique V_0 x V_t for the host) and then
    deduplicated and sorted, with no reliance on the instance's edge order."""
    edges = []
    for i, gap in enumerate(inst.gaps):
        left, right = inst.offsets[i], inst.offsets[i + 1]
        edges += [(left + x, right + y) for x in range(gap.a) for y in _gap_forward(gap, x)]
    if host:
        edges += [(u, w) for u in range(inst.layer_sizes[0])
                  for w in range(inst.offsets[inst.t], inst.n)]
    edges = sorted(set(edges))
    return "".join([f"{inst.n} {len(edges)}\n", *(f"{u} {v}\n" for u, v in edges)])


def floyd_warshall(g: Graph) -> list[list[float]]:
    """All-pairs distances, independent of the library's BFS/Dijkstra."""
    n = g.n
    dist = [[math.inf] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0.0
    for u, v in g.edges:
        w = g.edge_length(u, v)
        dist[u][v] = min(dist[u][v], w)
        dist[v][u] = min(dist[v][u], w)
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == math.inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def brute_force_girth(g: Graph) -> float:
    """Shortest cycle length by DFS over all simple cycles (small graphs)."""
    best = math.inf
    adj = g.adjacency()

    def dfs(start: int, current: int, visited: set[int], depth: int) -> None:
        nonlocal best
        if depth >= best:
            return
        for nxt in adj[current]:
            if nxt == start and depth >= 2:
                best = min(best, depth + 1)
            elif nxt > start and nxt not in visited:
                visited.add(nxt)
                dfs(start, nxt, visited, depth + 1)
                visited.remove(nxt)

    for s in range(g.n):
        dfs(s, s, {s}, 0)
    return best


def reference_short_cycle(adj, limit: int, roots=None):
    """``graph_core.short_cycle`` as it stood before each root skipped the
    vertices below it: a truncated BFS from every root (or from ``roots``)
    over all of ``adj``, returning the first non-tree edge that closes a walk
    of at most ``limit`` edges as ``(length, x, y, root)``, or None."""
    n = len(adj)
    dist = [0] * n
    parent = [-1] * n
    stamp = [0] * n
    deepest = (limit - 1) // 2
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


def reference_cycle_free(adj, limit: int) -> bool:
    """True iff ``adj`` has no cycle of at most ``limit`` edges, read off the
    plain first-hit search ``reference_short_cycle`` over every root."""
    return reference_short_cycle(adj, limit) is None


def reference_min_vertex_verdict(adj, limit: int):
    """The min-vertex girth verdict one root at a time: the length of the
    first hit of the plain search from root s alone in a copy of G[>= s],
    over s in id order; None iff no root hits."""
    for s in range(len(adj)):
        hit = reference_short_cycle([[y for y in nbrs if y >= s] for nbrs in adj], limit, [s])
        if hit is not None:
            return hit[0]
    return None


def reference_lp_norm(degrees, p) -> float:
    """The per-vertex lp norm as ``lp_norm`` computed it before
    ``graph_core.degree_norm``; the kernel must agree bit for bit."""
    if p is INFINITY:
        return float(max(degrees, default=0))
    if not any(degrees):
        return 0.0
    if p == 1:
        return float(sum(degrees))
    return math.fsum(d**p for d in degrees if d) ** (1.0 / p)


def reference_counter_norm(counts, p) -> float:
    """The degree-histogram lp norm as the virtual instances computed it
    before ``graph_core.degree_norm``; the kernel must agree bit for bit."""
    if p is INFINITY:
        return float(max((d for d in counts if counts[d]), default=0))
    total = math.fsum(cnt * float(d) ** float(p) for d, cnt in counts.items() if d)
    return total ** (1.0 / float(p)) if total else 0.0


def one_sided_greedy(g: Graph, t: int) -> tuple[tuple[int, int], ...]:
    """Kept edges of the unit-length greedy t-spanner, one plain BFS per edge.

    With unit lengths the greedy order is the sorted edge order; an edge is
    kept iff the BFS from u over the kept edges, cut at depth t, misses v.
    """
    adj: list[list[int]] = [[] for _ in range(g.n)]
    kept = []
    for u, v in g.edges:
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            if dist[x] == t:
                continue
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if v not in dist:
            kept.append((u, v))
            adj[u].append(v)
            adj[v].append(u)
    return tuple(kept)


def reference_unit_greedy(g: Graph, t: int) -> tuple[tuple[int, int], ...]:
    """Kept edges of the unit-length greedy t-spanner, one bidirectional
    ``within_hops`` query per edge (the library's unit greedy before it
    cached one ball per source vertex)."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    kept = []
    stamp = [0] * g.n
    for tick, (u, v) in enumerate(g.edges, start=1):
        if not within_hops(adj, u, v, t, stamp, tick):
            kept.append((u, v))
            adj[u].append(v)
            adj[v].append(u)
    return tuple(kept)


def reference_spans_by_hops(adj, edges, t: int) -> bool:
    """True iff every edge (u, v) has d(u,v) <= t in ``adj``: one
    ``within_hops`` query per edge."""
    stamp = [0] * len(adj)
    return all(
        within_hops(adj, u, v, t, stamp, tick)
        for tick, (u, v) in enumerate(edges, start=1)
    )


def reference_weighted_greedy(g: Graph, t: int) -> tuple[tuple[int, int], ...]:
    """Kept edges of the weighted greedy t-spanner, one full Dijkstra per edge.

    Edges are scanned by (length, u, v); an edge of length w is kept iff the
    distance from u to v over the kept edges exceeds t*w.  No tolerance: on
    small integer lengths every sum is exact.
    """
    adj: list[list[tuple[int, float]]] = [[] for _ in range(g.n)]
    kept = []
    for u, v in sorted(g.edges, key=lambda e: (g.edge_length(*e), e)):
        w = g.edge_length(u, v)
        dist = {u: 0.0}
        heap = [(0.0, u)]
        while heap:
            dx, x = heapq.heappop(heap)
            if dx > dist[x]:
                continue
            for y, wy in adj[x]:
                if dx + wy < dist.get(y, math.inf):
                    dist[y] = dx + wy
                    heapq.heappush(heap, (dx + wy, y))
        if dist.get(v, math.inf) > t * w:
            kept.append((u, v))
            adj[u].append((v, w))
            adj[v].append((u, w))
    return tuple(kept)


def reference_within_length(adj, lengths, u: int, v: int, cap: float) -> bool:
    """``graph_core.within_length`` as it stood before it searched from both
    ends: one Dijkstra from ``u`` that never labels past the bound and stops
    at the first label on ``v``.  A referee for the bidirectional search."""
    bound = cap * (1.0 + LENGTH_RTOL)
    if u == v:
        return bound >= 0
    dist = {u: 0.0}
    heap = [(0.0, u)]
    while heap:
        dx, x = heapq.heappop(heap)
        if dx > dist[x]:
            continue
        for y in adj[x]:
            nd = dx + lengths[(x, y) if x < y else (y, x)]
            if nd <= bound and nd < dist.get(y, math.inf):
                if y == v:
                    return True
                dist[y] = nd
                heapq.heappush(heap, (nd, y))
    return False


def verify_stretch_all_pairs(g: Graph, h: Spanner | Graph, t: float) -> bool:
    """All-pairs stretch check via Floyd-Warshall on both graphs, with the
    library's relative tolerance ``LENGTH_RTOL``: every pair of ``g`` is
    within ``t`` times its distance in ``h``, and unreachable in ``g`` iff in
    ``h``.  Exact on integer and dyadic lengths, whose sums do not round."""
    dg = floyd_warshall(g)
    dh = floyd_warshall(h.graph() if isinstance(h, Spanner) else h)
    for u in range(g.n):
        for v in range(g.n):
            if dg[u][v] == math.inf:
                if dh[u][v] != math.inf:
                    return False
            elif dh[u][v] > t * dg[u][v] * (1.0 + LENGTH_RTOL):
                return False
    return True


@st.composite
def unit_graphs(draw, max_n: int = 12) -> Graph:
    """Hypothesis strategy: unit-length graphs on 1..max_n vertices, often
    disconnected, edgeless included."""
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, sorted(edges))


@st.composite
def bipartite_graphs(draw, max_n: int = 14) -> tuple[Graph, Graph]:
    """Hypothesis strategy: a random bipartite graph on 2..max_n vertices, its
    sides shuffled over the ids, and a copy with one more edge, which may
    join two vertices of one side."""
    n = draw(st.integers(2, max_n))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    across = [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]]
    edges = draw(st.sets(st.sampled_from(across))) if across else set()
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    extra = draw(st.sampled_from(others)) if others else None
    plus = edges if extra is None else edges | {extra}
    return Graph(n, sorted(edges)), Graph(n, sorted(plus))


@st.composite
def small_connected_graphs(draw) -> Graph:
    """Hypothesis strategy: connected graphs on 3..7 vertices with at most 12
    edges, unit-length or with integer lengths 1..3 (the oracle's scale)."""
    n = draw(st.integers(3, 7))
    label = draw(st.permutations(range(n)))
    tree = set()
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        u, v = label[i], label[j]
        tree.add((min(u, v), max(u, v)))
    rest = [e for e in itertools.combinations(range(n), 2) if e not in tree]
    extra = draw(st.sets(st.sampled_from(rest), max_size=12 - len(tree))) if rest else set()
    edges = sorted(tree | extra)
    if not draw(st.booleans()):
        return Graph(n, edges)
    lengths = draw(st.lists(st.integers(1, 3), min_size=len(edges), max_size=len(edges)))
    return Graph(n, edges, dict(zip(edges, lengths)))


def seeded_oracle_case(seed: int):
    """``(g, t, p)`` for oracle regression pins: a connected graph on 4..8
    vertices with at most 16 edges, weighted (lengths 1..5) for odd seeds."""
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    m = rng.randint(n - 1, min(n * (n - 1) // 2, 16))
    g = random_connected_graph(rng, n, m)
    if seed % 2:
        g = Graph(n, g.edges, {e: rng.randint(1, 5) for e in g.edges})
    t = rng.choice([2, 3, 5])
    p = rng.choice([1, 2, Fraction(5, 2), INFINITY])
    return g, t, p


def fraction_gauss_jordan(mat, vec):
    """Plain ``Fraction`` Gauss-Jordan: the solution list, or None if singular."""
    n = len(vec)
    m = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(mat, vec)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def float_dense_solve(mat, vec):
    """The float Gauss-Jordan of ``simplex._dense_solve`` as it stood before
    the solver gained its integer branch; float results must not move."""
    n = len(vec)
    m = [list(row) + [v] for row, v in zip(mat, vec)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[piv][col] == 0:
            raise ZeroDivisionError("singular basis matrix")
        m[col], m[piv] = m[piv], m[col]
        prow = m[col]
        inv = prow[col]
        if inv != 1:
            m[col] = prow = [v / inv for v in prow]
        nonzero = [j for j in range(col, n + 1) if prow[j] != 0]
        for r in range(n):
            if r == col:
                continue
            row_r = m[r]
            factor = row_r[col]
            if factor == 0:
                continue
            for j in nonzero:
                row_r[j] -= factor * prow[j]
    return [m[r][n] for r in range(n)]


def dense_certified_exact(prog, basis) -> LpSolution:
    """``simplex._certified_exact`` as it stood before it solved on the
    tight-row core: both integer solves run on the whole m x m basis."""
    irows = _integer_rows([*row, rhs] for row, rhs in zip(prog.rows, prog.rhs))
    try:
        xrows, xden = _integer_solve([[row[j] for j in basis] + [row[-1]] for row in irows])
        zrows, zden = _integer_solve(
            _integer_rows([row[j] for row in irows] + [prog.full_c[j]] for j in basis)
        )
    except ZeroDivisionError:
        raise _NeedsExact
    xnum, znum = [v for v, in xrows], [v for v, in zrows]
    basic = dict(zip(basis, xnum))
    if any(v < 0 for v in xnum) or any(basic.get(j, 0) > 0 for j in prog.art_cols):
        raise _NeedsExact
    skip = set(basis).union(prog.art_cols)
    zrows = [(row, z) for row, z in zip(irows, znum) if z]
    for j in range(prog.width):
        if j in skip:
            continue
        cnum, cden = prog.full_c[j].as_integer_ratio()
        if cnum * zden < cden * sum(row[j] * z for row, z in zrows):
            raise _NeedsExact
    x = [Fraction(basic.get(j, 0), xden) for j in range(prog.n)]
    objective = sum((ci * xi for ci, xi in zip(prog.c, x) if ci), Fraction(0))
    duals = tuple(
        Fraction((-z if flip else z) * row[j], zden)
        for z, row, j, flip in zip(znum, irows, prog.start_basis, prog.flipped)
    )
    return LpSolution(objective=objective, x=tuple(x), duals=duals)


def full_lb_model(t: int, p, lam) -> tuple:
    """``(var_names, row_names, rows, rhs)`` of the full lower-bound LP at
    (t, p, lambda), the reference for ``lb_lp.build_model``'s relaxation.

    Rows (1)-(9) keep a reachability exponent Delta_i per layer where the
    relaxed program aggregates one spanning row and one Delta.  Every row
    is ``coeffs . x >= rhs`` except ``ddef``, an equality; an int p becomes
    a Fraction, so the coefficients take the library model's types.
    """
    p = Fraction(p) if type(p) is int else p
    one_over_p, q = 1 / p, (p - 1) / p
    layers = range(1, t + 1)
    var_names = ("ell", *(f"nu{i}" for i in range(t + 1)), *(f"delta{i}" for i in layers),
                 *(f"Delta{i}" for i in layers))
    rows = []

    def add(name, coeffs, r):
        rows.append((name, tuple(coeffs.get(v, 0) for v in var_names), r))

    for i in layers:
        # (1) left degree-norm: ell - nu_{i-1}/p - delta_i >= 0
        add(f"left{i}", {"ell": 1, f"nu{i - 1}": -one_over_p, f"delta{i}": -1}, 0)
    for i in layers:
        # (2) right degree-norm: ell + q*nu_i - nu_{i-1} - delta_i >= 0
        add(f"right{i}", {"ell": 1, f"nu{i}": q, f"nu{i - 1}": -1, f"delta{i}": -1}, 0)
    for i in layers:
        # (3) degree at most layer size
        add(f"degsize{i}", {f"nu{i}": 1, f"delta{i}": -1}, 0)
    for i in layers:
        # (4) expansion: nu_{i-1} + delta_i - nu_i >= 0
        add(f"grow{i}", {f"nu{i - 1}": 1, f"delta{i}": 1, f"nu{i}": -1}, 0)
    # (5) Delta_1 = delta_1
    add("ddef", {"Delta1": 1, "delta1": -1}, 0)
    for i in layers[1:]:
        # (6) reachability product
        add(f"dgrow{i}", {f"Delta{i - 1}": 1, f"delta{i}": 1, f"Delta{i}": -1}, 0)
    for i in layers[1:]:
        # (7) reachability capped by layer size
        add(f"dsize{i}", {f"nu{i}": 1, f"Delta{i}": -1}, 0)
    # (8) density
    add("density", {"nu0": one_over_p, f"Delta{t}": 1}, lam)
    for i in range(t + 1):
        # (9) layer sizes at most n
        add(f"size{i}", {f"nu{i}": -1}, -1)
    return (var_names, *zip(*rows))


def solve_full_lb(t: int, p, lam, exact: bool = False) -> tuple:
    """``(sol, duals)``: ``simplex.solve_lp``'s answer on ``full_lb_model``,
    its ``>=`` rows negated into ``A_ub`` and ``ddef`` as ``A_eq``, and the
    duals by row name in ``lb_lp.solve``'s sign convention: u = -y on the
    ``>=`` rows, u = y on ``ddef``.  As in ``lb_lp.solve``, an exact solve
    of a float p or lambda raises ``ParameterError``."""
    if exact and (isinstance(p, float) or isinstance(lam, float)):
        raise ParameterError("exact solve needs int or Fraction p and lambda")
    var_names, names, rows, rhs = full_lb_model(t, p, lam)
    ge = [i for i, name in enumerate(names) if name != "ddef"]
    eq = names.index("ddef")
    sol = solve_lp([int(v == "ell") for v in var_names], [[-v for v in rows[i]] for i in ge],
                   [-rhs[i] for i in ge], [rows[eq]], [rhs[eq]], exact=exact)
    duals = {names[i]: -y for i, y in zip(ge, sol.duals)}
    duals["ddef"] = sol.duals[-1]
    return sol, duals


def reference_bipartite_lift(side: int, degree: int, min_girth: int, seed: int) -> Graph:
    """``extremal.random_bipartite_lift`` as it stood before its repair rounds
    rescanned only the roots an edit can reach: every round restarts the
    plain cycle search ``reference_short_cycle`` at root 0."""
    if min_girth % 2 == 1:
        min_girth += 1
    rng = random.Random(seed)
    perms = [rng.sample(range(side), side) for _ in range(degree)]
    adj: list[list[int]] = [[] for _ in range(2 * side)]
    for perm in perms:
        for i, j in enumerate(perm):
            adj[i].append(side + j)
            adj[side + j].append(i)
    limit = min_girth - 1

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
        nonlocal queries
        target = side + right_vertex
        if adj[left].count(target) > 1:
            return False
        i, j = adj[left].index(target), adj[target].index(left)
        del adj[left][i], adj[target][j]
        queries += 1
        clean = not within_hops(adj, left, target, limit - 1, stamp, queries)
        adj[left].insert(i, target)
        adj[target].insert(j, left)
        return clean

    def find_short_cycle():
        for i in range(side):
            seen = {}
            for k in range(degree):
                if perms[k][i] in seen:
                    return i, k
                seen[perms[k][i]] = k
        hit = reference_short_cycle(adj, limit)
        if hit is None:
            return None
        x, y = hit[1], hit[2]
        left, right = (x, y - side) if x < side else (y, x - side)
        for k in range(degree):
            if perms[k][left] == right:
                return left, k
        return left, 0

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
            swap(k, i, j)
        if not placed:
            j = rng.randrange(side)
            if j != i:
                swap(k, i, j)
    else:
        raise RuntimeError("girth repair did not converge")
    return Graph(2 * side, [(i, side + j) for perm in perms for i, j in enumerate(perm)])


@st.composite
def square_systems(draw, entries, zero=0, max_n: int = 7):
    """Hypothesis strategy: ``(mat, vec)`` with n in 1..max_n, each entry
    ``zero`` about half the time and otherwise drawn from ``entries``."""
    n = draw(st.integers(1, max_n))
    entry = st.one_of(st.just(zero), entries)
    mat = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    vec = draw(st.lists(entry, min_size=n, max_size=n))
    return mat, vec
