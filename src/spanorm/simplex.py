"""Small dense-tableau simplex solver for the lower-bound LP.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0  by the
two-phase method.  The LPs this package produces have at most a few dozen
rows and columns, so a dense tableau is entirely adequate; what matters is
that the same code runs either in floating point or in exact rational
arithmetic over ``fractions.Fraction``.

Float mode prices by the most negative reduced cost and switches to Bland's
rule after a run of degenerate pivots (anti-cycling).  Every answer leaves
through one exit, a certificate of the final basis rebuilt against the
original data: the basic values must be feasible and every reduced cost
non-negative.  The ladder has two rungs.  A float run is certified within
``VERIFY_TOL``.  Exact mode certifies the float run's basis exactly; if that
basis is refused, it pivots fully in exact arithmetic and certifies the
basis it ends in, and a refusal there is a ``SimplexError``, never a silent
fallback.  A float run whose certificate fails, or that meets a column with a
negative reduced cost and no pivot row (unbounded, or round-off), climbs the
exact rung on the rationals ``Fraction(float(v))`` of its own data and casts
the answer back; exact pivoting then raises ``Unbounded`` or finds an optimum.

A certificate splits in two.  The duals and the reduced-cost verdict do
not read the rhs, and the basic values are affine in the rhs of any one
row.  ``_part`` makes, for one such row, what one rung's certificate of a
basis needs at every rhs of that row: the float duals for the float rung,
or for the exact rung the exact duals with x_K(s) = (u + s w) / den and
the unit rows' residues, affine in the shift s.  ``_exact_at`` reads the
exact part at a shift in integer sign checks; ``_certified_from_basis``
takes stored float duals and solves the float basic values at the
program's own rhs, so float bits do not move.  A shift must keep the
row's sign, since the program negates the rows with a negative rhs and
the parts hold that choice.  ``lb_lp`` keeps each part per basis and
rung, made when that rung first asks: its density lambda moves one rhs,
and lambda > 0 keeps its sign.  ``_certified_exact`` is the same two steps
at s = 0, so there is one exact certificate.

One LP solved both ways pivots in float once.  ``solve_lp`` runs its own
float pivot each call; ``lb_lp.solve`` passes ``_solve`` a list kept on the
model, which holds the basis of the model's one float run that returned, and
the other rung reads it there: the exact rung certifies that basis and does
not rerun the float pivot.  The run is deterministic in its data, so every
answer is the one a fresh run would give.

The certificate returns the optimal duals with the primal: ``duals`` holds
one multiplier ``y_i`` per input row, ``A_ub`` rows first, such that
``A^T y <= c`` column by column, ``y_i <= 0`` on the ``A_ub`` rows, and
``b.y = c.x`` (exactly in exact mode).

Exact linear solves are integer fraction-free elimination: each rational
row is scaled to integers by the lcm of its denominators, Gauss-Jordan runs
on Python ints, and a ``Fraction`` is built only for each answer.  The
exact basis certificate eliminates only the basis's core: a basic slack or
artificial column is a unit column, so its row gives its value directly and
its multiplier is 0, and only the tight rows by the basic structural columns
are solved (see ``_certified_exact``).  It reads every sign it needs (basic
values, reduced costs) off integers.  ``_dense_solve`` is the package's one
linear solver; the closed-form certificates in ``lb_lp`` use it too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

__all__ = ["Infeasible", "LpSolution", "SimplexError", "Unbounded", "solve_lp"]

FLOAT_TOL = 1e-10
VERIFY_TOL = 1e-8
DEGENERATE_SWITCH = 40
_ZERO = Fraction(0)


class SimplexError(Exception):
    """Base class for solver failures."""


class Infeasible(SimplexError):
    """The constraint system has no solution."""


class Unbounded(SimplexError):
    """The objective is unbounded below on the feasible region."""


class _NeedsExact(Exception):
    """Internal: a float result needs exact arithmetic; climb a rung."""


class LpSolution(NamedTuple):
    """An optimum and its dual multipliers, one per input row (module doc)."""

    objective: object
    x: tuple
    duals: tuple


class _Program:
    """Normalized data: min c.x, rows with slacks/artificials, x >= 0."""

    def __init__(self, c, a_ub, b_ub, a_eq, b_eq, conv):
        zero, one = conv(0), conv(1)
        n = len(c)
        self.n = n
        self.c = [conv(v) for v in c]
        m_ub, m_eq = len(a_ub), len(a_eq)
        self.m = m_ub + m_eq
        rows = []
        rhs = []
        for i in range(m_ub):
            row = [conv(v) for v in a_ub[i]] + [zero] * m_ub
            row[n + i] = one
            rows.append(row)
            rhs.append(conv(b_ub[i]))
        for i in range(m_eq):
            rows.append([conv(v) for v in a_eq[i]] + [zero] * m_ub)
            rhs.append(conv(b_eq[i]))
        # rows negated here get their multipliers negated back
        self.flipped = [r < zero for r in rhs]
        for i in range(self.m):
            if self.flipped[i]:
                rows[i] = [-v for v in rows[i]]
                rhs[i] = -rhs[i]
        self.start_basis = [-1] * self.m
        # column n + k is a unit column (a slack or an artificial) whose one
        # non-zero entry sits in row unit_rows[k]
        self.unit_rows = list(range(m_ub))
        width = n + m_ub
        for i in range(m_ub):
            if rows[i][n + i] == one:
                self.start_basis[i] = n + i
        for i in range(self.m):
            if self.start_basis[i] < 0:
                for r in range(self.m):
                    rows[r].append(one if r == i else zero)
                self.start_basis[i] = width
                self.unit_rows.append(i)
                width += 1
        self.art_cols = frozenset(range(n + m_ub, width))
        self.rows = rows
        self.rhs = rhs
        self.width = width
        self.full_c = self.c + [zero] * (width - n)
        self.zero, self.one = zero, one


def solve_lp(
    c: Sequence,
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
    exact: bool = False,
) -> LpSolution:
    """Minimize ``c.x`` over ``A_ub x <= b_ub``, ``A_eq x = b_eq``, ``x >= 0``.

    Returns the optimum, a minimizer and the duals (see the module docstring).
    """
    return _solve((c, a_ub, b_ub, a_eq, b_eq), exact, [])


def _solve(data, exact: bool, memo: list, stored=None) -> LpSolution:
    """``solve_lp`` on ``data``.  ``memo`` is empty, or holds the basis (a
    tuple of ints) of a float pivot run on this same ``data`` that returned;
    a run that raised leaves it empty (see the module docstring).

    ``stored`` is None or a pair ``(part, shift)``: ``part(basis, exact)``
    is ``_part`` of a program that differs from ``data`` only in the rhs of
    the part's moving row, which ``data`` holds ``shift`` higher; each rung
    asks only for its own part.  A basis the stored part refuses climbs the
    ladder as a refused certificate does.
    """
    if exact:
        try:
            basis = _float_basis(data, memo)
        except (SimplexError, _NeedsExact, OverflowError):
            basis = None
        return _exact_ladder(data, basis, _to_rational, stored)
    prog = _Program(*data, float)
    basis = None
    try:
        basis = _float_basis(data, memo, prog)
        duals = None if stored is None else _stored_part(stored, basis, False)
        return _certified_from_basis(prog, basis, duals)
    except _NeedsExact:
        sol = _exact_ladder(data, basis, _via_float_fraction)
        x, duals = (tuple(map(float, v)) for v in (sol.x, sol.duals))
        return LpSolution(float(sol.objective), x, duals)


def _float_basis(data, memo: list, prog: _Program | None = None) -> tuple:
    """The float pivot run's final basis, pivoted only while ``memo`` is empty.

    ``prog`` is ``_Program(*data, float)`` when the caller has built it.
    """
    if not memo:
        if prog is None:
            prog = _Program(*data, float)
        memo.append(tuple(_pivot_phases(prog, FLOAT_TOL)[0]))
    return memo[0]


def _exact_ladder(data, basis, conv, stored=None) -> LpSolution:
    """Certify ``basis`` exactly, else pivot exactly and certify where that ends.

    ``conv`` makes the data rational; ``stored`` is ``_solve``'s.  Pivoting
    divides, so it runs on a copy whose every entry is a ``Fraction``.
    """
    if basis is not None:
        try:
            if stored is None:
                return _certified_exact(_Program(*data, conv), basis)
            return _exact_at(_stored_part(stored, basis, True), stored[1])
        except _NeedsExact:
            pass
    prog = _Program(*data, lambda v: Fraction(conv(v)))
    basis, _rhs = _pivot_phases(prog, Fraction(0))
    try:
        return _certified_exact(prog, basis)
    except _NeedsExact:
        raise SimplexError(
            "exact pivoting ended in a basis its certificate refuses"
        ) from None


def _to_rational(v):
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _via_float_fraction(v):
    return Fraction(float(v))


def _part(data, basis, row: int, exact: bool):
    """What the float (``exact`` False) or the exact certificate of
    ``basis`` needs at every rhs of ``row`` (an index into ``A_ub`` then
    ``A_eq``) of ``data``: ``_float_duals``, which does not read ``row``,
    or ``_exact_parts`` on the rationals of ``data``.  None where that part
    refuses the basis at every such rhs."""
    try:
        if exact:
            return _exact_parts(_Program(*data, _to_rational), basis, row)
        return _float_duals(_Program(*data, float), basis)
    except _NeedsExact:
        return None


def _stored_part(stored, basis, exact: bool):
    """The float or exact part of ``basis`` from ``_solve``'s ``stored``;
    raises ``_NeedsExact`` where that part refuses the basis."""
    part = stored[0](basis, exact)
    if part is None:
        raise _NeedsExact
    return part


def _float_duals(prog: _Program, basis) -> tuple:
    """The part of the float certificate that does not read the rhs: the
    duals ``y = B^-T c_B``, negated back where the program negated the
    input row.

    Raises ``_NeedsExact`` when B is singular or a reduced cost is below
    ``-VERIFY_TOL``.  B, c and the flips do not involve the rhs.
    """
    try:
        (yvec,) = _dense_solve(
            [[row[j] for row in prog.rows] for j in basis],
            [prog.full_c[j] for j in basis],
        )
    except ZeroDivisionError:
        raise _NeedsExact
    for j in range(prog.width):
        if j not in prog.art_cols:
            used = sum(row[j] * y for row, y in zip(prog.rows, yvec) if row[j])
            if prog.full_c[j] - used < -VERIFY_TOL:
                raise _NeedsExact
    return tuple(-y if flip else y for y, flip in zip(yvec, prog.flipped))


def _certified_from_basis(prog: _Program, basis, duals=None) -> LpSolution:
    """Rebuild x and the duals from the basis against the original float data.

    Raises ``_NeedsExact`` unless the basis proves optimal within tolerance:
    basic values non-negative, rows satisfied, and all reduced costs
    non-negative.  ``duals`` is the basis's ``_float_duals`` when the caller
    holds it; x is solved here from this program's rhs.
    """
    if duals is None:
        duals = _float_duals(prog, basis)
    m, width, n = prog.m, prog.width, prog.n
    try:
        (xb,) = _dense_solve([[row[j] for j in basis] for row in prog.rows], prog.rhs)
    except ZeroDivisionError:
        raise _NeedsExact
    xfull = [prog.zero] * width
    for r in range(m):
        if xb[r] < -VERIFY_TOL:
            raise _NeedsExact
        xfull[basis[r]] = xb[r]
    for j in prog.art_cols:
        if xfull[j] > VERIFY_TOL:
            raise _NeedsExact
    # the non-basic terms are zeros, which leave these sums as they are
    cols = sorted(basis)
    for row, rhs in zip(prog.rows, prog.rhs):
        lhs = sum(row[j] * xfull[j] for j in cols)
        if abs(lhs - rhs) > VERIFY_TOL * max(1.0, abs(rhs)):
            raise _NeedsExact
    x = xfull[:n]
    objective = sum((ci * xi for ci, xi in zip(prog.c, x)), prog.zero)
    return LpSolution(objective=objective, x=tuple(x), duals=duals)


def _certified_exact(prog: _Program, basis) -> LpSolution:
    """Exact twin of ``_certified_from_basis``, in integer arithmetic.

    A basic unit column u (a slack or an artificial) has one non-zero entry,
    in its row i, so the basis splits into a core and the rest.  The core is
    the tight rows T (those with no basic unit column) by the basic
    structural columns K; it decides x_K from ``A_TK x_K = b_T`` and the
    multipliers z_T from ``A_TK^T z_T = c_K``.  Each unit row then gives its
    own value, ``x_u = (b_i - A_iK x_K) / A_iu``, and a zero multiplier, as
    the unit column's cost is 0.  Two basic unit columns on one row, or a
    core that is not square, make the basis singular.

    Row i of the program, rhs included, becomes an integer row
    ``I_i = s_i * A_i``; its start-basis column holds a 1, so
    ``s_i = I[i][start_basis[i]]`` and the dual is ``y_i = s_i * z_i``,
    negated back where the program negated the input row.  The core solves
    run on these integers, and the reduced cost of column j is
    ``c_j - sum_T I[i][j] * z_i``; each sign is read off integers.
    Raises ``_NeedsExact`` unless the basis is exactly optimal.

    The certificate is ``_exact_parts`` read by ``_exact_at`` with no
    shift: the same two steps answer a cached basis at any shift.
    """
    return _exact_at(_exact_parts(prog, basis), 0)


def _exact_parts(prog: _Program, basis, row: int | None = None) -> tuple:
    """The exact certificate of ``basis`` at every shift s of the input rhs
    of ``row`` (see ``_certified_exact``).

    The core solves for two right-hand sides at once, b and the step d of
    a unit shift (-1 on ``row`` where the program negated it), so that
    ``x_K(s) = (u + s w) / den``.  Each unit row's scaled residue
    ``s_i (b_i - A_iK x_K) den`` is ``a + s b`` likewise; it must have the
    sign of the unit column's entry, or be 0 for an artificial, so it is
    kept as one or two pairs ``(a, b)``, over their gcd, that must read
    ``a + s b >= 0``.  z and the reduced-cost verdict do not involve the
    rhs.  Returns the tuples ``(costs, den, yden, x, bounds, y)``: ``costs``
    holds ``j, c_j`` for each non-zero cost, ``x`` holds ``u_j, w_j`` for
    every structural column (0 off the core), ``bounds`` the pairs, and
    ``y`` the duals' numerators over ``yden``.  Raises ``_NeedsExact`` when
    the basis is singular or a reduced cost is negative, which no shift
    changes.
    """
    n = prog.n
    unit = {prog.unit_rows[j - n]: j for j in basis if j >= n}  # row -> column
    core = [j for j in basis if j < n]
    tight = [i for i in range(prog.m) if i not in unit]
    # two basic unit columns on one row leave one more tight row than core
    # columns: the basis is singular
    if len(core) != len(tight):
        raise _NeedsExact
    step = [0] * prog.m
    if row is not None:
        step[row] = -1 if prog.flipped[row] else 1
    irows = _integer_rows([*prog.rows[i], prog.rhs[i], step[i]] for i in tight)
    try:
        xw, den = _integer_solve([[r[j] for j in core] + r[-2:] for r in irows])
        z, zden = _integer_solve(
            _integer_rows([r[j] for r in irows] + [prog.full_c[j]] for j in core)
        )
    except ZeroDivisionError:
        raise _NeedsExact
    # basic columns have reduced cost 0 by construction
    skip = set(basis).union(prog.art_cols)
    zrows = [(r, v) for r, (v,) in zip(irows, z) if v]
    for j in range(prog.width):
        if j in skip:
            continue
        cnum, cden = prog.full_c[j].as_integer_ratio()
        # the reduced cost times zden * cden, both positive
        if cnum * zden < cden * sum(r[j] * v for r, v in zrows):
            raise _NeedsExact
    bounds = []
    urows = _integer_rows([prog.rows[i][j] for j in core] + [prog.rhs[i], step[i]] for i in unit)
    for (i, u), r in zip(unit.items(), urows):
        # zip stops at the rhs
        a = r[-2] * den - sum(c * v for c, (v, _w) in zip(r, xw))
        b = r[-1] * den - sum(c * w for c, (_v, w) in zip(r, xw))
        g = math.gcd(a, b) or 1
        if u in prog.art_cols or prog.rows[i][u] > 0:
            bounds += (a // g, b // g)
        if u in prog.art_cols or prog.rows[i][u] < 0:
            bounds += (-a // g, -b // g)
    y = [0] * prog.m
    for i, r, (v,) in zip(tight, irows, z):
        y[i] = (-v if prog.flipped[i] else v) * r[prog.start_basis[i]]
    x = [0] * (2 * n)
    for j, (u, w) in zip(core, xw):
        x[2 * j : 2 * j + 2] = u, w
    costs = tuple(v for j, c in enumerate(prog.c) if c for v in (j, c))
    return costs, den, zden, tuple(x), tuple(bounds), tuple(y)


def _exact_at(parts: tuple, shift) -> LpSolution:
    """The certificate ``parts`` (of ``_exact_parts``) with its row's input
    rhs ``shift`` higher, in integer sign checks; raises ``_NeedsExact``
    unless every basic value stays feasible there."""
    costs, den, yden, x_parts, bounds, y = parts
    sn, sd = shift.as_integer_ratio()
    vals = [u * sd + sn * w for u, w in zip(x_parts[::2], x_parts[1::2])]
    if any(v < 0 for v in vals) or any(
        a * sd + sn * b < 0 for a, b in zip(bounds[::2], bounds[1::2])
    ):
        raise _NeedsExact
    den *= sd
    x = [Fraction(v, den) if v else _ZERO for v in vals]
    objective = sum((c * x[j] for j, c in zip(costs[::2], costs[1::2])), _ZERO)
    duals = tuple(Fraction(v, yden) if v else _ZERO for v in y)
    return LpSolution(objective=objective, x=tuple(x), duals=duals)


def _pivot_phases(prog: _Program, tol) -> tuple[list[int], list]:
    """Run both simplex phases; returns the final basis and its rhs column."""
    m, width = prog.m, prog.width
    zero, one = prog.zero, prog.one
    basis = list(prog.start_basis)
    tableau = [prog.rows[i][:] + [prog.rhs[i]] for i in range(m)]

    if prog.art_cols:
        obj = [zero] * (width + 1)
        for j in prog.art_cols:
            obj[j] = one
        for i in range(m):
            if basis[i] in prog.art_cols:
                for j in range(width + 1):
                    obj[j] -= tableau[i][j]
        _run_phase(tableau, obj, basis, tol, blocked=frozenset())
        feas_tol = zero if not tol else 1e-7
        if obj[-1] < -feas_tol:
            raise Infeasible("phase-1 objective positive")
        for i in range(m):
            if basis[i] in prog.art_cols:
                piv = next(
                    (
                        j
                        for j in range(width)
                        if j not in prog.art_cols and _nonzero(tableau[i][j], tol)
                    ),
                    None,
                )
                if piv is not None:
                    _pivot(tableau, basis, i, piv)

    obj = [zero] * (width + 1)
    for j in range(prog.n):
        obj[j] = prog.c[j]
    for i in range(m):
        bj = basis[i]
        if bj < prog.n and prog.c[bj] != 0:
            coef = prog.c[bj]
            for j in range(width + 1):
                obj[j] -= coef * tableau[i][j]
    _run_phase(tableau, obj, basis, tol, blocked=prog.art_cols)
    return basis, [row[-1] for row in tableau]


def _nonzero(v, tol) -> bool:
    return v > tol or v < -tol


def _dense_solve(mat, *rhs) -> list:
    """Solve a square system for each right-hand side by one Gauss-Jordan
    elimination; returns one solution per right-hand side.

    When every entry is an int or a ``Fraction`` the solve is exact and
    fraction-free: each row is scaled to integers by the lcm of its
    denominators, eliminated with Python ints, and a ``Fraction`` is formed
    only for the answers.  Otherwise the scalars are eliminated as they are,
    with partial pivoting; the pivots do not read the right-hand sides, so
    each solution has the bits of a solve of its column alone.  Both
    branches skip zero entries (the LP basis matrices are sparse).  A
    singular system raises ``ZeroDivisionError``.
    """
    n = len(mat)
    m = [[*row, *(b[r] for b in rhs)] for r, row in enumerate(mat)]
    if all(isinstance(v, (int, Fraction)) for row in m for v in row):
        nums, den = _integer_solve(_integer_rows(m))
        return [[Fraction(row[c], den) for row in nums] for c in range(len(rhs))]
    for col in range(n):
        # partial pivot: the first row with the largest |entry|
        piv, size = col, abs(m[col][col])
        for r in range(col + 1, n):
            a = abs(m[r][col])
            if a > size:
                piv, size = r, a
        if m[piv][col] == 0:
            raise ZeroDivisionError("singular basis matrix")
        m[col], m[piv] = m[piv], m[col]
        prow = m[col]
        inv = prow[col]
        if inv != 1:
            m[col] = prow = [v / inv for v in prow]
        nonzero = [j for j in range(col, len(prow)) if prow[j] != 0]
        for r in range(n):
            if r == col:
                continue
            row_r = m[r]
            factor = row_r[col]
            if factor == 0:
                continue
            for j in nonzero:
                row_r[j] -= factor * prow[j]
    return [[m[r][n + c] for r in range(n)] for c in range(len(rhs))]


def _integer_rows(rows) -> list[list[int]]:
    """Each rational row times the lcm of its denominators, in lowest terms."""
    out = []
    for row in rows:
        ratios = [x.as_integer_ratio() if x else (0, 1) for x in row]
        scale = math.lcm(*[d for _, d in ratios])
        ints = [a * (scale // d) if a else 0 for a, d in ratios]
        g = math.gcd(*ints)
        out.append([x // g for x in ints] if g > 1 else ints)
    return out


def _integer_solve(m: list[list[int]]) -> tuple[list[list[int]], int]:
    """Exact branch of ``_dense_solve``: fraction-free integer Gauss-Jordan.

    ``m`` holds the n augmented integer rows ``[a_r0 .. a_r(n-1), b_r0 ..
    b_r(k-1)]``, one right-hand side per trailing column, and is eliminated
    in place.  A row stays proportional to its rational row, so the update
    ``(a/g)*row_r - (f/g)*pivot_row`` with ``g = gcd(a, f)`` clears column
    ``col`` without a division, and dividing the row by its gcd afterwards
    keeps the integers short.  Returns ``(nums, den)`` with ``den > 0`` and
    ``x_r = nums[r][c] / den`` for right-hand side c; raises
    ``ZeroDivisionError`` on a singular system.
    """
    n = len(m)
    for col in range(n):
        # the smallest non-zero pivot keeps the multipliers a/g small
        piv = None
        size = 0
        for r in range(col, n):
            a = m[r][col]
            if a and (piv is None or abs(a) < size):
                piv, size = r, abs(a)
        if piv is None:
            raise ZeroDivisionError("singular basis matrix")
        m[col], m[piv] = m[piv], m[col]
        prow = m[col]
        a = prow[col]
        nonzero = [j for j in range(col, len(prow)) if prow[j]]
        for r in range(n):
            if r == col:
                continue
            row_r = m[r]
            f = row_r[col]
            if not f:
                continue
            g = math.gcd(a, f)
            ag, fg = a // g, f // g
            if ag != 1:
                m[r] = row_r = [ag * v for v in row_r]
            for j in nonzero:
                row_r[j] -= fg * prow[j]
            g = math.gcd(*row_r)
            if g > 1:
                m[r] = [v // g for v in row_r]
    # row r now reads m[r][r] * x_r = m[r][n:]
    den = math.lcm(*[m[r][r] for r in range(n)])
    return [[v * (den // m[r][r]) for v in m[r][n:]] for r in range(n)], den


def _pivot(tableau, basis, row: int, col: int) -> None:
    prow = tableau[row]
    piv = prow[col]
    if piv != 1:
        tableau[row] = prow = [v / piv for v in prow]
    nonzero = [(j, v) for j, v in enumerate(prow) if v != 0]
    for r in range(len(tableau)):
        if r == row:
            continue
        trow = tableau[r]
        factor = trow[col]
        if factor == 0:
            continue
        for j, v in nonzero:
            trow[j] -= factor * v
    basis[row] = col


def _run_phase(tableau, obj, basis, tol, blocked) -> None:
    """Pivot to optimality: most-negative pricing, Bland's rule after stalling."""
    m = len(tableau)
    width = len(obj) - 1
    guard = 0
    limit = 10000 + 300 * (m + width)
    degenerate_run = 0
    bland = False
    free = [j for j in range(width) if j not in blocked]
    while True:
        guard += 1
        if guard > limit:
            raise SimplexError("pivot limit exceeded")
        enter = None
        if bland:
            for j in free:
                if obj[j] < -tol:
                    enter = j
                    break
        else:
            best_rc = -tol
            for j in free:
                if obj[j] < best_rc:
                    best_rc = obj[j]
                    enter = j
        if enter is None:
            return
        leave = None
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > tol:
                ratio = tableau[i][-1] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave is None:
            # In float mode the column may only look unbounded through
            # round-off; exact pivoting decides.
            if tol:
                raise _NeedsExact
            raise Unbounded(f"column {enter} unbounded")
        if best == 0 or (tol and best < tol):
            degenerate_run += 1
            if degenerate_run >= DEGENERATE_SWITCH:
                bland = True
        else:
            degenerate_run = 0
        _pivot(tableau, basis, leave, enter)
        factor = obj[enter]
        if factor != 0:
            prow = tableau[leave]
            for j, v in enumerate(prow):
                if v:
                    obj[j] -= factor * v
