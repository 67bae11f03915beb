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
fallback.  A float run whose certificate fails climbs the exact rung on the
rationals ``Fraction(float(v))`` of its own data and casts the answer back.

The certificate returns the optimal duals with the primal: ``duals`` holds
one multiplier ``y_i`` per input row, ``A_ub`` rows first, such that
``A^T y <= c`` column by column, ``y_i <= 0`` on the ``A_ub`` rows, and
``b.y = c.x`` (exactly in exact mode).

Exact linear solves are integer fraction-free elimination: each rational
row is scaled to integers by the lcm of its denominators, Gauss-Jordan runs
on Python ints, and a ``Fraction`` is built only for each answer.  The
basis certificate reads every sign it needs (basic values, reduced costs)
off those integers.  ``_dense_solve`` is the package's one linear solver;
the closed-form certificates in ``lb_lp`` use it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = ["Infeasible", "LpSolution", "SimplexError", "Unbounded", "solve_lp"]

FLOAT_TOL = 1e-10
VERIFY_TOL = 1e-8
DEGENERATE_SWITCH = 40


class SimplexError(Exception):
    """Base class for solver failures."""


class Infeasible(SimplexError):
    """The constraint system has no solution."""


class Unbounded(SimplexError):
    """The objective is unbounded below on the feasible region."""


class _NeedsExact(Exception):
    """Internal: a basis certificate refused the basis; climb a rung."""


@dataclass(frozen=True)
class LpSolution:
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
        self.art_cols: list[int] = []
        width = n + m_ub
        for i in range(m_ub):
            if rows[i][n + i] == one:
                self.start_basis[i] = n + i
        for i in range(self.m):
            if self.start_basis[i] < 0:
                for r in range(self.m):
                    rows[r].append(one if r == i else zero)
                self.start_basis[i] = width
                self.art_cols.append(width)
                width += 1
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
    data = (c, a_ub, b_ub, a_eq, b_eq)
    if exact:
        try:
            basis = _pivot_phases(_Program(*data, float), FLOAT_TOL)[0]
        except (SimplexError, OverflowError):
            basis = None
        return _exact_ladder(data, basis, _to_rational)
    prog = _Program(*data, float)
    basis = _pivot_phases(prog, FLOAT_TOL)[0]
    try:
        return _certified_from_basis(prog, basis)
    except _NeedsExact:
        sol = _exact_ladder(data, basis, _via_float_fraction)
        x, duals = (tuple(map(float, v)) for v in (sol.x, sol.duals))
        return LpSolution(float(sol.objective), x, duals)


def _exact_ladder(data, basis, conv) -> LpSolution:
    """Certify ``basis`` exactly, else pivot exactly and certify where that ends.

    ``conv`` makes the data rational.  Pivoting divides, so it runs on a
    copy whose every entry is a ``Fraction``.
    """
    if basis is not None:
        try:
            return _certified_exact(_Program(*data, conv), basis)
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


def _certified_from_basis(prog: _Program, basis) -> LpSolution:
    """Rebuild x and the duals from the basis against the original float data.

    Raises ``_NeedsExact`` unless the basis proves optimal within tolerance:
    basic values non-negative, rows satisfied, and all reduced costs
    non-negative.
    """
    m, width, n = prog.m, prog.width, prog.n
    bmat = [[prog.rows[i][basis[r]] for r in range(m)] for i in range(m)]
    try:
        xb = _dense_solve(bmat, prog.rhs)
        yvec = _dense_solve(
            [[bmat[r][i] for r in range(m)] for i in range(m)],
            [prog.full_c[basis[r]] for r in range(m)],
        )
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
    for i in range(m):
        lhs = sum(prog.rows[i][j] * xfull[j] for j in range(width))
        if abs(lhs - prog.rhs[i]) > VERIFY_TOL * max(1.0, abs(prog.rhs[i])):
            raise _NeedsExact
    for j in range(width):
        if j not in prog.art_cols:
            used = sum(row[j] * y for row, y in zip(prog.rows, yvec) if row[j])
            if prog.full_c[j] - used < -VERIFY_TOL:
                raise _NeedsExact
    x = xfull[:n]
    objective = sum(ci * xi for ci, xi in zip(prog.c, x))
    duals = tuple(-y if flip else y for y, flip in zip(yvec, prog.flipped))
    return LpSolution(objective=objective, x=tuple(x), duals=duals)


def _certified_exact(prog: _Program, basis) -> LpSolution:
    """Exact twin of ``_certified_from_basis``, in integer arithmetic.

    Row i of the program, rhs included, becomes an integer row
    ``I_i = s_i * A_i``; its start-basis column holds a 1, so
    ``s_i = I[i][start_basis[i]]``.  The basic values solve the basis columns
    of I against its rhs.  The duals are ``y_i = s_i * z_i``, negated back
    where the program negated the input row, and z solves
    ``sum_i I[i][basis[r]] * z_i = c[basis[r]]``, so the reduced cost of
    column j is ``c_j - sum_i I[i][j] * z_i``; each sign is read off integers.
    Raises ``_NeedsExact`` unless the basis is exactly optimal.
    """
    irows = _integer_rows([*row, rhs] for row, rhs in zip(prog.rows, prog.rhs))
    try:
        xnum, xden = _integer_solve([[row[j] for j in basis] + [row[-1]] for row in irows])
        znum, zden = _integer_solve(
            _integer_rows([row[j] for row in irows] + [prog.full_c[j]] for j in basis)
        )
    except ZeroDivisionError:
        raise _NeedsExact
    basic = dict(zip(basis, xnum))
    if any(v < 0 for v in xnum) or any(basic.get(j, 0) > 0 for j in prog.art_cols):
        raise _NeedsExact
    # basic columns have reduced cost 0 by construction
    skip = set(basis).union(prog.art_cols)
    zrows = [(row, z) for row, z in zip(irows, znum) if z]
    for j in range(prog.width):
        if j in skip:
            continue
        cnum, cden = prog.full_c[j].as_integer_ratio()
        # the reduced cost times zden * cden, both positive
        if cnum * zden < cden * sum(row[j] * z for row, z in zrows):
            raise _NeedsExact
    x = [Fraction(basic.get(j, 0), xden) for j in range(prog.n)]
    objective = sum((ci * xi for ci, xi in zip(prog.c, x) if ci), Fraction(0))
    duals = tuple(
        Fraction((-z if flip else z) * row[j], zden)
        for z, row, j, flip in zip(znum, irows, prog.start_basis, prog.flipped)
    )
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
    _run_phase(tableau, obj, basis, tol, blocked=frozenset(prog.art_cols))
    return basis, [row[-1] for row in tableau]


def _nonzero(v, tol) -> bool:
    return v > tol or v < -tol


def _dense_solve(mat, vec):
    """Solve a square system by Gauss-Jordan elimination.

    When every entry is an int or a ``Fraction`` the solve is exact and
    fraction-free: each row is scaled to integers by the lcm of its
    denominators, eliminated with Python ints, and a ``Fraction`` is formed
    only for the answers.  Otherwise the scalars are eliminated as they are,
    with partial pivoting.  Both branches skip zero entries (the LP basis
    matrices are sparse).  A singular system raises ``ZeroDivisionError``.
    """
    if all(isinstance(v, (int, Fraction)) for row in (*mat, vec) for v in row):
        nums, den = _integer_solve(_integer_rows([*row, v] for row, v in zip(mat, vec)))
        return [Fraction(v, den) for v in nums]
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


def _integer_rows(rows) -> list[list[int]]:
    """Each rational row times the lcm of its denominators, in lowest terms."""
    out = []
    for row in rows:
        ratios = [x.as_integer_ratio() for x in row]
        scale = math.lcm(*[d for _, d in ratios])
        ints = [a * (scale // d) for a, d in ratios]
        g = math.gcd(*ints)
        out.append([x // g for x in ints] if g > 1 else ints)
    return out


def _integer_solve(m: list[list[int]]) -> tuple[list[int], int]:
    """Exact branch of ``_dense_solve``: fraction-free integer Gauss-Jordan.

    ``m`` holds the augmented integer rows ``[a_r0 .. a_r(n-1), b_r]`` and is
    eliminated in place.  A row stays proportional to its rational row, so
    the update ``(a/g)*row_r - (f/g)*pivot_row`` with ``g = gcd(a, f)``
    clears column ``col`` without a division, and dividing the row by its
    gcd afterwards keeps the integers short.  Returns ``(nums, den)`` with
    ``x_r = nums[r] / den`` and ``den > 0``; raises ``ZeroDivisionError`` on
    a singular system.
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
        nonzero = [j for j in range(col, n + 1) if prow[j]]
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
    # row r now reads m[r][r] * x_r = m[r][n]
    den = math.lcm(*[m[r][r] for r in range(n)])
    return [m[r][n] * (den // m[r][r]) for r in range(n)], den


def _pivot(tableau, basis, row: int, col: int) -> None:
    prow = tableau[row]
    piv = prow[col]
    if piv != 1:
        tableau[row] = prow = [v / piv for v in prow]
    nonzero = [j for j, v in enumerate(prow) if v != 0]
    for r in range(len(tableau)):
        if r == row:
            continue
        trow = tableau[r]
        factor = trow[col]
        if factor == 0:
            continue
        for j in nonzero:
            trow[j] -= factor * prow[j]
    basis[row] = col


def _run_phase(tableau, obj, basis, tol, blocked) -> None:
    """Pivot to optimality: most-negative pricing, Bland's rule after stalling."""
    m = len(tableau)
    width = len(obj) - 1
    guard = 0
    limit = 10000 + 300 * (m + width)
    degenerate_run = 0
    bland = False
    while True:
        guard += 1
        if guard > limit:
            raise SimplexError("pivot limit exceeded")
        enter = None
        if bland:
            for j in range(width):
                if j not in blocked and obj[j] < -tol:
                    enter = j
                    break
        else:
            best_rc = -tol
            for j in range(width):
                if j not in blocked and obj[j] < best_rc:
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
            # A barely-negative reduced cost with no pivotable entry is
            # round-off noise in float mode; true unboundedness shows a
            # substantial rate.
            if tol and obj[enter] > -1e-7:
                obj[enter] = 0.0
                continue
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
