"""Simplex solver: known LPs, exact mode, a vertex-enumeration cross-check,
and the linear solver behind both."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanorm.simplex import (
    Infeasible,
    Unbounded,
    _certified_exact,
    _dense_solve,
    _NeedsExact,
    _pivot_phases,
    _Program,
    _solution_from_tableau,
    solve_lp,
)

from helpers import float_dense_solve, fraction_gauss_jordan, square_systems

RATIONALS = st.one_of(st.integers(-4, 4), st.fractions(-6, 6, max_denominator=12))
FLOATS = st.one_of(
    st.integers(-40, 40).map(lambda k: k / 8),
    st.floats(-10, 10).filter(lambda v: abs(v) > 1e-3),
)


class TestKnownPrograms:
    def test_basic_2d(self):
        # min -x - y  s.t. x + y <= 1   ->  objective -1 on the face x+y=1
        sol = solve_lp([-1, -1], [[1, 1]], [1])
        assert sol.objective == pytest.approx(-1.0)

    def test_equality(self):
        # min x + 2y  s.t. x + y = 3  ->  x=3, y=0
        sol = solve_lp([1, 2], a_eq=[[1, 1]], b_eq=[3])
        assert sol.objective == pytest.approx(3.0)
        assert sol.x[0] == pytest.approx(3.0)

    def test_mixed(self):
        # min -2x - 3y  s.t. x + y <= 4, x + 3y <= 6
        sol = solve_lp([-2, -3], [[1, 1], [1, 3]], [4, 6])
        assert sol.objective == pytest.approx(-9.0)
        assert sol.x == (pytest.approx(3.0), pytest.approx(1.0))

    def test_negative_rhs_needs_artificial(self):
        # min x  s.t. -x <= -2  (i.e. x >= 2)
        sol = solve_lp([1], [[-1]], [-2])
        assert sol.objective == pytest.approx(2.0)

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            solve_lp([1], [[1], [-1]], [1, -3])  # x <= 1 and x >= 3

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            solve_lp([-1], [[-1]], [0])  # minimize -x with x >= 0 free above

    def test_degenerate_cycling_guard(self):
        # classic Beale-like degenerate instance; Bland must terminate
        c = [-0.75, 150, -0.02, 6]
        a = [
            [0.25, -60, -0.04, 9],
            [0.5, -90, -0.02, 3],
            [0, 0, 1, 0],
        ]
        b = [0, 0, 1]
        sol = solve_lp(c, a, b)
        assert sol.objective == pytest.approx(-0.05)

    def test_exact_rational(self):
        sol = solve_lp(
            [Fraction(-1), Fraction(-1)],
            [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(1)]],
            [Fraction(4), Fraction(5)],
            exact=True,
        )
        assert isinstance(sol.objective, Fraction)
        # optimum at intersection: x = 6/5, y = 7/5
        assert sol.objective == Fraction(-13, 5)

    def test_exact_equality_mode(self):
        sol = solve_lp(
            [Fraction(1), Fraction(1), Fraction(0)],
            a_eq=[[Fraction(1), Fraction(1), Fraction(1)]],
            b_eq=[Fraction(2)],
            exact=True,
        )
        assert sol.objective == Fraction(0)


def _brute_force_min(c, a_ub, b_ub):
    """Enumerate vertices of {A x <= b, x >= 0} by solving all n x n subsystems."""
    n = len(c)
    rows = [list(r) for r in a_ub] + [
        [1 if j == i else 0 for j in range(n)] for i in range(n)
    ]
    rhs = list(b_ub) + [0] * n
    best = None
    for idx in itertools.combinations(range(len(rows)), n):
        mat = [[Fraction(rows[i][j]) for j in range(n)] for i in idx]
        vec = [Fraction(rhs[i]) for i in idx]
        x = fraction_gauss_jordan(mat, vec)
        if x is None:
            continue
        if any(xi < -Fraction(1, 10**9) for xi in x):
            continue
        feasible = all(
            sum(Fraction(a_ub[r][j]) * x[j] for j in range(n)) <= Fraction(b_ub[r]) + Fraction(1, 10**9)
            for r in range(len(a_ub))
        )
        if not feasible:
            continue
        val = sum(Fraction(c[j]) * x[j] for j in range(n))
        if best is None or val < best:
            best = val
    return best


def test_random_cross_check_against_vertex_enumeration():
    rng = random.Random(101)
    checked = 0
    for _ in range(40):
        n = rng.randint(2, 3)
        m = rng.randint(2, 4)
        c = [rng.randint(-4, 4) for _ in range(n)]
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(0, 6) for _ in range(m)]
        expect = _brute_force_min(c, a, b)
        try:
            sol = solve_lp(c, a, b, exact=True)
        except Unbounded:
            # brute force only sees vertices; unbounded instances are skipped
            continue
        except Infeasible:
            assert expect is None
            continue
        assert expect is not None
        assert sol.objective == expect
        checked += 1
    assert checked >= 15


class TestDenseSolve:
    @settings(max_examples=150, deadline=None)
    @given(system=square_systems(RATIONALS))
    def test_exact_matches_fraction_reference(self, system):
        mat, vec = system
        want = fraction_gauss_jordan(mat, vec)
        if want is None:
            with pytest.raises(ZeroDivisionError):
                _dense_solve(mat, vec)
            return
        got = _dense_solve(mat, vec)
        assert got == want
        assert all(type(v) is Fraction for v in got)
        for row, b in zip(mat, vec):
            assert sum(a * x for a, x in zip(row, got)) == b

    @settings(max_examples=100, deadline=None)
    @given(system=square_systems(RATIONALS), data=st.data())
    def test_singular_raises(self, system, data):
        # make one row a combination of two others (or a copy, or zero)
        mat, vec = system
        n = len(vec)
        i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        a, b = data.draw(RATIONALS), data.draw(RATIONALS)
        mat[i] = [a * x + b * y for x, y in zip(mat[j], mat[k])] if i not in (j, k) else [0] * n
        with pytest.raises(ZeroDivisionError):
            _dense_solve(mat, vec)

    @settings(max_examples=150, deadline=None)
    @given(system=square_systems(FLOATS, zero=0.0))
    def test_float_results_unchanged(self, system):
        mat, vec = system
        try:
            want = float_dense_solve(mat, vec)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                _dense_solve(mat, vec)
            return
        got = _dense_solve(mat, vec)
        assert got == want
        # bit for bit, signed zeros included
        assert [repr(v) for v in got] == [repr(v) for v in want]

    def test_mixed_float_input_takes_the_float_branch(self):
        mat = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
        got = _dense_solve(mat, [1.0, Fraction(2)])
        assert got == float_dense_solve(mat, [1.0, Fraction(2)])
        assert all(type(v) is float for v in got)


class TestExactCertification:
    def _program(self, c, a_ub, b_ub):
        return _Program(c, a_ub, b_ub, [], [], Fraction)

    def test_optimal_basis_certified(self):
        # min -x - 2y  s.t. x + y <= 4, y <= 3: optimum x = 1, y = 3
        prog = self._program([-1, -2], [[1, 1], [0, 1]], [4, 3])
        sol = _certified_exact(prog, [0, 1])
        assert sol.x == (Fraction(1), Fraction(3))
        assert sol.objective == Fraction(-7)

    def test_feasible_but_suboptimal_basis_refused(self):
        # the slack basis (x = y = 0) is feasible but has negative reduced costs
        prog = self._program([-1, -2], [[1, 1], [0, 1]], [4, 3])
        with pytest.raises(_NeedsExact):
            _certified_exact(prog, [2, 3])

    def test_infeasible_basis_refused(self):
        # basis {x, slack 2}: x = 4 leaves x <= 1 violated (slack 2 = -3)
        prog = self._program([-1, 0], [[1, 1], [1, 0]], [4, 1])
        with pytest.raises(_NeedsExact):
            _certified_exact(prog, [0, 3])

    def test_singular_basis_refused(self):
        prog = self._program([-1, -1], [[1, 1], [2, 2]], [1, 2])
        with pytest.raises(_NeedsExact):
            _certified_exact(prog, [0, 1])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_exact_solve_matches_exact_pivoting(self, data):
        """Float basis + integer certificate agrees with fully exact pivoting."""
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 4))
        c = data.draw(st.lists(RATIONALS, min_size=n, max_size=n))
        a_ub = [data.draw(st.lists(RATIONALS, min_size=n, max_size=n)) for _ in range(m)]
        b_ub = data.draw(st.lists(RATIONALS, min_size=m, max_size=m))
        try:
            prog = _Program(c, a_ub, b_ub, [], [], Fraction)
            want = _solution_from_tableau(prog, _pivot_phases(prog, Fraction(0))).objective
        except (Infeasible, Unbounded) as exc:
            with pytest.raises(type(exc)):
                solve_lp(c, a_ub, b_ub, exact=True)
            return
        sol = solve_lp(c, a_ub, b_ub, exact=True)
        assert sol.objective == want
        assert all(type(v) is Fraction and v >= 0 for v in sol.x)
        for row, b in zip(a_ub, b_ub):
            assert sum(a * x for a, x in zip(row, sol.x)) <= b
