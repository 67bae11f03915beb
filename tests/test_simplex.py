"""Simplex solver: known LPs, exact mode, a vertex-enumeration cross-check,
every rung of the certification ladder, the returned duals, and the linear
solver behind them all."""

import copy
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanorm import lb_lp, simplex
from spanorm.simplex import (
    VERIFY_TOL,
    Infeasible,
    LpSolution,
    SimplexError,
    Unbounded,
    _certified_exact,
    _certified_from_basis,
    _dense_solve,
    _integer_rows,
    _integer_solve,
    _NeedsExact,
    _pivot_phases,
    _Program,
    solve_lp,
)

from helpers import (
    dense_certified_exact,
    float_dense_solve,
    fraction_gauss_jordan,
    square_systems,
)
from test_acceptance import GRID_LAMBDA_POINTS, GRID_PS, GRID_TS

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

    @pytest.mark.parametrize("exact,kind", [(False, float), (True, Fraction)])
    def test_empty_program_objective_type(self, exact, kind):
        # the objective sum starts at the program's own zero, not at int 0
        sol = solve_lp([], exact=exact)
        assert sol == LpSolution(objective=0, x=(), duals=())
        assert type(sol.objective) is kind

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
        (got,) = _dense_solve(mat, vec)
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
        (got,) = _dense_solve(mat, vec)
        assert got == want
        # bit for bit, signed zeros included
        assert [repr(v) for v in got] == [repr(v) for v in want]

    @settings(max_examples=100, deadline=None)
    @given(system=square_systems(RATIONALS), data=st.data())
    def test_integer_solve_takes_several_right_hand_sides(self, system, data):
        # one elimination with k trailing columns gives each column's solve
        mat, vec = system
        n = len(vec)
        column = st.lists(RATIONALS, min_size=n, max_size=n)
        rhs = [vec, *(data.draw(column) for _ in range(data.draw(st.integers(0, 2))))]
        # on float input _dense_solve pivots without reading the right-hand
        # sides, so each solution has the bits of its column's own solve
        fmat = [[float(v) for v in row] for row in mat]
        frhs = [[float(v) for v in b] for b in rhs]
        try:
            fwant = [repr(_dense_solve(fmat, b)[0]) for b in frhs]
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                _dense_solve(fmat, *frhs)
        else:
            assert [repr(x) for x in _dense_solve(fmat, *frhs)] == fwant
        rows = _integer_rows([*row, *(b[r] for b in rhs)] for r, row in enumerate(mat))
        if fraction_gauss_jordan(mat, vec) is None:
            with pytest.raises(ZeroDivisionError):
                _integer_solve(rows)
            with pytest.raises(ZeroDivisionError):
                _dense_solve(mat, *rhs)
            return
        nums, den = _integer_solve(rows)
        assert den > 0 and all(len(row) == len(rhs) for row in nums)
        want = [_dense_solve(mat, b)[0] for b in rhs]
        assert [[Fraction(v, den) for v in row] for row in nums] == [list(x) for x in zip(*want)]
        assert _dense_solve(mat, *rhs) == want

    def test_mixed_float_input_takes_the_float_branch(self):
        mat = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
        (got,) = _dense_solve(mat, [1.0, Fraction(2)])
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
            want = _pivoting_optimum(c, a_ub, b_ub)
        except (Infeasible, Unbounded) as exc:
            with pytest.raises(type(exc)):
                solve_lp(c, a_ub, b_ub, exact=True)
            return
        sol = solve_lp(c, a_ub, b_ub, exact=True)
        assert sol.objective == want
        assert all(type(v) is Fraction and v >= 0 for v in sol.x)
        for row, b in zip(a_ub, b_ub):
            assert sum(a * x for a, x in zip(row, sol.x)) <= b


def _same_certificate(prog, basis) -> bool:
    """The core certificate gives the dense reference's answer, types
    included, or refuses as it does; True when the basis is certified."""
    try:
        want = dense_certified_exact(prog, basis)
    except _NeedsExact:
        with pytest.raises(_NeedsExact):
            _certified_exact(prog, basis)
        return False
    got = _certified_exact(prog, basis)
    assert got == want
    assert repr(got) == repr(want)
    return True


def _outcome(certify, *args):
    """The repr of the certificate, or None where it refuses the basis."""
    try:
        return repr(certify(*args))
    except _NeedsExact:
        return None


def _moved(prog, row, shift):
    """A copy of ``prog`` whose input rhs on ``row`` is ``shift`` higher."""
    moved = copy.copy(prog)
    moved.rhs = list(prog.rhs)
    if shift:
        moved.rhs[row] += -shift if prog.flipped[row] else shift
    return moved


class TestCoreCertificate:
    """``_certified_exact`` solves only the tight-row core of a basis; the
    dense reference in ``helpers`` solves all of it."""

    def test_grid_bases_match_the_dense_reference(self, monkeypatch):
        # every basis an exact lb_lp.solve certifies over t 1-9, the rational
        # grid p and lambda = k/20 of the LP's range: its parts are made once
        # on the model at lambda = 1, and each reading at another lambda
        # answers as the dense reference does on that lambda's program
        made, reads = {}, []
        real_parts, real_at = simplex._exact_parts, simplex._exact_at

        def parts(prog, basis, row=None):
            out = real_parts(prog, basis, row)
            made[id(out)] = (prog, list(basis), row)
            return out

        def at(parts, shift):
            prog, basis, row = made[id(parts)]
            want = _outcome(dense_certified_exact, _moved(prog, row, shift), basis)
            reads.append((_outcome(real_at, parts, shift), want))
            return real_at(parts, shift)

        monkeypatch.setattr(simplex, "_exact_parts", parts)
        monkeypatch.setattr(simplex, "_exact_at", at)
        lb_lp._certificate.cache_clear()
        for p in (p for p in GRID_PS if isinstance(p, Fraction)):
            for t in range(1, 10):
                for k in range(1, 21):
                    lb_lp.solve(lb_lp.build_model(t, p, (1 + 1 / p) * Fraction(k, 20)), exact=True)
        assert all(got == want for got, want in reads)
        # each solve reads one certified basis, and each basis is made once
        assert len(reads) == sum(got is not None for got, _want in reads) == 9 * 9 * 20
        assert len(made) == lb_lp._certificate.cache_info().currsize < len(reads) / 3

    @pytest.mark.parametrize(
        "program,basis,certified",
        [
            # x = 1, y = 3 with both rows tight: an all-core basis
            (([-1, -2], [[1, 1], [0, 1]], [4, 3]), [0, 1], True),
            # x + 2y = 1 and 2x + y = 5 give y = -1 in the core
            (([0, 0], [[1, 2], [2, 1]], [1, 5]), [0, 1], False),
            # x = 4 leaves the second row's slack at -3
            (([-1, 0], [[1, 1], [1, 0]], [4, 1]), [0, 3], False),
            # the slack basis: feasible, with negative reduced costs
            (([-1, -2], [[1, 1], [0, 1]], [4, 3]), [2, 3], False),
            # x = 3 on the tight row x <= 3, whose slack has reduced cost -1
            (([1], [[-1], [1]], [-1, 3]), [1, 0], False),
            # proportional rows
            (([-1, -1], [[1, 1], [2, 2]], [1, 2]), [0, 1], False),
            # x >= 2 keeps a slack (-1) and an artificial on row 0
            (([1], [[-1], [1]], [-2, 5]), [1, 3], False),
            # x = 2 in the core, and the slack of x <= 2 at 0
            (([1], [[-1], [1]], [-2, 2]), [0, 2], True),
            # an artificial at 2
            (([1, 1], [], [], [[1, 1]], [2]), [2], False),
            # redundant equality rows: the second artificial stays at 0
            (([1, 2], [], [], [[1, 1], [2, 2]], [2, 4]), [0, 3], True),
            (([1, 2], [], [], [[1, 1], [2, 2]], [2, 4]), [0, 1], False),
            # a basis that names one column twice
            (([1, 2], [], [], [[1, 1], [2, 2]], [2, 4]), [0, 0], False),
        ],
        ids=["optimal", "negative-core", "negative-unit", "suboptimal", "slack-suboptimal",
             "singular", "two-units-on-a-row", "unit-at-zero", "artificial", "redundant",
             "redundant-singular", "repeated-column"],
    )
    def test_hand_built_bases(self, program, basis, certified):
        program = (*program, [], [])[:5]
        prog = _Program(*program, Fraction)
        assert _same_certificate(prog, basis) is certified

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_basis_matches_the_dense_reference(self, data):
        prog = _Program(*_lp_draw(data, RATIONALS), Fraction)
        basis = data.draw(st.permutations(range(prog.width)))[: prog.m]
        _same_certificate(prog, basis)


def _pivoting_optimum(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    """The optimum fully exact pivoting reaches, read off its final tableau."""
    prog = _Program(c, a_ub, b_ub, a_eq, b_eq, Fraction)
    basis, rhs = _pivot_phases(prog, Fraction(0))
    return sum(prog.c[j] * v for j, v in zip(basis, rhs) if j < prog.n)


@pytest.fixture
def rungs(monkeypatch):
    """Records, in order, each pivoting run and each basis certificate's verdict."""
    seen = []

    def pivot(prog, tol):
        seen.append("pivot exact" if tol == 0 else "pivot float")
        return _pivot_phases(prog, tol)

    def certificate(name, fn):
        def wrapped(prog, basis, *duals):
            try:
                out = fn(prog, basis, *duals)
            except _NeedsExact:
                seen.append(f"{name} refused")
                raise
            seen.append(f"{name} ok")
            return out

        return wrapped

    float_cert = certificate("float cert", _certified_from_basis)
    monkeypatch.setattr(simplex, "_pivot_phases", pivot)
    monkeypatch.setattr(simplex, "_certified_from_basis", float_cert)
    monkeypatch.setattr(simplex, "_certified_exact", certificate("exact cert", _certified_exact))
    return seen


class TestLadder:
    """Pinned LPs that force each rung, each checked against exact pivoting."""

    def test_float_certificate_refused_escalates_to_exact(self, rungs):
        # the float ratio test skips the 1e-11 entry, so x = 1e6 leaves the
        # second row at -1e-5; exactly, 1e-11 * x <= 0 pins x at 0
        c, a_ub, b_ub = [-1], [[1], [1e-11]], [1e6, 0]
        sol = solve_lp(c, a_ub, b_ub)
        assert rungs == [
            "pivot float", "float cert refused", "exact cert refused",
            "pivot exact", "exact cert ok",
        ]
        # the referee pivots on the rationals the floats denote
        assert sol.objective == float(_pivoting_optimum(c, a_ub, b_ub)) == 0.0
        assert all(type(v) is float for v in (*sol.x, *sol.duals))

    def test_float_noise_escalates_to_unbounded(self, rungs):
        # a column with a negative reduced cost and no pivot row sends the
        # float run straight to exact pivoting, which decides
        with pytest.raises(Unbounded):
            _pivoting_optimum([-5e-8], [[-1]], [0])
        with pytest.raises(Unbounded):
            solve_lp([-5e-8], [[-1]], [0])
        assert rungs == ["pivot float", "pivot exact"]

    @pytest.mark.parametrize("exact", [False, True])
    def test_tiny_unbounded_rate_is_unbounded_in_both_modes(self, rungs, exact):
        # a rate of -5e-9 is above any round-off threshold; float mode once
        # zeroed it and answered objective 0.0 where exact mode raised
        with pytest.raises(Unbounded):
            solve_lp([-5e-9], [[-1]], [0], exact=exact)
        assert rungs == ["pivot float", "pivot exact"]

    def test_ray_closed_by_the_exact_data_is_bounded(self, rungs):
        # in float pivoting x = 0.3y looks like an improving ray with no
        # pivot row; on the rationals of the floats 0.1/(1/3) > 0.3, so
        # only x = y = 0 is feasible and the exact rung finds the optimum
        c, a_ub, b_ub = [-0.3, -0.7], [[1, -0.3], [-0.3, -1], [-1 / 3, 0.1]], [0, 0.3, 0]
        sol = solve_lp(c, a_ub, b_ub)
        assert rungs == ["pivot float", "pivot exact", "exact cert ok"]
        assert sol.objective == float(_pivoting_optimum(c, a_ub, b_ub)) == 0.0
        assert sol.x == (0.0, 0.0)

    def test_exact_certificate_refused_then_full_pivoting(self, rungs):
        # the two costs differ below float resolution: float picks x, exactly y wins
        eps = Fraction(1, 10**20)
        c, a_ub, b_ub = [Fraction(-1), -1 - eps], [[1, 1]], [1]
        sol = solve_lp(c, a_ub, b_ub, exact=True)
        assert rungs == ["pivot float", "exact cert refused", "pivot exact", "exact cert ok"]
        assert sol.objective == _pivoting_optimum(c, a_ub, b_ub) == -1 - eps
        assert sol.x == (0, 1)
        assert sol.duals == (-1 - eps,)

    @pytest.mark.parametrize(
        "c,a_ub,b_ub,ran",
        [
            # 1e-400 underflows to 0.0, so the float run finds the LP unbounded
            ([-1], [[Fraction(1, 10**400)]], [1], ["pivot float"]),
            # 1e400 has no float, so the float program cannot even be built
            ([1], [[-(10**400)]], [-(10**400)], []),
        ],
        ids=["float-unbounded", "float-overflow"],
    )
    def test_float_basis_error_in_exact_mode(self, rungs, c, a_ub, b_ub, ran):
        sol = solve_lp(c, a_ub, b_ub, exact=True)
        # no float basis reaches a certificate
        assert rungs == [*ran, "pivot exact", "exact cert ok"]
        assert sol.objective == _pivoting_optimum(c, a_ub, b_ub)

    @pytest.mark.parametrize(
        "a_eq,b_eq,value",
        [
            # the second row repeats the first: its artificial stays basic at 0
            ([[1, 1], [2, 2]], [2, 4], 2),
            # rhs 0 ends phase 1 at once, so both artificials are driven out
            ([[1, 1], [1, -1]], [0, 0], 0),
        ],
        ids=["redundant", "driven-out"],
    )
    @pytest.mark.parametrize("exact", [False, True])
    def test_artificials_left_after_phase_1(self, a_eq, b_eq, value, exact):
        sol = solve_lp([1, 2], a_eq=a_eq, b_eq=b_eq, exact=exact)
        assert sol.objective == _pivoting_optimum([1, 2], a_eq=a_eq, b_eq=b_eq) == value
        assert sum(b * y for b, y in zip(b_eq, sol.duals)) == value

    def test_refused_referee_basis_raises(self, monkeypatch):
        def refuse(prog, basis):
            raise _NeedsExact

        monkeypatch.setattr(simplex, "_certified_exact", refuse)
        with pytest.raises(SimplexError, match="certificate refuses"):
            solve_lp([-1, -2], [[1, 1], [0, 1]], [4, 3], exact=True)

    def test_pivot_limit_without_bland(self, monkeypatch):
        # TestKnownPrograms' Beale program cycles under most-negative pricing
        monkeypatch.setattr(simplex, "DEGENERATE_SWITCH", 10**9)
        c = [-0.75, 150, -0.02, 6]
        a = [[0.25, -60, -0.04, 9], [0.5, -90, -0.02, 3], [0, 0, 1, 0]]
        with pytest.raises(SimplexError, match="pivot limit"):
            solve_lp(c, a, [0, 0, 1])


class TestFloatRunMemo:
    """``_solve``'s memo: one LP solved both ways pivots in float once."""

    LP = ([-1, -2], [[1, 1], [0, 1]], [4, 3], [], [])

    def test_solve_lp_keeps_no_state(self, rungs):
        # the public entry point runs its own float pivot on every call
        for exact in (False, True):
            solve_lp(*self.LP, exact=exact)
        assert rungs == ["pivot float", "float cert ok", "pivot float", "exact cert ok"]

    @pytest.mark.parametrize("first", [False, True], ids=["float-first", "exact-first"])
    def test_one_float_pivot_for_both_rungs(self, rungs, first):
        memo = []
        got = {exact: simplex._solve(self.LP, exact, memo) for exact in (first, not first)}
        assert rungs.count("pivot float") == 1 and "pivot exact" not in rungs
        assert len(memo) == 1 and all(type(j) is int for j in memo[0])
        assert memo[0] == tuple(_pivot_phases(_Program(*self.LP, float), simplex.FLOAT_TOL)[0])
        for exact, sol in got.items():
            assert repr(sol) == repr(solve_lp(*self.LP, exact=exact))

    @pytest.mark.parametrize("exact", [False, True])
    def test_raised_float_run_stores_nothing(self, rungs, exact):
        # the float run finds a false ray and raises; each call climbs alone
        lp = ([-0.3, -0.7], [[1, -0.3], [-0.3, -1], [-1 / 3, 0.1]], [0, 0.3, 0], [], [])
        memo = []
        first, again = (simplex._solve(lp, exact, memo) for _ in range(2))
        assert memo == []
        assert rungs == ["pivot float", "pivot exact", "exact cert ok"] * 2
        assert repr(first) == repr(again) == repr(solve_lp(*lp, exact=exact))


class TestFloatCertification:
    """``_certified_from_basis`` refuses each way ``_certified_exact`` does,
    plus a basis solve that does not satisfy its rows."""

    def _program(self, c, a_ub, b_ub, a_eq=(), b_eq=(), conv=float):
        return _Program(c, a_ub, b_ub, a_eq, b_eq, conv)

    def test_optimal_basis_certified(self):
        sol = _certified_from_basis(self._program([-1, -2], [[1, 1], [0, 1]], [4, 3]), [0, 1])
        assert sol.x == (1.0, 3.0) and sol.objective == -7.0
        assert sol.duals == (-1.0, -1.0)

    @pytest.mark.parametrize(
        "program,basis",
        [
            (([-1, -2], [[1, 1], [0, 1]], [4, 3]), [2, 3]),  # suboptimal
            (([-1, 0], [[1, 1], [1, 0]], [4, 1]), [0, 3]),  # infeasible
            (([-1, -1], [[1, 1], [2, 2]], [1, 2]), [0, 1]),  # singular
            (([1, 1], [], [], [[1, 1]], [2]), [2]),  # artificial at 2
        ],
        ids=["suboptimal", "infeasible", "singular", "artificial"],
    )
    def test_refused_like_the_exact_certificate(self, program, basis):
        with pytest.raises(_NeedsExact):
            _certified_from_basis(self._program(*program), basis)
        with pytest.raises(_NeedsExact):
            _certified_exact(self._program(*program, conv=Fraction), basis)

    def test_rows_not_satisfied_refused(self):
        # x0, x1 near 3e11 with a 1e-12 gap: the float solve leaves row 2
        # off by about 1e-5, though both values are non-negative and c = 0
        prog = self._program([0, 0], [[1, -1], [1, -1 + 1e-12]], [1, 1.3])
        with pytest.raises(_NeedsExact):
            _certified_from_basis(prog, [0, 1])


def _lp_draw(data, values):
    n = data.draw(st.integers(1, 3))
    m_ub, m_eq = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 2))
    row = st.lists(values, min_size=n, max_size=n)
    c = data.draw(row)
    a_ub = [data.draw(row) for _ in range(m_ub)]
    a_eq = [data.draw(row) for _ in range(m_eq)]
    b_ub = data.draw(st.lists(values, min_size=m_ub, max_size=m_ub))
    b_eq = data.draw(st.lists(values, min_size=m_eq, max_size=m_eq))
    return c, a_ub, b_ub, a_eq, b_eq


def _dual_gaps(lp, sol):
    """(worst sign violation, worst column violation, |b.y - c.x|)."""
    c, a_ub, b_ub, a_eq, b_eq = lp
    rows, rhs = [*a_ub, *a_eq], [*b_ub, *b_eq]
    sign = max([0, *(y for y in sol.duals[: len(a_ub)])])
    column = max(
        [0, *(sum(row[j] * y for row, y in zip(rows, sol.duals)) - c[j] for j in range(len(c)))]
    )
    gap = abs(sum(b * y for b, y in zip(rhs, sol.duals)) - sol.objective)
    return sign, column, gap


class TestDuals:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_exact_duals_certify_the_optimum(self, data):
        """y <= 0 on the A_ub rows, A^T y <= c and b.y = c.x, all exactly."""
        lp = _lp_draw(data, RATIONALS)
        try:
            sol = solve_lp(*lp, exact=True)
        except (Infeasible, Unbounded):
            return
        c = lp[0]
        assert len(sol.duals) == len(lp[1]) + len(lp[3])
        assert sol.objective == sum(ci * xi for ci, xi in zip(c, sol.x))
        assert _dual_gaps(lp, sol) == (0, 0, 0)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_float_duals_within_verify_tol(self, data):
        lp = _lp_draw(data, st.integers(-40, 40).map(lambda k: k / 8))
        try:
            sol = solve_lp(*lp)
        except (Infeasible, Unbounded):
            return
        assert len(sol.duals) == len(lp[1]) + len(lp[3])
        assert all(g <= VERIFY_TOL for g in _dual_gaps(lp, sol))


def test_lb_grid_never_meets_a_column_without_pivot_row(monkeypatch):
    # the lb_certify grid (float and exact solves, closed-form certificates)
    # never sends a float run to the exact rung for want of a pivot row
    escalations = []

    def pivot(prog, tol):
        try:
            return _pivot_phases(prog, tol)
        except _NeedsExact:
            escalations.append(tol)
            raise

    monkeypatch.setattr(simplex, "_pivot_phases", pivot)
    solves = 0
    for p in GRID_PS:
        exact = isinstance(p, Fraction)
        top = 1 + (1 / p if exact else 1.0 / p)
        for t in GRID_TS:
            certifiable = lb_lp.verify_lcr_conditions(lb_lp.derive_lcr(p, t), p).all_ok
            for k in range(1, GRID_LAMBDA_POINTS + 1):
                lam = top * (Fraction(k, 20) if exact else k / 20.0)
                model = lb_lp.build_model(t, p, lam)
                lb_lp.solve(model)
                solves += 1
                if exact:
                    lb_lp.solve(model, exact=True)
                if certifiable:
                    lb_lp.certificate_for(t, p, lam)
    assert solves == 1400
    assert escalations == []
