"""Lower-bound LP: model, solver, closed forms, shape derivation, certificates."""

import hashlib
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from spanorm import lb_lp, simplex
from spanorm.lb_lp import (
    ConditionReport,
    DeriveDiagnostic,
    DualConstructionError,
    LcrParams,
    NiceRangeExceeded,
    ParameterError,
    SKEW_LEFT,
    SKEW_RIGHT,
    build_model,
    certificate_for,
    closed_form_exponent,
    construct_dual,
    derive_lcr,
    e_coeff,
    lb_value,
    low_p_exponent,
    minimal_spanner_primal,
    nice_range_max,
    predicted_exponent,
    skewed_primal,
    solve,
    verify_certificate,
    verify_lcr_conditions,
)
from test_acceptance import GRID_LAMBDA_POINTS, GRID_PS, GRID_TS

GOLDEN = (1 + math.sqrt(5)) / 2
# the rational p of the lb_certify benchmark grid
GRID_RATIONAL_PS = [F(101, 100), F(11, 10), F(13, 10), F(9, 5), F(2), F(5, 2), F(3), F(5), F(10)]
# sha256 of repr((row_names, rows, rhs)) of build_model(t, p, 1, relaxed): the
# row order, every coefficient and its type, all of which steer the simplex
MODEL_ROW_PINS = {
    (3, F(2), True): "1151415396c8a24b2d22bd19a6b16cde838bc1e57d09e25aee400edefab3aaf9",
    (3, F(2), False): "34d58639708221c1ef141caa63c57c5098e2590159abc17956bb1f223cc85afd",
    (5, 2.5, True): "fa994cf7e199fbe40518034dc2335a82de5b88679b456f9196a33fa6f73e1a1d",
    (5, 2.5, False): "966646b7fadaff55e90fde8eba95a79901859a0f07f34139421964bc2e20c797",
}
# sha256 of the repr of every predicted_exponent outcome and of every
# certificate_for frame and certificate, with its primal for rational p (the
# exception name where one raises), over t 2-9, GRID_PS and six lambdas;
# recorded while the primals came from layer recurrences, before both were
# read off the shape's tight rows (a float primal's last bits follow the
# order of operations, so float-p primals are checked against the exact ones
# in TestPrimalSolve instead)
LP_OUTPUT_PIN = "76291b5c1aeee1365fbec4e8cf035b33818d241e028b6cc1df41bb04dca58c11"
# sha256 of the repr of every rational outcome of primal_outcomes (``Name:
# message`` where a call raises), recorded from the layer recurrences
PRIMAL_PIN = "e8b654feff76d689aabf52d0bdcd69ed29c8ffa189d90db03fd5e6ec8f81cc18"
# the p of the primal sweep: 8 rational, p = 1 included, and 4 float
PRIMAL_PS = [F(1), F(101, 100), F(11, 10), F(3, 2), F(2), F(5, 2), F(3), F(10),
             GOLDEN, 1.01, 2.5, 7.0]
# sha256 of repr((ell, sorted(duals.items()))) of every solve outcome (the
# exception name where one raises), float and exact, relaxed and full models,
# over t 1-9, eight p and four lambdas; recorded before the exact certificate
# solved on the tight-row core of the basis
SOLVE_PIN = "4ab5481361db046ac8728b2c8e3a66a0736983373c24306f4da6504829dbaebb"
# sha256 of repr((objective, x, duals)) of the simplex answer behind every
# solve (the exception name where one raises), float and exact, relaxed and
# full models, over t 1-9, GRID_PS with the int and float forms of p, and
# lambda = k/20 of the LP's range (see certificate_outcomes); recorded from
# certificates made afresh at each lambda, before the lambda-free part of a
# basis's certificate was cached
ANSWER_PIN = "8768b5a8394743e5bec0b66b7bd8bdf5cab2a705decd51116876ef07be7810aa"


def lp_outputs_digest() -> str:
    lines = []
    for t in range(2, 10):
        for p in GRID_PS:
            top = 1 + 1 / p
            for k in range(1, 7):
                lam = top * (F(k, 6) if isinstance(p, F) else k / 6)
                for call in (predicted_exponent, certificate_for):
                    try:
                        out = call(t, p, lam)
                    except Exception as exc:  # noqa: BLE001 - the name is pinned too
                        lines.append(type(exc).__name__)
                        continue
                    if call is certificate_for and not isinstance(p, F):
                        out = (out[0], out[2])
                    lines.append(repr(out))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def primal_shapes():
    """Every (L,C,R) with L, R <= 4, C <= 3 and t >= 1, in each skew a shape
    can carry (a right skew needs C >= 1)."""
    for skew in (lb_lp.SKEW_NONE, SKEW_LEFT, SKEW_RIGHT):
        for L in range(5):
            for C in range(4):
                for R in range(5):
                    if L + C + R >= 1 and (skew != SKEW_RIGHT or C >= 1):
                        yield LcrParams(L, C, R, skew=skew)


def primal_outcomes(ps):
    """``(shape, p, lam, outcome)`` of each primal over ``primal_shapes`` at
    lambda = 1/3, 1 and 1 + 1/p: ``minimal_spanner_primal`` for a plain
    shape, ``skewed_primal`` for a skewed one; the outcome is the assignment
    or the exception."""
    for shape in primal_shapes():
        call = minimal_spanner_primal if shape.skew == lb_lp.SKEW_NONE else skewed_primal
        for p in ps:
            one = F(1) if isinstance(p, F) else 1.0
            for lam in (one / 3, one, 1 + 1 / p):
                try:
                    yield shape, p, lam, call(shape, p, lam)
                except Exception as exc:  # noqa: BLE001 - the message is pinned too
                    yield shape, p, lam, exc


def primal_outcomes_digest() -> tuple[str, int]:
    """``(digest, count)`` over the rational p of ``PRIMAL_PS``."""
    lines = [repr(out) if isinstance(out, dict) else f"{type(out).__name__}: {out}"
             for _shape, _p, _lam, out in primal_outcomes([p for p in PRIMAL_PS
                                                           if isinstance(p, F)])]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), len(lines)


@pytest.fixture
def empty_caches():
    """Empty the per-(t, p) caches before and after the test, so a test
    starts cold and no value computed under a patched internal outlives it."""
    caches = (lb_lp._base, lb_lp._base_dual, lb_lp._walk, lb_lp._primal_terms,
              lb_lp._unit, lb_lp._certificate)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def solve_outcomes_digest() -> str:
    lines = []
    for t in range(1, 10):
        for p in (F(1), F(11, 10), F(3, 2), F(2), F(5, 2), F(10), 1.5, GOLDEN):
            rational = isinstance(p, F)
            for k in (1, 4, 7, 10):
                lam = (1 + 1 / p) * (F(k, 10) if rational else k / 10)
                for relaxed in (True, False):
                    model = build_model(t, p, lam, relaxed=relaxed)
                    for exact in (False, True) if rational else (False,):
                        try:
                            res = solve(model, exact=exact)
                            lines.append(repr((res.ell, sorted(res.duals.items()))))
                        except Exception as exc:  # noqa: BLE001 - the name is pinned too
                            lines.append(type(exc).__name__)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestECoeff:
    def test_e11_p2(self):
        assert e_coeff(1, 1, F(2)) == 2

    def test_e_c0_any_p(self):
        for p in (F(1), F(3, 2), F(7)):
            assert e_coeff(3, 0, p) == 1

    def test_e12_p2(self):
        assert e_coeff(1, 2, F(2)) == F(5, 2)

    def test_p1_convention(self):
        assert e_coeff(2, 0, F(1)) == 1
        assert e_coeff(2, 1, F(1)) == F(3, 2)
        assert e_coeff(2, 5, F(1)) == F(3, 2)

    def test_bad_indices(self):
        with pytest.raises(ParameterError):
            e_coeff(0, 1, 2)
        with pytest.raises(ParameterError):
            e_coeff(1, -1, 2)


class TestModel:
    def test_relaxed_variable_count(self):
        # ell, nu0..nu2, delta1, delta2, Delta
        m = build_model(2, F(1), F(1))
        assert len(m.var_names) == 7

    def test_full_variable_count(self):
        m = build_model(3, F(2), F(1), relaxed=False)
        assert len(m.var_names) == 3 * 3 + 2

    def test_trivial_solution_feasible(self):
        # whole graph spans itself: (t=3, p=2, lambda=1) must be feasible
        m = build_model(3, F(2), F(1))
        res = solve(m, exact=True)
        assert res.ell >= 0

    def test_lambda_range_rejected(self):
        with pytest.raises(ParameterError):
            build_model(3, F(2), F(8, 5))  # above 1 + 1/p = 3/2
        with pytest.raises(ParameterError):
            build_model(3, F(2), 0)

    @pytest.mark.parametrize("t,p,relaxed", sorted(MODEL_ROW_PINS, key=repr))
    def test_rows_pinned(self, t, p, relaxed):
        m = build_model(t, p, 1, relaxed=relaxed)
        text = repr((m.row_names, m.rows, m.rhs))
        assert hashlib.sha256(text.encode()).hexdigest() == MODEL_ROW_PINS[(t, p, relaxed)]

    @pytest.mark.parametrize("p", [math.inf, float("nan"), 0.5])
    def test_p_outside_range_refused(self, p):
        # p is a finite real >= 1; the max-degree norm has its own closed form
        with pytest.raises(ParameterError, match="finite real"):
            build_model(3, p, 1.0)

    def test_bool_stretch_refused(self):
        # True == 1 would pass as an int and name a variable 'nuTrue'
        for call, args in ((build_model, (True, F(2), 1)), (derive_lcr, (F(2), True)),
                           (predicted_exponent, (True, F(2), 1))):
            with pytest.raises(ParameterError, match="stretch t must be a positive integer"):
                call(*args)

    @pytest.mark.parametrize("p", [1e300, F(10**300)])
    def test_p_too_large_for_the_floor_log_refused(self, p):
        # p/(p-1) rounds to 1.0, so the float seed of the floor-log has no scale
        with pytest.raises(ParameterError, match="rounds to 1"):
            derive_lcr(p, 3)

    def test_scale_free(self):
        # the model never sees n: identical builds for identical (t, p, lambda)
        a = build_model(4, F(3, 2), F(1))
        b = build_model(4, F(3, 2), F(1))
        assert a.rows == b.rows and a.rhs == b.rhs and a.var_names == b.var_names


class TestSolveSpotValues:
    def test_outcomes_pinned(self):
        assert solve_outcomes_digest() == SOLVE_PIN

    def test_t3_p2(self):
        assert solve(build_model(3, F(2), F(1)), exact=True).ell == F(1, 2)

    def test_t2_p15(self):
        assert solve(build_model(2, F(3, 2), F(1)), exact=True).ell == F(3, 5)

    def test_t2_p1(self):
        assert solve(build_model(2, F(1), F(1)), exact=True).ell == F(1, 2)

    def test_float_matches_exact(self):
        for t, p, lam in [(3, F(2), F(1)), (5, F(5, 2), F(6, 5)), (4, F(10), F(1))]:
            ef = solve(build_model(t, p, lam)).ell
            ex = solve(build_model(t, p, lam), exact=True).ell
            assert abs(float(ef) - float(ex)) < 1e-9

    def test_full_equals_relaxed(self):
        for t, p, lam in [
            (2, F(3, 2), F(1)),
            (3, F(2), F(1)),
            (4, F(13, 10), F(1)),
            (5, F(3), F(11, 10)),
            (6, F(5), F(6, 5)),
            (3, F(10), F(21, 20)),
        ]:
            relaxed = solve(build_model(t, p, lam), exact=True).ell
            full = solve(build_model(t, p, lam, relaxed=False), exact=True).ell
            assert relaxed == full

    def test_monotone_in_lambda(self):
        prev = None
        top = 1 + F(2, 7)
        for k in range(1, 11):
            lam = top * F(k, 10)
            ell = solve(build_model(4, F(7, 2), lam), exact=True).ell
            if prev is not None:
                assert ell >= prev
            prev = ell

    def test_monotone_in_stretch(self):
        prev = None
        for t in range(2, 8):
            ell = solve(build_model(t, F(2), F(1)), exact=True).ell
            if prev is not None:
                assert ell <= prev
            prev = ell


def _solve_outcome(model, exact) -> str:
    try:
        res = solve(model, exact=exact)
    except Exception as exc:  # noqa: BLE001 - the name is compared too
        return type(exc).__name__
    return repr((res.ell, sorted(res.duals.items())))


@pytest.fixture
def float_pivots(monkeypatch):
    """Counts the float pivot runs ``simplex._pivot_phases`` starts."""
    runs = []

    def counted(prog, tol):
        if tol:
            runs.append(tol)
        return real(prog, tol)

    real = simplex._pivot_phases
    monkeypatch.setattr(simplex, "_pivot_phases", counted)
    return runs


class TestFloatRunReuse:
    """A model pivots in float once; the answers are a fresh model's."""

    @pytest.mark.parametrize("first", [False, True], ids=["float-first", "exact-first"])
    @pytest.mark.parametrize("relaxed", [True, False])
    def test_one_float_pivot_per_model(self, float_pivots, first, relaxed):
        model = build_model(5, F(5, 2), F(6, 5), relaxed=relaxed)
        for exact in (first, not first, first, not first):
            solve(model, exact=exact)
        assert len(float_pivots) == 1
        assert all(type(j) is int for j in model._basis[0])

    @pytest.mark.parametrize("p, lam", [(GOLDEN, (1 + 1 / GOLDEN) * 1.0), (2.5, F(1)),
                                        (F(5, 2), 1.0), (3, 0.5)])
    def test_exact_on_float_data_refused_before_pivot(self, float_pivots, p, lam):
        # the float golden ratio at its lambda cap used to raise Infeasible
        for relaxed in (True, False):
            model = build_model(4, p, lam, relaxed=relaxed)
            with pytest.raises(ParameterError, match="int or Fraction"):
                solve(model, exact=True)
            assert model._basis == [] and float_pivots == []
            assert solve(model).ell >= 0
            float_pivots.clear()

    @pytest.mark.parametrize("exact", [False, True])
    def test_raised_float_run_stores_nothing(self, monkeypatch, exact):
        # a float run forced to raise leaves the model as it was, and the
        # next calls answer as a fresh model does
        model = build_model(4, F(3), F(1))
        real = simplex._pivot_phases

        def refused(prog, tol):
            if tol:
                raise simplex._NeedsExact
            return real(prog, tol)

        monkeypatch.setattr(simplex, "_pivot_phases", refused)
        _solve_outcome(model, exact)
        assert model._basis == []
        monkeypatch.setattr(simplex, "_pivot_phases", real)
        for again in (False, True):
            assert _solve_outcome(model, again) == _solve_outcome(build_model(4, F(3), F(1)), again)
        assert len(model._basis) == 1

    def test_solved_model_equals_its_unsolved_twin(self):
        solved, twin = build_model(3, F(2), F(1)), build_model(3, F(2), F(1))
        solve(solved)
        solve(solved, exact=True)
        assert solved._basis and not twin._basis
        assert repr(solved) == repr(twin)
        assert solved == twin
        assert hash(solved) == hash(twin)


def certificate_outcomes(monkeypatch) -> tuple[str, Counter]:
    """``(digest, raised)`` of ``ANSWER_PIN``'s grid: the sha256 of every
    answer behind ``solve``, each solve in its own line ordered by (family,
    lambda, mode), and the names of the exceptions raised.

    The families (t, p, relaxed) take turns at three orders, each from an
    empty ``_certificate``: lambda ascending with the float solve first on
    each model, lambda descending with the exact solve first, and a
    shuffled lambda and mode order.
    """
    answers = []
    real = lb_lp._solve

    def recorded(*args):
        sol = real(*args)
        answers.append(repr((sol.objective, sol.x, sol.duals)))
        return sol

    monkeypatch.setattr(lb_lp, "_solve", recorded)
    rng = random.Random(25)
    lines, raised = {}, Counter()
    families = [(t, p, relaxed) for t in range(1, 10) for p in [*GRID_PS, 2, 10, 1.3, 2.5]
                for relaxed in (True, False)]
    for f, (t, p, relaxed) in enumerate(families):
        top = 1 + (1 / p if isinstance(p, float) else F(1) / p)
        order = [(k, top * (k / 20 if isinstance(p, float) else F(k, 20))) for k in range(1, 21)]
        modes = (True, False) if f % 3 == 1 else (False, True)
        if f % 3 == 1:
            order.reverse()
        elif f % 3 == 2:
            rng.shuffle(order)
        lb_lp._certificate.cache_clear()
        for k, lam in order:
            model = build_model(t, p, lam, relaxed=relaxed)
            for exact in rng.sample(modes, 2) if f % 3 == 2 else modes:
                try:
                    solve(model, exact=exact)
                    lines[f, k, exact] = answers[-1]
                except Exception as exc:  # noqa: BLE001 - the name is pinned too
                    lines[f, k, exact] = type(exc).__name__
                    raised[type(exc).__name__] += 1
    text = "\n".join(lines[key] for key in sorted(lines))
    return hashlib.sha256(text.encode()).hexdigest(), raised


class TestCertificateCache:
    """``_certificate`` keeps the lambda-free part of each basis's
    certificate; no answer depends on it, on the order that fills it, or on
    which mode solves a model first."""

    def test_answers_match_certificates_made_afresh(self, monkeypatch, empty_caches):
        digest, raised = certificate_outcomes(monkeypatch)
        # every exact solve on float data is refused before any pivot: the
        # float golden ratio and 1.3 and 2.5, 20 lambdas, relaxed and full,
        # t 1-9
        assert raised == Counter({"ParameterError": 3 * 20 * 2 * 9})
        assert digest == ANSWER_PIN

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("stale", ["other-lambda", "singular"])
    def test_refused_basis_climbs_the_ladder(self, monkeypatch, empty_caches, stale, exact):
        # a basis the stored certificate refuses: the optimal basis at
        # lambda = 1/20 of the range, asked about the top of the range,
        # where a basic value turns negative, or a basis naming one column
        # throughout, which every lambda refuses and the cache holds as
        # refused.  The ladder pivots exactly, and the answer is the one the
        # certificates made afresh give from the same basis
        t, p = 3, F(2)
        low, high = (build_model(t, p, (1 + 1 / p) * F(k, 20)) for k in (1, 20))
        solve(low)
        basis = low._basis[0] if stale == "other-lambda" else (0,) * len(low._basis[0])
        high._basis.append(basis)
        answers, pivots = [], []
        real, real_pivot = lb_lp._solve, simplex._pivot_phases

        def recorded(*args):
            answers.append(real(*args))
            return answers[-1]

        def pivot(prog, tol):
            pivots.append(tol)
            return real_pivot(prog, tol)

        monkeypatch.setattr(lb_lp, "_solve", recorded)
        monkeypatch.setattr(simplex, "_pivot_phases", pivot)
        got = solve(high, exact=exact)
        assert pivots == [0]
        refused = lb_lp._certificate(t, p, True, basis, exact)
        assert refused is None if stale == "singular" else refused is not None
        afresh = real(lb_lp._lp_data(high)[0], exact, [basis])
        assert repr(answers) == repr([afresh])
        fresh = solve(build_model(t, p, high.lam), exact=exact)
        assert got.ell == (fresh.ell if exact else pytest.approx(fresh.ell, abs=1e-12))

    def test_parts_are_plain_tuples(self, empty_caches):
        # a float part is the duals' floats, bit for bit; an exact part is
        # ints and tuples of ints (this LP's costs are ints)
        t, p = 4, F(5, 2)
        model = build_model(t, p, (1 + 1 / p) * F(3, 5))
        solve(model)
        basis = model._basis[0]
        duals = lb_lp._certificate(t, p, True, basis, False)
        data = lb_lp._lp_data(model)[0]
        assert type(duals) is tuple
        assert repr(duals) == repr(simplex._solve(data, False, [basis]).duals)
        parts = lb_lp._certificate(t, p, True, basis, True)
        assert type(parts) is tuple and len(parts) == 6
        assert all(type(v) is int or (type(v) is tuple and all(type(w) is int for w in v))
                   for v in parts)

    @staticmethod
    def made_parts(monkeypatch) -> Counter:
        """Count the simplex certificate parts made from here on."""
        made = Counter()
        for name in ("_float_duals", "_exact_parts"):
            real = getattr(simplex, name)
            monkeypatch.setattr(simplex, name,
                                lambda *a, name=name, real=real: made.update([name]) or real(*a))
        return made

    def test_float_sweep_makes_no_exact_part(self, monkeypatch, empty_caches):
        # lb-sweep solves rational (t, p) in float only: no rung asks for an
        # exact part, so none is made
        from spanorm.cli import _lp_agreement

        made = self.made_parts(monkeypatch)
        t, p = 4, F(5, 2)
        for k in range(1, 21):
            assert _lp_agreement(t, p, (1 + 1 / p) * F(k, 20))[3]
        assert made["_float_duals"] == lb_lp._certificate.cache_info().currsize > 0
        assert made["_exact_parts"] == 0

    def test_exact_report_makes_no_float_part(self, monkeypatch, empty_caches):
        # lb --exact --certificate: the exact rung asks for the exact part
        # alone, and the base shape's dual solves no LP
        from spanorm.cli import _lb_report

        made = self.made_parts(monkeypatch)
        report = _lb_report(3, F(2), 1, exact=True, want_certificate=True)
        assert report["verified"] and report["ell_exact"] == {"num": 1, "den": 2}
        assert made == Counter({"_exact_parts": 1})


class TestDeriveLcr:
    def test_even_lowest_range(self):
        assert derive_lcr(F(13, 10), 4) == LcrParams(2, 0, 2)

    def test_odd_lowest_range(self):
        assert derive_lcr(F(2), 5) == LcrParams(2, 1, 2)

    def test_high_p_interval(self):
        # (10/9)^3 lands in [1*(10/9), 2*(10/9)^2)
        assert derive_lcr(F(10), 3) == LcrParams(0, 1, 2)

    def test_floor_log_stops_at_the_cap(self):
        # the largest k <= cap with (p/(p-1))**k <= value, by a plain count
        for p in (F(11, 10), F(5, 2), F(10), F(100000)):
            r = p / (p - 1)
            for value in (F(1), F(3, 2), r**4, r**4 * F(999999, 1000000), F(100)):
                k = 0
                while k < 8 and r ** (k + 1) <= value:
                    k += 1
                assert lb_lp._floor_log_ratio(p, value, 8) == k, (p, value)

    def test_t_must_be_at_least_2(self):
        with pytest.raises(ParameterError):
            derive_lcr(F(2), 1)

    def test_c_range_cond5(self):
        # p-2 <= C <= p whenever the L > 0 condition system applies (the lower
        # bound on C comes from the x <= b_L condition, which only exists there)
        for p in (F(101, 100), F(3, 2), F(9, 5), F(5, 2), F(3), F(5), F(10)):
            for t in range(2, 9):
                params = derive_lcr(p, t)
                assert params.C <= p
                if params.L > 0 and params.C > 0:
                    assert params.C >= p - 2
                assert params.L <= params.R
                assert params.t == t

    def test_continuity_in_p(self):
        # adjacent p grid points change each component by at most 1
        t = 6
        prev = None
        steps = 400
        for i in range(steps):
            p = 1.01 + (12.0 - 1.01) * i / (steps - 1)
            cur = derive_lcr(p, t)
            if prev is not None:
                assert abs(cur.L - prev.L) <= 1
                assert abs(cur.C - prev.C) <= 1
                assert abs(cur.R - prev.R) <= 1
            prev = cur


class TestConditions:
    def test_111_p2(self):
        report = verify_lcr_conditions(LcrParams(1, 1, 1), F(2))
        assert report.applicable and report.all_ok
        by_name = {c.name: c for c in report}
        assert by_name["cond2"].ok and by_name["cond5-lo"].ok and by_name["cond5-hi"].ok

    def test_c0_not_applicable(self):
        report = verify_lcr_conditions(LcrParams(2, 0, 2), F(3, 2))
        assert not report.applicable
        assert not report.all_ok

    def test_walk_frames_not_applicable(self):
        # a skewed frame has no condition system: construct_dual and
        # verify_certificate decide it, as the walk does
        frames = [(frame, p) for p in GRID_RATIONAL_PS for t in range(2, 10)
                  for frame, _cert in lb_lp._walk(t, p)[1]]
        assert Counter(frame.skew for frame, _p in frames) == {SKEW_RIGHT: 83, SKEW_LEFT: 23}
        for frame, p in frames:
            report = verify_lcr_conditions(frame, p)
            assert not report.applicable and report.conditions == ()

    def test_012_p10(self):
        report = verify_lcr_conditions(LcrParams(0, 1, 2), F(10))
        assert report.all_ok
        by_name = {c.name: c for c in report}
        # (10/9)^2 >= 1 and (10/9)^1 <= 2
        assert by_name["cond3"].ok and by_name["cond4"].ok

    def test_derived_params_always_verify(self):
        for p in (F(9, 5), F(5, 2), F(3), F(5), F(10)):
            for t in range(2, 9):
                params = derive_lcr(p, t)
                if params.C == 0:
                    continue
                assert verify_lcr_conditions(params, p).all_ok


class TestClosedForms:
    def test_111_p2(self):
        assert closed_form_exponent(LcrParams(1, 1, 1), F(2), F(1)) == F(1, 2)

    def test_c0_matches_low_p_alpha(self):
        # (t/2, 0, t/2) reproduces the even-stretch alpha formula (compare the
        # alpha*lambda line itself; nu=0 switches off the connectivity floor)
        for t in (2, 4, 6):
            for p in (F(1), F(11, 10), F(3, 2)):
                params = LcrParams(t // 2, 0, t // 2)
                lam = F(1)
                got = closed_form_exponent(params, p, lam)
                assert got == low_p_exponent(t, p, lam, nu=0)

    def test_boundary_lambda_accepted(self):
        params = LcrParams(0, 1, 2)
        p = F(10)
        lam = nice_range_max(params, p)
        closed_form_exponent(params, p, lam)  # closed interval: no raise

    def test_above_boundary_raises(self):
        params = LcrParams(0, 1, 2)
        p = F(10)
        lam = nice_range_max(params, p) + F(1, 1000)
        with pytest.raises(NiceRangeExceeded):
            closed_form_exponent(params, p, lam)

    def test_low_p_examples(self):
        assert low_p_exponent(3, F(2), F(1)) == F(1, 2)
        assert low_p_exponent(2, F(3, 2), F(6, 5)) == F(18, 25)
        assert low_p_exponent(3, F(2), F(4, 5)) == F(1, 2)  # floor dominates

    def test_low_p_range_rejected(self):
        with pytest.raises(ParameterError):
            low_p_exponent(4, F(17, 10), F(1))  # above golden ratio
        with pytest.raises(ParameterError):
            low_p_exponent(5, F(21, 10), F(1))


class TestDualCertificates:
    def test_111_p2_values(self):
        # unique solution of the complementary-slackness system at eps = 1/12
        cert = construct_dual(LcrParams(1, 1, 1), F(2))
        eps = F(1, 12)
        assert cert.eps == eps
        assert cert.x == 3 * eps
        assert cert.a == (0, 3 * eps, 6 * eps)
        assert cert.b == (3 * eps, 0, 0)
        assert cert.D == (0, 0, 3 * eps)
        assert cert.y == 6 * eps and cert.w == 3 * eps and cert.s == 0

    def test_high_p_s_nonnegative(self):
        cert = construct_dual(LcrParams(0, 1, 2, skew=SKEW_RIGHT), F(10))
        assert cert.s >= 0
        # paper form: s = (C+1 - (p/(p-1))**(R-1)) * x
        assert cert.s == (2 - F(10, 9)) * cert.x

    @pytest.mark.parametrize("p", [F(2), 2.0])
    def test_left_skew_without_left_section_refused(self, p):
        # a left skew makes delta_L tight, and L = 0 has no delta_0
        with pytest.raises(DualConstructionError, match="not square"):
            construct_dual(LcrParams(0, 1, 2, skew=SKEW_LEFT), p)

    def test_verify_accepts_matching_pair(self):
        lam = F(1)
        model = build_model(3, F(2), lam)
        primal = minimal_spanner_primal(LcrParams(1, 1, 1), F(2), lam)
        cert = construct_dual(LcrParams(1, 1, 1), F(2))
        assert verify_certificate(model, primal, cert)

    def test_verify_rejects_zero_certificate(self):
        from spanorm.lb_lp import DualCertificate

        lam = F(1)
        model = build_model(3, F(2), lam)
        primal = minimal_spanner_primal(LcrParams(1, 1, 1), F(2), lam)
        zero = DualCertificate(0, (0, 0, 0), (0, 0, 0), (0, 0, 0), 0, 0, 0)
        chk = verify_certificate(model, primal, zero)
        assert not chk.ok

    def test_verify_rejects_perturbed(self):
        lam = F(1)
        model = build_model(3, F(2), lam)
        primal = minimal_spanner_primal(LcrParams(1, 1, 1), F(2), lam)
        cert = construct_dual(LcrParams(1, 1, 1), F(2))
        bumped = type(cert)(
            x=cert.x,
            a=(cert.a[0] + F(1, 1000), cert.a[1], cert.a[2]),
            b=cert.b,
            D=cert.D,
            y=cert.y,
            w=cert.w,
            s=cert.s,
        )
        chk = verify_certificate(model, primal, bumped)
        assert not chk.ok
        assert any("left1" in v or "objective" in v or "slackness" in v for v in chk.violations)

    def test_negative_component_outside_validity(self):
        # (0,5,1) right-skewed at p=5 violates a_1 >= 0 (C > p-1)
        with pytest.raises(DualConstructionError):
            construct_dual(LcrParams(0, 5, 1, skew=SKEW_RIGHT), F(5))

    def test_c0_routes_through_lp(self):
        cert = construct_dual(LcrParams(2, 0, 2), F(3, 2))
        lam = F(1)
        model = build_model(4, F(3, 2), lam)
        primal = minimal_spanner_primal(LcrParams(2, 0, 2), F(3, 2), lam)
        assert verify_certificate(model, primal, cert)

    @pytest.mark.parametrize("relaxed", [True, False])
    def test_solve_duals_certify_ell(self, relaxed):
        # u >= 0 on the >= rows, A^T u <= c column by column, rhs . u = ell
        model = build_model(4, F(13, 10), F(6, 5), relaxed=relaxed)
        res = solve(model, exact=True)
        assert set(res.duals) == set(model.row_names)
        u = [res.duals[name] for name in model.row_names]
        assert all(v >= 0 for i, v in enumerate(u) if i not in model.eq_rows)
        for j, var in enumerate(model.var_names):
            cost = 1 if var == "ell" else 0
            assert sum(row[j] * v for row, v in zip(model.rows, u)) <= cost
        assert sum(r * v for r, v in zip(model.rhs, u)) == res.ell

    @pytest.mark.parametrize("t,p", [(3, F(2)), (6, F(5)), (8, F(9, 5)), (7, F(3)), (5, 2.5)])
    def test_closed_form_and_lp_duals_both_verify(self, t, p):
        base = derive_lcr(p, t)
        assert base.C > 0
        closed = construct_dual(base, p)
        from_lp = lb_lp._lp_dual(base, p)
        top = nice_range_max(base, p)
        for k in range(1, 9):
            lam = top * (F(k, 8) if isinstance(p, F) else k / 8)
            model = build_model(t, p, lam)
            primal = minimal_spanner_primal(base, p, lam)
            assert verify_certificate(model, primal, closed)
            assert verify_certificate(model, primal, from_lp)


class TestCertificatePipeline:
    @pytest.mark.parametrize(
        "t,p",
        [
            (3, F(2)),
            (3, F(10)),
            (4, F(13, 10)),
            (5, F(5, 2)),
            (6, F(5)),
            (8, F(9, 5)),
            (7, F(3)),
        ],
    )
    def test_certified_across_lambda(self, t, p):
        top = 1 + 1 / F(p)
        for k in range(1, 9):
            lam = top * F(k, 8)
            params, primal, cert = certificate_for(t, p, lam)
            model = build_model(t, p, lam)
            assert verify_certificate(model, primal, cert)
            lp = solve(model, exact=True)
            assert cert.objective(lam) == lp.ell
            pred, info = predicted_exponent(t, p, lam)
            assert pred == lp.ell

    def test_singular_case_system_refused(self):
        # at p = 1 the right-skewed (1,1,1) frame's system is singular, and
        # skewed frames have no LP fallback
        for p in (F(1), 1.0):
            with pytest.raises(DualConstructionError, match="singular"):
                construct_dual(LcrParams(1, 1, 1, skew=SKEW_RIGHT), p)

    @pytest.mark.parametrize("p", [F(1), 1.0])
    @pytest.mark.parametrize("t", [3, 5, 7, 9])
    def test_p1_odd_t_certified_by_lp_duals(self, t, p):
        # the plain (L,1,L) system is singular at p = 1; the LP duals stand in.
        # Its central right row coincides with left row L+1 there, and the
        # primal reads it as nu_L = nu_(L+1), the shape's equal central layers
        assert derive_lcr(p, t) == LcrParams(t // 2, 1, t // 2)
        for k in range(1, 21):
            lam = 2 * F(k, 20) if isinstance(p, F) else k / 10
            _params, primal, cert = certificate_for(t, p, lam)
            model = build_model(t, p, lam)
            assert verify_certificate(model, primal, cert), (t, p, lam)
            assert primal[f"nu{t // 2}"] == primal[f"nu{t // 2 + 1}"]
            if isinstance(p, F):
                assert cert.objective(lam) == solve(model, exact=True).ell

    @pytest.mark.parametrize("p", [F(5), 5.0, 5])
    def test_prediction_and_certificate_share_a_segment(self, p):
        base = derive_lcr(p, 5)
        top = 1 + 1 / F(p) if not isinstance(p, float) else 1 + 1 / p
        seen = set()
        for k in range(1, 21):
            lam = top * (F(k, 20) if not isinstance(p, float) else k / 20)
            _pred, info = predicted_exponent(5, p, lam)
            frame, _primal, _cert = certificate_for(5, p, lam)
            if info["segment"] is None:
                assert frame == base
                continue
            frames = lb_lp._walk(5, lb_lp._exactify(p))[1]
            assert frame == frames[info["segment"] - 1][0]
            seen.add(info["segment"])
        assert len(seen) >= 3

    def test_exact_lambda_just_above_a_walk_cap(self):
        # an exact lambda 1e-14 above a cap lies in the next segment; no
        # float tolerance may pull it back into the one below
        checked = 0
        for p in GRID_RATIONAL_PS:
            for t in range(2, 9):
                shapes = lb_lp._walk(t, p)[0]
                for s in shapes[:-1]:
                    lam = min(nice_range_max(s, p), 1 + 1 / p) + F(1, 10**14)
                    model = build_model(t, p, lam)
                    pred, info = predicted_exponent(t, p, lam)
                    assert pred == solve(model, exact=True).ell, (t, p, lam, info)
                    _params, primal, cert = certificate_for(t, p, lam)
                    assert verify_certificate(model, primal, cert), (t, p, lam)
                    checked += 1
        assert checked == 88  # the walk caps below 1 + 1/p on this grid

    @pytest.mark.parametrize("t,p", [(2, F(2)), (3, F(3)), (4, F(9, 5)), (5, F(10)), (4, 2)])
    def test_exact_lambda_above_top_refused(self, t, p):
        lam = 1 + F(1) / p + F(1, 10**14)
        for call in (build_model, predicted_exponent, certificate_for):
            with pytest.raises(ParameterError):
                call(t, p, lam)

    @pytest.mark.parametrize("t,p,lam", [(3, 2.0, -1.0), (3, F(2), F(0)),
                                         (2, 2.0, 1.50000000000001),
                                         (5, 3.0, 1 + 1 / 3.0 + 1e-14)])
    def test_lambda_outside_the_lp_range_refused(self, t, p, lam):
        # one range test for all three: a prediction or certificate exists
        # only where build_model has an LP to check it against
        for call in (build_model, predicted_exponent, certificate_for):
            with pytest.raises(ParameterError):
                call(t, p, lam)

    @pytest.mark.parametrize("p", [0, None, 0.5])
    def test_p_outside_range_refused_before_lambda(self, p):
        # p is checked before the lambda range, which divides by p
        for call in (build_model, predicted_exponent, certificate_for):
            with pytest.raises(ParameterError, match="finite real"):
                call(3, p, 1)

    def test_walk_certificate_reused(self, monkeypatch, empty_caches):
        # the walk keeps the certificate that chose each move, so a second
        # lambda in the same segment proves no dual again
        t, p = 5, F(5)
        _shapes, frames, caps, _ends = lb_lp._walk(t, p)
        lams = [caps[0] + (caps[1] - caps[0]) * F(k, 3) for k in (1, 2)]
        assert [predicted_exponent(t, p, lam)[1]["segment"] for lam in lams] == [1, 1]
        certificate_for(t, p, lams[0])
        calls = []
        real = lb_lp.construct_dual

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lb_lp, "construct_dual", counted)
        frame, primal, cert = certificate_for(t, p, lams[1])
        assert calls == []
        assert (frame, cert) == frames[0]
        assert cert == real(frame, p)
        assert verify_certificate(build_model(t, p, lams[1]), primal, cert)

    def test_walk_cache_keyed_on_type_of_p(self, empty_caches):
        base = derive_lcr(F(5), 5)
        exact = lb_lp._walk(5, F(5))
        assert lb_lp._walk.cache_info().currsize == 1
        assert exact[0][0] == base
        assert lb_lp._walk(5, F(5)) is exact
        approx = lb_lp._walk(5, 5.0)
        assert lb_lp._walk.cache_info().currsize == 2
        assert approx is not exact
        # the same shapes and frames; the caps and certificates follow the type of p
        assert approx[0] == exact[0]
        assert [frame for frame, _cert in approx[1]] == [frame for frame, _cert in exact[1]]

    def test_skewed_primal_endpoints(self):
        # tau = 0 at the nice boundary reproduces the plain shape
        p = F(10)
        base = derive_lcr(p, 3)
        lam = nice_range_max(base, p)
        frame = LcrParams(base.L, base.C, base.R, skew=SKEW_RIGHT)
        skew = skewed_primal(frame, p, lam)
        plain = minimal_spanner_primal(base, p, lam)
        assert skew["_tau"] == 0
        for key in plain:
            assert math.isclose(float(skew[key]), float(plain[key]), abs_tol=1e-12)


class TestFactsCache:
    def test_lp_outputs_pinned(self, empty_caches):
        # from an empty cache and again from the full one
        assert lp_outputs_digest() == LP_OUTPUT_PIN
        assert lp_outputs_digest() == LP_OUTPUT_PIN

    def test_keyed_on_type_of_p(self, empty_caches):
        # one entry per (t, type(p)): the int 2 is exactified to Fraction(2)
        assert derive_lcr(2.0, 3) == derive_lcr(F(2), 3) == derive_lcr(2, 3)
        info = lb_lp._base.cache_info()
        assert (info.currsize, info.misses, info.hits) == (2, 2, 1)
        assert type(lb_lp._base(3, 2.0)[1]) is float
        assert type(lb_lp._base(3, F(2))[1]) is F
        assert lb_lp._base.cache_info().currsize == 2

    def test_exceptions_not_cached(self, monkeypatch, empty_caches):
        calls = []
        real = lb_lp._derive_shape

        def counted(p, t):
            calls.append((p, t))
            return real(p, t)

        monkeypatch.setattr(lb_lp, "_derive_shape", counted)
        for _ in range(2):
            with pytest.raises(ParameterError, match="rounds to 1"):
                derive_lcr(1e300, 3)
            with pytest.raises(ParameterError):
                derive_lcr(F(2), 1)
        assert calls == [(1e300, 3)] * 2
        # no branch verifies: both candidates fail their (stubbed) conditions
        real_verify = lb_lp.verify_lcr_conditions
        monkeypatch.setattr(lb_lp, "verify_lcr_conditions",
                            lambda params, p: ConditionReport(params, False, ()))
        for _ in range(2):
            with pytest.raises(DeriveDiagnostic):
                derive_lcr(F(10), 3)
        assert lb_lp._base.cache_info().currsize == 0
        monkeypatch.setattr(lb_lp, "verify_lcr_conditions", real_verify)
        assert derive_lcr(F(10), 3) == LcrParams(0, 1, 2)
        assert lb_lp._base.cache_info().currsize == 1
        assert lb_lp._base(3, F(10))[0] == LcrParams(0, 1, 2)
        assert lb_lp._base.cache_info().hits == 1

    def test_grid_pass_derives_once_per_key(self, monkeypatch, empty_caches):
        # the lb_certify calls over the acceptance grid: each (t, p) runs the
        # uncached shape derivation and the base shape's dual at most once
        shapes, duals = Counter(), Counter()
        real_shape, real_dual = lb_lp._derive_shape, lb_lp.construct_dual

        def counted_shape(p, t):
            shapes[t, type(p), p] += 1
            return real_shape(p, t)

        def counted_dual(params, p):
            if params.skew == lb_lp.SKEW_NONE:
                duals[params.t, type(p), p] += 1
            return real_dual(params, p)

        monkeypatch.setattr(lb_lp, "_derive_shape", counted_shape)
        monkeypatch.setattr(lb_lp, "construct_dual", counted_dual)
        for p in GRID_PS:
            for t in GRID_TS:
                certifiable = verify_lcr_conditions(derive_lcr(p, t), p).all_ok
                top = 1 + 1 / p
                for k in range(1, GRID_LAMBDA_POINTS + 1):
                    lam = top * (F(k, GRID_LAMBDA_POINTS) if isinstance(p, F)
                                 else k / GRID_LAMBDA_POINTS)
                    predicted_exponent(t, p, lam)
                    if certifiable:
                        certificate_for(t, p, lam)
        assert len(shapes) == len(GRID_PS) * len(GRID_TS)
        assert set(shapes.values()) == {1}
        assert duals and set(duals) <= set(shapes)
        assert set(duals.values()) == {1}
        assert lb_lp._base.cache_info().currsize == len(shapes)
        assert lb_lp._base_dual.cache_info().currsize == len(duals)

    def test_warm_predictions_evaluate_no_closed_form(self, monkeypatch, empty_caches):
        # the slope of the base shape and the walk's end values are facts of
        # (t, p): once filled, a prediction is a product or an interpolation
        calls = []
        real = lb_lp.e_coeff

        def counted(i, j, p):
            calls.append((i, j, p))
            return real(i, j, p)

        grid = [(t, p, (1 + 1 / p) * (F(k, 20) if isinstance(p, F) else k / 20))
                for p in GRID_PS for t in GRID_TS for k in range(1, 21)]
        monkeypatch.setattr(lb_lp, "e_coeff", counted)
        cold = [predicted_exponent(*point) for point in grid]
        assert calls
        calls.clear()
        assert [predicted_exponent(*point) for point in grid] == cold
        assert calls == []

    def test_warm_primals_evaluate_no_layer_term(self, monkeypatch, empty_caches):
        # a shape's tight-row solve is a fact of (shape, p): once filled, a
        # primal is x0 + lambda * x1 and builds no model and solves nothing
        # (LP_OUTPUT_PIN and PRIMAL_PIN pin the exact values)
        calls = []
        for name in ("build_model", "_dense_solve"):
            real = getattr(lb_lp, name)
            monkeypatch.setattr(lb_lp, name,
                                lambda *a, real=real, **kw: calls.append(a) or real(*a, **kw))
        cases = [(LcrParams(1, 1, 1), F(2)), (LcrParams(2, 0, 2), F(3, 2)),
                 (LcrParams(1, 2, 3), 2.5), (LcrParams(3, 0, 1), GOLDEN),
                 (LcrParams(1, 1, 2, skew=SKEW_RIGHT), F(10)),
                 (LcrParams(2, 0, 1, skew=SKEW_LEFT), F(3))]
        grid = [(shape, p, lam) for shape, p in cases
                for lam in ((1 + 1 / p) * k / 5 for k in range(1, 6))]

        def primals():
            out = []
            for shape, p, lam in grid:
                call = minimal_spanner_primal if shape.skew == lb_lp.SKEW_NONE else skewed_primal
                try:
                    out.append(repr(call(shape, p, lam)))
                except ParameterError as exc:
                    out.append(str(exc))
            return out

        cold = primals()
        assert any(text.startswith("{") for text in cold)
        assert calls
        calls.clear()
        assert primals() == cold
        assert calls == []
        assert lb_lp._primal_terms.cache_info().currsize == len(cases)
        # a plain shape stores no x0: its only nonzero rhs is the density's
        assert lb_lp._primal_terms(LcrParams(1, 1, 1), F(2))[0] is None

    @pytest.mark.parametrize("p", [F(10), 10.0])
    def test_skewed_terms_eliminate_once(self, monkeypatch, empty_caches, p):
        # a skewed frame's density and cap right-hand sides share one
        # elimination of its tight rows
        solves = []
        real = lb_lp._dense_solve
        monkeypatch.setattr(lb_lp, "_dense_solve",
                            lambda mat, *rhs: solves.append(len(rhs)) or real(mat, *rhs))
        x0, x1 = lb_lp._primal_terms(LcrParams(1, 1, 2, skew=SKEW_RIGHT), p)
        assert solves == [2]
        assert x0 is not None and len(x0) == len(x1)


class TestPrimalSolve:
    def test_outcomes_pinned(self, empty_caches):
        assert primal_outcomes_digest() == (PRIMAL_PIN, 6552)

    def test_float_primals_match_the_exact_ones(self, empty_caches):
        # a float-p primal is the float solve of the tight rows; it stays
        # within 1e-12 of the exact primal at the rationals the floats stand for
        worst = 0.0
        for p in (GOLDEN, 2.5, 1.3, 1.01, 7.0):
            for t in range(2, 10):
                for k in range(1, 21):
                    lam = (1 + 1 / p) * k / 20
                    try:
                        frame, primal, _cert = certificate_for(t, p, lam)
                    except (ParameterError, DualConstructionError):
                        continue
                    call = minimal_spanner_primal if frame.skew == lb_lp.SKEW_NONE \
                        else skewed_primal
                    exact = call(frame, F(p), F(lam))
                    assert list(primal) == list(exact)
                    assert all(type(v) is float for v in primal.values())
                    for key, value in exact.items():
                        err = abs(primal[key] - float(value)) / max(1.0, abs(float(value)))
                        worst = max(worst, err)
        assert worst <= 1e-12


class TestLbValue:
    def test_t3_p2_sqrt_lambda(self):
        assert lb_value(3, 2, 10**4, 10**4) == pytest.approx(10**2, rel=1e-9)

    def test_t2_p15(self):
        # the LP line gives exponent 0.6, but at Lambda = n the connectivity
        # floor n**(1/p) = n**(2/3) is larger and wins the max
        assert lb_value(2, 1.5, 10**6, 10**6) == pytest.approx(10 ** (4.0), rel=1e-9)
        assert solve(build_model(2, F(3, 2), F(1)), exact=True).ell == F(3, 5)

    def test_floor_dominates(self):
        n = 10**4
        p = 2.0
        val = lb_value(3, p, n, 2 * n ** (1 / p))
        assert val == pytest.approx(n ** (1 / p), rel=1e-6)

    def test_range_violations(self):
        with pytest.raises(ParameterError):
            lb_value(3, 2, 100, 5.0)  # below 2 sqrt(n)
        with pytest.raises(ParameterError):
            lb_value(3, 2, 100, 10**6)


def test_lb_value_infinity_endpoint():
    # max-degree norm routes to the Lambda**(1/t) closed form
    from spanorm.graph_core import INFINITY

    assert lb_value(3, INFINITY, 10**6, 1000) == pytest.approx(10.0)
    assert lb_value(2, INFINITY, 100, 49) == pytest.approx(7.0)
    with pytest.raises(ParameterError):
        lb_value(3, INFINITY, 100, 1000)


def test_lb_value_p1_floor():
    # p = 1 is the continuous extension; the connectivity floor n wins
    n = 400
    assert lb_value(3, 1, n, 4 * n) == pytest.approx(float(n))


def test_fuzz_lp_prediction_certificate_agreement():
    # random rational parameters, including stretches beyond the fixed grid;
    # the LP optimum, the piecewise prediction, and the certificate objective
    # must agree exactly at every sampled point
    import random

    rng = random.Random(424242)
    checked = 0
    for _ in range(60):
        t = rng.randint(2, 10)
        p = F(rng.randint(101, 1200), 100)
        top = 1 + 1 / p
        lam = top * F(rng.randint(1, 64), 64)
        ell = solve(build_model(t, p, lam), exact=True).ell
        pred, info = predicted_exponent(t, p, lam)
        assert pred == ell, (t, p, lam, info)
        params, primal, cert = certificate_for(t, p, lam)
        model = build_model(t, p, lam)
        assert verify_certificate(model, primal, cert), (t, p, lam, params)
        assert cert.objective(lam) == ell
        checked += 1
    assert checked == 60
