"""Universal lower bound for lp-norm t-spanners: LP, closed forms, certificates.

Everything lives in log space with base n: a graph quantity ``z`` becomes the
exponent ``log_n z``, which turns the norm/expansion constraints on layered
spanners into a small linear program that depends only on the stretch ``t``,
the norm parameter ``p``, and the p-log density ``lambda = log_n ||G||_p``.
The LP minimizes the spanner exponent ``ell``; the reported bound is
``n**max(1/p, ell)`` (the 1/p floor is what connectivity alone forces).

Closed forms: the optimum is realized by (L,C,R)-minimal spanners whose layer
growth is governed by the coefficients

    E(i, j) = 1 + (p/i) * (1 - ((p-1)/p)**j),

and dual optimality is certified by explicit complementary-slackness systems
(one per structural case: plain L>0, plain L=0, left-skewed, right-skewed,
and right-skewed with L=0).  This module constructs those certificates by
solving the corresponding linear systems with ``simplex._dense_solve`` and
verifies them against the LP.  For rational p the solve is exact integer
fraction-free elimination, with a ``Fraction`` formed only for each dual
value; for float p it is float Gauss-Jordan.  A plain shape with no system
on file (C = 0) or a singular one (odd t at p = 1) is certified by the LP's
own optimal duals instead, which ``solve`` returns by row name.

Numeric policy: ``p`` and ``lambda`` may be int, float or Fraction.  Each
public entry point turns an int into a Fraction once (``_exactify``), and
the arithmetic below it follows the type it is given, so exact input gives
exact output and float input float output.  Lambda must lie in the LP's
own range (0, 1 + 1/p], tested with no slack (``_check_lambda``); every
test against an interior range cap goes through ``_at_most``: exact when
both sides are Fractions, and with a 1e-12 relative slack otherwise.
``verify_certificate`` still checks in float, at an absolute ``tol``, even
for exact certificates; an exact referee for it is an open item in
ROADMAP.md.

What depends on (t, p) alone is derived once per (t, p), by three functions
under ``functools.lru_cache(maxsize=None, typed=True)``: ``_base`` (the base
shape of ``derive_lcr``, its nice-range cap and closed-form slope
ell / lambda), ``_base_dual`` (its dual, on first certificate in the nice
range) and ``_walk`` (the interpolation walk with each walk shape's
exponent at its cap, on first lambda above the base cap).  A fourth,
``_primal_terms``, holds the lambda-independent terms of the nice-range
primal per (shape, p).  ``typed=True``
keeps 2.0 and Fraction(2) apart, since float shapes, caps and duals decide
with a tolerance.  The caches hold values only, never exceptions, and are
unbounded: a few small tuples per (t, p) a process asks about;
``cache_info()`` reports their hits and fills.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .simplex import _dense_solve, solve_lp

__all__ = [
    "ConditionReport",
    "DeriveDiagnostic",
    "DualCertificate",
    "DualConstructionError",
    "LbLpModel",
    "LcrParams",
    "NiceRangeExceeded",
    "ParameterError",
    "build_model",
    "certificate_for",
    "closed_form_exponent",
    "construct_dual",
    "derive_lcr",
    "e_coeff",
    "lb_value",
    "low_p_exponent",
    "minimal_spanner_primal",
    "nice_range_max",
    "predicted_exponent",
    "skewed_primal",
    "solve",
    "verify_certificate",
    "verify_lcr_conditions",
]


class ParameterError(ValueError):
    """Parameters outside the documented ranges."""


class NiceRangeExceeded(ValueError):
    """lambda is above the range covered by the plain-shape closed form."""


class DualConstructionError(ValueError):
    """The closed-form dual has a negative component or violated constraint.

    Expected behavior when the (L,C,R) conditions fail; the message names
    the offending variable or constraint.
    """


class DeriveDiagnostic(ValueError):
    """Neither parameter branch verifies; carries both candidates."""

    def __init__(self, low_candidate, high_candidate):
        self.low_candidate = low_candidate
        self.high_candidate = high_candidate
        super().__init__(
            f"no verified (L,C,R) branch: low={low_candidate}, high={high_candidate}"
        )


# -- small numeric helpers -------------------------------------------------


def _exactify(v):
    """Promote int to Fraction so exact inputs stay exact downstream."""
    return Fraction(v) if isinstance(v, int) and not isinstance(v, bool) else v


def _at_most(lam, bound) -> bool:
    """lam <= bound: exact on two Fractions, else with a 1e-12 relative slack."""
    if isinstance(lam, Fraction) and isinstance(bound, Fraction):
        return lam <= bound
    return float(lam) <= float(bound) * (1 + 1e-12)


def _check_lambda(p, lam) -> None:
    """The LP's own range, lambda in (0, 1 + 1/p], with no slack."""
    if not 0 < lam <= 1 + 1 / p:
        raise ParameterError(f"lambda must lie in (0, 1 + 1/p], got {lam}")


def _q(p):
    """(p-1)/p."""
    return (p - 1) / p


def _ratio(p):
    """p/(p-1); math.inf at p = 1 (the limit used by the conditions)."""
    return math.inf if p == 1 else p / (p - 1)


def _qpow(p, j: int):
    """((p-1)/p)**j with the 0**0 = 1 convention at p = 1."""
    return _q(p) ** j


def _ratio_pow(p, e: int):
    """(p/(p-1))**e with p = 1 limits: inf for e > 0, 1 for e = 0, 0 for e < 0."""
    if p == 1:
        if e > 0:
            return math.inf
        return 1.0 if e == 0 else 0.0
    return _ratio(p) ** e


def e_coeff(i: int, j: int, p):
    """E(i,j) = 1 + (p/i)(1 - ((p-1)/p)**j); geometric layer-growth exponent.

    At p = 1 the 0**0 = 1 convention gives E(i,0) = 1 and E(i,j) = 1 + 1/i
    for j >= 1.
    """
    if i < 1 or j < 0:
        raise ParameterError(f"e_coeff needs i >= 1 and j >= 0, got ({i},{j})")
    p = _exactify(p)
    return 1 + p / i * (1 - _qpow(p, j))


def _growth(p, j: int):
    """g(j) = p(1 - q**j) = sum of q**0..q**(j-1); equals E(1,j) - 1."""
    return p * (1 - _qpow(p, j))


def _floor_log_ratio(p, value, cap: int) -> int:
    """The largest integer k <= cap with (p/(p-1))**k <= value, computed exactly.

    ``value`` must be >= 1.  A float estimate seeds the search and exact
    power comparisons settle ties, so Fraction inputs never misround; the
    cap keeps those exact powers small when p is large.
    """
    r = _ratio(p)
    if not value >= 1:
        raise ParameterError(f"floor-log argument must be >= 1, got {value}")
    if float(r) == 1:
        raise ParameterError(f"p = {p} is too large: p/(p-1) rounds to 1")
    k = int(math.log(float(value)) / math.log(float(r))) if value > 1 else 0
    k = min(max(k, 0), cap)
    while r**k > value:
        k -= 1
    while k < cap and r ** (k + 1) <= value:
        k += 1
    return k


# -- domain types -----------------------------------------------------------

SKEW_NONE = "none"
SKEW_LEFT = "left"
SKEW_RIGHT = "right"


@dataclass(frozen=True)
class LcrParams:
    """Shape of an extremal layered spanner: L + C + R = t layers past V_0.

    ``skew`` marks the variants used above the nice lambda range.  A right
    skew needs C >= 1 (else ``ParameterError``); the interpolation walk
    never makes one with C = 0.  ``skew_exponent`` is read by nothing: the
    generators take the skew exponent as an argument.
    """

    L: int
    C: int
    R: int
    skew: str = SKEW_NONE
    skew_exponent: object = None

    def __post_init__(self):
        if self.L < 0 or self.C < 0 or self.R < 0:
            raise ParameterError(f"negative section length in {self}")
        if self.skew not in (SKEW_NONE, SKEW_LEFT, SKEW_RIGHT):
            raise ParameterError(f"unknown skew {self.skew!r}")
        if self.skew == SKEW_RIGHT and self.C < 1:
            raise ParameterError("right skew needs C >= 1")

    @property
    def t(self) -> int:
        return self.L + self.C + self.R


@dataclass(frozen=True)
class DualCertificate:
    """Assignment to the dual variables of the relaxed lower-bound LP."""

    x: object
    a: tuple  # a[i-1] pairs with the left-norm row of layer i
    b: tuple
    D: tuple
    y: object
    w: object
    s: object
    eps: object = None

    def objective(self, lam):
        return lam * self.y - self.s

    def as_dict(self) -> dict:
        """The fields in order, with a, b and D as lists."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}


@dataclass(frozen=True)
class LbLpModel:
    """The lower-bound LP in log space; all rows are ``coeffs . x >= rhs``.

    The model never sees n: coefficients depend on p and lambda only, so two
    builds at different nominal n are identical object for object.
    """

    t: int
    p: object
    lam: object
    relaxed: bool
    var_names: tuple[str, ...]
    row_names: tuple[str, ...]
    rows: tuple[tuple, ...]
    rhs: tuple
    eq_rows: frozenset = field(default_factory=frozenset)

    def objective_vector(self):
        return tuple(1 if v == "ell" else 0 for v in self.var_names)


def _check_tp(t: int, p) -> None:
    if not (isinstance(t, int) and t >= 1):
        raise ParameterError(f"stretch t must be a positive integer, got {t}")
    if p is None or isinstance(p, bool) or not 1 <= p < math.inf:
        raise ParameterError(f"p must be a finite real >= 1, got {p}")


def build_model(t: int, p, lam, relaxed: bool = True) -> LbLpModel:
    """Log-space LP for stretch t, norm parameter p, p-log density lambda.

    ``relaxed=True`` builds the reduced program actually solved by default
    (one aggregated spanning row, one Delta variable); ``relaxed=False``
    keeps the full constraint list, including the per-layer expansion
    variables, for the equal-optimum verification mode.  The model keeps
    ``p`` and ``lam`` as given.
    """
    _check_tp(t, p)
    exact_p = _exactify(p)
    one_over_p = 1 / exact_p
    q = _q(exact_p)
    _check_lambda(exact_p, lam)

    nus = [f"nu{i}" for i in range(t + 1)]
    deltas = [f"delta{i}" for i in range(1, t + 1)]
    if relaxed:
        var_names = ["ell", *nus, *deltas, "Delta"]
    else:
        var_names = ["ell", *nus, *deltas] + [f"Delta{i}" for i in range(1, t + 1)]
    index = {v: k for k, v in enumerate(var_names)}
    nvar = len(var_names)

    row_names: list[str] = []
    rows: list[tuple] = []
    rhs: list = []
    eq_rows: set[int] = set()

    def add(name: str, coeffs: Mapping[str, object], r, eq: bool = False) -> None:
        vec = [0] * nvar
        for var, cf in coeffs.items():
            vec[index[var]] = cf
        if eq:
            eq_rows.add(len(rows))
        row_names.append(name)
        rows.append(tuple(vec))
        rhs.append(r)

    def norm_rows() -> None:
        for i in range(1, t + 1):
            # (12), (1) left degree-norm: ell - nu_{i-1}/p - delta_i >= 0
            add(f"left{i}", {"ell": 1, f"nu{i - 1}": -one_over_p, f"delta{i}": -1}, 0)
        for i in range(1, t + 1):
            # (13), (2) right degree-norm: ell + q*nu_i - nu_{i-1} - delta_i >= 0
            add(f"right{i}", {"ell": 1, f"nu{i}": q, f"nu{i - 1}": -1, f"delta{i}": -1}, 0)

    def grow_rows() -> None:
        for i in range(1, t + 1):
            # (14), (4) expansion: nu_{i-1} + delta_i - nu_i >= 0
            add(f"grow{i}", {f"nu{i - 1}": 1, f"delta{i}": 1, f"nu{i}": -1}, 0)

    if relaxed:
        # (11) spanning: sum delta_i - Delta >= 0
        add("span", {**{d: 1 for d in deltas}, "Delta": -1}, 0)
        norm_rows()
        grow_rows()
        # (15) density: nu_0/p + Delta >= lambda
        add("density", {"nu0": one_over_p, "Delta": 1}, lam)
        # (16) final layer: nu_t - Delta >= 0
        add("final", {f"nu{t}": 1, "Delta": -1}, 0)
        # (17) size cap: -nu_t >= -1
        add("cap", {f"nu{t}": -1}, -1)
    else:
        norm_rows()
        for i in range(1, t + 1):
            # (3) degree at most layer size
            add(f"degsize{i}", {f"nu{i}": 1, f"delta{i}": -1}, 0)
        grow_rows()
        # (5) Delta_1 = d_1
        add("ddef", {"Delta1": 1, "delta1": -1}, 0, eq=True)
        for i in range(2, t + 1):
            # (6) reachability product
            add(f"dgrow{i}", {f"Delta{i - 1}": 1, f"delta{i}": 1, f"Delta{i}": -1}, 0)
        for i in range(2, t + 1):
            # (7) reachability capped by layer size
            add(f"dsize{i}", {f"nu{i}": 1, f"Delta{i}": -1}, 0)
        # (8) density
        add("density", {"nu0": one_over_p, f"Delta{t}": 1}, lam)
        for i in range(t + 1):
            # (9) layer sizes at most n
            add(f"size{i}", {f"nu{i}": -1}, -1)

    return LbLpModel(
        t=t,
        p=p,
        lam=lam,
        relaxed=relaxed,
        var_names=tuple(var_names),
        row_names=tuple(row_names),
        rows=tuple(rows),
        rhs=tuple(rhs),
        eq_rows=frozenset(eq_rows),
    )


@dataclass(frozen=True)
class SolveResult:
    ell: object
    duals: dict


def solve(model: LbLpModel, exact: bool = False) -> SolveResult:
    """Optimal ell and the optimal duals for the model.

    ``duals`` maps each row name to its multiplier u_r in the model's own
    sign convention: u_r >= 0 on the ``>=`` rows, the column sums
    ``sum_r A[r][j] * u_r`` stay at most c_j, and ``rhs . u`` equals ell.
    ``exact=True`` runs the simplex in rational arithmetic; pass p and
    lambda as Fractions (or ints) when building the model for this to be
    meaningful.  Infeasible/unbounded cannot occur for in-range parameters
    (the all-ones assignment spans, and ell >= 0), so those solver errors
    propagate as genuine bugs.
    """
    ub = [i for i in range(len(model.rows)) if i not in model.eq_rows]
    eq = sorted(model.eq_rows)
    sol = solve_lp(
        model.objective_vector(),
        [[-v for v in model.rows[i]] for i in ub],
        [-model.rhs[i] for i in ub],
        [model.rows[i] for i in eq],
        [model.rhs[i] for i in eq],
        exact=exact,
    )
    # the >= rows went in negated: u_r = -y_r
    duals = {model.row_names[i]: -y for i, y in zip(ub, sol.duals)}
    duals.update((model.row_names[i], y) for i, y in zip(eq, sol.duals[len(ub) :]))
    return SolveResult(ell=sol.objective, duals=duals)


# -- (L,C,R) derivation ------------------------------------------------------


def _is_at_most_golden(p) -> bool:
    # p <= (1+sqrt 5)/2 is equivalent to p*p <= p + 1; exact for rationals.
    return p * p <= p + 1


def derive_lcr(p, t: int) -> LcrParams:
    """The (L,C,R) shape whose minimal spanner realizes the lower bound.

    Three branches: the lowest range (C=0 or C=1, symmetric), the low-p
    branch with L > 0 driven by the floor of a log ratio, and the high-p
    branch with L = 0 chosen by an interval test.  The low-p branch is
    preferred whenever it verifies with L > 0.  Derived once per (t, p),
    see ``_base``.
    """
    return _base(t, _exactify(p))[0]


def _derive_shape(p, t: int) -> LcrParams:
    """``derive_lcr`` uncached: p exactified, (t, p) checked by ``_base``."""
    if t % 2 == 0 and _is_at_most_golden(p):
        return LcrParams(t // 2, 0, t // 2)
    if t % 2 == 1 and p <= 2:
        return LcrParams(t // 2, 1, t // 2)
    low = _low_p_candidate(p, t)
    if low is not None and low.L > 0 and verify_lcr_conditions(low, p).all_ok:
        return low
    high = _high_p_candidate(p, t)
    if verify_lcr_conditions(high, p).all_ok:
        return high
    raise DeriveDiagnostic(low, high)


def _low_p_candidate(p, t: int) -> LcrParams | None:
    floor_p = math.floor(p)
    # Delta_0 = log(p^2/floor(p)) / log(p/(p-1)); Delta_1 with p*floor(p)/(p-1).
    v0 = p * p / floor_p
    v1 = p * floor_p / (p - 1)
    if v0 < 1 or v1 < 1:
        return None
    # any f_minus >= t + 1 gives L < 0 below, so the search stops there
    f0 = _floor_log_ratio(p, v0, t + 1)
    f1 = _floor_log_ratio(p, v1, t + 1)
    f_minus, f_plus = min(f0, f1), max(f0, f1)
    if f_plus > f_minus:
        # floor(sqrt(x)) = isqrt(floor(x)) for x >= 0, exact for any p
        c_val = math.isqrt(math.floor(p * (p - 1)))
        L = (t - c_val - f_minus) // 2
        R = -((-(t - c_val + f_minus)) // 2)  # ceil
        C = c_val
    else:
        L = math.ceil((t - p - f_minus) / 2)
        R = math.ceil((t - p + f_minus) / 2)
        C = t - L - R
    if L < 0 or C < 0 or R < 0:
        return None
    return LcrParams(L, C, R)


def _high_p_candidate(p, t: int) -> LcrParams:
    # C is fixed by which interval [C r^C, (C+1) r^(C+1)) contains r^t.
    r = _ratio(p)
    target = r**t
    for c_val in range(1, t):
        lo = c_val * r**c_val
        hi = (c_val + 1) * r ** (c_val + 1)
        if lo <= target < hi:
            return LcrParams(0, c_val, t - c_val)
    # r^t below the first interval can only mean C = t-1 territory at huge p
    return LcrParams(0, t - 1, 1)


# -- optimality conditions ---------------------------------------------------


@dataclass(frozen=True)
class Condition:
    name: str
    ok: bool
    slack: float


@dataclass(frozen=True)
class ConditionReport:
    params: LcrParams
    applicable: bool
    conditions: tuple[Condition, ...]

    @property
    def all_ok(self) -> bool:
        return self.applicable and all(c.ok for c in self.conditions)

    def __iter__(self):
        return iter(self.conditions)


def _cond(name: str, lhs, rhs, sense: str) -> Condition:
    """Closed inequality with ties counted as satisfied (1e-12 relative guard)."""
    if math.isinf(float(lhs)) or math.isinf(float(rhs)):
        ok = (float(lhs) >= float(rhs)) if sense == ">=" else (float(lhs) <= float(rhs))
        return Condition(name, ok, math.inf if ok else -math.inf)
    diff = lhs - rhs if sense == ">=" else rhs - lhs
    # an exact difference needs no guard
    scale = max(abs(float(lhs)), abs(float(rhs)), 1.0)
    guard = 0 if isinstance(diff, Fraction) else 1e-12 * scale
    return Condition(name, diff >= -guard, float(diff))


def verify_lcr_conditions(params: LcrParams, p) -> ConditionReport:
    """Per-condition report for the case matching ``params`` (L>0, L=0, skew).

    C = 0 has no condition system (the lowest-p closed form handles it), so
    the report comes back inapplicable.
    """
    p = _exactify(p)
    L, C, R = params.L, params.C, params.R
    if C == 0:
        return ConditionReport(params, applicable=False, conditions=())
    if params.skew != SKEW_NONE:
        # left skew: (C+1) r**(R-L-1) <= p**2; right skew: r**(R-L-1) <= C+1
        s = _ratio_pow(p, R - L - 1)
        lhs, rhs = ((C + 1) * s, p * p) if params.skew == SKEW_LEFT else (s, C + 1)
        conds = [_cond("C >= p-2", C, p - 2, ">="),
                 _cond(f"{params.skew}-skew s", lhs, rhs, "<=")]
    else:
        # the L = 0 system is cond2-cond4 of the L > 0 one at L = 0
        conds = [_cond("cond2", C * _ratio_pow(p, R - L), p * p, "<="),
                 _cond("cond3", _ratio_pow(p, R - L), C, ">="),
                 _cond("cond4", _ratio_pow(p, R - L - 1), C + 1, "<=")]
        if L > 0:
            conds = [_cond("cond1", (C + 1) * _ratio_pow(p, R - L + 1), p * p, ">="),
                     *conds,
                     _cond("cond5-lo", C, p - 2, ">="),
                     _cond("cond5-hi", C, p, "<=")]
    return ConditionReport(params, applicable=True, conditions=tuple(conds))


# -- closed forms ------------------------------------------------------------


def nice_range_max(params: LcrParams, p):
    """Largest lambda for which the plain (L,C,R) shape fits below n_t = n."""
    p = _exactify(p)
    L, C, R = params.L, params.C, params.R
    if C > 0:
        return 1 + e_coeff(C, L, p) / (p * e_coeff(C, R, p))
    if L == 0 or R == 0:
        raise ParameterError("C = 0 needs L, R >= 1")
    return 1 + (e_coeff(1, L, p) - 1) / (p * (e_coeff(1, R, p) - 1))


def closed_form_exponent(params: LcrParams, p, lam):
    """Closed-form exponent of a plain (L,C,R) shape inside the nice range."""
    if params.skew != SKEW_NONE:
        raise ParameterError("closed form applies to plain shapes only")
    p, lam = _exactify(p), _exactify(lam)
    bound = nice_range_max(params, p)
    if not _at_most(lam, bound):
        raise NiceRangeExceeded(f"lambda {lam} above nice range {bound}")
    return _slope(params, p) * lam


def _slope(params: LcrParams, p):
    """ell / lambda of a plain shape in its nice range (L, R >= 1 when C = 0)."""
    L, C, R = params.L, params.C, params.R
    if C > 0:
        return (1 + p / C) / (e_coeff(C, L, p) + p * e_coeff(C, R, p))
    return p / ((e_coeff(1, L, p) - 1) + p * (e_coeff(1, R, p) - 1))


def low_p_exponent(t: int, p, lam, nu=1):
    """Closed-form exponent in the lowest p range, including the n**(1/p) floor.

    Even t needs p in [1, golden ratio]; odd t needs p in [1, 2].  ``nu`` is
    the exponent of the vertex-count floor (log_n n = 1 by default).
    """
    _check_tp(t, p)
    p, lam, nu = _exactify(p), _exactify(lam), _exactify(nu)
    if t % 2 == 0:
        if not _is_at_most_golden(p):
            raise ParameterError(f"even t requires p <= golden ratio, got p={p}")
        alpha_den = (p + 1) * (1 - _qpow(p, t // 2))
    else:
        if p > 2:
            raise ParameterError(f"odd t requires p <= 2, got p={p}")
        alpha_den = 1 + p * (1 - _qpow(p, (t - 1) // 2))
    alpha = 1 / alpha_den
    return max(nu / p, alpha * lam)


@functools.lru_cache(maxsize=None, typed=True)
def _base(t: int, p):
    """``(shape, cap, slope)`` of (t, p): ``derive_lcr``'s shape, its nice cap
    and its closed-form slope ell / lambda.  ``p`` comes in exactified."""
    _check_tp(t, p)
    if t < 2:
        raise ParameterError("derive_lcr needs t >= 2")
    base = _derive_shape(p, t)
    return base, nice_range_max(base, p), _slope(base, p)


@functools.lru_cache(maxsize=None, typed=True)
def _base_dual(t: int, p) -> DualCertificate:
    """The dual certificate of the base shape of (t, p)."""
    return construct_dual(_base(t, p)[0], p)


@functools.lru_cache(maxsize=None, typed=True)
def _walk(t: int, p):
    """Shapes and skewed frames covering lambda above the base shape's nice range.

    From each shape the walk either absorbs a right layer into the center,
    (L,C,R) -> (L,C+1,R-1) through a right-skewed (L,C,R) frame, or grows the
    left section, (L,C,R) -> (L+1,C-1,R) through a left-skewed (L+1,C-1,R)
    frame.  The move taken is the one whose complementary-slackness system
    has a non-negative solution, which is exactly LP optimality of the frame
    family; the walk ends once the shape covers lambda up to 1 + 1/p.

    Returns the tuples ``(shapes, frames, caps, ends)``: ``frames[i]`` is the
    pair (frame, certificate) that chose the move from ``shapes[i]`` to
    ``shapes[i+1]``, ``caps[i]`` is the lambda cap of ``shapes[i]``, at most
    1 + 1/p, and ``ends[i]`` the closed-form exponent of ``shapes[i]`` there.
    """
    base = _base(t, p)[0]
    shapes = [base]
    frames: list[tuple[LcrParams, DualCertificate]] = []
    for _ in range(base.t + 1):
        L, C, R = shapes[-1].L, shapes[-1].C, shapes[-1].R
        if L >= R or R == 0:
            break
        if C < 1:
            raise DualConstructionError(f"no verified move from shape {shapes[-1]}")
        frame = LcrParams(L, C, R, skew=SKEW_RIGHT)
        try:
            frames.append((frame, construct_dual(frame, p)))
            shapes.append(LcrParams(L, C + 1, R - 1))
        except DualConstructionError:
            frame = LcrParams(L + 1, C - 1, R, skew=SKEW_LEFT)
            frames.append((frame, construct_dual(frame, p)))
            shapes.append(LcrParams(L + 1, C - 1, R))
    # the caps of the walk shapes increase and end at 1 + 1/p
    caps = tuple(min(nice_range_max(s, p), 1 + 1 / p) for s in shapes)
    ends = tuple(_slope(s, p) * cap for s, cap in zip(shapes, caps))
    return tuple(shapes), tuple(frames), caps, ends


def _locate(t: int, p, lam) -> int:
    """The segment of the walk of (t, p) that holds lambda.

    Segment 0 is the base shape's nice range, where the walk is not taken.
    Otherwise lambda lies in ``(caps[seg - 1], caps[seg]]`` of ``_walk(t, p)``,
    the range bridged by ``frames[seg - 1]``.  ``p`` and ``lam`` come in
    exactified; a bad (t, p) is refused by ``_base`` before lambda is read.
    """
    cap = _base(t, p)[1]
    _check_lambda(p, lam)
    if _at_most(lam, cap):
        return 0
    caps = _walk(t, p)[2]
    # lambda <= 1 + 1/p = caps[last] was tested above
    last = len(caps) - 1
    return next((s for s in range(1, last) if _at_most(lam, caps[s])), last)


def predicted_exponent(t: int, p, lam):
    """Piecewise closed-form prediction for the LP optimum at (t, p, lambda).

    Returns ``(ell, info)`` where info records the branch: ``closed_form``
    when the plain-shape formula or the L > 0 interpolation applies, or
    ``lp_derived`` for the L = 0 interpolation, whose value comes from the
    skewed spanner family and is confirmed against the LP by the test suite.
    """
    p, lam = _exactify(p), _exactify(lam)
    seg = _locate(t, p, lam)
    base, _cap, slope = _base(t, p)
    if seg == 0:
        # _locate has tested lambda against the cap
        info = {"branch": "closed_form", "params": base, "segment": None}
        return slope * lam, info
    _shapes, _frames, caps, ends = _walk(t, p)
    lo, hi = caps[seg - 1], caps[seg]
    theta = (hi - lam) / (hi - lo)
    # each shape's own line at its lambda cap; equals (1/p + 1/C) / E(C, R)
    # when C > 0
    ell = theta * ends[seg - 1] + (1 - theta) * ends[seg]
    branch = "closed_form" if base.L > 0 else "lp_derived"
    return ell, {"branch": branch, "params": base, "segment": seg, "theta": theta}


# -- primal constructions ----------------------------------------------------


def _pack_primal(ell, nu: list, delta: list) -> dict:
    """The LP assignment of layer exponents nu[0..t] and degrees delta[1..t].

    Delta, the reach of the final layer, coincides with nu[t].
    """
    t = len(nu) - 1
    assign = {"ell": ell}
    assign.update((f"nu{i}", nu[i]) for i in range(t + 1))
    assign.update((f"delta{i}", delta[i]) for i in range(1, t + 1))
    assign["Delta"] = nu[t]
    return assign


@functools.lru_cache(maxsize=None, typed=True)
def _primal_terms(params: LcrParams, p):
    """The lambda-independent terms of ``minimal_spanner_primal``: the
    denominator of mu (or eta), ell / mu, the layer coefficients E(C, j) (or
    g(j)) for j <= max(L, R), and q**(j-1) for 1 <= j <= R.  ``p`` comes in
    exactified."""
    L, C, R = params.L, params.C, params.R
    if C == 0 and (L == 0 or R == 0):
        raise ParameterError("C = 0 needs L, R >= 1")
    if C > 0:
        one = Fraction(1) if isinstance(p, Fraction) else 1.0
        coeffs = tuple(e_coeff(C, j, p) for j in range(max(L, R) + 1))
        ell_per_mu = one / p + one / C
    else:
        coeffs = tuple(_growth(p, j) for j in range(max(L, R) + 1))
        ell_per_mu = None  # ell is eta itself
    qpows = tuple(_qpow(p, j - 1) for j in range(1, R + 1))
    return coeffs[L] / p + coeffs[R], ell_per_mu, coeffs, qpows


def minimal_spanner_primal(params: LcrParams, p, lam) -> dict:
    """Log-space primal assignment of a plain (L,C,R)-minimal spanner.

    Valid (and LP-optimal) for lambda in the nice range.  Layer exponents
    follow the equal-contribution recurrences; Delta coincides with nu_t.
    The lambda-independent terms come from ``_primal_terms``, once per
    (shape, p).
    """
    if params.skew != SKEW_NONE:
        raise ParameterError("use skewed_primal for skewed shapes")
    p, lam = _exactify(p), _exactify(lam)
    L, C, R = params.L, params.C, params.R
    t = params.t
    denom, ell_per_mu, coeffs, qpows = _primal_terms(params, p)
    nu = [None] * (t + 1)
    delta = [None] * (t + 1)
    if C > 0:
        mu = lam / denom
        ell = mu * ell_per_mu
        for j in range(L + 1):
            nu[L - j] = mu * coeffs[j]
        nu[L : L + C + 1] = [mu] * (C + 1)
        for j in range(R + 1):
            nu[L + C + j] = mu * coeffs[j]
        delta[1 : L + C + 1] = [0 * mu] * L + [mu / C] * C
        for j in range(1, R + 1):
            delta[L + C + j] = mu / C * qpows[j - 1]
    else:
        eta = lam / denom
        ell = eta
        for j in range(L + 1):
            nu[L - j] = eta * coeffs[j]
        for j in range(R + 1):
            nu[L + j] = eta * coeffs[j]
        delta[1 : L + 1] = [0 * eta] * L
        for j in range(1, R + 1):
            delta[L + j] = eta * qpows[j - 1]
    return _pack_primal(ell, nu, delta)


def skewed_primal(params: LcrParams, p, lam) -> dict:
    """Log-space primal of a skewed (L,C,R)-minimal spanner with n_t = n.

    Solves the three pinning relations (central-degree split, final layer
    pinned at n, density equals lambda) for (ell, mu, tau); tau is the log
    of the skew degree.
    """
    L, C, R = params.L, params.C, params.R
    if R < 1 or C < 0:
        raise ParameterError("skewed shapes need R >= 1")
    if params.skew == SKEW_LEFT and L < 1:
        raise ParameterError("left skew needs L >= 1")
    p, lam = _exactify(p), _exactify(lam)
    q = _q(p)
    gL, gR = _growth(p, L), _growth(p, R)
    one = Fraction(1) if isinstance(q, Fraction) else 1.0
    # unknown order: (ell, mu, tau); the skew sets tau's coefficient in the
    # final-layer row (right) or the density row (left)
    mat = [[-C * one, (p + C) / p * one, -one],
           [gR, _qpow(p, R), 0 * one],
           [gL / p, _qpow(p, L) / p, 0 * one]]
    if params.skew == SKEW_RIGHT:
        mat[1][2] = -_qpow(p, R - 1)
    elif params.skew == SKEW_LEFT:
        mat[2][2] = -_qpow(p, L - 1) / p
    else:
        raise ParameterError("skewed_primal needs a left or right skew")
    vec = [0 * one, one, lam - 1]
    try:
        ell, mu, tau = _dense_solve(mat, vec)
    except ZeroDivisionError:
        raise DualConstructionError("singular complementary-slackness system") from None

    t = params.t
    nu = [None] * (t + 1)
    delta = [None] * (t + 1)
    for i in range(L, L + C + 1):
        nu[i] = mu
    if C >= 1:
        dc = (mu - tau) / C
        for i in range(L + 1, L + C + 1):
            delta[i] = dc
    if params.skew == SKEW_RIGHT:
        for j in range(1, L + 1):
            nu[L - j] = ell * _growth(p, j) + _qpow(p, j) * mu
            delta[L - j + 1] = 0 * one
        d_first = ell - mu / p
        delta[L + C + 1] = d_first
        nu[L + C + 1] = mu + d_first - tau
    else:
        if L >= 1:
            nu[L - 1] = ell + q * mu - tau
            delta[L] = tau
            for j in range(1, L):
                nu[L - 1 - j] = ell * _growth(p, j) + _qpow(p, j) * nu[L - 1]
                delta[L - j] = 0 * one
        d_first = ell - mu / p
        delta[L + C + 1] = d_first
        nu[L + C + 1] = mu + d_first
    for i in range(L + C + 2, t + 1):
        delta[i] = ell - nu[i - 1] / p
        nu[i] = nu[i - 1] + delta[i]
    tol = 0 if isinstance(tau, Fraction) else 1e-9
    if tau < -tol or tau > mu / (C + 1) + tol:
        raise ParameterError(
            f"skew degree exponent {float(tau):.6g} outside [0, mu/(C+1)] "
            f"for {params} at lambda={float(lam):.6g}"
        )
    assign = _pack_primal(ell, nu, delta)
    assign["_tau"] = tau
    return assign


# -- dual certificates -------------------------------------------------------

def _dual_support(params: LcrParams, t: int) -> tuple[set, set]:
    """(support rows, tight columns) for the case's complementary-slackness system.

    Rows are named by the relaxed model's row names; columns by variable
    names.  Support rows may carry nonzero dual values; tight columns are
    the primal variables strictly above their bound, whose dual constraints
    must hold with equality.
    """
    L, C = params.L, params.C
    # both skews pin n_t = n, so the size cap joins the support; a right skew
    # drops layer L+C+1's expansion row, a left skew makes delta_L tight
    first_grow = L + C + (2 if params.skew == SKEW_RIGHT else 1)
    first_delta = L if params.skew == SKEW_LEFT else L + 1
    rows = {"span", "density", "final"}
    rows |= {f"left{i}" for i in range(L + 1, t + 1)}
    rows |= {f"right{i}" for i in range(1, L + C + 1)}
    rows |= {f"grow{i}" for i in range(first_grow, t + 1)}
    if params.skew != SKEW_NONE:
        rows.add("cap")
    cols = {"ell", "Delta"} | {f"nu{i}" for i in range(t + 1)}
    cols |= {f"delta{i}" for i in range(first_delta, t + 1)}
    return rows, cols


def construct_dual(params: LcrParams, p) -> DualCertificate:
    """Closed-form dual for the case matching ``params`` (see the five systems).

    Solves the complementary-slackness equations of the relaxed LP for the
    given shape; every component must come out non-negative and the leftover
    inequality constraints (dual rows for the degree-1 left section) must
    hold, else :class:`DualConstructionError` names the violation.

    A plain shape with no closed-form system on file (C = 0), or whose
    system is singular (odd t at p = 1), takes the LP's own optimal duals
    at lambda = 1 instead (see ``_lp_dual``).  Skewed frames have no such
    fallback: a singular frame system raises, which is what steers
    ``_walk`` to the other move.
    """
    p = _exactify(p)
    t = params.t
    plain = params.skew == SKEW_NONE
    if plain and params.C == 0:
        return _lp_dual(params, p)
    exact = isinstance(p, Fraction)
    model = build_model(t, p, 1, relaxed=True)
    rows, cols = _dual_support(params, t)
    support = [(r, row) for r, row in zip(model.row_names, model.rows) if r in rows]
    tight = [j for j, name in enumerate(model.var_names) if name in cols]
    if len(support) != len(tight):
        raise DualConstructionError(
            f"case system is not square for {params}: "
            f"{len(support)} unknowns vs {len(tight)} equations"
        )
    # Equations: for each tight column j, sum over support rows of A[r][j] * u_r = c_j
    c = model.objective_vector()
    cast = Fraction if exact else float
    mat = [[cast(row[j]) for _name, row in support] for j in tight]
    vec = [cast(c[j]) for j in tight]
    try:
        sol = _dense_solve(mat, vec)
    except ZeroDivisionError:
        if plain:
            return _lp_dual(params, p)
        raise DualConstructionError("singular complementary-slackness system") from None
    values = {name: val for (name, _row), val in zip(support, sol)}
    tol = 0 if exact else 1e-11
    for name, val in values.items():
        if val < -tol:
            raise DualConstructionError(f"NEGATIVE_COMPONENT {name} = {float(val)}")
    # Remaining dual constraints (columns outside the tight set) must hold.
    for j, colname in enumerate(model.var_names):
        if colname in cols:
            continue
        lhs = sum(row[j] * values[name] for name, row in support)
        if lhs > c[j] + tol:
            raise DualConstructionError(
                f"dual constraint for {colname} violated: {float(lhs)} > {c[j]}"
            )
    return _package_certificate(values, params, p, t)


def _package_certificate(values: Mapping, params: LcrParams, p, t: int) -> DualCertificate:
    zero = Fraction(0) if any(isinstance(v, Fraction) for v in values.values()) else 0.0

    def get(name):
        return values.get(name, zero)

    x = eps = get("span")
    L, R = params.L, params.R
    if params.skew == SKEW_NONE and params.C > 0:
        # the plain systems carry a conventional scale eps; invert the x formula
        denom = 1 + p * _qpow(p, R - L) if L > 0 else (p - 1) + _ratio_pow(p, R - 1)
        eps = x / denom if denom else None
    layers = range(1, t + 1)
    return DualCertificate(x=x, a=tuple(get(f"left{i}") for i in layers),
                           b=tuple(get(f"right{i}") for i in layers),
                           D=tuple(get(f"grow{i}") for i in layers),
                           y=get("density"), w=get("final"), s=get("cap"), eps=eps)


def _lp_dual(params: LcrParams, p) -> DualCertificate:
    """The optimal duals of the relaxed LP at lambda = 1, for a plain shape.

    The dual feasible region does not involve lambda, which only scales the
    objective.  The plain shape's primal scales with lambda, and every nice
    range reaches past lambda = 1, so the cap row is slack there; by
    complementary slackness one optimal dual at lambda = 1 certifies the
    whole nice-range ray.
    """
    duals = solve(build_model(params.t, p, 1), exact=isinstance(p, Fraction)).duals
    return _package_certificate(duals, params, p, params.t)


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(
    model: LbLpModel,
    primal: Mapping[str, object],
    cert: DualCertificate,
    tol: float = 1e-9,
) -> CertificateCheck:
    """Dual feasibility + complementary slackness + objective agreement.

    All three parts are checked against the relaxed model within ``tol``
    (absolute); any failure is reported with the offending row or column
    name rather than raised.
    """
    if not model.relaxed:
        raise ParameterError("certificates pair with the relaxed model")
    t = model.t
    dual_by_row = {"span": cert.x, "density": cert.y, "final": cert.w, "cap": cert.s}
    for i in range(1, t + 1):
        dual_by_row[f"left{i}"] = cert.a[i - 1]
        dual_by_row[f"right{i}"] = cert.b[i - 1]
        dual_by_row[f"grow{i}"] = cert.D[i - 1]
    violations = []
    x = [float(primal.get(v, 0)) for v in model.var_names]
    u = [float(dual_by_row[r]) for r in model.row_names]
    rows = [[float(v) for v in row] for row in model.rows]
    rhs = [float(r) for r in model.rhs]
    cvec = [1.0 if v == "ell" else 0.0 for v in model.var_names]

    for r, name in enumerate(model.row_names):
        slack = sum(rows[r][j] * x[j] for j in range(len(x))) - rhs[r]
        if slack < -tol:
            violations.append(f"primal infeasible at row {name}: slack {slack:.3g}")
        if u[r] < -tol:
            violations.append(f"dual variable for {name} negative: {u[r]:.3g}")
        if abs(u[r] * slack) > tol * max(1.0, abs(u[r])):
            violations.append(
                f"complementary slackness broken at row {name}: "
                f"u={u[r]:.3g}, slack={slack:.3g}"
            )
    for j, var in enumerate(model.var_names):
        reduced = cvec[j] - sum(rows[r][j] * u[r] for r in range(len(u)))
        if reduced < -tol:
            violations.append(f"dual constraint for {var} violated by {-reduced:.3g}")
        if x[j] > tol and abs(reduced) > tol:
            violations.append(
                f"complementary slackness broken at column {var}: "
                f"x={x[j]:.3g}, reduced cost={reduced:.3g}"
            )
    primal_obj = sum(cvec[j] * x[j] for j in range(len(x)))
    dual_obj = float(model.lam) * float(cert.y) - float(cert.s)
    if abs(primal_obj - dual_obj) > tol:
        violations.append(
            f"objective mismatch: primal {primal_obj:.12g} vs dual {dual_obj:.12g}"
        )
    return CertificateCheck(ok=not violations, violations=tuple(violations))


def certificate_for(t: int, p, lam):
    """Primal, dual, and shape for (t, p, lambda): the full certified pipeline.

    Chooses the plain shape in the nice range and the matching skewed frame
    above it.  Returns ``(params, primal, certificate)`` where ``params``
    carries the skew tag of the frame actually used.
    """
    p, lam = _exactify(p), _exactify(lam)
    seg = _locate(t, p, lam)
    if seg == 0:
        base = _base(t, p)[0]
        return base, minimal_spanner_primal(base, p, lam), _base_dual(t, p)
    # the walk proved this frame's certificate when it chose the move
    frame, cert = _walk(t, p)[1][seg - 1]
    return frame, skewed_primal(frame, p, lam), cert


# -- the headline quantity ---------------------------------------------------


def lb_value(t: int, p, n: int, big_lambda) -> float:
    """The lower bound n**max(1/p, ell*) for an n-vertex graph of norm Lambda.

    Requires 2 n**(1/p) <= Lambda <= n**(1+1/p); the lower cutoff is where
    the connectivity floor takes over entirely.  The max-degree endpoint is
    routed to its closed form Lambda**(1/t) (the LP needs finite p); p = 1
    works through the LP as the continuous extension and the n-floor wins.
    """
    from .graph_core import INFINITY

    if p is INFINITY:
        if not 1 <= big_lambda <= n:
            raise ParameterError(f"max-degree norm {big_lambda} outside [1, n]")
        return float(big_lambda) ** (1.0 / t)
    _check_tp(t, p)
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    lo = 2 * n ** (1 / float(p))
    hi = float(n) ** (1 + 1 / float(p))
    lam_f = math.log(float(big_lambda)) / math.log(n)
    if not lo * (1 - 1e-12) <= float(big_lambda) <= hi * (1 + 1e-12):
        raise ParameterError(
            f"Lambda {big_lambda} outside [2 n^(1/p), n^(1+1/p)] = [{lo:.4g}, {hi:.4g}]"
        )
    model = build_model(t, p, min(lam_f, 1 + 1 / float(p)))
    ell = float(solve(model).ell)
    return float(n) ** max(1 / float(p), ell)
