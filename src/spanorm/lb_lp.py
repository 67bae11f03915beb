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

All functions accept ``p`` and ``lambda`` as int, float, or Fraction and
preserve exact arithmetic when given exact inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

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


def _q(p):
    """(p-1)/p, kept exact for Fraction/int inputs."""
    if isinstance(p, (int, Fraction)):
        return Fraction(p - 1, 1) / Fraction(p)
    return (p - 1.0) / p


def _ratio(p):
    """p/(p-1); math.inf at p = 1 (the limit used by the conditions)."""
    if p == 1:
        return math.inf
    if isinstance(p, (int, Fraction)):
        return Fraction(p) / Fraction(p - 1)
    return p / (p - 1.0)


def _qpow(p, j: int):
    """((p-1)/p)**j with the 0**0 = 1 convention at p = 1."""
    if j == 0:
        return Fraction(1) if isinstance(p, (int, Fraction)) else 1.0
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
    if isinstance(p, (int, Fraction)):
        return 1 + Fraction(p) / i * (1 - _qpow(p, j))
    return 1.0 + p / i * (1.0 - _qpow(p, j))


def _growth(p, j: int):
    """g(j) = p(1 - q**j) = sum of q**0..q**(j-1); equals E(1,j) - 1."""
    return p * (1 - _qpow(p, j))


def _floor_sqrt(value) -> int:
    """floor of sqrt(value), exact for Fraction inputs (float-seeded)."""
    k = math.floor(math.sqrt(float(value)))
    while k * k > value:
        k -= 1
    while (k + 1) * (k + 1) <= value:
        k += 1
    return k


def _floor_log_ratio(p, value) -> int:
    """Largest integer k with (p/(p-1))**k <= value, computed exactly.

    ``value`` must be >= 1.  A float estimate seeds the search and exact
    power comparisons settle ties, so Fraction inputs never misround.
    """
    r = _ratio(p)
    if not value >= 1:
        raise ParameterError(f"floor-log argument must be >= 1, got {value}")
    k = int(math.log(float(value)) / math.log(float(r))) if value > 1 else 0
    k = max(k, 0)
    while r**k > value:
        k -= 1
    while r ** (k + 1) <= value:
        k += 1
    return k


# -- domain types -----------------------------------------------------------

SKEW_NONE = "none"
SKEW_LEFT = "left"
SKEW_RIGHT = "right"


@dataclass(frozen=True)
class LcrParams:
    """Shape of an extremal layered spanner: L + C + R = t layers past V_0.

    ``skew`` marks the variants used above the nice lambda range; the skew
    degree exponent (log base n_L of the skew degree) rides along for the
    generators and stays None for plain shapes.
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
        return {
            "x": self.x,
            "a": list(self.a),
            "b": list(self.b),
            "D": list(self.D),
            "y": self.y,
            "w": self.w,
            "s": self.s,
            "eps": self.eps,
        }


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

    def var_index(self, name: str) -> int:
        return self.var_names.index(name)

    def row_index(self, name: str) -> int:
        return self.row_names.index(name)

    def objective_vector(self):
        return tuple(1 if v == "ell" else 0 for v in self.var_names)


def _check_tp(t: int, p) -> None:
    if not (isinstance(t, int) and t >= 1):
        raise ParameterError(f"stretch t must be a positive integer, got {t}")
    if p is None or isinstance(p, bool) or not p >= 1:
        raise ParameterError(f"p must be a finite real >= 1, got {p}")


def build_model(t: int, p, lam, relaxed: bool = True) -> LbLpModel:
    """Log-space LP for stretch t, norm parameter p, p-log density lambda.

    ``relaxed=True`` builds the reduced program actually solved by default
    (one aggregated spanning row, one Delta variable); ``relaxed=False``
    keeps the full constraint list, including the per-layer expansion
    variables, for the equal-optimum verification mode.
    """
    _check_tp(t, p)
    one_over_p = Fraction(1, 1) / Fraction(p) if isinstance(p, (int, Fraction)) else 1.0 / p
    q = _q(p)
    if not 0 < lam <= 1 + one_over_p:
        raise ParameterError(f"lambda must lie in (0, 1 + 1/p], got {lam}")

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

    if relaxed:
        # (11) spanning: sum delta_i - Delta >= 0
        add("span", {**{d: 1 for d in deltas}, "Delta": -1}, 0)
        for i in range(1, t + 1):
            # (12) left degree-norm: ell - nu_{i-1}/p - delta_i >= 0
            add(f"left{i}", {"ell": 1, f"nu{i - 1}": -one_over_p, f"delta{i}": -1}, 0)
        for i in range(1, t + 1):
            # (13) right degree-norm: ell + q*nu_i - nu_{i-1} - delta_i >= 0
            add(
                f"right{i}",
                {"ell": 1, f"nu{i}": q, f"nu{i - 1}": -1, f"delta{i}": -1},
                0,
            )
        for i in range(1, t + 1):
            # (14) expansion: nu_{i-1} + delta_i - nu_i >= 0
            add(f"grow{i}", {f"nu{i - 1}": 1, f"delta{i}": 1, f"nu{i}": -1}, 0)
        # (15) density: nu_0/p + Delta >= lambda
        add("density", {"nu0": one_over_p, "Delta": 1}, lam)
        # (16) final layer: nu_t - Delta >= 0
        add("final", {f"nu{t}": 1, "Delta": -1}, 0)
        # (17) size cap: -nu_t >= -1
        add("cap", {f"nu{t}": -1}, -1)
    else:
        for i in range(1, t + 1):
            # (1) left norm rows
            add(f"left{i}", {"ell": 1, f"nu{i - 1}": -one_over_p, f"delta{i}": -1}, 0)
        for i in range(1, t + 1):
            # (2) right norm rows
            add(
                f"right{i}",
                {"ell": 1, f"nu{i}": q, f"nu{i - 1}": -1, f"delta{i}": -1},
                0,
            )
        for i in range(1, t + 1):
            # (3) degree at most layer size
            add(f"degsize{i}", {f"nu{i}": 1, f"delta{i}": -1}, 0)
        for i in range(1, t + 1):
            # (4) expansion
            add(f"grow{i}", {f"nu{i - 1}": 1, f"delta{i}": 1, f"nu{i}": -1}, 0)
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
    assignment: dict
    duals: dict


def solve(model: LbLpModel, exact: bool = False) -> SolveResult:
    """Optimal ell, a primal assignment and the optimal duals for the model.

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
    assignment = dict(zip(model.var_names, sol.x))
    return SolveResult(ell=sol.objective, assignment=assignment, duals=duals)


# -- (L,C,R) derivation ------------------------------------------------------


def _is_at_most_golden(p) -> bool:
    # p <= (1+sqrt 5)/2 is equivalent to p*p <= p + 1; exact for rationals.
    return p * p <= p + 1


def derive_lcr(p, t: int) -> LcrParams:
    """The (L,C,R) shape whose minimal spanner realizes the lower bound.

    Three branches: the lowest range (C=0 or C=1, symmetric), the low-p
    branch with L > 0 driven by the floor of a log ratio, and the high-p
    branch with L = 0 chosen by an interval test.  The low-p branch is
    preferred whenever it verifies with L > 0.
    """
    _check_tp(t, p)
    if t < 2:
        raise ParameterError("derive_lcr needs t >= 2")
    if t % 2 == 0 and _is_at_most_golden(p):
        return LcrParams(t // 2, 0, t // 2)
    if t % 2 == 1 and p <= 2:
        return LcrParams(t // 2, 1, t // 2)

    low = _low_p_candidate(p, t)
    if low is not None and low.L > 0:
        report = verify_lcr_conditions(low, p)
        if report.all_ok:
            return low
    high = _high_p_candidate(p, t)
    report = verify_lcr_conditions(high, p)
    if report.all_ok:
        return high
    raise DeriveDiagnostic(low, high)


def _low_p_candidate(p, t: int) -> LcrParams | None:
    floor_p = math.floor(p)
    # Delta_0 = log(p^2/floor(p)) / log(p/(p-1)); Delta_1 with p*floor(p)/(p-1).
    v0 = p * p / floor_p if not isinstance(p, (int, Fraction)) else Fraction(p) ** 2 / floor_p
    v1 = p * floor_p / (p - 1) if not isinstance(p, (int, Fraction)) else Fraction(p) * floor_p / (Fraction(p) - 1)
    if v0 < 1 or v1 < 1:
        return None
    f0 = _floor_log_ratio(p, v0)
    f1 = _floor_log_ratio(p, v1)
    f_minus, f_plus = min(f0, f1), max(f0, f1)
    if f_plus > f_minus:
        c_val = _floor_sqrt(p * (p - 1))
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
        slack = math.inf if ok else -math.inf
        return Condition(name, ok, slack)
    diff = lhs - rhs if sense == ">=" else rhs - lhs
    guard = 1e-12 * max(abs(float(lhs)), abs(float(rhs)), 1.0)
    if isinstance(diff, Fraction):
        ok = diff >= 0
    else:
        ok = diff >= -guard
    return Condition(name, ok, float(diff))


def verify_lcr_conditions(params: LcrParams, p) -> ConditionReport:
    """Per-condition report for the case matching ``params`` (L>0, L=0, skew).

    C = 0 has no condition system (the lowest-p closed form handles it), so
    the report comes back inapplicable.
    """
    L, C, R = params.L, params.C, params.R
    conds: list[Condition] = []
    if C == 0:
        return ConditionReport(params, applicable=False, conditions=())
    if params.skew == SKEW_LEFT:
        conds.append(_cond("C >= p-2", C, p - 2, ">="))
        conds.append(
            _cond("left-skew s", (C + 1) * _ratio_pow(p, R - L - 1), p * p, "<=")
        )
    elif params.skew == SKEW_RIGHT:
        conds.append(_cond("C >= p-2", C, p - 2, ">="))
        if L > 0:
            conds.append(
                _cond("right-skew s", _ratio_pow(p, R - L - 1), C + 1, "<=")
            )
        else:
            conds.append(_cond("right-skew s", _ratio_pow(p, R - 1), C + 1, "<="))
    elif L > 0:
        conds.append(
            _cond("cond1", (C + 1) * _ratio_pow(p, R - L + 1), p * p, ">=")
        )
        conds.append(_cond("cond2", C * _ratio_pow(p, R - L), p * p, "<="))
        conds.append(_cond("cond3", _ratio_pow(p, R - L), C, ">="))
        conds.append(_cond("cond4", _ratio_pow(p, R - L - 1), C + 1, "<="))
        conds.append(_cond("cond5-lo", C, p - 2, ">="))
        conds.append(_cond("cond5-hi", C, p, "<="))
    else:
        conds.append(_cond("cond2", C * _ratio_pow(p, R), p * p, "<="))
        conds.append(_cond("cond3", _ratio_pow(p, R), C, ">="))
        conds.append(_cond("cond4", _ratio_pow(p, R - 1), C + 1, "<="))
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
    if isinstance(lam, Fraction) and isinstance(bound, Fraction):
        if lam > bound:
            raise NiceRangeExceeded(f"lambda {lam} above nice range {bound}")
    elif float(lam) > float(bound) * (1 + 1e-12):
        raise NiceRangeExceeded(f"lambda {lam} above nice range {bound}")
    L, C, R = params.L, params.C, params.R
    if C > 0:
        return (1 + p / C) / (e_coeff(C, L, p) + p * e_coeff(C, R, p)) * lam
    return p / ((e_coeff(1, L, p) - 1) + p * (e_coeff(1, R, p) - 1)) * lam


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
    alpha = (Fraction(1) if isinstance(p, Fraction) else 1.0) / alpha_den
    return max(nu / p, alpha * lam)


_WALK_CACHE: dict = {}


def _interpolation_walk(base: LcrParams, p):
    """Shapes and skewed frames covering lambda above the nice range.

    From each shape the walk either absorbs a right layer into the center,
    (L,C,R) -> (L,C+1,R-1) through a right-skewed (L,C,R) frame, or grows the
    left section, (L,C,R) -> (L+1,C-1,R) through a left-skewed (L+1,C-1,R)
    frame.  The move taken is the one whose complementary-slackness system
    has a non-negative solution, which is exactly LP optimality of the frame
    family; the walk ends once the shape covers lambda up to 1 + 1/p.

    Returns ``(shapes, frames)`` with ``frames[i]`` bridging ``shapes[i]`` to
    ``shapes[i+1]``.
    """
    # keyed on the type of p too: 2.0 == Fraction(2), but float walks decide
    # with a tolerance and exact walks without one
    key = (base, type(p), p)
    try:
        cached = _WALK_CACHE.get(key)
    except TypeError:
        cached = None
    if cached is not None:
        return cached
    shapes = [base]
    frames: list[LcrParams] = []
    current = base
    for _ in range(base.t + 1):
        if current.L >= current.R or current.R == 0:
            break
        move = None
        if current.C >= 1:
            right_frame = LcrParams(current.L, current.C, current.R, skew=SKEW_RIGHT)
            try:
                construct_dual(right_frame, p)
                move = (right_frame, LcrParams(current.L, current.C + 1, current.R - 1))
            except DualConstructionError:
                move = None
        if move is None and current.C >= 1:
            left_frame = LcrParams(current.L + 1, current.C - 1, current.R, skew=SKEW_LEFT)
            construct_dual(left_frame, p)
            move = (left_frame, LcrParams(current.L + 1, current.C - 1, current.R))
        if move is None:
            raise DualConstructionError(f"no verified move from shape {current}")
        frames.append(move[0])
        shapes.append(move[1])
        current = move[1]
    result = (shapes, frames)
    try:
        _WALK_CACHE[key] = result
    except TypeError:
        pass
    return result


def _walk_segment(base: LcrParams, p, lam):
    """The walk from ``base`` and the segment of it that holds lambda.

    Returns ``(shapes, frames, seg, thresholds)``: ``thresholds[i]`` is the
    lambda cap of ``shapes[i]``, and lambda lies in
    ``(thresholds[seg - 1], thresholds[seg]]``, the range bridged by
    ``frames[seg - 1]``.
    """
    p = _exactify(p)
    shapes, frames = _interpolation_walk(base, p)
    # lambda thresholds of the walk shapes increase and end at 1 + 1/p
    thresholds = [min(nice_range_max(s, p), 1 + 1 / p) for s in shapes]
    for seg in range(1, len(shapes)):
        if lam <= thresholds[seg] or math.isclose(
            float(lam), float(thresholds[seg]), rel_tol=1e-12
        ):
            return shapes, frames, seg, thresholds
    raise ParameterError(f"lambda {lam} above 1 + 1/p")


def predicted_exponent(t: int, p, lam):
    """Piecewise closed-form prediction for the LP optimum at (t, p, lambda).

    Returns ``(ell, info)`` where info records the branch: ``closed_form``
    when the plain-shape formula or the L > 0 interpolation applies, or
    ``lp_derived`` for the L = 0 interpolation, whose value comes from the
    skewed spanner family and is confirmed against the LP by the test suite.
    """
    p, lam = _exactify(p), _exactify(lam)
    base = derive_lcr(p, t)
    bound = nice_range_max(base, p)
    if lam <= bound or (isinstance(lam, float) and float(lam) <= float(bound) * (1 + 1e-12)):
        return closed_form_exponent(base, p, lam), {
            "branch": "closed_form",
            "params": base,
            "segment": None,
        }
    shapes, _frames, seg, thresholds = _walk_segment(base, p, lam)
    lo, hi = thresholds[seg - 1], thresholds[seg]
    theta = (hi - lam) / (hi - lo)
    top = 1 + 1 / p

    def seg_ell(s: LcrParams):
        # value of the shape's own line at its lambda cap; equals
        # (1/p + 1/C) / E(C, R) when C > 0
        return closed_form_exponent(s, p, min(nice_range_max(s, p), top))

    ell = theta * seg_ell(shapes[seg - 1]) + (1 - theta) * seg_ell(shapes[seg])
    branch = "closed_form" if base.L > 0 else "lp_derived"
    return ell, {"branch": branch, "params": base, "segment": seg, "theta": theta}


# -- primal constructions ----------------------------------------------------


def minimal_spanner_primal(params: LcrParams, p, lam) -> dict:
    """Log-space primal assignment of a plain (L,C,R)-minimal spanner.

    Valid (and LP-optimal) for lambda in the nice range.  Layer exponents
    follow the equal-contribution recurrences; Delta coincides with nu_t.
    """
    if params.skew != SKEW_NONE:
        raise ParameterError("use skewed_primal for skewed shapes")
    p, lam = _exactify(p), _exactify(lam)
    L, C, R = params.L, params.C, params.R
    t = params.t
    one = Fraction(1) if isinstance(p, Fraction) else 1.0
    assign: dict = {}
    if C > 0:
        mu = lam / (e_coeff(C, L, p) / p + e_coeff(C, R, p))
        ell = mu * (one / p + one / C)
        nu = [None] * (t + 1)
        for j in range(L + 1):
            nu[L - j] = mu * e_coeff(C, j, p)
        for i in range(L, L + C + 1):
            nu[i] = mu
        for j in range(R + 1):
            nu[L + C + j] = mu * e_coeff(C, j, p)
        delta = [None] * (t + 1)
        for i in range(1, L + 1):
            delta[i] = 0 * mu
        for i in range(L + 1, L + C + 1):
            delta[i] = mu / C
        for j in range(1, R + 1):
            delta[L + C + j] = mu / C * _qpow(p, j - 1)
    else:
        if L == 0 or R == 0:
            raise ParameterError("C = 0 needs L, R >= 1")
        eta = lam / (_growth(p, L) / p + _growth(p, R))
        ell = eta
        nu = [None] * (t + 1)
        for j in range(L + 1):
            nu[L - j] = eta * _growth(p, j)
        for j in range(R + 1):
            nu[L + j] = eta * _growth(p, j)
        delta = [None] * (t + 1)
        for i in range(1, L + 1):
            delta[i] = 0 * eta
        for j in range(1, R + 1):
            delta[L + j] = eta * _qpow(p, j - 1)
    assign["ell"] = ell
    for i in range(t + 1):
        assign[f"nu{i}"] = nu[i]
    for i in range(1, t + 1):
        assign[f"delta{i}"] = delta[i]
    assign["Delta"] = nu[t]
    return assign


def skewed_primal(params: LcrParams, p, lam) -> dict:
    """Log-space primal of a skewed (L,C,R)-minimal spanner with n_t = n.

    Solves the three pinning relations (central-degree split, final layer
    pinned at n, density equals lambda) for (ell, mu, tau); tau is the log
    of the skew degree.
    """
    L, C, R = params.L, params.C, params.R
    if R < 1 or C < 0:
        raise ParameterError("skewed shapes need R >= 1")
    if params.skew == SKEW_RIGHT and C < 1:
        raise ParameterError("right skew needs C >= 1")
    if params.skew == SKEW_LEFT and L < 1:
        raise ParameterError("left skew needs L >= 1")
    p, lam = _exactify(p), _exactify(lam)
    q = _q(p)
    gL, gR = _growth(p, L), _growth(p, R)
    one = Fraction(1) if isinstance(q, Fraction) else 1.0
    # unknown order: (ell, mu, tau)
    if params.skew == SKEW_RIGHT:
        mat = [
            [-C * one, (p + C) / p * one, -one],
            [gR, _qpow(p, R), -_qpow(p, R - 1)],
            [gL / p, _qpow(p, L) / p, 0 * one],
        ]
        vec = [0 * one, one, lam - 1]
    elif params.skew == SKEW_LEFT:
        mat = [
            [-C * one, (p + C) / p * one, -one],
            [gR, _qpow(p, R), 0 * one],
            [gL / p, _qpow(p, L) / p, -_qpow(p, L - 1) / p],
        ]
        vec = [0 * one, one, lam - 1]
    else:
        raise ParameterError("skewed_primal needs a left or right skew")
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
    assign = {"ell": ell, "Delta": nu[t]}
    for i in range(t + 1):
        assign[f"nu{i}"] = nu[i]
    for i in range(1, t + 1):
        assign[f"delta{i}"] = delta[i]
    assign["_tau"] = tau
    return assign


# -- dual certificates -------------------------------------------------------

_ROW_TO_DUAL = ("span", "left", "right", "grow", "density", "final", "cap")


def _dual_support(params: LcrParams, t: int) -> tuple[set, set]:
    """(support rows, tight columns) for the case's complementary-slackness system.

    Rows are named by the relaxed model's row names; columns by variable
    names.  Support rows may carry nonzero dual values; tight columns are
    the primal variables strictly above their bound, whose dual constraints
    must hold with equality.
    """
    L, C, R = params.L, params.C, params.R
    rows = {"span", "density", "final"}
    rows |= {f"left{i}" for i in range(L + 1, t + 1)}
    rows |= {f"right{i}" for i in range(1, L + C + 1)}
    cols = {"ell", "Delta"} | {f"nu{i}" for i in range(t + 1)}
    if params.skew == SKEW_NONE:
        rows |= {f"grow{i}" for i in range(L + C + 1, t + 1)}
        if L > 0:
            cols |= {f"delta{i}" for i in range(L + 1, t + 1)}
        else:
            rows |= {f"left{i}" for i in range(1, t + 1)}
            cols |= {f"delta{i}" for i in range(1, t + 1)}
    elif params.skew == SKEW_LEFT:
        rows |= {f"grow{i}" for i in range(L + C + 1, t + 1)}
        rows.add("cap")
        cols |= {f"delta{i}" for i in range(L, t + 1)}
    else:  # right skew
        rows |= {f"grow{i}" for i in range(L + C + 2, t + 1)}
        rows.add("cap")
        if L > 0:
            cols |= {f"delta{i}" for i in range(L + 1, t + 1)}
        else:
            rows |= {f"left{i}" for i in range(1, t + 1)}
            cols |= {f"delta{i}" for i in range(1, t + 1)}
    return rows, cols


def construct_dual(params: LcrParams, p, t: int | None = None) -> DualCertificate:
    """Closed-form dual for the case matching ``params`` (see the five systems).

    Solves the complementary-slackness equations of the relaxed LP for the
    given shape; every component must come out non-negative and the leftover
    inequality constraints (dual rows for the degree-1 left section) must
    hold, else :class:`DualConstructionError` names the violation.

    A plain shape with no closed-form system on file (C = 0), or whose
    system is singular (odd t at p = 1), takes the LP's own optimal duals
    at lambda = 1 instead (see ``_lp_dual``).  Skewed frames have no such
    fallback: a singular frame system raises, which is what steers
    ``_interpolation_walk`` to the other move.
    """
    if t is None:
        t = params.t
    if t != params.t:
        raise ParameterError(f"params {params} do not sum to t={t}")
    plain = params.skew == SKEW_NONE
    if plain and params.C == 0:
        return _lp_dual(params, p)
    exact = isinstance(p, (int, Fraction))
    model = build_model(t, p if not isinstance(p, int) else Fraction(p), 1, relaxed=True)
    rows, cols = _dual_support(params, t)
    row_order = [name for name in model.row_names if name in rows]
    col_order = [name for name in model.var_names if name in cols]
    if len(row_order) != len(col_order):
        raise DualConstructionError(
            f"case system is not square for {params}: "
            f"{len(row_order)} unknowns vs {len(col_order)} equations"
        )
    # Equations: for each tight column j, sum over support rows of A[r][j] * u_r = c_j
    cvec = {v: (1 if v == "ell" else 0) for v in model.var_names}
    mat = []
    vec = []
    cast = Fraction if exact else float
    for colname in col_order:
        j = model.var_index(colname)
        mat.append([cast(model.rows[model.row_index(r)][j]) for r in row_order])
        vec.append(cast(cvec[colname]))
    try:
        sol = _dense_solve(mat, vec)
    except ZeroDivisionError:
        if plain:
            return _lp_dual(params, p)
        raise DualConstructionError("singular complementary-slackness system") from None
    values = dict(zip(row_order, sol))
    tol = 0 if exact else 1e-11
    for name, val in values.items():
        if val < -tol:
            raise DualConstructionError(f"NEGATIVE_COMPONENT {name} = {float(val)}")
    # Remaining dual constraints (columns outside the tight set) must hold.
    for colname in model.var_names:
        if colname in cols:
            continue
        j = model.var_index(colname)
        lhs = sum(
            model.rows[model.row_index(r)][j] * values[r] for r in row_order
        )
        bound = cvec[colname]
        if lhs > bound + (0 if exact else 1e-11):
            raise DualConstructionError(
                f"dual constraint for {colname} violated: {float(lhs)} > {bound}"
            )
    return _package_certificate(values, params, p, t)


def _package_certificate(values: Mapping, params: LcrParams, p, t: int) -> DualCertificate:
    zero = Fraction(0) if any(isinstance(v, Fraction) for v in values.values()) else 0.0

    def get(name):
        return values.get(name, zero)

    x = get("span")
    a = tuple(get(f"left{i}") for i in range(1, t + 1))
    b = tuple(get(f"right{i}") for i in range(1, t + 1))
    dd = tuple(get(f"grow{i}") for i in range(1, t + 1))
    y = get("density")
    w = get("final")
    s = get("cap")
    L, C, R = params.L, params.C, params.R
    if params.skew == SKEW_NONE and C > 0:
        # the plain systems carry a conventional scale eps; invert the x formula
        if L > 0:
            denom = 1 + p * _qpow(p, R - L)
        else:
            denom = (p - 1) + _ratio_pow(p, R - 1)
        eps = x / denom if denom else None
    else:
        eps = x
    return DualCertificate(x=x, a=a, b=b, D=dd, y=y, w=w, s=s, eps=eps)


def _lp_dual(params: LcrParams, p) -> DualCertificate:
    """The optimal duals of the relaxed LP at lambda = 1, for a plain shape.

    The dual feasible region does not involve lambda, which only scales the
    objective.  The plain shape's primal scales with lambda, and every nice
    range reaches past lambda = 1, so the cap row is slack there; by
    complementary slackness one optimal dual at lambda = 1 certifies the
    whole nice-range ray.
    """
    p = _exactify(p)
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
    base = derive_lcr(p, t)
    bound = nice_range_max(base, p)
    in_nice = lam <= bound or (
        isinstance(lam, float) and float(lam) <= float(bound) * (1 + 1e-12)
    )
    if in_nice:
        primal = minimal_spanner_primal(base, p, lam)
        cert = construct_dual(base, p, t)
        return base, primal, cert
    _shapes, frames, seg, _thresholds = _walk_segment(base, p, lam)
    frame = frames[seg - 1]
    primal = skewed_primal(frame, p, lam)
    cert = construct_dual(frame, p, t)
    return frame, primal, cert


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
