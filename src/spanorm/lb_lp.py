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
and right-skewed with L=0).  Each shape names its support rows S and tight
columns T (``_tight_system``); the dual solves A_{S,T}^T u = c_T and the
primal A_{S,T} x_T = b_S with x = 0 off T, both with
``simplex._dense_solve``, and the pair is verified against the LP.  For
rational p the solve is exact integer fraction-free elimination, with a
``Fraction`` formed only for each value; for float p it is float
Gauss-Jordan.  A plain shape with no system on file (C = 0) or a singular
one (odd t at p = 1) is certified by the LP's own optimal duals instead,
which ``solve`` returns by row name.

Numeric policy: ``p`` and ``lambda`` may be int, float or Fraction.  Each
public entry point turns an int into a Fraction once (``_exactify``), and
the arithmetic below it follows the type it is given, so exact input gives
exact output and float input float output.  Lambda must lie in the LP's
own range (0, 1 + 1/p], tested with no slack (``_check_lambda``); every
test against an interior range cap goes through ``_at_most``: exact when
both sides are Fractions, and with a 1e-12 relative slack otherwise.
``verify_certificate`` still checks in float, at the absolute
``CERTIFICATE_TOL``, even for exact certificates; an exact referee for it
is an open item in ROADMAP.md.

What depends on (t, p) alone is derived once, by six functions under
``functools.lru_cache(maxsize=None, typed=True)``; the fill counts are
those of one cold pass of the ``lb_certify`` grid, which asks about 70
pairs (t, p):

- ``_base`` (70 fills): the base shape of ``derive_lcr``, its nice-range
  cap and closed-form slope ell / lambda;
- ``_base_dual`` (54): its dual, on first certificate in the nice range;
- ``_walk`` (36): the interpolation walk with each walk shape's exponent
  at its cap, on first lambda above the base cap;
- ``_unit`` (70), per (t, p): the model at lambda = 1, the one model
  that ``_tight_system``, ``_lp_dual`` and ``_certificate`` read, about
  6 kB;
- ``_primal_terms`` (116), per (shape, p): the one solve of the shape's
  tight rows, plain or skewed, as tuples over its tight columns, so a
  primal at any lambda is x0 + lambda * x1 (x1 alone for a plain shape);
- ``_certificate`` (427 float and 375 exact fills), per (t, p, basis,
  exact): the lambda-free part of the float or the exact simplex
  certificate of each optimal basis ``solve`` meets, made only for the
  rung that asks (see ``solve``): plain tuples of ints or floats, about
  1.2 kB an entry, key included.

``typed=True`` keeps 2.0 and Fraction(2) apart, since float shapes, caps
and duals decide with a tolerance.  The caches hold values only, never
exceptions, and are unbounded: a few small tuples per (t, p) a process
asks about; ``cache_info()`` reports their hits and fills.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .simplex import _dense_solve, _part, _solve

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
    """The relaxed lower-bound LP of ``build_model`` in log space; all rows
    are ``coeffs . x >= rhs``.

    The model never sees n: coefficients depend on p and lambda only, so two
    builds at different nominal n are identical object for object.

    ``_basis`` holds the basis of the model's float pivot run once one has
    returned (see ``solve``); it takes no part in ``repr``, ``==`` or
    ``hash``, and dies with the model.
    """

    t: int
    p: object
    lam: object
    var_names: tuple[str, ...]
    row_names: tuple[str, ...]
    rows: tuple[tuple, ...]
    rhs: tuple
    _basis: list = field(default_factory=list, init=False, repr=False, compare=False)

    def objective_vector(self):
        return tuple(1 if v == "ell" else 0 for v in self.var_names)


def _check_tp(t: int, p) -> None:
    if isinstance(t, bool) or not (isinstance(t, int) and t >= 1):
        raise ParameterError(f"stretch t must be a positive integer, got {t!r}")
    if p is None or isinstance(p, bool) or not 1 <= p < math.inf:
        raise ParameterError(f"p must be a finite real >= 1, got {p}")


def build_model(t: int, p, lam) -> LbLpModel:
    """Log-space LP for stretch t, norm parameter p, p-log density lambda.

    The relaxed program: one aggregated spanning row and one Delta variable
    stand in for the per-layer reachability variables of the full program,
    with the same optimum (the test suite solves the full program as its
    reference).  The model keeps ``p`` and ``lam`` as given.
    """
    _check_tp(t, p)
    exact_p = _exactify(p)
    one_over_p = 1 / exact_p
    q = _q(exact_p)
    _check_lambda(exact_p, lam)

    deltas = [f"delta{i}" for i in range(1, t + 1)]
    var_names = ("ell", *(f"nu{i}" for i in range(t + 1)), *deltas, "Delta")
    index = {v: k for k, v in enumerate(var_names)}
    row_names: list[str] = []
    rows: list[tuple] = []
    rhs: list = []

    def add(name: str, coeffs: Mapping[str, object], r) -> None:
        vec = [0] * len(var_names)
        for var, cf in coeffs.items():
            vec[index[var]] = cf
        row_names.append(name)
        rows.append(tuple(vec))
        rhs.append(r)

    # (11) spanning: sum delta_i - Delta >= 0
    add("span", {**{d: 1 for d in deltas}, "Delta": -1}, 0)
    for i in range(1, t + 1):
        # (12) left degree-norm: ell - nu_{i-1}/p - delta_i >= 0
        add(f"left{i}", {"ell": 1, f"nu{i - 1}": -one_over_p, f"delta{i}": -1}, 0)
    for i in range(1, t + 1):
        # (13) right degree-norm: ell + q*nu_i - nu_{i-1} - delta_i >= 0
        add(f"right{i}", {"ell": 1, f"nu{i}": q, f"nu{i - 1}": -1, f"delta{i}": -1}, 0)
    for i in range(1, t + 1):
        # (14) expansion: nu_{i-1} + delta_i - nu_i >= 0
        add(f"grow{i}", {f"nu{i - 1}": 1, f"delta{i}": 1, f"nu{i}": -1}, 0)
    # (15) density: nu_0/p + Delta >= lambda
    add("density", {"nu0": one_over_p, "Delta": 1}, lam)
    # (16) final layer: nu_t - Delta >= 0
    add("final", {f"nu{t}": 1, "Delta": -1}, 0)
    # (17) size cap: -nu_t >= -1
    add("cap", {f"nu{t}": -1}, -1)
    return LbLpModel(
        t=t,
        p=p,
        lam=lam,
        var_names=var_names,
        row_names=tuple(row_names),
        rows=tuple(rows),
        rhs=tuple(rhs),
    )


@dataclass(frozen=True)
class SolveResult:
    ell: object
    duals: dict


def solve(model: LbLpModel, exact: bool = False) -> SolveResult:
    """Optimal ell and the optimal duals for the model.

    ``duals`` maps each row name to its multiplier u_r in the model's own
    sign convention: u_r >= 0 on every row (all are ``>=``), the column sums
    ``sum_r A[r][j] * u_r`` stay at most c_j, and ``rhs . u`` equals ell.
    ``exact=True`` runs the simplex in rational arithmetic on a model built
    with p and lambda as ints or Fractions; a float p or lambda raises
    ``ParameterError`` before any pivot.  The exact value of a float is not
    the number it stands for: lambda = 1 + 1/p in floats, at the float
    golden ratio, lies just past the cap of the rational data.
    Infeasible/unbounded cannot occur for in-range parameters (the all-ones
    assignment spans, and ell >= 0), so those solver errors propagate as
    genuine bugs.

    The model pivots in float at most once: the first float pivot run that
    returns, in either mode, leaves its basis on the model, and later calls
    certify that basis (exactly, with ``exact=True``) instead of pivoting
    again.  A run that raises leaves nothing, so the next call fails or
    climbs the same way.  The data below is built the same way from the
    frozen model each call, so every answer, float bits and exact values
    alike, is the one a fresh model gives, in either call order.

    Lambda enters only the density row's rhs, so a basis's certificate has
    a lambda-free part, made for each mode once per (t, p, basis), when
    that mode first asks, by ``_certificate`` on the model at lambda = 1,
    and a part affine in lambda, read here: the exact basic values
    ``(u + s w) / den`` at s = lambda - 1, or the float basic values
    ``B^-1 b`` solved at this lambda.  A basis refused at this lambda climbs
    the simplex ladder as before.  The answers are those of a certificate
    made afresh.
    """
    if exact and (isinstance(model.p, float) or isinstance(model.lam, float)):
        raise ParameterError(
            f"exact solve needs int or Fraction p and lambda, got p={model.p!r}, "
            f"lambda={model.lam!r}"
        )
    # the density row goes in negated, its rhs at -lambda: 1 - lambda above
    # its rhs at lambda = 1
    stored = functools.partial(_certificate, model.t, model.p)
    sol = _solve(_lp_data(model), exact, model._basis, (stored, 1 - model.lam))
    # the rows went in negated: u_r = -y_r
    duals = {name: -y for name, y in zip(model.row_names, sol.duals)}
    return SolveResult(ell=sol.objective, duals=duals)


def _lp_data(model: LbLpModel):
    """The model as ``simplex._solve`` data: its ``>=`` rows negated into
    ``A_ub``, in model order, and no ``A_eq``."""
    return (model.objective_vector(), [[-v for v in row] for row in model.rows],
            [-r for r in model.rhs], (), ())


@functools.lru_cache(maxsize=None, typed=True)
def _unit(t: int, p) -> LbLpModel:
    """The model of (t, p) at lambda = 1, where everything lambda-free about
    the family is read."""
    return build_model(t, p, 1)


@functools.lru_cache(maxsize=None, typed=True)
def _certificate(t: int, p, basis: tuple, exact: bool):
    """The lambda-free part of the float (``exact`` False) or the exact
    certificate of ``basis`` (``simplex._part``) for the models of (t, p),
    made on ``_unit`` whichever lambda asks first, and only for the rung
    that asks.

    Lambda moves only the density row's rhs, and never its sign, so the
    program's rows, costs and flips are those of every lambda.
    """
    model = _unit(t, p)
    return _part(_lp_data(model), basis, model.row_names.index("density"), exact)


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
    # p > 1 here (the lowest range returned above), so v0 >= p > 1 and
    # v1 > floor(p) >= 1: both logs below are defined
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
    """Per-condition report for a plain shape with C >= 1 (L > 0 or L = 0).

    The other shapes have no condition system here, so their report comes
    back inapplicable: C = 0 (the lowest-p closed form handles it) and the
    skewed frames, whose optimality ``construct_dual`` and
    ``verify_certificate`` decide.
    """
    p = _exactify(p)
    L, C, R = params.L, params.C, params.R
    if C == 0 or params.skew != SKEW_NONE:
        return ConditionReport(params, applicable=False, conditions=())
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


# -- the tight rows of a shape ------------------------------------------------


def _tight_system(params: LcrParams, p) -> tuple:
    """``(model, support, tight)``: the shape's complementary-slackness system
    on the model at lambda = 1 (``_unit``).

    ``support`` holds the rows that may carry nonzero dual values, as
    ``(name, row)`` pairs, and the shape's primal meets them with equality;
    ``tight`` holds the indices of the columns that may sit above 0, whose
    dual constraints hold with equality.  The primal is 0 on every other
    column.  A plain shape has t + C + R + 3 rows and 2t + 3 - L columns; a
    right skew trades layer L+C+1's expansion row for the cap row, and a
    left skew adds the cap row and the column delta_L.  So the system is
    square except for a left skew with L = 0, which has no delta_0 and
    raises ``DualConstructionError``.  ``p`` comes in exactified.
    """
    t, L, C = params.t, params.L, params.C
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
    idle = {f"delta{i}" for i in range(1, first_delta)}
    model = _unit(t, p)
    support = [(r, row) for r, row in zip(model.row_names, model.rows) if r in rows]
    tight = [j for j, name in enumerate(model.var_names) if name not in idle]
    if len(support) != len(tight):
        raise DualConstructionError(
            f"case system is not square for {params}: "
            f"{len(support)} unknowns vs {len(tight)} equations"
        )
    return model, support, tight


# -- primal constructions ----------------------------------------------------


@functools.lru_cache(maxsize=None, typed=True)
def _primal_terms(params: LcrParams, p) -> tuple:
    """``(x0, x1)``: the shape's primal is x0 + lambda * x1 on its tight
    columns, in model order; ``x0`` is None for a plain shape.

    The primal solves the support rows of ``_tight_system`` as equations.
    Only the density row (rhs lambda) and the cap row of a skewed frame
    (rhs -1) have a nonzero rhs, so one elimination with a right-hand side
    for each serves every lambda.
    A central right row i, one whose left row i is in the support too, is
    read as nu_i = nu_{i-1}: right_i - left_i = q (nu_i - nu_{i-1}), so for
    p > 1 the swap is a row operation, and at p = 1, where the two rows
    coincide, it is the shape's own condition of C equal central layers.
    ``p`` comes in exactified; a singular system raises
    ``DualConstructionError``.
    """
    model, support, tight = _tight_system(params, p)
    cast = Fraction if isinstance(p, Fraction) else float
    col = model.var_names.index
    central = {f"right{i}": i for i in range(params.L + 1, params.L + params.C + 1)}
    mat = []
    for name, row in support:
        if name in central:
            i = central[name]
            row = [0] * len(row)
            row[col(f"nu{i}")], row[col(f"nu{i - 1}")] = 1, -1
        mat.append([row[j] for j in tight])

    rhs = dict(zip(model.row_names, model.rhs))
    # the density rhs is lambda = 1; a float rhs keeps a float solve float
    pinned = ("density",) if params.skew == SKEW_NONE else ("density", "cap")
    vecs = [[cast(rhs[name] if name == pin else 0) for name, _row in support] for pin in pinned]
    try:
        x1, *x0 = map(tuple, _dense_solve(mat, *vecs))
    except ZeroDivisionError:
        raise DualConstructionError("singular complementary-slackness system") from None
    return (x0[0] if x0 else None), x1


def _primal(params: LcrParams, p, lam) -> dict:
    """The LP assignment of the shape at lambda, from ``_primal_terms``:
    ell, nu_0..nu_t, delta_1..delta_t and Delta, in model order, with 0 on
    the idle deltas."""
    x0, x1 = _primal_terms(params, p)
    vals = [lam * b for b in x1] if x0 is None else [a + lam * b for a, b in zip(x0, x1)]
    t = params.t
    # the idle columns are the leading deltas, which follow ell and nu_0..nu_t
    vals[t + 2 : t + 2] = [0 * vals[0]] * (2 * t + 3 - len(vals))
    names = ["ell", *(f"nu{i}" for i in range(t + 1)),
             *(f"delta{i}" for i in range(1, t + 1)), "Delta"]
    return dict(zip(names, vals))


def minimal_spanner_primal(params: LcrParams, p, lam) -> dict:
    """Log-space primal assignment of a plain (L,C,R)-minimal spanner.

    Valid (and LP-optimal) for lambda in the nice range.  It solves the
    shape's tight rows, once per (shape, p) in ``_primal_terms``, so that
    every layer contributes equally and Delta coincides with nu_t; the
    primal is lambda times that solution.
    """
    if params.skew != SKEW_NONE:
        raise ParameterError("use skewed_primal for skewed shapes")
    if params.C == 0 and (params.L == 0 or params.R == 0):
        raise ParameterError("C = 0 needs L, R >= 1")
    p, lam = _exactify(p), _exactify(lam)
    return _primal(params, p, lam)


def skewed_primal(params: LcrParams, p, lam) -> dict:
    """Log-space primal of a skewed (L,C,R)-minimal spanner with n_t = n.

    Solves the frame's tight rows, the cap row pinning n_t = n among them,
    once per (shape, p) in ``_primal_terms``.  ``_tau``, the log of the skew
    degree, is the slack of the expansion row of layer L+C+1 in a right
    skew and delta_L in a left skew; it must lie in [0, mu/(C+1)], where mu
    is the central layer exponent nu_L.
    """
    L, C, R = params.L, params.C, params.R
    if R < 1 or C < 0:
        raise ParameterError("skewed shapes need R >= 1")
    if params.skew == SKEW_LEFT and L < 1:
        raise ParameterError("left skew needs L >= 1")
    if params.skew == SKEW_NONE:
        raise ParameterError("skewed_primal needs a left or right skew")
    p, lam = _exactify(p), _exactify(lam)
    assign = _primal(params, p, lam)
    mu = assign[f"nu{L}"]
    if params.skew == SKEW_RIGHT:
        i = L + C + 1
        tau = assign[f"nu{i - 1}"] + assign[f"delta{i}"] - assign[f"nu{i}"]
    else:
        tau = assign[f"delta{L}"]
    tol = 0 if isinstance(tau, Fraction) else 1e-9
    if tau < -tol or tau > mu / (C + 1) + tol:
        raise ParameterError(
            f"skew degree exponent {float(tau):.6g} outside [0, mu/(C+1)] "
            f"for {params} at lambda={float(lam):.6g}"
        )
    assign["_tau"] = tau
    return assign


# -- dual certificates -------------------------------------------------------


def construct_dual(params: LcrParams, p) -> DualCertificate:
    """Closed-form dual for the case matching ``params`` (see the five systems).

    Solves the complementary-slackness equations of the relaxed LP for the
    given shape, A_{S,T}^T u = c_T over the support rows S and tight
    columns T of ``_tight_system``; every component must come out
    non-negative and the leftover inequality constraints (dual rows for the
    degree-1 left section) must hold, else :class:`DualConstructionError`
    names the violation.

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
    model, support, tight = _tight_system(params, p)
    # Equations: for each tight column j, sum over support rows of A[r][j] * u_r = c_j
    c = model.objective_vector()
    cast = Fraction if exact else float
    # the model's own entries: a float rhs keeps every value of a float
    # solve a float, and the values are those of cast entries
    mat = [[row[j] for _name, row in support] for j in tight]
    vec = [cast(c[j]) for j in tight]
    try:
        (sol,) = _dense_solve(mat, vec)
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
        if j in tight:
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
    duals = solve(_unit(params.t, p), exact=isinstance(p, Fraction)).duals
    return _package_certificate(duals, params, p, params.t)


CERTIFICATE_TOL = 1e-9


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
) -> CertificateCheck:
    """Dual feasibility + complementary slackness + objective agreement.

    All three parts are checked against the model in float, within the
    absolute ``CERTIFICATE_TOL``, which bounds only these float checks (an
    exact referee is an open item in ROADMAP.md); any failure is reported
    with the offending row or column name rather than raised.
    """
    tol = CERTIFICATE_TOL
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
