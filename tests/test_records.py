"""The library's result records: repr, equality, hashing and immutability.

Each repr below was recorded when the records were dataclasses, all frozen
but ``LayeredInstance``; the records must keep them, compare and hash by
value, and the frozen ones refuse assignment.
"""

import pickle
from fractions import Fraction as F
from pathlib import Path

import pytest

import spanorm
from spanorm.decomposition import class_contributions, classify, peel_low_degree
from spanorm.extremal import build_from_lp, build_lcr, named_girth_graph
from spanorm.graph_core import GraphError, LayerProfile, layer_profile, lp_norm
from spanorm.greedy import greedy_spanner
from spanorm.lb_lp import (CertificateCheck, LcrParams, ParameterError, build_model,
                           certificate_for, construct_dual, derive_lcr, minimal_spanner_primal,
                           solve, verify_certificate, verify_lcr_conditions)
from spanorm.oracle import ball_growth_check, optimal_spanner
from spanorm.simplex import solve_lp

from helpers import petersen_graph

PETERSEN_SPANNER = (
    "Spanner(base=Graph(n=10, m=15, unit), kept_edges=((0, 1), (0, 4), (0, 5), (1, 2), "
    "(1, 6), (2, 3), (2, 7), (3, 4), (3, 8), (4, 9), (5, 7), (5, 8), (6, 8), (6, 9), "
    "(7, 9)), t=3)"
)


def _ball_growth():
    h = greedy_spanner(petersen_graph(), 3)
    return ball_growth_check(h, lp_norm(h.graph(), 2), 2)


def _certificate_check():
    _, primal, cert = certificate_for(2, F(2), 1)
    return verify_certificate(build_model(2, F(2), 1), primal, cert)


def _lcr_instance():
    return build_lcr(LcrParams(1, 1, 1), 2.0, 8)


def _lp_instance():
    p = F(2)
    return build_from_lp(minimal_spanner_primal(derive_lcr(p, 2), p, F(1)), 16, seed=1,
                         t=2, p=2.0)


LCR_111 = "LcrParams(L=1, C=1, R=1, skew='none', skew_exponent=None)"
CONDITIONS_111 = (
    "(Condition(name='cond1', ok=True, slack=0.0), Condition(name='cond2', ok=True, "
    "slack=3.0), Condition(name='cond3', ok=True, slack=0.0), Condition(name='cond4', "
    "ok=True, slack=1.5), Condition(name='cond5-lo', ok=True, slack=1.0), "
    "Condition(name='cond5-hi', ok=True, slack=1.0))"
)
GAPS_111 = (
    "(_Gap(kind='contract', a=64, b=8, d=1, digit=0, dtilde=1, mprime=1), "
    "_Gap(kind='grid', a=8, b=8, d=8, digit=0, dtilde=1, mprime=8), "
    "_Gap(kind='expand', a=8, b=64, d=1, digit=0, dtilde=1, mprime=1))"
)

# name -> (a fresh instance on each call, its repr, None if it hashes, else
# the type that refuses); the records that hold a dict do not hash.
# class_contributions needs girth >= 7 at k = 3, which Petersen lacks.
RECORDS = {
    "LayerProfile": (lambda: layer_profile(petersen_graph(), 0, 2),
                     "LayerProfile(source=0, counts=(1, 3, 6))", None),
    "Spanner": (lambda: greedy_spanner(petersen_graph(), 3), PETERSEN_SPANNER, None),
    "OracleResult": (
        lambda: optimal_spanner(petersen_graph(), 3, 2),
        f"OracleResult(optimum={PETERSEN_SPANNER}, optimum_norm=9.486832980505138, "
        "explored=17, pruned=15, greedy_norm=9.486832980505138)",
        None),
    "VertexClasses": (
        lambda: classify(petersen_graph(), 3),
        "VertexClasses(k=3, low=frozenset(), med=frozenset({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}), "
        "high={0: frozenset()})",
        "dict"),
    "ClassContributions": (
        lambda: class_contributions(named_girth_graph("mcgee"), 3),
        "ClassContributions(k=3, p=1.5, norms={'low': 0.0, 'med': 0.0, ('high', 0): "
        "24.961005876622846}, bounds={'low': 24.0, 'med': 24.0, ('high', 0): None}, "
        "min_degree=3)",
        "dict"),
    "PeelResult": (
        lambda: peel_low_degree(petersen_graph()),
        "PeelResult(graph=Graph(n=10, m=0, unit), core=frozenset(), "
        "removed=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9))",
        None),
    "BallGrowthReport": (
        _ball_growth,
        "BallGrowthReport(alpha=0.9771212547196624, inductive_violations=(), "
        "optimal_bound_violations=())",
        None),
    "LpSolution": (lambda: solve_lp([1, 1], [[-1, -2]], [-2], exact=True),
                   "LpSolution(objective=Fraction(1, 1), x=(Fraction(0, 1), Fraction(1, 1)), "
                   "duals=(Fraction(-1, 2),))",
                   None),
    "LcrParams": (lambda: LcrParams(1, 1, 1, skew="right", skew_exponent=0.25),
                  "LcrParams(L=1, C=1, R=1, skew='right', skew_exponent=0.25)", None),
    "DualCertificate": (
        lambda: construct_dual(derive_lcr(F(2), 2), F(2)),
        "DualCertificate(x=Fraction(2, 5), a=(Fraction(1, 5), Fraction(3, 5)), "
        "b=(Fraction(1, 5), Fraction(0, 1)), D=(Fraction(0, 1), Fraction(1, 5)), "
        "y=Fraction(3, 5), w=Fraction(1, 5), s=Fraction(0, 1), eps=Fraction(1, 5))",
        None),
    "LbLpModel": (
        lambda: build_model(1, 2, 1),
        "LbLpModel(t=1, p=2, lam=1, var_names=('ell', 'nu0', 'nu1', 'delta1', 'Delta'), "
        "row_names=('span', 'left1', 'right1', 'grow1', 'density', 'final', 'cap'), "
        "rows=((0, 0, 0, 1, -1), (1, Fraction(-1, 2), 0, -1, 0), "
        "(1, -1, Fraction(1, 2), -1, 0), (0, 1, -1, 1, 0), (0, Fraction(1, 2), 0, 0, 1), "
        "(0, 0, 1, 0, -1), (0, 0, -1, 0, 0)), rhs=(0, 0, 0, 0, 1, 0, -1))",
        None),
    "SolveResult": (
        lambda: solve(build_model(1, F(2), 1), exact=True),
        "SolveResult(ell=Fraction(1, 1), duals={'span': Fraction(1, 1), "
        "'left1': Fraction(1, 1), 'right1': Fraction(0, 1), 'grow1': Fraction(0, 1), "
        "'density': Fraction(1, 1), 'final': Fraction(0, 1), 'cap': Fraction(0, 1)})",
        "dict"),
    "Condition": (lambda: verify_lcr_conditions(derive_lcr(2, 3), 2).conditions[1],
                  "Condition(name='cond2', ok=True, slack=3.0)", None),
    "ConditionReport": (
        lambda: verify_lcr_conditions(derive_lcr(2, 3), 2),
        f"ConditionReport(params={LCR_111}, applicable=True, conditions={CONDITIONS_111})",
        None),
    "CertificateCheck": (_certificate_check, "CertificateCheck(ok=True, violations=())",
                         None),
    "_Gap": (lambda: _lcr_instance().gaps[1],
             "_Gap(kind='grid', a=8, b=8, d=8, digit=0, dtilde=1, mprime=8)", None),
    "LayeredInstance": (
        _lcr_instance,
        f"LayeredInstance(t=3, p=2.0, layer_sizes=(64, 8, 8, 64), gaps={GAPS_111}, "
        "predicted={'lambda_predicted': 1.3288577893735605, "
        "'ell_predicted': 0.8399246935592483, 'ideal_sizes': (64.0, 8.0, 8.0, 64.0)}, "
        "explicit_spanner=None, explicit_host=None)",
        "LayeredInstance"),
    "LayeredInstance-lp": (
        _lp_instance,
        "LayeredInstance(t=2, p=2.0, layer_sizes=(3, 3, 9), gaps=(), predicted={}, "
        "explicit_spanner=Graph(n=15, m=36, unit), explicit_host=Graph(n=15, m=63, unit))",
        "LayeredInstance"),
}

# the only record whose fields can be reassigned, as its dataclass's could
MUTABLE = {"LayeredInstance", "LayeredInstance-lp"}

# the private cache slots, which take no part in the repr and are set only
# by the record itself
PRIVATE_SLOTS = {"Spanner": ["_graph"], "LbLpModel": ["_basis"]}


@pytest.mark.parametrize("name", RECORDS)
def test_repr_pinned(name):
    make, text, _ = RECORDS[name]
    record = make()
    assert type(record).__name__ == name.split("-")[0]
    assert repr(record) == text


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_compare_and_hash_alike(name):
    make, text, refuses = RECORDS[name]
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    if refuses is None:
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
    else:
        with pytest.raises(TypeError, match=f"unhashable type: '{refuses}'"):
            hash(first)
    copy = pickle.loads(pickle.dumps(first))
    assert copy == first and repr(copy) == text


@pytest.mark.parametrize("name", sorted(set(RECORDS) - MUTABLE))
def test_assignment_refused(name):
    make, text, _ = RECORDS[name]
    record = make()
    field = text.split("(", 1)[1].split("=", 1)[0]  # the first field the repr names
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None
    private = [slot for slot in getattr(type(record), "__slots__", ()) if slot[0] == "_"]
    assert private == PRIVATE_SLOTS.get(name, [])
    for slot in private:
        with pytest.raises(AttributeError):
            setattr(record, slot, None)
        with pytest.raises(AttributeError):
            delattr(record, slot)
    assert repr(record) == text


def test_spanner_graph_is_cached_outside_equality():
    first, second = (greedy_spanner(petersen_graph(), 3) for _ in range(2))
    assert first.graph() is first.graph()
    assert first == second and hash(first) == hash(second)
    assert first.graph() == second.graph()


@pytest.mark.parametrize("counts", [(2,), (), (0, 1)])
def test_layer_profile_refuses_d0_other_than_1(counts):
    with pytest.raises(GraphError, match="d_0 = 1"):
        LayerProfile(0, counts)


def test_layered_instance_fields_reassign_and_offsets_follow_the_layers():
    inst = _lcr_instance()
    assert inst.offsets == (0, 64, 72, 80, 144) and inst.n == 144
    inst.predicted = {}
    assert inst.predicted == {} and inst != _lcr_instance()
    assert pickle.loads(pickle.dumps(inst)).offsets == inst.offsets


def test_model_basis_outside_repr_equality_hash_and_pickle():
    solved, fresh = build_model(3, 2, 1), build_model(3, 2, 1)
    solve(solved)
    assert solved._basis and not fresh._basis
    assert solved == fresh and hash(solved) == hash(fresh)
    assert repr(solved) == repr(fresh) and "_basis" not in repr(solved)
    assert pickle.loads(pickle.dumps(solved))._basis == []


def test_condition_report_iterates_its_conditions():
    report = verify_lcr_conditions(derive_lcr(2, 3), 2)
    assert list(report) == list(report.conditions) and len(report.conditions) == 6
    assert report.all_ok
    assert list(verify_lcr_conditions(LcrParams(0, 0, 2), 2)) == []


@pytest.mark.parametrize("ok, violations, truthy", [
    (True, (), True),
    (False, (), False),
    (False, ("objective mismatch",), False),
])
def test_certificate_check_truthy_only_when_ok(ok, violations, truthy):
    assert bool(CertificateCheck(ok, violations)) is truthy


def test_dual_certificate_as_dict_keeps_field_order():
    doc = construct_dual(derive_lcr(F(2), 2), F(2)).as_dict()
    assert list(doc) == ["x", "a", "b", "D", "y", "w", "s", "eps"]
    assert doc["a"] == [F(1, 5), F(3, 5)] and doc["eps"] == F(1, 5)
    assert all(type(doc[k]) is list for k in "abD")


def test_lcr_params_repr_keeps_skew_exponent():
    assert repr(derive_lcr(2, 3)) == LCR_111
    assert str(derive_lcr(2, 3)) == LCR_111


@pytest.mark.parametrize("field, value", [
    ("L", True), ("C", False), ("R", 1.5), ("L", 1.0), ("C", "1"), ("R", None),
])
def test_lcr_params_refuses_a_non_int_section(field, value):
    sections = {"L": 1, "C": 1, "R": 1, field: value}
    with pytest.raises(ParameterError, match=f"section length {field} must be an int"):
        LcrParams(**sections)


def test_records_set_their_slots_only_through_the_record_base():
    # a hand-written frozen record would write its fields with
    # object.__setattr__; only the base in _record.py may
    package = Path(spanorm.__file__).parent
    writers = sorted(path.name for path in package.glob("*.py")
                     if "object.__setattr__" in path.read_text(encoding="utf-8"))
    assert writers == ["_record.py"]
