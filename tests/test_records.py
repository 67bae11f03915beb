"""The library's result records: repr, equality, hashing and immutability.

Each repr below was recorded when the records were frozen dataclasses; the
records must keep them, compare and hash by value, and refuse assignment.
"""

import pickle

import pytest

from spanorm.decomposition import class_contributions, classify, peel_low_degree
from spanorm.extremal import named_girth_graph
from spanorm.graph_core import GraphError, LayerProfile, layer_profile, lp_norm
from spanorm.greedy import greedy_spanner
from spanorm.oracle import ball_growth_check, optimal_spanner

from helpers import petersen_graph

PETERSEN_SPANNER = (
    "Spanner(base=Graph(n=10, m=15, unit), kept_edges=((0, 1), (0, 4), (0, 5), (1, 2), "
    "(1, 6), (2, 3), (2, 7), (3, 4), (3, 8), (4, 9), (5, 7), (5, 8), (6, 8), (6, 9), "
    "(7, 9)), t=3)"
)


def _ball_growth():
    h = greedy_spanner(petersen_graph(), 3)
    return ball_growth_check(h, lp_norm(h.graph(), 2), 2)


# name -> (a fresh instance on each call, its repr, whether it hashes); the
# two decomposition records hold dicts, so hashing them raises TypeError.
# class_contributions needs girth >= 7 at k = 3, which Petersen lacks.
RECORDS = {
    "LayerProfile": (lambda: layer_profile(petersen_graph(), 0, 2),
                     "LayerProfile(source=0, counts=(1, 3, 6))", True),
    "Spanner": (lambda: greedy_spanner(petersen_graph(), 3), PETERSEN_SPANNER, True),
    "OracleResult": (
        lambda: optimal_spanner(petersen_graph(), 3, 2),
        f"OracleResult(optimum={PETERSEN_SPANNER}, optimum_norm=9.486832980505138, "
        "explored=17, pruned=15, greedy_norm=9.486832980505138)",
        True),
    "VertexClasses": (
        lambda: classify(petersen_graph(), 3),
        "VertexClasses(k=3, low=frozenset(), med=frozenset({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}), "
        "high={0: frozenset()})",
        False),
    "ClassContributions": (
        lambda: class_contributions(named_girth_graph("mcgee"), 3),
        "ClassContributions(k=3, p=1.5, norms={'low': 0.0, 'med': 0.0, ('high', 0): "
        "24.961005876622846}, bounds={'low': 24.0, 'med': 24.0, ('high', 0): None}, "
        "min_degree=3)",
        False),
    "PeelResult": (
        lambda: peel_low_degree(petersen_graph()),
        "PeelResult(graph=Graph(n=10, m=0, unit), core=frozenset(), "
        "removed=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9))",
        True),
    "BallGrowthReport": (
        _ball_growth,
        "BallGrowthReport(alpha=0.9771212547196624, inductive_violations=(), "
        "optimal_bound_violations=())",
        True),
}


@pytest.mark.parametrize("name", RECORDS)
def test_repr_pinned(name):
    make, text, _ = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    assert repr(record) == text


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_compare_and_hash_alike(name):
    make, _, hashable = RECORDS[name]
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    if hashable:
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
    else:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(first)
    assert pickle.loads(pickle.dumps(first)) == first


@pytest.mark.parametrize("name", RECORDS)
def test_assignment_refused(name):
    make, text, _ = RECORDS[name]
    record = make()
    field = text[len(name) + 1:].split("=", 1)[0]  # the first field the repr names
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
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
