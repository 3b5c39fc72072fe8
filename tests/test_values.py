"""The package's value types are named tuples: immutable, hashable, picklable
records whose repr names each field, and whose checked types (RegimePoint,
STGraph, BlockSpec) check every construction, _replace included."""

import pickle

import pytest

from choosekit import acceptance, bounds, checker, indepset
from choosekit.constructions import BlockSpec
from choosekit.model import Coloring, ColorSystem, ListInstance, RegimePoint

_INSTANCE = ListInstance.complete(2, 2, 1, [(1, 0)], [(0,), (1,)])
_GRAPH = indepset.STGraph.make(2, 2, [(0, 0), (1, 1), (0, 1)])

# (a factory making one value, _replace changes giving a different valid value)
VALUES = {
    "RegimePoint": (lambda: RegimePoint(2, 4, 2, 2), {"ka": 3}),
    "ListInstance": (lambda: ListInstance.complete(2, 2, 1, [(1, 0)], [(0,), (1,)]), {"universe": 3}),
    "ColorSystem": (lambda: ColorSystem(3, ((0, 1),), ((1, 2),)), {"vertex_count": 4}),
    "Coloring": (lambda: Coloring.make({("B", 0): 1, ("A", 0): 0}), {"assignment": ()}),
    "Verdict": (lambda: checker.decide_choosable(RegimePoint(2, 4, 2, 2)), {"witness": None}),
    "ReserveSimulation": (
        lambda: checker.simulate_reserve_coloring(_INSTANCE, 0.5, 20, seed=3), {"seed": 4}
    ),
    "STGraph": (lambda: indepset.STGraph.make(2, 2, [(1, 1), (0, 0)]), {"t_size": 3}),
    "MonteCarloEstimate": (lambda: indepset.p_blocked_monte_carlo(_GRAPH, 50, 1), {"trials": 0}),
    "DeletionResult": (
        lambda: indepset.max_degree_deletion(4, [(0, 1), (1, 2), (2, 3)], 2), {"threshold": 0.5}
    ),
    "BlockSpec": (lambda: BlockSpec(2, [1, 2]), {"ka": 3}),
    "AlphaResult": (lambda: bounds.alpha(3), {"k": 4}),
    "BoundReport": (lambda: bounds.classify(RegimePoint(3, 9, 2, 1)), {"rule": "none"}),
    "XimBounds": (lambda: bounds.xim_bounds(3), {"hi": 1.0}),
    "CriterionResult": (lambda: acceptance.CriterionResult(1, "name", True, "ok"), {"passed": False}),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_type_behaviour(name):
    make, changes = VALUES[name]
    value = make()
    assert type(value).__name__ == name
    # equal values hash alike, and a value is the tuple of its fields
    assert value == make() and hash(value) == hash(make())
    assert value == tuple(getattr(value, field) for field in value._fields)
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and type(copy) is type(value)
    changed = value._replace(**changes)
    assert type(changed) is type(value) and changed != value
    assert changed == value._make(changes.get(f, getattr(value, f)) for f in value._fields)


def test_repr_names_every_field():
    assert repr(RegimePoint(2, 4, 2, 2)) == "RegimePoint(delta_a=2, delta_b=4, ka=2, kb=2)"
    assert repr(checker.Verdict("choosable", None, 7, "enumeration")) == (
        "Verdict(tag='choosable', witness=None, nodes_explored=7, rule='enumeration')"
    )
    assert repr(_INSTANCE) == (
        "ListInstance(universe=2, ka=2, kb=1, a_lists=((0, 1),), b_lists=((0,), (1,)),"
        " adjacency='complete')"
    )


def test_values_unpack_and_sort_as_tuples():
    da, db, ka, kb = RegimePoint(2, 4, 3, 1)
    assert (da, db, ka, kb) == (2, 4, 3, 1) and len(RegimePoint(2, 4, 3, 1)) == 4
    assert sorted([RegimePoint(3, 1, 1, 1), RegimePoint(2, 5, 1, 1)]) == [(2, 5, 1, 1), (3, 1, 1, 1)]


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: RegimePoint(0, 1, 1, 1), "delta_a must be a positive integer, got 0"),
        (lambda: RegimePoint(1, 1, 1, "2"), "kb must be a positive integer, got '2'"),
        (lambda: RegimePoint(1, 1, 1, 1)._replace(ka=0), "ka must be a positive integer, got 0"),
        (
            lambda: indepset.STGraph(-1, 0, ()),
            "negative part size in (-1, 0): s and t must be non-negative integers",
        ),
        (lambda: indepset.STGraph(1, 1, ((0, 1),)), "edge (0, 1) out of range"),
        (lambda: indepset.STGraph(1, 1, ((0, 0), (0, 0))), "parallel edge (0, 0)"),
        (lambda: _GRAPH._replace(t_size=1), "edge (0, 1) out of range"),
        (lambda: BlockSpec(0, (1,)), "ka must be >= 1"),
        (lambda: BlockSpec(1, ()), "a must be a nonempty tuple of positive integers"),
        (lambda: BlockSpec(1, (1, 0)), "a must be a nonempty tuple of positive integers"),
        (lambda: BlockSpec(1, (1,))._replace(a=()), "a must be a nonempty tuple of positive integers"),
    ],
)
def test_checked_types_reject_bad_fields(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_blockspec_keeps_its_sizes_as_a_tuple_of_ints():
    assert BlockSpec(2, [1, 2]).a == (1, 2)
    assert BlockSpec(2, (1,))._replace(a=[3, 1]) == BlockSpec(2, (3, 1))
    assert type(BlockSpec(ka=2, a=[1.0]).a[0]) is int
