import json
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choosekit.model import (
    ColorSystem,
    Coloring,
    ListInstance,
    RegimePoint,
    colors_of,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    dump_instance,
    mask_of,
    to_color_system,
    validate,
)

from colorings import validate_coloring


@st.composite
def complete_instances(draw):
    universe = draw(st.integers(2, 6))
    ka = draw(st.integers(1, min(3, universe)))
    kb = draw(st.integers(1, min(3, universe)))
    lists = lambda k: st.lists(
        st.sets(st.integers(0, universe - 1), min_size=k, max_size=k).map(
            lambda s: tuple(sorted(s))
        ),
        min_size=1,
        max_size=3,
    )
    return ListInstance.complete(universe, ka, kb, draw(lists(ka)), draw(lists(kb)))


def test_validate_minimal_ok():
    inst = ListInstance.complete(2, 2, 1, [(0, 1)], [(0,)])
    assert validate(inst) == []


def test_validate_repeated_color():
    inst = ListInstance.complete(2, 2, 1, [(0, 0)], [(0,)])
    problems = validate(inst)
    assert any("repeated color" in p for p in problems)


def test_validate_out_of_universe():
    inst = ListInstance.complete(2, 2, 1, [(0, 1)], [(5,)])
    problems = validate(inst)
    assert any("out of universe" in p for p in problems)


def test_validate_explicit_adjacency():
    inst = ListInstance.explicit(3, 1, 1, [(0,), (1,)], [(2,)], [(0, 0), (1, 0)])
    assert validate(inst) == []
    bad = ListInstance.explicit(3, 1, 1, [(0,)], [(2,)], [(0, 5)])
    assert any("out of range" in p for p in validate(bad))


def test_explicit_rejects_a_fractional_index():
    # int() once truncated this edge to (0, 0)
    with pytest.raises(ValueError, match=r"edge index must be an integer, got 0\.9"):
        ListInstance.explicit(1, 1, 1, [(0,)], [(0,)], [(0, 0.9)])


def test_regime_point_invariants():
    with pytest.raises(ValueError):
        RegimePoint(0, 1, 1, 1)
    p = RegimePoint(2, 4, 2, 2)
    assert (p.delta_a, p.delta_b, p.ka, p.kb) == (2, 4, 2, 2)


def test_instance_point_matches_part_sizes():
    inst = ListInstance.complete(4, 2, 2, [(0, 1)] * 3, [(2, 3)] * 5)
    p = inst.point()
    assert p.delta_b == 3 and p.delta_a == 5  # |A| = delta_b, |B| = delta_a


@given(complete_instances())
@settings(max_examples=150)
def test_serialization_round_trip(inst):
    assert instance_from_dict(instance_to_dict(inst)) == inst
    assert instance_from_dict(json.loads(json.dumps(instance_to_dict(inst)))) == inst


def test_file_round_trip(tmp_path):
    inst = ListInstance.complete(4, 2, 2, [(0, 1), (2, 3)], [(0, 2), (1, 3)])
    path = tmp_path / "inst.json"
    dump_instance(inst, path)
    assert load_instance(path) == inst


_GOOD = {"universe": 2, "kA": 1, "kB": 1, "adjacency": "complete", "aLists": [[0]], "bLists": [[1]]}


@pytest.mark.parametrize(
    "d, says",
    [
        ([1, 2], "need a JSON object with keys universe, kA, kB, adjacency, aLists and bLists"),
        ({**_GOOD, "kA": "1"}, "universe, kA and kB must be integers"),
        ({**_GOOD, "universe": True}, "universe, kA and kB must be integers"),
        ({**_GOOD, "bLists": [[1.0]]}, "aLists and bLists must be lists of integer lists"),
        ({**_GOOD, "adjacency": [[0.7, 0]]}, "integer pairs"),
        ({**_GOOD, "adjacency": None}, "integer pairs"),
    ],
    ids=["list", "string-ka", "bool-universe", "float-color", "float-edge", "null-adjacency"],
)
def test_instance_from_dict_rejects_wrong_shapes(d, says):
    with pytest.raises(ValueError, match=says):
        instance_from_dict(d)


def test_explicit_adjacency_round_trip():
    inst = ListInstance.explicit(3, 1, 1, [(0,), (1,)], [(2,)], [(0, 0), (1, 0)])
    assert instance_from_dict(instance_to_dict(inst)) == inst


def test_to_color_system_direct_image():
    inst = ListInstance.complete(2, 2, 1, [(0, 1)], [(0,), (1,)])
    system = to_color_system(inst)
    assert system.edges == ((0, 1),)
    assert system.family == ((0,), (1,))


def test_to_color_system_block_instance_counts():
    from choosekit.constructions import BlockSpec, construct_blocks

    inst = construct_blocks(BlockSpec(2, (2,)))
    system = to_color_system(inst)
    assert len(system.edges) == 4  # sum a_i^ka
    assert len(system.family) == 2  # ka^r
    assert all(len(f) == 2 for f in system.family)


def test_to_color_system_dedups():
    inst = ListInstance.complete(2, 2, 1, [(0, 1), (0, 1)], [(0,)])
    assert to_color_system(inst).edges == ((0, 1),)


def test_to_color_system_rejects_explicit():
    inst = ListInstance.explicit(2, 1, 1, [(0,)], [(1,)], [(0, 0)])
    with pytest.raises(ValueError):
        to_color_system(inst)


@given(complete_instances())
@settings(max_examples=150)
def test_system_counts_bounded(inst):
    system = to_color_system(inst)
    assert len(system.edges) <= comb(inst.universe, inst.ka)
    assert len(system.family) <= comb(inst.universe, inst.kb)


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.frozensets(st.integers(0, n - 1), min_size=2, max_size=2),
                min_size=1,
                max_size=4,
            ),
            st.sets(
                st.frozensets(st.integers(0, n - 1), min_size=2, max_size=2),
                min_size=1,
                max_size=4,
            ),
        )
    )
)
@settings(max_examples=150)
def test_every_small_system_has_a_preimage(args):
    n, edges, family = args
    pairs = lambda sets: tuple(sorted(tuple(sorted(x)) for x in sets))
    system = ColorSystem(n, pairs(edges), pairs(family))
    inst = ListInstance.complete(n, 2, 2, system.edges, system.family)
    assert to_color_system(inst) == system


def test_validate_coloring():
    inst = ListInstance.complete(2, 2, 1, [(0, 1)], [(0,)])
    good = Coloring.make({("A", 0): 1, ("B", 0): 0})
    assert validate_coloring(inst, good) == []
    clash = Coloring.make({("A", 0): 0, ("B", 0): 0})
    assert any("monochromatic" in p for p in validate_coloring(inst, clash))
    outside = Coloring.make({("A", 0): 1})
    problems = validate_coloring(inst, outside)
    assert any("not colored" in p for p in problems)


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert colors_of(0b100101) == (0, 2, 5)
    assert colors_of(mask_of([])) == ()


def test_point_requires_complete_adjacency():
    inst = ListInstance.explicit(2, 1, 1, [(0,)], [(1,)], [(0, 0)])
    with pytest.raises(ValueError):
        inst.point()


@pytest.mark.parametrize("problems, message", [
    (lambda: validate(ListInstance.complete(-1, 1, 1, [], [])), "universe size is negative"),
    (lambda: validate(ListInstance.explicit(2, 1, 1, [(0,)], [(1,)], [(0, 0), (0, 0)])),
     "edge (0,0) repeated"),
    (lambda: validate_coloring(ListInstance.complete(2, 1, 1, [(0,)], [(1,)]),
                               Coloring.make({("A", 0): 1, ("B", 0): 1})),
     "vertex ('A', 0) colored outside its list"),
], ids=["negative-universe", "repeated-edge", "color-outside-list"])
def test_validation_reports(problems, message):
    assert message in problems()


@pytest.mark.parametrize("color", [1.5, True], ids=["float", "bool"])
def test_validate_reports_a_color_that_is_not_an_integer(color):
    # validate once passed these, and both engines then raised TypeError at 1 << c
    inst = ListInstance.complete(4, 2, 2, [[0, color]], [[0, 1]])
    assert validate(inst) == [f"aLists[0] color must be an integer, got {color!r}"]
    assert validate(inst._replace(a_lists=((0, np.int64(1)),))) == []
