import pytest

from choosekit.bounds import xi
from choosekit.checker import has_proper_coloring
from choosekit.constructions import BlockSpec, construct_blocks, construct_simple
from choosekit import model
from choosekit.model import MAX_LIST_ENTRIES, instance_to_dict, to_color_system, validate


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def test_block_spec_invariants():
    with pytest.raises(ValueError):
        BlockSpec(0, (1,))
    with pytest.raises(ValueError):
        BlockSpec(2, ())
    with pytest.raises(ValueError):
        BlockSpec(2, (1, 0))


def test_pair_block_instance():
    inst = construct_blocks(BlockSpec(2, (2,)))
    assert inst.universe == 4
    assert inst.num_a() == 4 and inst.num_b() == 2
    assert inst.kb == 2
    assert validate(inst) == []
    assert not has_proper_coloring(inst)[0]


def test_singleton_block_instance_is_k12():
    inst = construct_blocks(BlockSpec(2, (1,)))
    assert inst.universe == 2
    assert inst.a_lists == ((0, 1),)
    assert inst.b_lists == ((0,), (1,))
    assert not has_proper_coloring(inst)[0]


def test_three_uniform_two_groups():
    inst = construct_blocks(BlockSpec(3, (1, 1)))
    assert inst.num_b() == 9 and inst.num_a() == 2  # delta_a = 9, delta_b = 2
    assert inst.kb == 2 and inst.universe == 6
    assert not has_proper_coloring(inst)[0]


@pytest.mark.parametrize("ka", [2, 3])
@pytest.mark.parametrize("total", [1, 2, 3])
def test_parameter_accounting(ka, total):
    for a in _compositions(total):
        spec = BlockSpec(ka, a)
        inst = construct_blocks(spec)
        assert inst.num_a() == sum(x**ka for x in a) == spec.delta_b
        assert inst.num_b() == ka ** len(a) == spec.delta_a
        assert inst.universe == ka * sum(a)
        assert all(len(l) == sum(a) for l in inst.b_lists)
        assert all(len(l) == ka for l in inst.a_lists)
        assert validate(inst) == []


@pytest.mark.parametrize("ka", [2, 3])
def test_small_blocks_unsatisfiable(ka):
    # every spec fitting in 8 colors
    for total in range(1, 8 // ka + 1):
        for a in _compositions(total):
            inst = construct_blocks(BlockSpec(ka, a))
            assert not has_proper_coloring(inst)[0], (ka, a)


def test_pair_blocks_image_is_disjoint_complete_bipartite():
    inst = construct_blocks(BlockSpec(2, (2, 2)))
    system = to_color_system(inst)
    # two groups of 4 colors; edges = complete bipartite between the halves
    expected_edges = set()
    for base in (0, 4):
        for x in (base, base + 1):
            for y in (base + 2, base + 3):
                expected_edges.add((x, y))
    assert set(system.edges) == expected_edges
    expected_family = {
        (0, 1, 4, 5),
        (0, 1, 6, 7),
        (2, 3, 4, 5),
        (2, 3, 6, 7),
    }
    assert set(system.family) == expected_family


def test_construct_simple_matches_blocks():
    assert construct_simple(2, 2, 1) == construct_blocks(BlockSpec(2, (2,)))
    inst = construct_simple(2, 1, 2)
    assert inst.num_b() == 4 and inst.num_a() == 2 and inst.kb == 2
    assert not has_proper_coloring(inst)[0]


def test_uniform_2x2_hits_log2():
    inst = construct_simple(2, 2, 2)
    point = inst.point()
    assert (point.delta_a, point.delta_b, point.kb) == (4, 8, 4)
    import math

    assert abs(xi(point) - math.log(2)) < 1e-12


def test_byte_stable_layout():
    a = instance_to_dict(construct_blocks(BlockSpec(2, (2,))))
    b = instance_to_dict(construct_blocks(BlockSpec(2, (2,))))
    assert a == b
    assert a == {
        "universe": 4,
        "kA": 2,
        "kB": 2,
        "adjacency": "complete",
        "aLists": [[0, 2], [0, 3], [1, 2], [1, 3]],
        "bLists": [[0, 1], [2, 3]],
    }


@pytest.mark.parametrize("a, r", [(0, 1), (1, 0)])
def test_construct_simple_input_checks(a, r):
    with pytest.raises(ValueError, match="(a|r) must be a positive integer, got 0"):
        construct_simple(2, a, r)


@pytest.mark.parametrize("call", [
    lambda: construct_simple(2, 1, 40),  # 2^40 B-lists
    lambda: construct_simple(2, 1, 10**9),  # refused before a tuple of 10^9 sizes
    lambda: construct_blocks(BlockSpec(1000, (1, 1, 1))),  # 10^9 B-lists
    lambda: construct_blocks(BlockSpec(2, (3000,))),  # 9 * 10^6 A-lists
], ids=["simple-r40", "simple-r1e9", "blocks-ka1000", "blocks-a3000"])
def test_outputs_past_the_list_entry_cap_are_refused(call):
    with pytest.raises(ValueError, match=f"more than {MAX_LIST_ENTRIES} list entries"):
        call()


@pytest.mark.parametrize("build", [
    lambda: construct_blocks(BlockSpec(2, (1, 2, 3))),
    lambda: construct_blocks(BlockSpec(3, (2, 1))),
    lambda: construct_simple(2, 2, 3),
    lambda: construct_simple(3, 1, 2),
], ids=["blocks-2-123", "blocks-3-21", "simple-2-2-3", "simple-3-1-2"])
def test_list_entry_cap_counts_the_output_exactly(monkeypatch, build):
    out = build()
    entries = sum(map(len, out.a_lists + out.b_lists))
    monkeypatch.setattr(model, "MAX_LIST_ENTRIES", entries)
    assert build() == out
    monkeypatch.setattr(model, "MAX_LIST_ENTRIES", entries - 1)
    with pytest.raises(ValueError, match=f"more than {entries - 1} list entries"):
        build()
