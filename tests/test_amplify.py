import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choosekit.amplify import (
    BLOWUP,
    EXPANSION,
    amplify_params,
    blowup,
    expand,
)
from choosekit.bounds import xi
from choosekit.checker import CHOOSABLE, UNCHOOSABLE, decide_choosable, has_proper_coloring
from choosekit.constructions import BlockSpec, construct_blocks
from choosekit.model import ListInstance, RegimePoint, to_color_system, validate


def k12_witness():
    return construct_blocks(BlockSpec(2, (1,)))


def test_blowup_of_k12():
    out = blowup(k12_witness(), 2)
    assert out.point() == RegimePoint(4, 2, 2, 2)
    assert out.universe == 4
    assert validate(out) == []
    assert not has_proper_coloring(out)[0]


def test_blowup_identity_at_r1():
    inst = k12_witness()
    assert blowup(inst, 1) == inst
    bigger = construct_blocks(BlockSpec(2, (2, 1)))
    assert blowup(bigger, 1) == bigger


def test_blowup_r3():
    out = blowup(k12_witness(), 3)
    assert out.point() == RegimePoint(8, 3, 2, 3)
    assert out.universe == 6
    assert not has_proper_coloring(out)[0]


def test_expand_of_k12():
    out = expand(k12_witness(), 2)
    assert out.point() == RegimePoint(2, 4, 2, 2)
    assert out.universe == 4
    assert not has_proper_coloring(out)[0]


def test_expand_identity_at_s1():
    inst = k12_witness()
    assert expand(inst, 1) == inst


def test_expand_pair_blocks():
    out = expand(construct_blocks(BlockSpec(2, (2,))), 2)
    assert out.point() == RegimePoint(2, 16, 2, 4)
    assert out.universe == 8
    assert not has_proper_coloring(out)[0]


@pytest.mark.parametrize(
    "spec",
    [BlockSpec(2, (1,)), BlockSpec(2, (2,)), BlockSpec(2, (1, 1)), BlockSpec(3, (1,))],
)
def test_amplification_soundness_small_witnesses(spec):
    # every witness on <= 6 colors stays uncolorable under the three operators
    base = construct_blocks(spec)
    assert base.universe <= 6
    for out in (blowup(base, 2), blowup(base, 3), expand(base, 2)):
        assert not has_proper_coloring(out)[0]


@pytest.mark.parametrize(
    "spec", [BlockSpec(2, (1,)), BlockSpec(2, (2,)), BlockSpec(2, (1, 1))]
)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_part_sizes_match_param_map(spec, r):
    base = construct_blocks(spec)
    point = base.point()
    assert blowup(base, r).point() == amplify_params(point, BLOWUP, r)
    assert expand(base, r).point() == amplify_params(point, EXPANSION, r)


def test_unchoosable_points_stay_unchoosable_under_amplification():
    # Every unchoosable point of criterion 10's grid (ka, kb in {1, 2}, da <=
    # 3, db <= 5), amplified at r = 2 both ways: its witness amplifies to an
    # instance at amplify_params(P), both engines reject that instance, and
    # wherever decide_choosable settles amplify_params(P) it is unchoosable.
    amplified = decided = 0
    for ka in (1, 2):
        for kb in (1, 2):
            for da in range(1, 4):
                for db in range(1, 6):
                    point = RegimePoint(da, db, ka, kb)
                    verdict = decide_choosable(point)
                    if verdict.tag != UNCHOOSABLE:
                        continue
                    for kind, op in ((BLOWUP, blowup), (EXPANSION, expand)):
                        image = amplify_params(point, kind, 2)
                        out = op(verdict.witness, 2)
                        assert out.point() == image, (point, kind)
                        for engine in ("backtracking", "transversal"):
                            assert not has_proper_coloring(out, engine=engine)[0], (point, kind)
                        tag = decide_choosable(image, budget=200_000).tag
                        assert tag != CHOOSABLE, (point, kind, image)
                        amplified += 1
                        decided += tag == UNCHOOSABLE
    # 42 unchoosable points; only the blowup (2,4,2,2) -> (4,8,2,4) runs out
    # of the 200,000 nodes
    assert amplified == 84 and decided >= 83


def test_blowup_flattening_golden():
    # product color (c, i) flattens to c*r + i; copies and tuples in order
    out = blowup(k12_witness(), 2)
    assert out.a_lists == ((0, 2), (1, 3))
    assert out.b_lists == ((0, 1), (0, 3), (1, 2), (2, 3))


def test_expand_flattening_golden():
    out = expand(k12_witness(), 2)
    assert out.a_lists == ((0, 2), (0, 3), (1, 2), (1, 3))
    assert out.b_lists == ((0, 1), (2, 3))


def test_blowup_keeps_lists_distinct_on_maximal_input():
    base = construct_blocks(BlockSpec(2, (2,)))  # maximal: all lists distinct
    out = blowup(base, 2)
    assert len(set(out.a_lists)) == out.num_a()
    assert len(set(out.b_lists)) == out.num_b()
    system = to_color_system(out)
    assert len(system.edges) == out.num_a()
    assert len(system.family) == out.num_b()


def test_blowup_explicit_adjacency():
    # non-complete input: single A-vertex adjacent to one of two B-vertices
    inst = ListInstance.explicit(2, 1, 1, [(0,)], [(0,), (1,)], [(0, 0)])
    out = blowup(inst, 2)
    assert not out.is_complete
    assert out.num_a() == 2 and out.num_b() == 4
    # copy (0, i) is adjacent to tuples whose i-th entry is B-vertex 0
    edges = set(out.adjacency)
    tuples = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for i in range(2):
        for bi, combo in enumerate(tuples):
            assert ((0 * 2 + i, bi) in edges) == (combo[i] == 0)


def test_expand_explicit_adjacency():
    inst = ListInstance.explicit(2, 1, 1, [(0,)], [(0,), (1,)], [(0, 1)])
    out = expand(inst, 3)
    assert not out.is_complete
    assert out.num_a() == 3  # s^ka copies of the single A-vertex
    assert set(out.adjacency) == {(0, 1), (1, 1), (2, 1)}


@given(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.integers(1, 5)
)
@settings(max_examples=200)
def test_param_maps_formulas(da, db, ka, kb, r):
    p = RegimePoint(da, db, ka, kb)
    b = amplify_params(p, BLOWUP, r)
    assert (b.delta_a, b.delta_b, b.ka, b.kb) == (da**r, r * db, ka, r * kb)
    e = amplify_params(p, EXPANSION, r)
    assert (e.delta_a, e.delta_b, e.ka, e.kb) == (da, r**ka * db, ka, r * kb)


def test_param_map_examples():
    p = RegimePoint(2, 1, 2, 1)
    assert amplify_params(p, BLOWUP, 2) == RegimePoint(4, 2, 2, 2)
    assert amplify_params(p, EXPANSION, 2) == RegimePoint(2, 4, 2, 2)
    assert amplify_params(p, BLOWUP, 1) == p


def test_xi_invariant_under_blowup():
    for p in (RegimePoint(2, 1, 2, 1), RegimePoint(4, 8, 2, 4), RegimePoint(3, 7, 3, 2)):
        base = xi(p)
        for r in range(1, 11):
            assert abs(xi(amplify_params(p, BLOWUP, r)) - base) < 1e-12


def _chain_step(point: RegimePoint, r: int) -> RegimePoint:
    # An r-fold blowup of each part in turn reaches (r*da^r, r^r*db^r) for
    # r in {2, 3}; both degrees are padded up to (6*d)^r / 6, which dominates
    # those and makes the steps compose exactly: g_r . g_r' = g_(r*r').
    da = (6 * point.delta_a) ** r // 6
    db = (6 * point.delta_b) ** r // 6
    return RegimePoint(da, db, r * point.ka, r * point.kb)


def amplify_23_params(point: RegimePoint, a: int, b: int) -> RegimePoint:
    """Chained doubling/tripling: with r = 2^a * 3^b, maps the point to
    ((6*da)^r / 6, (6*db)^r / 6, r*ka, r*kb).

    Implemented by composing the r=2 and r=3 steps, which is exact: the map
    x -> (6x)^r / 6 satisfies g_r . g_r' = g_(r*r')."""
    out = point
    for _ in range(a):
        out = _chain_step(out, 2)
    for _ in range(b):
        out = _chain_step(out, 3)
    return out


def test_chain_step_example():
    p = RegimePoint(2, 1, 2, 1)
    out = amplify_23_params(p, 1, 0)
    assert out == RegimePoint(24, 6, 4, 2)
    assert amplify_23_params(p, 0, 0) == p


def test_chain_composes():
    p = RegimePoint(3, 5, 2, 2)
    assert amplify_23_params(p, 1, 1) == amplify_23_params(amplify_23_params(p, 1, 0), 0, 1)
    assert amplify_23_params(p, 2, 0) == amplify_23_params(amplify_23_params(p, 1, 0), 1, 0)


def test_chain_matches_closed_form():
    p = RegimePoint(3, 5, 2, 2)
    for a, b in ((1, 0), (0, 1), (1, 1), (2, 1)):
        r = 2**a * 3**b
        out = amplify_23_params(p, a, b)
        assert out.delta_a == (6 * p.delta_a) ** r // 6
        assert out.delta_b == (6 * p.delta_b) ** r // 6
        assert out.ka == r * p.ka and out.kb == r * p.kb


def test_chain_huge_values_exact():
    # growth is doubly exponential; arbitrary-precision integers keep it exact
    p = RegimePoint(2, 2, 2, 2)
    out = amplify_23_params(p, 3, 2)
    r = 2**3 * 3**2
    assert out.delta_a == 12**r // 6
    assert out.ka == r * 2
    assert math.log2(out.delta_a) > 60  # past any fixed-width range


@pytest.mark.parametrize("call, message", [
    (lambda: blowup(k12_witness(), 0), "r must be a positive integer, got 0"),
    (lambda: expand(k12_witness(), 0), "s must be a positive integer, got 0"),
    (lambda: amplify_params(RegimePoint(2, 2, 2, 2), BLOWUP, 0), "r must be a positive integer, got 0"),
    (lambda: amplify_params(RegimePoint(2, 2, 2, 2), "twist", 2), "unknown amplification kind"),
], ids=["blowup", "expand", "params-r", "params-kind"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
