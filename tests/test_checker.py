import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choosekit import checker
from choosekit.checker import (
    CHOOSABLE,
    EXHAUSTED,
    UNCHOOSABLE,
    SearchBudgetExceeded,
    decide_choosable,
    has_proper_coloring,
    independent_transversal_exists,
    simulate_reserve_coloring,
)
from choosekit.constructions import BlockSpec, construct_blocks
from choosekit.model import (
    ColorSystem,
    ListInstance,
    RegimePoint,
    mask_of,
    to_color_system,
    validate_coloring,
)


# --- has_proper_coloring ------------------------------------------------------

def test_k12_not_colorable():
    inst = ListInstance.complete(2, 2, 1, [(0, 1)], [(0,), (1,)])
    for engine in ("backtracking", "transversal"):
        found, cert = has_proper_coloring(inst, engine=engine)
        assert not found and cert is None


def test_k11_colorable_with_certificate():
    inst = ListInstance.complete(2, 2, 1, [(0, 1)], [(0,)])
    for engine in ("backtracking", "transversal"):
        found, cert = has_proper_coloring(inst, engine=engine)
        assert found
        assert validate_coloring(inst, cert) == []


def test_block_witness_rejected_by_both_engines():
    inst = construct_blocks(BlockSpec(2, (2,)))
    assert not has_proper_coloring(inst, engine="backtracking")[0]
    assert not has_proper_coloring(inst, engine="transversal")[0]


def test_transversal_engine_rejects_explicit_adjacency():
    inst = ListInstance.explicit(2, 1, 1, [(0,)], [(1,)], [(0, 0)])
    with pytest.raises(ValueError):
        has_proper_coloring(inst, engine="transversal")
    assert has_proper_coloring(inst, engine="backtracking")[0]


def test_backtracking_respects_explicit_edges():
    # A path a0 - b0 - a1 with singleton lists all {0}: only a0b0 and a1b0
    # edges, so no proper coloring; dropping one edge makes it colorable.
    bad = ListInstance.explicit(1, 1, 1, [(0,), (0,)], [(0,)], [(0, 0), (1, 0)])
    assert not has_proper_coloring(bad)[0]
    ok = ListInstance.explicit(2, 1, 1, [(0,), (1,)], [(0,)], [(1, 0)])
    found, cert = has_proper_coloring(ok)
    assert found and validate_coloring(ok, cert) == []


@st.composite
def small_instances(draw):
    universe = draw(st.integers(2, 10))
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


@given(small_instances())
@settings(max_examples=300, deadline=None)
def test_engines_agree(inst):
    bt, cert_bt = has_proper_coloring(inst, engine="backtracking")
    tv, cert_tv = has_proper_coloring(inst, engine="transversal")
    assert bt == tv
    if bt:
        assert validate_coloring(inst, cert_bt) == []
        assert validate_coloring(inst, cert_tv) == []


# --- independent_transversal_exists -------------------------------------------

def test_transversal_forced_containment():
    system = ColorSystem.make(2, [(0, 1)], [(0,), (1,)])
    assert independent_transversal_exists(system) == (False, None)


def test_transversal_edgeless():
    system = ColorSystem.make(3, [], [(0,), (1, 2)])
    ok, chosen = independent_transversal_exists(system)
    assert ok
    assert all(set(f) & set(chosen) for f in system.family)


def test_transversal_k22_parts():
    system = ColorSystem.make(4, [(0, 2), (0, 3), (1, 2), (1, 3)], [(0, 1), (2, 3)])
    assert independent_transversal_exists(system)[0] is False


def _bruteforce_transversal(system):
    n = system.vertex_count
    edge_masks = [mask_of(e) for e in system.edges]
    fam_masks = [mask_of(f) for f in system.family]
    for i_mask in range(1 << n):
        if any(e & i_mask == e for e in edge_masks):
            continue
        if all(f & i_mask for f in fam_masks):
            return True
    return False


def test_transversal_matches_subset_bruteforce():
    rng = random.Random(7)
    for trial in range(200):
        n = rng.randint(2, 12)
        ka = rng.randint(1, min(3, n))
        kb = rng.randint(1, min(3, n))
        edges = {tuple(sorted(rng.sample(range(n), ka))) for _ in range(rng.randint(0, 6))}
        family = {tuple(sorted(rng.sample(range(n), kb))) for _ in range(rng.randint(1, 5))}
        system = ColorSystem.make(n, edges, family)
        got, witness = independent_transversal_exists(system)
        assert got == _bruteforce_transversal(system)
        if got:
            wm = mask_of(witness)
            assert not any(mask_of(e) & wm == mask_of(e) for e in system.edges)
            assert all(mask_of(f) & wm for f in system.family)


def test_transversal_sixteen_colors():
    # perfect matching on 16 colors with the two "parity" family sets
    edges = [(2 * i, 2 * i + 1) for i in range(8)]
    family = [tuple(range(0, 16, 2)), tuple(range(1, 16, 2))]
    system = ColorSystem.make(16, edges, family)
    got, _ = independent_transversal_exists(system)
    assert got == _bruteforce_transversal(system)


# --- decide_choosable ----------------------------------------------------------

def test_decide_frontier_pair():
    v = decide_choosable(RegimePoint(2, 4, 2, 2))
    assert v.tag == UNCHOOSABLE
    assert v.witness is not None
    assert not has_proper_coloring(v.witness)[0]
    assert v.witness.point() == RegimePoint(2, 4, 2, 2)
    assert decide_choosable(RegimePoint(2, 3, 2, 2)).tag == CHOOSABLE


def test_decide_trivial_region():
    v = decide_choosable(RegimePoint(1, 100, 2, 1))
    assert v.tag == CHOOSABLE and v.rule == checker.RULE_TRIVIAL


def test_decide_singleton_lists():
    v = decide_choosable(RegimePoint(3, 5, 1, 3))
    assert v.tag == UNCHOOSABLE
    assert not has_proper_coloring(v.witness)[0]
    assert v.witness.point() == RegimePoint(3, 5, 1, 3)
    assert decide_choosable(RegimePoint(3, 2, 1, 3)).tag == CHOOSABLE


def test_decide_matches_two_choosability_characterization():
    # classical fact: a connected graph is colorable from all 2-lists iff its
    # core is a single vertex, an even cycle, or a theta graph with arm
    # lengths (2, 2, even).  K_{2,2} is the 4-cycle, K_{2,3} the (2,2,2)
    # theta graph; K_{3,3} and K_{2,4} are neither.
    assert decide_choosable(RegimePoint(2, 2, 2, 2)).tag == CHOOSABLE   # K_{2,2}
    assert decide_choosable(RegimePoint(3, 2, 2, 2)).tag == CHOOSABLE   # K_{2,3}
    assert decide_choosable(RegimePoint(2, 3, 2, 2)).tag == CHOOSABLE   # K_{3,2}
    assert decide_choosable(RegimePoint(3, 3, 2, 2)).tag == UNCHOOSABLE  # K_{3,3}
    assert decide_choosable(RegimePoint(4, 2, 2, 2)).tag == UNCHOOSABLE  # K_{2,4}
    assert decide_choosable(RegimePoint(2, 4, 2, 2)).tag == UNCHOOSABLE  # K_{4,2}


def test_decide_pads_family_with_repeats_when_universe_is_small():
    # delta_a = 3 B-lists but only two distinct singletons over the covered
    # colors: the witness repeats one and stays uncolorable
    v = decide_choosable(RegimePoint(3, 1, 2, 1))
    assert v.tag == UNCHOOSABLE
    assert v.witness.num_b() == 3
    assert len(set(v.witness.b_lists)) == 2
    assert not has_proper_coloring(v.witness)[0]


def test_decide_three_uniform_lists():
    # one 3-color list on A against all three singletons on B blocks coloring
    v = decide_choosable(RegimePoint(3, 1, 3, 1))
    assert v.tag == UNCHOOSABLE
    assert v.witness.a_lists == ((0, 1, 2),)
    assert v.witness.b_lists == ((0,), (1,), (2,))
    assert not has_proper_coloring(v.witness)[0]
    assert decide_choosable(RegimePoint(3, 2, 3, 2)).tag == CHOOSABLE
    assert decide_choosable(RegimePoint(8, 2, 3, 2)).tag == CHOOSABLE


def test_decide_deterministic_witness():
    a = decide_choosable(RegimePoint(2, 4, 2, 2))
    b = decide_choosable(RegimePoint(2, 4, 2, 2))
    assert a.witness == b.witness and a.nodes_explored == b.nodes_explored


def test_decide_budget_exhaustion():
    v = decide_choosable(RegimePoint(2, 4, 2, 2), budget=5)
    assert v.tag == EXHAUSTED
    assert v.nodes_explored > 5
    assert v.witness is None


def test_verdict_serialization():
    v = decide_choosable(RegimePoint(2, 4, 2, 2))
    d = v.to_dict()
    assert d["tag"] == UNCHOOSABLE
    assert d["nodesExplored"] == v.nodes_explored
    assert d["witness"]["kA"] == 2
    trivial = decide_choosable(RegimePoint(1, 1, 2, 2)).to_dict()
    assert "witness" not in trivial


def test_backtracking_budget_raises():
    inst = construct_blocks(BlockSpec(2, (2, 2)))
    with pytest.raises(SearchBudgetExceeded):
        has_proper_coloring(inst, engine="backtracking", budget=3)


def test_decide_large_point_finds_witness_early():
    # candidates are generated smallest universe first, so real witnesses
    # surface long before the enumeration space gets wide
    v = decide_choosable(RegimePoint(9, 9, 2, 3), budget=10_000)
    assert v.tag == UNCHOOSABLE
    assert v.nodes_explored < 1000
    assert not has_proper_coloring(v.witness)[0]


def test_decide_deep_exhaustion_is_graceful():
    # a choosable-looking point at this width needs the full 18-color sweep;
    # the budget trips in milliseconds instead of hanging
    v = decide_choosable(RegimePoint(2, 9, 2, 3), budget=10_000)
    assert v.tag == EXHAUSTED
    assert v.witness is None


def _canonical_class(edges, ncolors):
    """Lex-least relabeling of an edge set; brute force over all bijections."""
    best = None
    for perm in itertools.permutations(range(ncolors)):
        relabeled = tuple(sorted(tuple(sorted(perm[c] for c in e)) for e in edges))
        if best is None or relabeled < best:
            best = relabeled
    return best


def test_candidate_enumeration_covers_every_isomorphism_class():
    from choosekit.checker import _Budget, _hypergraph_candidates

    for ka, num_edges, max_colors in ((2, 2, 4), (2, 3, 6), (3, 2, 6)):
        generated = set()
        for edges, nc in _hypergraph_candidates(ka, num_edges, max_colors, _Budget(None)):
            covered = {c for e in edges for c in e}
            assert covered == set(range(nc))  # colors appear in first-use order
            assert len(set(edges)) == num_edges
            generated.add(_canonical_class(edges, nc))
        reference = set()
        for nc in range(1, max_colors + 1):
            for edges in itertools.combinations(itertools.combinations(range(nc), ka), num_edges):
                if {c for e in edges for c in e} != set(range(nc)):
                    continue
                reference.add(_canonical_class(edges, nc))
        assert generated == reference


def _scan_maximal_independent_sets(n, edge_masks):
    """Reference: every subset of the n colors, ascending, kept when it holds
    no edge and adding any further color would complete one."""

    def independent(mask):
        return not any(e & mask == e for e in edge_masks)

    return [
        i_mask
        for i_mask in range(1 << n)
        if independent(i_mask)
        and not any(independent(i_mask | 1 << c) for c in range(n) if not i_mask >> c & 1)
    ]


def test_maximal_independent_sets_match_subset_scan():
    from choosekit.checker import _Budget, _maximal_independent_sets

    rng = random.Random(23)
    for _ in range(400):
        n = rng.randint(1, 12)
        ka = rng.randint(1, min(4, n))
        # edges over a random sub-universe, so some colors lie in no edge
        used = rng.sample(range(n), rng.randint(ka, n))
        edges = {tuple(sorted(rng.sample(used, ka))) for _ in range(rng.randint(0, 8))}
        edge_masks = [mask_of(e) for e in edges]
        budget = _Budget(None)
        got = _maximal_independent_sets(n, edge_masks, budget)
        assert got == _scan_maximal_independent_sets(n, edge_masks), (n, sorted(edges))
        assert budget.nodes == 1 << n


def test_blocking_family_search_matches_bruteforce():
    from choosekit.checker import _Budget, _find_blocking_family

    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(2, 9)
        ka = rng.randint(2, min(3, n))
        kb = rng.randint(1, 2)
        max_sets = rng.randint(1, 3)
        edges = {tuple(sorted(rng.sample(range(n), ka))) for _ in range(rng.randint(1, 5))}
        edge_masks = [mask_of(e) for e in edges]
        got = _find_blocking_family(n, edge_masks, kb, max_sets, _Budget(None))

        mis = _scan_maximal_independent_sets(n, edge_masks)
        all_sets = [mask_of(c) for c in itertools.combinations(range(n), kb)]
        exists = False
        for size in range(1, max_sets + 1):
            for fam in itertools.combinations(all_sets, size):
                if all(any(f & i_mask == 0 for f in fam) for i_mask in mis):
                    exists = True
                    break
            if exists:
                break
        assert (got is not None) == exists
        if got is not None:
            assert len(got) == len(set(got)) <= max_sets
            assert all(any(f & i_mask == 0 for f in got) for i_mask in mis)


# Verdicts, node counts and witnesses (universe, A-lists, B-lists) measured
# with a 2^n subset scan for the maximal independent sets and one search call
# per family set tried; any faster kernel must reproduce them exactly.  The
# budgeted rows run out inside a last-level pass of the family search, or (at
# (2,8,2,3)) on a maximal-set charge.
_PINNED_DECISIONS = [
    ((2, 6, 2, 3), None, CHOOSABLE, 268802, None),
    ((3, 6, 2, 3), None, CHOOSABLE, 597552, None),
    (
        (3, 7, 2, 3),
        None,
        UNCHOOSABLE,
        212509,
        (
            5,
            ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)),
            ((0, 1, 4), (0, 2, 3), (1, 2, 3)),
        ),
    ),
    ((3, 4, 3, 2), None, CHOOSABLE, 300396, None),
    (
        (5, 4, 3, 2),
        None,
        UNCHOOSABLE,
        24497,
        (
            6,
            ((0, 1, 2), (0, 1, 3), (2, 4, 5), (3, 4, 5)),
            ((0, 4), (0, 5), (1, 4), (1, 5), (2, 3)),
        ),
    ),
    ((2, 8, 2, 3), 1_000_000, EXHAUSTED, 1_000_899, None),
    ((3, 6, 2, 3), 29_913, EXHAUSTED, 29_914, None),
    ((2, 5, 2, 3), 26_922, EXHAUSTED, 26_923, None),
]


@pytest.mark.parametrize("point,budget,tag,nodes,witness", _PINNED_DECISIONS)
def test_decide_pinned_verdicts(point, budget, tag, nodes, witness):
    kwargs = {} if budget is None else {"budget": budget}
    v = decide_choosable(RegimePoint(*point), **kwargs)
    assert (v.tag, v.rule, v.nodes_explored) == (tag, checker.RULE_ENUMERATION, nodes)
    if witness is None:
        assert v.witness is None
    else:
        assert (v.witness.universe, v.witness.a_lists, v.witness.b_lists) == witness


def _naive_decide(point, max_colors=5):
    """Unreduced reference: systems with exactly delta_b distinct edges and
    exactly delta_a distinct kb-sets over every universe up to max_colors,
    transversals checked by scanning all color subsets."""
    da, db, ka, kb = point.delta_a, point.delta_b, point.ka, point.kb
    if da < ka or db < kb:
        return CHOOSABLE
    for n in range(1, max_colors + 1):
        all_edges = list(itertools.combinations(range(n), ka))
        all_sets = list(itertools.combinations(range(n), kb))
        if len(all_edges) < db or len(all_sets) < da:
            continue
        for edges in itertools.combinations(all_edges, db):
            emasks = [mask_of(e) for e in edges]
            for family in itertools.combinations(all_sets, da):
                fmasks = [mask_of(f) for f in family]
                blocked = True
                for i_mask in range(1 << n):
                    if any(e & i_mask == e for e in emasks):
                        continue
                    if all(f & i_mask for f in fmasks):
                        blocked = False
                        break
                if blocked:
                    return UNCHOOSABLE
    return CHOOSABLE


@pytest.mark.parametrize("da", [1, 2, 3])
@pytest.mark.parametrize("db", [1, 2])
@pytest.mark.parametrize("kb", [1, 2])
def test_decide_matches_unreduced_enumeration(da, db, kb):
    point = RegimePoint(da, db, 2, kb)
    assert decide_choosable(point).tag == _naive_decide(point)


@pytest.mark.parametrize("da", [1, 2, 3, 4])
def test_decide_matches_unreduced_enumeration_three_uniform(da):
    point = RegimePoint(da, 1, 3, 1)
    assert decide_choosable(point).tag == _naive_decide(point)


def test_decide_matches_analytic_kb1_frontier():
    # with pair lists on A and singletons on B, a blocking assignment exists
    # exactly when two or more B-vertices are available to pin both colors
    # of some A-list
    for da in range(1, 5):
        for db in range(1, 5):
            expected = UNCHOOSABLE if da >= 2 else CHOOSABLE
            assert decide_choosable(RegimePoint(da, db, 2, 1)).tag == expected, (da, db)


# --- simulate_reserve_coloring --------------------------------------------------

def test_simulate_p_zero_all_b_starved():
    inst = ListInstance.complete(4, 2, 2, [(0, 1), (2, 3)], [(0, 2), (1, 3)])
    sim = simulate_reserve_coloring(inst, 0.0, 200, seed=1)
    assert sim.successes == 0 and sim.b_starved == 200 and sim.aborts == 0


def test_simulate_p_one_disjoint_lists():
    inst = ListInstance.complete(3, 2, 1, [(0, 1)], [(2,)])
    sim = simulate_reserve_coloring(inst, 1.0, 100, seed=1)
    assert sim.success_rate == 1.0


def test_simulate_unsatisfiable_instance_never_succeeds():
    inst = construct_blocks(BlockSpec(2, (2,)))
    for p in (0.2, 0.5, 0.9):
        sim = simulate_reserve_coloring(inst, p, 10**4, seed=3)
        assert sim.successes == 0
        assert sim.aborts + sim.b_starved == 10**4


def test_simulate_deterministic_per_seed():
    inst = construct_blocks(BlockSpec(2, (1, 1)))
    a = simulate_reserve_coloring(inst, 0.4, 2000, seed=9)
    b = simulate_reserve_coloring(inst, 0.4, 2000, seed=9)
    c = simulate_reserve_coloring(inst, 0.4, 2000, seed=10)
    assert (a.successes, a.aborts, a.b_starved) == (b.successes, b.aborts, b.b_starved)
    assert (a.successes, a.aborts, a.b_starved) != (c.successes, c.aborts, c.b_starved)


def test_simulate_rejects_bad_probability():
    inst = ListInstance.complete(2, 2, 1, [(0, 1)], [(0,)])
    with pytest.raises(ValueError):
        simulate_reserve_coloring(inst, 1.5, 10, seed=0)


def test_simulate_success_implies_colorable():
    # On a colorable instance with a generous reservation rate, some trials
    # succeed, and success certifies a proper coloring exists.
    inst = ListInstance.complete(4, 2, 2, [(0, 1), (2, 3)], [(0, 2), (1, 3)])
    sim = simulate_reserve_coloring(inst, 0.5, 2000, seed=11)
    assert sim.successes > 0
    assert has_proper_coloring(inst)[0]


def test_simulate_with_formula_probability():
    from choosekit.bounds import reserve_probability

    inst = ListInstance.complete(12, 2, 4, [(0, 1), (2, 3)], [(4, 5, 6, 7), (8, 9, 10, 11)])
    p = reserve_probability(inst.ka, inst.kb, inst.num_b())
    assert 0.0 < p < 1.0
    sim = simulate_reserve_coloring(inst, p, 4000, seed=2)
    # |B| = 2 makes the starvation cap less than 1, so any starved A-vertex
    # aborts; successes still carry the bulk of the mass
    assert 0.0 < sim.threshold < 1.0
    assert sim.success_rate > 0.4
    assert sim.successes + sim.aborts + sim.b_starved == sim.trials
