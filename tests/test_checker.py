import functools
import hashlib
import itertools
import json
import math
import random
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choosekit import amplify, bounds, checker
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
    colors_of,
    mask_of,
    to_color_system,
)

from colorings import validate_coloring


# --- the kernel's entry points for one point and one candidate -------------

def _decide_as_given(point, budget):
    """The column kernel on a column of one: decide_choosable's kernel on the
    point as given, with no orientation and no witness check, its core padded."""
    side = (point.ka, point.kb, point.delta_b, point.delta_a)
    v = checker._decide_column(*side[:3], [point.delta_a], budget)[point.delta_a]
    return v if v.witness is None else v._replace(witness=checker._pad(v.witness, side, point))


def _find_blocking_family(transversals, kb, max_sets, budget):
    """The blocking-family search _decide_column runs for one candidate and
    one point: the root packing test (no node charged), then _family_search."""
    masks = sorted(transversals, reverse=True)
    if checker._packing_heads(masks, kb, max_sets + 1) > max_sets:
        return None  # this covers max_sets == 0, so every search has a set left
    return checker._family_search(masks, kb, max_sets, budget)


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


_PAIRS = [(2 * i, 2 * i + 1) for i in range(1500)]


# colorable, and deeper than Python's recursion limit: the first in the
# backtracking engine (1,200 colored vertices), the second in both (3,000
# vertices, 1,500 branched colors)
_DEEP = [
    ListInstance.complete(4, 2, 2, [(0, 1)] * 600, [(2, 3)] * 600),
    ListInstance.complete(3000, 2, 2, _PAIRS, _PAIRS),
]


@pytest.mark.parametrize("inst", _DEEP, ids=["600+600", "1500-pairs"])
@pytest.mark.parametrize("engine", ["backtracking", "transversal"])
def test_engines_color_instances_deeper_than_the_recursion_limit(engine, inst):
    found, coloring = has_proper_coloring(inst, engine=engine)
    assert found and validate_coloring(inst, coloring) == []


# --- independent_transversal_exists -------------------------------------------

def test_transversal_forced_containment():
    system = ColorSystem(2, ((0, 1),), ((0,), (1,)))
    assert independent_transversal_exists(system) == (False, None)


def test_transversal_edgeless():
    system = ColorSystem(3, (), ((0,), (1, 2)))
    ok, chosen = independent_transversal_exists(system)
    assert ok
    assert all(set(f) & set(chosen) for f in system.family)


def test_transversal_k22_parts():
    system = ColorSystem(4, ((0, 2), (0, 3), (1, 2), (1, 3)), ((0, 1), (2, 3)))
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
        system = ColorSystem(n, tuple(sorted(edges)), tuple(sorted(family)))
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
    system = ColorSystem(16, tuple(edges), tuple(family))
    got, _ = independent_transversal_exists(system)
    assert got == _bruteforce_transversal(system)


# --- both engines against their reference -------------------------------------
#
# The engines as they were before their dominance cuts (the backtracking cut
# on a color that touches no neighbor, the transversal engine's pure-literal
# rule) and before forced vertices were carried as a bitset, together with
# the reserve simulation's trial loop before its rewrite.  The cuts only drop
# siblings of a subtree that has failed, so both engines must return the same
# result as their reference, witness included, in at most as many nodes.


def _reference_transversal(system, budget=None):
    n = system.vertex_count
    edge_masks = [mask_of(e) for e in system.edges]
    fam_masks = [mask_of(f) for f in system.family]
    if any(m == 0 for m in fam_masks):
        return (False, None)
    b = checker._Budget(budget)
    full = (1 << n) - 1

    def search(inm, outm):
        b.charge()
        while True:
            progressed = False
            for e in edge_masks:
                if e & outm:
                    continue
                und = e & ~inm & ~outm
                if und == 0:
                    return None
                if und & (und - 1) == 0:
                    outm |= und
                    progressed = True
            for f in fam_masks:
                if f & inm:
                    continue
                und = f & ~inm & ~outm
                if und == 0:
                    return None
                if und & (und - 1) == 0:
                    inm |= und
                    progressed = True
            if not progressed:
                break
        undecided = full & ~inm & ~outm
        if undecided == 0:
            return inm
        if all(e & outm for e in edge_masks) and all(f & inm for f in fam_masks):
            return inm
        c = undecided & -undecided
        got = search(inm | c, outm)
        if got is not None:
            return got
        return search(inm, outm | c)

    got = search(0, 0)
    if got is None:
        return (False, None)
    return (True, tuple(c for c in range(n) if got >> c & 1))


def _reference_backtrack(instance, budget=None):
    na, nb = instance.num_a(), instance.num_b()
    nv = na + nb
    cand = [mask_of(l) for l in instance.a_lists] + [mask_of(l) for l in instance.b_lists]
    if instance.is_complete:
        neighbors = [list(range(na, nv)) for _ in range(na)] + [
            list(range(na)) for _ in range(nb)
        ]
    else:
        neighbors = [[] for _ in range(nv)]
        for a, bidx in instance.adjacency:
            neighbors[a].append(na + bidx)
            neighbors[na + bidx].append(a)
    colored = [0] * nv
    b = checker._Budget(budget)

    def search(remaining):
        b.charge()
        if remaining == 0:
            return True
        best_i, best_k = -1, None
        for i in range(nv):
            if not colored[i]:
                k = cand[i].bit_count()
                if best_k is None or k < best_k:
                    best_i, best_k = i, k
                    if k <= 1:
                        break
        if best_k == 0:
            return False
        choices = cand[best_i]
        while choices:
            c = choices & -choices
            choices &= choices - 1
            colored[best_i] = c
            touched = []
            dead = False
            for j in neighbors[best_i]:
                if not colored[j] and cand[j] & c:
                    cand[j] &= ~c
                    touched.append(j)
                    if cand[j] == 0:
                        dead = True
            if not dead and search(remaining - 1):
                return True
            for j in touched:
                cand[j] |= c
            colored[best_i] = 0
        return False

    if search(nv):
        assignment = {}
        for i in range(na):
            assignment[("A", i)] = colored[i].bit_length() - 1
        for j in range(nb):
            assignment[("B", j)] = colored[na + j].bit_length() - 1
        return assignment
    return None


def _reference_simulation(instance, p, trials, seed, eps=0.1):
    ka = instance.ka
    res = bounds.alpha(ka)
    fu = bounds.entropy_f(res.u_star)
    ratio = res.u_star / fu if fu > 0 else math.inf
    threshold = ratio * (1.0 + eps / ka) * math.log(instance.num_b())
    if not math.isfinite(threshold):
        threshold = math.inf
    a_masks = [mask_of(l) for l in instance.a_lists]
    b_masks = [mask_of(l) for l in instance.b_lists]
    rng = random.Random(seed)
    successes = aborts = b_starved = 0
    for _ in range(trials):
        reserved = 0
        for c in range(instance.universe):
            if rng.random() < p:
                reserved |= 1 << c
        starved = [m for m in a_masks if m & ~reserved == 0]
        if 0.0 < threshold <= len(starved):
            aborts += 1
            continue
        for m in starved:
            if m & ~reserved == 0:
                reserved &= ~(m & -m)
        if all(m & reserved for m in b_masks):
            successes += 1
        else:
            b_starved += 1
    return checker.ReserveSimulation(trials, successes, aborts, b_starved, threshold, p, seed)


def _engine_run(engine, *args):
    """(result or EXHAUSTED, nodes) of one engine call, its nodes read off the
    _Budget the call makes."""
    made = []

    class Counted(checker._Budget):
        def __init__(self, limit):
            super().__init__(limit)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checker, "_Budget", Counted)
        try:
            result = engine(*args)
        except SearchBudgetExceeded:
            result = EXHAUSTED
    (budget,) = made
    return result, budget.nodes


def _explicit(inst, edges):
    return ListInstance.explicit(inst.universe, inst.ka, inst.kb, inst.a_lists, inst.b_lists, edges)


@functools.cache
def _engine_instances():
    """Seeded complete instances, on the five shapes of the benchmark's check
    workload and on small universes (ka = 1 included), each with an
    explicit-adjacency copy missing about a fifth of its edges; then block
    constructions, their blowups and expansions, each with an explicit copy
    missing one edge (most of those become colorable)."""
    rng = random.Random(41)
    # (universe, ka, kb, A-vertices, B-vertices)
    shapes = [(12, 2, 2, 20, 10), (12, 2, 3, 20, 25), (12, 2, 4, 20, 50),
              (12, 3, 2, 20, 25), (8, 3, 3, 40, 25)] * 10
    for _ in range(100):
        universe = rng.randint(2, 9)
        ka, kb = rng.randint(1, min(3, universe)), rng.randint(1, min(3, universe))
        shapes.append((universe, ka, kb, rng.randint(1, 7), rng.randint(1, 7)))
    out = []
    for universe, ka, kb, na, nb in shapes:
        inst = ListInstance.complete(
            universe, ka, kb,
            [rng.sample(range(universe), ka) for _ in range(na)],
            [rng.sample(range(universe), kb) for _ in range(nb)],
        )
        pairs = itertools.product(range(na), range(nb))
        out += [inst, _explicit(inst, [e for e in pairs if rng.random() < 0.8])]
    blocks = [
        construct_blocks(BlockSpec(ka, a))
        for ka, a in ((2, (1,)), (2, (2,)), (2, (1, 1)), (2, (1, 2)), (3, (1,)), (3, (2,)), (4, (1,)))
    ]
    # the expansions on 6 colors or more take the reference 21k-765k nodes
    grown = [amplify.blowup(inst, 2) for inst in blocks]
    grown += [amplify.expand(inst, 2) for inst in blocks if inst.universe < 6]
    for inst in blocks + grown:
        edges = list(itertools.product(range(inst.num_a()), range(inst.num_b())))
        del edges[rng.randrange(len(edges))]
        out += [inst, _explicit(inst, edges)]
    return out


def test_engines_match_their_reference():
    rng = random.Random(43)
    for inst in _engine_instances():
        runs = [(checker._backtrack, _reference_backtrack, inst)]
        if inst.is_complete:
            system = to_color_system(inst)
            runs.append((independent_transversal_exists, _reference_transversal, system))
        for engine, reference, arg in runs:
            whole = _engine_run(reference, arg)
            got = _engine_run(engine, arg)
            assert got[0] == whole[0], (engine.__name__, inst)
            assert got[1] <= whole[1], (engine.__name__, inst)
            budget = rng.randint(0, whole[1])
            _assert_no_worse(
                _engine_run(engine, arg, budget),
                _engine_run(reference, arg, budget),
                whole,
                (engine.__name__, inst, budget),
            )


def test_reserve_simulation_matches_its_reference():
    rng = random.Random(47)
    for inst in _engine_instances():
        if inst.is_complete:
            p, seed = rng.random(), rng.randrange(1000)
            got = simulate_reserve_coloring(inst, p, 50, seed)
            assert got == _reference_simulation(inst, p, 50, seed), inst


def test_dominance_cuts_pin_the_node_counts():
    # the cuts take BlockSpec(2, (3, 3)) from 29,695 to 2,366 backtracking
    # nodes and from 89 to 29 transversal nodes
    inst = construct_blocks(BlockSpec(2, (3, 3)))
    assert _engine_run(checker._backtrack, inst) == (None, 2366)
    system = to_color_system(inst)
    assert _engine_run(independent_transversal_exists, system) == ((False, None), 29)


def test_engines_pin_their_runs():
    # each engine's result (verdict and colouring, or EXHAUSTED) and node
    # count on every instance above, at five budgets; a rewrite of either
    # engine keeps this digest
    runs = []
    for inst in _engine_instances() + _DEEP:
        calls = [(checker._backtrack, inst)]
        if inst.is_complete:
            calls.append((independent_transversal_exists, to_color_system(inst)))
        for engine, arg in calls:
            for budget in (None, 0, 1, 5, 50):
                result, nodes = _engine_run(engine, arg, budget)
                if isinstance(result, dict):
                    result = sorted(result.items())
                runs.append((engine.__name__, result, nodes))
    digest = hashlib.sha1(repr(runs).encode()).hexdigest()
    assert digest == "eea65e59e310fd0e2eae9c8ed06b462d8ddbe70e", digest


def test_engines_pin_their_public_colorings():
    # the (found, coloring) has_proper_coloring returns with each engine on
    # every instance above: the transversal engine's coloring is built from
    # its color set here, not in the engine, so the digest above misses it
    runs = []
    for inst in _engine_instances() + _DEEP:
        engines = ["backtracking", "transversal"] if inst.is_complete else ["backtracking"]
        runs += [(e, has_proper_coloring(inst, engine=e)) for e in engines]
    digest = hashlib.sha1(repr(runs).encode()).hexdigest()
    assert digest == "899f4b65b37561c7d8fe0140e87b98901c8c3421", digest


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
    # decide's fast path and classify's first rule are one test
    for point in itertools.starmap(RegimePoint, itertools.product(range(1, 5), repeat=4)):
        trivial = point.delta_a < point.ka or point.delta_b < point.kb
        assert bounds.trivial_degrees(point) == trivial
        assert (bounds.classify(point).rule == checker.RULE_TRIVIAL) == trivial
        if trivial:
            assert decide_choosable(point) == checker.Verdict(CHOOSABLE, None, 0, checker.RULE_TRIVIAL)


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
    # the Fano point is its own mirror, so orientation does not help: the
    # 21-color sweep is cut by the budget in milliseconds instead of hanging
    v = decide_choosable(RegimePoint(7, 7, 3, 3), budget=10_000)
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
    from choosekit.checker import _Budget

    for ka, num_edges, max_colors in ((2, 2, 4), (2, 3, 6), (3, 2, 6)):
        generated = set()
        for edges, nc, transversals in _kept_leaves(ka, 1, num_edges, max_colors, _Budget(None)):
            covered = {c for e in edges for c in e}
            assert covered == set(range(nc))  # colors appear in first-use order
            assert len(set(edges)) == num_edges
            full = (1 << nc) - 1
            assert sorted(full & ~t for t in transversals) == _scan_maximal_independent_sets(
                nc, [mask_of(e) for e in edges]
            )
            generated.add(_canonical_class(edges, nc))
        reference = set()
        for nc in range(1, max_colors + 1):
            for edges in itertools.combinations(itertools.combinations(range(nc), ka), num_edges):
                if {c for e in edges for c in e} != set(range(nc)):
                    continue
                reference.add(_canonical_class(edges, nc))
        assert generated == reference


def test_leaf_rule_drops_exactly_the_candidates_with_a_short_transversal(monkeypatch):
    from choosekit.checker import _Budget, _hypergraph_candidates, _short_union

    skipped = 0
    for ka in (2, 3):
        for num_edges in (1, 2, 3, 4):
            for max_colors in (ka + 1, 2 * ka, ka * num_edges):
                walk = [
                    (prefix, ts, list(rows))
                    for prefix, ts, rows in _hypergraph_candidates(ka, num_edges, max_colors, _Budget(None))
                ]
                for kb in (1, 2, 3, 4):
                    for _, transversals, rows in walk:
                        short = _short_union(transversals, kb)
                        for _, m, _ in rows:
                            leaf = checker._berge_step(transversals, m)
                            assert bool(m & short) == (min(map(int.bit_count, leaf)) < kb)
                            skipped += bool(m & short)
    assert skipped > 0

    # a skipped leaf still charges its node: a column's walk counts every
    # prefix and leaf, skipped or not, as the reference walk does
    searched = []
    search = checker._family_search

    def watched(unmet, kb, left, budget):
        searched.append(budget)
        return search(unmet, kb, left, budget)

    monkeypatch.setattr(checker, "_family_search", watched)
    for ka, kb, db, da in ((2, 3, 4, 3), (2, 2, 3, 2), (3, 3, 3, 4), (2, 3, 6, 2)):
        searched.clear()
        got = checker._decide_column(ka, kb, db, [da], None)[da]
        walk = _candidate_stream(_reference_hypergraph_candidates, ka, 1, db, ka * db)[1][1]
        own = sum(b.nodes for b in {id(b): b for b in searched}.values())
        assert got.tag == CHOOSABLE and got.nodes_explored == walk + own, (ka, kb, db, da)


# The earlier forms of two kernel pieces, kept as oracles: the packing test as
# a list that each head shrinks, and the candidate walk as a recursion that
# enumerates each prefix's edges with itertools.  The current forms must give
# the same answers, the same candidates and the same node counts.


def _reference_packing_heads(masks, kb):
    heads = 0
    while masks:
        masks = [m for m in masks[1:] if (masks[0] & m).bit_count() < kb]
        heads += 1
    return heads


def _reference_hypergraph_candidates(ka, kb, num_edges, max_colors, budget):
    def extend(edges, ncolors, transversals):
        budget.charge()
        if len(edges) == num_edges:
            yield tuple(edges), ncolors, transversals
            return
        last = edges[-1] if edges else None
        short = 0
        if len(edges) == num_edges - 1:
            for t in transversals:
                size = t.bit_count()
                if size < kb - 1:
                    short = -1
                    break
                if size < kb:
                    short |= t
        for fresh in range(ka + 1):
            if ncolors + fresh > max_colors:
                break
            new_cols = tuple(range(ncolors, ncolors + fresh))
            for olds in itertools.combinations(range(ncolors), ka - fresh):
                e = olds + new_cols
                if last is not None and e <= last:
                    continue
                m = mask_of(e)
                if m & short:
                    budget.charge()
                    continue
                yield from extend(
                    edges + [e], ncolors + fresh, checker._berge_step(transversals, m)
                )

    yield from extend([], 0, [0])


@settings(max_examples=300, deadline=None)
@given(
    # masks over six colors, with the low ones drawn often enough to repeat
    masks=st.lists(st.one_of(st.integers(0, 7), st.integers(0, 63)), max_size=16),
    kb=st.integers(1, 4),
    left=st.integers(0, 8),
)
def test_packing_scan_matches_its_reference(masks, kb, left):
    # the count stops at left + 1, so it exceeds left exactly when the packing does
    got = checker._packing_heads(masks, kb, left + 1)
    assert got == min(_reference_packing_heads(masks, kb), left + 1)


def _kept_leaves(ka, kb, num_edges, max_colors, budget):
    """The candidates _decide_column keeps, with their minimal transversals,
    walked as it walks them: each prefix's rows expanded by one Berge step,
    a leaf charging its node, then dropped when its edge meets the prefix's
    U (kb = 1 drops none)."""
    for prefix, transversals, rows in checker._hypergraph_candidates(ka, num_edges, max_colors, budget):
        short = checker._short_union(transversals, kb)
        for e, m, nc in rows:
            budget.charge()
            if not m & short:
                yield prefix + (e,), nc, checker._berge_step(transversals, m)


def _candidate_stream(generate, ka, kb, num_edges, max_colors, limit=None):
    """Every candidate with the node count when it came out, then the count
    at the end: the budget's when the walk finished, the exception's when it
    ran out."""
    budget, got = checker._Budget(limit), []
    try:
        for edges, nc, ts in generate(ka, kb, num_edges, max_colors, budget):
            got.append((edges, nc, ts, budget.nodes))
    except SearchBudgetExceeded as exc:
        return got, ("exhausted", exc.nodes)
    return got, ("done", budget.nodes)


_CANDIDATE_GRID = [
    (ka, kb, num_edges, max_colors)
    for ka in (2, 3)
    for kb in (1, 2, 3, 4)
    for num_edges in (1, 2, 3, 4)
    for max_colors in (ka, ka + 1, 2 * ka, ka * num_edges)
]


def test_candidate_walk_matches_its_reference():
    yielded = 0
    for params in _CANDIDATE_GRID:
        got = _candidate_stream(_kept_leaves, *params)
        assert got == _candidate_stream(_reference_hypergraph_candidates, *params), params
        yielded += len(got[0])
    assert yielded > 1000


def test_candidate_walk_runs_out_where_its_reference_does():
    rng = random.Random(17)
    ran_out = 0
    for params in _CANDIDATE_GRID:
        total = _candidate_stream(_reference_hypergraph_candidates, *params)[1][1]
        for limit in {0, total - 1, *(rng.randint(0, total) for _ in range(4))}:
            got = _candidate_stream(_kept_leaves, *params, limit)
            ref = _candidate_stream(_reference_hypergraph_candidates, *params, limit)
            assert got == ref, (params, limit)
            ran_out += got[1][0] == "exhausted"
    assert ran_out > 100


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


def _minimal_transversals(edge_masks):
    """Berge dualization from scratch, one step per edge."""
    return functools.reduce(checker._berge_step, edge_masks, [0])


def test_maximal_independent_sets_match_subset_scan():
    rng = random.Random(23)
    for _ in range(400):
        n = rng.randint(1, 12)
        ka = rng.randint(1, min(4, n))
        # edges over a random sub-universe, so some colors lie in no edge
        used = rng.sample(range(n), rng.randint(ka, n))
        edges = {tuple(sorted(rng.sample(used, ka))) for _ in range(rng.randint(0, 8))}
        edge_masks = [mask_of(e) for e in edges]
        got = sorted(((1 << n) - 1) & ~t for t in _minimal_transversals(edge_masks))
        assert got == _scan_maximal_independent_sets(n, edge_masks), (n, sorted(edges))


def test_berge_step_tests_only_single_hit_stems_and_stays_exact():
    # a missed t grown by c holds a kept set k only when k meets the new edge
    # in c alone, so the step never tests the kept sets that meet it in two
    # or more colors; the fold must still give every maximal independent set
    rng = random.Random(59)
    dropped = 0  # steps with a kept set meeting the new edge in 2+ colors
    for _ in range(60):
        n = rng.randint(5, 14)
        edge_masks = [mask_of(rng.sample(range(n), rng.randint(2, min(5, n))))
                      for _ in range(rng.randint(1, 9))]
        transversals = [0]
        for e in edge_masks:
            dropped += any((t & e).bit_count() >= 2 for t in transversals)
            transversals = checker._berge_step(transversals, e)
        got = sorted(((1 << n) - 1) & ~t for t in transversals)
        assert got == _scan_maximal_independent_sets(n, edge_masks), (n, edge_masks)
    assert dropped >= 100, dropped


def test_blocking_family_search_matches_bruteforce():
    from choosekit.checker import _Budget

    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(2, 9)
        ka = rng.randint(2, min(3, n))
        kb = rng.randint(1, 2)
        max_sets = rng.randint(1, 3)
        edges = {tuple(sorted(rng.sample(range(n), ka))) for _ in range(rng.randint(1, 5))}
        edge_masks = [mask_of(e) for e in edges]
        got = _find_blocking_family(_minimal_transversals(edge_masks), kb, max_sets, _Budget(None))

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


# Verdicts, node counts and witnesses (universe, A-lists, B-lists) of the
# as-given kernel, one node per generator step and per family-search call.
# The budgeted rows at 100,000, 29,913 and 600 ran out before the family search
# had its packing bound and now decide; the rows one node below each whole
# search pin the budget boundary.
_PINNED_DECISIONS = [
    ((2, 6, 2, 3), None, CHOOSABLE, 1105, None),
    ((3, 6, 2, 3), None, CHOOSABLE, 1861, None),
    (
        (3, 7, 2, 3),
        None,
        UNCHOOSABLE,
        4091,
        (
            5,
            ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)),
            ((0, 1, 4), (0, 2, 3), (1, 2, 3)),
        ),
    ),
    ((3, 4, 3, 2), None, CHOOSABLE, 1097, None),
    (
        (5, 4, 3, 2),
        None,
        UNCHOOSABLE,
        201,
        (
            6,
            ((0, 1, 2), (0, 1, 3), (2, 4, 5), (3, 4, 5)),
            ((0, 4), (0, 5), (1, 4), (1, 5), (2, 3)),
        ),
    ),
    ((2, 8, 2, 3), 100_000, CHOOSABLE, 49_843, None),
    ((3, 6, 2, 3), 29_913, CHOOSABLE, 1861, None),
    ((2, 5, 2, 3), 600, CHOOSABLE, 248, None),
    ((2, 8, 2, 3), 49_842, EXHAUSTED, 49_843, None),
    ((3, 6, 2, 3), 1860, EXHAUSTED, 1861, None),
    ((2, 5, 2, 3), 247, EXHAUSTED, 248, None),
]


# The same points and budgets through decide_choosable, which enumerates the
# B side of every one of them: all budgeted rows decide.
_PINNED_PUBLIC_DECISIONS = [
    ((2, 6, 2, 3), None, CHOOSABLE, 9, None),
    ((3, 6, 2, 3), None, CHOOSABLE, 83, None),
    (
        (3, 7, 2, 3),
        None,
        UNCHOOSABLE,
        18,
        (
            5,
            ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)),
            ((0, 1, 2), (0, 1, 3), (2, 3, 4)),
        ),
    ),
    ((3, 4, 3, 2), None, CHOOSABLE, 16, None),
    (
        (5, 4, 3, 2),
        None,
        UNCHOOSABLE,
        96,
        (
            6,
            ((0, 3, 4), (0, 3, 5), (1, 2, 4), (1, 2, 5)),
            ((0, 1), (0, 2), (1, 3), (2, 3), (4, 5)),
        ),
    ),
    ((2, 8, 2, 3), 100_000, CHOOSABLE, 9, None),
    ((3, 6, 2, 3), 29_913, CHOOSABLE, 83, None),
    ((2, 5, 2, 3), 600, CHOOSABLE, 9, None),
    ((2, 8, 2, 3), 49_842, CHOOSABLE, 9, None),
    ((3, 6, 2, 3), 1860, CHOOSABLE, 83, None),
    ((2, 5, 2, 3), 247, CHOOSABLE, 9, None),
    # the decided point whose family search branches most below its root
    (
        (4, 9, 2, 4),
        None,
        UNCHOOSABLE,
        6171,
        (
            8,
            ((0, 1), (0, 6), (0, 7), (1, 6), (1, 7), (2, 4), (2, 5), (3, 4), (3, 5)),
            ((0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 6, 7), (4, 5, 6, 7)),
        ),
    ),
]


# Witnesses (universe, A-lists, B-lists) from decide_choosable on every way a
# core is padded: with unused kb-subsets, with repeats of the family in the
# order it was found, as given or on the mirror (also when ka = kb and only the
# degrees tell the two sides apart), and the ka = 1 core whose A-lists repeat.
_PINNED_WITNESSES = [
    ((4, 4, 2, 2), (4, ((0, 1), (0, 2), (1, 2), (1, 3)), ((0, 1), (0, 2), (0, 3), (1, 2)))),
    ((5, 3, 2, 2), (3, ((0, 1), (0, 2), (1, 2)), ((0, 1), (0, 2), (0, 2), (1, 2), (1, 2)))),
    ((3, 6, 2, 2), (3, ((0, 1), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2)), ((0, 1), (0, 2), (1, 2)))),
    ((3, 1, 2, 1), (2, ((0, 1),), ((0,), (1,), (1,)))),
    ((3, 5, 1, 3), (3, ((0,), (1,), (2,), (0,), (1,)), ((0, 1, 2),) * 3)),
    ((5, 3, 3, 1), (3, ((0, 1, 2),) * 3, ((0,), (1,), (2,), (0,), (1,)))),
]


@pytest.mark.parametrize("point,witness", _PINNED_WITNESSES, ids=[str(p) for p, _ in _PINNED_WITNESSES])
def test_decide_pinned_witnesses(point, witness):
    w = decide_choosable(RegimePoint(*point)).witness
    assert (w.universe, w.a_lists, w.b_lists) == witness


def _check_pinned(decide, point, budget, tag, nodes, witness):
    v = decide(RegimePoint(*point), checker.DEFAULT_NODE_BUDGET if budget is None else budget)
    assert (v.tag, v.rule, v.nodes_explored) == (tag, checker.RULE_ENUMERATION, nodes)
    if witness is None:
        assert v.witness is None
    else:
        assert (v.witness.universe, v.witness.a_lists, v.witness.b_lists) == witness


def _pinned_ids(rows):
    """Test ids that name a row by its point and budget alone, so they stay
    the same when a count is re-pinned."""
    return ["-".join(map(str, (*point, budget))) for point, budget, *_ in rows]


@pytest.mark.parametrize(
    "point,budget,tag,nodes,witness", _PINNED_DECISIONS, ids=_pinned_ids(_PINNED_DECISIONS)
)
def test_decide_pinned_verdicts(point, budget, tag, nodes, witness):
    _check_pinned(_decide_as_given, point, budget, tag, nodes, witness)


@pytest.mark.parametrize(
    "point,budget,tag,nodes,witness",
    _PINNED_PUBLIC_DECISIONS,
    ids=_pinned_ids(_PINNED_PUBLIC_DECISIONS),
)
def test_decide_pinned_public_verdicts(point, budget, tag, nodes, witness):
    _check_pinned(decide_choosable, point, budget, tag, nodes, witness)


# --- the earlier kernel, kept as an oracle for the current one ----------------
#
# Dualization from scratch at every candidate, a list of maximal independent
# sets filtered per family set, and a last level that walks its candidates in
# itertools.combinations order.  It charges one node per generator step and
# one per family-search call, the walk included.  The current kernel prunes the
# family search with a packing bound, so it must give the same verdict and
# witness (or family) for every point and budget in at most as many nodes; under
# a budget that only the current kernel finishes within, its result must be the
# reference's unbudgeted one.


def _assert_no_worse(got, ref, whole, where):
    """got and ref are (result, nodes) of the current and the reference kernel
    under one budget, whole the reference's unbudgeted run; a result is
    EXHAUSTED when the budget ran out."""
    (result, nodes), (ref_result, ref_nodes) = got, ref
    if ref_result == EXHAUSTED and result != EXHAUSTED:
        ref_result, ref_nodes = whole
    assert result == ref_result, where
    assert nodes <= ref_nodes, where


def _outcome(verdict):
    """A verdict as (result, nodes) for _assert_no_worse."""
    if verdict.tag == EXHAUSTED:
        return EXHAUSTED, verdict.nodes_explored
    return (verdict.tag, verdict.rule, verdict.witness), verdict.nodes_explored


def _reference_candidates(ka, num_edges, max_colors, budget):
    def extend(edges, ncolors):
        budget.charge()
        if len(edges) == num_edges:
            yield tuple(edges), ncolors
            return
        last = edges[-1] if edges else None
        for fresh in range(ka + 1):
            if ncolors + fresh > max_colors:
                break
            new_cols = tuple(range(ncolors, ncolors + fresh))
            for olds in itertools.combinations(range(ncolors), ka - fresh):
                e = tuple(sorted(olds + new_cols))
                if last is not None and e <= last:
                    continue
                yield from extend(edges + [e], ncolors + fresh)

    yield from extend([], 0)


def _reference_maximal_independent_sets(n, edge_masks):
    transversals = [0]
    for e in edge_masks:
        kept = [t for t in transversals if t & e]
        grown = []
        for t in transversals:
            if t & e:
                continue
            rest = e
            while rest:
                c = rest & -rest
                rest ^= c
                g = t | c
                if not any(k & g == k for k in kept if k & c):
                    grown.append(g)
        transversals = kept + grown
    full = (1 << n) - 1
    return sorted(full & ~t for t in transversals)


def _reference_blocking_family(n, edge_masks, kb, max_sets, budget):
    mis = _reference_maximal_independent_sets(n, edge_masks)
    full = (1 << n) - 1
    for i_mask in mis:
        if (full & ~i_mask).bit_count() < kb:
            return None
    bits = [1 << c for c in range(n)]
    outside_subsets = {}

    def search(chosen, unmet):
        budget.charge()
        if not unmet:
            return chosen
        if len(chosen) >= max_sets:
            return None
        head = unmet[0]
        candidates = outside_subsets.get(head)
        if candidates is None:
            candidates = outside_subsets[head] = [
                sum(combo)
                for combo in itertools.combinations([c for c in bits if not c & head], kb)
            ]
        if len(chosen) == max_sets - 1:
            union = 0
            for j in unmet:
                union |= j
            for f in candidates:
                if not f & union:
                    return chosen + [f]
            return None
        for f in candidates:
            got = search(chosen + [f], [j for j in unmet if f & j])
            if got is not None:
                return got
        return None

    return search([], mis)


def _reference_decide(point, budget):
    ka, kb, da, db = point.ka, point.kb, point.delta_a, point.delta_b
    assert da >= ka >= 2 and db >= kb  # the enumeration branch of decide_choosable
    b = checker._Budget(budget)
    try:
        for edges, ncolors in _reference_candidates(ka, db, ka * db, b):
            edge_masks = [mask_of(e) for e in edges]
            max_sets = min(da, comb(ncolors, kb))
            fam = _reference_blocking_family(ncolors, edge_masks, kb, max_sets, b)
            if fam is not None:
                core = (ncolors, edges, tuple(map(colors_of, fam)))
                witness = checker._pad(core, (ka, kb, db, da), point)
                return checker.Verdict(UNCHOOSABLE, witness, b.nodes, checker.RULE_ENUMERATION)
    except SearchBudgetExceeded as exc:
        return checker.Verdict(EXHAUSTED, None, exc.nodes, checker.RULE_ENUMERATION)
    return checker.Verdict(CHOOSABLE, None, b.nodes, checker.RULE_ENUMERATION)


def _mirror(point):
    return RegimePoint(point.delta_b, point.delta_a, point.kb, point.ka)


def _swap_lists(witness):
    """The witness at the mirrored point: the two list families traded."""
    return ListInstance.complete(
        witness.universe, witness.kb, witness.ka, witness.b_lists, witness.a_lists
    )


def _oriented_reference(point, budget):
    """_reference_decide on the side decide_choosable enumerates: the mirror
    when its color bound kb * delta_a is smaller, or equal with fewer lists;
    a witness found there is mirrored back."""
    ka, kb, da, db = point.ka, point.kb, point.delta_a, point.delta_b
    if (kb * da, da) >= (ka * db, db):
        return _reference_decide(point, budget)
    v = _reference_decide(_mirror(point), budget)
    return v if v.witness is None else v._replace(witness=_swap_lists(v.witness))


# the two grids of `frontier --ka 2 --kb 3 --maxA 3 --maxB 8` and
# `frontier --ka 3 --kb 2 --maxA 5 --maxB 4`
_FRONTIER_CELLS = [(da, db, 2, 3) for da in range(1, 4) for db in range(1, 9)] + [
    (da, db, 3, 2) for da in range(1, 6) for db in range(1, 5)
]


def test_decide_matches_reference_kernel_on_frontier_grids():
    assert len(_FRONTIER_CELLS) == 44
    as_given_tags, tags = set(), set()
    for cell in _FRONTIER_CELLS:
        point = RegimePoint(*cell)
        got = decide_choosable(point, budget=5_000_000)
        tags.add(got.tag)
        if got.rule == checker.RULE_ENUMERATION:
            whole = _outcome(_oriented_reference(point, 5_000_000))
            _assert_no_worse(_outcome(got), whole, whole, cell)
            as_given = _decide_as_given(point, 5_000_000)
            as_given_tags.add(as_given.tag)
            whole = _outcome(_reference_decide(point, 5_000_000))
            _assert_no_worse(_outcome(as_given), whole, whole, cell)
            if as_given.nodes_explored > 5_000:
                # the as-given kernel decides every cell at the frontier
                # budget; this one cuts (2,7,2,3) and (2,8,2,3) short
                cut = _decide_as_given(point, 5_000)
                as_given_tags.add(cut.tag)
                ref = _outcome(_reference_decide(point, 5_000))
                _assert_no_worse(_outcome(cut), ref, whole, cell)
    assert as_given_tags == {CHOOSABLE, UNCHOOSABLE, EXHAUSTED}
    assert tags == {CHOOSABLE, UNCHOOSABLE}  # every cell decides on its cheaper side


# --- the column kernel ---------------------------------------------------------
#
# A sweep walks each column (oriented ka, kb, delta_b) once for all its cells.
# Every cell must get exactly the verdict, witness and node count it gets when
# decided alone, under every budget: the cheap budgets below give all three
# outcomes, and cells of one column that run out at different candidates.

_SWEEP_GRIDS = {
    "frontier": _FRONTIER_CELLS,
    "grid-180": [
        (da, db, ka, kb)
        for ka in (2, 3)
        for kb in (2, 3, 4)
        for da in range(2, 7)
        for db in range(2, 8)
    ],
    "ka-1": [(da, db, ka, kb) for ka in (1, 2) for kb in (1, 2, 3) for da in (1, 2, 3) for db in (1, 2, 3)],
}


@pytest.mark.parametrize("grid", sorted(_SWEEP_GRIDS))
def test_a_sweep_decides_each_point_as_alone(grid):
    points = [RegimePoint(*cell) for cell in _SWEEP_GRIDS[grid]]
    sweep = checker.Sweep(points)
    tags = set()
    for budget in (50, 200, 1_000, 5_000):
        walked = checker.Sweep(points)
        walked.walk(budget, map)  # every column up front, as a pooled frontier does
        for point in points:
            got = decide_choosable(point, budget, sweep=sweep).to_dict()
            assert got == decide_choosable(point, budget).to_dict(), (point, budget)
            assert got == decide_choosable(point, budget, sweep=walked).to_dict(), (point, budget)
            tags.add(got["tag"])
    assert tags == ({CHOOSABLE, UNCHOOSABLE} if grid == "ka-1" else {CHOOSABLE, UNCHOOSABLE, EXHAUSTED})


@pytest.mark.parametrize("budget", [0, 1])
@pytest.mark.parametrize("grid", sorted(_SWEEP_GRIDS))
def test_a_sweep_runs_out_before_the_first_candidate(grid, budget):
    # the walk charges the empty prefix, then its first child, so at these
    # budgets every enumerated point runs out before a candidate is drawn
    points = [RegimePoint(*cell) for cell in _SWEEP_GRIDS[grid]]
    sweep = checker.Sweep(points)
    enumerated = 0
    for point in points:
        got = decide_choosable(point, budget, sweep=sweep)
        assert got.to_dict() == decide_choosable(point, budget).to_dict(), point
        if got.rule == checker.RULE_ENUMERATION:
            assert (got.tag, got.nodes_explored) == (EXHAUSTED, budget + 1), point
            enumerated += 1
    assert enumerated


def test_a_sweep_keeps_the_verdicts_of_each_budget_apart():
    points = [RegimePoint(*cell) for cell in _FRONTIER_CELLS]
    alone = {b: [decide_choosable(p, b).to_dict() for p in points] for b in (20, 5_000)}
    assert alone[20] != alone[5_000]  # seven cells run out at 20
    sweep = checker.Sweep(points)
    for budget in (20, 5_000, 20, 5_000):
        assert [decide_choosable(p, budget, sweep=sweep).to_dict() for p in points] == alone[budget]


def test_the_180_point_grid_keeps_its_verdicts_byte_for_byte():
    # one sweep at budget 50,000: 125 choosable, 49 unchoosable, 6 exhausted
    # cells, with every node count and witness as the kernel has found them
    points = [RegimePoint(*cell) for cell in _SWEEP_GRIDS["grid-180"]]
    sweep = checker.Sweep(points)
    verdicts = [decide_choosable(p, 50_000, sweep=sweep) for p in points]
    tags = [v.tag for v in verdicts]
    assert [tags.count(t) for t in (CHOOSABLE, UNCHOOSABLE, EXHAUSTED)] == [125, 49, 6]
    text = json.dumps([v.to_dict() for v in verdicts], sort_keys=True)
    assert hashlib.sha1(text.encode()).hexdigest() == "8eb71ed0219d4fe10ffcd9658dc438c08134dbb0"


# The column (ka, kb, delta_b) = (2, 3, 6), as given: delta_a = 2 is choosable
# in 1105 nodes, delta_a = 3 in 1861, most of them its own family searches,
# and delta_a = 4 unchoosable in 12.  Between the two counts delta_a = 3 runs
# out, inside a search from a candidate's root at some budgets and in the
# walk at others, while delta_a = 2 walks on to its verdict.
@pytest.mark.parametrize(
    "budget,in_search",
    [(1155, True), (1190, False), (1503, True), (1848, True), (1860, False)],
)
def test_a_point_that_runs_out_leaves_the_rest_of_its_column_open(monkeypatch, budget, in_search):
    ran_out = []
    search = checker._family_search

    def watched(unmet, kb, left, budget):
        try:
            return search(unmet, kb, left, budget)
        except SearchBudgetExceeded:
            ran_out.append(unmet)  # raised through every call up to the root
            raise

    monkeypatch.setattr(checker, "_family_search", watched)
    got = checker._decide_column(2, 3, 6, [2, 3, 4], budget)
    assert bool(ran_out) == in_search
    assert got[3] == checker.Verdict(EXHAUSTED, None, budget + 1, checker.RULE_ENUMERATION)
    assert (got[2].tag, got[2].nodes_explored, got[4].tag) == (CHOOSABLE, 1105, UNCHOOSABLE)
    for da in (2, 3, 4):  # the kernel's raw verdicts, an unchoosable one with its core
        assert got[da] == checker._decide_column(2, 3, 6, [da], budget)[da]


def test_the_walk_stops_once_its_last_open_point_runs_out(monkeypatch):
    # delta_a = 3 alone at budget 1155 runs out inside its own search (see
    # above); with no point left open, the walk takes no further Berge step
    events = []
    search, step = checker._family_search, checker._berge_step

    def watched(unmet, kb, left, budget):
        try:
            return search(unmet, kb, left, budget)
        except SearchBudgetExceeded:
            events.append("out")
            raise

    def stepped(transversals, e):
        events.append("step")
        return step(transversals, e)

    monkeypatch.setattr(checker, "_family_search", watched)
    monkeypatch.setattr(checker, "_berge_step", stepped)
    got = checker._decide_column(2, 3, 6, [3], 1155)
    assert got == {3: checker.Verdict(EXHAUSTED, None, 1156, checker.RULE_ENUMERATION)}
    assert "step" in events and "step" not in events[events.index("out"):]


def test_pad_shapes_each_core_into_a_witness_at_its_point():
    # the witness has the cell's list sizes and degrees, and holds the core
    # the kernel found, its A-lists and family on their sides, swapped back
    # on the mirror
    mirrored = set()
    for cell in sorted(set().union(*_SWEEP_GRIDS.values())):
        point = RegimePoint(*cell)
        v = decide_choosable(point, 5_000)
        if v.tag != UNCHOOSABLE:
            continue
        side = checker._side(point)
        _, a_lists, family = checker._decide_column(*side[:3], [side[3]], 5_000)[side[3]].witness
        w = v.witness
        assert w.point() == point, cell
        assert (w.num_b(), w.num_a()) == (point.delta_a, point.delta_b), cell
        mirror = side != (point.ka, point.kb, point.delta_b, point.delta_a)
        mirrored.add(mirror)
        a_side, b_side = (w.b_lists, w.a_lists) if mirror else (w.a_lists, w.b_lists)
        assert set(a_lists) <= set(a_side) and set(family) <= set(b_side), cell
    assert mirrored == {False, True}


def test_a_point_outside_the_sweep_is_decided_as_alone():
    sweep = checker.Sweep([RegimePoint(da, 4, 3, 2) for da in (3, 5)])
    for da in (3, 4, 5, 6):
        point = RegimePoint(da, 4, 3, 2)
        assert decide_choosable(point, 300, sweep=sweep) == decide_choosable(point, 300)


# points whose whole search takes at most about 40 000 nodes, choosable and
# unchoosable, over both list-size pairs of the frontier grids and (3, 3)
_BUDGETED_POINTS = [
    (2, 4, 2, 2), (2, 5, 2, 3), (3, 5, 2, 3), (3, 3, 3, 2),
    (5, 3, 3, 2), (5, 4, 3, 2), (3, 3, 3, 3), (2, 4, 2, 3),
]


@pytest.mark.parametrize("cell", _BUDGETED_POINTS)
def test_decide_matches_reference_kernel_under_random_budgets(cell):
    point = RegimePoint(*cell)
    rng = random.Random(repr(cell))
    for decide, reference in (
        (_decide_as_given, _reference_decide),
        (decide_choosable, _oriented_reference),
    ):
        whole = reference(point, None)
        unbudgeted = decide(point, None)
        _assert_no_worse(_outcome(unbudgeted), _outcome(whole), _outcome(whole), decide.__name__)
        budgets = [rng.randint(0, whole.nodes_explored) for _ in range(15)]
        for budget in budgets:
            got = decide(point, budget)
            ref = _outcome(reference(point, budget))
            _assert_no_worse(_outcome(got), ref, _outcome(whole), (decide.__name__, budget))
            assert got.tag == (EXHAUSTED if budget < unbudgeted.nodes_explored else whole.tag)


def _rejected_at(witness, point):
    return (
        witness.point() == point
        and not has_proper_coloring(witness, engine="backtracking")[0]
        and not has_proper_coloring(witness, engine="transversal")[0]
    )


# 180 points, ka, kb <= 3, delta_a <= 4 and delta_b <= 5: decide_choosable
# settles all of them under the default budget, and both orientations of the
# kernel settle 105 of the 108 nontrivial ones within 200,000 nodes
_MIRROR_GRID = [
    (da, db, ka, kb)
    for ka in (1, 2, 3)
    for kb in (1, 2, 3)
    for da in range(1, 5)
    for db in range(1, 6)
]


def test_decide_agrees_with_its_mirror():
    for cell in _MIRROR_GRID:
        point = RegimePoint(*cell)
        v, m = decide_choosable(point), decide_choosable(_mirror(point))
        assert v.tag == m.tag != EXHAUSTED, cell
        if v.witness is not None:
            assert _rejected_at(v.witness, point), cell
            assert _rejected_at(_swap_lists(v.witness), _mirror(point)), cell
        if point.delta_a < point.ka or point.delta_b < point.kb:
            continue
        # the symmetry itself, on the kernel that ignores it
        a = _decide_as_given(point, 200_000)
        b = _decide_as_given(_mirror(point), 200_000)
        if EXHAUSTED not in (a.tag, b.tag):
            assert a.tag == b.tag == v.tag, cell
        for w, at in ((a.witness, point), (b.witness, _mirror(point))):
            if w is not None:
                assert _rejected_at(w, at) and _rejected_at(_swap_lists(w), _mirror(at)), cell


# unchoosable as given, on the mirror, at ka = 1 and at kb = 1 (whose mirror
# has ka = 1), then choosable and exhausted
_ONE_CHECK_CELLS = [
    ((3, 3, 2, 2), UNCHOOSABLE, False),
    ((2, 4, 2, 2), UNCHOOSABLE, True),
    ((4, 3, 1, 2), UNCHOOSABLE, False),
    ((3, 9, 2, 1), UNCHOOSABLE, True),
    ((2, 8, 2, 3), CHOOSABLE, True),
    ((4, 4, 3, 3), EXHAUSTED, False),
]


@pytest.mark.parametrize("cell,tag,mirrored", _ONE_CHECK_CELLS)
def test_decide_checks_each_witness_once(monkeypatch, cell, tag, mirrored):
    point = RegimePoint(*cell)
    kb_side, ka_side = (point.kb * point.delta_a, point.delta_a), (point.ka * point.delta_b, point.delta_b)
    assert (kb_side < ka_side) == mirrored
    calls = []
    real = checker.has_proper_coloring

    def counting(instance, engine="auto", budget=None):
        calls.append((instance, engine))
        return real(instance, engine=engine, budget=budget)

    monkeypatch.setattr(checker, "has_proper_coloring", counting)
    budget = 100 if tag == EXHAUSTED else checker.DEFAULT_NODE_BUDGET
    _decide_as_given(_mirror(point) if mirrored else point, budget)
    assert calls == []
    v = decide_choosable(point, budget)
    assert v.tag == tag
    assert calls == ([(v.witness, "transversal")] if tag == UNCHOOSABLE else [])


@pytest.mark.parametrize("cell", [c for c, tag, _ in _ONE_CHECK_CELLS if tag == UNCHOOSABLE])
def test_decide_raises_on_a_witness_that_admits_a_coloring(monkeypatch, cell):
    monkeypatch.setattr(checker, "has_proper_coloring", lambda *a, **k: (True, None))
    with pytest.raises(RuntimeError, match="internal error: witness admits a coloring"):
        decide_choosable(RegimePoint(*cell))


# points the A-side enumeration settles only after hundreds of thousands of
# nodes, or not within the default budget; their B sides take under 100 nodes
@pytest.mark.parametrize(
    "cell,tag",
    [
        ((2, 8, 2, 3), CHOOSABLE),
        ((3, 7, 3, 2), CHOOSABLE),
        ((2, 15, 2, 4), CHOOSABLE),
        ((2, 9, 2, 3), UNCHOOSABLE),
        ((3, 8, 3, 2), UNCHOOSABLE),
        ((3, 9, 3, 2), UNCHOOSABLE),
        ((2, 16, 2, 4), UNCHOOSABLE),
    ],
)
def test_decide_settles_hard_points_on_the_cheaper_side(cell, tag):
    point = RegimePoint(*cell)
    v = decide_choosable(point)
    assert v.tag == tag
    assert v.nodes_explored < 100
    assert v.witness is None if tag == CHOOSABLE else _rejected_at(v.witness, point)


# points whose two sides nearly tie, which the default budget still settles
@pytest.mark.parametrize(
    "cell,tag,nodes",
    [((5, 6, 2, 4), CHOOSABLE, 1094), ((5, 9, 2, 4), UNCHOOSABLE, 703)],
    ids=["5-6-2-4", "5-9-2-4"],
)
def test_decide_settles_near_tied_points_at_the_default_budget(cell, tag, nodes):
    point = RegimePoint(*cell)
    v = decide_choosable(point)
    assert (v.tag, v.nodes_explored) == (tag, nodes)
    assert v.witness is None if tag == CHOOSABLE else _rejected_at(v.witness, point)


# points that ran out of the default budget before the family search had its
# packing bound; (5,5,3,3) took 3,677,277 nodes.  In every choosable one the
# count is the generator's alone: each candidate is settled at the root.
@pytest.mark.parametrize(
    "cell,tag,nodes",
    [
        ((6, 6, 2, 4), CHOOSABLE, 1094),
        ((5, 7, 3, 3), CHOOSABLE, 18_335),
        ((5, 5, 3, 3), CHOOSABLE, 18_335),
        ((4, 9, 2, 4), UNCHOOSABLE, 6171),
    ],
    ids=["6-6-2-4", "5-7-3-3", "5-5-3-3", "4-9-2-4"],
)
def test_decide_settles_points_the_packing_bound_unlocks(cell, tag, nodes):
    point = RegimePoint(*cell)
    v = decide_choosable(point)
    assert (v.tag, v.nodes_explored) == (tag, nodes)
    # (4,9,2,4) runs on its mirror, and the witness swapped back is checked here
    assert v.witness is None if tag == CHOOSABLE else _rejected_at(v.witness, point)


# --- metamorphic relations over a small grid ----------------------------------
#
# Removing colors from lists, or adding vertices, never makes an uncolorable
# assignment colorable: a point unchoosable at delta_a or delta_b is so one
# higher, and a point unchoosable with B-lists of size kb + 1 is so at kb.

_METAMORPHIC_BUDGET = 200_000


@functools.lru_cache(maxsize=None)
def _tag_at(cell):
    return decide_choosable(RegimePoint(*cell), budget=_METAMORPHIC_BUDGET).tag


def _harder_neighbors(da, db, ka, kb):
    """Points of the grid ka, kb in {2, 3}, delta_a <= 5, delta_b <= 6 that
    are unchoosable whenever (da, db, ka, kb) is."""
    if da < 5:
        yield (da + 1, db, ka, kb)
    if db < 6:
        yield (da, db + 1, ka, kb)
    if kb == 3:
        yield (da, db, ka, 2)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5), st.integers(1, 6), st.sampled_from([2, 3]), st.sampled_from([2, 3])
)
def test_decide_is_monotone_and_agrees_with_classify(da, db, ka, kb):
    cell = (da, db, ka, kb)
    tag = _tag_at(cell)
    if tag == EXHAUSTED:
        return
    report = bounds.classify(RegimePoint(*cell))
    if report.verdict in (CHOOSABLE, UNCHOOSABLE):
        assert report.verdict == tag, (cell, report.rule)
    if tag == UNCHOOSABLE:
        for harder in _harder_neighbors(*cell):
            assert _tag_at(harder) != CHOOSABLE, (cell, harder)


def _charged_run(search, budget):
    """(result or EXHAUSTED, nodes charged) of search(budget)."""
    b = checker._Budget(budget)
    try:
        return search(b), b.nodes
    except SearchBudgetExceeded as exc:
        return EXHAUSTED, exc.nodes


@functools.cache
def _random_blocking_cases():
    """400 random hypergraphs, where the last set often has spare room in the
    intersection of the unmet transversals, each with the reference's
    unbudgeted run and a random budget below its node count."""
    rng = random.Random(59)
    cases = []
    for _ in range(400):
        n = rng.randint(2, 9)
        ka = rng.randint(2, min(3, n))
        kb = rng.randint(1, 3)
        max_sets = rng.randint(1, 4)
        edges = {tuple(sorted(rng.sample(range(n), ka))) for _ in range(rng.randint(1, 6))}
        edge_masks = [mask_of(e) for e in sorted(edges)]
        whole = _charged_run(
            lambda b: _reference_blocking_family(n, edge_masks, kb, max_sets, b), None
        )
        cases.append((n, edge_masks, kb, max_sets, whole, rng.randint(0, whole[1])))
    return cases


def test_blocking_family_search_matches_reference_kernel():
    nodes = found = exhausted = 0
    for n, edge_masks, kb, max_sets, whole, random_budget in _random_blocking_cases():
        transversals = _minimal_transversals(edge_masks)
        search = functools.partial(_find_blocking_family, transversals, kb, max_sets)
        if min(t.bit_count() for t in transversals) < kb:
            # outside the search's precondition, which decide always meets: no
            # family, at a cost the reference's shortcut does not pay
            assert whole[0] is None and _charged_run(search, None)[0] is None
            continue
        for budget in (None, random_budget):
            got = _charged_run(search, budget)
            ref = _charged_run(
                lambda b: _reference_blocking_family(n, edge_masks, kb, max_sets, b), budget
            )
            _assert_no_worse(got, ref, whole, (n, edge_masks, kb, max_sets, budget))
            nodes += got[1]
            exhausted += got[0] == EXHAUSTED
            found += got[0] not in (None, EXHAUSTED)
    # pinned totals: a search that prunes or orders its branches differently
    # moves at least one of them, even where it stays within the reference
    assert (nodes, found, exhausted) == (663, 121, 78)


def test_packing_bound_prunes_only_unblockable_roots():
    # a search that returns None without charging a node and without a
    # transversal shorter than kb was pruned by the bound at its root
    pruned = 0
    for n, edge_masks, kb, max_sets, whole, _ in _random_blocking_cases():
        transversals = _minimal_transversals(edge_masks)
        got = _charged_run(
            lambda b: _find_blocking_family(transversals, kb, max_sets, b), None
        )
        if got == (None, 0) and min(t.bit_count() for t in transversals) >= kb:
            pruned += 1
            assert whole[0] is None, (n, edge_masks, kb, max_sets)
    assert pruned > 0


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


def _sparse_instance(universe):
    """Four lists using five colors of a large universe, the last among them."""
    top = universe - 1
    return ListInstance.complete(universe, 2, 2, [(0, top), (1, 2)], [(0, 1), (2, top)])


def test_simulate_memory_does_not_grow_with_unused_colors():
    # a big-integer bit for every color of the universe would take about 150 MB here
    inst = _sparse_instance(50_000)
    tracemalloc.start()
    try:
        simulate_reserve_coloring(inst, 0.5, 2, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    # unused colors still take their draws, so every outcome is the reference's
    sparse = _sparse_instance(3_000)
    for seed in range(5):
        assert simulate_reserve_coloring(sparse, 0.5, 20, seed) == _reference_simulation(sparse, 0.5, 20, seed)


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
    from choosekit.bounds import alpha, entropy_f

    inst = ListInstance.complete(12, 2, 4, [(0, 1), (2, 3)], [(4, 5, 6, 7), (8, 9, 10, 11)])
    # the reservation probability (1 + eps/ka) ln(delta_a) / (f(u*) kb) at
    # eps = 0.1 and delta_a = |B|, the formula test_bounds.py pins
    ka, kb = inst.ka, inst.kb
    p = (1 + 0.1 / ka) * math.log(inst.num_b()) / (entropy_f(alpha(ka).u_star) * kb)
    assert 0.0 < p < 1.0
    sim = simulate_reserve_coloring(inst, p, 4000, seed=2)
    # |B| = 2 makes the starvation cap less than 1, so any starved A-vertex
    # aborts; successes still carry the bulk of the mass
    assert 0.0 < sim.threshold < 1.0
    assert sim.success_rate > 0.4
    assert sim.successes + sim.aborts + sim.b_starved == sim.trials


_K12 = construct_blocks(BlockSpec(2, (1,)))


@pytest.mark.parametrize("call, message", [
    (lambda: has_proper_coloring(_K12, engine="x"), "unknown engine 'x'"),
    (lambda: simulate_reserve_coloring(_K12, 0.5, 0, 1), "trials must be a positive integer, got 0"),
], ids=["engine", "trials"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_empty_family_set_is_never_met():
    assert independent_transversal_exists(ColorSystem(2, ((0, 1),), ((),))) == (False, None)


def test_engines_color_an_instance_without_vertices():
    inst = ListInstance.complete(1, 1, 1, [], [])
    assert _engine_run(checker._backtrack, inst) == ({}, 1)
    assert _engine_run(independent_transversal_exists, to_color_system(inst)) == ((True, ()), 1)
