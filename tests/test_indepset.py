import itertools
import math
import os
import random
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choosekit import indepset
from choosekit.checker import independent_transversal_exists
from choosekit.indepset import (
    MC_CHUNK_FLOATS,
    STGraph,
    counterexample_graph,
    f_values,
    fancy_bound,
    fancy_bound_fraction,
    fancy_bound_params,
    greedy_independent_set,
    local_product_bound,
    max_degree_deletion,
    p_blocked_bruteforce,
    p_blocked_exact,
    p_blocked_monte_carlo,
    random_transversal_search,
    t_degrees,
)
from choosekit.model import ColorSystem


def _kaa_union(a, j):
    edges = [(c * a + i, c * a + t) for c in range(j) for i in range(a) for t in range(a)]
    return STGraph.make(a * j, a * j, edges)


def _random_stgraph(rng, smax=4, tmax=4):
    s = rng.randint(1, smax)
    t = rng.randint(1, tmax)
    edges = [(i, j) for i in range(s) for j in range(t) if rng.random() < 0.5]
    return STGraph.make(s, t, edges)


# --- STGraph -------------------------------------------------------------------

def test_stgraph_validation():
    with pytest.raises(ValueError):
        STGraph.make(1, 1, [(0, 5)])
    with pytest.raises(ValueError):
        STGraph(1, 1, ((0, 0), (0, 0)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: STGraph(-1, 2, ()),
        lambda: STGraph(2, -1, ()),
        lambda: STGraph.make(-1, 2, []),
        lambda: STGraph.from_dict({"s": 3, "t": -2, "edges": []}),
    ],
    ids=["direct-s", "direct-t", "make", "from-dict"],
)
def test_stgraph_rejects_negative_part_sizes(build):
    # from_dict names the JSON keys, the constructor its own argument
    with pytest.raises(ValueError, match="non-negative integer"):
        build()


@pytest.mark.parametrize(
    "d, says",
    [
        ([1, 2], "keys s, t and edges"),
        ({"s": 1, "t": 1}, "keys s, t and edges"),
        ({"s": 1.0, "t": 1, "edges": []}, "non-negative integers"),
        ({"s": 1, "t": 1, "edges": [[0.7, 0]]}, "integer pairs"),
        ({"s": 1, "t": 1, "edges": [[0, 0, 0]]}, "integer pairs"),
    ],
    ids=["list", "no-edges", "float-s", "float-edge", "long-edge"],
)
def test_stgraph_from_dict_rejects_wrong_shapes(d, says):
    # the float edge was once truncated to (0, 0)
    with pytest.raises(ValueError, match=says):
        STGraph.from_dict(d)


def test_stgraph_rejects_a_fractional_index():
    # int() once truncated this edge to (0, 1)
    with pytest.raises(ValueError, match=r"edge index must be an integer, got 1\.5"):
        STGraph.make(2, 2, [(0, 1.5)])
    assert STGraph.make(2, 2, [(np.int64(0), np.int64(1))]).edges == ((0, 1),)


def test_stgraph_round_trip():
    g = counterexample_graph()
    assert STGraph.from_dict(g.to_dict()) == g


def test_counterexample_shape():
    g = counterexample_graph()
    assert g.s_size == 4 and g.t_size == 5
    assert len(g.edges) == 8
    d = t_degrees(g)
    assert sorted(d) == [1, 1, 1, 1, 4]
    assert max(d) == 4


def test_counterexample_f_values():
    fs = f_values(counterexample_graph())
    assert sorted(fs) == [Fraction(1, 2)] * 4 + [Fraction(2)]
    assert sum(fs) == 4  # the local parameters sum to |S|


# --- greedy --------------------------------------------------------------------

def test_greedy_empty_graph_takes_all():
    adjacency = {v: [] for v in range(5)}
    assert greedy_independent_set(adjacency, [3, 1, 4, 0, 2]) == set(range(5))


def test_greedy_single_edge_first_wins():
    adjacency = {"u": ["v"], "v": ["u"]}
    assert greedy_independent_set(adjacency, ["u", "v"]) == {"u"}
    assert greedy_independent_set(adjacency, ["v", "u"]) == {"v"}


def test_greedy_path_center_first():
    adjacency = {"a": ["b"], "b": ["a", "c"], "c": ["b"]}
    assert greedy_independent_set(adjacency, ["b", "a", "c"]) == {"b"}


# --- exact blocking probability --------------------------------------------------

def test_p_blocked_single_pair():
    g = STGraph.make(1, 1, [(0, 0)])
    assert p_blocked_exact(g) == Fraction(1, 2)


def test_p_blocked_no_t():
    g = STGraph.make(1, 0, [])
    assert p_blocked_exact(g) == 0


def test_p_blocked_empty_s():
    g = STGraph.make(0, 2, [])
    assert p_blocked_exact(g) == 1


def test_p_blocked_counterexample_value():
    assert p_blocked_exact(counterexample_graph()) == Fraction(83, 315)


def _reference_order_scan(graph):
    """The oracle's oracle: walk every processing order of S + T and count
    those in which each S-vertex follows one of its T-neighbors."""
    s, t = graph.s_size, graph.t_size
    n = s + t
    t_neighbors = [set() for _ in range(s)]
    for i, j in graph.edges:
        t_neighbors[i].add(s + j)
    good = 0
    for perm in itertools.permutations(range(n)):
        seen = set()
        ok = True
        for v in perm:
            if v < s and not (t_neighbors[v] & seen):
                ok = False
                break
            seen.add(v)
        if ok:
            good += 1
    return Fraction(good, math.factorial(n))


def test_p_blocked_matches_bruteforce_exhaustively():
    # every graph on up to six vertices, all part splits; the prefix-set count
    # also matches the literal order scan
    for s, t in ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)):
        cells = [(i, j) for i in range(s) for j in range(t)]
        for bits in range(1 << len(cells)):
            edges = [cells[i] for i in range(len(cells)) if bits >> i & 1]
            g = STGraph.make(s, t, edges)
            brute = p_blocked_bruteforce(g)
            assert brute == _reference_order_scan(g), (s, t, edges)
            assert p_blocked_exact(g) == brute, (s, t, edges)


def test_bruteforce_matches_order_scan_on_counterexample():
    g = counterexample_graph()
    assert p_blocked_bruteforce(g) == _reference_order_scan(g) == Fraction(83, 315)


def test_bruteforce_on_degenerate_graphs():
    for g in (STGraph.make(0, 0, []), STGraph.make(0, 3, []), STGraph.make(2, 0, []),
              STGraph.make(2, 2, [(0, 0)])):
        assert p_blocked_bruteforce(g) == _reference_order_scan(g)


def test_p_blocked_matches_bruteforce_sampled():
    rng = random.Random(11)
    for _ in range(25):
        g = _random_stgraph(rng)
        assert p_blocked_exact(g) == p_blocked_bruteforce(g)


def test_p_blocked_size_cap():
    g = STGraph.make(11, 10, [(i, j) for i in range(11) for j in range(10)])
    with pytest.raises(ValueError, match=r"^\|S\|\+\|T\| = 21 exceeds the cap of 20$"):
        p_blocked_exact(g)


def _p_blocked_full_mask(graph):
    """The earlier engine, kept as a reference: the same recursion memoized
    on the alive set of S and T together, in Fraction arithmetic."""
    s, t = graph.s_size, graph.t_size
    n = s + t
    nbr = [0] * n  # S at bits 0..s-1, T at bits s..n-1
    for i, j in graph.edges:
        nbr[i] |= 1 << (s + j)
        nbr[s + j] |= 1 << i
    smask = (1 << s) - 1
    memo = {}

    def rec(alive):
        s_alive = alive & smask
        if s_alive == 0:
            return Fraction(1)
        got = memo.get(alive)
        if got is not None:
            return got
        m = s_alive
        while m:
            v = m & -m
            m &= m - 1
            if nbr[v.bit_length() - 1] & alive == 0:
                memo[alive] = Fraction(0)
                return memo[alive]
        total = Fraction(0)
        tm = alive & ~smask
        while tm:
            v = tm & -tm
            tm &= tm - 1
            idx = v.bit_length() - 1
            total += rec(alive & ~(v | nbr[idx]))
        out = total / alive.bit_count()
        memo[alive] = out
        return out

    return rec((1 << n) - 1)


def _reference_graphs():
    rng = random.Random(41)
    graphs = []
    # small S, large T, sparse: the shapes where the full mask is largest
    for s, t, degree, count in ((6, 14, 3, 2), (7, 13, 2, 2), (8, 12, 3, 2)):
        for _ in range(count):
            edges = [(i, j) for i in range(s) for j in rng.sample(range(t), degree)]
            graphs.append(STGraph.make(s, t, edges))
    # dense and balanced
    for _ in range(40):
        s = rng.randint(7, 10)
        t = rng.randint(7, 20 - s)
        density = rng.uniform(0.4, 0.9)
        edges = [(i, j) for i in range(s) for j in range(t) if rng.random() < density]
        graphs.append(STGraph.make(s, t, edges))
    # any shape and density, so isolated S- and T-vertices and empty edge sets occur
    for _ in range(124):
        s = rng.randint(0, 10)
        t = rng.randint(0, min(10, 20 - s))
        density = rng.choice((0.0, 0.1, 0.3, 0.6))
        edges = [(i, j) for i in range(s) for j in range(t) if rng.random() < density]
        graphs.append(STGraph.make(s, t, edges))
    for s, t in ((5, 5), (10, 10), (0, 20), (20, 0)):
        graphs.append(STGraph.make(s, t, []))
    graphs.append(STGraph.make(10, 10, [(i, 0) for i in range(9)]))  # S-vertex 9 isolated
    # unions of j copies of K_{a,a}, where p = 2^-j
    graphs += [_kaa_union(a, j) for a in range(1, 11) for j in range(1, 10 // a + 1)]
    return graphs


def test_p_blocked_matches_full_mask_recursion():
    graphs = _reference_graphs()
    assert len(graphs) >= 200
    assert any(0 in t_degrees(g) for g in graphs if g.t_size)  # isolated T
    for g in graphs:
        got = p_blocked_exact(g)
        assert got == _p_blocked_full_mask(g), g
        if len({i for i, _ in g.edges}) < g.s_size:  # an isolated S-vertex
            assert got == 0


# --- Monte Carlo ------------------------------------------------------------------

def test_monte_carlo_single_pair():
    g = STGraph.make(1, 1, [(0, 0)])
    est = p_blocked_monte_carlo(g, 10**5, seed=4)
    assert abs(est.estimate - 0.5) < 0.006


def test_monte_carlo_isolated_s_vertex_is_zero():
    g = STGraph.make(1, 0, [])
    est = p_blocked_monte_carlo(g, 1000, seed=4)
    assert est.estimate == 0.0 and est.successes == 0


def test_monte_carlo_deterministic():
    g = counterexample_graph()
    a = p_blocked_monte_carlo(g, 20000, seed=8)
    b = p_blocked_monte_carlo(g, 20000, seed=8)
    assert a == b


def _one_draw_successes(g, trials, seed):
    """Orders in which every S-vertex has an earlier T-neighbor, counted on
    one draw of all trials x (s + t) uniform times."""
    s = g.s_size
    times = np.random.default_rng(seed).random((trials, s + g.t_size))
    ok = np.ones(trials, dtype=bool)
    for i in range(s):
        nbrs = [s + j for a, j in g.edges if a == i]
        ok &= times[:, nbrs].min(axis=1, initial=np.inf) < times[:, i]
    return int(ok.sum())


@st.composite
def _mc_cases(draw):
    """A graph with up to 5 + 8 vertices (isolated vertices on either side,
    empty parts allowed), a seed, and a trial count that ends one row before,
    on, or one row after a chunk boundary, or 7 rows into a fourth chunk."""
    s, t = draw(st.integers(0, 5)), draw(st.integers(0, 8))
    pairs = st.tuples(st.integers(0, s - 1), st.integers(0, t - 1))
    edges = draw(st.sets(pairs, max_size=s * t)) if s and t else set()
    chunk = MC_CHUNK_FLOATS // max(s + t, 1)
    trials = draw(st.sampled_from([chunk - 1, chunk, chunk + 1, 3 * chunk + 7]))
    return STGraph.make(s, t, edges), trials, draw(st.integers(0, 2**32 - 1))


def _wide_case():
    """8 + 256 vertices, each S-vertex with 5 T-neighbors: a chunk of
    2^17 // 264 = 496 rows, so 20,000 trials take 41 chunks."""
    rng = random.Random(12)
    edges = [(i, j) for i in range(8) for j in rng.sample(range(256), 5)]
    return STGraph.make(8, 256, edges), 20_000, 3


_WIDE = _wide_case()
_SPLIT_FLOATS = 16 * MC_CHUNK_FLOATS  # the fewest floats that two workers share


@settings(max_examples=40, deadline=None)
@given(_mc_cases())
@example(_WIDE)
@example((STGraph.make(0, 0, []), MC_CHUNK_FLOATS + 1, 1))
@example((STGraph.make(0, 3, []), 3 * (MC_CHUNK_FLOATS // 3) + 7, 2))
@example((STGraph.make(2, 3, [(0, 1), (0, 2)]), MC_CHUNK_FLOATS // 5, 3))
@example((STGraph.make(3, 4, [(0, 0), (1, 0), (2, 1)]), MC_CHUNK_FLOATS // 7 + 1, 4))
# past the split threshold: up to 2 and up to 3 workers, rows not divisible by either
@example((STGraph.make(2, 3, [(0, 1), (1, 2)]), _SPLIT_FLOATS // 5 + 1, 6))
@example((counterexample_graph(), 3 * _SPLIT_FLOATS // 2 // 9 + 4, 5))
def test_monte_carlo_chunks_match_one_draw(case):
    g, trials, seed = case
    est = p_blocked_monte_carlo(g, trials, seed)
    assert est.successes == _one_draw_successes(g, trials, seed)
    assert est.trials == trials and est.estimate == est.successes / trials
    if case is _WIDE:  # many chunks, and some orders block every S-vertex
        assert trials > 2 * (MC_CHUNK_FLOATS // (g.s_size + g.t_size))
        assert est.successes > 0


def _worker_ranges(monkeypatch, cpus):
    """Make cpus CPUs usable; the row ranges the counting calls get."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    ranges, real = [], indepset._count_blocked

    def counting(nbrs, width, seed, start, stop):
        ranges.append((start, stop))
        return real(nbrs, width, seed, start, stop)

    monkeypatch.setattr(indepset, "_count_blocked", counting)
    return ranges


def test_monte_carlo_estimate_is_the_same_for_any_worker_count(monkeypatch):
    g, trials = counterexample_graph(), 3 * _SPLIT_FLOATS // 2 // 9 + 4  # 349,529 rows
    estimates = []
    for cpus in (1, 2, 3):
        with monkeypatch.context() as patch:
            ranges = _worker_ranges(patch, cpus)
            estimates.append(p_blocked_monte_carlo(g, trials, seed=17))
        cuts = [trials * k // cpus for k in range(cpus + 1)]
        assert sorted(ranges) == list(zip(cuts, cuts[1:]))
    assert estimates[0] == estimates[1] == estimates[2]
    assert estimates[0].successes == _one_draw_successes(g, trials, 17)


def test_monte_carlo_below_the_split_threshold_starts_no_thread(monkeypatch):
    def no_thread(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    g = counterexample_graph()
    trials = _SPLIT_FLOATS // 9  # just short of two workers' floats
    ranges = _worker_ranges(monkeypatch, 64)
    assert p_blocked_monte_carlo(g, trials, seed=5).successes == _one_draw_successes(g, trials, 5)
    assert ranges == [(0, trials)]


def test_blocked_order_has_preceding_t_neighbor():
    # whenever the greedy set misses all of S, every S-vertex must have a
    # T-neighbor earlier in the order
    g = counterexample_graph()
    s, t = g.s_size, g.t_size
    vertices = [("S", i) for i in range(s)] + [("T", j) for j in range(t)]
    adjacency = {v: [] for v in vertices}
    for i, j in g.edges:
        adjacency[("S", i)].append(("T", j))
        adjacency[("T", j)].append(("S", i))
    rng = random.Random(13)
    misses = 0
    for _ in range(2000):
        order = vertices[:]
        rng.shuffle(order)
        chosen = greedy_independent_set(adjacency, order)
        if not any(v[0] == "S" for v in chosen):
            misses += 1
            position = {v: i for i, v in enumerate(order)}
            for i in range(s):
                assert any(
                    position[("T", j)] < position[("S", i)] for (si, j) in g.edges if si == i
                )
    assert misses > 0  # the event is common enough to exercise the check


# --- bounds ------------------------------------------------------------------------

def test_fancy_bound_counterexample_is_one_third():
    g = counterexample_graph()
    assert abs(fancy_bound(g) - 1 / 3) < 1e-15
    assert fancy_bound_fraction(g) == Fraction(1, 3)


def test_fancy_bound_single_edge():
    g = STGraph.make(1, 1, [(0, 0)])
    assert fancy_bound_fraction(g) == Fraction(1, 2)
    assert p_blocked_exact(g) == Fraction(1, 2)


def test_fancy_bound_matchings_equality():
    for m in range(1, 7):
        g = STGraph.make(m, m, [(i, i) for i in range(m)])
        assert fancy_bound_fraction(g) == Fraction(1, 2**m)
        assert p_blocked_exact(g) == Fraction(1, 2**m)


def test_fancy_bound_identical_union_equality():
    for a in (1, 2, 3):
        for j in (1, 2):
            g = _kaa_union(a, j)
            assert p_blocked_exact(g) == fancy_bound_fraction(g) == Fraction(1, 2**j)


def test_fancy_bound_strict_on_counterexample():
    g = counterexample_graph()
    assert p_blocked_exact(g) < fancy_bound_fraction(g)


def test_fancy_bound_dominates_exact():
    rng = random.Random(17)
    checked = 0
    for _ in range(60):
        g = _random_stgraph(rng)
        if not g.edges:
            continue
        sdeg = [0] * g.s_size
        for i, _ in g.edges:
            sdeg[i] += 1
        if any(d == 0 for d in sdeg):
            continue  # isolated S-vertex forces p = 0 trivially below the bound
        assert float(p_blocked_exact(g)) <= fancy_bound(g) + 1e-12
        checked += 1
    assert checked > 20


def test_fancy_bound_monotone_in_delta_t():
    for s, e in ((4, 8), (5, 10), (3, 9)):
        values = [fancy_bound_params(s, dt, e) for dt in range(1, s + 1)]
        assert all(x <= y + 1e-15 for x, y in zip(values, values[1:]))


def test_fancy_bound_rejects_empty():
    with pytest.raises(ValueError):
        fancy_bound(STGraph.make(2, 2, []))


def test_schedule_parameters_hit_power_of_three():
    # at the deletion schedule's parameters the bound collapses to
    # 3^(-k^2 / (2 delta_b))
    for k, delta_b, i in ((4, 10, 1), (6, 30, 2), (5, 25, 0), (3, 9, 2)):
        s = k - i
        dt = 2 * (k - i) * delta_b / k**2
        e = delta_b * (k - i) ** 2 / k**2
        got = fancy_bound_params(s, dt, e)
        assert abs(got - 3.0 ** (-(k**2) / (2 * delta_b))) < 1e-12


def test_product_bound_fails_on_counterexample():
    g = counterexample_graph()
    prod = local_product_bound(g)
    assert abs(prod - 4 * math.sqrt(3) / 27) < 1e-12
    assert p_blocked_exact(g) > Fraction(prod)


# A T-hub on all of S, one T-vertex shared by S0 and S1, and two pendants.
SMALLEST_REFUTATION = STGraph.make(
    4, 4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 1), (2, 3), (3, 0), (3, 3)]
)


def test_product_bound_fails_on_eight_vertices():
    g = SMALLEST_REFUTATION
    assert p_blocked_exact(g) == p_blocked_bruteforce(g) == Fraction(197, 720)
    assert abs(float(Fraction(197, 720)) / local_product_bound(g) - 1.00531) < 5e-6
    assert fancy_bound_fraction(g) == Fraction(1, 3) > Fraction(197, 720)


def _canonical(g):
    """g's S-neighbourhoods, as T-bitmasks, sorted and minimised over every
    relabelling of T: equal exactly when two graphs are isomorphic."""
    nbhds = [[j for i2, j in g.edges if i2 == i] for i in range(g.s_size)]
    return min(
        tuple(sorted(sum(1 << perm[j] for j in nb) for nb in nbhds))
        for perm in itertools.permutations(range(g.t_size))
    )


def test_counterexample_is_the_four_plus_five_maximum():
    # every S/T graph with |S| = 4, |T| = 5 and no isolated vertex, once per
    # sorted multiset of S-neighbourhoods (nonempty T-sets covering T)
    ratios = []
    for nbhds in itertools.combinations_with_replacement(range(1, 32), 4):
        if nbhds[0] | nbhds[1] | nbhds[2] | nbhds[3] == 31:
            edges = [(i, j) for i, nb in enumerate(nbhds) for j in range(5) if nb >> j & 1]
            g = STGraph.make(4, 5, edges)
            ratios.append((float(p_blocked_exact(g)) / local_product_bound(g), g))
    assert len(ratios) == 33031
    top, g = max(ratios, key=lambda r: r[0])
    assert p_blocked_exact(g) == Fraction(83, 315)
    # (83/315) / (4 sqrt(3) / 27), the counterexample's product bound
    assert abs(top - 2241 / (1260 * math.sqrt(3))) < 1e-12
    assert abs(top - 1.02686) < 5e-6
    # only relabellings of the hub T-vertex plus four pendants come near it;
    # the next largest ratio is 1
    maximisers = {_canonical(h) for r, h in ratios if r > top - 1e-9}
    assert maximisers == {_canonical(counterexample_graph())}


def test_product_bound_holds_on_seven_vertices_or_fewer():
    # every labelled S/T graph with |S|+|T| <= 7 and no isolated vertex; the
    # largest ratio is 1 + 2^-52, a rounding of equality
    checked = 0
    for s, t in ((s, n - s) for n in range(2, 8) for s in range(1, n)):
        cells = list(itertools.product(range(s), range(t)))
        for keep in itertools.product((False, True), repeat=len(cells)):
            edges = list(itertools.compress(cells, keep))
            if {i for i, _ in edges} != set(range(s)) or {j for _, j in edges} != set(range(t)):
                continue
            g = STGraph(s, t, tuple(edges))
            assert float(p_blocked_exact(g)) <= local_product_bound(g) * (1 + 1e-12), g
            checked += 1
    assert checked == 5295


# --- degree functional ---------------------------------------------------------------

def degree_functional_check(graph: STGraph):
    """Evaluate sum_i d_i^2 / D_i over T and check it is at most |S|.

    Returns (value, holds).  Every T-vertex must have degree >= 1.
    """
    d_t = t_degrees(graph)
    if any(d == 0 for d in d_t):
        raise ValueError("isolated T-vertex: the functional is undefined")
    s_deg = Counter(i for i, _ in graph.edges)
    big_d = [0] * graph.t_size  # D_i: the sum of T-vertex i's S-neighbors' degrees
    for i, j in graph.edges:
        big_d[j] += s_deg[i]
    value = sum(Fraction(d * d, big) for d, big in zip(d_t, big_d))
    return value, value <= graph.s_size


def test_degree_functional_counterexample_equality():
    value, holds = degree_functional_check(counterexample_graph())
    assert value == 4 and holds


def test_degree_functional_matching_equality():
    g = STGraph.make(3, 3, [(i, i) for i in range(3)])
    value, holds = degree_functional_check(g)
    assert value == 3 and holds


def test_degree_functional_random_fuzz():
    rng = random.Random(23)
    done = 0
    while done < 2000:
        s = rng.randint(1, 6)
        t = rng.randint(1, 6)
        edges = [(i, j) for i in range(s) for j in range(t) if rng.random() < 0.6]
        tdeg = [0] * t
        for _, j in edges:
            tdeg[j] += 1
        if any(d == 0 for d in tdeg):
            continue
        _, holds = degree_functional_check(STGraph.make(s, t, edges))
        assert holds
        done += 1


def test_degree_functional_rejects_isolated_t():
    with pytest.raises(ValueError):
        degree_functional_check(STGraph.make(1, 2, [(0, 0)]))


# --- max-degree deletion ---------------------------------------------------------------

def test_deletion_matching_stops_immediately():
    edges = [(i, i + 5) for i in range(5)]
    for k in range(1, 6):
        res = max_degree_deletion(10, edges, k)
        assert res.deleted_count == 0
        assert len(res.remaining_edges) == 5


def test_deletion_star_k1():
    edges = [(0, i) for i in range(1, 6)]
    res = max_degree_deletion(6, edges, 1)
    assert res.deleted_count == 0  # cap (2k-1)m/k^2 = m covers the hub degree


def test_deletion_postconditions_random():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(2, 10)
        edges = {
            tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(1, 2 * n))
        }
        m = len(edges)
        for k in range(1, 11):
            res = max_degree_deletion(n, edges, k)
            i = res.deleted_count
            assert i < k
            remaining = len(res.remaining_edges)
            bound = m * (k - i) ** 2 / k**2
            assert remaining <= bound + 1e-9
            if i >= 1:
                assert remaining < bound
            deg = {}
            for u, v in res.remaining_edges:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            max_deg = max(deg.values(), default=0)
            assert max_deg <= res.threshold
            assert max_deg <= 2 * (k - i) * m / k**2 + 1e-9


def test_deletion_tie_breaks_lowest_id():
    # all four vertices have degree 2; ties resolve to the lowest id
    edges = [(0, 1), (0, 2), (3, 1), (3, 2)]
    res = max_degree_deletion(4, edges, 4)
    assert res.deleted == (0, 3)
    assert res.remaining_edges == ()


def test_deletion_takes_numpy_integer_vertices():
    edges = [(0, 1), (0, 2), (3, 1), (3, 2), (1, 2)]
    assert max_degree_deletion(4, np.array(edges), 2) == max_degree_deletion(4, edges, 2)


# --- randomized certificate search ------------------------------------------------------

def test_random_search_edgeless_first_try():
    system = ColorSystem(4, (), ((0, 1), (2,), (3,)))
    got = random_transversal_search(system, restarts=1, seed=0)
    assert got == frozenset(range(4))


def test_random_search_never_finds_on_blocked_system():
    system = ColorSystem(4, ((0, 2), (0, 3), (1, 2), (1, 3)), ((0, 1), (2, 3)))
    assert random_transversal_search(system, restarts=300, seed=1) is None
    assert independent_transversal_exists(system)[0] is False


def test_random_search_agrees_with_exact_on_solvable_systems():
    rng = random.Random(31)
    found_some = 0
    for _ in range(40):
        n = rng.randint(3, 8)
        edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(1, 5))}
        family = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(1, 3))}
        system = ColorSystem(n, tuple(sorted(edges)), tuple(sorted(family)))
        exact, _ = independent_transversal_exists(system)
        got = random_transversal_search(system, restarts=1000, seed=rng.randint(0, 10**6))
        if got is not None:
            assert exact  # soundness: a found set certifies colorability
            assert all(set(f) & got for f in system.family)
            assert not any(set(e) <= got for e in system.edges)
            found_some += 1
        # absence proves nothing: no assertion in the None case
    assert found_some >= 10


def test_random_search_requires_two_uniform():
    system = ColorSystem(4, ((0, 1, 2),), ((3,),))
    with pytest.raises(ValueError):
        random_transversal_search(system, restarts=1, seed=0)


@pytest.mark.parametrize("call, message", [
    (lambda: p_blocked_monte_carlo(counterexample_graph(), 0, 1),
     "trials must be a positive integer, got 0"),
    (lambda: fancy_bound_params(3, 0, 0), "need a nonempty graph"),
    # Delta_T = 2 does not divide |S| = 3
    (lambda: fancy_bound_fraction(STGraph.make(3, 1, [(0, 0), (1, 0)])), "integral exponent"),
    (lambda: max_degree_deletion(3, [(0, 1)], 0), "k must be a positive integer, got 0"),
    (lambda: max_degree_deletion(3, [(1, 1)], 1), "2-sets of distinct vertices"),
    (lambda: max_degree_deletion(3, [(0, 5)], 1), r"distinct vertices in 0\.\.n-1"),
    (lambda: random_transversal_search(ColorSystem(3, ((0, 7),), ((0,),)), 5, 1),
     r"distinct vertices in 0\.\.n-1"),
    (lambda: max_degree_deletion(3, [(0, 1.5)], 1), r"vertex must be an integer, got 1\.5"),
    (lambda: random_transversal_search(ColorSystem(3, ((0, 1.5),), ((0,),)), 5, 1),
     r"vertex must be an integer, got 1\.5"),
    (lambda: random_transversal_search(ColorSystem(3, ((0, 1),), ()), 1, 0),
     "needs a nonempty family"),
], ids=["mc-trials", "fancy-params", "fancy-fraction", "deletion-k", "deletion-loop",
        "deletion-range", "transversal-range", "deletion-noninteger", "transversal-noninteger",
        "transversal-family"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
