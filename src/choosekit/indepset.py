"""Random greedy independent sets and the exact blocking probability p(H_S).

Setting: a bipartite "blocking graph" H_S with parts S and T.  Vertices are
processed in a uniformly random order; an S-vertex is *blocked* when some
T-neighbor precedes it, and p(H_S) is the probability that every S-vertex
is blocked.  If a random greedy independent set (scan the order, keep a
vertex unless a kept neighbor precedes it) misses all of S, then all of S
was blocked, so p(H_S) caps the probability that greedy misses a target set.

p depends only on the relative order of the S-vertices and their
T-neighbors, so a T-vertex with no S-neighbor left does not change it.  A
processed T-vertex blocks all its S-neighbors, so the T-vertices that count
are always N(S') for the set S' of surviving S-vertices, and p satisfies

    p(S') = 1/(|S'|+|N(S')|) * sum over v in N(S') of p(S' minus N(v))

(condition on the first processed vertex: an S-vertex first means failure,
a T-vertex blocks its whole neighborhood and drops out), with p = 1 on
empty S' and p = 0 whenever some S-vertex has no T-neighbor.  The state is
the surviving S-set alone (at most 2^min(|S|,|T|) states), and
p(S')*(|S|+|T|)! is an integer, so the exact engine counts with integers.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .model import ColorSystem, as_int, index_pairs, int_rows, require_keys, usable_cpus


class _STGraph(NamedTuple):
    s_size: int
    t_size: int
    edges: tuple


class STGraph(_STGraph):
    """Bipartite blocking graph: S-indices 0..s_size-1, T-indices 0..t_size-1,
    edges as (s_index, t_index) pairs without repeats, stored sorted on every
    construction, _replace included."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, s_size, t_size, edges):
        s, t = as_int(s_size, "s_size", 0), as_int(t_size, "t_size", 0)
        edges = index_pairs(edges, "edges")
        for i, j in edges:
            if not (0 <= i < s and 0 <= j < t):
                raise ValueError(f"edge {(i, j)} out of range")
        if len(set(edges)) < len(edges):
            raise ValueError(f"parallel edge {next(e for e, f in zip(edges, edges[1:]) if e == f)}")
        return super().__new__(cls, s, t, edges)

    @staticmethod
    def make(s_size, t_size, edges) -> "STGraph":
        return STGraph(s_size, t_size, edges)

    @staticmethod
    def from_dict(d) -> "STGraph":
        """The graph a JSON object describes; a ValueError says what is wrong."""
        require_keys(d, ("s", "t", "edges"))
        if not (type(d["s"]) is int and type(d["t"]) is int and min(d["s"], d["t"]) >= 0):
            raise ValueError("s and t must be non-negative integers")
        if not int_rows(d["edges"], 2):
            raise ValueError("edges must be a list of [s-index, t-index] integer pairs")
        return STGraph(d["s"], d["t"], d["edges"])


def t_degrees(graph: STGraph) -> tuple:
    """The degree of each T-vertex."""
    t_deg = [0] * graph.t_size
    for _, j in graph.edges:
        t_deg[j] += 1
    return tuple(t_deg)


def counterexample_graph() -> STGraph:
    """The 4+5-vertex blocking graph on which the per-vertex product bound
    prod_i (1+f_i)^(-f_i/d_i) fails: four pendant T-vertices matched to S
    plus one hub adjacent to all of S.  Of all 4+5 graphs it breaks the
    bound most (ratio 1.02686), but it is not the smallest refutation: the
    bound fails on a 4+4 graph (p = 197/720); both are pinned in the tests."""
    edges = [(0, 0), (1, 1), (2, 3), (3, 4), (0, 2), (1, 2), (2, 2), (3, 2)]
    return STGraph.make(4, 5, edges)


# --- greedy independent sets -------------------------------------------------

def greedy_independent_set(adjacency, order):
    """Maximal independent set forced by a processing order.

    adjacency maps each vertex to an iterable of neighbors; order is a
    permutation of the vertices.  A vertex is kept iff no earlier-kept
    neighbor exists.  Deterministic in the order.
    """
    chosen = set()
    for v in order:
        if chosen.isdisjoint(adjacency[v]):
            chosen.add(v)
    return chosen


# --- exact and sampled blocking probability ----------------------------------

#: Largest |S|+|T| that p_blocked_exact accepts.  Its memo holds at most
#: 2^min(|S|,|T|) states, so at most 1,024 under the cap.
EXACT_SIZE_CAP = 20


def p_blocked_exact(graph: STGraph) -> Fraction:
    """Exact p(H_S) by the first-vertex recursion over surviving S-sets.

    A T-vertex with no alive S-neighbor does not change p, and a processed
    T-vertex takes all its S-neighbors with it, so the state is the set S'
    of alive S-vertices (a bitmask) and the T-vertices that count are
    N(S').  The memo holds at most 2^min(|S|,|T|) states: at most 2^|S|,
    and at most 2^|T|, as each is S minus the neighborhood of the processed
    T-vertices.  Under EXACT_SIZE_CAP that is at most 1,024.  Counts are exact
    integers scaled by n! (n = |S|+|T|): the denominator of p(S') divides
    (|S'|+|N(S')|)!, so p(S')*n! is an integer and each step divides exactly.

    |S|+|T| may not exceed EXACT_SIZE_CAP.  Each call owns its memo table,
    so concurrent calls stay independent.
    """
    s, t = graph.s_size, graph.t_size
    n = s + t
    if n > EXACT_SIZE_CAP:
        raise ValueError(f"|S|+|T| = {n} exceeds the cap of {EXACT_SIZE_CAP}")
    s_nbrs = [0] * t  # S-neighbors of each T-vertex, as a bitmask
    for i, j in graph.edges:
        s_nbrs[j] |= 1 << i
    # p(S') * n!, keyed by S'.  An S-vertex with no T-neighbor is never
    # removed, so its states end in an empty sum and count 0.
    full = factorial(n)

    @functools.cache
    def count(alive):
        if not alive:
            return full
        children = [alive & ~nb for nb in s_nbrs if nb & alive]
        return sum(map(count, children)) // (alive.bit_count() + len(children))

    return Fraction(count((1 << s) - 1), full)


def p_blocked_bruteforce(graph: STGraph) -> Fraction:
    """Reference oracle: the share of processing orders of S + T that block
    all of S, counted prefix set by prefix set.

    orders[P] counts the orderings of the processed set P in which every
    S-vertex follows one of its T-neighbors; a vertex extends P unless it is
    an S-vertex with no T-neighbor in P.  Unlike p_blocked_exact, the state
    is every processed vertex and each vertex is checked on its own.  2^n * n
    steps for n = |S|+|T|; for cross-checks only.
    """
    s, t = graph.s_size, graph.t_size
    n = s + t
    t_neighbors = [0] * s  # T-neighbors of each S-vertex, as a bitmask over S + T
    for i, j in graph.edges:
        t_neighbors[i] |= 1 << (s + j)
    # P | bit > P, so orders[P] is final by the time the loop reaches P.
    orders = [0] * (1 << n)
    orders[0] = 1
    for processed, count in enumerate(orders):
        if not count:
            continue
        for v in range(n):
            bit = 1 << v
            if processed & bit or (v < s and not t_neighbors[v] & processed):
                continue
            orders[processed | bit] += count
    return Fraction(orders[-1], factorial(n))


class MonteCarloEstimate(NamedTuple):
    estimate: float
    std_error: float
    successes: int
    trials: int


MC_CHUNK_FLOATS = 2**17  # floats per Monte Carlo chunk (1 MiB): the fastest of 2^14..2^18


def _count_blocked(nbrs, width, seed, start, stop) -> int:
    """How many of rows start..stop-1 of one draw of all rows (width uniform
    times each) give every S-vertex (nbrs[i]: its T-neighbors' columns) an
    earlier T-neighbor.  The generator skips the start * width floats of the
    rows before; each double is one PCG64 step, so this draws exactly those
    rows' floats."""
    import numpy as np

    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(start * width)
    rows = stop - start
    chunk = min(rows, max(1, MC_CHUNK_FLOATS // max(width, 1)))
    buf, mins = np.empty((chunk, width)), np.empty(chunk)
    ok = np.empty(chunk, dtype=bool)
    successes = 0
    for done in range(0, rows, chunk):
        m = min(chunk, rows - done)
        times, ok_m = buf[:m], ok[:m]
        rng.random(out=times)
        ok_m.fill(True)
        for i, ts in enumerate(nbrs):
            earliest = times[:, ts[0]]  # earliest T-neighbor time
            for j in ts[1:]:
                earliest = np.minimum(earliest, times[:, j], out=mins[:m])
            ok_m &= earliest < times[:, i]
        successes += int(np.count_nonzero(ok_m))
    return successes


def p_blocked_monte_carlo(graph: STGraph, trials: int, seed: int) -> MonteCarloEstimate:
    """Estimate p(H_S) from uniform random orders; deterministic per seed.

    Orders are sampled as i.i.d. uniform processing times (almost surely
    distinct), so an S-vertex is blocked iff some T-neighbor has a smaller
    time.  Vectorized over trials in 1 MiB chunks (MC_CHUNK_FLOATS floats, or
    one row, if longer) drawn into one reused buffer per worker.

    The generator fills rows in stream order, and PCG64 jumps ahead by n
    doubles in O(log n), so a worker that starts at row r advances the seed's
    stream by r * (|S|+|T|) and draws the floats one draw of all rows puts in
    its rows.  Large calls split their rows into contiguous ranges, one
    thread each, up to the usable CPUs and one per 8 chunks' worth of floats
    (smaller calls run inline); the counts are summed, so a (graph, trials,
    seed) gives the estimate one draw of all its rows gives, for any number
    of workers.
    """
    trials = as_int(trials, "trials", 1)
    s, t = graph.s_size, graph.t_size
    nbrs = [[] for _ in range(s)]
    for i, j in graph.edges:
        nbrs[i].append(s + j)
    successes = 0
    if all(nbrs):  # an S-vertex without T-neighbors is never blocked
        count = functools.partial(_count_blocked, nbrs, s + t, seed)
        workers = max(1, min(usable_cpus(), trials, trials * (s + t) // (8 * MC_CHUNK_FLOATS)))
        if workers == 1:
            successes = count(0, trials)
        else:
            from concurrent.futures import ThreadPoolExecutor

            cuts = [trials * k // workers for k in range(workers + 1)]
            with ThreadPoolExecutor(workers) as pool:
                successes = sum(pool.map(count, cuts[:-1], cuts[1:]))
    est = successes / trials
    return MonteCarloEstimate(
        est, math.sqrt(max(est * (1.0 - est), 0.0) / trials), successes, trials
    )


# --- bounds on p(H_S) ---------------------------------------------------------

def fancy_bound_params(s_size: int, delta_t, edge_count) -> float:
    """(1 + |S| * Delta_T / |E|)^(-|S| / Delta_T) from raw parameters."""
    if edge_count <= 0 or delta_t <= 0:
        raise ValueError("need a nonempty graph")
    return (1.0 + s_size * delta_t / edge_count) ** (-s_size / delta_t)


def fancy_bound(graph: STGraph) -> float:
    """Degree-based upper bound on p(H_S); nondecreasing in Delta_T."""
    if not graph.edges:
        raise ValueError("the bound needs at least one edge")
    return fancy_bound_params(graph.s_size, max(t_degrees(graph)), len(graph.edges))


def fancy_bound_fraction(graph: STGraph) -> Fraction:
    """Exact-rational fancy bound; defined when Delta_T divides |S|."""
    if not graph.edges:
        raise ValueError("the bound needs at least one edge")
    delta_t = max(t_degrees(graph))
    if graph.s_size % delta_t:
        raise ValueError("exact form needs an integral exponent |S|/Delta_T")
    base = 1 + Fraction(graph.s_size * delta_t, len(graph.edges))
    return base ** -(graph.s_size // delta_t)


def f_values(graph: STGraph) -> tuple:
    """Local parameters f_i = sum over S-neighbors u of v_i of 1/deg(u);
    they sum to |S| when no S-vertex is isolated.  Exact rationals."""
    s_deg = [0] * graph.s_size
    for i, _ in graph.edges:
        s_deg[i] += 1
    out = [Fraction(0)] * graph.t_size
    for i, j in graph.edges:
        out[j] += Fraction(1, s_deg[i])
    return tuple(out)


def local_product_bound(graph: STGraph) -> float:
    """prod_i (1 + f_i)^(-f_i/d_i) over T-vertices of positive degree.

    A would-be refinement of the degree bound; p_blocked_exact of the
    counterexample graph exceeds it, so it is *not* a valid bound.
    """
    out = 1.0
    for fi, di in zip(f_values(graph), t_degrees(graph)):
        if di == 0:
            continue
        out *= (1.0 + float(fi)) ** (-float(fi) / di)
    return out


# --- max-degree deletion schedule ---------------------------------------------

class DeletionResult(NamedTuple):
    deleted_count: int
    deleted: tuple          # vertices in deletion order
    remaining_edges: tuple  # surviving edges, sorted
    threshold: float        # the cap met at the stopping index


def max_degree_deletion(n: int, edges, k: int) -> DeletionResult:
    """Delete max-degree vertices until the degree falls under a moving cap.

    With m the input edge count, stop at the first i with
    max_degree_i <= (2k - 2i - 1) * m / k^2; such an i < k always exists
    because those caps sum to m while each failed step deletes more than its
    cap's worth of edges.  Ties break to the lowest vertex id.
    """
    k = as_int(k, "k", 1)
    edge_set = {tuple(sorted(as_int(v, "vertex") for v in e)) for e in edges}
    if any(len(e) != 2 or not 0 <= e[0] < e[1] < n for e in edge_set):
        raise ValueError("edges must be 2-sets of distinct vertices in 0..n-1")
    m = len(edge_set)
    adj = {v: set() for v in range(n)}
    for u, v in edge_set:
        adj[u].add(v)
        adj[v].add(u)
    deleted = []
    while True:
        max_deg = max((len(adj[v]) for v in adj), default=0)
        cap = (2 * k - 2 * len(deleted) - 1) * m / (k * k)
        if max_deg <= cap:
            remaining = tuple(sorted((u, v) for u in adj for v in adj[u] if u < v))
            return DeletionResult(len(deleted), tuple(deleted), remaining, cap)
        victim = min(v for v in adj if len(adj[v]) == max_deg)
        for u in adj.pop(victim):
            adj[u].discard(victim)
        deleted.append(victim)


def random_transversal_search(system: ColorSystem, restarts: int, seed: int):
    """Randomized certificate search for 2-uniform systems: prune the graph
    by the deletion schedule with k = family-set size, then repeatedly draw
    greedy independent sets of the pruned graph until one meets every family
    set.

    A returned set is a verified colorability certificate (sound); None
    after the restart budget proves nothing (incomplete).
    """
    if any(len(e) != 2 for e in system.edges):
        raise ValueError("needs a 2-uniform system")
    if not system.family:
        raise ValueError("needs a nonempty family")
    restarts = as_int(restarts, "restarts", 0)
    k = len(system.family[0])
    n = system.vertex_count
    pruned = max_degree_deletion(n, system.edges, k)
    gone = set(pruned.deleted)
    adjacency = {v: set() for v in range(n) if v not in gone}
    for u, v in pruned.remaining_edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    fam = [frozenset(f) for f in system.family]
    edge_sets = [frozenset(e) for e in system.edges]
    rng = random.Random(seed)
    order = list(adjacency)
    for _ in range(restarts):
        rng.shuffle(order)
        chosen = greedy_independent_set(adjacency, order)
        if all(chosen & f for f in fam):
            if any(e <= chosen for e in edge_sets):
                raise RuntimeError("internal error: greedy set not independent")
            return frozenset(chosen)
    return None
