"""Exact decision engines for list colorability.

Two independent engines answer "does this list assignment admit a proper
coloring":

* direct backtracking over vertex colorings (any bipartite adjacency), and
* for complete bipartite instances, a search for an independent set of the
  color hypergraph that meets every family set (color the B side inside the
  set, the A side outside it).

Both cut with the dominance, or pure-literal, rule of Davis and Putnam (1960)
and Davis, Logemann and Loveland (1962): backtracking tries no other color
for a vertex once a color that takes no choice from any uncolored neighbor
has failed, and the independent-set search skips putting a color out once
putting it in has failed, when no edge still lacking an out color holds it.
Each cut drops only siblings of a subtree that has already failed, so every
verdict and coloring is the one the plain search finds, in fewer nodes.  On
the 51-vertex block construction with ka = 3 and a = (2, 2, 2), backtracking
rejects after 250,026 nodes in 0.6 s; without the cut it exhausted the
default budget (5,000,001 nodes) after 35.6 s (2-vCPU Xeon VM, Python 3.11).
Both engines keep their state in bitsets and touch only what a decision
changes, so a step costs a few bitset operations, not a scan of every
vertex or set, and the steps grow linearly with the depth of the search.

On top of these, decide_choosable settles whether *every* assignment at a
parameter point is colorable, by exhausting color systems over a bounded
universe: a color lying in no A-list can always be added to the B-side color
set, so any family set reaching outside the covered colors is automatically
met; a witness therefore exists iff one exists on the covered colors alone,
and those number at most ka * delta_b.  The maximal independent sets are
the complements of the minimal transversals, which the candidate generator
carries down its search by incremental Berge dualization, one step per added
edge.  It walks the prefixes on an explicit stack and takes each prefix's
next edges from tables of edges by color count, shared across calls.

The generator only enumerates, and _decide_column settles each candidate
in one loop: one with a minimal transversal below kb colors is never
blocked and is skipped before its last Berge step, by an exact test on its
prefix, and a greedy packing bound settles most of the rest before any
family search.  The search shrinks a list of transversals with each family
set tried, and the bound scans it once, stopping at more heads than sets
left.  Neither shortcut changes a verdict, a witness or a node count.

The points of a column share ka, kb and delta_b, so they walk the same
candidates and differ only in the family size they may use, min(delta_a,
C(covered, kb)), and _decide_column walks a column once.  A candidate's
packing heads, counted up to one more than the largest size still open,
settle at the root every point allowed fewer sets; the others search on
their own.  A point counts the walk's nodes plus its own search nodes, as
if it ran alone, and runs out once that sum passes the budget.

The two parts play symmetric roles.  A color set I serves the B side (meets
every B-list, holds no A-list) iff its complement serves the A side, so the
point (delta_a, delta_b, ka, kb) and its mirror (delta_b, delta_a, kb, ka)
always get the same verdict, and swapping the two list families turns a
witness at one into a witness at the other.  The enumeration only ever walks
the A-lists, delta_b edges over up to ka * delta_b colors, so decide_choosable
first orients the point: it enumerates the mirror when kb * delta_a is below
ka * delta_b, or equal with delta_a below delta_b.  Points whose two sides
tie on both counts, such as (7, 7, 3, 3), run as given.  _pad alone turns
the core the kernel finds into the witness at the point as given.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import random
from bisect import bisect_right
from math import comb
from typing import NamedTuple

from . import bounds
from .bounds import CHOOSABLE, RULE_SINGLETON_EXACT, RULE_TRIVIAL, UNCHOOSABLE, trivial_degrees
from .model import (
    ColorSystem,
    Coloring,
    ListInstance,
    RegimePoint,
    as_int,
    colors_of,
    instance_to_dict,
    mask_of,
    to_color_system,
)

EXHAUSTED = "exhausted"
RULE_ENUMERATION = "enumeration"

#: Default search budget, in explored nodes (not wall time, for
#: reproducibility).  Overridable per call and via CHOOSEKIT_BUDGET in the CLI.
#: One node is one step of a search: a branching step of either colorability
#: engine, or in decide_choosable one prefix or leaf of the candidate walk or
#: one call of the blocking-family search.  A node's wall time depends on
#: the point: on a 2-vCPU Xeon VM under Python 3.11 (one run each), (6,6,3,3)
#: decides in 372,304 nodes and 2.2 s (5.9 us per node), and (7,7,3,3)
#: exhausts this budget in 45 s (8.9 us per node).  At large symmetric
#: degrees it does not bound wall time: a Berge step is one node but is
#: quadratic in a transversal list that quadruples every 10 steps, so
#: (70,70,2,2) takes 75 nodes and 26 s (README gives more points).
DEFAULT_NODE_BUDGET = 5_000_000


class SearchBudgetExceeded(Exception):
    """Raised when a search exceeds its node budget; distinct from False."""

    def __init__(self, nodes):
        super().__init__(f"search budget exhausted after {nodes} nodes")
        self.nodes = nodes


class Verdict(NamedTuple):
    tag: str  # choosable | unchoosable | exhausted
    witness: object  # ListInstance for unchoosable (the kernel's core, for _pad), else None
    nodes_explored: int
    rule: str

    def to_dict(self) -> dict:
        d = {"tag": self.tag, "nodesExplored": self.nodes_explored, "rule": self.rule}
        if self.witness is not None:
            d["witness"] = instance_to_dict(self.witness)
        return d


class _Budget:
    """Counts nodes; raises SearchBudgetExceeded past limit (None: no limit)."""
    __slots__ = ("limit", "nodes")

    def __init__(self, limit):
        self.limit = limit
        self.nodes = 0

    def charge(self):
        self.nodes += 1
        if self.limit is not None and self.nodes > self.limit:
            raise SearchBudgetExceeded(self.nodes)


# --- engine (ii): independent transversal search ----------------------------

def independent_transversal_exists(system: ColorSystem, budget=None):
    """Does some independent set of H meet every family set?

    Returns (exists, witness) where witness is a tuple of colors forming such
    a set, or None.  Clause view: literal 2c puts color c in the set and
    2c + 1 keeps it out; each hyperedge is a clause of out literals, each
    family set one of in literals.  Solved by unit propagation plus
    branching on the lowest undecided color (in first).  When the in branch
    fails and the color lies in no unmet edge, the out branch is skipped
    (the pure-literal rule): any set found there stays a solution with the
    color moved in, since every edge holding it is already met.

    A node is three bitsets: the refuted literals, the unmet clauses and the
    clauses to check.  An index gives, per literal, the clauses holding it.
    The root checks every clause and a later node only those holding the
    negation of a literal just made true, so a step costs a few bitset
    operations per clause it touches.  The nodes wait on an explicit stack,
    a node's out branch under its in branch, so the depth of the search has
    no limit.
    """
    if not all(system.family):
        return (False, None)  # an empty family set can never be met
    clauses, holding = [], [0] * (2 * system.vertex_count)  # holding: per literal, the clauses holding it
    bit = 1  # the next clause's
    for sets, side in ((system.edges, 1), (system.family, 0)):
        for s in sets:
            clause = 0
            for c in s:
                lit = 2 * c + side
                clause |= 1 << lit
                holding[lit] |= bit
            clauses.append(clause)
            bit <<= 1
    ins = (4 ** system.vertex_count - 1) // 3  # every in literal: bit 2c for each color c
    b = _Budget(budget)
    stack = [(0, bit - 1, bit - 1)]  # (refuted literals, unmet clauses, clauses to check)
    while stack:
        b.charge()
        refuted, unmet, todo = stack.pop()
        while True:  # unit propagation to a fixed point; break on a conflict
            todo &= unmet
            if todo:
                i = todo & -todo
                todo ^= i
                left = clauses[i.bit_length() - 1] & ~refuted
                if left & (left - 1) == 0:
                    if not left:
                        break  # every literal of the clause is refuted
                    lit = left.bit_length() - 1
                    refuted |= 1 << (lit ^ 1)
                    unmet &= ~holding[lit]
                    todo |= holding[lit ^ 1]
            elif not unmet:
                return (True, tuple(lit >> 1 for lit in colors_of(refuted) if lit & 1))  # leftovers stay out
            else:
                undecided = ins & ~(refuted | refuted >> 1)
                lit = (undecided & -undecided).bit_length() - 1  # the lowest undecided color, in
                held_in, held_out = holding[lit], holding[lit + 1]
                if unmet & held_out:  # else no unmet edge holds it: out cannot succeed where in failed
                    stack.append((refuted | 1 << lit, unmet & ~held_out, held_in))
                stack.append((refuted | 2 << lit, unmet & ~held_in, held_out))
                break
    return (False, None)


# --- engine (i): backtracking over vertex colorings -------------------------

def _backtrack(instance: ListInstance, budget=None):
    """MRV backtracking; returns an assignment dict or None.

    Vertices are picked by ascending remaining-choice count, lowest index
    first, colors tried in ascending id (fail-first; any order is correct).
    Dominance cut: a color that removes nothing from any uncolored neighbor
    leaves every other vertex all its choices, and any other color of the
    same vertex leaves each of them a subset.  So when the subtree under
    such a color fails, the vertex's other colors are not tried.

    The state is bitsets over the vertices: per color, those that may still
    take it (their list holds it and no colored neighbor has it); per count
    k, those with k choices left (a colored vertex keeps the count it was
    picked with); and each vertex's neighbors, so complete and explicit
    adjacency share one loop.  Coloring a vertex takes its color from a
    mask of uncolored neighbors and moves that mask one count down: a step
    touches only the count buckets the mask meets (none when it is empty),
    with no per-neighbor loop and no scan for the minimum.  The colored
    vertices wait on an explicit stack, so the depth of the search has no
    limit.
    """
    na = instance.num_a()
    lists = instance.a_lists + instance.b_lists
    side_a, uncolored = (1 << na) - 1, (1 << len(lists)) - 1
    if instance.is_complete:
        near = [uncolored ^ side_a] * na + [side_a] * (len(lists) - na)
    else:
        near = [0] * len(lists)
        for a, bidx in instance.adjacency:
            near[a] |= 1 << (na + bidx)
            near[na + bidx] |= 1 << a
    colors, free = [], [0] * instance.universe  # free: per color, the vertices that may still take it
    by_count, bit = [0] * (max([1, *map(len, lists)]) + 1), 1  # a list holds at most len(l) colors
    for l in lists:
        m = 0
        for c in l:
            m |= 1 << c
            free[c] |= bit
        colors.append(m)
        by_count[m.bit_count()] |= bit
        bit <<= 1
    down, up = range(2, len(by_count)), range(len(by_count) - 2, 0, -1)
    b = _Budget(budget)
    stack = []  # one frame per colored vertex: (vertex, its bit, colors left to try, color, neighbors it bars)
    while True:
        b.charge()
        if not uncolored:
            break
        pick, k = (by_count[0] | by_count[1]) & uncolored, 2
        while not pick:
            pick, k = by_count[k] & uncolored, k + 1
        bit = pick & -pick
        v = bit.bit_length() - 1
        choices = colors[v]
        while True:
            if not choices:  # this vertex failed: undo its parent's color
                if not stack:
                    return None
                v, bit, choices, c, barred = stack.pop()
                uncolored |= bit
                if not barred:
                    choices = 0  # the dominance cut
                    continue
                free[c] |= barred
                for k in up:
                    moved = by_count[k] & barred
                    if moved:
                        by_count[k + 1] |= moved
                        by_count[k] ^= moved
                continue
            c = (choices & -choices).bit_length() - 1
            choices &= choices - 1
            if not free[c] & bit:
                continue  # a colored neighbor has c
            barred = near[v] & uncolored & free[c]
            if barred:
                if barred & by_count[1]:
                    continue  # c would take a neighbor's last choice
                free[c] ^= barred
                for k in down:
                    moved = by_count[k] & barred
                    if moved:
                        by_count[k - 1] |= moved
                        by_count[k] ^= moved
            uncolored ^= bit
            stack.append((v, bit, choices, c, barred))
            break
    return {("A", v) if v < na else ("B", v - na): c for v, _, _, c, _ in sorted(stack)}


def has_proper_coloring(instance: ListInstance, engine="auto", budget=None):
    """Decide whether the lists admit a proper coloring.

    Returns (found, coloring) with a validating certificate when found.
    engine: "backtracking", "transversal" (complete bipartite only), or
    "auto" (transversal when complete, else backtracking).  Budget overruns
    raise SearchBudgetExceeded rather than returning False.  Every color must
    lie in range(instance.universe), as model.validate requires.
    """
    if engine == "auto":
        engine = "transversal" if instance.is_complete else "backtracking"
    if engine == "backtracking":
        assignment = _backtrack(instance, budget)
        if assignment is None:
            return (False, None)
        return (True, Coloring(tuple(assignment.items())))  # in vertex order, Coloring's order
    if engine != "transversal":
        raise ValueError(f"unknown engine {engine!r}")
    if not instance.is_complete:
        raise ValueError("transversal engine needs a complete bipartite instance")
    system = to_color_system(instance)
    ok, chosen = independent_transversal_exists(system, budget)
    if not ok:
        return (False, None)
    inside, assignment = mask_of(chosen), []
    for side, lists, keep in (("A", instance.a_lists, ~inside), ("B", instance.b_lists, inside)):
        for i, l in enumerate(lists):  # each takes its lowest color on its side of the set
            m = mask_of(l) & keep
            assignment.append(((side, i), (m & -m).bit_length() - 1))
    return (True, Coloring(tuple(assignment)))


# --- exhaustive choosability decision ----------------------------------------

def _berge_step(transversals, e):
    """The minimal transversals once the edge mask e joins a hypergraph whose
    minimal transversals are given: one step of Berge's dualization.

    A transversal already meeting e stays, every other one grows by each
    color of e, and grown sets containing a kept set are dropped.  Nothing
    else can go non-minimal or repeat, since the family was minimal and every
    grown set holds exactly one color of e.  A missed t grown by c contains a
    kept k exactly when k holds c and its stem k ^ c lies inside t, so the
    test runs color by color against the stems of the kept sets holding c.
    The grown sets come out by color, not by t; no caller reads the order.
    """
    kept = []
    missed = []
    for t in transversals:
        (kept if t & e else missed).append(t)
    grown = []
    rest = e
    while rest:
        c = rest & -rest
        rest ^= c
        stems = [k ^ c for k in kept if k & c]
        for t in missed:
            for s in stems:
                if s & t == s:
                    break
            else:
                grown.append(t | c)
    return kept + grown


def _hypergraph_candidates(ka, num_edges, max_colors, budget):
    """The prefixes of num_edges - 1 >= 0 distinct ka-edges in canonical
    generation order, as (edges, minimal transversals as masks, leaf rows),
    a row being (edge, mask, colors covered after it): one candidate each.

    Edges are emitted lexicographically increasing with colors introduced in
    first-use order (a new edge's fresh colors are the next consecutive ids).
    Every isomorphism class over at most max_colors covered colors appears;
    relabel-equivalent orderings are rejected wholesale, which is what makes
    the exhaustion tractable.  Each appended edge costs one Berge step on the
    prefix's transversals, so no candidate is dualized from scratch.

    The walk is a depth-first search on an explicit stack, one node charged
    per prefix in preorder (the caller charges the leaves).  A prefix's
    children come from the shared edge table of its color count
    (_edge_table): the blocks that max_colors allows, each cut by bisection
    to the edges after the prefix's last one.
    """
    budget.charge()  # the empty prefix
    stack = [((), [0], iter(_child_rows(ka, 0, max_colors, ())))]
    while stack:
        edges, transversals, rows = stack[-1]
        if len(edges) == num_edges - 1:
            yield stack.pop()
            continue
        for e, m, nc in rows:
            budget.charge()
            child = _berge_step(transversals, m)
            stack.append((edges + (e,), child, iter(_child_rows(ka, nc, max_colors, e))))
            break
        else:
            stack.pop()


def _short_union(transversals, kb):
    """U of _decide_column's leaf rule for these prefix transversals; -1 is every color."""
    short = 0
    for t in transversals:
        size = t.bit_count()
        if size < kb - 1:
            return -1
        if size < kb:
            short |= t
    return short


#: Edge tables shared across calls, keyed by (ka, ncolors); see _edge_table.
#: A table depends on its key alone, so sharing it changes no result.
_EDGE_TABLES = {}
#: Rows the shared tables hold at most in all (a few megabytes).
_EDGE_TABLE_ROWS = 1 << 15


def _edge_table(ka, ncolors):
    """The ka-edges a prefix covering ncolors colors may append, in ka + 1
    blocks (edges, rows), rows being (edge, mask, colors covered after it):
    block f takes ka - f old colors, in combinations order, and the f next
    ids, so it is lexicographically increasing.  The tables are kept across
    calls; one that would take them past _EDGE_TABLE_ROWS rows drops the rest."""
    table = _EDGE_TABLES.get((ka, ncolors))
    if table is None:
        table = []
        for fresh in range(ka + 1):
            new_cols = tuple(range(ncolors, ncolors + fresh))
            edges = [olds + new_cols for olds in itertools.combinations(range(ncolors), ka - fresh)]
            table.append((edges, [(e, mask_of(e), ncolors + fresh) for e in edges]))
        if sum(len(edges) for t in [*_EDGE_TABLES.values(), table] for edges, _ in t) > _EDGE_TABLE_ROWS:
            _EDGE_TABLES.clear()
        _EDGE_TABLES[ka, ncolors] = table
    return table


def _child_rows(ka, ncolors, max_colors, last):
    """The rows of a prefix covering ncolors colors whose last edge is last:
    the blocks adding at most max_colors - ncolors fresh colors, each from
    its first edge after last on."""
    out = []
    for edges, rows in _edge_table(ka, ncolors)[: max_colors - ncolors + 1]:
        out += rows[bisect_right(edges, last):]
    return out


def _packing_heads(masks, kb, most):
    """Heads in the greedy packing of masks, counted up to most (at least 1):
    a mask is a head when it shares fewer than kb colors with every earlier one."""
    heads = []
    for m in masks:
        for h in heads:
            if (h & m).bit_count() >= kb:
                break
        else:
            heads.append(m)
            if len(heads) == most:
                break
    return len(heads)


def _family_search(unmet, kb, left, budget):
    """Search for at most left distinct kb-color sets such that every
    maximal independent set is disjoint from one of them; None if impossible.

    The maximal independent sets are the complements of the minimal
    transversals, so a set misses one exactly when it lies inside the
    matching transversal.  Checking maximal sets only is exact: shrinking an
    independent set keeps it disjoint from the same family member.  unmet
    holds the transversals in descending order (the maximal sets ascending),
    a list that each family set tried shrinks to the transversals not
    containing it.  The search branches on the kb-subsets of the first unmet
    transversal, one node per family set tried.  No candidate is already
    chosen: no chosen set lies inside an unmet transversal.  With one set
    left to choose, a candidate blocks the rest exactly when it lies in every
    unmet transversal; the first in lexicographic order is the kb lowest
    colors of their intersection.

    A kb-set lies inside two transversals only if they share kb colors, so
    unmet transversals that pairwise share fewer need one family set each.
    A greedy packing gives such a set of heads: take the first unmet
    transversal, drop every transversal sharing kb colors with it, repeat
    (_packing_heads finds the same heads in one scan).  Every call with at
    least two sets left is pruned when it has more heads than sets left; at
    the root this repeats _decide_column's test, so it never prunes there.
    Pruning never cuts off a family, so the first family found is the same.

    Every transversal has at least kb colors (_decide_column's leaf rule): a
    shorter one leaves no kb-subset inside it, so the search would spend
    nodes to find no family.
    """
    budget.charge()
    if not unmet:
        return []
    if left == 1:
        common = unmet[0]
        for t in unmet[1:]:
            common &= t
        cs = colors_of(common)[:kb]
        return [mask_of(cs)] if len(cs) == kb else None
    if _packing_heads(unmet, kb, left + 1) > left:
        return None
    for cs in itertools.combinations(colors_of(unmet[0]), kb):
        f = mask_of(cs)
        got = _family_search([t for t in unmet[1:] if t & f != f], kb, left - 1, budget)
        if got is not None:
            return [f] + got
    return None


def _decide_column(ka, kb, db, das, budget) -> dict:
    """decide_choosable's kernel, run as given on the points (da, db, ka, kb)
    for da in das in one walk (see the module docstring): their verdicts by
    da.  It enumerates the A-lists whichever side is cheaper.

    ka = 1 is exactly unchoosable iff delta_b >= kb.  Otherwise color
    systems with delta_b distinct edges over at most ka * delta_b colors are
    exhausted, pairing each with a search for a blocking family of at most
    min(delta_a, C(covered, kb)) distinct kb-sets (extra sets beyond the
    covered colors are always met).  The first in canonical order wins, its
    witness the core (covered colors, A-lists, family) that _pad pads.  Both
    degrees must be at least their list sizes.

    One loop settles every leaf, a prefix from _hypergraph_candidates plus
    an edge e of its rows.  It charges its node, and is skipped if it has a
    minimal transversal below kb colors (its maximal independent set meets
    every kb-set): with U the union of the prefix's minimal transversals
    below kb colors, or every color if one is below kb - 1, exactly when e
    meets U.  Proof: a prefix transversal t below kb that meets e is one of
    the leaf, and so is t plus a color of e when |t| < kb - 1.  Conversely a
    leaf transversal s below kb holds a minimal prefix transversal t, which
    meets e, so lies in U, or misses it, so t is a proper subset of s (which
    meets e) and |t| < kb - 1.  Other leaves go on to their Berge step.

    Before a leaf's searches, and once the walk ends, every open point
    past the budget runs out at budget + 1 nodes, where it crossed; it has
    searched nothing since, so closing it late changes nothing.  The walk's
    limit leaves the fewest own nodes room, so it stops with the last point.
    """
    if ka == 1:  # db >= kb: the singletons covering {0..kb-1}, blocked by the one kb-set
        core = (kb, tuple((i,) for i in range(kb)), (tuple(range(kb)),))
        return {da: Verdict(UNCHOOSABLE, core, 0, RULE_SINGLETON_EXACT) for da in das}
    done, own = {}, dict.fromkeys(sorted(das), 0)  # own: each open point's search nodes
    b = _Budget(budget)  # the walk's nodes, which every point counts

    def run_out():  # a point past the budget crossed it one node at a time
        for da in [da for da, n in own.items() if budget is not None and b.nodes + n > budget]:
            del own[da]
            done[da] = Verdict(EXHAUSTED, None, budget + 1, RULE_ENUMERATION)

    with contextlib.suppress(SearchBudgetExceeded):  # raised once every point is past the budget
        for prefix, transversals, rows in _hypergraph_candidates(ka, db, ka * db, b):
            short = _short_union(transversals, kb)
            for e, m, ncolors in rows:
                b.charge()  # a skipped leaf charges its node as if it were dualized
                if m & short:
                    continue
                masks = sorted(_berge_step(transversals, m), reverse=True)
                subsets = comb(ncolors, kb)
                cap = min(max(own), subsets)  # the most sets a point not yet closed may use
                heads = _packing_heads(masks, kb, cap + 1)
                if heads > cap:
                    continue  # settled at the root for every open point
                run_out()
                for da in [da for da in own if min(da, subsets) >= heads]:
                    search, fam = _Budget(None if budget is None else budget - b.nodes - own[da]), None
                    with contextlib.suppress(SearchBudgetExceeded):  # own[da] then passes the budget
                        fam = _family_search(masks, kb, min(da, subsets), search)
                    own[da] += search.nodes
                    if fam is not None:
                        core = (ncolors, prefix + (e,), tuple(map(colors_of, fam)))
                        done[da] = Verdict(UNCHOOSABLE, core, b.nodes + own.pop(da), RULE_ENUMERATION)
                if not own:
                    return done
                if budget is not None:
                    b.limit = budget - min(own.values())
    run_out()
    done.update((da, Verdict(CHOOSABLE, None, b.nodes + n, RULE_ENUMERATION)) for da, n in own.items())
    return done


def _side(point: RegimePoint) -> tuple:
    """(ka, kb, delta_b, delta_a) of the side the kernel runs on: the point's or its mirror's."""
    ka, kb, da, db = point.ka, point.kb, point.delta_a, point.delta_b
    return (kb, ka, da, db) if (kb * da, da) < (ka * db, db) else (ka, kb, db, da)


def _pad(core, side, point: RegimePoint) -> ListInstance:
    """The witness at point from a core the kernel found on side (ka, kb,
    delta_b, delta_a): (covered colors, distinct A-lists, blocking family).

    The family is padded up to delta_a B-lists, first with the unused
    kb-subsets of the covered colors in combinations order, then with
    repeats of the family in the order it was found; the A-lists are padded
    up to delta_b with repeats (only the ka = 1 core has fewer).  When side
    is the mirror, the two list families are swapped back.  Padding only adds
    vertices, and a coloring of the padded instance colors the core, which
    has none; so the witness is uncolorable too.
    """
    ncolors, a_lists, family = core
    kb, db, da = side[1:]
    unused = (s for s in itertools.combinations(range(ncolors), kb) if s not in family)
    fam = [*family, *itertools.islice(unused, da - len(family))]
    fam += [family[i % len(family)] for i in range(len(fam), da)]
    lists = [a_lists[i % len(a_lists)] for i in range(db)], sorted(fam)
    if side != (point.ka, point.kb, point.delta_b, point.delta_a):  # the kernel ran on the mirror
        lists = lists[::-1]
    return ListInstance.complete(ncolors, point.ka, point.kb, *lists)


class Sweep:
    """Points decide_choosable will be asked about, by the column the kernel
    walks for each.  The first call at a budget walks a column once; later
    calls read their verdicts.  An outside point joins its column, walked again."""

    def __init__(self, points):
        self.columns, self.verdicts = {}, {}
        for ka, kb, db, da in (_side(p) for p in points if not trivial_degrees(p)):
            self.columns.setdefault((ka, kb, db), set()).add(da)

    def verdict(self, side: tuple, budget) -> Verdict:
        """The kernel's verdict on a side (ka, kb, delta_b, delta_a)."""
        column, da = side[:3], side[3]
        if da not in self.verdicts.get((column, budget), ()):
            das = self.columns.get(column, set()) | {da}
            self.verdicts[column, budget] = _decide_column(*column, das, budget)
        return self.verdicts[column, budget][da]

    def walk(self, budget, mapper):
        """Walk every column at this budget now, through mapper, a map such as
        a process pool's, which walks the columns side by side.  Later calls
        read the verdicts."""
        columns = list(self.columns)
        das = [self.columns[c] for c in columns]
        walks = mapper(_decide_column, *zip(*columns), das, [budget] * len(columns))  # ka, kb, db
        self.verdicts.update(((c, budget), v) for c, v in zip(columns, walks))


def decide_choosable(point: RegimePoint, budget=DEFAULT_NODE_BUDGET, sweep=None) -> Verdict:
    """Is every list assignment at this parameter point colorable?

    A part with degree below its list size is always colorable.  Otherwise
    the point is decided on its cheaper side (see the module docstring): when
    (kb * delta_a, delta_a) < (ka * delta_b, delta_b), the kernel runs on the
    mirror (delta_b, delta_a, kb, ka).  _pad turns the core it finds into the
    witness at the point as given, which the transversal engine checks
    once (the padded instance, with every list).  nodesExplored and the rule
    are the kernel's on the side it ran.  A sweep (a Sweep holding the
    point) gives the same verdict, from a walk its column shares.
    """
    if trivial_degrees(point):
        return Verdict(CHOOSABLE, None, 0, RULE_TRIVIAL)
    side = _side(point)
    verdict = (sweep or Sweep([point])).verdict(side, budget)
    if verdict.witness is None:
        return verdict
    witness = _pad(verdict.witness, side, point)
    if has_proper_coloring(witness, engine="transversal")[0]:
        raise RuntimeError("internal error: witness admits a coloring")
    return verdict._replace(witness=witness)


# --- randomized reserve-coloring simulation ----------------------------------

class ReserveSimulation(NamedTuple):
    trials: int
    successes: int
    aborts: int          # too many A-vertices starved after reservation
    b_starved: int       # some B-vertex ended with no reserved color
    threshold: float     # starvation cap triggering the abort
    p: float
    seed: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


def simulate_reserve_coloring(
    instance: ListInstance, p: float, trials: int, seed: int, eps: float = 0.1
) -> ReserveSimulation:
    """Run the randomized reserve-and-repair coloring procedure.

    Each trial reserves every color for the B side independently with
    probability p, aborts when at least u0/f(u0) * (1 + eps/ka) * ln(|B|)
    A-vertices lose their whole list to the reservation, and otherwise
    unreserves one color per starved A-vertex (lowest id, in vertex order)
    before checking that every B-list still holds a reserved color.

    A trial succeeds exactly when the outcome yields a proper coloring
    (B inside the reservation, A outside), so an uncolorable assignment has
    success rate 0.  The abort guard is skipped when its cap is zero or
    undefined (|B| = 1 makes the cap vanish; ka = 1 makes f(u0) vanish):
    the cap is then meaningless and the repair step always runs.
    """
    if not instance.is_complete:
        raise ValueError("the procedure is defined on complete bipartite instances")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    trials = as_int(trials, "trials", 1)
    if instance.num_a() == 0 or instance.num_b() == 0:
        raise ValueError("both parts must be nonempty")

    ka = instance.ka
    res = bounds.alpha(ka)
    fu = bounds.entropy_f(res.u_star)
    ratio = res.u_star / fu if fu > 0 else math.inf
    threshold = ratio * (1.0 + eps / ka) * math.log(instance.num_b())
    if not math.isfinite(threshold):
        threshold = math.inf

    a_masks = [mask_of(l) for l in instance.a_lists]
    b_masks = [mask_of(l) for l in instance.b_lists]
    used = set().union(*instance.a_lists, *instance.b_lists)  # unused colors still draw, but hold no bit
    bits = [1 << c if c in used else 0 for c in range(instance.universe)]
    draw = random.Random(seed).random

    successes = aborts = b_starved = 0
    for _ in range(trials):
        reserved = 0
        for bit in bits:
            if draw() < p:
                reserved |= bit
        starved = [m for m in a_masks if m & reserved == m]
        if 0.0 < threshold <= len(starved):
            aborts += 1
            continue
        for m in starved:
            if m & reserved == m:  # earlier repairs may already have freed it
                reserved ^= m & -m
        for m in b_masks:
            if not m & reserved:
                b_starved += 1
                break
        else:
            successes += 1
    return ReserveSimulation(trials, successes, aborts, b_starved, threshold, p, seed)
