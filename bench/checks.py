"""Reference checks, independent of the functions they check.

Each check returns a list of problems (strings); an empty list means the
output is correct.  None of these run inside a timed interval.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path


REFERENCE = Path(__file__).resolve().parent / "reference"
FRONTIER_HEADER = ["deltaA", "deltaB", "kA", "kB", "xi", "verdict", "rule", "nodesExplored"]
DECIDED = ("choosable", "unchoosable")


# --- colourings ----------------------------------------------------------------

def coloring_problems(instance, coloring) -> list:
    """Every vertex coloured from its own list and no edge monochromatic."""
    colors = dict(coloring.assignment)
    out = []
    for side, lists in (("A", instance.a_lists), ("B", instance.b_lists)):
        for i, lst in enumerate(lists):
            c = colors.get((side, i))
            if c not in lst:
                out.append(f"{side}{i} coloured {c}, list {list(lst)}")
    if len(colors) != len(instance.a_lists) + len(instance.b_lists):
        out.append("colouring has vertices the instance does not")
    if instance.adjacency == "complete":
        # every A-vertex meets every B-vertex: no colour may be used on both sides
        sides = [{c for (side, _), c in colors.items() if side == s} for s in "AB"]
        out += [f"colour {c} on both sides" for c in sorted(sides[0] & sides[1])]
    else:
        out += [f"edge ({a},{b}) monochromatic" for a, b in instance.adjacency
                if colors.get(("A", a)) == colors.get(("B", b))]
    return out


def _mask(colors) -> int:
    return sum(1 << c for c in set(colors))


def colorable_oracle(universe, a_lists, b_lists) -> bool:
    """Exhaustive search for a complete bipartite list assignment.

    A colouring exists iff some colour set I (the B side's colours) contains
    no whole A-list and meets every B-list.  Colours are put in or out of I
    one at a time, and a branch ends once an A-list lies inside I or a
    B-list outside it.  It allocates nothing that grows with 2^universe, so
    running it between timed passes leaves the peak memory figure alone.
    """
    a = {_mask(lst) for lst in a_lists}
    b = {_mask(lst) for lst in b_lists}

    def search(color, inside, outside):
        if any(m & inside == m for m in a) or any(m & outside == m for m in b):
            return False
        if color == universe:
            return True
        bit = 1 << color
        return search(color + 1, inside | bit, outside) or search(color + 1, inside, outside | bit)

    return search(0, 0, 0)


def transversal_problems(edges, family, chosen) -> list:
    """`chosen` holds no whole edge and meets every family set."""
    chosen = set(chosen)
    out = [f"edge {e} inside the certificate" for e in edges if set(e) <= chosen]
    out += [f"family set {f} missed" for f in family if not chosen & set(f)]
    return out


# --- frontier ------------------------------------------------------------------

def load_frontier_reference() -> dict:
    with open(REFERENCE / "frontier.csv", newline="") as fh:
        return {
            tuple(int(r[k]) for k in ("deltaA", "deltaB", "kA", "kB")): r["verdict"]
            for r in csv.DictReader(fh)
        }


def xi_value(da, db, ka, kb) -> float:
    if ka == 1:
        return db / kb
    return db * math.log(da) ** (ka - 1) / kb**ka


def frontier_problems(grid, csv_text, rc, reference, classify) -> dict:
    """Problems per cell (da, db, ka, kb) of one `frontier` grid output.

    grid is (ka, kb, max_a, max_b); classify is `bounds.classify`, a module
    other than the decision engine, used only where its rule is decisive.
    """
    ka, kb, max_a, max_b = grid
    cells = [(da, db, ka, kb) for da in range(1, max_a + 1) for db in range(1, max_b + 1)]
    out = {c: [] for c in cells}
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != FRONTIER_HEADER:
        for c in cells:
            out[c].append("missing or wrong CSV header")
        return out
    got = {}
    for row in rows[1:]:
        key = tuple(int(x) for x in row[:4])
        got[key] = row
    for c in cells:
        row = got.get(c)
        if row is None:
            out[c].append("cell missing from output")
            continue
        verdict = row[5]
        if verdict not in DECIDED + ("exhausted",):
            out[c].append(f"unknown verdict {verdict!r}")
        if not math.isclose(float(row[4]), xi_value(*c), rel_tol=1e-10, abs_tol=1e-12):
            out[c].append(f"xi {row[4]} != {xi_value(*c):.12g}")
        want = reference.get(c)
        if want in DECIDED and verdict != want:
            out[c].append(f"verdict {verdict}, reference {want}")
        if verdict in DECIDED:
            report = classify(c)
            if report.verdict in DECIDED and report.verdict != verdict:
                out[c].append(f"contradicts classify rule {report.rule}")
    if len(got) != len(cells):
        for c in cells:
            out[c].append(f"output has {len(got)} cells, grid has {len(cells)}")
    verdicts = {c: got[c][5] for c in cells if c in got}
    for (da, db, a, b), v in verdicts.items():
        if v != "unchoosable":
            continue
        for bigger in ((da + 1, db, a, b), (da, db + 1, a, b)):
            if verdicts.get(bigger) == "choosable":
                out[bigger].append(f"choosable above unchoosable {(da, db, a, b)}")
    want_rc = 1 if "exhausted" in verdicts.values() else 0
    if rc != want_rc:
        for c in cells:
            out[c].append(f"exit code {rc}, expected {want_rc}")
    return out


def witness_problems(point, witness, has_proper_coloring) -> list:
    """An unchoosable verdict's witness sits at its point and has no colouring,
    by the backtracking engine and by the brute-force oracle."""
    out = []
    na, nb = len(witness.a_lists), len(witness.b_lists)
    if (nb, na, witness.ka, witness.kb) != point:
        out.append(f"witness shape {(nb, na, witness.ka, witness.kb)} != point {point}")
    if has_proper_coloring(witness, engine="backtracking")[0]:
        out.append("backtracking colours the witness")
    if colorable_oracle(witness.universe, witness.a_lists, witness.b_lists):
        out.append("oracle colours the witness")
    return out


# --- blocking probability -------------------------------------------------------

def order_count_p(s_size, t_size, edges) -> Fraction:
    """Share of the (s+t)! vertex orders in which every S-vertex comes after
    one of its T-neighbours, counted one prefix (vertex set) at a time."""
    n = s_size + t_size
    if n > 8:
        raise ValueError("order count limited to 8 vertices")
    nbr = [0] * n
    for i, j in edges:
        nbr[i] |= 1 << (s_size + j)
    ways = [0] * (1 << n)
    ways[0] = 1
    for placed in range(1 << n):
        if not ways[placed]:
            continue
        for v in range(n):
            if placed >> v & 1:
                continue
            if v < s_size and not nbr[v] & placed:
                continue
            ways[placed | 1 << v] += ways[placed]
    return Fraction(ways[-1], math.factorial(n))


def blocking_problems(graph, p, mc, bound, equality_j=None) -> list:
    """graph is (s, t, edges); p exact, mc a Monte Carlo estimate, bound the
    degree bound; equality_j marks a union of j copies of K_{a,a}."""
    s, t, edges = graph
    out = []
    if not isinstance(p, Fraction) or not 0 <= p <= 1:
        return [f"p = {p!r} is not a probability"]
    if float(p) > bound * (1 + 1e-12):
        out.append(f"p = {float(p)} above the degree bound {bound}")
    sigma = math.sqrt(float(p) * (1 - float(p)) / mc.trials)
    if abs(mc.estimate - float(p)) > 5 * sigma:
        out.append(f"Monte Carlo {mc.estimate} more than 5 sigma from {float(p)}")
    if s + t <= 8 and p != order_count_p(s, t, edges):
        out.append(f"p = {p}, order count {order_count_p(s, t, edges)}")
    if equality_j is not None and p != Fraction(1, 2**equality_j):
        out.append(f"equality family: p = {p}, expected 1/{2**equality_j}")
    return out


# --- selftest --------------------------------------------------------------------

def load_selftest_reference() -> dict:
    with open(REFERENCE / "selftest.json") as fh:
        return json.load(fh)


def selftest_problems(results, reference) -> dict:
    """Problems per criterion index 1..10 of one run_criteria() result list."""
    out = {i: [] for i in range(1, 11)}
    seen = {}
    for r in results:
        if r.index in seen or r.index not in out:
            out.setdefault(r.index, []).append("duplicate or unknown criterion")
        seen[r.index] = r
    for i in out:
        r = seen.get(i)
        if r is None:
            out[i].append("criterion missing")
            continue
        want = i in reference["passed"]
        if r.passed != want:
            out[i].append(f"passed={r.passed}, reference {want}: {r.detail}")
        if i == 8 and f"measured {reference['criterion_8_measured']}" not in r.detail:
            out[i].append(f"criterion 8 measured value changed: {r.detail}")
    return out
