"""Amplification operators that grow uncolorable instances.

Both operators act on concrete list assignments over product colors
(c, i) for i in 1..r, flattened to the dense id c*r + (i-1):

* blowup: A' = A x [r] with per-copy recolored lists; B' = B^r, each tuple
  taking the union of its members' lists in the matching copy.  An
  uncolorable input with B-list size kb yields an uncolorable output with
  B-list size r*kb.
* expand: every A-vertex becomes s^ka copies indexed by [s]^ka, copy
  (a_1..a_ka) taking {(l_j, a_j)} for the vertex's ordered list l_1 < ... <
  l_ka; B keeps its neighborhoods with lists L(v) x [s].  Uncolorable input
  yields an output not colorable with B-lists of size s*kb.

Parameter-level versions track the same growth on parameter points.
"""

from __future__ import annotations

import itertools

from .model import COMPLETE, ListInstance, RegimePoint, as_int, check_list_entries

BLOWUP = "blowup"
EXPANSION = "expansion"


def blowup(instance: ListInstance, r: int) -> ListInstance:
    """r-fold blowup; preserves uncolorability, multiplies kb by r."""
    r = as_int(r, "r", 1)
    na, nb = instance.num_a(), instance.num_b()
    check_list_entries((instance.ka * na * r, 1, 1), (r * instance.kb, nb, r))
    universe = instance.universe * r

    a_lists = [[c * r + i for c in l] for l in instance.a_lists for i in range(r)]

    b_lists = []
    tuples = list(itertools.product(range(nb), repeat=r))
    for combo in tuples:
        cols = []
        for i, v in enumerate(combo):
            cols.extend(c * r + i for c in instance.b_lists[v])
        b_lists.append(cols)

    edges = COMPLETE
    if not instance.is_complete:  # (v, i) is adjacent to (v_1..v_r) iff v ~ v_i in the input
        old = set(instance.adjacency)
        edges = [(va * r + i, bi) for va in range(na) for i in range(r)
                 for bi, combo in enumerate(tuples) if (va, combo[i]) in old]
    return ListInstance(universe, instance.ka, r * instance.kb, a_lists, b_lists, edges)


def expand(instance: ListInstance, s: int) -> ListInstance:
    """s-expansion: s^ka copies per A-vertex; multiplies kb by s.

    A copy's tag indexes the A-list in its stored, ascending order, which
    fixes the otherwise arbitrary copy labeling.
    """
    s = as_int(s, "s", 1)
    ka = instance.ka
    check_list_entries((ka * instance.num_a(), s, ka), (s * instance.kb * instance.num_b(), 1, 1))
    universe = instance.universe * s
    copies = list(itertools.product(range(s), repeat=ka))

    a_lists = [[l[j] * s + tag[j] for j in range(ka)] for l in instance.a_lists for tag in copies]
    b_lists = [[c * s + i for c in l for i in range(s)] for l in instance.b_lists]

    per = len(copies)
    edges = COMPLETE if instance.is_complete else [
        (va * per + t, bi) for va, bi in instance.adjacency for t in range(per)
    ]
    return ListInstance(universe, ka, s * instance.kb, a_lists, b_lists, edges)


def amplify_params(point: RegimePoint, kind: str, r: int) -> RegimePoint:
    """Parameter image of an amplification applied to an uncolorable point.

    blowup: (da, db, ka, kb) -> (da^r, r*db, ka, r*kb)
    expansion: (da, db, ka, kb) -> (da, r^ka * db, ka, r*kb)

    Integers are arbitrary precision, numpy input included (as_int makes it
    a Python int), so the exponential growth in da or db cannot overflow.
    """
    r = as_int(r, "r", 1)
    if kind == BLOWUP:
        return RegimePoint(point.delta_a**r, r * point.delta_b, point.ka, r * point.kb)
    if kind == EXPANSION:
        return RegimePoint(point.delta_a, r**point.ka * point.delta_b, point.ka, r * point.kb)
    raise ValueError(f"unknown amplification kind {kind!r}")

