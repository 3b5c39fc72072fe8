"""An oracle for decide_choosable that shares no code with its kernel.

A point (dA, dB, kA, kB) is unchoosable when some dB kA-lists (the A side)
and dA kB-lists (the B side) admit no colouring: no colour set I that holds
no A-list (the A side takes colours outside I) meets every B-list (the B side
takes colours inside I).  Only maximal such sets matter, and a colour in no
A-list lies in every maximal set, so kA*dB colours suffice.  With the A-lists
fixed, the B side needs one kB-set disjoint from each maximal set; with m the
fewest that do, the point is unchoosable exactly when m exists and dA >= m
(further B-vertices repeat a list).  The oracle tries every multiset of
A-lists and scans every colour set: no enumeration order, Berge step or
packing bound in common with the kernel.
"""

import itertools

from choosekit import RegimePoint, decide_choosable

MAX_DA = 8
UNCHOOSABLE_CELLS = 189  # of the 352 cells (44 columns, dA = 1..8)


def _maximal_free_sets(a_lists, n):
    """The maximal colour sets (bitmasks over n colours) holding no A-list."""
    masks = [sum(1 << c for c in l) for l in a_lists]
    holds = lambda s: any(m & s == m for m in masks)
    return [
        s for s in range(1 << n)
        if not holds(s) and all(s >> c & 1 or holds(s | 1 << c) for c in range(n))
    ]


def _fewest_blocking_sets(maximal, n, kb, bound):
    """The fewest kB-sets such that each maximal set is disjoint from one of
    them, if that is below bound, else None.  A plain DFS: branch on the
    kB-subsets outside the first maximal set no chosen set is disjoint from."""
    best = bound

    def search(left, used):
        nonlocal best
        if not left:
            best = used
        elif used + 1 < best:
            outside = [c for c in range(n) if not left[0] >> c & 1]
            for combo in itertools.combinations(outside, kb):
                chosen = sum(1 << c for c in combo)
                search([s for s in left if s & chosen], used + 1)

    search(maximal, 0)
    return best if best < bound else None


def _column_threshold(ka, kb, db):
    """The least dA <= MAX_DA at which (dA, db, ka, kb) is unchoosable, or None."""
    n = ka * db
    bound = MAX_DA + 1
    for a_lists in itertools.combinations_with_replacement(itertools.combinations(range(n), ka), db):
        m = _fewest_blocking_sets(_maximal_free_sets(a_lists, n), n, kb, bound)
        bound = m or bound
    return bound if bound <= MAX_DA else None


def test_decide_matches_the_brute_force_oracle():
    columns = [(ka, kb, db) for ka in (1, 2, 3) for kb in (1, 2, 3, 4) for db in range(1, 7)
               if ka * db <= 6]
    assert len(columns) == 44
    wrong, unchoosable = [], 0
    for ka, kb, db in columns:
        threshold = _column_threshold(ka, kb, db)
        for da in range(1, MAX_DA + 1):
            expected = "unchoosable" if threshold is not None and da >= threshold else "choosable"
            unchoosable += expected == "unchoosable"
            got = decide_choosable(RegimePoint(da, db, ka, kb)).tag
            if got != expected:
                wrong.append(((da, db, ka, kb), got, expected))
    assert wrong == []
    assert unchoosable == UNCHOOSABLE_CELLS
