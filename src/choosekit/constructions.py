"""Generators of explicitly uncolorable list assignments.

The block construction: split ka * sum(a) colors into ka*r blocks C[i][j] of
size a_i, give the A side every transversal of the blocks of each group i
(one element from C[i][j] for each j), and give the B side every union
C[1][e_1] u ... u C[r][e_r] over choices e in {1..ka}^r.  Any coloring would
need, for some choice vector e, no B-vertex colored inside any C[i][e_i],
contradicting the B-list for that e; the A-lists rule out the alternative.
The result is an instance on K_{delta_b, delta_a} with delta_a = ka^r,
delta_b = sum(a_i^ka), kb = sum(a_i), and no proper coloring.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .model import ListInstance, as_int, check_list_entries


class _BlockSpec(NamedTuple):
    ka: int
    a: tuple  # positive block sizes a_1..a_r, r >= 1


class BlockSpec(_BlockSpec):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, ka, a):
        ka, a = as_int(ka, "ka", 1), tuple(as_int(x, "a", 1) for x in a)
        if not a:
            raise ValueError("a must be a nonempty tuple of positive integers")
        return super().__new__(cls, ka, a)

    @property
    def r(self) -> int:
        return len(self.a)

    @property
    def delta_a(self) -> int:
        return self.ka ** self.r

    @property
    def delta_b(self) -> int:
        return sum(x**self.ka for x in self.a)

    @property
    def kb(self) -> int:
        return sum(self.a)


def construct_blocks(spec: BlockSpec) -> ListInstance:
    """Build the block-construction instance for spec; always uncolorable.

    Color ids are laid out contiguously block by block in (i, j) order, so
    instances are byte-stable across runs.  A-lists enumerate transversals in
    lexicographic product order; B-lists enumerate choice vectors likewise.
    """
    ka, a = spec.ka, spec.a
    check_list_entries(*((ka, x, ka) for x in a), (spec.kb, ka, spec.r))
    blocks = []
    nxt = 0
    for size in a:
        row = []
        for _ in range(ka):
            row.append(tuple(range(nxt, nxt + size)))
            nxt += size
        blocks.append(row)
    universe = nxt

    a_lists = [combo for row in blocks for combo in itertools.product(*row)]
    b_lists = []
    for choice in itertools.product(range(ka), repeat=spec.r):
        cols = []
        for i, e in enumerate(choice):
            cols.extend(blocks[i][e])
        b_lists.append(cols)
    return ListInstance.complete(universe, ka, spec.kb, a_lists, b_lists)


def construct_simple(ka: int, a: int, r: int) -> ListInstance:
    """Uniform block construction: all r block sizes equal to a."""
    ka, a, r = as_int(ka, "ka", 1), as_int(a, "a", 1), as_int(r, "r", 1)
    check_list_entries((ka * r, a, ka), (r * a, ka, r))  # before a tuple of r sizes
    return construct_blocks(BlockSpec(ka, (a,) * r))
