"""Core data model: colors, list assignments, parameter points, serialization.

Colors are dense integer ids: a universe of size n uses exactly {0..n-1}.
All model values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

COMPLETE = "complete"


@dataclass(frozen=True)
class RegimePoint:
    """A point (delta_a, delta_b, ka, kb) of the parameter space.

    delta_a is the maximum degree on the A side (= |B| for a complete
    bipartite graph) and delta_b the maximum degree on the B side (= |A|).
    ka and kb are the list sizes of the A and B parts.
    """

    delta_a: int
    delta_b: int
    ka: int
    kb: int

    def __post_init__(self):
        for name in ("delta_a", "delta_b", "ka", "kb"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")


@dataclass(frozen=True)
class ListInstance:
    """A bipartite graph with per-vertex color lists.

    a_lists[i] is the color list of the i-th A-vertex (size ka each),
    b_lists[j] of the j-th B-vertex (size kb each).  adjacency is either
    COMPLETE or an explicit tuple of (a_index, b_index) pairs.  Lists are
    stored as sorted tuples; construction normalizes order but keeps
    duplicates so that validate() can report them.
    """

    universe: int
    ka: int
    kb: int
    a_lists: tuple
    b_lists: tuple
    adjacency: object = COMPLETE

    @staticmethod
    def complete(universe, ka, kb, a_lists, b_lists) -> "ListInstance":
        return ListInstance(
            universe,
            ka,
            kb,
            tuple(tuple(sorted(l)) for l in a_lists),
            tuple(tuple(sorted(l)) for l in b_lists),
            COMPLETE,
        )

    @staticmethod
    def explicit(universe, ka, kb, a_lists, b_lists, edges) -> "ListInstance":
        return ListInstance(
            universe,
            ka,
            kb,
            tuple(tuple(sorted(l)) for l in a_lists),
            tuple(tuple(sorted(l)) for l in b_lists),
            tuple(sorted((int(a), int(b)) for a, b in edges)),
        )

    @property
    def is_complete(self) -> bool:
        return self.adjacency == COMPLETE

    def num_a(self) -> int:
        return len(self.a_lists)

    def num_b(self) -> int:
        return len(self.b_lists)

    def edges(self):
        """Iterate (a_index, b_index) pairs of the adjacency."""
        if self.is_complete:
            for a in range(self.num_a()):
                for b in range(self.num_b()):
                    yield (a, b)
        else:
            yield from self.adjacency

    def point(self) -> RegimePoint:
        """The parameter point of a complete-bipartite instance."""
        if not self.is_complete:
            raise ValueError("parameter point is defined for complete bipartite instances only")
        return RegimePoint(self.num_b(), self.num_a(), self.ka, self.kb)


@dataclass(frozen=True)
class ColorSystem:
    """A ka-uniform hypergraph on colors plus a family of kb-subsets.

    The image of a deduplicated complete-bipartite ListInstance: edges are
    the distinct A-lists, family the distinct B-lists.  Both are stored as
    sorted tuples of sorted tuples for deterministic iteration.
    """

    vertex_count: int
    edges: tuple
    family: tuple

    @staticmethod
    def make(vertex_count, edges, family) -> "ColorSystem":
        e = tuple(sorted(set(tuple(sorted(x)) for x in edges)))
        f = tuple(sorted(set(tuple(sorted(x)) for x in family)))
        return ColorSystem(vertex_count, e, f)


@dataclass(frozen=True)
class Coloring:
    """A total color assignment, keyed by ('A'|'B', vertex index)."""

    assignment: tuple  # sorted tuple of ((side, index), color)

    @staticmethod
    def make(mapping) -> "Coloring":
        return Coloring(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict:
        return dict(self.assignment)


def _check_list(l, size, universe, label, out):
    if len(set(l)) != len(l):
        out.append(f"{label} has repeated color")
    if len(set(l)) != size:
        out.append(f"{label} has {len(set(l))} distinct colors, expected {size}")
    for c in l:
        if not (0 <= c < universe):
            out.append(f"{label} color {c} out of universe [0, {universe})")


def validate(instance: ListInstance) -> list:
    """Return every violated instance invariant; empty list iff well-formed.

    Violations are data, not failures: malformed instances never raise here.
    """
    out = []
    if instance.universe < 0:
        out.append("universe size is negative")
    for i, l in enumerate(instance.a_lists):
        _check_list(l, instance.ka, instance.universe, f"aLists[{i}]", out)
    for j, l in enumerate(instance.b_lists):
        _check_list(l, instance.kb, instance.universe, f"bLists[{j}]", out)
    if not instance.is_complete:
        na, nb = instance.num_a(), instance.num_b()
        seen = set()
        for a, b in instance.adjacency:
            if not (0 <= a < na and 0 <= b < nb):
                out.append(f"edge ({a},{b}) out of range")
            if (a, b) in seen:
                out.append(f"edge ({a},{b}) repeated")
            seen.add((a, b))
    return out


def validate_coloring(instance: ListInstance, coloring: Coloring) -> list:
    """Check a coloring: every vertex colored from its own list, no edge monochromatic."""
    out = []
    c = coloring.as_dict()
    for side, lists in (("A", instance.a_lists), ("B", instance.b_lists)):
        for i, l in enumerate(lists):
            key = (side, i)
            if key not in c:
                out.append(f"vertex {key} not colored")
            elif c[key] not in l:
                out.append(f"vertex {key} colored outside its list")
    for a, b in instance.edges():
        if ("A", a) in c and ("B", b) in c and c[("A", a)] == c[("B", b)]:
            out.append(f"edge ({a},{b}) monochromatic with color {c[('A', a)]}")
    return out


def to_color_system(instance: ListInstance) -> ColorSystem:
    """Map a complete-bipartite instance to its color system (H, F).

    Duplicate lists are dropped first: a duplicated list adds no constraint
    beyond its first copy, so the system of distinct lists decides the same
    colorability question.
    """
    if not instance.is_complete:
        raise ValueError("color system is defined for complete bipartite instances only")
    return ColorSystem.make(instance.universe, instance.a_lists, instance.b_lists)


# --- JSON interchange -------------------------------------------------------

def instance_to_dict(instance: ListInstance) -> dict:
    adj = "complete" if instance.is_complete else [list(e) for e in instance.adjacency]
    return {
        "universe": instance.universe,
        "kA": instance.ka,
        "kB": instance.kb,
        "adjacency": adj,
        "aLists": [sorted(l) for l in instance.a_lists],
        "bLists": [sorted(l) for l in instance.b_lists],
    }


def require_keys(d, keys) -> None:
    """Raise a ValueError unless d is a JSON object holding every key in keys."""
    if not isinstance(d, dict) or not set(keys) <= d.keys():
        names = ", ".join(keys[:-1]) + " and " + keys[-1]
        raise ValueError(f"need a JSON object with keys {names}")


def int_rows(x, length=None) -> bool:
    """Is x a list of lists of integers, each of the given length if any?"""
    return (
        isinstance(x, list)
        and all(isinstance(row, list) and (length is None or len(row) == length) for row in x)
        and {type(v) for row in x for v in row} <= {int}
    )


def instance_from_dict(d) -> ListInstance:
    """The instance a JSON object describes.  A ValueError names a missing
    key or a value of the wrong type; lists that break the instance
    invariants are left to validate()."""
    require_keys(d, ("universe", "kA", "kB", "adjacency", "aLists", "bLists"))
    if not all(type(d[key]) is int for key in ("universe", "kA", "kB")):
        raise ValueError("universe, kA and kB must be integers")
    if not (int_rows(d["aLists"]) and int_rows(d["bLists"])):
        raise ValueError("aLists and bLists must be lists of integer lists")
    adj = d["adjacency"]
    if adj == COMPLETE:
        return ListInstance.complete(d["universe"], d["kA"], d["kB"], d["aLists"], d["bLists"])
    if not int_rows(adj, 2):
        raise ValueError(
            f'adjacency must be "{COMPLETE}" or a list of [a-index, b-index] integer pairs'
        )
    return ListInstance.explicit(d["universe"], d["kA"], d["kB"], d["aLists"], d["bLists"], adj)


def read_json(path, decode):
    """decode(the JSON value in the file at path).  Every ValueError, from
    reading, parsing or decode, starts with the path."""
    try:
        with open(path) as fh:
            d = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ValueError(f"{path} is not JSON: {exc}") from None
    try:
        return decode(d)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def dump_instance(instance: ListInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(instance), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> ListInstance:
    return read_json(path, instance_from_dict)


# --- bitmask helpers shared by the search kernels ---------------------------

def mask_of(colors: Iterable[int]) -> int:
    m = 0
    for c in colors:
        m |= 1 << c
    return m


def colors_of(mask: int) -> tuple:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask &= mask - 1
    return tuple(out)
