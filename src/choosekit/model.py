"""Core data model: colors, list assignments, parameter points, serialization.

Colors are dense integer ids: a universe of size n uses exactly {0..n-1}.
All model values are named tuples: immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import contextlib
import json
import math
import operator
import os
from typing import Iterable, NamedTuple

COMPLETE = "complete"


#: The most list entries (colors of lists, both sides) that amplify and
#: constructions build; a larger output is a ValueError before any is built.
MAX_LIST_ENTRIES = 2**22


def check_list_entries(*terms) -> None:
    """Raise a ValueError past the cap on sum(size * base**exp) over the
    (size, base, exp) terms.  Cutting exp to the cap's bit length builds no
    huge power, yet keeps a base of 2 or more past the cap."""
    cut = MAX_LIST_ENTRIES.bit_length()
    if sum(size * base ** min(exp, cut) for size, base, exp in terms) > MAX_LIST_ENTRIES:
        raise ValueError(f"the output would have more than {MAX_LIST_ENTRIES} list entries")


def as_int(value, name, low=-math.inf) -> int:
    """value as a Python int of at least low.  Python and numpy integers
    pass (what operator.index takes), bool does not; anything else raises
    a ValueError that names the argument."""
    if type(value) is int and value >= low:
        return value
    with contextlib.suppress(TypeError):
        if not isinstance(value, bool) and operator.index(value) >= low:
            return operator.index(value)
    kind = {0: "a non-negative integer", 1: "a positive integer", -math.inf: "an integer"}
    raise ValueError(f"{name} must be {kind.get(low, f'an integer >= {low}')}, got {value!r}")


class _RegimePoint(NamedTuple):
    delta_a: int
    delta_b: int
    ka: int
    kb: int


class RegimePoint(_RegimePoint):
    """A point (delta_a, delta_b, ka, kb) of the parameter space.

    delta_a is the maximum degree on the A side (= |B| for a complete
    bipartite graph) and delta_b the maximum degree on the B side (= |A|).
    ka and kb are the list sizes of the A and B parts.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, delta_a, delta_b, ka, kb):
        return super().__new__(cls, as_int(delta_a, "delta_a", 1), as_int(delta_b, "delta_b", 1),
                               as_int(ka, "ka", 1), as_int(kb, "kb", 1))


class _ListInstance(NamedTuple):
    universe: int
    ka: int
    kb: int
    a_lists: tuple
    b_lists: tuple
    adjacency: object


class ListInstance(_ListInstance):
    """A bipartite graph with per-vertex color lists.

    a_lists[i] is the color list of the i-th A-vertex (size ka each),
    b_lists[j] of the j-th B-vertex (size kb each).  adjacency is either
    COMPLETE or (a_index, b_index) pairs, stored sorted.  Every construction,
    _replace included, stores each list as a sorted tuple, so callers pass
    lists in any order, and the sizes, colors and edge indices as Python
    ints.  A size or color the integer rule (as_int) refuses, and duplicates,
    are kept for validate() to report.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace normalises too

    def __new__(cls, universe, ka, kb, a_lists, b_lists, adjacency=COMPLETE):
        if not (isinstance(adjacency, str) and adjacency == COMPLETE):  # numpy compares elementwise
            adjacency = index_pairs(adjacency, "adjacency")
        return super().__new__(cls, *map(_plain, (universe, ka, kb)), _sort_each(a_lists),
                               _sort_each(b_lists), adjacency)

    @staticmethod
    def complete(universe, ka, kb, a_lists, b_lists) -> "ListInstance":
        return ListInstance(universe, ka, kb, a_lists, b_lists)

    @staticmethod
    def explicit(universe, ka, kb, a_lists, b_lists, edges) -> "ListInstance":
        return ListInstance(universe, ka, kb, a_lists, b_lists, edges)

    @property
    def is_complete(self) -> bool:
        return self.adjacency == COMPLETE

    def num_a(self) -> int:
        return len(self.a_lists)

    def num_b(self) -> int:
        return len(self.b_lists)

    def point(self) -> RegimePoint:
        """The parameter point of a complete-bipartite instance."""
        if not self.is_complete:
            raise ValueError("parameter point is defined for complete bipartite instances only")
        return RegimePoint(self.num_b(), self.num_a(), self.ka, self.kb)


class ColorSystem(NamedTuple):
    """A ka-uniform hypergraph on colors plus a family of kb-subsets.

    The image of a deduplicated complete-bipartite ListInstance: edges are
    the distinct A-lists, family the distinct B-lists, each a tuple of
    sorted tuples in the order of their first copy in the instance.  Stored
    as given, not normalised as ListInstance is: to_color_system passes it
    an instance's lists, which are sorted already.
    """

    vertex_count: int
    edges: tuple
    family: tuple


class Coloring(NamedTuple):
    """A total color assignment, keyed by ('A'|'B', vertex index)."""

    assignment: tuple  # sorted tuple of ((side, index), color)

    @staticmethod
    def make(mapping) -> "Coloring":
        return Coloring(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict:
        return dict(self.assignment)


def index_pairs(edges, name) -> tuple:
    """edges as a sorted tuple of (i, j) pairs of ints (see as_int); name is the argument's."""
    pairs = []
    for e in edges:
        try:
            i, j = e
        except (TypeError, ValueError):
            raise ValueError(f"{name} must hold (i, j) index pairs, got item {e!r}") from None
        pairs.append((i, j) if type(i) is int and type(j) is int
                     else (as_int(i, "edge index"), as_int(j, "edge index")))
    return tuple(sorted(pairs))


def _plain(value):
    """value as a Python int if as_int takes it (the bitmask engines need one:
    numpy's wrap at 64 bits), else as given, for validate() to report."""
    try:
        return as_int(value, "value")
    except ValueError:
        return value


def _sort_each(lists) -> tuple:
    """Each list as a sorted tuple of colors, each through _plain."""
    out = tuple(tuple(sorted(l)) for l in lists)
    for l in out:
        for c in l:
            if type(c) is not int:
                return tuple(tuple(map(_plain, l)) for l in out)
    return out


def _check_list(l, size, universe, label, out):
    if len(set(l)) != len(l):
        out.append(f"{label} has repeated color")
    if len(set(l)) != size:
        out.append(f"{label} has {len(set(l))} distinct colors, expected {size}")
    for c in l:
        try:
            if not 0 <= as_int(c, "color") < universe:
                out.append(f"{label} color {c} out of universe [0, {universe})")
        except ValueError as exc:
            out.append(f"{label} {exc}")


def validate(instance: ListInstance) -> list:
    """Return every violated instance invariant; empty list iff well-formed.

    Violations are data, not failures: malformed instances never raise here.
    """
    out = []
    for name in ("universe", "ka", "kb"):
        try:
            as_int(getattr(instance, name), name)
        except ValueError as exc:
            out.append(str(exc))
    universe = instance.universe if type(instance.universe) is int else math.inf
    if universe < 0:
        out.append("universe size is negative")
    for i, l in enumerate(instance.a_lists):
        _check_list(l, instance.ka, universe, f"aLists[{i}]", out)
    for j, l in enumerate(instance.b_lists):
        _check_list(l, instance.kb, universe, f"bLists[{j}]", out)
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


def to_color_system(instance: ListInstance) -> ColorSystem:
    """Map a complete-bipartite instance to its color system (H, F).

    Duplicate lists are dropped first: a duplicated list adds no constraint
    beyond its first copy, so the system of distinct lists decides the same
    colorability question.  Each list keeps the place of its first copy; the
    instance's lists are sorted tuples already, so none is sorted again.
    """
    if not instance.is_complete:
        raise ValueError("color system is defined for complete bipartite instances only")
    distinct = lambda lists: tuple(dict.fromkeys(lists))
    return ColorSystem(instance.universe, distinct(instance.a_lists), distinct(instance.b_lists))


# --- JSON interchange -------------------------------------------------------

def instance_to_dict(instance: ListInstance) -> dict:
    adj = COMPLETE if instance.is_complete else [list(e) for e in instance.adjacency]
    return {
        "universe": instance.universe,
        "kA": instance.ka,
        "kB": instance.kb,
        "adjacency": adj,
        "aLists": [list(l) for l in instance.a_lists],
        "bLists": [list(l) for l in instance.b_lists],
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
    if adj != COMPLETE and not int_rows(adj, 2):
        raise ValueError(
            f'adjacency must be "{COMPLETE}" or a list of [a-index, b-index] integer pairs'
        )
    return ListInstance(d["universe"], d["kA"], d["kB"], d["aLists"], d["bLists"], adj)


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


def usable_cpus() -> int:
    """The CPUs this process may run on, where the platform says, else the
    machine's CPU count (1 if unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
