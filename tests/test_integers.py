"""One rule for every count, size and index the library takes: Python and
numpy integers are accepted and stored as int; bools, floats and strings
raise a ValueError that names the argument."""

import json
from fractions import Fraction

import numpy as np
import pytest

from choosekit import bounds, checker, indepset
from choosekit.amplify import BLOWUP, EXPANSION, amplify_params, blowup, expand
from choosekit.constructions import BlockSpec, construct_blocks, construct_simple
from choosekit.model import ColorSystem, ListInstance, RegimePoint, as_int


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), np.int32(3)])
def test_as_int_takes_python_and_numpy_integers(value):
    got = as_int(value, "x", 1)
    assert got == 3 and type(got) is int


@pytest.mark.parametrize(
    "value", [True, False, np.True_, 3.0, np.float64(3), "3", None, Fraction(3)]
)
def test_as_int_refuses_everything_else(value):
    with pytest.raises(ValueError) as err:
        as_int(value, "x")
    assert str(err.value) == f"x must be an integer, got {value!r}"


@pytest.mark.parametrize("low, says", [
    (0, "x must be a non-negative integer"),
    (1, "x must be a positive integer"),
    (2, "x must be an integer >= 2"),
])
def test_as_int_names_the_bound(low, says):
    assert as_int(low, "x", low) == low
    for value in (-1, np.int64(-1)):
        with pytest.raises(ValueError) as err:
            as_int(value, "x", low)
        assert str(err.value) == f"{says}, got {value!r}"


# --- the value types ------------------------------------------------------------

def test_blockspec_refuses_a_fractional_size():
    # once silently BlockSpec(ka=2, a=(1,)), and a ka of 2.5 was kept
    with pytest.raises(ValueError, match="a must be a positive integer, got 1.5"):
        BlockSpec(2, (1.5,))
    with pytest.raises(ValueError, match="ka must be a positive integer, got 2.5"):
        BlockSpec(2.5, (1,))


def test_blockspec_with_a_numpy_ka_keeps_full_precision():
    # a numpy ka once made delta_a = ka ** r wrap around to 0
    spec = BlockSpec(np.int64(2), (1,) * 70)
    assert spec.delta_a == 2**70 and type(spec.ka) is int


def test_stgraph_refuses_a_fractional_part_size():
    # once accepted, and p_blocked_exact raised TypeError later
    with pytest.raises(ValueError, match="s_size must be a non-negative integer, got 2.5"):
        indepset.STGraph.make(2.5, 2, [])


def test_stgraph_with_numpy_sizes_serialises():
    # a numpy part size once made json.dumps of the graph fail
    g = indepset.STGraph.make(np.int64(3), np.int64(2), [(np.int64(0), np.int64(1))])
    assert json.dumps(g) == "[3, 2, [[0, 1]]]"


def test_regime_point_takes_numpy_and_refuses_bool():
    # numpy integers were once refused and bools accepted
    p = RegimePoint(np.int64(3), 3, 2, 2)
    assert p == (3, 3, 2, 2) and all(type(v) is int for v in p)
    with pytest.raises(ValueError, match="delta_a must be a positive integer, got True"):
        RegimePoint(True, 3, 2, 2)


def _ints_only(value):
    """Does value hold no int-like leaf that is not a Python int?"""
    if isinstance(value, tuple):
        return all(map(_ints_only, value))
    return type(value) is int or not isinstance(value, (int, np.integer))


_G = indepset.STGraph.make(2, 2, [(0, 0), (1, 1), (0, 1)])

# a constructor of a checked value type, taking one count, size or index v
VALUE_TYPES = {
    "RegimePoint-field": (lambda v: RegimePoint(2, 4, v, 2), 2),
    "RegimePoint-replace": (lambda v: RegimePoint(2, 4, 2, 2)._replace(kb=v), 3),
    "BlockSpec-ka": (lambda v: BlockSpec(v, (1, 2)), 2),
    "BlockSpec-a": (lambda v: BlockSpec(2, (1, v)), 2),
    "STGraph-size": (lambda v: indepset.STGraph(v, 2, ((0, 0),)), 1),
    "STGraph-make-size": (lambda v: indepset.STGraph.make(2, v, [(0, 0)]), 1),
    "STGraph-index": (lambda v: indepset.STGraph(2, 2, ((v, 0), (0, 1))), 1),
    "STGraph-make-index": (lambda v: indepset.STGraph.make(2, 2, [(0, v)]), 1),
    "STGraph-replace": (lambda v: _G._replace(t_size=v), 3),
    "ListInstance-edge": (lambda v: ListInstance(2, 1, 1, [(0,), (1,)], [(1,)], [(v, 0)]), 1),
}


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_value_types_store_numpy_integers_as_int(name):
    make, good = VALUE_TYPES[name]
    value = make(np.int64(good))
    assert value == make(good) and _ints_only(tuple(value))


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_value_types_refuse_bool_and_float(name):
    make, good = VALUE_TYPES[name]
    for bad in (bool(good), float(good)):
        with pytest.raises(ValueError, match=f"must be .*integer.*, got {bad!r}"):
            make(bad)


# --- the counts functions take -----------------------------------------------------

_K12 = construct_blocks(BlockSpec(2, (1,)))
_SYSTEM = ColorSystem(4, ((0, 1), (2, 3)), ((0, 2), (1, 3)))

# a call taking one count v, and a good value of it
COUNTS = {
    "blowup-r": (lambda v: blowup(_K12, v), 2),
    "expand-s": (lambda v: expand(_K12, v), 2),
    "amplify_params-blowup": (lambda v: amplify_params(RegimePoint(2, 2, 2, 2), BLOWUP, v), 70),
    "amplify_params-expansion": (
        lambda v: amplify_params(RegimePoint(2, 2, 2, 2), EXPANSION, v), 40
    ),
    "construct_simple-r": (lambda v: construct_simple(2, 1, v), 2),
    "p_blocked_monte_carlo-trials": (lambda v: indepset.p_blocked_monte_carlo(_G, v, 1), 50),
    "simulate_reserve_coloring-trials": (
        lambda v: checker.simulate_reserve_coloring(_K12, 0.5, v, 1), 20
    ),
    "random_transversal_search-restarts": (
        lambda v: indepset.random_transversal_search(_SYSTEM, v, 0), 3
    ),
    "xim_bounds-k": (lambda v: bounds.xim_bounds(v), 6),
    "xim_prime_upper-k": (lambda v: bounds.xim_prime_upper(v), 3),
    "xim_prime_lower-k": (lambda v: bounds.xim_prime_lower(v), 3),
    "max_degree_deletion-k": (lambda v: indepset.max_degree_deletion(3, [(0, 1), (1, 2)], v), 2),
    "max_degree_deletion-vertex": (
        lambda v: indepset.max_degree_deletion(3, [(0, v), (1, 2)], 2), 1
    ),
}


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_counts_take_numpy_integers_exactly(name):
    # numpy's fixed width once wrapped amplify_params(..., r=70) around
    call, good = COUNTS[name]
    got = call(np.int64(good))
    assert got == call(good)
    assert _ints_only(tuple(got) if isinstance(got, tuple) else got)


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_counts_refuse_bool_and_float(name):
    call, good = COUNTS[name]
    for bad in (True, float(good)):
        with pytest.raises(ValueError, match=f"must be .*integer.*, got {bad!r}"):
            call(bad)
