"""Toolkit for asymmetric list coloring of complete bipartite graphs.

Exact colorability checks, exhaustive choosability decisions, uncolorable
instance generators and amplifiers, the xi threshold machinery, and an exact
blocking-probability engine for random greedy independent sets.

The package re-exports the names that README's "Library usage" documents;
every other name is imported from its submodule.
"""

from .model import RegimePoint
from .checker import decide_choosable, has_proper_coloring
from .constructions import BlockSpec, construct_blocks
from .amplify import blowup
from .bounds import classify
from .indepset import (
    STGraph,
    counterexample_graph,
    fancy_bound,
    p_blocked_exact,
    p_blocked_monte_carlo,
)

__version__ = "0.1.0"
