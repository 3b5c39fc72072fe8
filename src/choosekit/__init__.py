"""Toolkit for asymmetric list coloring of complete bipartite graphs.

Exact colorability checks, exhaustive choosability decisions, uncolorable
instance generators and amplifiers, the xi threshold machinery, and an exact
blocking-probability engine for random greedy independent sets.
"""

from .model import (
    COMPLETE,
    ColorSystem,
    Coloring,
    ListInstance,
    RegimePoint,
    to_color_system,
    validate,
    validate_coloring,
)
from .checker import (
    SearchBudgetExceeded,
    Verdict,
    decide_choosable,
    has_proper_coloring,
    independent_transversal_exists,
    simulate_reserve_coloring,
)
from .constructions import BlockSpec, construct_blocks, construct_simple
from .amplify import amplify_23_params, amplify_params, blowup, expand
from .bounds import (
    AlphaResult,
    BoundReport,
    XimBounds,
    alpha,
    classify,
    count_double_exp_fixed_points,
    entropy_f,
    reserve_probability,
    verify_tedious,
    xi,
    xim_bounds,
    xim_prime_lower,
    xim_prime_upper,
)
from .indepset import (
    STGraph,
    counterexample_graph,
    degree_functional_check,
    degree_profile,
    f_values,
    fancy_bound,
    fancy_bound_fraction,
    greedy_independent_set,
    local_product_bound,
    max_degree_deletion,
    p_blocked_bruteforce,
    p_blocked_exact,
    p_blocked_monte_carlo,
    random_transversal_search,
)

__version__ = "0.1.0"
