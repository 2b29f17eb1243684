"""A from-scratch ROBDD package (the paper's CUDD substrate).

Quick example::

    from repro.bdd import Bdd

    bdd = Bdd()
    x, y = bdd.add_var("x"), bdd.add_var("y")
    f = (x & ~y) | (~x & y)
    assert f == (x ^ y)
    assert f.sat_count() == 2
"""

from .cache import CacheConfig, DEFAULT_CACHE_CONFIG
from .function import Bdd, Function, default_bdd
from .manager import BddManager, FALSE, TRUE
from .reorder import set_order, sift, swap_adjacent_levels
from .dot import to_dot
from .restrict_ops import constrain, minimize_restrict
from .io import (dump_functions, dumps_functions, load_functions,
                 loads_functions)

__all__ = [
    "Bdd",
    "CacheConfig",
    "DEFAULT_CACHE_CONFIG",
    "Function",
    "default_bdd",
    "BddManager",
    "FALSE",
    "TRUE",
    "sift",
    "set_order",
    "swap_adjacent_levels",
    "to_dot",
    "dump_functions",
    "dumps_functions",
    "load_functions",
    "loads_functions",
    "constrain",
    "minimize_restrict",
]
