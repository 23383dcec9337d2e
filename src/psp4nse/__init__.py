"""Exact quantitative invariants of PSp4(q) for q = 2^f > 2.

Closed forms for the conjugacy class table, element-order spectrum, and
same-order counts; a brute-force enumeration oracle validating them; prime
graphs and order components; and the characterization pipeline deciding, from
a group order and an nse set, isomorphism with PSp4(q).

The package root exports the names of the library example in the README;
everything else lives in its submodule (arith, gf2, oracle, sympl, primegraph,
families, characterize, cli).
"""

from .characterize import characterize
from .oracle import order_histogram, sp4_group
from .sympl import group_order, nse_set, nse_table

__version__ = "0.1.0"

__all__ = [
    "characterize",
    "group_order",
    "nse_set",
    "nse_table",
    "order_histogram",
    "sp4_group",
]
