"""Exact toolkit for ordering-based clique numbers of tournaments."""

from .core import (
    BudgetExhausted,
    Deadline,
    Digraph,
    Tournament,
    UndirectedGraph,
    backedge_graph,
    clique_number,
    contains_subtournament,
    has_clique,
    induced,
    is_forest,
    is_strong,
    is_transitive,
    reverse,
)
from .solvers import (
    chi,
    chi_decide,
    enumerate_omega_orderings,
    forcing_holds,
    min_order_with_omega,
    minimum_ordering,
    omega,
    omega_by_enumeration,
    omega_decide,
)

__version__ = "0.1.0"
