"""Conforming n-dimensional simplicial bisection refinement.

Exact dyadic geometry, tagged-simplex bisection, binary forests with
overlay/underlay, conformity-preserving refinement, tagging initialisers
with their initial-condition verifiers, the 1D pile-game toy model, and a
harness that computes and checks the closure-estimate constants.

The package holds what the command line and the benchmark call; the
checkers of the paper's tower and forest lemmas are oracles of the tests.
"""

from .exactgeom import DyadicPoint, midpoint, simplex_volume
from .tarray import TaggedSimplex, VertexPool, bisect, kuhn, refinement_edge
from .forest import Forest, Triangulation, overlay, underlay
from .refine import RefinementError, check_conforming, refine, uniform_refine
from .inittags import agk_init, initial_division, VertexPartition
from .harness import Constants, compute_constants, run_sequence, verify_bdv

__all__ = [
    "DyadicPoint",
    "midpoint",
    "simplex_volume",
    "TaggedSimplex",
    "VertexPool",
    "bisect",
    "kuhn",
    "refinement_edge",
    "Forest",
    "Triangulation",
    "overlay",
    "underlay",
    "RefinementError",
    "check_conforming",
    "refine",
    "uniform_refine",
    "agk_init",
    "initial_division",
    "VertexPartition",
    "Constants",
    "compute_constants",
    "run_sequence",
    "verify_bdv",
]

__version__ = "0.1.0"
