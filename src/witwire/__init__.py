"""Witness wirings for multi-copy entanglement detection.

Pair witnesses from a small catalog are placed on chosen (copy, party)
slots of a k-copy state.  Each wiring is compiled once into an
evaluator that traces it against rho^(x)k by an O(D^2) elementwise
contraction.  Along the noise parameter of an affine family that
trace is a polynomial of degree k, so a sweep evaluates it at k+1
points and locates its sign changes by bisection on the interpolant.
PPT gives the independent entanglement verdict, and a two-copy
measurement protocol concentrates partially entangled pure states.
"""

from .detection import (
    Assignment,
    WiringSpec,
    assemble,
    closed_form,
    compile_wiring,
    expectation,
    find_threshold,
    ordering_matrix,
    sweep,
    wiring,
)
from .states import FAMILIES, FIXED_STATES, StateFamily
from .witnesses import catalog, catalog_names, validate_witness
from .ppt import ppt_check, ppt_threshold
from .concentration import concentrate, measurement_vector, random_schmidt_operator
from .reproduce import REPRODUCE_IDS, reproduce

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "FAMILIES",
    "FIXED_STATES",
    "REPRODUCE_IDS",
    "StateFamily",
    "WiringSpec",
    "assemble",
    "catalog",
    "catalog_names",
    "closed_form",
    "compile_wiring",
    "concentrate",
    "expectation",
    "find_threshold",
    "measurement_vector",
    "ordering_matrix",
    "ppt_check",
    "ppt_threshold",
    "random_schmidt_operator",
    "reproduce",
    "sweep",
    "validate_witness",
    "wiring",
]
