"""Witness wirings for multi-copy entanglement detection.

Pair witnesses from a small catalog are placed on chosen (copy, party)
slots of a k-copy state.  Each wiring is compiled once into per-copy
witness blocks and an evaluator that sweeps the copies from last to
first, multiplying each witness in at the last copy it touches and
contracting each copy with rho reduced onto it as soon as no block
still needs it, without forming rho^(x)k.
Every state family is affine in its noise parameter, by construction,
so along it that trace is a polynomial of degree k: a sweep evaluates
it at k+1 points and takes its sign changes from the roots of that
polynomial.  PPT gives the independent entanglement verdict, and a
two-copy measurement protocol concentrates partially entangled pure
states.
"""

from .detection import (
    Assignment,
    WiringSpec,
    compile_wiring,
    expectation,
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
    "catalog",
    "catalog_names",
    "compile_wiring",
    "concentrate",
    "expectation",
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
