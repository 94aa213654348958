"""Mixed dominating sets on generalized Petersen graphs P(n,k)."""

from .constructions import (
    construct,
    construct_general,
    construct_k1,
    construct_k2_block4,
    construct_k2_block8,
)
from .domination import gamma_from_rd, greedy_complete, naive_lower_bound, redomination, verify
from .elements import ElementKind, ElementSet
from .errors import (
    InvalidSpec,
    MixdomError,
    NoSolutionWithin,
    OutOfRange,
    SetFileError,
    UnknownElement,
)
from .formulas import gamma_k1, gamma_k2, gamma_k2_remark, upper_bound_general
from .petersen import GraphSpec, build, build_graph, to_dot
from .solver import SolveBudget, solve_exact, solve_exhaustive

__version__ = "0.1.0"

__all__ = [
    "ElementKind",
    "ElementSet",
    "GraphSpec",
    "InvalidSpec",
    "MixdomError",
    "NoSolutionWithin",
    "OutOfRange",
    "SetFileError",
    "SolveBudget",
    "UnknownElement",
    "build",
    "build_graph",
    "construct",
    "construct_general",
    "construct_k1",
    "construct_k2_block4",
    "construct_k2_block8",
    "gamma_from_rd",
    "gamma_k1",
    "gamma_k2",
    "gamma_k2_remark",
    "greedy_complete",
    "naive_lower_bound",
    "redomination",
    "solve_exact",
    "solve_exhaustive",
    "to_dot",
    "upper_bound_general",
    "verify",
]
