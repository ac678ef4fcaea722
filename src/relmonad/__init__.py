"""Finite computational kernel for the presheaf extension operation.

Everything is a table: categories, presheaves, and multi-slot maps are
explicit finite dictionaries, so every coherence cell the theory promises
can be evaluated and compared elementwise.  The public surface is split
into construction (fincat, presheaf, multimap, kan, monad), verification
(checker), generation (gen), and plumbing (textio, cli).
"""

from .checker import CheckConfig, CheckReport, LAW_GROUPS, LAW_ORDER, run_single, run_suite
from .errors import (
    BudgetExceededError,
    FormatError,
    NotInvertibleError,
    RelmonadError,
    SlotMismatchError,
)
from .fincat import FinCategory, FunctorTable, NatTransTable, session
from .kan import mult_cell, strengthen, strengthen_cell, theta_cell, unit_cell
from .monad import apply_functor, interchange, interchange_perm, unit_naturality_square
from .multimap import ComposeMap, TableMap, UnitMap, plug, unit_map
from .presheaf import Presheaf, PresheafMorphism, enumerate_nat_trans

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CheckConfig",
    "CheckReport",
    "ComposeMap",
    "FinCategory",
    "FormatError",
    "FunctorTable",
    "LAW_GROUPS",
    "LAW_ORDER",
    "NatTransTable",
    "NotInvertibleError",
    "Presheaf",
    "PresheafMorphism",
    "RelmonadError",
    "SlotMismatchError",
    "TableMap",
    "UnitMap",
    "apply_functor",
    "enumerate_nat_trans",
    "interchange",
    "interchange_perm",
    "mult_cell",
    "plug",
    "run_single",
    "run_suite",
    "session",
    "strengthen",
    "strengthen_cell",
    "theta_cell",
    "unit_cell",
    "unit_map",
    "unit_naturality_square",
    "__version__",
]
