"""Exact invariants of plane branch singularities.

Truncated power series and bivariate polynomials over Q (series), the
characteristic/semigroup data of a branch (semigroup), conversions and
pairwise quantities (geometry), the Zariski invariant with witness curves
(zariski) and the h-adic decomposition (expansion), fronted by a CLI (cli).
"""

from .errors import PlaneBranchError
from .expansion import ExpansionResult, h_adic_expansion, zariski_decomposition
from .geometry import (
    ContactOrder,
    Parametrization,
    contact,
    contact_from_intersection,
    implicitize,
    intersection,
    intersection_from_contact,
    intersection_poly_param,
    puiseux_parametrization,
    swap_parametrization,
)
from .semigroup import CharData, char_sequence, contains
from .series import EXACT, BivarPoly, TSeries, nth_root_unit, substitute
from .zariski import (
    MoveRecord,
    ZariskiResult,
    apply_pmove,
    apply_qmove,
    eliminate_term,
    genus1_reduce,
    infer_zariski,
    is_in_b,
    replay_moves,
    zariski_invariant,
)

__version__ = "0.1.0"

__all__ = [
    "BivarPoly",
    "CharData",
    "ContactOrder",
    "EXACT",
    "ExpansionResult",
    "MoveRecord",
    "Parametrization",
    "PlaneBranchError",
    "TSeries",
    "ZariskiResult",
    "apply_pmove",
    "apply_qmove",
    "char_sequence",
    "contact",
    "contact_from_intersection",
    "contains",
    "eliminate_term",
    "genus1_reduce",
    "h_adic_expansion",
    "implicitize",
    "infer_zariski",
    "intersection",
    "intersection_from_contact",
    "intersection_poly_param",
    "is_in_b",
    "nth_root_unit",
    "puiseux_parametrization",
    "replay_moves",
    "substitute",
    "swap_parametrization",
    "zariski_decomposition",
    "zariski_invariant",
]
