"""fockvortex: two-mode Fock-space engine for beam-splitter vortex states.

Builds truncated photon-number two-mode squeezed states, interferes them
on a balanced beam splitter, and quantifies the output: transverse
quadrature fields with phase-winding detection, Wigner slices with
negativity volume, and logarithmic negativity across the splitter, each by
one production path for a pure ``TwoModeState``.  Their oracles live in
``fockvortex.oracles``, which the package does not import; it also exports
the names only they take (``DensityMatrix``, ``state_to_density``,
``partial_transpose``, ``build_wigner_grid``), so none of them is here.
"""
__version__ = "0.3.7"

from .beamsplitter import apply_beam_splitter
from .config import GH_ORDER, TOL, Tolerances
from .entanglement import EntanglementReport, log_negativity
from .errors import (
    EigensolverError,
    FockVortexError,
    GridTooCoarseError,
    InvalidParameterError,
    InvalidStateError,
    InvariantError,
    NonConvergenceError,
)
from .quadrature import (
    QuadratureField,
    QuadratureGrid,
    VortexReport,
    count_vortices,
    evaluate_field,
    hermite_basis,
)
from .states import SqueezeParams, TwoModeState, make_tmss
from .wigner import (
    NegativityResult,
    WignerSlice,
    negativity_volume,
    wigner_diagonal_form,
    wigner_slice,
)

__all__ = [
    "SqueezeParams",
    "TwoModeState",
    "make_tmss",
    "apply_beam_splitter",
    "hermite_basis",
    "QuadratureGrid",
    "QuadratureField",
    "evaluate_field",
    "VortexReport",
    "count_vortices",
    "wigner_diagonal_form",
    "WignerSlice",
    "NegativityResult",
    "negativity_volume",
    "wigner_slice",
    "EntanglementReport",
    "log_negativity",
    "Tolerances",
    "TOL",
    "GH_ORDER",
    "FockVortexError",
    "InvalidParameterError",
    "InvalidStateError",
    "NonConvergenceError",
    "EigensolverError",
    "GridTooCoarseError",
    "InvariantError",
]
