"""fockvortex: two-mode Fock-space engine for beam-splitter vortex states.

Builds truncated photon-number two-mode squeezed states, interferes them
on a balanced beam splitter (exact Fock-basis unitary plus an
independently derived closed form used as a cross-check oracle), and
quantifies the output: transverse quadrature fields with phase-winding
detection, Wigner functions with negativity volume, and logarithmic
negativity across the splitter.
"""
__version__ = "0.3.3"

from .beamsplitter import (
    apply_beam_splitter,
    closed_form_vortex_state,
    inject_fault,
)
from .config import GH_ORDER, TOL, Tolerances
from .entanglement import (
    EntanglementReport,
    log_negativity,
    partial_transpose,
)
from .errors import (
    CoefficientMismatchError,
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
    hermite_function,
)
from .states import (
    DensityMatrix,
    SqueezeParams,
    TwoModeState,
    make_tmss,
    random_state,
    state_to_density,
    total_photon_distribution,
)
from .wigner import (
    NegativityResult,
    WignerSlice,
    build_wigner_grid,
    negativity_volume,
    position_marginal,
    wigner_fock_diagonal,
    wigner_diagonal_form,
    wigner_slice,
    wigner_state,
)

__all__ = [
    "SqueezeParams",
    "TwoModeState",
    "DensityMatrix",
    "make_tmss",
    "state_to_density",
    "total_photon_distribution",
    "random_state",
    "apply_beam_splitter",
    "closed_form_vortex_state",
    "inject_fault",
    "hermite_function",
    "hermite_basis",
    "QuadratureGrid",
    "QuadratureField",
    "evaluate_field",
    "VortexReport",
    "count_vortices",
    "wigner_fock_diagonal",
    "wigner_state",
    "wigner_diagonal_form",
    "position_marginal",
    "WignerSlice",
    "build_wigner_grid",
    "NegativityResult",
    "negativity_volume",
    "wigner_slice",
    "EntanglementReport",
    "partial_transpose",
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
    "CoefficientMismatchError",
]
