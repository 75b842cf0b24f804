"""Shared numerical tolerances and engine defaults.

``TOL`` holds the tolerances that the library's checks share; no caller or
test replaces it.  A bound that serves one check stays beside it, such as
the 1e-10 residual factor of ``oracles._eigvals_checked``.
"""
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    norm: float = 1e-12           # state normalization after construction
    hermiticity: float = 1e-12    # density-matrix Hermiticity residue
    trace: float = 1e-10          # density-matrix trace deviation
    oracle: float = 1e-10         # closed form vs direct operator expansion
    imag_residue: float = 1e-10   # acceptable imaginary leakage in real quantities
    eig_zero: float = 1e-12       # eigenvalues in (-eig_zero, 0) count as zero
    nv: float = 1e-3              # negativity-volume convergence target
    amplitude_floor: float = 1e-12  # below this, arg(psi) is numerical noise


TOL = Tolerances()

# tensor Gauss-Hermite defaults for phase-space integration
GH_ORDER = 24
MAX_REFINEMENTS = 4
