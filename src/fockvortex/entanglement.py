"""Partial transposition and logarithmic negativity for two-mode states.

The partial transpose of a pure state has eigenvalues s_i**2 and
+-s_i*s_j (i < j) over its Schmidt coefficients s_i (Vidal & Werner, PRA 65,
032314 (2002)), so ``log_negativity`` takes them from one SVD.  An ``eigh``
of the partial transpose, the pure path's oracle, is
``fockvortex.oracles.log_negativity_eigh``.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import log2
from typing import List, Union

import numpy as np

from .config import TOL
from .errors import EigensolverError, InvalidParameterError
from .states import DensityMatrix, TwoModeState, check_state, state_to_density


@dataclass(frozen=True)
class EntanglementReport:
    negativity: float
    log_negativity: float
    negative_eigenvalues: List[float]
    matrix_dimension: int


def _as_density(state_or_rho) -> DensityMatrix:
    if isinstance(state_or_rho, TwoModeState):
        return state_to_density(state_or_rho)
    if isinstance(state_or_rho, DensityMatrix):
        return state_or_rho
    raise InvalidParameterError(
        f"expected TwoModeState or DensityMatrix, got {type(state_or_rho)!r}"
    )


def partial_transpose(rho: Union[TwoModeState, DensityMatrix]) -> DensityMatrix:
    """Transpose the bra/ket indices of mode a.

    Hermiticity and unit trace survive; positivity in general does not,
    and its failure is exactly what the negativity measures.  Mode b's
    transpose is this one's matrix transpose, PT_b(rho) = PT_a(rho)^T, with
    the same spectrum, so the a|b negativity needs only this one.
    """
    rho = _as_density(rho)
    return DensityMatrix(np.ascontiguousarray(rho.tensor.transpose(2, 1, 0, 3)))


def _schmidt_values(state: TwoModeState) -> np.ndarray:
    """Singular values of the amplitude matrix, checked to square-sum to 1."""
    amps = state.amplitudes
    try:
        values = np.linalg.svd(amps, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(amps.size, float("nan")) from exc
    deviation = abs(float(np.sum(values * values)) - 1.0)
    if not deviation <= TOL.norm:
        raise EigensolverError(amps.size, deviation)
    return values


def _report(vals: np.ndarray, dimension: int) -> EntanglementReport:
    """The report of a partial-transpose spectrum ``vals``; values in
    (-TOL.eig_zero, 0) count as zero."""
    negatives = np.sort(vals[vals <= -TOL.eig_zero])
    negativity = float(-negatives.sum())
    return EntanglementReport(
        negativity=negativity,
        log_negativity=log2(1.0 + 2.0 * negativity),
        negative_eigenvalues=[float(v) for v in negatives],
        matrix_dimension=dimension,
    )


def log_negativity(state: TwoModeState) -> EntanglementReport:
    """log2 of the trace norm of the partial transpose across the a|b split of
    a pure state, whose negative eigenvalues are the -s_i*s_j of its Schmidt
    coefficients.  Any other input raises ``InvalidParameterError``:
    ``fockvortex.oracles.log_negativity_eigh`` takes it.
    """
    check_state(state, "log_negativity_eigh")
    s = _schmidt_values(state)
    return _report(-np.outer(s, s)[np.triu_indices(s.size, 1)], s.size * s.size)
