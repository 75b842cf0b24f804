"""Partial transposition and logarithmic negativity for two-mode states.

The partial transpose of a pure state has eigenvalues s_i**2 and
+-s_i*s_j (i < j) over its Schmidt coefficients s_i (Vidal & Werner, PRA 65,
032314 (2002)); a density matrix takes an ``eigh``, the pure path's oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import log2
from typing import List, Union

import numpy as np

from .config import TOL
from .errors import EigensolverError, InvalidParameterError
from .states import DensityMatrix, TwoModeState, state_to_density


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


def _eigvals_checked(mat: np.ndarray) -> np.ndarray:
    try:
        vals, vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(mat.shape[0], float("nan")) from exc
    residual = float(np.max(np.linalg.norm(mat @ vecs - vecs * vals, axis=0)))
    norm = max(float(np.max(np.abs(vals))), np.finfo(float).tiny)
    if not residual <= 1e-10 * norm * mat.shape[0]:
        raise EigensolverError(mat.shape[0], residual)
    return vals


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


def log_negativity(state_or_rho) -> EntanglementReport:
    """log2 of the trace norm of the partial transpose across the a|b split.

    The negative eigenvalues are the -s_i*s_j of a ``TwoModeState``'s Schmidt
    coefficients, or those of a checked ``eigh`` of a ``DensityMatrix``'s
    partial transpose; values in (-TOL.eig_zero, 0) count as zero.
    """
    if isinstance(state_or_rho, TwoModeState):
        s = _schmidt_values(state_or_rho)
        vals, dimension = -np.outer(s, s)[np.triu_indices(s.size, 1)], s.size * s.size
    else:
        pt = partial_transpose(state_or_rho).as_matrix()
        vals, dimension = _eigvals_checked(pt), pt.shape[0]
    negatives = np.sort(vals[vals <= -TOL.eig_zero])
    negativity = float(-negatives.sum())
    return EntanglementReport(
        negativity=negativity,
        log_negativity=log2(1.0 + 2.0 * negativity),
        negative_eigenvalues=[float(v) for v in negatives],
        matrix_dimension=dimension,
    )

