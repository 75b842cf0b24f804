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
from .errors import EigensolverError, InvalidParameterError, UndefinedRatioError
from .states import DensityMatrix, SqueezeParams, TwoModeState, make_tmss, state_to_density


@dataclass(frozen=True)
class PartialTranspose:
    matrix: DensityMatrix
    transposed_mode: str


@dataclass(frozen=True)
class EntanglementReport:
    negativity: float
    log_negativity: float
    negative_eigenvalues: List[float]
    matrix_dimension: int

    def to_json_dict(self) -> dict:
        return {
            "negativity": self.negativity,
            "log_negativity": self.log_negativity,
            "negative_eigenvalues": list(self.negative_eigenvalues),
            "matrix_dimension": self.matrix_dimension,
        }


def _as_density(state_or_rho) -> DensityMatrix:
    if isinstance(state_or_rho, TwoModeState):
        return state_to_density(state_or_rho)
    if isinstance(state_or_rho, DensityMatrix):
        return state_or_rho
    raise InvalidParameterError(
        f"expected TwoModeState or DensityMatrix, got {type(state_or_rho)!r}"
    )


def partial_transpose(rho: Union[TwoModeState, DensityMatrix], mode: str = "a") -> PartialTranspose:
    """Transpose the bra/ket indices of one mode.

    Hermiticity and unit trace survive; positivity in general does not,
    and its failure is exactly what the negativity measures.
    """
    rho = _as_density(rho)
    if mode == "a":
        tensor = rho.tensor.transpose(2, 1, 0, 3)
    elif mode == "b":
        tensor = rho.tensor.transpose(0, 3, 2, 1)
    else:
        raise InvalidParameterError(f"mode must be 'a' or 'b', got {mode!r}")
    return PartialTranspose(DensityMatrix(np.ascontiguousarray(tensor), rho.dimension), mode)


def _eigvals_checked(mat: np.ndarray) -> np.ndarray:
    try:
        vals, vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(mat.shape[0], float("nan")) from exc
    residual = float(np.max(np.linalg.norm(mat @ vecs - vecs * vals, axis=0)))
    norm = max(float(np.max(np.abs(vals))), np.finfo(float).tiny)
    if residual > 1e-10 * norm * mat.shape[0]:
        raise EigensolverError(mat.shape[0], residual)
    return vals


def _schmidt_values(state: TwoModeState) -> np.ndarray:
    """Singular values of the amplitude matrix, checked to square-sum to 1."""
    dense = state.to_dense()
    try:
        values = np.linalg.svd(dense, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(dense.size, float("nan")) from exc
    deviation = abs(float(np.sum(values * values)) - 1.0)
    if not deviation <= TOL.norm:
        raise EigensolverError(dense.size, deviation)
    return values


def log_negativity(state_or_rho, mode: str = "a") -> EntanglementReport:
    """log2 of the trace norm of the partial transpose.

    The negative eigenvalues are the -s_i*s_j of a ``TwoModeState``'s Schmidt
    coefficients, or those of a checked ``eigh`` for a ``DensityMatrix``;
    values in (-TOL.eig_zero, 0) count as zero.
    """
    if mode not in ("a", "b"):
        raise InvalidParameterError(f"mode must be 'a' or 'b', got {mode!r}")
    if isinstance(state_or_rho, TwoModeState):
        s = _schmidt_values(state_or_rho)
        vals, dimension = -np.outer(s, s)[np.triu_indices(s.size, 1)], s.size * s.size
    else:
        pt = partial_transpose(state_or_rho, mode=mode).matrix.as_matrix()
        vals, dimension = _eigvals_checked(pt), pt.shape[0]
    negatives = np.sort(vals[vals <= -TOL.eig_zero])
    negativity = float(-negatives.sum())
    return EntanglementReport(
        negativity=negativity,
        log_negativity=log2(1.0 + 2.0 * negativity),
        negative_eigenvalues=[float(v) for v in negatives],
        matrix_dimension=dimension,
    )


def entanglement_ratio(params: SqueezeParams) -> dict:
    """Log-negativity before and after the balanced beam splitter, and their ratio."""
    from .beamsplitter import apply_beam_splitter

    if params.r == 0:
        raise UndefinedRatioError("r = 0 carries no entanglement; the ratio is undefined")
    before = make_tmss(params)
    after = apply_beam_splitter(before)
    l_before = log_negativity(before).log_negativity
    l_after = log_negativity(after).log_negativity
    if l_before <= 0.0:
        raise UndefinedRatioError(
            f"input log-negativity underflowed to {l_before}; ratio undefined"
        )
    return {
        "r": params.r,
        "n_max": params.n_max,
        "l_before": l_before,
        "l_after": l_after,
        "ratio": l_after / l_before,
    }
