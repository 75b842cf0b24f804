"""Two-mode Fock-space states and density matrices.

A pure two-mode state is its complex amplitude matrix A[n_a, n_b] over
photon-number pairs, zero beyond a total-photon cutoff.  The photon-number
squeezed input family lives here, together with the outer-product density
matrix, which no production path takes (see ``fockvortex.oracles``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Tuple

import numpy as np

from .config import TOL
from .errors import InvalidParameterError, InvalidStateError, check_count, check_real


@dataclass(frozen=True)
class SqueezeParams:
    """Squeezing strength r >= 0 and truncation order n_max >= 0."""

    r: float
    n_max: int

    def __post_init__(self):
        check_real("squeezing parameter", self.r)
        if self.r < 0:
            raise InvalidParameterError(f"squeezing parameter must be >= 0, got {self.r}")
        check_count("truncation order", self.n_max, 0)


def _zero_amplitudes(cutoff: int) -> np.ndarray:
    """The zero amplitude matrix of ``cutoff``; a size numpy refuses outright is a usage error."""
    try:
        return np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    except ValueError as exc:  # past numpy's largest array, as opposed to a MemoryError
        raise InvalidParameterError(f"cutoff {cutoff} needs an array larger than numpy allows: {exc}")


def _total_photons(m: int) -> np.ndarray:
    """n_a + n_b at every entry of an m x m amplitude matrix."""
    return np.add.outer(np.arange(m), np.arange(m))


class TwoModeState:
    """Normalized pure state with a total-photon cutoff.

    ``amplitudes`` is the read-only (cutoff+1)-square complex matrix
    A[n_a, n_b]; the cutoff is its size minus one.  Construction validates
    that A is square, zero wherever n_a + n_b > cutoff, and of unit norm
    (within ``TOL.norm``).
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: np.ndarray):
        amps = np.array(amplitudes, dtype=complex)
        if amps.ndim != 2 or amps.shape[0] != amps.shape[1] or amps.shape[0] == 0:
            raise InvalidStateError(f"amplitude matrix must be square, non-empty, got {amps.shape}")
        cutoff = amps.shape[0] - 1
        beyond = np.argwhere((_total_photons(cutoff + 1) > cutoff) & (amps != 0.0))
        if beyond.size:
            na, nb = beyond[0]
            raise InvalidStateError(f"pair ({na}, {nb}) exceeds total-photon cutoff {cutoff}")
        amps.setflags(write=False)
        self.amplitudes = amps
        deviation = abs(self.norm() - 1.0)
        if not deviation <= TOL.norm:
            raise InvalidStateError(f"state not normalized: |<psi|psi> - 1| = {deviation:.3e}")

    @classmethod
    def from_pairs(cls, pairs: Mapping[Tuple[int, int], complex], cutoff: int) -> "TwoModeState":
        """State from a {(n_a, n_b): amplitude} map; absent pairs are zero."""
        check_count("cutoff", cutoff, 0)
        amps = _zero_amplitudes(cutoff)
        for (na, nb), value in pairs.items():
            # negative indices would wrap around instead of failing
            if not (0 <= na <= cutoff and 0 <= nb <= cutoff):
                raise InvalidStateError(f"pair ({na}, {nb}) outside photon numbers 0..{cutoff}")
            amps[na, nb] = value
        return cls(amps)

    @property
    def cutoff(self) -> int:
        return self.amplitudes.shape[0] - 1

    def norm(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def amplitude(self, n_a: int, n_b: int) -> complex:
        """A[n_a, n_b]; zero for photon numbers outside 0..cutoff."""
        if 0 <= n_a <= self.cutoff and 0 <= n_b <= self.cutoff:
            return complex(self.amplitudes[n_a, n_b])
        return 0.0 + 0.0j

    def __repr__(self):
        return f"TwoModeState(terms={np.count_nonzero(self.amplitudes)}, cutoff={self.cutoff})"


def check_state(value, oracle: str) -> None:
    """Refuse anything but a ``TwoModeState`` on a production path, naming
    the general path in ``fockvortex.oracles`` that takes it."""
    if not isinstance(value, TwoModeState):
        raise InvalidParameterError(f"expected a TwoModeState, got {type(value).__name__}: "
                                    f"fockvortex.oracles.{oracle} takes it")


class DensityMatrix:
    """Hermitian, unit-trace operator on the two-mode Fock space.

    Stored as a 4-index tensor t[na, nb, ma, mb] = <na,nb| rho |ma,mb> with
    four equal sides; ``dimension`` is the largest representable per-mode
    photon number, one less than a side.  Construction validates the shape,
    Hermiticity (within ``TOL.hermiticity``) and trace (within ``TOL.trace``).
    """

    __slots__ = ("tensor",)

    def __init__(self, tensor: np.ndarray):
        tensor = np.asarray(tensor, dtype=complex)
        if tensor.ndim != 4 or len(set(tensor.shape)) != 1 or tensor.shape[0] == 0:
            raise InvalidStateError(f"tensor must have four equal, non-zero sides, got {tensor.shape}")
        self.tensor = tensor
        h = self.hermiticity_residue()
        if not h <= TOL.hermiticity:
            raise InvalidStateError(f"density matrix not Hermitian: residue {h:.3e}")
        tr = self.trace()
        if not abs(tr - 1.0) <= TOL.trace:
            raise InvalidStateError(f"density matrix trace {tr} != 1")

    @property
    def dimension(self) -> int:
        return self.tensor.shape[0] - 1

    def as_matrix(self) -> np.ndarray:
        """Flattened matrix in the basis index n_a * (d+1) + n_b."""
        m = self.tensor.shape[0]
        return self.tensor.reshape(m * m, m * m)

    def trace(self) -> float:
        return float(np.einsum("abab->", self.tensor).real)

    def hermiticity_residue(self) -> float:
        mat = self.as_matrix()
        return float(np.max(np.abs(mat - mat.conj().T)))


def make_tmss(params: SqueezeParams) -> TwoModeState:
    """Photon-number squeezed input: sum_{j<=N} c_j |j, j> with c_j ~ tanh(r)^j.

    The overall normalization is computed numerically (it absorbs the
    1/cosh(r) prefactor of the untruncated family), so the amplitudes are
    exactly unit-norm at any r.  Total-photon cutoff is 2 * n_max; its matrix
    is allocated before any weight is computed.
    """
    amps = _zero_amplitudes(2 * params.n_max)
    t = math.tanh(params.r)
    weights = np.array([t ** j for j in range(params.n_max + 1)], dtype=float)
    np.fill_diagonal(amps[:params.n_max + 1], weights / math.sqrt(math.fsum(w * w for w in weights)))
    return TwoModeState(amps)


def state_to_density(state: TwoModeState) -> DensityMatrix:
    """rho = |psi><psi| as a dense 4-index tensor."""
    amps = state.amplitudes
    tensor = np.einsum("ab,cd->abcd", amps, amps.conj())
    return DensityMatrix(tensor)
