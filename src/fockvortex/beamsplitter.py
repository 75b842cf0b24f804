"""50:50 beam-splitter unitary on two-mode Fock states.

``apply_beam_splitter`` expands the mode map
a+ -> (a+ + i b+)/sqrt(2),  b+ -> (b+ + i a+)/sqrt(2)
binomially on every Fock component.  ``_pair_terms`` gives the per-pair
coefficients of that expansion for a pair input |j, j>, which the diagonal
closed form of ``fockvortex.wigner`` and the closed-form vortex state of
``fockvortex.oracles`` (the splitter's independent cross-check) both sum.
"""
from __future__ import annotations

import math
from math import lgamma
from typing import Iterator, Tuple

import numpy as np

from .states import SqueezeParams, TwoModeState


def _lgamma_table(n: int) -> np.ndarray:
    return np.array([lgamma(k + 1) for k in range(n + 1)])


def apply_beam_splitter(state: TwoModeState) -> TwoModeState:
    """Direct operator expansion; exact total-photon conservation by construction."""
    amps = state.amplitudes
    lg = _lgamma_table(state.cutoff)
    out = np.zeros_like(amps)
    i_pow = np.array([1, 1j, -1, -1j], dtype=complex)
    # row-major order, so np.add.at sums each output entry's terms in (n_a, n_b) order
    for na, nb in np.argwhere(amps):
        amp = amps[na, nb]
        k = np.arange(na + 1)[:, None]
        l = np.arange(nb + 1)[None, :]
        oa = na - k + l  # output photon numbers, mode a
        ob = nb - l + k
        # amp * 2^{-(na+nb)/2} * i^{k+l} * C(na,k) C(nb,l) * sqrt(oa! ob! / (na! nb!))
        logmag = (
            lg[na] - lg[k] - lg[na - k]
            + lg[nb] - lg[l] - lg[nb - l]
            + 0.5 * (lg[oa] + lg[ob] - lg[na] - lg[nb])
            - 0.5 * (na + nb) * math.log(2.0)
        )
        term = amp * np.exp(logmag) * i_pow[(k + l) % 4]
        np.add.at(out, (oa.ravel(), ob.ravel()), term.ravel())
    return TwoModeState(out)


def _pair_terms(params: SqueezeParams) -> Iterator[Tuple[int, int, int, float]]:
    """(j, k, l, C_{k,l}) for every input pair |j, j>, j <= n_max, and every
    k, l in 0..j; C_{k,l} = sqrt((j-l+k)! (j+l-k)!) / (k! (j-k)! l! (j-l)!).

    Pair |j, j> sends k photons of mode a and l of mode b across the
    splitter, to |j - m, j + m> with m = l - k.
    """
    lg = _lgamma_table(2 * params.n_max)
    for j in range(params.n_max + 1):
        for k in range(j + 1):
            for l in range(j + 1):
                yield j, k, l, math.exp(
                    0.5 * (lg[j - l + k] + lg[j + l - k])
                    - lg[k] - lg[j - k] - lg[l] - lg[j - l]
                )
