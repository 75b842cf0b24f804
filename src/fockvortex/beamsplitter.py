"""50:50 beam-splitter unitary on two-mode Fock states.

Two independent constructions are kept side by side:

* ``apply_beam_splitter`` expands the mode map
  a+ -> (a+ + i b+)/sqrt(2),  b+ -> (b+ + i a+)/sqrt(2)
  binomially on every Fock component.  This is the ground-truth oracle.
* ``closed_form_vortex_state`` builds the same output from the per-pair
  coefficient formula and is validated against the oracle.  The binomial
  algebra forces the per-term prefactor tanh(r)^j * j! / 2^j per |j, j>
  component, which the oracle confirms (a j-independent constant is
  absorbed by normalization and would be invisible - a j-dependent one
  is not).
"""
from __future__ import annotations

import math
from math import lgamma
from typing import Iterator, Tuple

import numpy as np

from .config import TOL
from .errors import CoefficientMismatchError
from .states import SqueezeParams, TwoModeState, make_tmss

# debug hook for the selftest's mutation check: flips the sign of the
# closed form's summation phase (i -> -i).  Never set in normal operation.
_FAULT_INJECTED = False


def inject_fault(enabled: bool) -> None:
    global _FAULT_INJECTED
    _FAULT_INJECTED = bool(enabled)


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


def _closed_form_dense(params: SqueezeParams) -> np.ndarray:
    """Normalized closed-form amplitudes on the (2N+1)^2 grid."""
    n = params.n_max
    t = math.tanh(params.r)
    pref = [t ** j * math.exp(lgamma(j + 1) - j * math.log(2.0)) for j in range(n + 1)]
    phase_base = -1j if _FAULT_INJECTED else 1j
    out = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
    for j, k, l, c in _pair_terms(params):
        m = l - k
        out[j - m, j + m] += pref[j] * phase_base ** (k + l) * c
    return out / np.linalg.norm(out)


def closed_form_vortex_state(params: SqueezeParams, verify: bool = True) -> TwoModeState:
    """Vortex state from the coefficient formula, validated against the oracle
    unless ``verify`` is False."""
    dense = _closed_form_dense(params)
    if verify:
        dev = np.abs(dense - apply_beam_splitter(make_tmss(params)).amplitudes)
        worst = float(dev.max())
        if worst > TOL.oracle:
            na, nb = np.unravel_index(int(dev.argmax()), dev.shape)
            raise CoefficientMismatchError(worst, pair=(int(na), int(nb)))
    return TwoModeState(dense)
