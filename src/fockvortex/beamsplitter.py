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
from typing import Dict, Tuple

import numpy as np

from .config import TOL
from .errors import CoefficientMismatchError, InvalidParameterError
from .states import SqueezeParams, TwoModeState, _weights_by, make_tmss

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


def _closed_form_dense(params: SqueezeParams) -> np.ndarray:
    """Normalized closed-form amplitudes on the (2N+1)^2 grid."""
    n = params.n_max
    t = math.tanh(params.r)
    lg = _lgamma_table(2 * n + 2)
    phase_base = -1j if _FAULT_INJECTED else 1j
    out = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
    for j in range(n + 1):
        pref = t ** j * math.exp(lg[j] - j * math.log(2.0))
        for k in range(j + 1):
            for l in range(j + 1):
                # C_{k,l} = sqrt((j-l+k)! (j+l-k)!) / (k! (j-k)! l! (j-l)!)
                c = math.exp(
                    0.5 * (lg[j - l + k] + lg[j + l - k])
                    - lg[k] - lg[j - k] - lg[l] - lg[j - l]
                )
                m = l - k
                out[j - m, j + m] += pref * phase_base ** (k + l) * c
    return out / np.linalg.norm(out)


def _oracle_check(params: SqueezeParams) -> Tuple[np.ndarray, np.ndarray]:
    """(closed-form amplitudes, their per-amplitude distance to the oracle)."""
    dense = _closed_form_dense(params)
    oracle = apply_beam_splitter(make_tmss(params)).amplitudes
    return dense, np.abs(dense - oracle)


def closed_form_deviation(params: SqueezeParams) -> float:
    """Max per-amplitude distance between the closed form and the oracle.

    Diagnostic companion to ``closed_form_vortex_state``; does not raise.
    """
    return float(_oracle_check(params)[1].max())


def closed_form_vortex_state(params: SqueezeParams, verify: bool = True) -> TwoModeState:
    """Vortex state from the coefficient formula, validated against the oracle."""
    if not verify:
        return TwoModeState(_closed_form_dense(params))
    dense, dev = _oracle_check(params)
    worst = float(dev.max())
    if worst > TOL.oracle:
        na, nb = np.unravel_index(int(dev.argmax()), dev.shape)
        raise CoefficientMismatchError(worst, pair=(int(na), int(nb)))
    return TwoModeState(dense)


def photon_number_marginal(state: TwoModeState, mode: str) -> Dict[int, float]:
    """Per-mode photon-number distribution."""
    if mode not in ("a", "b"):
        raise InvalidParameterError(f"mode must be 'a' or 'b', got {mode!r}")
    return _weights_by(state, np.indices(state.amplitudes.shape)[0 if mode == "a" else 1])


def marginal_variance(state: TwoModeState, mode: str) -> float:
    dist = photon_number_marginal(state, mode)
    mean = sum(n * p for n, p in dist.items())
    return sum((n - mean) ** 2 * p for n, p in dist.items())
