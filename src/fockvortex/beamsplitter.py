"""50:50 beam-splitter unitary on two-mode Fock states.

``apply_beam_splitter`` expands the mode map
a+ -> (a+ + i b+)/sqrt(2),  b+ -> (b+ + i a+)/sqrt(2)
binomially on every Fock component.  ``_expansion`` gives the terms of one
input component |n_a, n_b>; the splitter sums them into its output, and the
diagonal form of ``fockvortex.wigner`` sums their squares for each pair
input |j, j>.  The splitter's independent cross-check, the closed-form image
of pair input in ``fockvortex.oracles``, shares none of this code.
"""
from __future__ import annotations

import math
from math import lgamma
from typing import Tuple

import numpy as np

from .config import TOL
from .errors import InvariantError
from .states import TwoModeState


def _lgamma_table(n: int) -> np.ndarray:
    return np.array([lgamma(k + 1) for k in range(n + 1)])


def _expansion(lg: np.ndarray, na: int, nb: int) -> Tuple[np.ndarray, ...]:
    """(o_a, o_b, k + l, log|term|) of |n_a, n_b>'s image over the (k, l)
    grid, k = 0..n_a on axis 0 and l = 0..n_b on axis 1: k photons of mode a
    and l of mode b cross the splitter, to |n_a - k + l, n_b - l + k> with
    the phase i^(k + l); ``lg`` holds log(n!) up to n_a + n_b."""
    k = np.arange(na + 1)[:, None]
    l = np.arange(nb + 1)[None, :]
    oa = na - k + l
    ob = nb - l + k
    # 2^{-(na+nb)/2} * C(na,k) C(nb,l) * sqrt(oa! ob! / (na! nb!))
    logmag = (
        lg[na] - lg[k] - lg[na - k]
        + lg[nb] - lg[l] - lg[nb - l]
        + 0.5 * (lg[oa] + lg[ob] - lg[na] - lg[nb])
        - 0.5 * (na + nb) * math.log(2.0)
    )
    return oa, ob, k + l, logmag


def apply_beam_splitter(state: TwoModeState) -> TwoModeState:
    """Direct operator expansion; exact total-photon conservation by construction.
    Raises ``InvariantError``, naming the cutoff, where the expansion's rounding
    moves the image's norm by more than ``TOL.norm``."""
    amps = state.amplitudes
    lg = _lgamma_table(state.cutoff)
    out = np.zeros_like(amps)
    i_pow = np.array([1, 1j, -1, -1j], dtype=complex)
    # row-major order, so np.add.at sums each output entry's terms in (n_a, n_b) order
    for na, nb in np.argwhere(amps):
        oa, ob, power, logmag = _expansion(lg, na, nb)
        term = amps[na, nb] * np.exp(logmag) * i_pow[power % 4]
        np.add.at(out, (oa.ravel(), ob.ravel()), term.ravel())
    deviation = abs(float(np.vdot(out, out).real) - 1.0)
    if not deviation <= TOL.norm:
        raise InvariantError(
            f"the splitter's binomial expansion lost the norm of its normalized input at "
            f"cutoff {state.cutoff}: |<psi|psi> - 1| = {deviation:.3e} exceeds {TOL.norm:.0e}")
    return TwoModeState(out)
