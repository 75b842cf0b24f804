"""General paths that no CLI command takes, kept as the fast paths' oracles.

Only ``fockvortex.selftest`` and the tests import this module; the package
and ``fockvortex.cli`` do not, so no other command compiles or loads it.
"""
from __future__ import annotations

import math
from math import lgamma
from typing import Dict, Tuple, Union

import numpy as np

from . import wigner
from .beamsplitter import _pair_terms, apply_beam_splitter
from .config import GH_ORDER, MAX_REFINEMENTS, TOL
from .entanglement import EntanglementReport, _as_density, _report, partial_transpose
from .errors import CoefficientMismatchError, EigensolverError, InvariantError, check_count
from .quadrature import hermite_basis
from .states import SqueezeParams, TwoModeState, _total_photons, make_tmss
from .wigner import _SQRT2, _TWO_OVER_PI, _checked_real, _kernel_polys, _laguerre_rows, _require_finite

_MARGINAL_ORDER = 32  # Gauss-Hermite nodes per momentum axis in position_marginal


# ---------------------------------------------------------------------------
# Wigner functions at arbitrary points
# ---------------------------------------------------------------------------

def _pair_matrix(state_or_rho) -> Tuple[np.ndarray, int]:
    """rho of a state or a density matrix regrouped as the pair matrix
    rho_p[(ket_a, bra_a), (ket_b, bra_b)], plus the per-mode dimension m."""
    rho = _as_density(state_or_rho)
    m = rho.dimension + 1
    return rho.tensor.transpose(0, 2, 1, 3).reshape(m * m, m * m), m


def wigner_fock_diagonal(n: int, q_squared: Union[float, np.ndarray]):
    """W of |n><n| as a function of q^2 = x^2 + p^2."""
    check_count("order", n, 0)
    q2 = np.asarray(q_squared, dtype=float)
    *_, lag = _laguerre_rows(n, 0, 4.0 * q2)
    val = _TWO_OVER_PI * (-1.0) ** n * lag * np.exp(-2.0 * q2)
    return float(val) if np.isscalar(q_squared) else val


@np.errstate(over="ignore", invalid="ignore")  # overflow ends as a non-finite value, see _checked_real
def wigner_state(state_or_rho, point) -> Union[float, np.ndarray]:
    """W(x, p_x, y, p_y) at scalar coordinates or broadcastable arrays, for a
    state or a density matrix: the oracle the tests and selftest hold slices to."""
    x, px, y, py = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in point))
    scalar = x.ndim == 0
    shape = x.shape
    rho_p, m = _pair_matrix(state_or_rho)
    xf, pxf, yf, pyf = (c.ravel() for c in (x, px, y, py))
    vals = np.empty(xf.size)
    chunk = max(1, wigner._BLOCK_BYTES // (32 * m * m))  # two complex kernels a point
    for s in range(0, xf.size, chunk):
        sl = slice(s, min(s + chunk, xf.size))
        ka = _kernel_polys(m, xf[sl], pxf[sl]).reshape(m * m, -1)
        kb = _kernel_polys(m, yf[sl], pyf[sl]).reshape(m * m, -1)
        w = np.einsum("uP,uv,vP->P", ka, rho_p, kb, optimize=True)
        vals[sl] = _checked_real(w, xf[sl], pxf[sl], yf[sl], pyf[sl])
    return float(vals[0]) if scalar else vals.reshape(shape)


@np.errstate(over="ignore", invalid="ignore")
def position_marginal(state_or_rho, x: float, y: float) -> float:
    """Born-rule marginal of W over (p_x, p_y), as a density in field coordinates.

    The result equals |psi(x, y)|^2 of the quadrature module: the Wigner
    chart is evaluated at (x/sqrt(2), y/sqrt(2)) and the density rescaled
    by the Jacobian 1/2 of the chart change.
    """
    rho_p, m = _pair_matrix(state_or_rho)
    q, om = wigner.build_wigner_grid(_MARGINAL_ORDER)
    xw, yw = x / _SQRT2, y / _SQRT2
    ka = _kernel_polys(m, np.full(q.size, xw), q).reshape(m * m, q.size) @ om
    kb = _kernel_polys(m, np.full(q.size, yw), q).reshape(m * m, q.size) @ om
    val = ka @ rho_p @ kb * math.exp(-2.0 * (xw * xw + yw * yw))
    _require_finite(val, "marginal")
    if abs(val.imag) > TOL.imag_residue:
        raise InvariantError(f"marginal has imaginary residue {abs(val.imag):.3e}")
    return 0.5 * float(val.real)


def _box_rule(order: int, cutoff: int) -> Tuple[np.ndarray, np.ndarray]:
    """Midpoint rule on [-h, h], h = 1.2 sqrt(2 cutoff + 2), with e^{-2 q^2}
    folded into the weights: the independent oracle that the tests and the
    selftest hold ``build_wigner_grid`` against.  The box spans the Wigner
    envelope of Fock states with up to ``cutoff`` photons."""
    h = 1.2 * math.sqrt(2.0 * cutoff + 2.0)
    edges = np.linspace(-h, h, order + 1)
    q = 0.5 * (edges[:-1] + edges[1:])
    return q, (2.0 * h / order) * np.exp(-2.0 * q * q)


# ---------------------------------------------------------------------------
# 4-D tensor-product negativity volume
# ---------------------------------------------------------------------------

def _nv_pass(rho_p: np.ndarray, m: int, grid: Tuple[np.ndarray, np.ndarray]) -> Tuple[float, float]:
    """One tensor-quadrature pass: (integral of |W|, integral of W).

    The 4-D lattice is the product of one (x, p) plane per mode sharing the
    same axis rule; W over the lattice is assembled as Re(Ka^T rho_p Kb) in
    row blocks, real-split so only real GEMMs run.
    """
    q, w = grid
    n1 = len(q)
    xs = np.repeat(q, n1)
    ps = np.tile(q, n1)
    wplane = np.outer(w, w).ravel()
    kern = _kernel_polys(m, xs, ps).reshape(m * m, n1 * n1)
    dmat = rho_p @ kern
    kr, ki = np.ascontiguousarray(kern.real), np.ascontiguousarray(kern.imag)
    dr, di = np.ascontiguousarray(dmat.real), np.ascontiguousarray(dmat.imag)
    npts = n1 * n1
    total_abs = 0.0
    total_w = 0.0
    block = max(1, wigner._BLOCK_BYTES // (8 * npts))
    for s in range(0, npts, block):
        sl = slice(s, min(s + block, npts))
        rows = kr[:, sl].T @ dr  # Re(Ka^T D); subtracting in place keeps one block fewer live
        rows -= ki[:, sl].T @ di
        total_w += float(wplane[sl] @ (rows @ wplane))
        total_abs += float(wplane[sl] @ (np.abs(rows) @ wplane))
    return total_abs, total_w


def tensor_negativity_volume(state_or_rho, order: int = GH_ORDER, tol: float = TOL.nv,
                             max_refinements: int = MAX_REFINEMENTS) -> wigner.NegativityResult:
    """``negativity_volume`` of any state or density matrix by the 4-D tensor
    rule, ``wigner.build_wigner_grid`` on each axis: engine ``"tensor-4d"``."""
    wigner.check_ladder(order, tol, max_refinements)
    rho_p, m = _pair_matrix(state_or_rho)
    return wigner._ladder(lambda order: _nv_pass(rho_p, m, wigner.build_wigner_grid(order)),
                          order, tol, max_refinements, "tensor-4d")


# ---------------------------------------------------------------------------
# Closed-form vortex state
# ---------------------------------------------------------------------------

def _closed_form_dense(params: SqueezeParams, fault: bool = False) -> np.ndarray:
    """Normalized closed-form amplitudes on the (2N+1)^2 grid: the binomial
    algebra fixes the prefactor of |j, j>'s terms to tanh(r)^j * j! / 2^j, a
    j-dependent factor that normalization would not hide from the splitter.
    ``fault``, the selftest's mutation check, makes the summation phase -i."""
    n = params.n_max
    t = math.tanh(params.r)
    pref = [t ** j * math.exp(lgamma(j + 1) - j * math.log(2.0)) for j in range(n + 1)]
    phase_base = -1j if fault else 1j
    out = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
    for j, k, l, c in _pair_terms(params):
        m = l - k
        out[j - m, j + m] += pref[j] * phase_base ** (k + l) * c
    return out / np.linalg.norm(out)


def closed_form_vortex_state(params: SqueezeParams, fault: bool = False) -> TwoModeState:
    """Vortex state from the per-pair coefficient formula (``fault`` as in
    ``_closed_form_dense``), validated against ``apply_beam_splitter`` of the input."""
    dense = _closed_form_dense(params, fault)
    dev = np.abs(dense - apply_beam_splitter(make_tmss(params)).amplitudes)
    worst = float(dev.max())
    if worst > TOL.oracle:
        na, nb = np.unravel_index(int(dev.argmax()), dev.shape)
        raise CoefficientMismatchError(worst, pair=(int(na), int(nb)))
    return TwoModeState(dense)


# ---------------------------------------------------------------------------
# Log-negativity by eigh
# ---------------------------------------------------------------------------

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


def log_negativity_eigh(rho) -> EntanglementReport:
    """``log_negativity`` of a state or a density matrix from a checked
    ``eigh`` of its mode-a partial transpose."""
    pt = partial_transpose(rho).as_matrix()
    return _report(_eigvals_checked(pt), pt.shape[0])


# ---------------------------------------------------------------------------
# Test utilities
# ---------------------------------------------------------------------------

def random_state(rng: np.random.Generator, cutoff: int) -> TwoModeState:
    """Haar-ish random normalized state on all pairs with n_a + n_b <= cutoff."""
    support = np.nonzero(_total_photons(cutoff + 1) <= cutoff)  # row-major pair order
    vec = rng.normal(size=support[0].size) + 1j * rng.normal(size=support[0].size)
    amps = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    amps[support] = vec / np.linalg.norm(vec)
    return TwoModeState(amps)


def total_photon_distribution(state: TwoModeState) -> Dict[int, float]:
    """Probability of total photon number n_a + n_b over the nonzero
    amplitudes, sorted by total."""
    occupied = np.nonzero(state.amplitudes)
    totals = _total_photons(state.cutoff + 1)[occupied]
    sums = np.bincount(totals, weights=np.abs(state.amplitudes[occupied]) ** 2)
    return {int(k): float(sums[k]) for k in np.unique(totals)}


def hermite_function(n: int, x: Union[float, np.ndarray]):
    """psi_n(x) = (2^n n! sqrt(pi))^{-1/2} e^{-x^2/2} H_n(x)."""
    check_count("order", n, 0)
    scalar = np.isscalar(x)
    out = hermite_basis(n, np.atleast_1d(np.asarray(x, dtype=float)))[n]
    return float(out[0]) if scalar else out


def hard_cases() -> np.ndarray:
    """Doubles where a shortest-repr formatter goes wrong first: signed zeros,
    the subnormal and normal extremes, values that round up into a new digit
    (0.2, 0.3), exact ties that round half to even, the edges of repr's fixed
    notation (1e-4, 1e-5, 1e15, 1e16) and of the Ryū branch (2^50 and its
    neighbours), every power of ten from 1e-320 to 1e308, every power of two
    (whose lower neighbour is closer) and a 24-character repr."""
    tiny = np.finfo(float).tiny
    edge = 2.0 ** 50
    cases = [0.0, -0.0, 5e-324, tiny, np.nextafter(tiny, 0.0), -tiny, np.finfo(float).max,
             0.2, 0.3, -0.2, 562949953421312.25, 562949953421312.75, 17179869200.1640625,
             1e-4, 1e-5, 1e15, 1e16, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]
    cases += [float(f"1e{e}") for e in range(-320, 309)]
    return np.concatenate([cases, 2.0 ** np.arange(-1074, 1024)])
