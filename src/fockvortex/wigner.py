"""Two-mode Wigner functions, phase-space quadrature, negativity volume.

Conventions
-----------
Wigner phase-space coordinates are scaled so the single-mode number-state
function is W_n(x, p) = (2/pi) (-1)^n L_n(4 q^2) e^{-2 q^2} with
q^2 = x^2 + p^2 (vacuum peak 2/pi, vacuum variance 1/4).  The position
field psi(x, y) of the quadrature module uses the Hermite-function scale
(vacuum variance 1/2), so the two charts differ by a factor sqrt(2) in
coordinates and 2 in density; ``position_marginal`` applies that bridge
explicitly and returns the Born-rule density |psi(x, y)|^2 in field
coordinates.

The general |n><m| kernels carry the cross terms that a pure two-mode
state needs.  A diagonal double-sum closed form for this state family
keeps only squared coefficient weights; it is implemented as a
comparison view (``wigner_diagonal_form``) and its pointwise difference
from the exact Wigner function is a reported diagnostic, not an
assertion.

Negativity volume
-----------------
NV = (integral of |W| - integral of W) / 2 over the 4-D phase space.  Two
exact facts reduce that integral to three dimensions for every state the
pipelines build:

* NV is invariant under passive Gaussian unitaries, which act on phase
  space as rotations: W_out(z) = W_in(S^-1 z).  The 50:50 splitter is one,
  and applying it twice only re-phases and swaps pair states
  (|j, k> -> i^(j+k) |k, j>).
* A state whose amplitudes sit on one n_a - n_b = d diagonal has kernel
  products |n><m| x |n-d><m-d|, whose angular phases combine to
  e^{-i s (phi_a + phi_b)} with s = n - m.  Its Wigner function is
  W = sum_s [Re G_s cos(s theta) + Im G_s sin(s theta)] e^{-2(rho_a^2 + rho_b^2)}
  with theta = phi_a + phi_b and real-polynomial radial profiles G_s; the
  sine terms vanish when the amplitudes are real up to a global phase.

``negativity_volume`` therefore dispatches on the input: a pure
``TwoModeState`` that, directly or after one more splitter pass, carries
all but ``TOL.norm`` of its weight on one diagonal is integrated on
order^2 radial nodes in (u_a, u_b), u = 2 rho^2 (Gauss-Laguerre in
u_a + u_b times Gauss-Legendre in the ratio u_b / (u_a + u_b), see
``_radial_pair_rule``; the weights come from the Christoffel function,
which keeps them accurate relative to their size at the largest nodes,
where the degree-2N radial profiles are huge), times a trapezoid rule in
theta with ``max(order, s_max + 1)`` nodes, which is exact for the
trigonometric polynomial in theta.  Density matrices, states without that
symmetry and the ``uniform-box`` scheme take the 4-D tensor-product engine,
which also serves as the oracle for the reduced pass in the tests and the
selftest.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from math import lgamma
from typing import List, Optional, Tuple, Union

import numpy as np

from .beamsplitter import apply_beam_splitter
from .config import BOX_WIDTH_SCALE, GH_ORDER, MAX_REFINEMENTS, TOL
from .errors import InvalidParameterError, InvariantError, NonConvergenceError
from .quadrature import _write_grid_csv
from .states import DensityMatrix, SqueezeParams, TwoModeState, make_tmss

_TWO_OVER_PI = 2.0 / math.pi
_SQRT2 = math.sqrt(2.0)
_MARGINAL_ORDER = 32  # Gauss-Hermite nodes per momentum axis in position_marginal


# ---------------------------------------------------------------------------
# Fock-basis kernels
# ---------------------------------------------------------------------------

def _laguerre_rows(n_max: int, alpha: int, u: np.ndarray) -> np.ndarray:
    """Associated Laguerre table L_0^a .. L_nmax^a at points u (recurrence)."""
    rows = np.empty((n_max + 1,) + u.shape)
    rows[0] = 1.0
    if n_max >= 1:
        rows[1] = 1.0 + alpha - u
    for n in range(1, n_max):
        rows[n + 1] = ((2 * n + 1 + alpha - u) * rows[n] - (n + alpha) * rows[n - 1]) / (n + 1)
    return rows


def _kernel_polys(dim: int, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Kernel polynomial parts K[n, m]: W_{|n><m|} = K[n, m] * e^{-2 q^2}.

    For n >= m:  K = (2/pi) (-1)^m sqrt(m!/n!) (2(x - i p))^{n-m} L_m^{n-m}(4 q^2),
    and K[m, n] is its conjugate (Hermitian symmetry).
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    u = 4.0 * (x * x + p * p)
    lg = [lgamma(k + 1) for k in range(dim)]
    out = np.empty((dim, dim) + x.shape, dtype=complex)
    z = 2.0 * (x - 1j * p)
    zpow = np.ones_like(z)
    for a in range(dim):  # a = n - m
        if a > 0:
            zpow = zpow * z
        lag = _laguerre_rows(dim - 1 - a, a, u)
        for m in range(dim - a):
            pref = _TWO_OVER_PI * (-1.0) ** m * math.exp(0.5 * (lg[m] - lg[m + a]))
            out[m + a, m] = pref * zpow * lag[m]
            if a > 0:
                out[m, m + a] = np.conj(out[m + a, m])
    return out


def wigner_fock_diagonal(n: int, q_squared: Union[float, np.ndarray]):
    """W of |n><n| as a function of q^2 = x^2 + p^2."""
    if n < 0:
        raise InvalidParameterError(f"order must be >= 0, got {n}")
    q2 = np.asarray(q_squared, dtype=float)
    lag = _laguerre_rows(n, 0, 4.0 * q2)[n]
    val = _TWO_OVER_PI * (-1.0) ** n * lag * np.exp(-2.0 * q2)
    return float(val) if np.isscalar(q_squared) else val


def wigner_fock_cross(n: int, m: int, x: float, p: float) -> complex:
    """Wigner transform of |n><m| at (x, p); reduces to the diagonal at n = m."""
    if n < 0 or m < 0:
        raise InvalidParameterError("orders must be >= 0")
    dim = max(n, m) + 1
    poly = _kernel_polys(dim, np.atleast_1d(float(x)), np.atleast_1d(float(p)))[n, m, 0]
    return complex(poly * math.exp(-2.0 * (x * x + p * p)))


# ---------------------------------------------------------------------------
# Wigner function of a state
# ---------------------------------------------------------------------------

def _pair_matrix(state_or_rho) -> Tuple[np.ndarray, int]:
    """rho regrouped as rho_p[(ket_a, bra_a), (ket_b, bra_b)], plus per-mode dim."""
    if isinstance(state_or_rho, TwoModeState):
        amps = state_or_rho.amplitudes
        m = amps.shape[0]
        rho_p = np.einsum("ab,cd->acbd", amps, amps.conj()).reshape(m * m, m * m)
        return rho_p, m
    if isinstance(state_or_rho, DensityMatrix):
        m = state_or_rho.dimension + 1
        rho_p = state_or_rho.tensor.transpose(0, 2, 1, 3).reshape(m * m, m * m)
        return rho_p, m
    raise InvalidParameterError(f"expected TwoModeState or DensityMatrix, got {type(state_or_rho)!r}")


def _checked_real(w: np.ndarray, x, px, y, py) -> np.ndarray:
    """Re(w) e^{-2 q^2} at the points (x, px, y, py), after checking that every
    value is finite and the imaginary residue is below ``TOL.imag_residue``.

    Far from the origin the kernel polynomials overflow while the Gaussian
    underflows, and their product is NaN; that is an error, not a value.
    """
    gauss = np.exp(-2.0 * (x ** 2 + px ** 2 + y ** 2 + py ** 2))
    vals = w.real * gauss
    worst = float(np.max(np.abs(w.imag * gauss), initial=0.0))
    if not np.isfinite(vals).all():
        raise InvariantError("Wigner value is not finite: the kernel polynomials overflow this far out")
    if not worst <= TOL.imag_residue:
        raise InvariantError(f"Wigner value has imaginary residue {worst:.3e}")
    return vals


@np.errstate(over="ignore", invalid="ignore")  # overflow ends as a non-finite value, see _checked_real
def wigner_state(state_or_rho, point) -> Union[float, np.ndarray]:
    """W(x, p_x, y, p_y); accepts scalar coordinates or broadcastable arrays."""
    x, px, y, py = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in point))
    scalar = x.ndim == 0
    shape = x.shape
    rho_p, m = _pair_matrix(state_or_rho)
    xf, pxf, yf, pyf = (c.ravel() for c in (x, px, y, py))
    vals = np.empty(xf.size)
    chunk = max(256, (1 << 22) // (m * m))
    for s in range(0, xf.size, chunk):
        sl = slice(s, min(s + chunk, xf.size))
        ka = _kernel_polys(m, xf[sl], pxf[sl]).reshape(m * m, -1)
        kb = _kernel_polys(m, yf[sl], pyf[sl]).reshape(m * m, -1)
        w = np.einsum("uP,uv,vP->P", ka, rho_p, kb, optimize=True)
        vals[sl] = _checked_real(w, xf[sl], pxf[sl], yf[sl], pyf[sl])
    return float(vals[0]) if scalar else vals.reshape(shape)


@np.errstate(over="ignore", invalid="ignore")
def _product_grid_wigner(state_or_rho, point) -> np.ndarray:
    """W on a 2-D grid whose mode-a coordinates vary only along axis 0 and
    mode-b coordinates only along axis 1.

    W[i, j] = Re(K_a[:, i]^T rho_p K_b[:, j]) e^{-2 q^2}, with each kernel built
    on its own axis points only.  In numpy 2.4 the einsum of ``wigner_state``
    computes rho_p^T K_a and then one batched matmul per point; here the first
    product runs once per grid and the second is one broadcast matmul over
    strided views, which gives the same bytes.  C-contiguous per-point copies
    of either operand would select another matmul loop and change the last
    bits.
    """
    x, px, y, py = point
    rho_p, m = _pair_matrix(state_or_rho)
    ka = _kernel_polys(m, x[:, 0], px[:, 0]).reshape(m * m, -1)
    kb = _kernel_polys(m, y[0], py[0]).reshape(m * m, -1)
    d = rho_p.T @ ka
    w = np.matmul(kb.T[None, :, None, :], d.T[:, None, :, None])[..., 0, 0]
    return _checked_real(w, x, px, y, py)


def position_marginal(state_or_rho, x: float, y: float) -> float:
    """Born-rule marginal of W over (p_x, p_y), as a density in field coordinates.

    The result equals |psi(x, y)|^2 of the quadrature module: the Wigner
    chart is evaluated at (x/sqrt(2), y/sqrt(2)) and the density rescaled
    by the Jacobian 1/2 of the chart change.
    """
    rho_p, m = _pair_matrix(state_or_rho)
    q, om = _gauss_hermite(_MARGINAL_ORDER)
    xw, yw = x / _SQRT2, y / _SQRT2
    ka = _kernel_polys(m, np.full(q.size, xw), q).reshape(m * m, q.size) @ om
    kb = _kernel_polys(m, np.full(q.size, yw), q).reshape(m * m, q.size) @ om
    val = ka @ rho_p @ kb * math.exp(-2.0 * (xw * xw + yw * yw))
    if abs(val.imag) > TOL.imag_residue:
        raise InvariantError(f"marginal has imaginary residue {abs(val.imag):.3e}")
    return 0.5 * float(val.real)


# ---------------------------------------------------------------------------
# Diagonal double-sum closed form (comparison view)
# ---------------------------------------------------------------------------

def _diagonal_form_weights(params: SqueezeParams) -> dict:
    """Mixture weights per (j, m): tanh(r)^{2j} (j!)^2 / 4^j * sum |C_{k,l}|^2.

    A j-independent power-of-2 denominator or an unsigned 0..j range for
    m would both be wrong here: the per-pair binomial algebra fixes the
    denominator to 4^j, and the signed range m = l - k in -j..j preserves
    the state's mode-exchange symmetry.  Constants are irrelevant: the
    total is normalized numerically.
    """
    t = math.tanh(params.r)
    lg = [lgamma(k + 1) for k in range(2 * params.n_max + 2)]
    weights: dict = {}
    for j in range(params.n_max + 1):
        base = t ** (2 * j) * math.exp(2.0 * lg[j] - j * math.log(4.0))
        for k in range(j + 1):
            for l in range(j + 1):
                c = math.exp(
                    0.5 * (lg[j - l + k] + lg[j + l - k])
                    - lg[k] - lg[j - k] - lg[l] - lg[j - l]
                )
                m = l - k
                weights[(j, m)] = weights.get((j, m), 0.0) + base * c * c
    total = math.fsum(weights.values())
    return {jm: v / total for jm, v in weights.items()}


def wigner_diagonal_form(params: SqueezeParams, point) -> Union[float, np.ndarray]:
    """Diagonal closed form in the rotating-pair variables Q0, Q1.

    Each (j, m) term is a product of circular-mode number-state Wigner
    functions with arguments 8(Q0 +/- Q1); the argument scale (8, not 4)
    is fixed by the same chart bridge that makes the N = 0 case reproduce
    the vacuum exactly.  Intended to approach ``wigner_state`` of the
    exact beam-splitter output; the difference is a diagnostic, see
    ``diagonal_form_deviation``.
    """
    x, px, y, py = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in point))
    scalar = x.ndim == 0
    q0 = 0.25 * (x * x + y * y + px * px + py * py)
    q1 = 0.5 * (x * py - y * px)
    up = 8.0 * (q0 + q1)
    um = 8.0 * (q0 - q1)
    nmax = 2 * params.n_max
    lp = _laguerre_rows(nmax, 0, up)
    lm = _laguerre_rows(nmax, 0, um)
    out = np.zeros_like(np.asarray(q0))
    for (j, m), w in sorted(_diagonal_form_weights(params).items()):
        # (-1)^{j+m} (-1)^{j-m} = (-1)^{2j} = 1: the sign prints as +1 identically
        out = out + w * lp[j + m] * lm[j - m]
    vals = (4.0 / math.pi ** 2) * out * np.exp(-8.0 * np.asarray(q0))
    return float(vals) if scalar else vals


def diagonal_form_deviation(
    params: SqueezeParams, lattice_points: int = 17, half_width: float = 2.0
) -> dict:
    """Pointwise gap between the diagonal closed form and the exact W.

    Sampled on a lattice_points^4 cube; reported, never asserted - the
    closed form drops the interference terms a pure state carries.
    """
    axis = np.linspace(-half_width, half_width, lattice_points)
    gx, gpx, gy, gpy = np.meshgrid(axis, axis, axis, axis, indexing="ij")
    state = apply_beam_splitter(make_tmss(params))
    exact = wigner_state(state, (gx, gpx, gy, gpy))
    diagonal = wigner_diagonal_form(params, (gx, gpx, gy, gpy))
    return {
        "max_abs_diff": float(np.max(np.abs(diagonal - exact))),
        "max_abs_wigner": float(np.max(np.abs(exact))),
        "lattice_points": lattice_points,
        "half_width": half_width,
    }


# ---------------------------------------------------------------------------
# Negativity volume
# ---------------------------------------------------------------------------

_SCHEMES = ("tensor-gauss-hermite", "uniform-box")


@dataclass(frozen=True)
class WignerRule:
    scheme: str = "tensor-gauss-hermite"
    order: int = GH_ORDER

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise InvalidParameterError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if self.order < 2:
            raise InvalidParameterError(f"order must be >= 2, got {self.order}")


@dataclass(frozen=True)
class WignerGrid:
    """Per-axis nodes and weights; the Gaussian envelope e^{-2q^2} is folded
    into the weights, so integrands are evaluated as kernel polynomials."""

    nodes: np.ndarray
    weights: np.ndarray

    def gaussian_check(self) -> float:
        """|sum(weights) - integral of e^{-2 q^2}|; small for a sound rule."""
        return abs(float(self.weights.sum()) - math.sqrt(math.pi / 2.0))


def build_wigner_grid(rule: WignerRule, cutoff: int, order: Optional[int] = None) -> WignerGrid:
    o = order if order is not None else rule.order
    if rule.scheme == "tensor-gauss-hermite":
        return WignerGrid(*_gauss_hermite(o))
    h = BOX_WIDTH_SCALE * math.sqrt(2.0 * cutoff + 2.0)
    edges = np.linspace(-h, h, o + 1)
    q = 0.5 * (edges[:-1] + edges[1:])
    return WignerGrid(q, (2.0 * h / o) * np.exp(-2.0 * q * q))


@dataclass
class NegativityResult:
    volume: float
    integral_abs: float
    normalization_check: float
    resolution_history: List[Tuple[int, float]] = field(default_factory=list)
    converged: bool = True
    under_resolved: bool = False
    engine: str = "tensor-4d"

    def to_json_dict(self) -> dict:
        return {
            "volume": self.volume,
            "integral_abs": self.integral_abs,
            "normalization_check": self.normalization_check,
            "resolution_history": [[o, v] for o, v in self.resolution_history],
            "converged": self.converged,
            "under_resolved": self.under_resolved,
            "engine": self.engine,
        }


def _nv_pass(rho_p: np.ndarray, m: int, grid: WignerGrid) -> Tuple[float, float]:
    """One tensor-quadrature pass: (integral of |W|, integral of W).

    The 4-D lattice is the product of one (x, p) plane per mode sharing the
    same axis rule; W over the lattice is assembled as Re(Ka^T rho_p Kb) in
    row blocks, real-split so only real GEMMs run.
    """
    q, w = grid.nodes, grid.weights
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
    block = max(32, (1 << 24) // npts)
    for s in range(0, npts, block):
        sl = slice(s, min(s + block, npts))
        rows = kr[:, sl].T @ dr - ki[:, sl].T @ di  # Re(Ka^T D)
        total_w += float(wplane[sl] @ (rows @ wplane))
        total_abs += float(wplane[sl] @ (np.abs(rows) @ wplane))
    return total_abs, total_w


def _golub_welsch(diag: np.ndarray, off: np.ndarray, mass: float) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights from a Jacobi matrix; finite at any order, where
    ``scipy.special.roots_laguerre`` overflows to NaN (order 384).

    The nodes are the eigenvalues.  The weights are not taken from the
    eigenvectors, whose components are accurate only in absolute terms (at
    order 192 the Laguerre weight at v ~ 542 would come out as 5.9e-62
    instead of 2.2e-232, and a degree-2N profile there multiplies the error
    back up).  They come from the Christoffel function
    w_i = 1 / sum_k p_k(x_i)^2 of the orthonormal polynomials, run through
    their three-term recurrence with the running sum rescaled to 1 at every
    step, so the weight is exp(-2 log scale) and underflows cleanly to 0.
    At order 192 these weights match 60-digit values to 1.2e-12 relative at
    every node whose weight is above 1e-300.
    """
    from scipy.linalg import eigh_tridiagonal  # deferred: a module-level import costs ~70 ms

    nodes = eigh_tridiagonal(diag, off, eigvals_only=True)
    p_prev = np.zeros_like(nodes)
    p = np.ones_like(nodes)
    log_scale = np.full_like(nodes, -0.5 * math.log(mass))  # p_0 = mass^-1/2
    for k in range(len(diag) - 1):
        p_next = ((nodes - diag[k]) * p - (off[k - 1] * p_prev if k else 0.0)) / off[k]
        norm = np.sqrt(1.0 + p_next * p_next)  # running sum of p^2 is 1 before this step
        p_prev, p = p / norm, p_next / norm
        log_scale += np.log(norm)
    weights = np.exp(-2.0 * log_scale)
    if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
        raise NonConvergenceError(
            f"Gauss rule of order {len(diag)} produced non-finite nodes/weights"
        )
    return nodes, weights


def _gauss_hermite(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the weight e^{-2 q^2}: the Gauss-Hermite rule
    (diagonal 0, off-diagonal sqrt(k/2), mass sqrt(pi)) scaled by 1/sqrt(2)."""
    k = np.arange(1, order, dtype=float)
    u, w = _golub_welsch(np.zeros(order), np.sqrt(0.5 * k), math.sqrt(math.pi))
    return u / _SQRT2, w / _SQRT2


@lru_cache(maxsize=None)
def _radial_pair_rule(order: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u_a, u_b, weights) for the integral of e^{-u_a - u_b} f(u_a, u_b) over u >= 0.

    In v = u_a + u_b and t = u_b / v the measure is v e^{-v} dv dt, so the rule
    is Gauss-Laguerre (alpha = 1) in v times Gauss-Legendre on [0, 1] in t;
    both are exact for the polynomial part of W.  The weights come from the
    Christoffel function (see ``_golub_welsch``), so they stay accurate
    relative to their own size out to the largest v; eigenvector weights
    there were off by up to 170 orders of magnitude, which took the integral
    of W to 37.4 at r = 1.1, N = 10 once the ladder reached order 192.  A
    tensor rule in (u_a, u_b) would put the zero lines u = const of a
    Fock-pair W on the grid axes, where the kink errors of |W| add up instead
    of averaging out.
    """
    k = np.arange(order, dtype=float)
    v, wv = _golub_welsch(2.0 * k + 2.0, np.sqrt(k[1:] * (k[1:] + 1.0)), 1.0)
    x, wx = _golub_welsch(np.zeros(order), k[1:] / np.sqrt(4.0 * k[1:] ** 2 - 1.0), 2.0)
    t = 0.5 * (x + 1.0)
    rule = (np.outer(v, 1.0 - t).ravel(), np.outer(v, t).ravel(), 0.5 * np.outer(wv, wx).ravel())
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _single_diagonal(dense: np.ndarray) -> Optional[Tuple[np.ndarray, int, int]]:
    """(c, n_a0, n_b0) when all but TOL.norm of the weight lies on one
    n_a - n_b diagonal; c[k] is the amplitude of |n_a0 + k, n_b0 + k>."""
    m = dense.shape[0]
    weight = np.abs(dense) ** 2
    offsets = range(1 - m, m)  # n_b - n_a
    per_diag = [float(np.trace(weight, offset=k)) for k in offsets]
    best = int(np.argmax(per_diag))
    if float(weight.sum()) - per_diag[best] > TOL.norm:
        return None
    k = offsets[best]
    c = np.diagonal(dense, offset=k)
    nz = np.flatnonzero(c)
    return c[nz[0]:nz[-1] + 1], int(nz[0]) + max(0, -k), int(nz[0]) + max(0, k)


def _pair_diagonal(state_or_rho) -> Optional[Tuple[np.ndarray, int, int]]:
    """The diagonal of a pure state or of its splitter image, if it has one.

    The splitter is passive, so NV is the same for the state and its image.
    """
    if not isinstance(state_or_rho, TwoModeState):
        return None
    found = _single_diagonal(state_or_rho.amplitudes)
    if found is None:
        found = _single_diagonal(apply_beam_splitter(state_or_rho).amplitudes)
    return found


def _reduced_pass(c: np.ndarray, na0: int, nb0: int, order: int) -> Tuple[float, float]:
    """One pass of the 3-D rule: (integral of |W|, integral of W).

    Nodes: ``_radial_pair_rule(order)`` in u = 2 rho^2 per mode times a
    trapezoid rule in theta = phi_a + phi_b.  The volume element
    d^4z = rho_a drho_a rho_b drho_b dphi_a dphi_b integrates to
    (pi^2 / 4) / n_theta times the weighted node sum.  Per block of radial
    nodes, the real profiles K[n, m](rho, 0) give the coefficient table
    [Re G_s, Im G_s], and one GEMM against [cos(s theta); sin(s theta)]
    gives W.
    """
    ua, ub, wr = _radial_pair_rule(order)
    span = len(c)
    dim = max(na0, nb0) + span
    pairs = [(2.0 if s else 1.0) * c[s:] * np.conj(c[:span - s]) for s in range(span)]
    n_theta = max(order, span)
    theta = (2.0 * math.pi / n_theta) * np.arange(n_theta)
    harmonics = np.arange(span)[:, None] * theta
    basis = np.concatenate([np.cos(harmonics), np.sin(harmonics[1:])])
    total_abs = 0.0
    total_w = 0.0
    block = max(1, (1 << 22) // max(n_theta, 2 * dim * dim))  # W block and profiles alike
    for start in range(0, len(wr), block):
        sl = slice(start, start + block)
        rho_a, rho_b = np.sqrt(0.5 * ua[sl]), np.sqrt(0.5 * ub[sl])
        prof_a = _kernel_polys(dim, rho_a, np.zeros_like(rho_a)).real
        prof_b = _kernel_polys(dim, rho_b, np.zeros_like(rho_b)).real
        coef = np.empty((len(rho_a), 2 * span - 1))
        for s in range(span):
            k = np.arange(s, span)
            g = pairs[s] @ (prof_a[na0 + k, na0 + k - s] * prof_b[nb0 + k, nb0 + k - s])
            coef[:, s] = g.real
            if s:
                coef[:, span - 1 + s] = g.imag
        w = coef @ basis
        total_w += float(wr[sl] @ w.sum(axis=1))
        total_abs += float(wr[sl] @ np.abs(w).sum(axis=1))
    scale = 0.25 * math.pi ** 2 / n_theta
    return scale * total_abs, scale * total_w


def negativity_volume(
    state_or_rho,
    rule: Optional[WignerRule] = None,
    tol: float = TOL.nv,
    max_refinements: int = MAX_REFINEMENTS,
) -> NegativityResult:
    """NV = (integral of |W| - integral of W) / 2 with order-doubling refinement.

    A pure state on one n_a - n_b diagonal (directly or after the splitter)
    takes the 3-D reduced rule; density matrices, other states and the
    ``uniform-box`` scheme take the 4-D tensor rule (see the module notes).
    Refinement stops when successive NV estimates differ by < tol; after
    ``max_refinements`` doublings the best estimate is returned flagged
    non-converged.  The computed integral of W stands in for the exact 1;
    a deviation beyond 10*tol flags the result under-resolved, and an
    under-resolved result is never reported as converged.
    """
    if not tol > 0:
        raise InvalidParameterError(f"tol must be > 0, got {tol}")
    rule = rule or WignerRule()
    diagonal = _pair_diagonal(state_or_rho) if rule.scheme == "tensor-gauss-hermite" else None
    if diagonal is not None:
        engine = "reduced-3d"

        def run_pass(order: int) -> Tuple[float, float]:
            return _reduced_pass(*diagonal, order)
    else:
        engine = "tensor-4d"
        rho_p, m = _pair_matrix(state_or_rho)
        cutoff = 2 * (m - 1)

        def run_pass(order: int) -> Tuple[float, float]:
            return _nv_pass(rho_p, m, build_wigner_grid(rule, cutoff, order=order))

    history: List[Tuple[int, float]] = []
    prev = None
    converged = False
    integral_abs = total_w = 0.0
    order = rule.order
    for _ in range(max_refinements + 1):
        integral_abs, total_w = run_pass(order)
        nv = 0.5 * (integral_abs - total_w)
        history.append((order, nv))
        if prev is not None and abs(nv - prev) < tol:
            converged = True
            break
        prev = nv
        order *= 2
    under_resolved = abs(total_w - 1.0) > 10.0 * tol
    return NegativityResult(
        volume=history[-1][1],
        integral_abs=integral_abs,
        normalization_check=total_w,
        resolution_history=history,
        converged=converged and not under_resolved,
        under_resolved=under_resolved,
        engine=engine,
    )


# ---------------------------------------------------------------------------
# 2-D slices
# ---------------------------------------------------------------------------

_COORD_NAMES = ("x", "px", "y", "py")


class WignerSlice:
    """W on a 2-D plane; values[i, j] indexed by (free coord 1, free coord 2)."""

    __slots__ = ("free_names", "fixed", "grid", "values")

    def __init__(self, free_names, fixed, grid, values):
        self.free_names = tuple(free_names)
        self.fixed = dict(fixed)
        self.grid = grid
        self.values = values

    def to_csv(self, path) -> None:
        """Rows ordered free coord 2 outer, free coord 1 inner; header <c1>,<c2>,w."""
        _write_grid_csv(path, (*self.free_names, "w"), self.grid, self.values,
                        lambda row: (row.tolist(),))


def plane_free_coords(plane: dict) -> List[str]:
    """The two free coordinates of a plane that fixes exactly two of (x, px, y, py)
    to finite numbers."""
    bad = set(plane) - set(_COORD_NAMES)
    if bad:
        raise InvalidParameterError(f"unknown coordinates in plane: {sorted(bad)}")
    if len(plane) != 2:
        raise InvalidParameterError("plane must fix exactly two of x, px, y, py")
    for name, value in plane.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
            raise InvalidParameterError(f"plane value for {name} must be a finite number, got {value!r}")
    return [n for n in _COORD_NAMES if n not in plane]


def plane_points(plane: dict, grid2d) -> Tuple[List[str], tuple]:
    """(free coordinate names, (x, px, y, py) arrays) of the plane's grid points;
    arrays are indexed [i, j] by the grid's first and second axis."""
    free = plane_free_coords(plane)
    c1, c2 = np.meshgrid(grid2d.x_axis(), grid2d.y_axis(), indexing="ij")
    coords = {name: np.full_like(c1, float(value)) for name, value in plane.items()}
    coords[free[0]], coords[free[1]] = c1, c2
    return free, tuple(coords[name] for name in _COORD_NAMES)


def wigner_slice(state_or_rho, plane: dict, grid2d) -> WignerSlice:
    """Evaluate W on the plane that fixes exactly two of (x, px, y, py).

    A plane that frees one coordinate per mode, as both CLI slice planes do,
    is a product grid and takes ``_product_grid_wigner``; a plane that frees
    both coordinates of one mode takes the pointwise ``wigner_state``.
    """
    free, point = plane_points(plane, grid2d)
    per_mode = free[0] in ("x", "px") and free[1] in ("y", "py")
    evaluate = _product_grid_wigner if per_mode else wigner_state
    return WignerSlice(free, plane, grid2d, evaluate(state_or_rho, point))
