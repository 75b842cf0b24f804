"""Two-mode Wigner functions, phase-space quadrature, negativity volume.

Conventions
-----------
Wigner phase-space coordinates are scaled so the single-mode number-state
function is W_n(x, p) = (2/pi) (-1)^n L_n(4 q^2) e^{-2 q^2} with
q^2 = x^2 + p^2 (vacuum peak 2/pi, vacuum variance 1/4).  The position
field psi(x, y) of the quadrature module uses the Hermite-function scale
(vacuum variance 1/2), so the two charts differ by a factor sqrt(2) in
coordinates and 2 in density; ``fockvortex.oracles.position_marginal``
applies that bridge and returns the Born-rule density |psi(x, y)|^2 in
field coordinates.

The general |n><m| kernels carry the cross terms that a pure two-mode
state needs.  A diagonal double-sum closed form for this state family
keeps only squared coefficient weights; it is implemented as a
comparison view (``wigner_diagonal_form``) and differs pointwise from the
exact Wigner function by those pair-coherence terms.

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

``negativity_volume`` therefore takes a pure ``TwoModeState`` that carries
all but ``TOL.norm`` of its weight on one diagonal, directly or after one
more splitter pass (the pipelines and ``nv`` pass the splitter's input,
which needs none), and integrates it by ``_reduced_pass``: a radial rule in
(u_a, u_b), u = 2 rho^2 (``_radial_pair_rule``), times a trapezoid rule in
theta that is exact for the trigonometric polynomial (``_theta_rule``);
each folds onto about half its nodes where W has the symmetry for it.  Any
other input (a density matrix, or a state on no single diagonal) raises
``InvalidParameterError``: the 4-D tensor-product engine,
``fockvortex.oracles.tensor_negativity_volume``, takes it, and is the oracle
for the reduced pass in the tests and the selftest.  The ladder's one
setting is its starting order; ``check_ladder`` states its bounds.

Every blocked loop (``_kernel_products``, ``_reduced_pass`` and the
oracles' ``wigner_state`` and ``_nv_pass``) takes its block length from the
one budget ``_BLOCK_BYTES`` = 32 MiB, divided by the bytes of one of its
items, but for the pair matrix's slabs in ``_kernel_products``: four photon
numbers each, the size at which they keep the bits of the whole matrix's
products.  The kernel builders block nothing themselves: their callers
bound what they build.  The kernel table comes from one Laguerre recurrence
over every alpha (``_kernel_columns``); the reduced pass reads its real
lower triangle as band-layout profile tables (``_profiles``), cached by
``_radial_profiles``.
``wigner_slice`` takes a ``TwoModeState`` and builds each mode's kernel on
that mode's distinct points only; ``fockvortex.oracles.wigner_state``,
which builds both at every point, is its oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from math import lgamma
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .beamsplitter import _pair_terms, apply_beam_splitter
from .config import GH_ORDER, MAX_REFINEMENTS, TOL
from .errors import InvalidParameterError, InvariantError, NonConvergenceError, check_count, check_real
from .quadrature import _write_grid_csv
from .states import SqueezeParams, TwoModeState, check_state

_TWO_OVER_PI = 2.0 / math.pi
_SQRT2 = math.sqrt(2.0)
_BLOCK_BYTES = 1 << 25  # bytes per block array in every blocked loop


# ---------------------------------------------------------------------------
# Fock-basis kernels
# ---------------------------------------------------------------------------

def _laguerre_rows(n_max: int, alpha, u: np.ndarray):
    """Associated Laguerre rows L_n^alpha(u), n = 0 .. n_max, yielded one at a
    time by the three-term recurrence.

    ``alpha`` is an integer, whose rows run to degree n_max, or an ascending
    1-D integer array whose alphas run along each row's first axis: one
    recurrence serves every alpha, with the float steps of the one-alpha
    recurrence, so the bits are the same.  Row n of an array then holds the
    alphas with n + alpha <= n_max only, the triangle of degrees the kernel
    table reads."""
    alphas = np.atleast_1d(alpha)
    col = alphas.reshape(alphas.shape + (1,) * u.ndim)
    triangle = np.ndim(alpha) > 0
    prev = row = None
    for n in range(n_max + 1):
        a = col[:int(np.searchsorted(alphas, n_max - n, side="right"))] if triangle else col
        k = len(a)
        if n == 0:
            nxt = np.ones((k,) + u.shape)
        elif n == 1:
            nxt = 1.0 + a - u
        else:
            nxt = ((2 * n - 1 + a - u) * row[:k] - (n - 1 + a) * prev[:k]) / n
        prev, row = row, nxt
        yield row if np.ndim(alpha) else row[0]


@lru_cache(maxsize=None)
def _kernel_prefactors(dim: int) -> np.ndarray:
    """pref[m, a] = (2/pi) (-1)^m sqrt(m!/(m+a)!) for m + a < dim, else 0."""
    lg = [lgamma(k + 1) for k in range(dim)]
    pref = np.zeros((dim, dim))
    for m in range(dim):
        pref[m, :dim - m] = [_TWO_OVER_PI * (-1.0) ** m * math.exp(0.5 * (lg[m] - lg[m + a]))
                             for a in range(dim - m)]
    pref.setflags(write=False)
    return pref


def _kernel_columns(dim: int, z: np.ndarray, u: np.ndarray):
    """Per column m of the kernel table's lower triangle: (m, K[m + a, m] for
    a = 0 .. dim - 1 - m), each column one product pref * z^a * L_m^a(u) over
    every a, as the Laguerre recurrence on every alpha reaches degree m.
    Only two Laguerre rows and the powers of z live at once, not a table of
    every (m, a)."""
    pref = _kernel_prefactors(dim).reshape((dim, dim) + (1,) * u.ndim)
    zpow = np.empty((dim,) + z.shape, dtype=z.dtype)
    zpow[0] = 1.0
    for a in range(1, dim):
        zpow[a] = zpow[a - 1] * z
    for m, lag in enumerate(_laguerre_rows(dim - 1, np.arange(dim), u)):
        col = pref[m, :dim - m] * zpow[:dim - m]
        col *= lag  # in place: one column temporary, not two
        yield m, col


def _kernel_polys(dim: int, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Kernel polynomial parts K[n, m]: W_{|n><m|} = K[n, m] * e^{-2 q^2}.

    For n >= m:  K = (2/pi) (-1)^m sqrt(m!/n!) (2(x - i p))^{n-m} L_m^{n-m}(4 q^2),
    and K[m, n] is its conjugate (Hermitian symmetry).

    One pass over every point: the callers bound the output (16 dim^2 bytes
    a point), and the columns' temporaries, about 4/dim of it, ride along.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    out = np.empty((dim, dim) + x.shape, dtype=complex)
    x, p, flat = x.ravel(), p.ravel(), out.reshape(dim, dim, -1)
    for m, col in _kernel_columns(dim, 2.0 * (x - 1j * p), 4.0 * (x * x + p * p)):
        flat[m:, m] = col
        np.conj(col[1:], out=flat[m, m + 1:])
    return out


# ---------------------------------------------------------------------------
# Wigner function of a state
# ---------------------------------------------------------------------------

def _require_finite(vals, what: str) -> None:
    """Far from the origin the polynomial factors overflow while the Gaussian
    underflows, and their product is NaN; that is an error, not a value."""
    if not np.isfinite(vals).all():
        raise InvariantError(f"{what} is not finite: the polynomials overflow this far out")


def _checked_real(w: np.ndarray, x, px, y, py) -> np.ndarray:
    """Re(w) e^{-2 q^2} at the points (x, px, y, py), after checking that every
    value is finite and the imaginary residue is below ``TOL.imag_residue``."""
    gauss = np.exp(-2.0 * (x ** 2 + px ** 2 + y ** 2 + py ** 2))
    vals = w.real * gauss
    worst = float(np.max(np.abs(w.imag * gauss), initial=0.0))
    _require_finite(vals, "Wigner value")
    if not worst <= TOL.imag_residue:
        raise InvariantError(f"Wigner value has imaginary residue {worst:.3e}")
    return vals


def _kernel_products(amps: np.ndarray, first, second) -> np.ndarray:
    """K_1(P)^T rho_p K_2(Q) for every point P of ``first`` and Q of ``second``,
    each one mode's (x, p) arrays of distinct points, with rho_p = A (x) A*
    the pair matrix of the amplitudes A, rows (ket_a, bra_a).  The mode with
    fewer points (``first`` on a tie) is contracted into rho_p first,
    d = rho_p^T K_1; the other kernel, in blocks of ``_BLOCK_BYTES`` (16 m^2
    bytes a point), meets d in a broadcast matmul over strided views.  These
    are the two steps of the einsum of ``fockvortex.oracles.wigner_state`` in
    numpy 2.4, so a plane that frees one coordinate per mode keeps its bytes;
    contiguous per-point copies would change the last bits.  rho_p (m^4 entries) is never built:
    d takes 4m rows at a time from a slab of four photon numbers of the other
    mode's ket, whose einsum rounds as the whole one, and four keeps each
    GEMV's rows in the groups of four of one GEMV over all of rho_p."""
    m = amps.shape[0]
    swap = second[0].size < first[0].size  # then mode b goes first
    first, second = (second, first) if swap else (first, second)
    k1 = _kernel_polys(m, *first).reshape(m * m, -1)
    d = np.empty((m * m, k1.shape[1]), dtype=complex)
    conj = amps.conj()
    for n in range(0, m, 4):
        if swap:  # rows (ket_a, bra_a) of rho_p with ket_a = n .. n + 3
            slab = np.einsum("ab,cd->acbd", amps[n:n + 4], conj).reshape(-1, m * m)
        else:  # columns (ket_b, bra_b) with ket_b = n .. n + 3
            slab = np.einsum("ab,cd->acbd", amps[:, n:n + 4], conj).reshape(m * m, -1).T
        d[n * m:(n + 4) * m] = slab @ k1
        del slab  # else the next slab is built while this one is alive
    w = np.empty((d.shape[1], second[0].size), dtype=complex)
    block = max(1, _BLOCK_BYTES // (16 * m * m))
    for s in range(0, w.shape[1], block):
        k = _kernel_polys(m, second[0][s:s + block], second[1][s:s + block]).reshape(m * m, -1)
        w[:, s:s + block] = np.matmul(k.T[None, :, None, :], d.T[:, None, :, None])[..., 0, 0]
        del k  # else the next block's kernel is built while this one is alive
    return w.T if swap else w


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
    base = [t ** (2 * j) * math.exp(2.0 * lgamma(j + 1) - j * math.log(4.0))
            for j in range(params.n_max + 1)]
    weights: dict = {}
    for j, k, l, c in _pair_terms(params):
        m = l - k
        weights[(j, m)] = weights.get((j, m), 0.0) + base[j] * c * c
    total = math.fsum(weights.values())
    return {jm: v / total for jm, v in weights.items()}


@np.errstate(over="ignore", invalid="ignore")  # overflow ends as a non-finite value
def wigner_diagonal_form(params: SqueezeParams, point) -> Union[float, np.ndarray]:
    """Diagonal closed form in the rotating-pair variables Q0, Q1.

    Each (j, m) term is a product of circular-mode number-state Wigner
    functions with arguments 8(Q0 +/- Q1); the argument scale (8, not 4)
    is fixed by the same chart bridge that makes the N = 0 case reproduce
    the vacuum exactly.  Intended to approach ``oracles.wigner_state`` of the
    exact beam-splitter output, without its pair-coherence terms.  Raises
    ``InvariantError`` where the Laguerre factors overflow.
    """
    x, px, y, py = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in point))
    scalar = x.ndim == 0
    q0 = 0.25 * (x * x + y * y + px * px + py * py)
    q1 = 0.5 * (x * py - y * px)
    up = 8.0 * (q0 + q1)
    um = 8.0 * (q0 - q1)
    nmax = 2 * params.n_max
    lp = list(_laguerre_rows(nmax, 0, up))
    lm = list(_laguerre_rows(nmax, 0, um))
    out = np.zeros_like(np.asarray(q0))
    for (j, m), w in sorted(_diagonal_form_weights(params).items()):
        # (-1)^{j+m} (-1)^{j-m} = (-1)^{2j} = 1: the sign prints as +1 identically
        out = out + w * lp[j + m] * lm[j - m]
    vals = (4.0 / math.pi ** 2) * out * np.exp(-8.0 * np.asarray(q0))
    _require_finite(vals, "diagonal-form value")
    return float(vals) if scalar else vals


# ---------------------------------------------------------------------------
# Negativity volume
# ---------------------------------------------------------------------------

def check_ladder(order: int, tol: float, max_refinements: int = MAX_REFINEMENTS) -> None:
    """The bounds of the NV refinement ladder's settings: a starting order of
    at least 2 nodes per axis, a convergence tolerance in (0, inf), and at
    least 0 doublings; both counts are integers, the tolerance is a finite
    real number, and a bool is none of them."""
    check_count("order", order, 2)
    check_count("max_refinements", max_refinements, 0)
    check_real("tol", tol)  # an infinite tol would pass any two orders as converged
    if tol <= 0:
        raise InvalidParameterError(f"tol must be > 0, got {tol}")


def build_wigner_grid(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-axis Gauss rule (nodes, weights) for the weight e^{-2 q^2}: the
    Gauss-Hermite rule (diagonal 0, off-diagonal sqrt(k/2), mass sqrt(pi))
    scaled by 1/sqrt(2), whose weights sum to sqrt(pi/2): the axis rule of
    the oracles' tensor NV engine and position marginal."""
    k = np.arange(1, order, dtype=float)
    [(u, w)] = _golub_welsch([(np.zeros(order), np.sqrt(0.5 * k), math.sqrt(math.pi))])
    return u / _SQRT2, w / _SQRT2


@dataclass
class NegativityResult:
    volume: float
    integral_abs: float
    normalization_check: float
    resolution_history: List[Tuple[int, float]] = field(default_factory=list)
    converged: bool = True
    under_resolved: bool = False
    engine: str = "reduced-3d"

    def to_json_dict(self) -> dict:
        return dict(vars(self))


def _golub_welsch(matrices) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Gauss nodes and weights, one (nodes, weights) pair per Jacobi matrix
    (diag, off, mass) of ``matrices``, all of one order; finite at any order,
    where ``scipy.special.roots_laguerre`` overflows to NaN (order 384).

    The nodes are the eigenvalues, from ``np.linalg.eigvalsh`` on the stacked
    dense matrices (LAPACK ``dsyevd`` without vectors, one matrix at a time).
    Its reduction to tridiagonal form leaves a tridiagonal matrix unchanged
    (every Householder factor is 0), and the eigenvalues then come from
    ``dsterf``, as in ``scipy.linalg.eigh_tridiagonal``, so the nodes equal
    that solver's bit for bit (``test_golub_welsch_nodes_match_eigh_tridiagonal``).

    The weights are not taken from the
    eigenvectors, whose components are accurate only in absolute terms (at
    order 192 the Laguerre weight at v ~ 542 would come out as 5.9e-62
    instead of 2.2e-232, and a degree-2N profile there multiplies the error
    back up).  They come from the Christoffel function
    w_i = 1 / sum_k p_k(x_i)^2 of the orthonormal polynomials, run through
    their three-term recurrence with the running sum rescaled to 1 at every
    step, so the weight is exp(-2 log scale) and underflows cleanly to 0.
    One recurrence runs every matrix as a row; each row takes the float
    steps of a one-matrix run, so its bits are the same.  At order 192
    these weights match 60-digit values to 1.2e-12 relative at every node
    whose weight is above 1e-300.
    """
    diag, off, mass = (np.array(part, dtype=float) for part in zip(*matrices))
    # eigvalsh reads the lower triangle only
    nodes = np.linalg.eigvalsh(np.stack([np.diag(d) + np.diag(o, -1) for d, o in zip(diag, off)]))
    p_prev = np.zeros_like(nodes)
    p = np.ones_like(nodes)
    log_scale = np.empty_like(nodes)
    log_scale[:] = [[-0.5 * math.log(m)] for m in mass]  # p_0 = mass^-1/2
    diag, off = diag.T[:, :, None], off.T[:, :, None]  # diag[k]: step k's entry of every row
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
    return list(zip(nodes, weights))


@lru_cache(maxsize=None)
def _radial_pair_rule(order: int, folded: bool) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
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

    ``folded``, for an f symmetric under u_a <-> u_b (t -> 1 - t), keeps the
    Legendre nodes with t < 1/2 at twice their weight, and the middle node at
    its own weight when the order is odd: order * ceil(order / 2) nodes whose
    weighted sum is the full rule's.
    """
    k = np.arange(order, dtype=float)
    (v, wv), (x, wx) = _golub_welsch([(2.0 * k + 2.0, np.sqrt(k[1:] * (k[1:] + 1.0)), 1.0),
                                      (np.zeros(order), k[1:] / np.sqrt(4.0 * k[1:] ** 2 - 1.0), 2.0)])
    if folded:  # the nodes come sorted, so t < 1/2 first
        x, wx = x[:(order + 1) // 2], wx[:(order + 1) // 2]
        wx[:order // 2] *= 2.0
    t = 0.5 * (x + 1.0)
    rule = (np.outer(v, 1.0 - t).ravel(), np.outer(v, t).ravel(), 0.5 * np.outer(wv, wx).ravel())
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _profiles(dim: int, u: np.ndarray) -> np.ndarray:
    """Real radial profiles K[n, m](rho, 0), rho = sqrt(u / 2), at the nodes u,
    in band layout: B[a, m] = K[m + a, m] for m + a < dim, and 0 elsewhere.
    The lower triangle is the only one the reduced pass reads, and a band a
    is the factor of the harmonic s = a, so each factor is a contiguous
    slice of one row.  At p = 0 every kernel value is real, and these are
    the float steps of ``_kernel_polys``'s real parts, so the bits are the
    same.  Nodes of shape (modes, n) give one table per mode, stacked first."""
    x = np.sqrt(0.5 * u)
    out = np.zeros(u.shape[:-1] + (dim, dim, u.shape[-1]))
    for m, col in _kernel_columns(dim, 2.0 * x, 4.0 * (x * x)):
        out[..., :dim - m, m, :] = col.swapaxes(0, -2)  # (modes,) a, nodes
    return out


@lru_cache(maxsize=MAX_REFINEMENTS + 1)
def _radial_profiles(dim: int, order: int, folded: bool) -> Tuple[np.ndarray, np.ndarray]:
    """``_profiles`` of both modes on all of ``_radial_pair_rule(order, folded)``,
    from one build over both modes' nodes: shared, so read-only, and each
    table C-contiguous, so the per-s products read them densely.  Only orders
    whose nodes fit the reduced pass's one block are cached (larger ones
    stream block by block), so an entry, both tables together, stays within
    ``_BLOCK_BYTES``, and a (dimension, fold) pair, whose cached orders
    about quadruple in nodes, within about 4/3 of it."""
    tables = _profiles(dim, np.stack(_radial_pair_rule(order, folded)[:2]))
    tables.setflags(write=False)
    return tables[0], tables[1]


def _single_diagonal(dense: np.ndarray) -> Optional[Tuple[np.ndarray, int, int]]:
    """(c, n_a0, n_b0) when all but TOL.norm of the weight lies on one
    n_a - n_b diagonal; c[k] is the amplitude of |n_a0 + k, n_b0 + k>."""
    m = dense.shape[0]
    weight = np.abs(dense) ** 2
    offset = np.arange(m) - np.arange(m)[:, None]  # n_b - n_a
    per_diag = np.bincount((offset + (m - 1)).ravel(), weights=weight.ravel(), minlength=2 * m - 1)
    best = int(np.argmax(per_diag))
    if float(weight.sum()) - float(per_diag[best]) > TOL.norm:
        return None
    k = best - (m - 1)
    c = np.diagonal(dense, offset=k)
    nz = np.flatnonzero(c)
    return c[nz[0]:nz[-1] + 1], int(nz[0]) + max(0, -k), int(nz[0]) + max(0, k)


def _pair_diagonal(state: TwoModeState) -> Tuple[np.ndarray, int, int]:
    """The diagonal of a pure state or of its splitter image.

    The splitter is passive, so NV is the same for the state and its image.
    The pipelines and ``nv`` pass the input, which takes the first branch; the
    second serves a library caller who passes an image, and is the oracle the
    selftest's ``nv-splitter-invariance`` holds the input's volume to.
    """
    check_state(state, "tensor_negativity_volume")
    found = _single_diagonal(state.amplitudes)
    if found is None:
        found = _single_diagonal(apply_beam_splitter(state).amplitudes)
    if found is None:
        raise InvalidParameterError(
            "neither the state nor its splitter image sits on one n_a - n_b diagonal: "
            "fockvortex.oracles.tensor_negativity_volume takes it")
    return found


def _theta_rule(n_theta: int, folded: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Trapezoid nodes and weights for n_theta (even) points on [0, 2 pi): all
    of them with weight 1, or, ``folded`` for a W even in theta, the
    n_theta / 2 + 1 nodes on [0, pi] with weights 1, 2, ..., 2, 1, whose
    weighted sum is the same."""
    count = n_theta // 2 + 1 if folded else n_theta
    weights = np.ones(count)
    if folded:
        weights[1:-1] = 2.0
    return (2.0 * math.pi / n_theta) * np.arange(count), weights


def _reduced_pass(c: np.ndarray, na0: int, nb0: int, order: int, *,
                  radial_fold: bool = True) -> Tuple[float, float]:
    """One pass of the 3-D rule: (integral of |W|, integral of W).

    Nodes: ``_radial_pair_rule(order, folded)`` in u = 2 rho^2 per mode times a
    trapezoid rule in theta = phi_a + phi_b with n_theta = max(order, span)
    nodes, rounded up to even.  The volume element
    d^4z = rho_a drho_a rho_b drho_b dphi_a dphi_b integrates to
    (pi^2 / 4) / n_theta times the weighted node sum.  Per block of radial
    nodes, the real profiles K[n, m](rho, 0) give the coefficient table
    [Re G_s, Im G_s], and one GEMM against [cos(s theta); sin(s theta)]
    gives W; an order that fits one block takes ``_radial_profiles``.  When
    every pair product is real, so is every G_s: the sine columns go, and W,
    even in theta, is summed over the folded rule on [0, pi]
    (``_theta_rule``).  A complex diagonal keeps the full circle, which is
    the fold's oracle.  On a mode-symmetric diagonal (na0 == nb0) W is the
    same at (u_a, u_b) and (u_b, u_a), and the radial rule folds onto
    t <= 1/2.  ``radial_fold=False``, for the tests and the selftest only,
    keeps the full rule there, as an asymmetric diagonal does: the radial
    fold's oracle.
    """
    folded = radial_fold and na0 == nb0
    ua, ub, wr = _radial_pair_rule(order, folded)
    span = len(c)
    dim = max(na0, nb0) + span
    pairs = [(2.0 if s else 1.0) * c[s:] * np.conj(c[:span - s]) for s in range(span)]
    real = not any(p.imag.any() for p in pairs)  # then every Im G_s is 0 and W(theta) = W(-theta)
    n_theta = max(order, span) + max(order, span) % 2  # even, so the fold ends on theta = pi
    theta, theta_w = _theta_rule(n_theta, real)
    harmonics = np.arange(span)[:, None] * theta
    basis = np.cos(harmonics)
    if not real:
        basis = np.concatenate([basis, np.sin(harmonics[1:])])
    total_abs = 0.0
    total_w = 0.0
    block = max(1, _BLOCK_BYTES // (8 * max(len(theta), 2 * dim * dim)))  # W block and profiles alike
    for start in range(0, len(wr), block):
        sl = slice(start, start + block)
        if len(wr) <= block:  # the whole order fits one block: its tables are cached
            prof_a, prof_b = _radial_profiles(dim, order, folded)
        else:
            # one build per mode: a pair of streamed tables fills the whole
            # 32 MiB budget, above glibc's largest mmap threshold, so every
            # block would map and page-fault it afresh (3x the faults at order 384)
            prof_a = _profiles(dim, ua[sl])
            prof_b = _profiles(dim, ub[sl])
        coef = np.empty((prof_a.shape[-1], len(basis)))
        for s in range(span):
            # K[n0 + k, n0 + k - s] for k = s .. span - 1 is band s from column n0
            g = pairs[s] @ (prof_a[s, na0:na0 + span - s] * prof_b[s, nb0:nb0 + span - s])
            coef[:, s] = g.real
            if s and not real:
                coef[:, span - 1 + s] = g.imag
        w = coef @ basis
        total_w += float(wr[sl] @ (w @ theta_w))
        # in place: with a second block live, the heap trimmed both after each
        # pass and page-faulted them back in on the next (glibc's trim threshold)
        total_abs += float(wr[sl] @ (np.abs(w, out=w) @ theta_w))
    scale = 0.25 * math.pi ** 2 / n_theta
    return scale * total_abs, scale * total_w


def _ladder(run_pass: Callable[[int], Tuple[float, float]], order: int, tol: float,
            max_refinements: int, engine: str) -> NegativityResult:
    """NV = (integral of |W| - integral of W) / 2, with the integrals of each
    pass from ``run_pass(order)``, doubling the order from ``order`` until
    successive NV estimates differ by < tol; after ``max_refinements``
    doublings the best estimate is returned flagged non-converged.  The
    computed integral of W stands in for the exact 1; a deviation beyond
    10*tol flags the result under-resolved, and so never converged.  A pass
    whose integrals are not finite raises ``InvariantError``."""
    history: List[Tuple[int, float]] = []
    prev = None
    converged = False
    integral_abs = total_w = 0.0
    for _ in range(max_refinements + 1):
        integral_abs, total_w = run_pass(order)
        if not (math.isfinite(integral_abs) and math.isfinite(total_w)):
            raise InvariantError(f"NV pass at order {order} is not finite: integral of |W| = "
                                 f"{integral_abs}, integral of W = {total_w}")
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


def negativity_volume(
    state: TwoModeState,
    order: int = GH_ORDER,
    tol: float = TOL.nv,
    max_refinements: int = MAX_REFINEMENTS,
) -> NegativityResult:
    """NV of a pure state on one n_a - n_b diagonal, directly or after the
    splitter, by the 3-D reduced rule, refined from ``order`` as ``_ladder``
    states; see the module notes."""
    check_ladder(order, tol, max_refinements)
    diagonal = _pair_diagonal(state)
    return _ladder(lambda order: _reduced_pass(*diagonal, order), order, tol, max_refinements,
                   "reduced-3d")


# ---------------------------------------------------------------------------
# 2-D slices
# ---------------------------------------------------------------------------

_COORD_NAMES = ("x", "px", "y", "py")


class WignerSlice:
    """W on a 2-D plane; values[i, j] indexed by (free coord 1, free coord 2)."""

    __slots__ = ("free_names", "grid", "values")

    def __init__(self, free_names, grid, values):
        self.free_names = tuple(free_names)
        self.grid = grid
        self.values = values

    def to_csv(self, path) -> None:
        """Rows ordered free coord 2 outer, free coord 1 inner; header <c1>,<c2>,w."""
        _write_grid_csv(path, (*self.free_names, "w"), self.grid, (self.values,))


def plane_free_coords(plane: dict) -> List[str]:
    """The two free coordinates of a plane that fixes exactly two of (x, px, y, py)
    to finite numbers."""
    bad = set(plane) - set(_COORD_NAMES)
    if bad:
        raise InvalidParameterError(f"unknown coordinates in plane: {sorted(bad)}")
    if len(plane) != 2:
        raise InvalidParameterError("plane must fix exactly two of x, px, y, py")
    for name, value in plane.items():
        check_real(f"plane value for {name}", value)
    return [n for n in _COORD_NAMES if n not in plane]


def plane_points(plane: dict, grid2d) -> Tuple[List[str], tuple]:
    """(free coordinate names, (x, px, y, py) arrays) of the plane's grid points;
    arrays are indexed [i, j] by the grid's first and second axis."""
    free = plane_free_coords(plane)
    c1, c2 = np.meshgrid(grid2d.x_axis(), grid2d.y_axis(), indexing="ij")
    coords = {name: np.full_like(c1, float(value)) for name, value in plane.items()}
    coords[free[0]], coords[free[1]] = c1, c2
    return free, tuple(coords[name] for name in _COORD_NAMES)


@np.errstate(over="ignore", invalid="ignore")  # overflow ends as a non-finite value, see _checked_real
def wigner_slice(state: TwoModeState, plane: dict, grid2d) -> WignerSlice:
    """Evaluate W of a pure state on the plane that fixes exactly two of
    (x, px, y, py), with each mode's kernel on its distinct points only
    (``_kernel_products``).  Any other input raises ``InvalidParameterError``:
    ``fockvortex.oracles.wigner_state`` takes it."""
    check_state(state, "wigner_state")
    free, point = plane_points(plane, grid2d)
    # free coordinates come in (x, px, y, py) order, so mode a's run along the leading axes
    n_a = math.prod(point[0].shape[:sum(name in ("x", "px") for name in free)])
    pq = [c.reshape(n_a, -1) for c in point]  # pq[k][P, Q]: mode a's point P, mode b's point Q
    w = _kernel_products(state.amplitudes, (pq[0][:, 0], pq[1][:, 0]), (pq[2][0], pq[3][0]))
    return WignerSlice(free, grid2d, _checked_real(w.reshape(point[0].shape), *point))
