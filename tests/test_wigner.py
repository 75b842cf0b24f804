import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fockvortex import (
    InvalidParameterError,
    InvariantError,
    QuadratureGrid,
    SqueezeParams,
    TwoModeState,
    apply_beam_splitter,
    evaluate_field,
    make_tmss,
    negativity_volume,
    wigner_diagonal_form,
    wigner_slice,
)
from fockvortex.oracles import (
    _box_rule,
    build_wigner_grid,
    position_marginal,
    random_state,
    state_to_density,
    tensor_negativity_volume,
    wigner_fock_diagonal,
    wigner_state,
)
import fockvortex.wigner as wigner_module
from fockvortex.cli import FIG4_N_VALUES, FIG4_R_VALUES, SLICE_GRID, main
from fockvortex.config import TOL
from fockvortex.quadrature import hermite_basis
from fockvortex.wigner import _radial_pair_rule, plane_points

# mpmath, 40 digits
W_DIAG_3_AT_0P7 = -0.11010127013979758215
W_CROSS_21_RE = -0.21842777967552695624
W_CROSS_21_IM = -0.16382083475664521718
FOUR_OVER_PI_SQ = 0.40528473456935108578
TWO_OVER_PI = 0.63661977236758134308


@pytest.fixture
def fresh_rows():
    """Empty band-row and theta-basis caches before and after a test that
    patches what fills them, so no test sees rows another one built."""
    wigner_module._cached_band_rows.cache_clear()
    wigner_module._theta_basis.cache_clear()
    yield
    wigner_module._cached_band_rows.cache_clear()
    wigner_module._theta_basis.cache_clear()


def _brute_mode_integrals(dim, x, p, s_half=8.0, s_pts=4001):
    """(2/pi) * integral ds e^{-2 sqrt(2) i p s} psi_n(sqrt2 x + s) psi_m(sqrt2 x - s).

    Direct transcription of the Wigner transform of |n><m| in the scaled
    chart (vacuum variance 1/4); trapezoid on a dense grid.
    """
    s = np.linspace(-s_half, s_half, s_pts)
    ds = s[1] - s[0]
    plus = hermite_basis(dim - 1, math.sqrt(2.0) * x + s)
    minus = hermite_basis(dim - 1, math.sqrt(2.0) * x - s)
    phase = np.exp(-2.0 * math.sqrt(2.0) * 1j * p * s)
    return (2.0 / math.pi) * np.einsum("ns,ms,s->nm", plus, minus, phase) * ds


def _brute_wigner(state, x, px, y, py):
    amps = state.amplitudes
    dim = amps.shape[0]
    ia = _brute_mode_integrals(dim, x, px)
    ib = _brute_mode_integrals(dim, y, py)
    val = np.einsum("nm,pq,np,mq->", amps, amps.conj(), ia, ib)
    assert abs(val.imag) < 1e-10
    return val.real


def test_frozen_diagonal_value():
    assert wigner_fock_diagonal(3, 0.7) == pytest.approx(W_DIAG_3_AT_0P7, abs=1e-14)


def _fock_cross(n, m, x, p):
    """Wigner transform of |n><m| at (x, p), from the kernel polynomials."""
    poly = wigner_module._kernel_polys(max(n, m) + 1, np.atleast_1d(x), np.atleast_1d(p))[n, m, 0]
    return complex(poly * math.exp(-2.0 * (x * x + p * p)))


def _laguerre_one_alpha(n_max, alpha, u):
    """L_0^alpha .. L_nmax^alpha at u by the three-term recurrence, one alpha."""
    rows = np.empty((n_max + 1,) + u.shape)
    rows[0] = 1.0
    if n_max >= 1:
        rows[1] = 1.0 + alpha - u
    for n in range(1, n_max):
        rows[n + 1] = ((2 * n + 1 + alpha - u) * rows[n] - (n + alpha) * rows[n - 1]) / (n + 1)
    return rows


def _kernel_polys_per_entry(dim, x, p):
    """The kernel table one (a, m) entry at a time, one Laguerre recurrence per
    alpha: the oracle whose bits the column builder must keep."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    u = 4.0 * (x * x + p * p)
    lg = [math.lgamma(k + 1) for k in range(dim)]
    out = np.empty((dim, dim) + x.shape, dtype=complex)
    z = 2.0 * (x - 1j * p)
    zpow = np.ones_like(z)
    for a in range(dim):  # a = n - m
        if a > 0:
            zpow = zpow * z
        lag = _laguerre_one_alpha(dim - 1 - a, a, u)
        for m in range(dim - a):
            pref = (2.0 / math.pi) * (-1.0) ** m * math.exp(0.5 * (lg[m] - lg[m + a]))
            out[m + a, m] = pref * zpow * lag[m]
            if a > 0:
                out[m, m + a] = np.conj(out[m + a, m])
    return out


@pytest.mark.parametrize("shape", [(7,), (4, 6)], ids=["1d", "2d"])
def test_kernel_polys_columns_are_bit_identical_to_per_entry_loop(shape):
    rng = np.random.default_rng(len(shape))
    for dim in range(1, 31):
        x, p = rng.normal(scale=2.0, size=(2,) + shape)
        got = wigner_module._kernel_polys(dim, x, p)
        want = _kernel_polys_per_entry(dim, x, p)
        assert got.shape == want.shape == (dim, dim) + shape
        assert got.tobytes() == want.tobytes(), dim


def test_kernel_polys_takes_a_0d_point_as_a_one_point_array():
    # a 0-d point goes through the array path and keeps only its shape
    rng = np.random.default_rng(0)
    for dim in range(1, 31):
        x, p = rng.normal(scale=2.0, size=2)
        got = wigner_module._kernel_polys(dim, np.float64(x), np.float64(p))
        want = _kernel_polys_per_entry(dim, np.array([x]), np.array([p]))
        assert got.shape == (dim, dim)
        assert got.tobytes() == want.tobytes(), dim


def test_kernel_polys_on_many_points_is_bit_identical_to_per_entry_loop():
    # one pass over all 5,000 points: the callers block, the builder does not
    x, p = np.random.default_rng(3).normal(scale=2.0, size=(2, 5000))
    for dim in (23, 30):
        got = wigner_module._kernel_polys(dim, x, p)
        assert got.tobytes() == _kernel_polys_per_entry(dim, x, p).tobytes(), dim


def test_laguerre_rows_run_every_alpha_in_one_recurrence():
    u = np.random.default_rng(4).uniform(0.0, 60.0, 50)
    n_max = 12
    rows = list(wigner_module._laguerre_rows(n_max, np.arange(n_max + 1), u))
    assert [len(row) for row in rows] == list(range(n_max + 1, 0, -1))  # n + alpha <= n_max
    for alpha in range(n_max + 1):
        one = _laguerre_one_alpha(n_max - alpha, alpha, u)
        assert np.array([row[alpha] for row in rows[:n_max - alpha + 1]]).tobytes() == one.tobytes()
    for alpha in (0, 3):  # one alpha alone runs to degree n_max - alpha, as in the triangle
        rows = list(wigner_module._laguerre_rows(n_max, np.array([alpha]), u))
        assert [len(row) for row in rows] == [1] * (n_max - alpha + 1) + [0] * alpha
        single = np.array([row[0] for row in rows[:n_max - alpha + 1]])
        assert single.tobytes() == _laguerre_one_alpha(n_max - alpha, alpha, u).tobytes()


def _kernel_factors(span, na0, nb0, ua, ub):
    """Each band row's two factors, K[n0 + k + s, n0 + k](rho, 0) of modes a
    and b, as the real parts of ``_kernel_polys`` at p = 0."""
    _, hi, lo, _ = wigner_module._band_layout(span)
    factors = []
    for n0, u in ((na0, ua), (nb0, ub)):
        kernel = wigner_module._kernel_polys(n0 + span, np.sqrt(0.5 * u), np.zeros(len(u)))
        factors.append(kernel.real[n0 + hi, n0 + lo])
    return factors


@pytest.mark.parametrize("dim,order", [(9, 48), (41, 24)])
def test_real_profiles_are_the_kernel_real_parts_on_the_lower_triangle(dim, order):
    # band rows: row off[s] + k is the product of the two modes' profiles
    # K[k + s, k], the kernel's real parts; the rows hold every entry of the
    # lower triangle once, band by band
    ua, ub, _ = _radial_pair_rule(order, False)
    off, hi, lo, _ = wigner_module._band_layout(dim)
    assert off[-1] == dim * (dim + 1) // 2
    assert sorted(zip(hi.tolist(), lo.tolist())) == [(n, m) for n in range(dim) for m in range(n + 1)]
    for s in range(dim):
        assert (hi[off[s]:off[s + 1]] - lo[off[s]:off[s + 1]] == s).all()
    got = wigner_module._band_rows(dim, 0, 0, ua, ub)
    fa, fb = _kernel_factors(dim, 0, 0, ua, ub)
    assert got.dtype == np.float64 and got.shape == (off[-1], len(ua))
    assert got.tobytes() == (fa * fb).tobytes()


@pytest.mark.parametrize("span,na0,nb0", [(4, 2, 0), (3, 0, 3), (5, 1, 1)])
def test_band_rows_pair_column_n_a0_plus_k_with_column_n_b0_plus_k(span, na0, nb0):
    # column na0 + k of mode a meets column nb0 + k of mode b
    ua, ub, _ = _radial_pair_rule(25, False)
    fa, fb = _kernel_factors(span, na0, nb0, ua, ub)
    assert wigner_module._band_rows(span, na0, nb0, ua, ub).tobytes() == (fa * fb).tobytes()


@pytest.mark.parametrize("dim,order,folded", [(5, 24, True), (11, 48, False), (41, 24, True)])
def test_one_profile_build_serves_both_modes(dim, order, folded, fresh_rows):
    # the cached rows come from one build over both modes' nodes, which is
    # elementwise in the nodes: each block of nodes a streamed order builds
    # has the bits of the same nodes' cached rows
    ua, ub, _ = _radial_pair_rule(order, folded)
    rows = wigner_module._cached_band_rows(dim, 0, 0, order, folded)
    assert rows.tobytes() == wigner_module._band_rows(dim, 0, 0, ua, ub).tobytes()
    for sl in (slice(0, 7), slice(7, len(ua) // 2), slice(len(ua) // 2, None)):
        assert rows[:, sl].tobytes() == wigner_module._band_rows(dim, 0, 0, ua[sl], ub[sl]).tobytes()


def test_frozen_cross_value():
    got = _fock_cross(2, 1, 0.4, -0.3)
    assert got.real == pytest.approx(W_CROSS_21_RE, abs=1e-14)
    assert got.imag == pytest.approx(W_CROSS_21_IM, abs=1e-14)


def test_cross_reduces_to_diagonal():
    q2 = 0.4**2 + 0.9**2
    got = _fock_cross(2, 2, 0.4, 0.9)
    assert got.imag == 0.0
    assert got.real == pytest.approx(wigner_fock_diagonal(2, q2), abs=1e-14)


def test_cross_hermitian_symmetry():
    a = _fock_cross(3, 1, 0.5, 0.2)
    b = _fock_cross(1, 3, 0.5, 0.2)
    assert a == pytest.approx(np.conj(b), abs=1e-15)


def test_vacuum_peak_value():
    vac = TwoModeState.from_pairs({(0, 0): 1.0}, cutoff=0)
    assert wigner_state(vac, (0.0, 0.0, 0.0, 0.0)) == pytest.approx(FOUR_OVER_PI_SQ, abs=1e-14)
    assert wigner_fock_diagonal(0, 0.0) == pytest.approx(TWO_OVER_PI, abs=1e-15)


@pytest.mark.parametrize(
    "point",
    [(0.0, 0.0, 0.0, 0.0), (0.3, -0.2, 0.5, 0.1), (1.1, 0.7, -0.4, -0.9), (-0.6, 1.3, 0.2, 0.8)],
)
def test_wigner_matches_definition_integral(point):
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.5, n_max=1)))
    assert wigner_state(state, point) == pytest.approx(_brute_wigner(state, *point), abs=1e-10)


def test_wigner_matches_definition_for_random_state():
    rng = np.random.default_rng(19)
    state = random_state(rng, cutoff=3)
    for point in [(0.2, 0.4, -0.3, 0.6), (-0.8, 0.1, 0.9, -0.5)]:
        assert wigner_state(state, point) == pytest.approx(_brute_wigner(state, *point), abs=1e-10)


def test_wigner_accepts_density_matrix_and_phase_point():
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.4, n_max=2)))
    rho = state_to_density(state)
    pt = (0.3, -0.1, 0.2, 0.5)  # (x, p_x, y, p_y)
    assert wigner_state(rho, pt) == pytest.approx(wigner_state(state, pt), abs=1e-13)


def test_wigner_broadcasts():
    state = make_tmss(SqueezeParams(r=0.3, n_max=1))
    xs = np.linspace(-1, 1, 7)
    vals = wigner_state(state, (xs, 0.0, 0.0, 0.0))
    assert vals.shape == (7,)
    assert vals[3] == pytest.approx(wigner_state(state, (0.0, 0.0, 0.0, 0.0)), abs=1e-14)


def test_purity_bound():
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.9, n_max=4)))
    rng = np.random.default_rng(2)
    pts = rng.uniform(-3, 3, size=(200, 4))
    vals = wigner_state(state, (pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]))
    assert np.max(np.abs(vals)) <= FOUR_OVER_PI_SQ + 1e-9


@pytest.mark.parametrize("rule", [build_wigner_grid, lambda order: _box_rule(order, 8)],
                         ids=["tensor-gauss-hermite", "uniform-box"])
def test_quadrature_rule_gaussian_check(rule):
    _, weights = rule(48)
    assert abs(float(weights.sum()) - math.sqrt(math.pi / 2.0)) < 1e-8
    assert np.all(weights > 0)


@pytest.mark.parametrize("order", [3, 24, 96, 192, 384])
def test_gauss_hermite_rule_matches_scipy(order):
    # scipy's roots_hermite is the oracle of the library's Golub-Welsch rule
    q, w = build_wigner_grid(order)
    nodes, weights = scipy.special.roots_hermite(order)
    np.testing.assert_allclose(q * math.sqrt(2.0), nodes, rtol=0, atol=1e-12)
    # subnormal weights (order 384 has two) carry only a few digits on either side
    np.testing.assert_allclose(w * math.sqrt(2.0), weights, rtol=2e-11,
                               atol=np.finfo(float).tiny)


@pytest.mark.parametrize("order", [*range(1, 65), 96, 192, 384])
def test_golub_welsch_nodes_match_eigh_tridiagonal(order, monkeypatch):
    # every Jacobi matrix the library builds (Hermite for the marginal rule at
    # order 32 and the NV axes, Laguerre alpha = 1 and Legendre for the
    # reduced NV rule, at every ladder order 24 * 2^k <= 384): the dense
    # eigvalsh nodes must equal the tridiagonal solver's bit for bit.  The
    # Hermite rule runs alone, the radial rule's two matrices in one call
    calls = []
    batches = []
    exact = wigner_module._golub_welsch

    def spy(matrices):
        rules = exact(matrices)
        batches.append(len(matrices))
        calls.extend((diag, off, nodes) for (diag, off, _), (nodes, _) in zip(matrices, rules))
        return rules

    monkeypatch.setattr(wigner_module, "_golub_welsch", spy)
    wigner_module.build_wigner_grid(order)
    wigner_module._radial_pair_rule.__wrapped__(order, False)
    assert batches == [1, 2]
    assert len(calls) == 3
    for diag, off, nodes in calls:
        assert np.array_equal(nodes, scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True))


def _jacobi_matrices(order):
    """The Hermite, Laguerre (alpha = 1) and Legendre Jacobi matrices of
    ``build_wigner_grid`` and ``_radial_pair_rule``, as (diag, off, mass)."""
    k = np.arange(order, dtype=float)
    return [(np.zeros(order), np.sqrt(0.5 * k[1:]), math.sqrt(math.pi)),
            (2.0 * k + 2.0, np.sqrt(k[1:] * (k[1:] + 1.0)), 1.0),
            (np.zeros(order), k[1:] / np.sqrt(4.0 * k[1:] ** 2 - 1.0), 2.0)]


def _christoffel_one_matrix(diag, off, mass, nodes):
    """Christoffel weights of one Jacobi matrix at its nodes, one scalar
    recurrence per call: the oracle of the stacked recurrence's bits."""
    p_prev = np.zeros_like(nodes)
    p = np.ones_like(nodes)
    log_scale = np.full_like(nodes, -0.5 * math.log(mass))
    for k in range(len(diag) - 1):
        p_next = ((nodes - diag[k]) * p - (off[k - 1] * p_prev if k else 0.0)) / off[k]
        norm = np.sqrt(1.0 + p_next * p_next)
        p_prev, p = p / norm, p_next / norm
        log_scale += np.log(norm)
    return np.exp(-2.0 * log_scale)


@pytest.mark.parametrize("order", [*range(1, 65), 96, 192, 384])
def test_stacked_golub_welsch_is_bit_equal_to_one_matrix_runs(order):
    matrices = _jacobi_matrices(order)
    stacked = wigner_module._golub_welsch(matrices)
    assert len(stacked) == 3
    for (diag, off, mass), (nodes, weights) in zip(matrices, stacked):
        [(one_nodes, one_weights)] = wigner_module._golub_welsch([(diag, off, mass)])
        assert nodes.tobytes() == one_nodes.tobytes()
        assert weights.tobytes() == one_weights.tobytes()
        assert weights.tobytes() == _christoffel_one_matrix(diag, off, mass, nodes).tobytes()


def test_rule_validation():
    with pytest.raises(InvalidParameterError, match="order must be >= 2, got 1"):
        negativity_volume(make_tmss(SqueezeParams(r=0.1, n_max=1)), order=1)
    # tol is a finite real number and a bool is not one: True would run as
    # tol = 1 and stop converged after two passes, '0.1' would fail in the
    # comparison, and an infinite tol would pass any two orders as converged
    for tol, message in [(0.0, "tol must be > 0, got 0.0"),
                         (math.nan, "tol must be a finite real number, got nan"),
                         (math.inf, "tol must be a finite real number, got inf"),
                         (10 ** 400, f"tol must be a finite real number, got {10 ** 400}"),
                         (True, "tol must be a finite real number, got True"),
                         ("0.1", "tol must be a finite real number, got '0.1'")]:
        with pytest.raises(InvalidParameterError) as info:
            negativity_volume(make_tmss(SqueezeParams(r=0.1, n_max=1)), tol=tol)
        assert str(info.value) == message
    # each count is an integer and a bool is not one; no setting reaches the
    # ladder to fail there as IndexError or TypeError
    for setting, match in [({"max_refinements": -1}, "max_refinements must be >= 0, got -1"),
                           ({"order": 2.5}, "order must be an integer, got 2.5"),
                           ({"max_refinements": 2.5}, "max_refinements must be an integer"),
                           ({"max_refinements": True}, "max_refinements must be an integer"),
                           ({"order": True}, "order must be an integer")]:
        with pytest.raises(InvalidParameterError, match=match):
            negativity_volume(make_tmss(SqueezeParams(r=0.1, n_max=1)), **setting)


@pytest.mark.parametrize("r,n_max", [(0.3, 2), (0.8, 3)])
def test_wigner_normalization(r, n_max):
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=r, n_max=n_max)))
    result = negativity_volume(state)
    assert result.normalization_check == pytest.approx(1.0, abs=1e-8)
    assert not result.under_resolved


def test_negativity_volume_gaussian_input_is_zero():
    # weakly squeezed input: truncation residue is far below double precision,
    # so the pair-correlated input state carries no measurable negativity
    result = negativity_volume(make_tmss(SqueezeParams(r=0.05, n_max=6)))
    assert result.volume == pytest.approx(0.0, abs=1e-9)


def test_negativity_volume_frozen_trend_values():
    # values pinned by two independent quadrature schemes during bring-up
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.9, n_max=6)))
    result = negativity_volume(state)
    assert result.converged
    assert result.volume == pytest.approx(0.14319, abs=5e-4)


def test_refinement_history_doubles():
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.5, n_max=2)))
    result = negativity_volume(state, order=12)
    orders = [o for o, _ in result.resolution_history]
    assert orders == [12 * 2**k for k in range(len(orders))]
    assert result.converged


def test_refinement_budget_flag():
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.5, n_max=2)))
    result = negativity_volume(state, order=6, tol=1e-12, max_refinements=1)
    assert not result.converged
    assert len(result.resolution_history) == 2


def test_box_scheme_agrees_with_gauss_hermite(monkeypatch):
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.8, n_max=2)))
    gh = negativity_volume(state)
    # the box spans Fock states up to 2 (m - 1) = 8 photons, m = 5 levels per mode
    monkeypatch.setattr(wigner_module, "build_wigner_grid", lambda order: _box_rule(order, 8))
    box = tensor_negativity_volume(state_to_density(state), order=48)
    assert box.engine == "tensor-4d"
    assert box.volume == pytest.approx(gh.volume, abs=2e-3)


def _splitter_image_density(n_max):
    """The r = 0.8 splitter image as a density matrix, for the 4-D tensor engine."""
    return state_to_density(apply_beam_splitter(make_tmss(SqueezeParams(r=0.8, n_max=n_max))))


def test_tensor_pass_stays_within_the_block_budget():
    # order 64 puts 4,096 points on each mode's plane: the whole 4,096 x 4,096
    # W table and its |W| alone take 268 MB, so only blocked rows fit the bound,
    # and only rows whose subtraction runs in place (103 MB otherwise)
    rho = _splitter_image_density(1)
    tracemalloc.start()
    try:
        result = tensor_negativity_volume(rho, order=64, max_refinements=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.engine == "tensor-4d"
    assert peak <= 90e6, f"peak {peak / 1e6:.0f} MB"


def test_tensor_ladder_builds_each_pass_at_its_own_order(monkeypatch):
    orders = []
    build = wigner_module.build_wigner_grid

    def spy(order):
        orders.append(order)
        return build(order)

    monkeypatch.setattr(wigner_module, "build_wigner_grid", spy)
    result = tensor_negativity_volume(_splitter_image_density(1), order=8, max_refinements=2)
    assert result.engine == "tensor-4d"
    assert len(orders) > 1
    assert orders == [order for order, _ in result.resolution_history]


# ---------------------------------------------------------------------------
# symmetry-reduced negativity volume against its oracles
# ---------------------------------------------------------------------------

def _neighbour_pair_state():
    """sum_j c_j |j, j+1>: one n_a - n_b = -1 diagonal, complex amplitudes."""
    c = np.array([0.6, 0.5j, -0.4, 0.3 + 0.2j])
    c /= np.linalg.norm(c)
    return TwoModeState.from_pairs({(j, j + 1): c[j] for j in range(4)}, cutoff=7)


def _fock_pair_nv(n):
    """Exact NV of |n, n>: W factorizes, so the integral of |W| is the square
    of the integral of |L_n(2u)| e^{-u}, taken piecewise between its roots."""
    edges = [0.0, *(0.5 * scipy.special.roots_laguerre(n)[0]), np.inf]
    one_mode = sum(
        quad(lambda u: abs(scipy.special.eval_laguerre(n, 2.0 * u)) * math.exp(-u), a, b,
             epsabs=1e-13, epsrel=1e-13)[0]
        for a, b in zip(edges, edges[1:])
    )
    return 0.5 * (one_mode**2 - 1.0)


def test_radial_rule_finite_and_exact_at_ladder_top():
    # 384 is the last order of the default 24 -> 384 refinement ladder, where
    # scipy.special.roots_laguerre returns NaN; the folded rule integrates the
    # mode-symmetric part of each moment, u_a^i u_b^j + u_a^j u_b^i
    ua, ub, w = _radial_pair_rule(384, False)
    fa, fb, fw = _radial_pair_rule(384, True)
    assert len(fw) == 384 * 192
    assert all(np.isfinite(a).all() for a in (ua, ub, w, fa, fb, fw))
    assert np.all(w >= 0) and np.all(fw >= 0)
    assert np.all(fb <= fa)  # t = u_b / (u_a + u_b) <= 1/2
    for i, j in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        moment = float(w @ (ua**i * ub**j))
        assert moment == pytest.approx(math.factorial(i) * math.factorial(j), rel=1e-12)
        folded = float(fw @ (fa**i * fb**j + fa**j * fb**i))
        assert folded == pytest.approx(2 * math.factorial(i) * math.factorial(j), rel=1e-12)


@pytest.mark.parametrize("order", [2, 3, 24, 25])
def test_folded_radial_rule_keeps_the_lower_half_and_the_middle_node(order):
    _, _, w = _radial_pair_rule(order, False)
    fa, fb, fw = _radial_pair_rule(order, True)
    half, keep = order // 2, (order + 1) // 2
    full = w.reshape(order, order)
    assert np.array_equal(fw.reshape(order, keep)[:, :half], 2.0 * full[:, :half])
    if order % 2:  # the middle node t = 1/2 keeps its own weight
        assert np.array_equal(fw.reshape(order, keep)[:, half], full[:, half])
        assert fa.reshape(order, keep)[:, half] == pytest.approx(fb.reshape(order, keep)[:, half])
    assert float(fw.sum()) == pytest.approx(float(w.sum()), rel=1e-14)


@pytest.mark.parametrize("r,n_max,order", [(1.1, 10, 192), (1.1, 14, 96)])
def test_reduced_pass_integrates_w_to_one_at_deep_truncation(r, n_max, order):
    # the degree-2N radial profiles peak at large v, where the Laguerre
    # weights are tiny: they must be accurate relative to their own size
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=r, n_max=n_max)))
    result = negativity_volume(state, order=order, max_refinements=0)
    assert result.engine == "reduced-3d"
    assert abs(result.normalization_check - 1.0) <= 1e-10


def test_under_resolved_result_is_never_converged(monkeypatch, fresh_rows):
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.5, n_max=2)))
    assert negativity_volume(state).converged

    def scaled_rule(order, folded, rule=_radial_pair_rule):
        ua, ub, w = rule(order, folded)
        return ua, ub, 1.05 * w

    monkeypatch.setattr(wigner_module, "_radial_pair_rule", scaled_rule)
    result = negativity_volume(state)
    assert result.normalization_check == pytest.approx(1.05, abs=1e-10)
    assert result.under_resolved
    assert not result.converged


def test_figure4_builds_each_profile_table_once(tmp_path, monkeypatch, fresh_rows):
    # 12 points, 2 spans (N = 2, 4), orders 24 and 48, one build for both
    # modes: one band-row build per (span, n_a0, n_b0, order, fold) key; a
    # build per point and pass would take 24 calls
    calls = []
    band_rows = wigner_module._band_rows

    def spy(span, na0, nb0, ua, ub):
        calls.append(span)
        return band_rows(span, na0, nb0, ua, ub)

    monkeypatch.setattr(wigner_module, "_band_rows", spy)
    assert main(["figure", "4", "--out", str(tmp_path / "fig4")]) == 0
    assert sorted(calls) == [3, 3, 5, 5]  # span N + 1 at orders 24 and 48


def test_cached_profile_tables_are_read_only_and_contiguous():
    for folded, nodes in ((False, 24 * 24), (True, 24 * 12)):
        rows = wigner_module._cached_band_rows(5, 0, 0, 24, folded)
        assert rows.flags.c_contiguous and not rows.flags.writeable
        assert rows.shape == (15, nodes)
        with pytest.raises(ValueError):
            rows[0, 0] = 0.0


def test_deep_ladder_is_equal_with_cached_and_fresh_tables():
    # orders 24-192 fit one block at span 11 and take cached rows, 384
    # streams its rows block by block
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.8, n_max=10)))
    wigner_module._cached_band_rows.cache_clear()
    fresh = negativity_volume(state, tol=1e-9)
    warm = negativity_volume(state, tol=1e-9)
    assert [order for order, _ in fresh.resolution_history] == [24, 48, 96, 192, 384]
    assert warm == fresh


def _square_profiles(dim, u):
    """Real radial profiles in square layout, K[n, m] at [n, m] on the lower
    triangle and 0 above it."""
    x = np.sqrt(0.5 * u)
    out = np.zeros((dim, dim, len(u)))
    for m, col in wigner_module._kernel_columns(dim, 2.0 * x, 4.0 * (x * x)):
        out[m:, m] = col
    return out


def _reduced_pass_square_gather(c, na0, nb0, order, radial_fold=True, per_harmonic=False):
    """The reduced pass on square-layout tables built for each block, each
    harmonic's factor gathered by fancy indexes.  By default it contracts as
    the band pass does, one real GEMV per band and then the basis GEMM: the
    oracle whose bits the band rows' contiguous slices must keep.
    ``per_harmonic`` contracts as the pass of 0.3.5 did, one complex GEMV of
    the pair products per harmonic, then the coefficients (nodes first)
    times the basis, in its blocks: the oracle of the real contraction."""
    folded = radial_fold and na0 == nb0
    ua, ub, wr = wigner_module._radial_pair_rule(order, folded)
    span = len(c)
    dim = max(na0, nb0) + span
    pairs = [(2.0 if s else 1.0) * c[s:] * np.conj(c[:span - s]) for s in range(span)]
    real = not any(p.imag.any() for p in pairs)
    n_theta = max(order, span) + max(order, span) % 2
    theta, theta_w = wigner_module._theta_rule(n_theta, real)
    harmonics = np.arange(span)[:, None] * theta
    basis = np.cos(harmonics)
    if not real:
        basis = np.concatenate([basis, np.sin(harmonics[1:])])
    total_abs = total_w = 0.0
    if per_harmonic:
        block = max(1, wigner_module._BLOCK_BYTES // (8 * max(len(theta), 2 * dim * dim)))
    else:
        doubles = wigner_module._node_doubles(span, dim, len(basis), len(theta))
        block = max(1, wigner_module._BLOCK_BYTES // (8 * doubles))
    for start in range(0, len(wr), block):
        sl = slice(start, start + block)
        prof_a, prof_b = _square_profiles(dim, ua[sl]), _square_profiles(dim, ub[sl])
        coef = np.empty((len(basis), prof_a.shape[-1]))
        for s in range(span):
            k = np.arange(s, span)
            factor = prof_a[na0 + k, na0 + k - s] * prof_b[nb0 + k, nb0 + k - s]
            if per_harmonic:
                g = pairs[s] @ factor
                coef[s], part = g.real, g.imag
            else:
                coef[s] = pairs[s].real @ factor
                part = pairs[s].imag @ factor if s and not real else None
            if s and not real:
                coef[span - 1 + s] = part
        w = coef.T @ basis if per_harmonic else basis.T @ coef
        if per_harmonic:
            total_w += float(wr[sl] @ (w @ theta_w))
            total_abs += float(wr[sl] @ (np.abs(w) @ theta_w))
        else:
            total_w += float((theta_w @ w) @ wr[sl])
            total_abs += float((theta_w @ np.abs(w)) @ wr[sl])
    scale = 0.25 * math.pi ** 2 / n_theta
    return scale * total_abs, scale * total_w


def _complex_image_diagonal():
    """(c, n_a0, n_b0) of a complex diagonal that ``_pair_diagonal`` finds in
    the splitter image: the image of the image of |j + 1, j> with complex
    amplitudes, i^(2j + 1) c_j on |j, j + 1>."""
    c = np.array([0.5 + 0.2j, -0.3 + 0.4j, 0.1 - 0.6j])
    c /= np.linalg.norm(c)
    state = TwoModeState.from_pairs({(j + 1, j): c[j] for j in range(3)}, cutoff=5)
    image = apply_beam_splitter(state)
    assert wigner_module._single_diagonal(image.amplitudes) is None
    return wigner_module._pair_diagonal(image)


def _streamed_diagonal():
    """N = 10 at order 384: 73,728 folded nodes, which the pass streams."""
    c, na0, nb0 = wigner_module._pair_diagonal(make_tmss(SqueezeParams(r=0.8, n_max=10)))
    span = len(c)
    n_theta = 384 // 2 + 1
    block = wigner_module._BLOCK_BYTES // (8 * wigner_module._node_doubles(span, span, span, n_theta))
    assert 384 * 192 > block
    return c, na0, nb0, 384


def _pass_gap(got, want):
    return max(abs(a - b) for a, b in zip(got, want))


@pytest.mark.parametrize("order", [24, 25, 48, 96])
def test_band_pass_is_bit_equal_to_the_square_gather_on_figure4_points(order, fresh_rows):
    # the real diagonal folds theta, the phased copy keeps the full circle
    phase = np.exp(1j * math.pi / 3)
    for n in FIG4_N_VALUES:
        for r in FIG4_R_VALUES:
            c, na0, nb0 = wigner_module._pair_diagonal(make_tmss(SqueezeParams(r=r, n_max=n)))
            for amps in (c, c * phase):
                want = _reduced_pass_square_gather(amps, na0, nb0, order)
                assert wigner_module._reduced_pass(amps, na0, nb0, order) == want, (r, n)


@pytest.mark.parametrize("order", [8, 25, 48])
def test_band_pass_is_bit_equal_to_the_square_gather_off_the_main_diagonal(order, fresh_rows):
    # |j + 1, j> takes the full radial rule and reads mode a's tables one row
    # down; the image diagonal sits on |j, j + 1>
    c = np.array([0.6, -0.5, 0.4])
    c /= np.linalg.norm(c)
    for amps, na0, nb0 in ((c, 1, 0), (c * np.exp(0.7j), 1, 0), _complex_image_diagonal()):
        want = _reduced_pass_square_gather(amps, na0, nb0, order)
        assert wigner_module._reduced_pass(amps, na0, nb0, order) == want


def test_band_pass_is_bit_equal_to_the_square_gather_on_a_streamed_order(fresh_rows):
    c, na0, nb0, order = _streamed_diagonal()
    assert wigner_module._reduced_pass(c, na0, nb0, order) == _reduced_pass_square_gather(c, na0, nb0, order)


# The real contraction moved the last bits of both integrals (0.3.6): each
# stays within 1e-15 of the per-harmonic complex contraction it replaced
_PER_HARMONIC_BOUND = 1e-15


@pytest.mark.parametrize("order", [24, 25, 48, 96])
def test_band_pass_matches_the_per_harmonic_pass_on_figure4_points(order):
    phase = np.exp(1j * math.pi / 3)
    for n in FIG4_N_VALUES:
        for r in FIG4_R_VALUES:
            c, na0, nb0 = wigner_module._pair_diagonal(make_tmss(SqueezeParams(r=r, n_max=n)))
            for amps in (c, c * phase):
                want = _reduced_pass_square_gather(amps, na0, nb0, order, per_harmonic=True)
                got = wigner_module._reduced_pass(amps, na0, nb0, order)
                assert _pass_gap(got, want) <= _PER_HARMONIC_BOUND, (r, n)


@pytest.mark.parametrize("order", [8, 25, 48])
def test_band_pass_matches_the_per_harmonic_pass_off_the_main_diagonal(order):
    # n_a0 != n_b0, real and complex, and a complex diagonal that
    # _pair_diagonal finds in the splitter image
    c = np.array([0.6, -0.5, 0.4])
    c /= np.linalg.norm(c)
    for amps, na0, nb0 in ((c, 1, 0), (c, 0, 2), (c * np.exp(0.7j), 1, 0), _complex_image_diagonal()):
        want = _reduced_pass_square_gather(amps, na0, nb0, order, per_harmonic=True)
        got = wigner_module._reduced_pass(amps, na0, nb0, order)
        assert _pass_gap(got, want) <= _PER_HARMONIC_BOUND, (na0, nb0)


def test_band_pass_matches_the_per_harmonic_pass_on_a_streamed_order():
    c, na0, nb0, order = _streamed_diagonal()
    want = _reduced_pass_square_gather(c, na0, nb0, order, per_harmonic=True)
    assert _pass_gap(wigner_module._reduced_pass(c, na0, nb0, order), want) <= _PER_HARMONIC_BOUND


@pytest.mark.parametrize("r,n_max,order", [(1.5, 26, 192), (0.8, 10, 384)])
def test_streamed_pass_memory_is_bounded_by_the_block_budget(r, n_max, order):
    # a block holds its band rows and, in turn, what builds them and what
    # contracts them (_node_doubles); the rule is built first, as a ladder
    # builds it once per order.  N = 26 at order 192 streams 18,432 nodes in
    # three blocks, most of each its rows; N = 10 at order 384 streams 73,728
    # in five, most of each its W.  They peaked at 1.04 and 0.77 budgets;
    # tables of two full dim x dim bands per node (0.3.5) took 2.65 at N = 10
    c, na0, nb0 = wigner_module._pair_diagonal(make_tmss(SqueezeParams(r=r, n_max=n_max)))
    _radial_pair_rule(order, True)
    doubles = wigner_module._node_doubles(len(c), len(c), len(c), order // 2 + 1)
    assert order * order // 2 > wigner_module._BLOCK_BYTES // (8 * doubles)
    tracemalloc.start()
    try:
        wigner_module._reduced_pass(c, na0, nb0, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * wigner_module._BLOCK_BYTES, f"peak {peak / 2 ** 20:.1f} MiB"


def _single_diagonal_per_offset(dense):
    """``_single_diagonal`` with one ``np.trace`` per n_b - n_a offset: the
    oracle of the one-call diagonal search."""
    m = dense.shape[0]
    weight = np.abs(dense) ** 2
    offsets = range(1 - m, m)
    per_diag = [float(np.trace(weight, offset=k)) for k in offsets]
    best = int(np.argmax(per_diag))
    if float(weight.sum()) - per_diag[best] > TOL.norm:
        return None
    k = offsets[best]
    c = np.diagonal(dense, offset=k)
    nz = np.flatnonzero(c)
    return c[nz[0]:nz[-1] + 1], int(nz[0]) + max(0, -k), int(nz[0]) + max(0, k)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_single_diagonal_matches_the_per_offset_traces(data):
    # a planted diagonal, with zero ends that the finder trims, carries all
    # but 10^e TOL.norm of the weight, which the rest of the matrix holds (or
    # none of it); |e| >= 0.5, since exactly at TOL.norm the verdict is
    # rounding noise that any summation order may decide either way
    m = data.draw(st.integers(min_value=0, max_value=10), label="cutoff") + 1
    k = data.draw(st.integers(min_value=1 - m, max_value=m - 1), label="offset")
    length = m - abs(k)
    lead = data.draw(st.integers(min_value=0, max_value=length - 1), label="leading zeros")
    trail = data.draw(st.integers(min_value=0, max_value=length - 1 - lead), label="trailing zeros")
    exponent = data.draw(st.none() | st.floats(-4.0, -0.5) | st.floats(0.5, 4.0), label="e")
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed"))
    rest = 0.0 if exponent is None else 10.0 ** exponent * TOL.norm
    dense = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    rows = np.arange(length) + max(0, -k)
    dense[rows, rows + k] = 0.0
    off_weight = float((np.abs(dense) ** 2).sum())
    rest = rest if off_weight else 0.0  # one level has no off-diagonal entries
    dense *= math.sqrt(rest / off_weight) if off_weight else 0.0
    diag = rng.normal(size=length) + 1j * rng.normal(size=length)
    diag[:lead] = 0.0
    diag[length - trail:] = 0.0
    dense[rows, rows + k] = diag * math.sqrt((1.0 - rest) / float((np.abs(diag) ** 2).sum()))
    got = wigner_module._single_diagonal(dense)
    want = _single_diagonal_per_offset(dense)
    assert (got is None) == (want is None) == (rest > TOL.norm)
    if want is not None:
        assert got[1:] == want[1:]
        assert got[0].tobytes() == want[0].tobytes()


@pytest.mark.parametrize(
    "state",
    [
        pytest.param(make_tmss(SqueezeParams(r=0.8, n_max=2)), id="tmss-pre"),
        pytest.param(apply_beam_splitter(make_tmss(SqueezeParams(r=0.8, n_max=2))), id="tmss-post"),
        pytest.param(_neighbour_pair_state(), id="diagonal-d=-1"),
    ],
)
def test_reduced_pass_matches_tensor_oracle(state):
    fast = negativity_volume(state, order=96, max_refinements=0)
    slow = tensor_negativity_volume(state_to_density(state), order=96, max_refinements=0)
    assert (fast.engine, slow.engine) == ("reduced-3d", "tensor-4d")
    assert fast.volume == pytest.approx(slow.volume, abs=2e-4)
    assert fast.normalization_check == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_reduced_pass_matches_exact_fock_pair_value(n):
    # the 4-D tensor rule is off by up to 3e-3 here at orders 128-192, so the
    # oracle is the exact factorized value
    state = apply_beam_splitter(TwoModeState.from_pairs({(n, n): 1.0}, cutoff=2 * n))
    exact = _fock_pair_nv(n)
    single = negativity_volume(state, order=192, max_refinements=0)
    assert single.engine == "reduced-3d"
    assert single.volume == pytest.approx(exact, abs=2e-4)
    refined = negativity_volume(state)
    assert refined.converged
    assert refined.volume == pytest.approx(exact, abs=TOL.nv)


@pytest.mark.parametrize("order", [24, 25, 48, 96])
def test_folded_theta_rule_matches_full_circle_on_figure4_points(order, monkeypatch):
    # a global phase leaves W unchanged, but leaves the pair products complex
    # in their last bits, so the phased diagonal takes the full [0, 2 pi)
    # rule, the oracle of the fold; the odd order is rounded up to even in
    # both.  Every pass asks for its basis, cached or not
    rules = []
    exact = wigner_module._theta_basis

    def recorded(span, n_theta, real):
        rules.append((span, n_theta, real))
        return exact(span, n_theta, real)

    monkeypatch.setattr(wigner_module, "_theta_basis", recorded)
    phase = np.exp(1j * math.pi / 3)
    for n in FIG4_N_VALUES:
        for r in FIG4_R_VALUES:
            c, na0, nb0 = wigner_module._pair_diagonal(make_tmss(SqueezeParams(r=r, n_max=n)))
            fold = wigner_module._reduced_pass(c, na0, nb0, order)
            full = wigner_module._reduced_pass(c * phase, na0, nb0, order)
            assert rules[-2:] == [(n + 1, order + order % 2, True), (n + 1, order + order % 2, False)]
            assert fold == pytest.approx(full, abs=1e-14), (r, n)
            assert 0.5 * (fold[0] - fold[1]) == pytest.approx(0.5 * (full[0] - full[1]), abs=1e-14)


@pytest.mark.parametrize("real", [True, False])
def test_theta_basis_holds_the_harmonics_at_the_rule_nodes(real, fresh_rows):
    theta, weights = wigner_module._theta_rule(10, real)
    basis, theta_w = wigner_module._theta_basis(4, 10, real)
    want = [np.cos(s * theta) for s in range(4)]
    if not real:
        want += [np.sin(s * theta) for s in range(1, 4)]
    assert basis.tobytes() == np.array(want).tobytes()
    assert theta_w.tobytes() == weights.tobytes()
    assert not basis.flags.writeable and not theta_w.flags.writeable
    assert wigner_module._theta_basis(4, 10, real) is wigner_module._theta_basis(4, 10, real)


def test_theta_rule_folds_onto_half_the_circle():
    theta, weights = wigner_module._theta_rule(8, folded=False)
    assert np.array_equal(weights, np.ones(8))
    assert theta == pytest.approx(np.arange(8) * math.pi / 4)
    theta, weights = wigner_module._theta_rule(8, folded=True)
    assert weights.tolist() == [1.0, 2.0, 2.0, 2.0, 1.0]
    assert theta == pytest.approx(np.arange(5) * math.pi / 4)


def _record_radial_rules(monkeypatch):
    """The set of (order, folded) radial rules the passes ask for."""
    rules = set()
    exact = wigner_module._radial_pair_rule

    def recorded(order, folded):
        rules.add((order, folded))
        return exact(order, folded)

    monkeypatch.setattr(wigner_module, "_radial_pair_rule", recorded)
    return rules


@pytest.mark.parametrize("order", [24, 25, 48])
def test_folded_radial_rule_matches_full_rule_on_figure4_points(order, monkeypatch, fresh_rows):
    # W(u_a, u_b) = W(u_b, u_a) on a mode-symmetric diagonal; the full radial
    # rule is the fold's oracle, and the odd order's middle node is not doubled
    rules = _record_radial_rules(monkeypatch)
    for n in FIG4_N_VALUES:
        for r in FIG4_R_VALUES:
            c, na0, nb0 = wigner_module._pair_diagonal(make_tmss(SqueezeParams(r=r, n_max=n)))
            assert na0 == nb0
            fold = wigner_module._reduced_pass(c, na0, nb0, order)
            full = wigner_module._reduced_pass(c, na0, nb0, order, radial_fold=False)
            assert fold == pytest.approx(full, abs=1e-14), (r, n)
            assert 0.5 * (fold[0] - fold[1]) == pytest.approx(0.5 * (full[0] - full[1]), abs=1e-14)
    assert rules == {(order, True), (order, False)}


def test_asymmetric_diagonal_takes_the_full_radial_rule(monkeypatch, fresh_rows):
    # |j + 1, j> is not symmetric under u_a <-> u_b; |j, j> is
    rules = _record_radial_rules(monkeypatch)
    c = np.array([0.6, -0.5, 0.4])
    c /= np.linalg.norm(c)
    shifted = TwoModeState.from_pairs({(j + 1, j): c[j] for j in range(3)}, cutoff=5)
    negativity_volume(shifted, order=8, max_refinements=1)
    assert rules == {(8, False), (16, False)}
    rules.clear()
    paired = TwoModeState.from_pairs({(j, j): c[j] for j in range(3)}, cutoff=4)
    negativity_volume(paired, order=8, max_refinements=1)
    assert rules == {(8, True), (16, True)}


_unit_float = st.floats(min_value=-1.0, max_value=1.0)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.tuples(_unit_float, _unit_float), min_size=1, max_size=4).filter(
        lambda c: sum(re * re + im * im for re, im in c) > 1e-2
    ),
    st.integers(min_value=-1, max_value=1),
)
def test_nv_is_splitter_invariant(pairs, d):
    c = np.array([complex(re, im) for re, im in pairs])
    c /= np.linalg.norm(c)
    state = TwoModeState.from_pairs(
        {(j + max(d, 0), j + max(-d, 0)): c[j] for j in range(len(c))},
        cutoff=2 * (len(c) - 1) + abs(d),
    )
    before = negativity_volume(state)
    after = negativity_volume(apply_beam_splitter(state))
    assert after.volume == pytest.approx(before.volume, abs=2 * TOL.nv)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.tuples(_unit_float, _unit_float), min_size=1, max_size=5).filter(
        lambda c: sum(re * re + im * im for re, im in c) > 1e-2
    ),
    st.booleans(),
    st.integers(min_value=0, max_value=2),
    st.sampled_from([2, 3, 8, 9, 24, 25]),
)
def test_radial_fold_matches_full_rule_on_symmetric_diagonals(pairs, real, j, order):
    # the two rules sum the same terms in another order: up to ~450 ulps of
    # the result, whose terms can exceed it at a low order and a high degree
    c = np.array([complex(re, 0.0 if real else im) for re, im in pairs])
    assume(np.linalg.norm(c) > 1e-1)
    c /= np.linalg.norm(c)
    fold = wigner_module._reduced_pass(c, j, j, order)
    full = wigner_module._reduced_pass(c, j, j, order, radial_fold=False)
    assert fold == pytest.approx(full, rel=1e-13, abs=1e-14)


def test_nv_dispatch_on_detected_symmetry():
    # one engine: a state on one diagonal, directly or after the splitter,
    # takes the reduced pass; a density matrix and a state on no diagonal
    # are refused with the tensor oracle's name, and that oracle takes both
    def engine(state):
        return negativity_volume(state, order=8, max_refinements=0).engine

    tmss = make_tmss(SqueezeParams(r=0.5, n_max=2))
    assert engine(tmss) == "reduced-3d"
    assert engine(apply_beam_splitter(tmss)) == "reduced-3d"
    assert engine(_neighbour_pair_state()) == "reduced-3d"
    for other in (state_to_density(tmss), random_state(np.random.default_rng(3), cutoff=3)):
        with pytest.raises(InvalidParameterError, match="fockvortex.oracles.tensor_negativity_volume"):
            engine(other)
        assert tensor_negativity_volume(other, order=8, max_refinements=0).engine == "tensor-4d"


def test_position_marginal_is_born_density():
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.6, n_max=2)))
    grid = QuadratureGrid.square(2.5, 5)
    fld = evaluate_field(state, grid)
    for i, x in enumerate(grid.x_axis()):
        for j, y in enumerate(grid.y_axis()):
            density = abs(fld.values[i, j]) ** 2
            assert position_marginal(state, x, y) == pytest.approx(density, abs=1e-10)


def test_slice_values_and_symmetry():
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.9, n_max=3)))
    grid = QuadratureGrid.square(3.0, 21)
    s1 = wigner_slice(state, {"y": 0.0, "px": 0.0}, grid)
    s2 = wigner_slice(state, {"x": 0.0, "py": 0.0}, grid)
    assert s1.free_names == ("x", "py")
    assert s2.free_names == ("px", "y")
    # mode exchange maps one plane family onto the transpose of the other
    assert np.max(np.abs(s1.values - s2.values.T)) < 1e-12
    # spot value against the point evaluator
    assert s1.values[4, 9] == pytest.approx(
        wigner_state(state, (grid.x_axis()[4], 0.0, 0.0, grid.y_axis()[9])), abs=1e-13
    )


# Planes that free one coordinate per mode, the two CLI slice planes first,
# then the other two; and the planes that free both coordinates of one mode.
# wigner_state, the per-point einsum, is the oracle of every slice.
_MIXED_PLANES = (
    {"y": 0.0, "px": 0.0},
    {"x": 0.0, "py": 0.0},
    {"px": 0.0, "py": 0.0},
    {"x": 0.0, "y": 0.0},
)
_SAME_MODE_PLANES = ({"y": 0.0, "py": 0.0}, {"x": 0.0, "px": 0.0})
_SLICE_GRID = QuadratureGrid.from_spec(SLICE_GRID)


@pytest.mark.parametrize("plane", _MIXED_PLANES, ids=lambda p: "fix-" + "-".join(p))
@pytest.mark.parametrize("n_max", [3, 10, 14])
def test_product_slice_is_byte_identical_to_pointwise(n_max, plane):
    # at N = 14 the pointwise path runs eight chunks of 1246 points and a
    # tail of 233; the slice CSVs of every figure and sweep depend on these bytes
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.9, n_max=n_max)))
    fast = wigner_slice(state, plane, _SLICE_GRID).values
    slow = wigner_state(state, plane_points(plane, _SLICE_GRID)[1])
    assert fast.tobytes() == slow.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=8),
    st.sampled_from(_MIXED_PLANES + _SAME_MODE_PLANES),
    st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    st.booleans(),
)
@example(0, 3, {"y": 0.0, "py": 0.0}, (0.0, 0.0), False)
@example(0, 3, {"x": 0.0, "px": 0.0}, (0.4, -0.2), False)
def test_product_slice_matches_pointwise_on_random_input(seed, cutoff, plane, fixed, density):
    # nonzero fixed coordinates make both kernels complex, and OpenBLAS may
    # then round the 21-column GEMM differently from the per-point one; on a
    # same-mode plane the one fixed point's kernel is contracted first, which
    # the einsum does only for mode a.  The slice takes the state; the
    # pointwise oracle takes it or its density matrix
    state = random_state(np.random.default_rng(seed), cutoff=cutoff)
    source = state_to_density(state) if density else state
    plane = dict(zip(plane, fixed))
    grid = QuadratureGrid.square(3.0, 21)
    fast = wigner_slice(state, plane, grid).values
    slow = wigner_state(source, plane_points(plane, grid)[1])
    assert np.max(np.abs(fast - slow)) <= 1e-15


@pytest.mark.parametrize("plane", [{"y": 0.0, "py": 0.0}, {"x": 0.4, "px": -0.2}])
def test_same_mode_slice_is_pointwise(plane):
    # the fixed point's kernel is contracted into rho first, so the bytes may
    # differ from wigner_state's; the values agree to the slices' 1e-15 bound
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.9, n_max=3)))
    grid = QuadratureGrid.square(3.0, 21)
    fast = wigner_slice(state, plane, grid).values
    slow = wigner_state(state, plane_points(plane, grid)[1])
    assert fast.shape == slow.shape
    assert np.max(np.abs(fast - slow)) <= 1e-15


def test_product_slice_builds_kernels_on_axis_points_only(monkeypatch, fresh_rows):
    evaluated = []
    kernel_polys = wigner_module._kernel_polys

    def spy(dim, x, p):
        evaluated.append(np.size(x))
        return kernel_polys(dim, x, p)

    monkeypatch.setattr(wigner_module, "_kernel_polys", spy)
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.9, n_max=3)))
    sl = wigner_slice(state, {"y": 0.0, "px": 0.0}, _SLICE_GRID)
    assert sl.values.shape == (101, 101)
    assert sum(evaluated) <= 202
    # a same-mode plane: the whole plane and the one fixed point, where
    # wigner_state builds both kernels at all 101^2 points
    for plane in _SAME_MODE_PLANES:
        evaluated.clear()
        assert wigner_slice(state, plane, _SLICE_GRID).values.shape == (101, 101)
        assert sum(evaluated) <= 101 ** 2 + 1, plane


def _slice_peak(state, plane) -> int:
    tracemalloc.start()
    try:
        wigner_slice(state, plane, _SLICE_GRID)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("plane", _SAME_MODE_PLANES, ids=lambda p: "fix-" + "-".join(p))
@pytest.mark.parametrize("n_max", [14, 20])
def test_same_mode_slice_memory_is_bounded(n_max, plane):
    # m = 29 per mode: one slab of rho_p takes 16 * 4 m^3 = 1.6 MB and one
    # kernel block 32 MiB, 38 MB in all (72 MB when the block counted 2^22
    # complex entries); m = 41 takes a 4.4 MB slab and the same block
    m = 2 * n_max + 1
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.6, n_max=n_max)))
    peak = _slice_peak(state, plane)
    assert peak <= 16 * 4 * m ** 3 + 1.5 * wigner_module._BLOCK_BYTES, f"peak {peak / 1e6:.0f} MB"


@pytest.mark.parametrize("budget", [1 << 20, 1 << 28])
def test_blocked_loops_keep_their_bits_at_any_block_budget(budget, monkeypatch):
    # 2^20 bytes splits the N = 14 product plane's second kernel in two, and
    # every same-mode plane and wigner_state into 27 to 133 blocks; 2^28 runs
    # each in one.  The reduced pass is left out: its streamed sums split
    # where its blocks do
    states = [apply_beam_splitter(make_tmss(SqueezeParams(r=0.6, n_max=n))) for n in (6, 14)]
    x, p = np.random.default_rng(3).normal(scale=2.0, size=(2, 5000))
    points = plane_points(_MIXED_PLANES[0], _SLICE_GRID)[1]

    def run():
        slices = [wigner_slice(state, plane, _SLICE_GRID).values
                  for state in states for plane in (_MIXED_PLANES[0], _SAME_MODE_PLANES[0])]
        return slices + [wigner_module._kernel_polys(30, x, p), wigner_state(states[0], points)]

    want = run()
    monkeypatch.setattr(wigner_module, "_BLOCK_BYTES", budget)
    for got, ref in zip(run(), want):
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("plane", _MIXED_PLANES[:2], ids=lambda p: "fix-" + "-".join(p))
def test_product_slice_memory_is_bounded(plane):
    # m = 41 per mode: rho_p built whole took 16 m^4 = 45 MB (a 51.5 MB
    # peak); its slabs take 16 * 4 m^3 = 4.4 MB, and the slice about 10.5 MB
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.6, n_max=20)))
    peak = _slice_peak(state, plane)
    assert peak < 16 * 41 ** 4 / 2, f"peak {peak / 1e6:.1f} MB"


# _kernel_products against rho_p built whole, in a child pinned to one BLAS
# thread as tools/artifact_hashes.py pins its runs: a multithreaded OpenBLAS
# splits a narrow product by its shape, so there the whole matrix's own bits
# change with the thread count.  Both orientations contract a kernel of
# ``count`` points first, on random states of odd and even m and on images.
_SLAB_IDENTITY_SCRIPT = """
import json
import numpy as np
from fockvortex import SqueezeParams, apply_beam_splitter, make_tmss
from fockvortex.oracles import random_state
from fockvortex.wigner import _kernel_polys, _kernel_products

def materialized(rho, m, first, second):
    swap = second[0].size < first[0].size
    if swap:
        rho, first, second = rho.T, second, first
    d = rho.T @ _kernel_polys(m, *first).reshape(m * m, -1)
    k = _kernel_polys(m, *second).reshape(m * m, -1)
    w = np.matmul(k.T[None, :, None, :], d.T[:, None, :, None])[..., 0, 0]
    return w.T if swap else w

rng = np.random.default_rng(2718)
states = [(f"random cutoff {c}", random_state(rng, cutoff=c).amplitudes) for c in range(1, 31)]
states += [(f"image N = {n}", apply_beam_splitter(make_tmss(SqueezeParams(r=0.6, n_max=n))).amplitudes)
           for n in range(1, 21)]
failed = []
for name, amps in states:
    m = len(amps)
    rho = np.einsum("ab,cd->acbd", amps, amps.conj()).reshape(m * m, m * m)
    for count in (1, 2, 3, 7, 101):
        for sizes in ((count, count + 1), (count + 1, count)):
            first, second = ((rng.uniform(-2, 2, s), rng.uniform(-2, 2, s)) for s in sizes)
            fast = np.ascontiguousarray(_kernel_products(amps, first, second))
            slow = np.ascontiguousarray(materialized(rho, m, first, second))
            if not np.array_equal(fast.view(np.int64), slow.view(np.int64)):
                failed.append([name, *sizes])
print(json.dumps(failed))
"""


def test_slab_contraction_is_bit_identical_to_the_whole_pair_matrix(child_env):
    env = {**child_env, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _SLAB_IDENTITY_SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


def test_far_point_raises_instead_of_returning_nan():
    # at |q| = 1e6 the kernel polynomials overflow while the Gaussian
    # underflows; the product is NaN, never a Wigner value (the CLI tests
    # cover the slice paths)
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.5, n_max=14)))
    with pytest.raises(InvariantError, match="not finite"):
        wigner_state(state, (1e6, 0.0, 0.0, 0.0))


def test_far_marginal_and_diagonal_form_raise_instead_of_returning_nan():
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.5, n_max=14)))
    with pytest.raises(InvariantError, match="not finite"):
        position_marginal(state, 1e6, 0.0)
    with pytest.raises(InvariantError, match="not finite"):
        wigner_diagonal_form(SqueezeParams(r=0.5, n_max=14), (1e6, 0.0, 0.0, 0.0))


def test_ladder_raises_on_a_non_finite_pass():
    # where the kernel columns overflow a pass's integrals are NaN: an
    # invariant failure, not a volume that merely failed to converge
    def run_pass(order):
        return (1.2, 1.0) if order == 24 else (math.nan, math.nan)

    with pytest.raises(InvariantError, match="order 48 is not finite"):
        wigner_module._ladder(run_pass, 24, 1e-3, 3, "stub")


def test_slice_plane_validation():
    state = make_tmss(SqueezeParams(r=0.1, n_max=1))
    grid = QuadratureGrid.square(1.0, 3)
    with pytest.raises(InvalidParameterError):
        wigner_slice(state, {"y": 0.0}, grid)
    with pytest.raises(InvalidParameterError):
        wigner_slice(state, {"y": 0.0, "px": 0.0, "x": 0.0}, grid)
    with pytest.raises(InvalidParameterError):
        wigner_slice(state, {"q": 0.0, "px": 0.0}, grid)
    for bad in (float("nan"), float("inf"), "0", True, None):
        with pytest.raises(InvalidParameterError):
            wigner_slice(state, {"y": bad, "px": 0.0}, grid)


def test_slice_csv_header_names_free_coords(tmp_path):
    state = make_tmss(SqueezeParams(r=0.2, n_max=1))
    sl = wigner_slice(state, {"x": 0.5, "py": -0.25}, QuadratureGrid.square(1.0, 3))
    path = tmp_path / "slice.csv"
    sl.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "px,y,w"
    assert len(lines) == 10
    c1, c2, w = (float(v) for v in lines[1].split(","))
    assert w == pytest.approx(float(sl.values[0, 0]), abs=0.0)


def _pair_terms_weights(params):
    """The diagonal form's weights by the per-pair formula it was first
    written with: tanh(r)^{2j} (j!)^2 / 4^j * sum of C_{k,l}^2 over
    m = l - k, C_{k,l} = sqrt((j-l+k)! (j+l-k)!) / (k! (j-k)! l! (j-l)!)."""
    lg = [math.lgamma(k + 1) for k in range(2 * params.n_max + 1)]
    t = math.tanh(params.r)
    weights = {}
    for j in range(params.n_max + 1):
        base = t ** (2 * j) * math.exp(2.0 * lg[j] - j * math.log(4.0))
        for k in range(j + 1):
            for l in range(j + 1):
                c = math.exp(0.5 * (lg[j - l + k] + lg[j + l - k])
                             - lg[k] - lg[j - k] - lg[l] - lg[j - l])
                weights[(j, l - k)] = weights.get((j, l - k), 0.0) + base * c * c
    total = math.fsum(weights.values())
    return {jm: v / total for jm, v in weights.items()}


@pytest.mark.parametrize("r", [0.1, 0.8, 1.5])
def test_diagonal_form_weights_match_the_per_pair_formula(r):
    # both formulas exponentiate sums of log-factorials up to log(20!) ~ 42,
    # so single weights agree to 6.9e-15 relative at N = 10, and every
    # weight to 1e-15 of their sum, 1
    for n_max in range(11):
        params = SqueezeParams(r=r, n_max=n_max)
        got, expect = wigner_module._diagonal_form_weights(params), _pair_terms_weights(params)
        assert got.keys() == expect.keys()
        for jm, w in expect.items():
            assert got[jm] == pytest.approx(w, rel=1e-14, abs=0.0)
            assert abs(got[jm] - w) <= 1e-15


def test_diagonal_form_vacuum_exact():
    params = SqueezeParams(r=0.4, n_max=0)
    vac = TwoModeState.from_pairs({(0, 0): 1.0}, cutoff=0)
    for point in [(0.0, 0.0, 0.0, 0.0), (0.3, -0.5, 0.7, 0.2), (1.2, 0.4, -0.8, 0.6)]:
        assert wigner_diagonal_form(params, point) == pytest.approx(
            wigner_state(vac, point), abs=1e-14
        )


def test_diagonal_form_slice_negativity_onset():
    # the diagonal closed form also turns negative only once r is large
    axis = np.linspace(-3.2, 3.2, 41)
    gx, gpy = np.meshgrid(axis, axis, indexing="ij")
    zeros = np.zeros_like(gx)
    low = wigner_diagonal_form(SqueezeParams(r=0.2, n_max=6), (gx, zeros, zeros, gpy))
    high = wigner_diagonal_form(SqueezeParams(r=0.9, n_max=6), (gx, zeros, zeros, gpy))
    assert low.min() >= -1e-12
    assert high.min() < -1e-3


def test_diagonal_form_deviation_reports_coherence_gap():
    # the diagonal form drops the pair-coherence terms of the pure state;
    # on a 9^4 lattice over [-2, 2]^4 the gap is real and finite
    params = SqueezeParams(r=0.5, n_max=2)
    axis = np.linspace(-2.0, 2.0, 9)
    point = np.meshgrid(axis, axis, axis, axis, indexing="ij")
    exact = wigner_state(apply_beam_splitter(make_tmss(params)), point)
    gap = float(np.max(np.abs(wigner_diagonal_form(params, point) - exact)))
    assert 0.05 < gap < 0.5
    assert np.max(np.abs(exact)) <= FOUR_OVER_PI_SQ + 1e-9
