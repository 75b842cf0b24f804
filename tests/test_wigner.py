import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fockvortex import (
    InvalidParameterError,
    InvariantError,
    QuadratureGrid,
    SqueezeParams,
    TwoModeState,
    WignerRule,
    apply_beam_splitter,
    build_wigner_grid,
    evaluate_field,
    make_tmss,
    negativity_volume,
    diagonal_form_deviation,
    position_marginal,
    random_state,
    state_to_density,
    wigner_fock_cross,
    wigner_fock_diagonal,
    wigner_diagonal_form,
    wigner_slice,
    wigner_state,
)
import fockvortex.wigner as wigner_module
from fockvortex.cli import SLICE_GRID
from fockvortex.config import TOL
from fockvortex.quadrature import hermite_basis
from fockvortex.wigner import _radial_pair_rule, plane_points

# mpmath, 40 digits
W_DIAG_3_AT_0P7 = -0.11010127013979758215
W_CROSS_21_RE = -0.21842777967552695624
W_CROSS_21_IM = -0.16382083475664521718
FOUR_OVER_PI_SQ = 0.40528473456935108578
TWO_OVER_PI = 0.63661977236758134308


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


def test_frozen_cross_value():
    got = wigner_fock_cross(2, 1, 0.4, -0.3)
    assert got.real == pytest.approx(W_CROSS_21_RE, abs=1e-14)
    assert got.imag == pytest.approx(W_CROSS_21_IM, abs=1e-14)


def test_cross_reduces_to_diagonal():
    q2 = 0.4**2 + 0.9**2
    got = wigner_fock_cross(2, 2, 0.4, 0.9)
    assert got.imag == 0.0
    assert got.real == pytest.approx(wigner_fock_diagonal(2, q2), abs=1e-14)


def test_cross_hermitian_symmetry():
    a = wigner_fock_cross(3, 1, 0.5, 0.2)
    b = wigner_fock_cross(1, 3, 0.5, 0.2)
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


@pytest.mark.parametrize("scheme", ["tensor-gauss-hermite", "uniform-box"])
def test_quadrature_rule_gaussian_check(scheme):
    grid = build_wigner_grid(WignerRule(scheme=scheme, order=48), cutoff=8)
    assert grid.gaussian_check() < 1e-8
    assert np.all(grid.weights > 0)


@pytest.mark.parametrize("order", [3, 24, 96, 192, 384])
def test_gauss_hermite_rule_matches_scipy(order):
    # scipy's roots_hermite is the oracle of the library's Golub-Welsch rule
    grid = build_wigner_grid(WignerRule(order=order), cutoff=0)
    nodes, weights = scipy.special.roots_hermite(order)
    np.testing.assert_allclose(grid.nodes * math.sqrt(2.0), nodes, rtol=0, atol=1e-12)
    # subnormal weights (order 384 has two) carry only a few digits on either side
    np.testing.assert_allclose(grid.weights * math.sqrt(2.0), weights, rtol=2e-11,
                               atol=np.finfo(float).tiny)


def test_rule_validation():
    with pytest.raises(InvalidParameterError):
        WignerRule(scheme="monte-carlo")
    with pytest.raises(InvalidParameterError):
        WignerRule(order=1)
    for tol in (0.0, math.nan):
        with pytest.raises(InvalidParameterError):
            negativity_volume(make_tmss(SqueezeParams(r=0.1, n_max=1)), tol=tol)


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
    result = negativity_volume(state, WignerRule(order=12))
    orders = [o for o, _ in result.resolution_history]
    assert orders == [12 * 2**k for k in range(len(orders))]
    assert result.converged


def test_refinement_budget_flag():
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.5, n_max=2)))
    result = negativity_volume(state, WignerRule(order=6), tol=1e-12, max_refinements=1)
    assert not result.converged
    assert len(result.resolution_history) == 2


def test_box_scheme_agrees_with_gauss_hermite():
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.8, n_max=2)))
    gh = negativity_volume(state)
    box = negativity_volume(state, WignerRule(scheme="uniform-box", order=48))
    assert box.volume == pytest.approx(gh.volume, abs=2e-3)


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
    # scipy.special.roots_laguerre returns NaN
    ua, ub, w = _radial_pair_rule(384)
    assert all(np.isfinite(a).all() for a in (ua, ub, w))
    assert np.all(w >= 0)
    for i, j in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        moment = float(w @ (ua**i * ub**j))
        assert moment == pytest.approx(math.factorial(i) * math.factorial(j), rel=1e-12)


@pytest.mark.parametrize("r,n_max,order", [(1.1, 10, 192), (1.1, 14, 96)])
def test_reduced_pass_integrates_w_to_one_at_deep_truncation(r, n_max, order):
    # the degree-2N radial profiles peak at large v, where the Laguerre
    # weights are tiny: they must be accurate relative to their own size
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=r, n_max=n_max)))
    result = negativity_volume(state, WignerRule(order=order), max_refinements=0)
    assert result.engine == "reduced-3d"
    assert abs(result.normalization_check - 1.0) <= 1e-10


def test_under_resolved_result_is_never_converged(monkeypatch):
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.5, n_max=2)))
    assert negativity_volume(state).converged

    def scaled_rule(order, rule=_radial_pair_rule):
        ua, ub, w = rule(order)
        return ua, ub, 1.05 * w

    monkeypatch.setattr(wigner_module, "_radial_pair_rule", scaled_rule)
    result = negativity_volume(state)
    assert result.normalization_check == pytest.approx(1.05, abs=1e-10)
    assert result.under_resolved
    assert not result.converged


@pytest.mark.parametrize(
    "state",
    [
        pytest.param(make_tmss(SqueezeParams(r=0.8, n_max=2)), id="tmss-pre"),
        pytest.param(apply_beam_splitter(make_tmss(SqueezeParams(r=0.8, n_max=2))), id="tmss-post"),
        pytest.param(_neighbour_pair_state(), id="diagonal-d=-1"),
    ],
)
def test_reduced_pass_matches_tensor_oracle(state):
    rule = WignerRule(order=96)
    fast = negativity_volume(state, rule, max_refinements=0)
    slow = negativity_volume(state_to_density(state), rule, max_refinements=0)
    assert (fast.engine, slow.engine) == ("reduced-3d", "tensor-4d")
    assert fast.volume == pytest.approx(slow.volume, abs=2e-4)
    assert fast.normalization_check == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_reduced_pass_matches_exact_fock_pair_value(n):
    # the 4-D tensor rule is off by up to 3e-3 here at orders 128-192, so the
    # oracle is the exact factorized value
    state = apply_beam_splitter(TwoModeState.from_pairs({(n, n): 1.0}, cutoff=2 * n))
    exact = _fock_pair_nv(n)
    single = negativity_volume(state, WignerRule(order=192), max_refinements=0)
    assert single.engine == "reduced-3d"
    assert single.volume == pytest.approx(exact, abs=2e-4)
    refined = negativity_volume(state)
    assert refined.converged
    assert refined.volume == pytest.approx(exact, abs=TOL.nv)


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


def test_nv_dispatch_on_detected_symmetry():
    rule = WignerRule(order=8)

    def engine(state_or_rho, rule=rule):
        return negativity_volume(state_or_rho, rule, max_refinements=0).engine

    tmss = make_tmss(SqueezeParams(r=0.5, n_max=2))
    assert engine(tmss) == "reduced-3d"
    assert engine(apply_beam_splitter(tmss)) == "reduced-3d"
    assert engine(_neighbour_pair_state()) == "reduced-3d"
    assert engine(state_to_density(tmss)) == "tensor-4d"
    assert engine(random_state(np.random.default_rng(3), cutoff=3)) == "tensor-4d"
    assert engine(tmss, WignerRule(scheme="uniform-box", order=8)) == "tensor-4d"


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


# Planes that free one coordinate per mode take the product-grid path; the
# two CLI slice planes first, then the other two.  wigner_state, the
# per-point einsum, is their oracle.
_MIXED_PLANES = (
    {"y": 0.0, "px": 0.0},
    {"x": 0.0, "py": 0.0},
    {"px": 0.0, "py": 0.0},
    {"x": 0.0, "y": 0.0},
)
_SLICE_GRID = QuadratureGrid.from_spec(SLICE_GRID)


@pytest.mark.parametrize("plane", _MIXED_PLANES, ids=lambda p: "fix-" + "-".join(p))
@pytest.mark.parametrize("n_max", [3, 10, 14])
def test_product_slice_is_byte_identical_to_pointwise(n_max, plane):
    # at N = 14 the pointwise path runs two chunks of 4987 points and a tail
    # of 227; the slice CSVs of every figure and sweep depend on these bytes
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.9, n_max=n_max)))
    fast = wigner_slice(state, plane, _SLICE_GRID).values
    slow = wigner_state(state, plane_points(plane, _SLICE_GRID)[1])
    assert fast.tobytes() == slow.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=8),
    st.sampled_from(_MIXED_PLANES),
    st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    st.booleans(),
)
def test_product_slice_matches_pointwise_on_random_input(seed, cutoff, plane, fixed, density):
    # nonzero fixed coordinates make both kernels complex, and OpenBLAS may
    # then round the 21-column GEMM differently from the per-point one
    state = random_state(np.random.default_rng(seed), cutoff=cutoff)
    source = state_to_density(state) if density else state
    plane = dict(zip(plane, fixed))
    grid = QuadratureGrid.square(3.0, 21)
    fast = wigner_slice(source, plane, grid).values
    slow = wigner_state(source, plane_points(plane, grid)[1])
    assert np.max(np.abs(fast - slow)) <= 1e-15


@pytest.mark.parametrize("plane", [{"y": 0.0, "py": 0.0}, {"x": 0.4, "px": -0.2}])
def test_same_mode_slice_is_pointwise(plane):
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.9, n_max=3)))
    grid = QuadratureGrid.square(3.0, 21)
    fast = wigner_slice(state, plane, grid).values
    assert fast.tobytes() == wigner_state(state, plane_points(plane, grid)[1]).tobytes()


def test_product_slice_builds_kernels_on_axis_points_only(monkeypatch):
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


def test_far_point_raises_instead_of_returning_nan():
    # at |q| = 1e6 the kernel polynomials overflow while the Gaussian
    # underflows; the product is NaN, never a Wigner value (the CLI tests
    # cover the slice paths)
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.5, n_max=14)))
    with pytest.raises(InvariantError, match="not finite"):
        wigner_state(state, (1e6, 0.0, 0.0, 0.0))


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
    # the gap is real, finite, and reported rather than asserted away
    report = diagonal_form_deviation(SqueezeParams(r=0.5, n_max=2), lattice_points=9)
    assert report["lattice_points"] == 9
    assert 0.05 < report["max_abs_diff"] < 0.5
    assert report["max_abs_wigner"] <= FOUR_OVER_PI_SQ + 1e-9
