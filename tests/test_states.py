import math

import numpy as np
import pytest

from fockvortex import (
    InvalidParameterError,
    InvalidStateError,
    SqueezeParams,
    TwoModeState,
    make_tmss,
)
from fockvortex.oracles import DensityMatrix, random_state, state_to_density, total_photon_distribution

# mpmath, 40 digits: normalized pair amplitudes for r = 0.5, N = 1
TMSS_R05_N1_C0 = 0.90775940470586296195
TMSS_R05_N1_C1 = 0.41949119557871211680
TANH_05 = 0.46211715726000975850


@pytest.mark.parametrize("r", [0.0, 0.1, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("n_max", [0, 1, 3, 6, 12])
def test_tmss_normalized(r, n_max):
    state = make_tmss(SqueezeParams(r=r, n_max=n_max))
    assert abs(state.norm() - 1.0) < 1e-14


def test_tmss_frozen_amplitudes():
    state = make_tmss(SqueezeParams(r=0.5, n_max=1))
    assert state.amplitude(0, 0).real == pytest.approx(TMSS_R05_N1_C0, abs=1e-15)
    assert state.amplitude(1, 1).real == pytest.approx(TMSS_R05_N1_C1, abs=1e-15)
    assert state.amplitude(0, 0).imag == 0.0
    assert state.amplitude(1, 0) == 0.0


def test_tmss_geometric_ratio():
    # successive pair amplitudes differ by exactly tanh(r)
    state = make_tmss(SqueezeParams(r=0.5, n_max=5))
    for j in range(5):
        ratio = state.amplitude(j + 1, j + 1) / state.amplitude(j, j)
        assert ratio.real == pytest.approx(TANH_05, abs=1e-14)
        assert ratio.imag == 0.0


def test_tmss_support_is_pair_diagonal():
    state = make_tmss(SqueezeParams(r=0.8, n_max=4))
    assert np.argwhere(state.amplitudes).tolist() == [[j, j] for j in range(5)]
    assert state.cutoff == 8
    assert state.amplitudes.shape == (9, 9)


def test_tmss_r_zero_is_vacuum():
    state = make_tmss(SqueezeParams(r=0.0, n_max=5))
    assert np.argwhere(state.amplitudes).tolist() == [[0, 0]]
    assert state.amplitude(0, 0) == pytest.approx(1.0)


def test_tmss_truncation_consistency():
    # dropping the last term and renormalizing reproduces the lower order
    hi = make_tmss(SqueezeParams(r=0.7, n_max=6))
    lo = make_tmss(SqueezeParams(r=0.7, n_max=5))
    kept = hi.amplitudes[:6, :6]  # the pairs with n_a <= 5
    assert np.count_nonzero(lo.amplitudes) == 6
    assert np.max(np.abs(kept / np.linalg.norm(kept) - lo.amplitudes[:6, :6])) < 1e-14


@pytest.mark.parametrize("r,n_max", [(-0.1, 3), (0.5, -1)])
def test_squeeze_params_validation(r, n_max):
    with pytest.raises(InvalidParameterError):
        SqueezeParams(r=r, n_max=n_max)


@pytest.mark.parametrize("r,n_max", [
    pytest.param(0.5, 2.0, id="float-count"),
    pytest.param(0.5, True, id="bool-count"),
    pytest.param(0.5, "2", id="str-count"),
    pytest.param(True, 2, id="bool-r"),
    pytest.param("0.5", 2, id="str-r"),
    pytest.param(0.5 + 0j, 2, id="complex-r"),
])
def test_squeeze_params_refuse_other_types(r, n_max):
    # a count is an integer and r a real number, and a bool is neither; a
    # float count used to pass here and fail in make_tmss as a bare TypeError
    with pytest.raises(InvalidParameterError):
        SqueezeParams(r=r, n_max=n_max)


def test_squeeze_params_refuse_an_r_past_the_float_range():
    # math.isfinite cannot convert it, which used to escape as a bare OverflowError
    with pytest.raises(InvalidParameterError) as info:
        SqueezeParams(r=10 ** 400, n_max=2)
    assert str(info.value) == f"squeezing parameter must be a finite real number, got {10 ** 400}"


@pytest.mark.parametrize("cutoff", [1.0, True, "1"])
def test_from_pairs_refuses_a_cutoff_that_is_not_an_integer(cutoff):
    with pytest.raises(InvalidParameterError):
        TwoModeState.from_pairs({(0, 0): 1.0}, cutoff=cutoff)


def test_squeeze_params_take_numpy_numbers():
    params = SqueezeParams(r=np.float64(0.5), n_max=np.int64(2))
    assert make_tmss(params).amplitudes.tobytes() == make_tmss(SqueezeParams(0.5, 2)).amplitudes.tobytes()


def test_state_rejects_bad_norm():
    with pytest.raises(InvalidStateError):
        TwoModeState.from_pairs({(0, 0): 0.5}, cutoff=1)


def test_state_rejects_out_of_range_pairs():
    with pytest.raises(InvalidStateError):
        TwoModeState.from_pairs({(2, 2): 1.0}, cutoff=3)
    with pytest.raises(InvalidStateError):
        TwoModeState.from_pairs({(-1, 0): 1.0}, cutoff=2)
    with pytest.raises(InvalidStateError):
        TwoModeState.from_pairs({(0, 3): 1.0}, cutoff=2)
    beyond = np.zeros((3, 3))
    beyond[1, 2] = 1.0
    with pytest.raises(InvalidStateError, match=r"pair \(1, 2\) exceeds total-photon cutoff 2"):
        TwoModeState(beyond)
    with pytest.raises(InvalidStateError):
        TwoModeState(np.ones((1, 2)) / math.sqrt(2.0))
    with pytest.raises(InvalidParameterError):
        TwoModeState.from_pairs({}, cutoff=-1)


@pytest.mark.parametrize("value", [math.nan, complex(1.0, math.nan), math.inf])
def test_state_rejects_non_finite_amplitudes(value):
    with pytest.raises(InvalidStateError):
        TwoModeState.from_pairs({(0, 0): value}, cutoff=0)
    with pytest.raises(InvalidStateError):
        TwoModeState.from_pairs({(0, 0): 1.0, (1, 0): value}, cutoff=1)


def test_state_drops_exact_zeros():
    state = TwoModeState.from_pairs({(0, 0): 1.0, (1, 1): 0.0}, cutoff=2)
    assert np.count_nonzero(state.amplitudes) == 1
    assert repr(state) == "TwoModeState(terms=1, cutoff=2)"


def test_dense_round_trip():
    rng = np.random.default_rng(3)
    state = random_state(rng, cutoff=5)
    back = TwoModeState(state.amplitudes)
    assert back.cutoff == 5
    assert np.array_equal(back.amplitudes, state.amplitudes)


def test_amplitudes_are_a_read_only_copy():
    source = np.zeros((3, 3), dtype=complex)
    source[1, 1] = 1.0
    state = TwoModeState(source)
    source[1, 1] = 0.5  # the caller's array stays theirs
    assert state.amplitude(1, 1) == 1.0
    with pytest.raises(ValueError):
        state.amplitudes[0, 0] = 1.0


def test_amplitude_outside_cutoff_is_zero():
    state = make_tmss(SqueezeParams(r=0.5, n_max=1))
    for pair in [(-1, 0), (0, -1), (3, 0), (0, 3), (5, 5)]:
        assert state.amplitude(*pair) == 0.0


def test_density_matrix_pure_state_properties():
    state = make_tmss(SqueezeParams(r=0.6, n_max=3))
    rho = state_to_density(state)
    assert rho.trace() == pytest.approx(1.0, abs=1e-14)
    mat = rho.as_matrix()
    assert float(np.trace(mat @ mat).real) == pytest.approx(1.0, abs=1e-12)
    assert rho.hermiticity_residue() < 1e-15
    c1 = state.amplitude(1, 1)
    c2 = state.amplitude(2, 2)
    assert complex(rho.tensor[1, 1, 2, 2]) == pytest.approx(c1 * np.conj(c2))


def test_density_matrix_validation():
    m = np.zeros((3, 3, 3, 3), dtype=complex)
    m[0, 0, 1, 1] = 1.0  # not Hermitian
    with pytest.raises(InvalidStateError):
        DensityMatrix(m)
    # the per-mode dimension is read from the sides, so all four must agree
    for shape in [(3, 3, 3, 2), (9, 9), (0, 0, 0, 0)]:
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.zeros(shape))


def test_density_matrix_rejects_nan():
    tensor = state_to_density(make_tmss(SqueezeParams(r=0.6, n_max=1))).tensor.copy()
    tensor[0, 0, 1, 1] = tensor[1, 1, 0, 0] = math.nan
    with pytest.raises(InvalidStateError):
        DensityMatrix(tensor)


def test_total_photon_distribution():
    state = make_tmss(SqueezeParams(r=0.5, n_max=3))
    dist = total_photon_distribution(state)
    assert set(dist) == {0, 2, 4, 6}
    assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-14)
    assert dist[2] == pytest.approx(abs(state.amplitude(1, 1)) ** 2, abs=1e-15)


def test_random_state_normalized():
    rng = np.random.default_rng(11)
    for _ in range(20):
        state = random_state(rng, cutoff=7)
        assert abs(state.norm() - 1.0) < 1e-13
