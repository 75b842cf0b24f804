import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockvortex import (
    EigensolverError,
    InvalidStateError,
    SqueezeParams,
    TwoModeState,
    apply_beam_splitter,
    log_negativity,
    make_tmss,
)
from fockvortex.oracles import (
    DensityMatrix,
    _eigvals_checked,
    log_negativity_eigh,
    partial_transpose,
    random_state,
    state_to_density,
)

# mpmath: 2 r / ln 2 at r = 0.3
UNTRUNCATED_LOGNEG_R03 = 0.86561702453337804442


def _bell():
    amp = 1.0 / math.sqrt(2.0)
    return TwoModeState.from_pairs({(0, 0): amp, (1, 1): amp}, cutoff=2)


def test_bell_log_negativity_exact():
    report = log_negativity(_bell())
    assert report.log_negativity == pytest.approx(1.0, abs=1e-9)
    assert report.negativity == pytest.approx(0.5, abs=1e-12)


def test_bell_negative_spectrum():
    report = log_negativity(_bell())
    assert len(report.negative_eigenvalues) == 1
    assert report.negative_eigenvalues[0] == pytest.approx(-0.5, abs=1e-12)


def test_truncated_tmss_matches_closed_form():
    report = log_negativity(make_tmss(SqueezeParams(r=0.3, n_max=12)))
    assert report.log_negativity == pytest.approx(UNTRUNCATED_LOGNEG_R03, abs=1e-3)


def test_product_state_not_entangled():
    report = log_negativity(TwoModeState.from_pairs({(1, 0): 1.0}, cutoff=1))
    assert report.negativity == 0.0
    assert report.log_negativity == 0.0
    assert report.negative_eigenvalues == []


def test_pure_state_nuclear_norm_oracle():
    # for any pure state, log-negativity equals 2 log2 of the nuclear norm
    # of the amplitude matrix (sum of Schmidt coefficients squared inside)
    rng = np.random.default_rng(23)
    for _ in range(8):
        state = random_state(rng, cutoff=6)
        sigma = np.linalg.svd(state.amplitudes, compute_uv=False)
        expect = 2.0 * math.log2(float(np.sum(sigma)))
        assert log_negativity(state).log_negativity == pytest.approx(expect, abs=1e-10)


def test_modes_give_same_negativity():
    # PT_b(rho) = PT_a(rho)^T, so the spectrum, and with it the log-negativity,
    # does not depend on the transposed mode
    rho = state_to_density(apply_beam_splitter(make_tmss(SqueezeParams(r=0.7, n_max=3))))
    pt_a = partial_transpose(rho).as_matrix()
    pt_b = DensityMatrix(np.ascontiguousarray(rho.tensor.transpose(0, 3, 2, 1))).as_matrix()
    assert np.array_equal(pt_b, pt_a.T)
    assert np.max(np.abs(np.linalg.eigvalsh(pt_b) - np.linalg.eigvalsh(pt_a))) < 1e-12


def test_accepts_state_or_density():
    # the state takes the Schmidt path and its density matrix the eigh oracle
    state = make_tmss(SqueezeParams(r=0.5, n_max=4))
    a = log_negativity(state).log_negativity
    b = log_negativity_eigh(state_to_density(state)).log_negativity
    assert a == pytest.approx(b, abs=1e-13)


def test_partial_transpose_involution():
    rng = np.random.default_rng(31)
    rho = state_to_density(random_state(rng, cutoff=4))
    double = partial_transpose(partial_transpose(rho))
    assert np.max(np.abs(double.tensor - rho.tensor)) < 1e-15


def test_partial_transpose_keeps_trace_and_hermiticity():
    rho = state_to_density(make_tmss(SqueezeParams(r=0.8, n_max=3)))
    pt = partial_transpose(rho)
    assert pt.trace() == pytest.approx(1.0, abs=1e-13)
    assert pt.hermiticity_residue() < 1e-15


def test_partial_transpose_entry_swap():
    rho = state_to_density(make_tmss(SqueezeParams(r=0.6, n_max=2)))
    pt = partial_transpose(rho)
    assert pt.tensor[0, 1, 1, 1] == pytest.approx(rho.tensor[1, 1, 0, 1])


def _assert_same_report(fast, slow):
    assert fast.matrix_dimension == slow.matrix_dimension
    assert fast.negativity == pytest.approx(slow.negativity, abs=1e-12)
    assert fast.log_negativity == pytest.approx(slow.log_negativity, abs=1e-12)
    assert len(fast.negative_eigenvalues) == len(slow.negative_eigenvalues)
    assert fast.negative_eigenvalues == pytest.approx(slow.negative_eigenvalues, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cutoff=st.integers(1, 6))
def test_schmidt_path_matches_density_matrix_eigh(seed, cutoff):
    state = random_state(np.random.default_rng(seed), cutoff=cutoff)
    _assert_same_report(log_negativity(state), log_negativity_eigh(state_to_density(state)))


@pytest.mark.parametrize("r", [0.3, 1.2])
@pytest.mark.parametrize("after_splitter", [False, True], ids=["tmss", "splitter"])
def test_schmidt_path_matches_eigh_at_n14(r, after_splitter):
    state = make_tmss(SqueezeParams(r=r, n_max=14))
    if after_splitter:
        state = apply_beam_splitter(state)
    _assert_same_report(log_negativity(state), log_negativity_eigh(state_to_density(state)))


def test_nan_density_matrix_is_rejected():
    tensor = state_to_density(_bell()).tensor.copy()
    tensor[1, 1, 1, 1] = math.nan
    with pytest.raises(InvalidStateError):
        DensityMatrix(tensor)
    # eigh returns NaN eigenvalues without raising; the residual check must not pass them
    with pytest.raises(EigensolverError):
        _eigvals_checked(np.diag([math.nan, 1.0]))
