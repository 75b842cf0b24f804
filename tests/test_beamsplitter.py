import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockvortex import (
    CoefficientMismatchError,
    InvalidParameterError,
    SqueezeParams,
    TwoModeState,
    apply_beam_splitter,
    closed_form_deviation,
    closed_form_vortex_state,
    inject_fault,
    make_tmss,
    marginal_variance,
    photon_number_marginal,
    random_state,
    total_photon_distribution,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_single_photon_split():
    out = apply_beam_splitter(TwoModeState.from_pairs({(1, 0): 1.0}, cutoff=1))
    assert out.amplitude(1, 0) == pytest.approx(INV_SQRT2, abs=1e-15)
    assert out.amplitude(0, 1) == pytest.approx(1j * INV_SQRT2, abs=1e-15)


def test_pair_interference():
    # both photons exit the same port; the balanced port cancels exactly
    out = apply_beam_splitter(TwoModeState.from_pairs({(1, 1): 1.0}, cutoff=2))
    assert out.amplitude(2, 0) == pytest.approx(1j * INV_SQRT2, abs=1e-15)
    assert out.amplitude(0, 2) == pytest.approx(1j * INV_SQRT2, abs=1e-15)
    assert abs(out.amplitude(1, 1)) < 1e-15


def test_double_pass_is_phased_swap():
    rng = np.random.default_rng(5)
    state = random_state(rng, cutoff=6)
    twice = apply_beam_splitter(apply_beam_splitter(state))
    for na, nb in np.argwhere(state.amplitudes):
        expect = (1j) ** (na + nb) * state.amplitudes[na, nb]
        assert abs(twice.amplitude(nb, na) - expect) < 1e-12


@pytest.mark.parametrize("cutoff", range(13))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_unitarity_random_states(cutoff, seed):
    # every cutoff is run; hypothesis draws the states
    state = random_state(np.random.default_rng(seed), cutoff=cutoff)
    out = apply_beam_splitter(state)
    assert abs(out.norm() - 1.0) < 1e-13
    before = total_photon_distribution(state)
    after = total_photon_distribution(out)
    for k in set(before) | set(after):
        assert abs(before.get(k, 0.0) - after.get(k, 0.0)) < 1e-13


def test_output_support_even_totals_only():
    out = apply_beam_splitter(make_tmss(SqueezeParams(r=0.8, n_max=3)))
    assert out.cutoff == 6
    assert all((na + nb) % 2 == 0 for na, nb in np.argwhere(out.amplitudes))


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5, 6])
def test_closed_form_matches_oracle(r, n_max):
    dev = closed_form_deviation(SqueezeParams(r=r, n_max=n_max))
    assert dev < 1e-10


def test_closed_form_state_verified():
    params = SqueezeParams(r=0.7, n_max=4)
    direct = apply_beam_splitter(make_tmss(params))
    closed = closed_form_vortex_state(params, verify=True)
    for na, nb in np.argwhere(direct.amplitudes):
        assert abs(closed.amplitude(na, nb) - direct.amplitudes[na, nb]) < 1e-12


def test_injected_fault_is_caught():
    inject_fault(True)
    try:
        with pytest.raises(CoefficientMismatchError) as info:
            closed_form_vortex_state(SqueezeParams(r=0.5, n_max=2), verify=True)
        assert info.value.max_deviation > 1e-3
        # the diagnostic reports the same worst gap, located on the output's
        # even-even support of the (2N+1)^2 grid
        assert closed_form_deviation(SqueezeParams(r=0.5, n_max=2)) == info.value.max_deviation
        na, nb = info.value.pair
        assert 0 <= na <= 4 and 0 <= nb <= 4 and na % 2 == nb % 2 == 0
    finally:
        inject_fault(False)
    closed_form_vortex_state(SqueezeParams(r=0.5, n_max=2), verify=True)


def test_photon_number_marginal_before_splitter():
    state = make_tmss(SqueezeParams(r=0.5, n_max=4))
    marg = photon_number_marginal(state, "a")
    for j in range(5):
        assert marg[j] == pytest.approx(abs(state.amplitude(j, j)) ** 2, abs=1e-15)
    assert math.fsum(marg.values()) == pytest.approx(1.0, abs=1e-14)


def test_output_marginals_mode_symmetric():
    out = apply_beam_splitter(make_tmss(SqueezeParams(r=0.9, n_max=3)))
    ma, mb = photon_number_marginal(out, "a"), photon_number_marginal(out, "b")
    assert set(ma) == set(mb)
    assert all(abs(ma[k] - mb[k]) < 1e-13 for k in ma)
    assert math.fsum(ma.values()) == pytest.approx(1.0, abs=1e-13)
    assert marginal_variance(out, "a") == pytest.approx(marginal_variance(out, "b"), abs=1e-12)


def test_marginal_mode_validation():
    state = make_tmss(SqueezeParams(r=0.2, n_max=1))
    with pytest.raises(InvalidParameterError):
        photon_number_marginal(state, "c")
