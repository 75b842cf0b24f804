import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockvortex import (
    CoefficientMismatchError,
    SqueezeParams,
    TwoModeState,
    apply_beam_splitter,
    make_tmss,
)
from fockvortex.oracles import (
    _closed_form_dense,
    closed_form_vortex_state,
    random_state,
    total_photon_distribution,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _closed_form_deviation(params, fault=False):
    """Max per-amplitude distance between the unverified closed form and the oracle."""
    closed = _closed_form_dense(params, fault)
    return float(np.max(np.abs(closed - apply_beam_splitter(make_tmss(params)).amplitudes)))


def _marginal(state, mode):
    """Per-mode photon-number distribution, indexed by photon number."""
    return (np.abs(state.amplitudes) ** 2).sum(axis=1 if mode == "a" else 0)


def _variance(dist):
    n = np.arange(dist.size)
    mean = np.sum(n * dist)
    return float(np.sum((n - mean) ** 2 * dist))


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
    dev = _closed_form_deviation(SqueezeParams(r=r, n_max=n_max))
    assert dev < 1e-10


def test_closed_form_state_verified():
    params = SqueezeParams(r=0.7, n_max=4)
    direct = apply_beam_splitter(make_tmss(params))
    closed = closed_form_vortex_state(params)
    for na, nb in np.argwhere(direct.amplitudes):
        assert abs(closed.amplitude(na, nb) - direct.amplitudes[na, nb]) < 1e-12


def test_injected_fault_is_caught():
    params = SqueezeParams(r=0.5, n_max=2)
    with pytest.raises(CoefficientMismatchError) as info:
        closed_form_vortex_state(params, fault=True)
    assert info.value.max_deviation > 1e-3
    # the error reports the unverified state's worst gap, located on the
    # output's even-even support of the (2N+1)^2 grid
    assert _closed_form_deviation(params, fault=True) == info.value.max_deviation
    na, nb = info.value.pair
    assert 0 <= na <= 4 and 0 <= nb <= 4 and na % 2 == nb % 2 == 0
    closed_form_vortex_state(params)  # the fault is an argument, so nothing is left set


def test_photon_number_marginal_before_splitter():
    state = make_tmss(SqueezeParams(r=0.5, n_max=4))
    marg = _marginal(state, "a")
    for j in range(5):
        assert marg[j] == pytest.approx(abs(state.amplitude(j, j)) ** 2, abs=1e-15)
    assert math.fsum(marg) == pytest.approx(1.0, abs=1e-14)


def test_output_marginals_mode_symmetric():
    out = apply_beam_splitter(make_tmss(SqueezeParams(r=0.9, n_max=3)))
    ma, mb = _marginal(out, "a"), _marginal(out, "b")
    assert np.array_equal(ma > 0, mb > 0)
    assert np.max(np.abs(ma - mb)) < 1e-13
    assert math.fsum(ma) == pytest.approx(1.0, abs=1e-13)
    assert _variance(ma) == pytest.approx(_variance(mb), abs=1e-12)

