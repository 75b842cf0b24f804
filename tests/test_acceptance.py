"""Acceptance gate: one printed pass/fail line per numbered criterion.

Each test evaluates one acceptance criterion, prints a single line

    [PASS] criterion k: <measurements>
    [FAIL] criterion k: <measurements>

and then asserts.  Criteria 1, 5 and 6c assert what a balanced splitter
provably does to pair-correlated input, which is not what the abstract's
vortex and entanglement-increase claims suggest: the output is an exact
L_z = 0 state without vortices, the negativity volume is the splitter-
invariant one of the truncated Gaussian input, and the mode-mode
log-negativity drops towards the product-state value 0.  Each of them is
checked against an oracle that does not share code with the path under
test.  Run with ``pytest -rA`` (the repository default) so the verdict
lines of passing tests are shown too.
"""
import json
import math
import time

import numpy as np
import pytest

from fockvortex.beamsplitter import apply_beam_splitter
from fockvortex.cli import main
from fockvortex.entanglement import log_negativity
from fockvortex.quadrature import QuadratureGrid, count_vortices, evaluate_field
from fockvortex.oracles import (
    _closed_form_dense,
    position_marginal,
    random_state,
    total_photon_distribution,
)
from fockvortex.states import SqueezeParams, TwoModeState, make_tmss
from fockvortex.wigner import negativity_volume, wigner_slice

NV_TOL = 1e-3  # the negativity-volume refinement tolerance the criteria refer to


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. vortex count on the default grid
# ---------------------------------------------------------------------------

def _lz_norm(state: TwoModeState) -> float:
    """||L_z psi|| from the Fock amplitudes, with L_z = i(a b+ - a+ b)."""
    amps = np.pad(state.amplitudes, ((0, 1), (0, 1)))  # room for one more photon
    lower = np.diag(np.sqrt(np.arange(1.0, amps.shape[0])), 1)  # annihilator
    # X_a Y_b acts on the amplitude matrix A[n_a, n_b] as X A Y^T
    return float(np.linalg.norm(lower @ amps @ lower - lower.T @ amps @ lower.T))


def _vortex_ring_input(zeros: np.ndarray) -> TwoModeState:
    """Input whose splitter image has the field prod_k (z - z_k) e^{-rho^2/2}.

    The splitter maps |m, 0> onto z^m e^{-rho^2/2} / sqrt(pi m!) with
    z = x + iy, so sum_m e_m sqrt(pi m!) |m, 0> carries the polynomial
    with coefficients e_m (up to normalization).
    """
    coeffs = np.poly(zeros)[::-1]  # e_m multiplies z^m
    amps = np.array(
        [coeffs[m] * math.sqrt(math.pi * math.factorial(m)) for m in range(len(zeros) + 1)]
    )
    amps /= np.linalg.norm(amps)
    return TwoModeState.from_pairs({(m, 0): v for m, v in enumerate(amps)}, cutoff=len(zeros))


def test_criterion_1_vortex_count():
    """Pair input: no vortices, as L_z = 0; the detector on a known vortex ring.

    A balanced splitter maps a+b+ onto (i/2)(a+^2 + b+^2), so every output
    component has even n_a and even n_b: psi is even under both mirrors
    x -> -x and y -> -y, which flip each vortex's charge, and with this
    splitter's phase it is an exact L_z = 0 eigenstate without any winding.
    """
    grid = QuadratureGrid.from_spec("-6.0:6.0:301")  # tool default
    spacing = (grid.x_max - grid.x_min) / (grid.n_x - 1)
    t0 = time.perf_counter()
    lz, counts, control = {}, {}, {}
    for pairs in (3, 4, 5, 6, 7, 8):
        state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.02, n_max=pairs)))
        lz[pairs] = _lz_norm(state)
        counts[pairs] = count_vortices(evaluate_field(state, grid)).count

        # positive control: one +1 vortex at each of `pairs` known zeros,
        # on a circle of radius 1.5 and off the grid lines
        zeros = 1.5 * np.exp(1j * (2.0 * math.pi * np.arange(pairs) / pairs + 0.23))
        lines = (np.concatenate([zeros.real, zeros.imag]) - grid.x_min) / spacing
        assert np.min(np.abs(lines - np.rint(lines))) > 0.05, "control zero on a grid line"
        found = count_vortices(
            evaluate_field(apply_beam_splitter(_vortex_ring_input(zeros)), grid)
        ).vortices
        dist = np.abs(np.array([complex(v["x"], v["y"]) for v in found])[:, None] - zeros)
        control[pairs] = (
            len(found),
            sorted({v["charge"] for v in found}),
            round(float(dist.min(axis=1).max()), 4) if found else math.inf,
            len(set(dist.argmin(axis=1))) if found else 0,
        )
    elapsed = time.perf_counter() - t0
    lz_ok = max(lz.values()) <= 1e-12
    count_ok = all(c == 0 for c in counts.values())
    control_ok = all(
        n == p and charges == [1] and worst <= spacing and matched == p
        for p, (n, charges, worst, matched) in control.items()
    )
    time_ok = elapsed < 10.0
    _verdict(
        "1",
        lz_ok and count_ok and control_ok and time_ok,
        f"pair input (r=0.02, pairs 3..8) after the splitter: max ||L_z psi|| "
        f"{max(lz.values()):.1e} from the Fock amplitudes (bound 1e-12: {lz_ok}), "
        f"vortex counts {counts} (all 0: {count_ok}); positive control "
        f"prod_k (z - z_k) e^(-rho^2/2), (found, charges, max distance to a z_k, "
        f"z_k matched) {control} (N of N, all +1, within {spacing:.2f}: "
        f"{control_ok}); {elapsed:.1f}s (<10s: {time_ok}). The splitter maps a+b+ "
        f"onto (i/2)(a+^2 + b+^2): even n_a and n_b make psi mirror-even, so no "
        f"uniform-sign vortex set exists, and L_z = 0 leaves no winding at all.",
    )


# ---------------------------------------------------------------------------
# 2. closed form vs splitter oracle
# ---------------------------------------------------------------------------

def test_criterion_2_closed_form_oracle():
    worst = 0.0
    worst_at = None
    for r in (0.1, 0.5, 1.0):
        for n in range(1, 7):
            params = SqueezeParams(r=r, n_max=n)
            reference = apply_beam_splitter(make_tmss(params))
            dev = float(np.max(np.abs(reference.amplitudes - _closed_form_dense(params))))
            if dev > worst:
                worst, worst_at = dev, (r, n)
    ok = worst <= 1e-10
    _verdict(
        "2",
        ok,
        f"max per-amplitude deviation {worst:.3e} at (r, N)={worst_at} "
        f"over r in {{0.1, 0.5, 1.0}} x N in 1..6 (bound 1e-10)",
    )


# ---------------------------------------------------------------------------
# 3. unitarity and photon-number conservation on random states
# ---------------------------------------------------------------------------

def test_criterion_3_unitarity_conservation():
    rng = np.random.default_rng(20260819)
    worst_norm = 0.0
    worst_dist = 0.0
    for k in range(200):
        state = random_state(rng, cutoff=int(rng.integers(1, 11)))
        out = apply_beam_splitter(state)
        worst_norm = max(worst_norm, abs(out.norm() - 1.0))
        din = total_photon_distribution(state)
        dout = total_photon_distribution(out)
        keys = set(din) | set(dout)
        worst_dist = max(
            worst_dist, max(abs(din.get(t, 0.0) - dout.get(t, 0.0)) for t in keys)
        )
    ok = worst_norm < 1e-12 and worst_dist < 1e-12
    _verdict(
        "3",
        ok,
        f"200 random states (cutoff <= 10): max norm deviation {worst_norm:.3e}, "
        f"max total-photon-distribution deviation {worst_dist:.3e} (bounds 1e-12)",
    )


# ---------------------------------------------------------------------------
# 4. Wigner normalization and position marginals
# ---------------------------------------------------------------------------

def test_criterion_4_wigner_normalization_and_marginals():
    grid = QuadratureGrid.from_spec("-1.5:1.5:5")
    axis = grid.x_axis()
    worst_norm = 0.0
    worst_marg = 0.0
    slowest = 0.0
    for n in (1, 2, 3, 4):
        state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.5, n_max=n)))
        t0 = time.perf_counter()
        result = negativity_volume(state, tol=NV_TOL)
        worst_norm = max(worst_norm, abs(result.normalization_check - 1.0))
        field = evaluate_field(state, grid)
        for i, x in enumerate(axis):
            for j, y in enumerate(axis):
                marg = position_marginal(state, float(x), float(y))
                worst_marg = max(worst_marg, abs(marg - abs(field.values[j, i]) ** 2))
        slowest = max(slowest, time.perf_counter() - t0)
    ok = worst_norm <= 1e-2 * NV_TOL and worst_marg <= 1e-6 and slowest < 120.0
    _verdict(
        "4",
        ok,
        f"vortex states N=1..4 at r=0.5: |integral of W - 1| <= {worst_norm:.3e} "
        f"(bound 1e-5), marginal vs |psi(x,y)|^2 max deviation {worst_marg:.3e} "
        f"at 25 points (bound 1e-6), slowest state {slowest:.1f}s (<120s)",
    )


# ---------------------------------------------------------------------------
# 5. negativity-volume trends
# ---------------------------------------------------------------------------

def test_criterion_5_negativity_volume_trends():
    """NV trends in r, and the approach to the Gaussian limit NV = 0 in N.

    NV is invariant under the splitter, so NV(r, N) is the NV of the
    truncated input, whose N -> infinity limit is the Gaussian two-mode
    squeezed vacuum with NV = 0.  Deeper truncation therefore lowers NV
    where the expansion parameter tanh(r)^2 is small; elsewhere the
    method promises no order in N.
    """
    rs = (0.1, 0.3, 0.5, 0.8, 1.1, 1.5)
    # classified from r alone, before any NV is computed
    expanding = [r for r in rs if math.tanh(r) ** 2 <= 0.5]
    converged_tail = [r for r in rs if math.tanh(r) ** 22 <= 1e-6]  # N = 10 tail
    points = [(r, n) for n in (2, 4) for r in rs] + [(r, 10) for r in converged_tail]
    nv, worst_norm = {}, 0.0
    for r, n in points:
        state = apply_beam_splitter(make_tmss(SqueezeParams(r=r, n_max=n)))
        result = negativity_volume(state, tol=NV_TOL)
        nv[(r, n)] = result.volume
        worst_norm = max(worst_norm, abs(result.normalization_check - 1.0))

    slack = 2 * NV_TOL
    monotone_ok = all(
        nv[(rs[i + 1], n)] >= nv[(rs[i], n)] - slack
        for n in (2, 4)
        for i in range(len(rs) - 1)
    )
    order_ok = all(
        nv[(r, 4)] <= nv[(r, 2)]
        and (nv[(r, 2)] <= 4 * NV_TOL or nv[(r, 2)] - nv[(r, 4)] > 2 * NV_TOL)
        for r in expanding
    )
    limit_ok = all(nv[(r, 10)] <= NV_TOL for r in converged_tail)
    exact_ok = worst_norm <= 1e-12
    small_ok = nv[(0.1, 2)] < 0.05
    growth_ok = nv[(1.5, 2)] > nv[(0.1, 2)] + 0.05
    table = {f"r={r}": (round(nv[(r, 2)], 6), round(nv[(r, 4)], 6)) for r in rs}
    limit = {f"r={r}": float(f"{nv[(r, 10)]:.3g}") for r in converged_tail}
    unordered = [r for r in rs if r not in expanding]
    _verdict(
        "5",
        monotone_ok and order_ok and limit_ok and exact_ok and small_ok and growth_ok,
        f"NV(N=2, N=4) by r: {table}; non-decreasing in r: {monotone_ok}; "
        f"NV(N=4) <= NV(N=2), by more than {2 * NV_TOL} where NV(N=2) > "
        f"{4 * NV_TOL}, at tanh(r)^2 <= 1/2 (r in {expanding}): {order_ok}; "
        f"NV(N=10) {limit} <= {NV_TOL} where tanh(r)^22 <= 1e-6: {limit_ok}; "
        f"max |integral of W - 1| {worst_norm:.1e} (<= 1e-12: {exact_ok}); "
        f"no order in N asserted at r in {unordered}; "
        f"NV(0.1, N=2) < 0.05: {small_ok}; NV(1.5) exceeds NV(0.1) + 0.05: {growth_ok}. "
        f"NV is splitter-invariant, so it tends to the Gaussian input's NV = 0 "
        f"as N grows.",
    )


# ---------------------------------------------------------------------------
# 6. log-negativity checks
# ---------------------------------------------------------------------------

def test_criterion_6a_bell_state_value():
    bell = TwoModeState.from_pairs(
        {(0, 0): 1.0 / math.sqrt(2.0), (1, 1): 1.0 / math.sqrt(2.0)}, cutoff=2
    )
    value = log_negativity(bell).log_negativity
    ok = abs(value - 1.0) <= 1e-9
    _verdict("6a", ok, f"Bell-pair log-negativity {value!r} (target 1 +/- 1e-9)")


def test_criterion_6b_truncated_vs_untruncated():
    value = log_negativity(make_tmss(SqueezeParams(r=0.3, n_max=12))).log_negativity
    target = 2.0 * 0.3 / math.log(2.0)
    ok = abs(value - target) <= 1e-3
    _verdict(
        "6b",
        ok,
        f"truncated pair-correlated state (r=0.3, N=12) log-negativity {value:.9f} "
        f"vs untruncated closed form {target:.9f}: |diff| = {abs(value - target):.3e} "
        f"(bound 1e-3)",
    )


def _schmidt_log_negativity(state: TwoModeState) -> float:
    """LN of a pure state, 2 log2 sum_i s_i over its Schmidt coefficients."""
    return 2.0 * math.log2(np.linalg.svd(state.amplitudes, compute_uv=False).sum())


def test_criterion_6c_splitter_never_decreases_entanglement():
    """The splitter lowers LN for pair input, checked against Schmidt values.

    A balanced splitter maps a+b+ onto (i/2)(a+^2 + b+^2), so the untruncated
    input exp(r(a+b+ - ab))|0,0> (LN = 2r / ln 2) leaves it as a product of
    two single-mode squeezed vacua (LN = 0).  The test keeps the name of the
    criterion as first stated; it asserts the strict decrease.
    """
    rs = tuple(round(0.1 * k, 1) for k in range(1, 16))
    values, worst_dev = {}, 0.0
    for n in (2, 4, 6):
        for r in rs:
            params = SqueezeParams(r=r, n_max=n)
            before = make_tmss(params)
            l_before = log_negativity(before).log_negativity
            l_after = log_negativity(apply_beam_splitter(before)).log_negativity
            values[(r, n)] = (l_before, l_after)
            # oracle: Schmidt coefficients, the output from the closed form,
            # which does not go through apply_beam_splitter
            closed = TwoModeState(_closed_form_dense(params))
            worst_dev = max(
                worst_dev,
                abs(l_before - _schmidt_log_negativity(before)),
                abs(l_after - _schmidt_log_negativity(closed)),
            )
    violations = [k for k, (lb, la) in values.items() if not la < lb]
    decrease_ok = not violations
    oracle_ok = worst_dev <= 1e-9
    least = min(values.items(), key=lambda kv: kv[1][0] - kv[1][1])
    sample = {k: (round(v[0], 4), round(v[1], 4)) for k, v in list(values.items())[:3]}
    _verdict(
        "6c",
        decrease_ok and oracle_ok,
        f"l_after < l_before on 15 r-values x N in {{2, 4, 6}}: "
        f"{45 - len(violations)}/45 points (first violations {violations[:5]}); smallest "
        f"drop at (r, N)={least[0]}: {least[1][0]:.4f} -> {least[1][1]:.4f}; "
        f"first rows {sample}; max |LN - 2 log2 sum s_i| {worst_dev:.1e} over both "
        f"states (bound 1e-9: {oracle_ok}). The splitter maps a+b+ onto "
        f"(i/2)(a+^2 + b+^2), so the untruncated output is a product state with LN = 0.",
    )


def test_criterion_6d_ratio_tables_under_30s(tmp_path):
    t0 = time.perf_counter()
    code = main(["figure", "5", "--out", str(tmp_path / "fig5")])
    elapsed = time.perf_counter() - t0
    table = tmp_path / "fig5" / "logneg_table.csv"
    rows = table.read_text().strip().split("\n")[1:]
    ok = code == 0 and elapsed < 30.0 and len(rows) == 45
    _verdict(
        "6d",
        ok,
        f"entanglement-ratio tables (45 parameter points) produced in {elapsed:.1f}s "
        f"(<30s), exit code {code}, {len(rows)} rows",
    )


# ---------------------------------------------------------------------------
# 7. Wigner negativity as a non-Gaussianity witness
# ---------------------------------------------------------------------------

def test_criterion_7_negativity_witness():
    pre = make_tmss(SqueezeParams(r=0.05, n_max=6))
    nv_pre = negativity_volume(pre, tol=NV_TOL).volume
    post = apply_beam_splitter(make_tmss(SqueezeParams(r=0.9, n_max=6)))
    nv_post = negativity_volume(post, tol=NV_TOL).volume

    grid = QuadratureGrid.from_spec("-3.5:3.5:101")
    plane = {"y": 0.0, "px": 0.0}
    min_small = float(
        wigner_slice(
            apply_beam_splitter(make_tmss(SqueezeParams(r=0.05, n_max=6))), plane, grid
        ).values.min()
    )
    min_large = float(wigner_slice(post, plane, grid).values.min())

    pre_ok = nv_pre < 2 * NV_TOL
    post_ok = nv_post > 0.05
    slice_ok = (min_large < -1e-9) and (min_small > -1e-9)
    _verdict(
        "7",
        pre_ok and post_ok and slice_ok,
        f"pre-splitter NV(r=0.05, N=6) = {nv_pre:.3e} (< {2 * NV_TOL}: {pre_ok}); "
        f"post-splitter NV(r=0.9, N=6) = {nv_post:.4f} (> 0.05: {post_ok}); "
        f"(y=0, px=0) slice minima: r=0.9 gives {min_large:.3e} (negative), "
        f"r=0.05 gives {min_small:.3e} (non-negative)",
    )


# ---------------------------------------------------------------------------
# 8. selftest gate
# ---------------------------------------------------------------------------

def test_criterion_8_selftest_gate(tmp_path, capsys):
    report = tmp_path / "selftest.json"
    t0 = time.perf_counter()
    code = main(["selftest", "--out", str(report)])
    elapsed = time.perf_counter() - t0
    doc = json.loads(report.read_text())

    fault_code = main(["selftest", "--inject-fault"])
    out = capsys.readouterr().out
    named_failure = "FAIL closed-form-oracle" in out

    clean_ok = code == 0 and not doc["failures"] and elapsed < 60.0
    fault_ok = fault_code != 0 and named_failure
    _verdict(
        "8",
        clean_ok and fault_ok,
        f"selftest: {len(doc['checks'])} checks, {len(doc['failures'])} failures "
        f"in {elapsed:.1f}s (<60s), exit {code}; with injected fault: exit "
        f"{fault_code} naming check 'closed-form-oracle': {named_failure}",
    )
