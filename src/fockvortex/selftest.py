"""The ``fockvortex selftest`` suite: named checks of each fast path against
its oracle or a pinned value.

``checks`` lists them in run order and ``run`` runs them, printing one
verdict line each.  Every oracle comes from ``fockvortex.oracles``, and
``fockvortex.cli`` imports this module only when the ``selftest`` command
runs, so no other command loads them.
"""
from __future__ import annotations

import math
import os
import tempfile
import time
from typing import Callable, List, Tuple

import numpy as np

from . import quadrature, wigner
from .beamsplitter import apply_beam_splitter
from .cli import FIG4_N_VALUES, FIG4_R_VALUES, SLICE_GRID, SLICE_PLANES
from .config import TOL
from .entanglement import log_negativity, partial_transpose
from .floatrepr import REPR_WIDTH, repr_table
from .oracles import (_box_rule, closed_form_vortex_state, hard_cases, hermite_function,
                      log_negativity_eigh, position_marginal, random_state, tensor_negativity_volume,
                      total_photon_distribution, wigner_fock_diagonal, wigner_state)
from .quadrature import QuadratureField, QuadratureGrid, count_vortices, evaluate_field
from .states import SqueezeParams, TwoModeState, make_tmss, state_to_density
from .wigner import build_wigner_grid, negativity_volume, plane_points, wigner_slice


def _tmss(r: float, n: int) -> TwoModeState:
    return make_tmss(SqueezeParams(r=r, n_max=n))


def checks(fault: bool) -> List[Tuple[str, Callable[[], None]]]:
    """(name, check) in run order; ``closed-form-oracle`` runs the closed form with ``fault``."""
    def tmss_normalization():
        for r in (0.0, 0.3, 1.0, 2.0):
            for n in range(7):
                state = _tmss(r, n)
                assert abs(state.norm() - 1.0) <= 1e-12, f"norm off at r={r}, n={n}"

    def tmss_amplitude_decay():
        state = _tmss(0.8, 6)
        amps = [abs(state.amplitude(j, j)) for j in range(7)]
        assert all(a > b for a, b in zip(amps, amps[1:])), "amplitudes must decay"

    def splitter_unitarity():
        rng = np.random.default_rng(0)
        for _ in range(40):
            state = random_state(rng, cutoff=8)
            out = apply_beam_splitter(state)
            assert abs(out.norm() - 1.0) < 1e-12, "norm not preserved"
            da = total_photon_distribution(state)
            db = total_photon_distribution(out)
            worst = max(abs(da.get(k, 0.0) - db.get(k, 0.0)) for k in set(da) | set(db))
            assert worst < 1e-12, f"photon distribution changed by {worst:.3e}"

    def splitter_pair_interference():
        out = apply_beam_splitter(TwoModeState.from_pairs({(1, 1): 1.0}, cutoff=2))
        expect = 1j / math.sqrt(2.0)
        assert abs(out.amplitude(2, 0) - expect) < 1e-12
        assert abs(out.amplitude(0, 2) - expect) < 1e-12
        assert abs(out.amplitude(1, 1)) < 1e-12

    def closed_form_oracle():
        for r in (0.1, 0.5, 1.0):
            for n in range(1, 5):
                closed_form_vortex_state(SqueezeParams(r=r, n_max=n), fault)

    def field_norm():
        state = apply_beam_splitter(_tmss(0.5, 3))
        fld = evaluate_field(state, QuadratureGrid.square(6.0, 201))
        assert abs(fld.norm_riemann() - 1.0) < 1e-3, f"riemann norm {fld.norm_riemann()}"

    def vortex_synthetic():
        # even point count: the phase singularity at the origin must sit
        # inside a plaquette, not on a node where the phase is undefined
        grid = QuadratureGrid.square(4.0, 162)
        gx, gy = np.meshgrid(grid.x_axis(), grid.y_axis(), indexing="ij")
        values = (gx - 1j * gy) * np.exp(-0.5 * (gx**2 + gy**2))
        report = count_vortices(QuadratureField(grid, values))
        assert report.count == 1 and report.total_charge == -1, (
            f"expected one charge -1 vortex, got {report.to_json_dict()}"
        )

    def vortex_label_8conn():
        # hand-labelled clusters: (0, 0) and (1, 1) touch only at a corner and
        # are one vortex; the -1 cell at (2, 2) touches both +1 clusters
        # diagonally and merges with neither
        winding = np.array([
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, -1, -1],
            [0, 0, -1, 0, 0, -1],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0, 0],
        ])
        expect = {
            1: [[(0, 0), (1, 1)], [(3, 3), (4, 3)]],
            -1: [[(1, 4), (1, 5), (2, 5)], [(2, 2)]],
        }
        for charge, clusters in expect.items():
            labels, count = quadrature._label8(winding == charge)
            got = sorted(list(zip(*(idx.tolist() for idx in np.nonzero(labels == lab))))
                         for lab in range(1, count + 1))
            assert got == sorted(clusters), f"charge {charge}: clusters {got}"

    def wigner_normalization():
        state = apply_beam_splitter(_tmss(0.5, 2))
        result = negativity_volume(state)
        assert abs(result.normalization_check - 1.0) < 1e-6, (
            f"integral of W = {result.normalization_check}"
        )

    def wigner_marginal():
        state = apply_beam_splitter(_tmss(0.4, 2))
        grid = QuadratureGrid.square(2.0, 3)
        fld = evaluate_field(state, grid)
        for i, x in enumerate(grid.x_axis()):
            for j, y in enumerate(grid.y_axis()):
                density = abs(fld.values[i, j]) ** 2
                marg = position_marginal(state, x, y)
                assert abs(marg - density) < 1e-6, f"marginal off at ({x}, {y})"

    def slice_vs_pointwise():
        # the pointwise wigner_state is the oracle for the slice evaluator, on
        # both CLI planes and on a plane that frees both coordinates of one mode
        state = apply_beam_splitter(_tmss(0.7, 3))
        grid = QuadratureGrid.from_spec(SLICE_GRID)
        for plane in (*SLICE_PLANES, {"y": 0.3, "py": 0.0}, {"x": 0.3, "px": 0.0}):
            gap = np.max(np.abs(wigner_slice(state, plane, grid).values
                                - wigner_state(state, plane_points(plane, grid)[1])))
            assert gap < 1e-14, f"{plane}: off by {gap:.3e}"

    def csv_dedup_vs_direct():
        # a per-element repr is the oracle for the writer, which formats each
        # distinct bit pattern once; mirrored 0.0 and -0.0 in re, im and arg,
        # and repeated values, are where a float-valued dedup goes wrong
        grid = QuadratureGrid(-1.0, 1.0, -0.5, 0.5, 4, 3)
        values = np.empty((4, 3), dtype=complex)
        values.real = np.array([0.0, 0.5, 0.5, -0.0])[:, None]
        values.imag = np.array([-0.0, 0.0, -0.0])
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "field.csv")
            QuadratureField(grid, values).to_csv(path)
            with open(path, "rb") as fh:
                got = fh.read()
        lines = ["x,y,re,im,abs,arg"]
        for j, y in enumerate(grid.y_axis().tolist()):
            for i, x in enumerate(grid.x_axis().tolist()):
                v = complex(values[i, j])
                lines.append(",".join(map(repr, (x, y, v.real, v.imag, abs(v),
                                                 float(np.angle(v))))))
        assert got == ("\n".join(lines) + "\n").encode(), "bytes differ from per-element reprs"

    def repr_fast_vs_python():
        # Python's repr is the oracle for the Ryū formatter the CSV writer
        # uses, on the doubles where shortest-repr formatters go wrong first
        cases = hard_cases()
        got = repr_table(cases).view(f"S{REPR_WIDTH}").ravel()
        want = np.array(list(map(repr, cases.tolist())), dtype=f"S{REPR_WIDTH}")
        bad = np.flatnonzero(got != want)
        assert not bad.size, (f"{bad.size} of {len(cases)} differ, first "
                              f"{float(cases[bad[0]])!r} as {got[bad[0]].decode()!r}")

    def wigner_diagonal_value():
        got = wigner_fock_diagonal(3, 0.7)
        assert abs(got - (-0.11010127013979758)) < 1e-12, f"got {got}"

    def hermite_spot_values():
        assert abs(hermite_function(50, 3.7) - (-0.05168667850813707)) < 1e-10
        assert abs(hermite_function(7, -1.3) - (-0.40609866425190538)) < 1e-10

    def transpose_involution():
        rng = np.random.default_rng(7)
        rho = state_to_density(random_state(rng, cutoff=3))
        twice = partial_transpose(partial_transpose(rho))
        assert float(np.max(np.abs(twice.tensor - rho.tensor))) < 1e-14

    def bell_spectrum():
        # pins the eigensolver path, the oracle of logneg-schmidt-vs-eigh
        amp = 1 / math.sqrt(2)
        bell = TwoModeState.from_pairs({(0, 0): amp, (1, 1): amp}, cutoff=2)
        report = log_negativity_eigh(state_to_density(bell))
        assert abs(report.log_negativity - 1.0) < 1e-9, f"got {report.log_negativity}"
        assert abs(min(report.negative_eigenvalues) + 0.5) < 1e-12

    def logneg_schmidt_vs_eigh():
        rng = np.random.default_rng(5)
        for state in (apply_beam_splitter(_tmss(0.7, 3)), random_state(rng, cutoff=4)):
            fast, slow = log_negativity(state), log_negativity_eigh(state_to_density(state))
            assert len(fast.negative_eigenvalues) == len(slow.negative_eigenvalues), "spectrum size"
            gaps = np.subtract([fast.log_negativity, *fast.negative_eigenvalues],
                               [slow.log_negativity, *slow.negative_eigenvalues])
            assert np.max(np.abs(gaps)) < 1e-12, f"off by {np.max(np.abs(gaps))}"

    def quadrature_rule_sound():
        for name, (_, weights) in (("tensor-gauss-hermite", build_wigner_grid(48)),
                                   ("uniform-box", _box_rule(48, cutoff=8))):
            gap = abs(float(weights.sum()) - math.sqrt(math.pi / 2.0))  # integral of e^{-2 q^2}
            assert gap < 1e-8, f"{name}: {gap}"
            assert np.all(weights > 0), f"{name}: weights not positive"

    def nv_reduced_vs_tensor():
        # the 4-D tensor engine, on the density matrix, is the oracle for the
        # symmetry-reduced pass the pure state takes; at one matched order
        # both carry kink errors of |W| up to a few 1e-4.  The input, which
        # the pipelines integrate, sits on one diagonal itself;
        # nv-splitter-invariance covers an image a library caller may pass
        state = _tmss(0.8, 1)
        fast = negativity_volume(state, 48, max_refinements=0)
        slow = tensor_negativity_volume(state_to_density(state), 48, max_refinements=0)
        assert (fast.engine, slow.engine) == ("reduced-3d", "tensor-4d"), "engine changed"
        gap = abs(fast.volume - slow.volume)
        assert gap < TOL.nv, f"reduced {fast.volume} vs tensor {slow.volume}"

    def nv_tables_cached_vs_fresh():
        # tables built for each pass are the oracle for the cached ones; a
        # cache keyed on less than (dimension, order, fold) serves N = 2's
        # tables to N = 4, whose larger dimension then indexes past them, or
        # N = 4's folded tables to the asymmetric diagonal of the same
        # dimension, whose full radial rule has twice the nodes.  The five
        # keys fit the cache, so every warm pass must read cached tables
        asym = TwoModeState.from_pairs({(j + 1, j): 0.5 for j in range(4)}, cutoff=7)
        runs = [(apply_beam_splitter(_tmss(0.8, 4)), (24, 48)), (asym, (24,)),
                (apply_beam_splitter(_tmss(0.8, 2)), (24, 48))]

        def volumes(fresh: bool) -> List[float]:
            out = []
            for state, orders in runs:
                for order in orders:
                    if fresh:
                        wigner._radial_profiles.cache_clear()
                    out.append(negativity_volume(state, order, max_refinements=0).volume)
            return out

        fresh = volumes(fresh=True)
        volumes(fresh=False)  # fills the cache with all five tables
        hits = wigner._radial_profiles.cache_info().hits
        warm = volumes(fresh=False)
        served = wigner._radial_profiles.cache_info().hits - hits
        assert served == len(warm), f"{served} of {len(warm)} warm passes read cached tables"
        assert warm == fresh, f"cached {warm} vs fresh {fresh}"

    def nv_splitter_invariance():
        # the splitter is a passive Gaussian unitary, so NV is the same before
        # and after it; the image's diagonal is found after one more pass
        before = _tmss(0.8, 2)
        results = [negativity_volume(state) for state in (before, apply_beam_splitter(before))]
        assert [res.engine for res in results] == ["reduced-3d"] * 2, "dispatch changed"
        gap = abs(results[0].volume - results[1].volume)
        assert gap < TOL.nv, f"before {results[0].volume} vs after {results[1].volume}"

    def nv_fold_vs_full_circle():
        # a global phase leaves W unchanged but leaves the pair products
        # complex in their last bits, so the phased diagonal takes the full
        # [0, 2 pi) theta rule: the oracle for the fold the real one takes,
        # at even orders and at an odd one, which is rounded up to even
        c, na0, nb0 = wigner._pair_diagonal(_tmss(0.8, 2))
        phased = c * np.exp(1j * math.pi / 3)
        assert any((phased[s:] * phased[:len(c) - s].conj()).imag.any() for s in range(len(c))), (
            "the phased diagonal would fold too")
        for order in (24, 25, 48):
            fold = wigner._reduced_pass(c, na0, nb0, order)
            full = wigner._reduced_pass(phased, na0, nb0, order)
            gap = max(abs(a - b) for a, b in zip(fold, full))
            assert gap < 1e-14, f"order {order}: folded {fold} vs full circle {full}"

    def nv_radial_fold_vs_full():
        # on a mode-symmetric diagonal W(u_a, u_b) = W(u_b, u_a), and the
        # pass folds the radial rule onto t <= 1/2; the full rule, on tables
        # built for each pass, is its oracle on the figure-4 inputs, at even
        # orders and at an odd one, whose middle node t = 1/2 is not doubled
        for n in FIG4_N_VALUES:
            for r in FIG4_R_VALUES:
                c, na0, nb0 = wigner._pair_diagonal(_tmss(r, n))
                for order in (24, 25, 48):
                    wigner._radial_profiles.cache_clear()
                    fold = wigner._reduced_pass(c, na0, nb0, order)
                    wigner._radial_profiles.cache_clear()
                    full = wigner._reduced_pass(c, na0, nb0, order, radial_fold=False)
                    gap = max(abs(a - b) for a, b in zip(fold, full))
                    assert gap < 1e-14, f"r={r}, n={n}, order {order}: folded {fold} vs full {full}"

    # each check's name is its function's, with dashes
    return [(fn.__name__.replace("_", "-"), fn) for fn in (
        tmss_normalization, tmss_amplitude_decay, splitter_unitarity, splitter_pair_interference,
        closed_form_oracle, field_norm, vortex_synthetic, vortex_label_8conn,
        wigner_normalization, wigner_marginal, slice_vs_pointwise, csv_dedup_vs_direct,
        repr_fast_vs_python, wigner_diagonal_value, hermite_spot_values, transpose_involution,
        bell_spectrum, logneg_schmidt_vs_eigh, quadrature_rule_sound, nv_reduced_vs_tensor,
        nv_tables_cached_vs_fresh, nv_splitter_invariance, nv_fold_vs_full_circle,
        nv_radial_fold_vs_full,
    )]


def run(fault: bool = False) -> dict:
    """Run every check of ``checks(fault)`` and print its verdict; ``fault``
    conjugates the closed form's phase, which ``closed-form-oracle`` must catch.

    A check fails by raising an ``Exception``; an interrupt aborts the run.
    Returns the per-check records and the names of the failed checks.
    """
    todo = checks(fault)
    if fault:
        print("fault injection enabled: closed-form phase deliberately conjugated")
    start = time.perf_counter()
    records = []
    for name, fn in todo:
        t0 = time.perf_counter()
        record = {"name": name, "status": "ok"}
        try:
            fn()
        except Exception as exc:
            record.update(status="failed", detail=f"{type(exc).__name__}: {exc}")
            print(f"FAIL {name}: {record['detail']}")
        else:
            print(f"ok {name}")
        record["wall_time_s"] = round(time.perf_counter() - t0, 3)
        records.append(record)
    failures = [r["name"] for r in records if r["status"] == "failed"]
    print(f"selftest: {len(todo) - len(failures)}/{len(todo)} checks passed "
          f"in {time.perf_counter() - start:.1f}s")
    return {"checks": records, "failures": failures}
