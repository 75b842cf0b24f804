import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.special import eval_hermite

from fockvortex import (
    InvalidParameterError,
    QuadratureField,
    QuadratureGrid,
    SqueezeParams,
    TwoModeState,
    apply_beam_splitter,
    count_vortices,
    evaluate_field,
    hermite_basis,
    make_tmss,
)
from fockvortex.config import TOL
from fockvortex.oracles import hermite_function
import fockvortex.quadrature as quadrature

# mpmath, 40 digits
HERMITE_50_AT_3P7 = -0.05168667850813706662
HERMITE_7_AT_M1P3 = -0.40609866425190537779
PI_QUARTER_INV = 0.75112554446494248286


def test_hermite_frozen_values():
    assert hermite_function(50, 3.7) == pytest.approx(HERMITE_50_AT_3P7, abs=1e-14)
    assert hermite_function(7, -1.3) == pytest.approx(HERMITE_7_AT_M1P3, abs=1e-14)


def test_hermite_vacuum_peak():
    assert hermite_function(0, 0.0) == pytest.approx(PI_QUARTER_INV, abs=1e-15)


def test_hermite_against_scipy():
    x = np.linspace(-4.0, 4.0, 41)
    for n in range(12):
        norm = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
        ref = eval_hermite(n, x) * np.exp(-0.5 * x * x) / norm
        assert np.max(np.abs(hermite_function(n, x) - ref)) < 1e-12


def test_hermite_orthonormal_riemann():
    x = np.linspace(-9.0, 9.0, 2001)
    dx = x[1] - x[0]
    table = hermite_basis(5, x)
    gram = table @ table.T * dx
    assert np.max(np.abs(gram - np.eye(6))) < 1e-9


def test_hermite_rejects_negative_order():
    with pytest.raises(InvalidParameterError):
        hermite_function(-1, 0.0)


def test_grid_from_spec():
    g = QuadratureGrid.from_spec("-2.0:2.0:5")
    assert g.n_x == g.n_y == 5
    assert g.x_axis()[0] == -2.0 and g.x_axis()[-1] == 2.0
    g2 = QuadratureGrid.from_spec("-1:1:3,-4:4:9")
    assert (g2.n_x, g2.n_y) == (3, 9)
    assert g2.y_axis()[0] == -4.0


@pytest.mark.parametrize(
    "bad", ["", "1:2", "a:b:c", "1:2:0", "3:1:5", "-inf:inf:3", "-1:1:3,0:inf:3", "nan:1:3"]
)
def test_grid_spec_validation(bad):
    with pytest.raises(InvalidParameterError):
        QuadratureGrid.from_spec(bad)


@pytest.mark.parametrize("args", [
    pytest.param((-1, 1, -1, 1, 2.5, 3), id="float-count"),
    pytest.param((-1, 1, -1, 1, 3, 3.0), id="integral-float-count"),
    pytest.param((-1, 1, -1, 1, "3", 3), id="str-count"),
    pytest.param((False, True, -1, 1, 3, 3), id="bool-bounds"),
    pytest.param(("-1", "1", -1, 1, 3, 3), id="str-bounds"),
    pytest.param((0, 10 ** 400, 0, 1, 2, 2), id="int-bound-past-float-range"),
])
def test_grid_refuses_other_types(args):
    # counts are integers and bounds finite real numbers, and a bool is
    # neither; a float count used to pass here and fail in x_axis as a bare
    # TypeError, and a bound past the float range as a bare OverflowError
    with pytest.raises(InvalidParameterError):
        QuadratureGrid(*args)


def test_grid_takes_numpy_numbers():
    grid = QuadratureGrid(np.float64(-1.0), 1, -1, np.float64(1.0), np.int64(3), 3)
    assert grid.x_axis().tolist() == [-1.0, 0.0, 1.0]


def test_vacuum_field_analytic():
    grid = QuadratureGrid.square(3.0, 31)
    fld = evaluate_field(TwoModeState.from_pairs({(0, 0): 1.0}, cutoff=0), grid)
    gx, gy = np.meshgrid(grid.x_axis(), grid.y_axis(), indexing="ij")
    expect = np.exp(-0.5 * (gx**2 + gy**2)) / math.sqrt(math.pi)
    assert np.max(np.abs(fld.values - expect)) < 1e-14


def test_field_riemann_norm():
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.5, n_max=3)))
    fld = evaluate_field(state, QuadratureGrid.square(6.0, 201))
    assert fld.norm_riemann() == pytest.approx(1.0, abs=1e-3)


def test_field_csv_layout(tmp_path):
    grid = QuadratureGrid.from_spec("-1:1:2,-1:1:3")
    fld = evaluate_field(TwoModeState.from_pairs({(0, 0): 1.0}, cutoff=0), grid)
    path = tmp_path / "field.csv"
    fld.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,y,re,im,abs,arg"
    assert len(lines) == 1 + 2 * 3
    # y is the outer loop: x cycles fastest
    first_two = [line.split(",")[:2] for line in lines[1:3]]
    assert first_two[0][1] == first_two[1][1]
    assert first_two[0][0] != first_two[1][0]
    x0, y0, re0, im0, abs0, arg0 = (float(v) for v in lines[1].split(","))
    assert complex(re0, im0) == fld.values[0, 0]
    assert abs0 == abs(fld.values[0, 0])


@pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.inf), complex(1.5e308, 1.5e308)],
                         ids=["nan", "inf", "modulus-overflow"])
def test_field_rejects_non_finite_values_and_moduli(bad):
    values = np.ones((2, 2), dtype=complex)
    values[0, 1] = bad
    with pytest.raises(InvalidParameterError):
        QuadratureField(QuadratureGrid.square(1.0, 2), values)


def _synthetic(grid, charge):
    gx, gy = np.meshgrid(grid.x_axis(), grid.y_axis(), indexing="ij")
    z = gx + 1j * gy if charge > 0 else gx - 1j * gy
    return QuadratureField(grid, z ** abs(charge) * np.exp(-0.5 * (gx**2 + gy**2)))


def test_gaussian_has_no_vortices():
    vacuum = TwoModeState.from_pairs({(0, 0): 1.0}, cutoff=0)
    fld = evaluate_field(vacuum, QuadratureGrid.square(4.0, 101))
    report = count_vortices(fld)
    assert report.count == 0 and report.total_charge == 0


@pytest.mark.parametrize("charge", [1, -1])
def test_unit_charge_detection(charge):
    # even node count keeps the singularity strictly inside a plaquette
    report = count_vortices(_synthetic(QuadratureGrid.square(4.0, 162), charge))
    assert report.count == 1
    assert report.total_charge == charge
    v = report.vortices[0]
    assert abs(v["x"]) < 0.05 and abs(v["y"]) < 0.05
    assert v["charge"] == charge


def test_two_opposite_vortices():
    grid = QuadratureGrid.square(4.0, 162)
    gx, gy = np.meshgrid(grid.x_axis(), grid.y_axis(), indexing="ij")
    values = ((gx - 1.0) + 1j * gy) * ((gx + 1.0) - 1j * gy) * np.exp(-0.5 * (gx**2 + gy**2))
    report = count_vortices(QuadratureField(grid, values))
    assert report.count == 2
    assert report.total_charge == 0
    by_x = sorted(report.vortices, key=lambda v: v["x"])
    assert by_x[0]["charge"] == -1 and abs(by_x[0]["x"] + 1.0) < 0.05
    assert by_x[1]["charge"] == +1 and abs(by_x[1]["x"] - 1.0) < 0.05


def test_total_charge_stable_under_refinement():
    for n in (82, 122, 162, 242):
        report = count_vortices(_synthetic(QuadratureGrid.square(4.0, n), -1))
        assert report.total_charge == -1


def test_double_core_reports_one_merged_cluster():
    # a 4-corner loop resolves winding -1, 0, +1 only; the two unit cells a
    # double core produces are adjacent, and adjacent same-charge plaquettes
    # merge into a single reported vortex
    report = count_vortices(_synthetic(QuadratureGrid.square(4.0, 162), 2))
    assert report.count == 1
    assert report.vortices[0]["charge"] == 1
    assert abs(report.vortices[0]["x"]) < 0.1 and abs(report.vortices[0]["y"]) < 0.1


def test_node_on_zero_is_masked():
    # odd node count puts a lattice point exactly on the zero: the four
    # touching plaquettes have an undefined corner phase and are skipped
    report = count_vortices(_synthetic(QuadratureGrid.square(4.0, 161), 1))
    assert report.count == 0


def _ndimage_label8(mask):
    # the labeler count_vortices used before it had its own
    return ndimage.label(mask, structure=np.ones((3, 3), dtype=int))


def _components(labels, count):
    """The cell sets of a labelling, whatever the label numbering."""
    return sorted(list(zip(*(idx.tolist() for idx in np.nonzero(labels == lab))))
                  for lab in range(1, count + 1))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_label8_partitions_like_ndimage(rows, cols, density, seed):
    # densities around the 8-connected percolation threshold (~0.41) give
    # long branching clusters, where a missed diagonal step splits one
    mask = np.random.default_rng(seed).random((rows, cols)) < density
    labels, count = quadrature._label8(mask)
    assert np.array_equal(labels != 0, mask)
    assert _components(labels, count) == _components(*_ndimage_label8(mask))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_count_vortices_matches_ndimage_path(n_x, n_y, seed):
    # random phases wind by -1, 0 or +1 around about a third of the
    # plaquettes, so clusters of both charges touch and merge
    rng = np.random.default_rng(seed)
    grid = QuadratureGrid(-2.0, 1.5, -1.0, 3.0, n_x, n_y)
    fld = QuadratureField(grid, rng.normal(size=(n_x, n_y)) + 1j * rng.normal(size=(n_x, n_y)))
    got = count_vortices(fld).to_json_dict()
    with mock.patch.object(quadrature, "_label8", _ndimage_label8):
        expect = count_vortices(fld).to_json_dict()
    assert got == expect


def _complex_wrap(dphi):
    # the phase wrap count_vortices used before its real-valued one
    return np.angle(np.exp(1j * dphi))


@settings(max_examples=500, deadline=None)
@given(st.floats(-2 * math.pi, 2 * math.pi))
@example(math.pi)
@example(-math.pi)
@example(float(np.nextafter(math.pi, 4.0)))
@example(float(np.nextafter(math.pi, 0.0)))
@example(float(np.nextafter(-math.pi, -4.0)))
@example(float(np.nextafter(-math.pi, 0.0)))
@example(2 * math.pi)
@example(-2 * math.pi)
@example(-0.0)
def test_wrap_takes_the_branch_of_the_complex_form(dphi):
    # a difference of two phases lies in [-2pi, 2pi]; the two forms round
    # differently near +-pi by at most an ulp of pi each, while a wrong
    # branch would be off by 2pi
    got = quadrature._wrap(np.array([dphi]))[0]
    assert abs(got - _complex_wrap(np.array([dphi]))[0]) <= 2 * np.spacing(math.pi)
    assert -math.pi <= got <= math.pi


@pytest.mark.parametrize("n", [3, 5, 8])
def test_fock_input_vortices_match_complex_wrap(n):
    # figure 1 --fock-input fields: 36, 72 and 168 vortices on the figure grid
    state = apply_beam_splitter(TwoModeState.from_pairs({(n, n): 1.0}, cutoff=2 * n))
    fld = evaluate_field(state, QuadratureGrid.from_spec("-6.0:6.0:301"))
    got = count_vortices(fld).to_json_dict()
    with mock.patch.object(quadrature, "_wrap", _complex_wrap):
        expect = count_vortices(fld).to_json_dict()
    assert got["count"] > 0
    assert got == expect


def test_vortex_report_follows_the_csv_columns(tmp_path):
    # a corner of the vortex's plaquette set within ulps of the amplitude
    # floor, where numpy's SIMD modulus and hypot (the CSV's abs column) fall
    # on opposite sides of it: the report is the one the CSV's abs and arg
    # columns give, whichever side hypot takes
    grid = QuadratureGrid.square(4.0, 162)
    values = _synthetic(grid, -1).values.copy()
    i = j = 80  # the plaquette [80, 81] x [80, 81] holds the vortex at the origin
    theta = float(np.angle(values[i, j]))
    floor = TOL.amplitude_floor
    for dtheta, k in itertools.product(np.arange(200) * 1e-3, range(-4, 5)):
        values[i, j] = (floor + k * np.spacing(floor)) * np.exp(1j * (theta + dtheta))
        if (np.abs(values)[i, j] > floor) != (np.hypot(values.real, values.imag)[i, j] > floor):
            break
    else:
        pytest.skip("numpy's modulus agrees with hypot at the floor on this platform")
    field = QuadratureField(grid, values)
    path = tmp_path / "field.csv"
    field.to_csv(path)
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in path.read_text().splitlines()[1:]])
    # rows run y-outer, x-inner; columns x, y, re, im, abs, arg
    x, y, modulus, arg = (rows[:, k].reshape(grid.n_y, grid.n_x).T for k in (0, 1, 4, 5))
    ok = modulus > floor
    # counter-clockwise edges (head, tail) of each plaquette [i, i+1] x [j, j+1]
    edges = [(arg[1:, :-1], arg[:-1, :-1]), (arg[1:, 1:], arg[1:, :-1]),
             (arg[:-1, 1:], arg[1:, 1:]), (arg[:-1, :-1], arg[:-1, 1:])]
    circulation = sum(_complex_wrap(head - tail) for head, tail in edges)
    winding = np.rint(circulation / (2 * math.pi)).astype(int)
    winding[~(ok[:-1, :-1] & ok[1:, :-1] & ok[:-1, 1:] & ok[1:, 1:])] = 0
    cx, cy = 0.5 * (x[:-1, 0] + x[1:, 0]), 0.5 * (y[0, :-1] + y[0, 1:])
    expect = [{"x": float(cx[a]), "y": float(cy[b]), "charge": int(winding[a, b])}
              for a, b in np.argwhere(winding)]
    assert len(expect) <= 1  # one vortex, in one plaquette or masked
    assert count_vortices(field).to_json_dict() == {
        "vortices": expect, "total_charge": sum(v["charge"] for v in expect), "count": len(expect)}
