"""Byte identity of the grid CSV writer, which formats each distinct double
once, against the per-element formatter it replaced, kept here as the oracle;
the vectorized shortest-repr formatter against Python's ``repr``; exact round
trips of random fields and slices through ``csv``; the writer's memory
budget."""
import csv
import os
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fockvortex import (
    InvalidParameterError,
    QuadratureField,
    QuadratureGrid,
    SqueezeParams,
    TwoModeState,
    apply_beam_splitter,
    evaluate_field,
    make_tmss,
    wigner_slice,
)
from fockvortex.cli import FIELD_GRID, FIG1_N_VALUES, FIG1_R, main
from fockvortex.floatrepr import REPR_WIDTH, repr_table
from fockvortex.oracles import hard_cases
from fockvortex.wigner import WignerSlice, wigner_diagonal_form

# distinct, non-square axes so that a swapped row/column order shows
GRID = QuadratureGrid(-6.0, 6.0, -5.0, 5.5, 151, 121)
SLICE_GRID = QuadratureGrid(-3.5, 3.5, -2.0, 3.0, 41, 33)


def field_csv_oracle(field) -> bytes:
    xs, ys = field.grid.x_axis(), field.grid.y_axis()
    lines = ["x,y,re,im,abs,arg"]
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            v = complex(field.values[i, j])
            lines.append(
                f"{float(x)!r},{float(y)!r},{v.real!r},{v.imag!r},"
                f"{abs(v)!r},{float(np.angle(v))!r}"
            )
    return ("\n".join(lines) + "\n").encode()


def grid_csv_oracle(names, grid, values) -> bytes:
    lines = [",".join(names)]
    for j, c2 in enumerate(grid.y_axis()):
        for i, c1 in enumerate(grid.x_axis()):
            lines.append(f"{float(c1)!r},{float(c2)!r},{float(values[i, j])!r}")
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize(
    "state",
    [
        pytest.param(apply_beam_splitter(make_tmss(SqueezeParams(r=0.02, n_max=3))), id="tmss"),
        pytest.param(apply_beam_splitter(TwoModeState.from_pairs({(3, 3): 1.0}, cutoff=6)),
                     id="fock"),
    ],
)
def test_field_csv_matches_per_element_formatter(tmp_path, state):
    field = evaluate_field(state, GRID)
    path = tmp_path / "field.csv"
    field.to_csv(path)
    assert path.read_bytes() == field_csv_oracle(field)


@pytest.mark.parametrize(
    "plane", [{"y": 0.0, "px": 0.0}, {"x": 0.0, "py": 0.0}, {"x": 0.25, "px": -0.5}],
    ids=["y-px", "x-py", "x-px"],
)
def test_slice_csv_matches_per_element_formatter(tmp_path, plane):
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=0.9, n_max=4)))
    sl = wigner_slice(state, plane, SLICE_GRID)
    path = tmp_path / "slice.csv"
    sl.to_csv(path)
    assert path.read_bytes() == grid_csv_oracle((*sl.free_names, "w"), SLICE_GRID, sl.values)


def test_diagonal_form_cli_csv_matches_per_element_formatter(tmp_path):
    out = tmp_path / "diagonal.csv"
    spec = "-3.5:3.5:41,-2:3:33"
    code = main(["wigner-slice", "--r", "0.8", "--n", "3", "--plane", "y=0.25,px=0",
                 f"--grid={spec}", "--diagonal-form", "-o", str(out)])
    assert code == 0
    grid = QuadratureGrid.from_spec(spec)
    c1, c2 = np.meshgrid(grid.x_axis(), grid.y_axis(), indexing="ij")
    values = wigner_diagonal_form(SqueezeParams(r=0.8, n_max=3),
                                  (c1, np.zeros_like(c1), np.full_like(c1, 0.25), c2))
    assert out.read_bytes() == grid_csv_oracle(("x", "py", "w"), grid, values)


def _complex(re, im) -> np.ndarray:
    # assigned part by part: arithmetic such as re + 1j * im loses signed zeros
    values = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    values.real, values.imag = re, im
    return values


def test_field_csv_keeps_signed_zeros_apart(tmp_path):
    # x-mirrored points are equal as floats but hold 0.0 against -0.0 in re,
    # in im and (atan2 of signed zeros) in arg; a dedup over float values
    # would merge them
    left_re = np.array([[0.0, 0.5, -0.0, 0.5, 0.0],
                        [0.5, -0.0, 0.5, 0.0, 0.0],
                        [0.0, 0.0, 0.5, -0.0, 0.5]])

    def mirrored(left):
        return np.concatenate([left, np.where(left == 0, -left, left)[::-1]])

    grid = QuadratureGrid(-1.5, 1.5, -1.0, 1.0, 6, 5)
    field = QuadratureField(grid, _complex(mirrored(left_re), mirrored(left_re[:, ::-1])))
    assert np.array_equal(field.values, field.values[::-1])
    for part in (field.values.real, field.values.imag, np.angle(field.values)):
        assert {"0.0", "-0.0"} <= set(map(repr, part.ravel().tolist()))
    path = tmp_path / "field.csv"
    field.to_csv(path)
    assert path.read_bytes() == field_csv_oracle(field)


def test_field_csv_of_one_repeated_value(tmp_path):
    field = QuadratureField(GRID, np.full((GRID.n_x, GRID.n_y), -0.3 + 0.7j))
    path = tmp_path / "field.csv"
    field.to_csv(path)
    assert path.read_bytes() == field_csv_oracle(field)


def test_slice_csv_with_repeated_values(tmp_path):
    # a few values, signed zeros among them, scattered over the grid
    palette = np.array([0.0, -0.0, 0.125, -2.5e-300, 0.1, 1.7976931348623157e308])
    rng = np.random.default_rng(3)
    values = palette[rng.integers(len(palette), size=(SLICE_GRID.n_x, SLICE_GRID.n_y))]
    sl = WignerSlice(("x", "py"), SLICE_GRID, values)
    path = tmp_path / "slice.csv"
    sl.to_csv(path)
    assert path.read_bytes() == grid_csv_oracle(("x", "py", "w"), SLICE_GRID, values)


@pytest.mark.parametrize("distinct", [256, 65_537], ids=["uint8", "uint32"])
def test_slice_csv_at_the_index_width_edges(tmp_path, distinct):
    # 256 distinct values are the most uint8 indices reach; 65,537 take
    # uint32 indices, which no figure's column needs
    grid = QuadratureGrid(-1.0, 1.0, -2.0, 2.0, 257, 256)
    rng = np.random.default_rng(5)
    palette = rng.standard_normal(distinct)
    palette[:2] = 0.0, -0.0
    values = palette[rng.permutation(grid.n_x * grid.n_y) % distinct].reshape(grid.n_x, grid.n_y)
    assert len(np.unique(values.view(np.int64))) == distinct
    sl = WignerSlice(("x", "py"), grid, values)
    path = tmp_path / "slice.csv"
    sl.to_csv(path)
    assert path.read_bytes() == grid_csv_oracle(("x", "py", "w"), grid, values)


def _reprs(values) -> list:
    return [repr(v).encode() for v in values.tolist()]


def _formatted(values) -> list:
    return repr_table(values).view(f"S{REPR_WIDTH}").ravel().tolist()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_repr_table_matches_repr_on_raw_bit_patterns(patterns):
    # uniform bit patterns: about half take the Ryū branch, the rest
    # (zeros, subnormals, |v| >= 2^50) keep Python's repr
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)]
    assert _formatted(values) == _reprs(values)


def test_repr_table_matches_repr_on_hard_cases():
    cases = hard_cases()
    tiny = np.finfo(float).tiny
    required = [0.0, -0.0, 5e-324, tiny, np.nextafter(tiny, 0.0), np.finfo(float).max,
                0.2, 0.3, 1e-4, 1e-5, 1e15, 1e16]
    required += [2.0 ** e for e in range(50, 55)]
    required += [float(f"1e{e}") for e in range(-320, 309)]
    required += [2.0 ** e for e in range(-1074, 1024)]  # the lower neighbour is closer
    required += [562949953421312.25, 17179869200.1640625]  # exact ties, half to even
    assert set(np.array(required).view(np.int64).tolist()) <= set(cases.view(np.int64).tolist())
    assert max(map(len, _reprs(cases))) == REPR_WIDTH
    assert _formatted(cases) == _reprs(cases)


def test_repr_table_across_chunks():
    # several formatting chunks, with values that keep Python's repr spliced
    # in among those that take the Ryū branch
    rng = np.random.default_rng(11)
    size = 3 * 4096 + 5
    values = rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)
    values = np.where(np.isfinite(values), values, 0.0)
    decimals = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-20, 4, size)
    mixed = np.where(rng.random(size) < 0.8, decimals, values)
    assert _formatted(mixed) == _reprs(mixed)


# peak bytes per grid point that QuadratureField.to_csv may allocate: the
# four columns' indices, uint16 for a figure-1 field (8), and the fixed-width
# tables of distinct reprs (~40) plus np.unique's temporaries, ~61 in all.
# The field holds its abs and arg columns before to_csv runs.  int32 indices
# (~80), Python string tables or a whole-file join each break it.
CSV_BYTES_PER_POINT = 70


def test_field_csv_memory_is_bounded(tmp_path):
    grid = QuadratureGrid.from_spec(FIELD_GRID)
    # the largest figure-1 truncation has the most distinct values
    state = apply_beam_splitter(make_tmss(SqueezeParams(r=FIG1_R, n_max=max(FIG1_N_VALUES))))
    field = evaluate_field(state, grid)
    tracemalloc.start()
    try:
        field.to_csv(tmp_path / "field.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    points = grid.n_x * grid.n_y
    assert peak < CSV_BYTES_PER_POINT * points, f"{peak / points:.1f} B per point"


@st.composite
def small_grids(draw):
    """A QuadratureGrid of 2-5 points per axis with finite, ordered bounds."""
    lo = st.floats(-1e3, 1e3)
    width = st.floats(1e-3, 1e3)
    x0, y0 = draw(lo), draw(lo)
    return QuadratureGrid(x0, x0 + draw(width), y0, y0 + draw(width),
                          draw(st.integers(2, 5)), draw(st.integers(2, 5)))


def _parsed_rows(write) -> list:
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "grid.csv")
        write(path)
        with open(path, newline="") as fh:
            return list(csv.reader(fh))


def _points(grid):
    """(i, j, x, y) in file order: y outer, x inner."""
    for j, y in enumerate(grid.y_axis()):
        for i, x in enumerate(grid.x_axis()):
            yield i, j, float(x), float(y)


@settings(max_examples=60, deadline=None)
@given(grid=small_grids(), data=st.data())
def test_field_csv_round_trips_exactly(grid, data):
    values = data.draw(hnp.arrays(np.complex128, (grid.n_x, grid.n_y),
                                  elements=st.complex_numbers(allow_nan=False, allow_infinity=False,
                                                              max_magnitude=sys.float_info.max)))
    # a value within max_magnitude can still have a modulus that rounds up to
    # inf (1.79769313e308 + 7.9e302j), and QuadratureField rejects those by
    # design (test_field_guard_agrees_with_csv_modulus)
    with np.errstate(over="ignore"):
        assume(np.all(np.isfinite(np.hypot(values.real, values.imag))))
    rows = _parsed_rows(QuadratureField(grid, values).to_csv)
    assert rows[0] == ["x", "y", "re", "im", "abs", "arg"]
    assert len(rows) == 1 + grid.n_x * grid.n_y
    for row, (i, j, x, y) in zip(rows[1:], _points(grid)):
        v = complex(values[i, j])
        assert [float(c) for c in row] == [x, y, v.real, v.imag, abs(v), float(np.angle(v))]


def test_field_guard_agrees_with_csv_modulus():
    # near the float maximum np.abs and Python abs disagree on which moduli
    # overflow; the guard must reject exactly the values the writer cannot write
    grid = QuadratureGrid(0.0, 1.0, 0.0, 1.0, 2, 2)
    too_big = complex(1.7889793494495687e308, 1.767865786028423e307)
    with pytest.raises(OverflowError):
        abs(too_big)
    with pytest.raises(InvalidParameterError, match="non-finite"):
        QuadratureField(grid, np.full((2, 2), too_big))
    fits = complex(1.797685045249276e308, 5.3930713149714806e305)
    rows = _parsed_rows(QuadratureField(grid, np.full((2, 2), fits)).to_csv)
    for row, (_, _, x, y) in zip(rows[1:], _points(grid)):
        assert [float(c) for c in row] == [x, y, fits.real, fits.imag, abs(fits),
                                           float(np.angle(fits))]


@settings(max_examples=60, deadline=None)
@given(grid=small_grids(), data=st.data())
def test_slice_csv_round_trips_exactly(grid, data):
    values = data.draw(hnp.arrays(np.float64, (grid.n_x, grid.n_y),
                                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    rows = _parsed_rows(WignerSlice(("x", "py"), grid, values).to_csv)
    assert rows[0] == ["x", "py", "w"]
    assert len(rows) == 1 + grid.n_x * grid.n_y
    for row, (i, j, x, y) in zip(rows[1:], _points(grid)):
        assert [float(c) for c in row] == [x, y, float(values[i, j])]
