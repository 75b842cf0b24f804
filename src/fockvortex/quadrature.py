"""Position-representation wavefunctions and phase-winding vortex detection.

The field psi(x, y) of a two-mode state is a Hermite-function expansion;
vortices are integer phase windings of arg(psi) around grid plaquettes.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

import numpy as np

from .config import TOL
from .errors import GridTooCoarseError, InvalidParameterError, check_count, check_real
from .floatrepr import REPR_WIDTH, repr_table as _repr_table
from .states import TwoModeState


def hermite_basis(n_max: int, x: np.ndarray) -> np.ndarray:
    """Table of normalized Hermite functions psi_0..psi_n_max at points x.

    Uses the normalized three-term recurrence
        psi_n = sqrt(2/n) x psi_{n-1} - sqrt((n-1)/n) psi_{n-2}
    which never forms the polynomial and the factorial separately, so it is
    stable to n in the hundreds.
    """
    x = np.asarray(x, dtype=float)
    table = np.empty((n_max + 1,) + x.shape)
    table[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        table[1] = math.sqrt(2.0) * x * table[0]
    for n in range(2, n_max + 1):
        table[n] = math.sqrt(2.0 / n) * x * table[n - 1] - math.sqrt((n - 1) / n) * table[n - 2]
    return table


@dataclass(frozen=True)
class QuadratureGrid:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    n_x: int
    n_y: int

    def __post_init__(self):
        for name in ("x_min", "x_max", "y_min", "y_max"):
            check_real(name, getattr(self, name))
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise InvalidParameterError("grid bounds must satisfy min < max")
        check_count("n_x", self.n_x, 2)
        check_count("n_y", self.n_y, 2)

    @classmethod
    def square(cls, half_width: float, n: int) -> "QuadratureGrid":
        return cls(-half_width, half_width, -half_width, half_width, n, n)

    @classmethod
    def from_spec(cls, spec: str) -> "QuadratureGrid":
        """Parse 'min:max:n' (both axes) or 'xmin:xmax:nx,ymin:ymax:ny'."""
        try:
            parts = spec.split(",")
            if len(parts) == 1:
                lo, hi, n = parts[0].split(":")
                return cls(float(lo), float(hi), float(lo), float(hi), int(n), int(n))
            if len(parts) == 2:
                xlo, xhi, nx = parts[0].split(":")
                ylo, yhi, ny = parts[1].split(":")
                return cls(float(xlo), float(xhi), float(ylo), float(yhi), int(nx), int(ny))
        except (ValueError, InvalidParameterError) as exc:
            raise InvalidParameterError(f"bad grid spec {spec!r}: {exc}") from exc
        raise InvalidParameterError(f"bad grid spec {spec!r}")

    def x_axis(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    def y_axis(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.n_y)


class QuadratureField:
    """Complex field psi(x, y) on a grid, values[i, j] = psi(x_i, y_j); its ``modulus``
    and ``phase`` are the CSV's abs and arg columns, which ``count_vortices`` reads."""

    __slots__ = ("grid", "values", "modulus", "phase")

    def __init__(self, grid: QuadratureGrid, values: np.ndarray):
        if values.shape != (grid.n_x, grid.n_y):
            raise InvalidParameterError(
                f"values shape {values.shape} does not match grid ({grid.n_x}, {grid.n_y})"
            )
        # hypot, as Python's abs of each value, not np.abs: numpy's SIMD
        # modulus differs in the last bit for a third of the points, and near
        # the float maximum the two disagree on which moduli overflow to inf
        with np.errstate(over="ignore"):
            self.modulus = np.hypot(values.real, values.imag)
        if not np.all(np.isfinite(self.modulus)):
            raise InvalidParameterError("field contains non-finite values or moduli")
        self.phase = np.angle(values)
        self.grid = grid
        self.values = values

    def norm_riemann(self) -> float:
        dx = (self.grid.x_max - self.grid.x_min) / (self.grid.n_x - 1)
        dy = (self.grid.y_max - self.grid.y_min) / (self.grid.n_y - 1)
        return float(np.sum(self.modulus ** 2) * dx * dy)

    def to_csv(self, path) -> None:
        """Rows ordered y-outer, x-inner; header x,y,re,im,abs,arg."""
        _write_grid_csv(path, ("x", "y", "re", "im", "abs", "arg"), self.grid,
                        (self.values.real, self.values.imag, self.modulus, self.phase))


def _write_grid_csv(path, names, grid: QuadratureGrid, columns) -> None:
    """Write the value ``columns`` (arrays indexed ``[i, j]`` like the grid)
    as CSV: header ``names``, then one line per point, y-outer and x-inner, of
    x, y and each column's value.

    Every number is ``repr`` of a Python float, so the bytes equal those of a
    per-element ``f"{float(v)!r}"`` loop; ``floatrepr.repr_table`` produces
    them for whole arrays.  Each distinct double of a column is formatted
    once: ``np.unique`` runs over the column's int64 bit view, not its
    floats, which would merge 0.0 and -0.0, whose reprs differ.  The file
    is gathered from the tables and written one y-row at a time, and NUL
    padding is dropped from each row, so memory stays bounded by the tables
    and their indices, each kept at the narrowest unsigned type that can
    index its table (uint16 for every figure-1 column).
    """
    distincts, inverses = [], []
    for column in columns:
        # transposed, so the flat index runs in file order: y outer, x inner
        distinct, inverse = np.unique(np.asarray(column, dtype=float).T.view(np.int64),
                                      return_inverse=True)
        width = np.min_scalar_type(len(distinct) - 1)
        distincts.append(distinct.view(float))
        inverses.append(inverse.astype(width).reshape(grid.n_y, grid.n_x))
        del distinct, inverse  # only the list's view and the narrow copy outlive the loop
    # formatted after the last np.unique, so its temporaries and the tables
    # are never alive at once; each distinct array is dropped once formatted
    tables = []
    while distincts:
        tables.append(_repr_table(distincts.pop(0)))
    # each field is REPR_WIDTH bytes and its separator; NULs are dropped on write
    line = np.zeros((grid.n_x, 2 + len(tables), REPR_WIDTH + 1), dtype=np.uint8)
    line[:, :, -1] = ord(",")
    line[:, -1, -1] = ord("\n")
    line[:, 0, :-1] = _repr_table(grid.x_axis())
    ys = _repr_table(grid.y_axis())
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        for j in range(grid.n_y):
            line[:, 1, :-1] = ys[j]
            for k, (table, inverse) in enumerate(zip(tables, inverses), start=2):
                line[:, k, :-1] = table[inverse[j]]
            fh.write(line[line != 0].tobytes())


def evaluate_field(state: TwoModeState, grid: QuadratureGrid) -> QuadratureField:
    """psi(x, y) = sum A[n_a, n_b] psi_{n_a}(x) psi_{n_b}(y)."""
    tx = hermite_basis(state.cutoff, grid.x_axis())
    ty = hermite_basis(state.cutoff, grid.y_axis())
    values = np.einsum("ab,ax,by->xy", state.amplitudes, tx, ty, optimize=True)
    return QuadratureField(grid, values)


@dataclass
class VortexReport:
    vortices: List[Dict]
    total_charge: int
    count: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def _wrap(dphi: np.ndarray) -> np.ndarray:
    """Branch-wrapped difference of two phases in [-pi, pi]: ``dphi`` in
    [-2pi, 2pi] moved by one turn into [-pi, pi].  It takes the branch of the
    complex form angle(exp(i dphi)), which also leaves -pi and pi as they are,
    without its complex exp and angle."""
    turns = (dphi > math.pi).astype(float) - (dphi < -math.pi)
    return dphi - 2.0 * math.pi * turns


def _label8(mask: np.ndarray) -> Tuple[np.ndarray, int]:
    """(labels, count) of the 8-connected components of the 2-D boolean
    ``mask``: 0 off the mask, 1..count on it, numbered in row-major order of
    each component's first cell.

    A flood fill over the set of unvisited cells, so the cost follows the
    number of cells on the mask, not the grid size; neighbours off the grid
    are never in the set.
    """
    labels = np.zeros(mask.shape, dtype=np.intp)
    cells = list(zip(*(idx.tolist() for idx in np.nonzero(mask))))  # row-major
    unvisited = set(cells)
    count = 0
    for seed in cells:
        if seed not in unvisited:
            continue
        count += 1
        unvisited.remove(seed)
        stack = [seed]
        while stack:
            i, j = stack.pop()
            labels[i, j] = count
            for cell in ((i - 1, j - 1), (i - 1, j), (i - 1, j + 1), (i, j - 1),
                         (i, j + 1), (i + 1, j - 1), (i + 1, j), (i + 1, j + 1)):
                if cell in unvisited:
                    unvisited.remove(cell)
                    stack.append(cell)
    return labels, count


def count_vortices(field: QuadratureField) -> VortexReport:
    """Integer winding of ``field.phase`` per plaquette, merged into vortices.

    Each corner's ``field.modulus`` must exceed ``TOL.amplitude_floor`` in
    absolute terms (vortex cores legitimately have low amplitude, so no relative
    thresholding is applied; the floor only rejects where arg(psi) is noise)."""
    phi = field.phase
    ok = field.modulus > TOL.amplitude_floor
    # counter-clockwise circulation over each plaquette [i,i+1] x [j,j+1]
    s = (
        _wrap(phi[1:, :-1] - phi[:-1, :-1])
        + _wrap(phi[1:, 1:] - phi[1:, :-1])
        + _wrap(phi[:-1, 1:] - phi[1:, 1:])
        + _wrap(phi[:-1, :-1] - phi[:-1, 1:])
    )
    winding = np.rint(s / (2.0 * math.pi)).astype(int)
    valid = ok[:-1, :-1] & ok[1:, :-1] & ok[:-1, 1:] & ok[1:, 1:]
    winding = np.where(valid, winding, 0)
    if np.any(np.abs(winding) > 1):
        i, j = np.argwhere(np.abs(winding) > 1)[0]
        raise GridTooCoarseError(
            f"plaquette ({i}, {j}) has winding {winding[i, j]}: "
            "refine the grid to resolve the multi-charge cluster"
        )
    xs, ys = field.grid.x_axis(), field.grid.y_axis()
    cx = 0.5 * (xs[:-1] + xs[1:])
    cy = 0.5 * (ys[:-1] + ys[1:])
    vortices: List[Dict] = []
    for charge in (1, -1):
        # plaquettes that touch at a corner belong to one vortex
        labels, nlab = _label8(winding == charge)
        for lab in range(1, nlab + 1):
            ii, jj = np.nonzero(labels == lab)
            vortices.append(
                {
                    "x": float(np.mean(cx[ii])),
                    "y": float(np.mean(cy[jj])),
                    "charge": charge,
                }
            )
    vortices.sort(key=lambda v: (v["x"], v["y"], v["charge"]))
    total = sum(v["charge"] for v in vortices)
    return VortexReport(vortices=vortices, total_charge=total, count=len(vortices))
