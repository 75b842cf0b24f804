"""Command-line front end: figure pipelines, parameter sweeps, selftest.

Figures 1-4 and every sweep point run the same per-(r, N) task,
``_point_task``: it builds the state once and writes the requested field
CSV, vortex JSON, Wigner-slice CSV, NV JSON and log-negativity JSON, each
from one place.  Figure 5 keeps one task per N.  The tables
(``nv_table.csv``, ``logneg_table.csv``, ``sweep.csv``) all go through one
writer, ``_write_table``.

Artifacts (CSV/JSON data files) are written atomically (temp file +
rename) and are byte-identical across runs with identical inputs.  Each
pipeline directory carries a manifest.json recording the tool version,
a hash of the resolved configuration, and per-task status; the manifest
holds wall times, so it is a run log rather than a deterministic
artifact.  Re-running a completed pipeline with an unchanged
configuration and tool version recomputes nothing and rewrites nothing.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .beamsplitter import apply_beam_splitter, closed_form_vortex_state, inject_fault
from .config import GH_ORDER, TOL
from .entanglement import log_negativity, partial_transpose
from .errors import FockVortexError, InvalidParameterError, NonConvergenceError
from .quadrature import QuadratureGrid, count_vortices, evaluate_field, hermite_function
from .states import (
    SqueezeParams,
    TwoModeState,
    make_tmss,
    random_state,
    state_to_density,
    total_photon_distribution,
)
from .wigner import (
    WignerRule,
    WignerSlice,
    build_wigner_grid,
    negativity_volume,
    plane_free_coords,
    plane_points,
    position_marginal,
    wigner_fock_diagonal,
    wigner_diagonal_form,
    wigner_slice,
    wigner_state,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3
EXIT_INVARIANT = 4

# Pipeline defaults.  The figure descriptions in the source material leave
# some knobs unstated (exact squeezing triple for the slice panels, the
# fixed r for the truncation panels); the values below are tool defaults
# and are recorded in each manifest.
FIG1_R = 0.02
FIG1_N_VALUES = (3, 4, 5, 6, 7, 8)
FIG2_N = 6
FIG2_R_VALUES = (0.2, 0.6, 1.0)
FIG3_R = 1.0
FIG3_N_VALUES = (2, 4, 6)
FIG4_N_VALUES = (2, 4)
FIG4_R_VALUES = (0.1, 0.3, 0.5, 0.8, 1.1, 1.5)
FIG5_N_VALUES = (2, 4, 6)
FIG5_R_VALUES = tuple(round(0.1 * k, 1) for k in range(1, 16))
SLICE_PLANES = ({"y": 0.0, "px": 0.0}, {"x": 0.0, "py": 0.0})
# covers the Gaussian envelope of states with <= 16 photons per mode and
# resolves vortex cores
FIELD_GRID = "-6.0:6.0:301"
SLICE_GRID = "-3.5:3.5:101"

# per-point output kind -> artifact name, formatted with the point's tag
_ARTIFACT_NAMES = {
    "field": "field_{}.csv",
    "vortices": "vortices_{}.json",
    "wigner-slice": "slice_{}.csv",
    "nv": "nv_{}.json",
    "logneg": "logneg_{}.json",
}
SWEEP_OUTPUTS = tuple(_ARTIFACT_NAMES)
# point settings for figures, and for sweep configs that leave them out
POINT_DEFAULTS = {
    "grid": FIELD_GRID,
    "slice_grid": SLICE_GRID,
    "slice_plane": SLICE_PLANES[0],
    "nv_tol": TOL.nv,
    "nv_order": GH_ORDER,
}
# keys of a log-negativity row, and the columns of every table of them
_LOGNEG_COLUMNS = ("r", "n", "l_before", "l_after", "ratio")


# ---------------------------------------------------------------------------
# small plumbing
# ---------------------------------------------------------------------------

def _write_via(path: str, writer: Callable[[str], None]) -> None:
    """Atomic write: ``writer`` fills a temp file beside ``path``, which then
    replaces it.  Every artifact goes through here, so all get the same mode."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_atomic(path: str, text: str) -> None:
    def write(tmp: str) -> None:
        with open(tmp, "w") as fh:
            fh.write(text)

    _write_via(path, write)


def _write_json(path: str, doc: dict) -> None:
    _write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _config_hash(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _num_tag(value) -> str:
    return str(value).replace(".", "p").replace("-", "m")


def _exit_code(exc: Exception) -> int:
    """2 for a usage error, 3 for non-convergence, 4 for anything else."""
    if isinstance(exc, InvalidParameterError):
        return EXIT_USAGE
    return EXIT_NONCONVERGENCE if isinstance(exc, NonConvergenceError) else EXIT_INVARIANT


def _build_state(r: float, n: int, fock_input: bool, pre_bs: bool = False) -> TwoModeState:
    if fock_input:
        before = TwoModeState.from_pairs({(n, n): 1.0}, cutoff=2 * n)
    else:
        before = make_tmss(SqueezeParams(r=r, n_max=n))
    return before if pre_bs else apply_beam_splitter(before)


# ---------------------------------------------------------------------------
# task runner with manifest + resume
# ---------------------------------------------------------------------------

class Task(NamedTuple):
    name: str
    outputs: Tuple[str, ...]      # artifact paths relative to out_dir
    run: Callable[[], dict]       # computes + writes artifacts, returns payload
    load: Callable[[], dict]      # payload from existing artifacts


# (path relative to out_dir, header, fn(payloads by task name) -> rows)
Table = Tuple[str, Sequence[str], Callable[[dict], Iterable[Sequence]]]


def _run_pipeline(out_dir: str, config_doc: dict, tasks: Sequence[Task],
                  table: Optional[Table] = None) -> int:
    """Run tasks in order on the calling thread, maintain manifest.json,
    support resume.

    The manifest is rewritten after each task.  A task's ``Exception`` is
    recorded and the next task runs; an interrupt aborts the run.  ``table``
    is written from every task's payload after all tasks; nothing is loaded
    or written when every task was cached and the table is intact.  An
    artifact counts as intact on resume only when its size still matches the
    manifest's (no hashing, so a warm rerun stays a few stat calls), and a
    cached one whose payload cannot be read back is recomputed.
    """
    os.makedirs(out_dir, exist_ok=True)
    cfg_hash = _config_hash(config_doc)
    manifest_path = os.path.join(out_dir, "manifest.json")

    prev_ok = set()
    sizes: dict = {}  # relative artifact path -> size in bytes when written
    if os.path.exists(manifest_path):
        try:
            old = _read_json(manifest_path)
            if old.get("config_hash") == cfg_hash and old.get("tool_version") == __version__:
                prev_ok = {
                    t["name"] for t in old.get("tasks", []) if t["status"] in ("ok", "cached")
                }
                sizes = {str(rel): int(n) for rel, n in old.get("artifact_sizes", {}).items()}
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            prev_ok, sizes = set(), {}

    def intact(rels: Sequence[str]) -> bool:
        for rel in rels:
            try:
                if os.path.getsize(os.path.join(out_dir, rel)) != sizes.get(rel):
                    return False
            except OSError:
                return False
        return bool(rels)

    def record_sizes(rels: Sequence[str]) -> None:
        for rel in rels:
            sizes[rel] = os.path.getsize(os.path.join(out_dir, rel))

    entries = {  # in task order, which the manifest keeps
        t.name: {"name": t.name, "status": "pending", "outputs": list(t.outputs), "wall_time_s": 0.0}
        for t in tasks
    }

    def flush_manifest() -> None:
        _write_json(
            manifest_path,
            {
                "tool_version": __version__,
                "config_hash": cfg_hash,
                "config": config_doc,
                "tasks": list(entries.values()),
                "artifact_sizes": dict(sorted(sizes.items())),
            },
        )

    cached = [t for t in tasks if t.name in prev_ok and intact(t.outputs)]
    if len(cached) == len(tasks) and (table is None or intact((table[0],))):
        print(f"{out_dir}: all {len(tasks)} tasks cached; nothing to do")
        return EXIT_OK

    payloads: dict = {}
    for t in cached:
        try:
            payloads[t.name] = t.load()
        except (OSError, ValueError, KeyError):  # right size, unreadable content
            continue
        entries[t.name]["status"] = "cached"
    to_run = [t for t in tasks if t.name not in payloads]

    failures: List[Exception] = []
    flush_manifest()
    for t in to_run:
        entry = entries[t.name]
        start = time.perf_counter()
        try:
            payloads[t.name] = t.run()
        except Exception as exc:  # recorded per task; the pipeline continues
            failures.append(exc)
            entry["status"], entry["error"] = "failed", f"{type(exc).__name__}: {exc}"
            print(f"FAIL {t.name}: {entry['error']}")
        else:
            entry["status"] = "ok"
            record_sizes(t.outputs)
            print(f"ok {t.name} ({time.perf_counter() - start:.2f}s)")
        entry["wall_time_s"] = round(time.perf_counter() - start, 3)
        flush_manifest()

    if table is not None and not failures:
        rel, header, rows = table
        _write_table(os.path.join(out_dir, rel), header, rows(payloads))
        record_sizes((rel,))
        flush_manifest()

    if failures:
        print(f"{len(failures)}/{len(tasks)} tasks failed", file=sys.stderr)
        return min(map(_exit_code, failures))  # usage, then non-convergence, then invariant
    print(f"{out_dir}: {len(to_run)} tasks run, {len(tasks) - len(to_run)} cached")
    return EXIT_OK


# ---------------------------------------------------------------------------
# per-point task and tables
# ---------------------------------------------------------------------------

def _vortex_doc(r: float, n: int, fock_input: bool, grid_spec: str, report) -> dict:
    return {"r": r, "n_max": n, "input": "fock" if fock_input else "tmss", "grid": grid_spec,
            **report.to_json_dict()}


def _point_task(out_dir: str, name: str, tag: str, r: float, n: int, cfg: dict,
                fock_input: bool = False) -> Task:
    """The one production path of every per-(r, N) artifact.

    Builds the state once and writes each kind in ``cfg["outputs"]`` as
    ``_ARTIFACT_NAMES[kind]`` with ``tag``; the other ``POINT_DEFAULTS`` keys
    of ``cfg`` set grids, slice plane and NV rule.  Vortices are counted on
    the field, so asking for them writes the field too.  The payload holds
    r, n and the NV and log-negativity documents that were asked for.
    """
    kinds = set(cfg["outputs"])
    if "vortices" in kinds:
        kinds.add("field")
    rels = {kind: pattern.format(tag) for kind, pattern in _ARTIFACT_NAMES.items() if kind in kinds}
    paths = {kind: os.path.join(out_dir, rel) for kind, rel in rels.items()}

    def run() -> dict:
        payload = {"r": r, "n": n}
        if kinds & {"field", "wigner-slice", "nv"}:
            state = _build_state(r, n, fock_input)
        if "field" in kinds:
            fld = evaluate_field(state, QuadratureGrid.from_spec(cfg["grid"]))
            _write_via(paths["field"], fld.to_csv)
            if "vortices" in kinds:
                report = count_vortices(fld)
                _write_json(paths["vortices"], _vortex_doc(r, n, fock_input, cfg["grid"], report))
        if "wigner-slice" in kinds:
            sl = wigner_slice(state, cfg["slice_plane"], QuadratureGrid.from_spec(cfg["slice_grid"]))
            _write_via(paths["wigner-slice"], sl.to_csv)
        if "nv" in kinds:
            result = negativity_volume(state, WignerRule(order=cfg["nv_order"]), tol=cfg["nv_tol"])
            payload["nv"] = {"r": r, "n_max": n, **result.to_json_dict()}
            _write_json(paths["nv"], payload["nv"])
        if "logneg" in kinds:
            payload["logneg"] = _logneg_row(r, n)
            _write_json(paths["logneg"], payload["logneg"])
        return payload

    def load() -> dict:
        payload = {"r": r, "n": n}
        payload.update((kind, _read_json(paths[kind])) for kind in kinds & {"nv", "logneg"})
        return payload

    return Task(name, tuple(rels.values()), run, load)


def _logneg_row(r: float, n: int) -> dict:
    before = make_tmss(SqueezeParams(r=r, n_max=n))
    after = apply_beam_splitter(before)
    l_before = log_negativity(before).log_negativity
    l_after = log_negativity(after).log_negativity
    ratio = l_after / l_before if l_before > 0 else None
    return {"r": r, "n": n, "l_before": l_before, "l_after": l_after, "ratio": ratio}


def _fmt(value) -> str:
    """One table cell: blank for None, ``repr`` for floats (numpy ones too)."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_table(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)] + [",".join(map(_fmt, row)) for row in rows]
    _write_atomic(path, "\n".join(lines) + "\n")


def _by_point(payloads: dict) -> list:
    return sorted(payloads.values(), key=lambda p: (p["n"], p["r"]))


# ---------------------------------------------------------------------------
# figure pipelines
# ---------------------------------------------------------------------------

def _figure_tasks(figure: int, out_dir: str, fock_input: bool):
    """(config_doc, tasks, table) for one figure pipeline."""
    if figure == 1:
        cfg = {"figure": 1, "r": FIG1_R, "n_values": list(FIG1_N_VALUES),
               "input": "fock" if fock_input else "tmss", "grid": FIELD_GRID}
        point = dict(POINT_DEFAULTS, outputs=("field", "vortices"))
        tasks = [_point_task(out_dir, f"field-n{n}", f"n{n}", FIG1_R, n, point, fock_input)
                 for n in FIG1_N_VALUES]
        return cfg, tasks, None

    def slices(tag: str, r: float, n: int) -> List[Task]:
        return [
            _point_task(out_dir, f"slice-{tag}_plane{i}", f"{tag}_plane{i}", r, n,
                        dict(POINT_DEFAULTS, outputs=("wigner-slice",), slice_plane=plane))
            for i, plane in enumerate(SLICE_PLANES, start=1)
        ]

    if figure == 2:
        cfg = {"figure": 2, "n_max": FIG2_N, "r_values": list(FIG2_R_VALUES),
               "planes": list(SLICE_PLANES), "grid": SLICE_GRID}
        return cfg, [t for r in FIG2_R_VALUES for t in slices(f"r{_num_tag(r)}", r, FIG2_N)], None

    if figure == 3:
        cfg = {"figure": 3, "r": FIG3_R, "n_values": list(FIG3_N_VALUES),
               "planes": list(SLICE_PLANES), "grid": SLICE_GRID}
        return cfg, [t for n in FIG3_N_VALUES for t in slices(f"n{n}", FIG3_R, n)], None

    if figure == 4:
        cfg = {"figure": 4, "n_values": list(FIG4_N_VALUES), "r_values": list(FIG4_R_VALUES)}
        point = dict(POINT_DEFAULTS, outputs=("nv",))
        tasks = []
        for n in FIG4_N_VALUES:
            for r in FIG4_R_VALUES:
                tag = f"n{n}_r{_num_tag(r)}"
                tasks.append(_point_task(out_dir, f"nv-{tag}", tag, r, n, point))

        def nv_rows(payloads: dict):
            for p in _by_point(payloads):
                d = p["nv"]
                yield (p["r"], p["n"], d["volume"], d["normalization_check"],
                       d["resolution_history"][-1][0], d["converged"])

        header = ("r", "n", "nv", "normalization_check", "final_order", "converged")
        return cfg, tasks, ("nv_table.csv", header, nv_rows)

    # figure 5: one task per N over every r, written as one document
    cfg = {"figure": 5, "n_values": list(FIG5_N_VALUES), "r_values": list(FIG5_R_VALUES)}
    tasks = []
    for n in FIG5_N_VALUES:
        rel = f"logneg_n{n}.json"
        path = os.path.join(out_dir, rel)

        def run(n=n, path=path) -> dict:
            doc = {"n_max": n, "rows": [_logneg_row(r, n) for r in FIG5_R_VALUES]}
            _write_json(path, doc)
            return doc

        tasks.append(Task(f"logneg-n{n}", (rel,), run, functools.partial(_read_json, path)))

    def logneg_rows(payloads: dict):
        for doc in sorted(payloads.values(), key=lambda d: d["n_max"]):
            for row in doc["rows"]:
                yield [row[k] for k in _LOGNEG_COLUMNS]

    return cfg, tasks, ("logneg_table.csv", _LOGNEG_COLUMNS, logneg_rows)


def cmd_figure(args) -> int:
    figure = args.figure.removeprefix("fig")
    if figure not in ("1", "2", "3", "4", "5"):
        raise InvalidParameterError(f"figure id must be 1-5 or fig1..fig5, got {args.figure!r}")
    if args.fock_input and figure != "1":
        raise InvalidParameterError(f"--fock-input applies to figure 1 only, not figure {figure}")
    out_dir = args.out or os.path.join("figures", f"fig{figure}")
    return _run_pipeline(out_dir, *_figure_tasks(int(figure), out_dir, args.fock_input))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _real(value) -> float:
    """A numeric config value; a boolean is malformed, not 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _count(value) -> int:
    """An integer config value; booleans and non-integral numbers are malformed."""
    if _real(value) != int(value):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _load_sweep_config(path: str) -> dict:
    try:
        raw = _read_json(path)
    except OSError as exc:
        raise InvalidParameterError(f"cannot read sweep config {path}: {exc}")
    except ValueError as exc:
        raise InvalidParameterError(f"sweep config {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise InvalidParameterError("sweep config must be a JSON object")
    for key in ("r_values", "n_values", "outputs"):
        if key not in raw:
            raise InvalidParameterError(f"sweep config missing required key {key!r}")
    settings = dict(POINT_DEFAULTS, **raw)
    try:
        cfg = {
            "r_values": [_real(r) for r in raw["r_values"]],
            "n_values": [_count(n) for n in raw["n_values"]],
            "outputs": sorted(raw["outputs"]),
            "grid": str(settings["grid"]),
            "slice_grid": str(settings["slice_grid"]),
            "slice_plane": settings["slice_plane"],
            "nv_tol": _real(settings["nv_tol"]),
            "nv_order": _count(settings["nv_order"]),
            "output_dir": raw.get("output_dir", "sweep-out"),
        }
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError(f"malformed sweep config value: {exc}")
    if not cfg["r_values"] or not cfg["n_values"]:
        raise InvalidParameterError("r_values and n_values must be non-empty")
    for r in cfg["r_values"]:
        for n in cfg["n_values"]:
            SqueezeParams(r=r, n_max=n)
    unknown = [kind for kind in cfg["outputs"] if kind not in SWEEP_OUTPUTS]
    if not cfg["outputs"] or unknown:
        raise InvalidParameterError(
            f"outputs must be a non-empty subset of {SWEEP_OUTPUTS}; offending: {unknown}"
        )
    if not isinstance(cfg["output_dir"], str):
        raise InvalidParameterError(f"output_dir must be a path string, got {cfg['output_dir']!r}")
    if not isinstance(cfg["slice_plane"], dict):
        raise InvalidParameterError("slice_plane must be an object of coordinate: value")
    plane_free_coords(cfg["slice_plane"])
    QuadratureGrid.from_spec(cfg["grid"])
    QuadratureGrid.from_spec(cfg["slice_grid"])
    WignerRule(order=cfg["nv_order"])
    if not cfg["nv_tol"] > 0:
        raise InvalidParameterError(f"nv_tol must be > 0, got {cfg['nv_tol']}")
    return cfg


def cmd_sweep(args) -> int:
    cfg = _load_sweep_config(args.config)
    out_dir = args.out or cfg["output_dir"]
    tasks = []
    for n in cfg["n_values"]:
        for r in cfg["r_values"]:
            tag = f"r{_num_tag(r)}_n{n}"
            tasks.append(_point_task(out_dir, f"point-{tag}", tag, r, n, cfg))
    with_nv = "nv" in cfg["outputs"]

    def rows(payloads: dict):
        for p in _by_point(payloads):
            # the point's own r and n, with blank log-negativity cells if not asked for
            row = [p.get("logneg", p).get(k) for k in _LOGNEG_COLUMNS]
            yield row + [p["nv"]["volume"]] if with_nv else row

    header = _LOGNEG_COLUMNS + (("nv",) if with_nv else ())
    return _run_pipeline(out_dir, cfg, tasks, ("sweep.csv", header, rows))


# ---------------------------------------------------------------------------
# single-shot commands
# ---------------------------------------------------------------------------

def _parse_plane(text: str) -> dict:
    plane = {}
    for part in text.split(","):
        if "=" not in part:
            raise InvalidParameterError(f"plane entries must look like coord=value, got {part!r}")
        key, _, val = part.partition("=")
        try:
            plane[key.strip()] = float(val)
        except ValueError:
            raise InvalidParameterError(f"plane value for {key.strip()!r} is not a number: {val!r}")
    return plane


def cmd_field(args) -> int:
    state = _build_state(args.r, args.n, args.fock_input, pre_bs=args.pre_bs)
    grid = QuadratureGrid.from_spec(args.grid)
    fld = evaluate_field(state, grid)
    _write_via(args.output, fld.to_csv)
    print(f"field written to {args.output} (grid {args.grid}, riemann norm {fld.norm_riemann():.6f})")
    if args.vortices:
        report = count_vortices(fld)
        _write_json(args.vortices, _vortex_doc(args.r, args.n, args.fock_input, args.grid, report))
        print(f"vortices: count={report.count} total_charge={report.total_charge} "
              f"-> {args.vortices}")
    return EXIT_OK


def cmd_wigner_slice(args) -> int:
    plane = _parse_plane(args.plane)
    grid = QuadratureGrid.from_spec(args.grid)
    if args.diagonal_form:
        if args.fock_input or args.pre_bs:
            raise InvalidParameterError("--diagonal-form takes neither --fock-input nor --pre-bs")
        free, point = plane_points(plane, grid)
        vals = wigner_diagonal_form(SqueezeParams(r=args.r, n_max=args.n), point)
        _write_via(args.output, WignerSlice(free, plane, grid, vals).to_csv)
        print(f"diagonal-form slice written to {args.output} "
              f"(min {vals.min():.6f}, max {vals.max():.6f})")
        return EXIT_OK
    state = _build_state(args.r, args.n, args.fock_input, pre_bs=args.pre_bs)
    sl = wigner_slice(state, plane, grid)
    _write_via(args.output, sl.to_csv)
    print(f"slice written to {args.output} "
          f"(min {sl.values.min():.6f}, max {sl.values.max():.6f})")
    return EXIT_OK


def cmd_nv(args) -> int:
    state = _build_state(args.r, args.n, args.fock_input, pre_bs=args.pre_bs)
    result = negativity_volume(state, WignerRule(order=args.order), tol=args.tol)
    history = ", ".join(f"{o}:{v:.6f}" for o, v in result.resolution_history)
    print(f"negativity volume = {result.volume:.6f} "
          f"(integral of W = {result.normalization_check:.6f}; orders {history})")
    if args.json:
        doc = {"r": args.r, "n_max": args.n, "pre_bs": args.pre_bs}
        doc.update(result.to_json_dict())
        _write_json(args.json, doc)
    if not result.converged:
        print("refinement did not converge to requested tolerance", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _selftest_checks() -> List[Tuple[str, Callable[[], None]]]:
    def tmss_normalization():
        for r in (0.0, 0.3, 1.0, 2.0):
            for n in range(7):
                state = make_tmss(SqueezeParams(r=r, n_max=n))
                assert abs(state.norm() - 1.0) <= 1e-12, f"norm off at r={r}, n={n}"

    def tmss_amplitude_decay():
        state = make_tmss(SqueezeParams(r=0.8, n_max=6))
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
                closed_form_vortex_state(SqueezeParams(r=r, n_max=n), verify=True)

    def field_norm():
        state = _build_state(0.5, 3, fock_input=False)
        fld = evaluate_field(state, QuadratureGrid.square(6.0, 201))
        assert abs(fld.norm_riemann() - 1.0) < 1e-3, f"riemann norm {fld.norm_riemann()}"

    def vortex_synthetic():
        # even point count: the phase singularity at the origin must sit
        # inside a plaquette, not on a node where the phase is undefined
        grid = QuadratureGrid.square(4.0, 162)
        gx, gy = np.meshgrid(grid.x_axis(), grid.y_axis(), indexing="ij")
        from .quadrature import QuadratureField

        values = (gx - 1j * gy) * np.exp(-0.5 * (gx**2 + gy**2))
        report = count_vortices(QuadratureField(grid, values))
        assert report.count == 1 and report.total_charge == -1, (
            f"expected one charge -1 vortex, got {report.to_json_dict()}"
        )

    def wigner_normalization():
        state = _build_state(0.5, 2, fock_input=False)
        result = negativity_volume(state)
        assert abs(result.normalization_check - 1.0) < 1e-6, (
            f"integral of W = {result.normalization_check}"
        )

    def wigner_marginal():
        state = _build_state(0.4, 2, fock_input=False)
        grid = QuadratureGrid.square(2.0, 3)
        fld = evaluate_field(state, grid)
        for i, x in enumerate(grid.x_axis()):
            for j, y in enumerate(grid.y_axis()):
                density = abs(fld.values[i, j]) ** 2
                marg = position_marginal(state, x, y)
                assert abs(marg - density) < 1e-6, f"marginal off at ({x}, {y})"

    def slice_vs_pointwise():
        # the pointwise wigner_state is the oracle for the product-grid path
        # that both slice planes take
        state = _build_state(0.7, 3, fock_input=False)
        grid = QuadratureGrid.from_spec(SLICE_GRID)
        for plane in SLICE_PLANES:
            gap = np.max(np.abs(wigner_slice(state, plane, grid).values
                                - wigner_state(state, plane_points(plane, grid)[1])))
            assert gap < 1e-14, f"{plane}: off by {gap:.3e}"

    def wigner_diagonal_value():
        got = wigner_fock_diagonal(3, 0.7)
        assert abs(got - (-0.11010127013979758)) < 1e-12, f"got {got}"

    def hermite_spot_values():
        assert abs(hermite_function(50, 3.7) - (-0.05168667850813707)) < 1e-10
        assert abs(hermite_function(7, -1.3) - (-0.40609866425190538)) < 1e-10

    def transpose_involution():
        rng = np.random.default_rng(7)
        rho = state_to_density(random_state(rng, cutoff=3))
        twice = partial_transpose(partial_transpose(rho, "a"), "a")
        assert float(np.max(np.abs(twice.tensor - rho.tensor))) < 1e-14

    def bell_spectrum():
        # pins the eigensolver path, the oracle of logneg-schmidt-vs-eigh
        amp = 1 / math.sqrt(2)
        bell = TwoModeState.from_pairs({(0, 0): amp, (1, 1): amp}, cutoff=2)
        report = log_negativity(state_to_density(bell))
        assert abs(report.log_negativity - 1.0) < 1e-9, f"got {report.log_negativity}"
        assert abs(min(report.negative_eigenvalues) + 0.5) < 1e-12

    def logneg_schmidt_vs_eigh():
        rng = np.random.default_rng(5)
        for state in (_build_state(0.7, 3, fock_input=False), random_state(rng, cutoff=4)):
            fast, slow = log_negativity(state), log_negativity(state_to_density(state))
            assert len(fast.negative_eigenvalues) == len(slow.negative_eigenvalues), "spectrum size"
            gaps = np.subtract([fast.log_negativity, *fast.negative_eigenvalues],
                               [slow.log_negativity, *slow.negative_eigenvalues])
            assert np.max(np.abs(gaps)) < 1e-12, f"off by {np.max(np.abs(gaps))}"

    def quadrature_rule_sound():
        for scheme in ("tensor-gauss-hermite", "uniform-box"):
            grid = build_wigner_grid(WignerRule(scheme=scheme, order=48), cutoff=8)
            assert grid.gaussian_check() < 1e-8, f"{scheme}: {grid.gaussian_check()}"
            assert np.all(grid.weights > 0), f"{scheme}: weights not positive"

    def nv_reduced_vs_tensor():
        # the 4-D tensor engine, reached through the density matrix, is the
        # oracle for the symmetry-reduced pass the pure state takes; at one
        # matched order both carry kink errors of |W| up to a few 1e-4
        state = _build_state(0.8, 1, fock_input=False)
        rule = WignerRule(order=48)
        fast = negativity_volume(state, rule, max_refinements=0)
        slow = negativity_volume(state_to_density(state), rule, max_refinements=0)
        assert (fast.engine, slow.engine) == ("reduced-3d", "tensor-4d"), "dispatch changed"
        gap = abs(fast.volume - slow.volume)
        assert gap < TOL.nv, f"reduced {fast.volume} vs tensor {slow.volume}"

    return [
        ("tmss-normalization", tmss_normalization),
        ("tmss-amplitude-decay", tmss_amplitude_decay),
        ("splitter-unitarity", splitter_unitarity),
        ("splitter-pair-interference", splitter_pair_interference),
        ("closed-form-oracle", closed_form_oracle),
        ("field-norm", field_norm),
        ("vortex-synthetic", vortex_synthetic),
        ("wigner-normalization", wigner_normalization),
        ("wigner-marginal", wigner_marginal),
        ("slice-vs-pointwise", slice_vs_pointwise),
        ("wigner-diagonal-value", wigner_diagonal_value),
        ("hermite-spot-values", hermite_spot_values),
        ("transpose-involution", transpose_involution),
        ("bell-spectrum", bell_spectrum),
        ("logneg-schmidt-vs-eigh", logneg_schmidt_vs_eigh),
        ("quadrature-rule-sound", quadrature_rule_sound),
        ("nv-reduced-vs-tensor", nv_reduced_vs_tensor),
    ]


def cmd_selftest(args) -> int:
    checks = _selftest_checks()
    if args.inject_fault:
        inject_fault(True)
        print("fault injection enabled: closed-form phase deliberately conjugated")
    start = time.perf_counter()
    failures: List[Tuple[str, str]] = []
    records = []
    try:
        for name, fn in checks:
            t0 = time.perf_counter()
            try:
                fn()
            except Exception as exc:
                detail = f"{type(exc).__name__}: {exc}"
                failures.append((name, detail))
                records.append({"name": name, "status": "failed", "detail": detail,
                                "wall_time_s": round(time.perf_counter() - t0, 3)})
                print(f"FAIL {name}: {detail}")
            else:
                records.append({"name": name, "status": "ok",
                                "wall_time_s": round(time.perf_counter() - t0, 3)})
                print(f"ok {name}")
    finally:
        if args.inject_fault:
            inject_fault(False)
    total = time.perf_counter() - start
    print(f"selftest: {len(checks) - len(failures)}/{len(checks)} checks passed in {total:.1f}s")
    if args.out:
        _write_json(args.out, {
            "tool_version": __version__,
            "config_hash": _config_hash({"selftest": True, "inject_fault": args.inject_fault}),
            "checks": records,
            "failures": [name for name, _ in failures],
        })
    return EXIT_INVARIANT if failures else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockvortex",
        description="Two-mode Fock-space engine: beam-splitter vortex states, "
                    "Wigner negativity volume, logarithmic negativity.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figure", help="reproduce one figure pipeline into an output directory")
    p.add_argument("figure", help="figure id: 1-5 or fig1..fig5")
    p.add_argument("--out", help="output directory (default figures/fig<id>)")
    p.add_argument("--fock-input", action="store_true",
                   help="figure 1: feed twin Fock pairs |n,n> instead of squeezed input")
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser("sweep", help="run a parameter sweep described by a JSON config")
    p.add_argument("--config", required=True, help="sweep config JSON path")
    p.add_argument("--out", help="override the config's output_dir")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("selftest", help="run the built-in verification suite")
    p.add_argument("--inject-fault", action="store_true",
                   help="flip a phase in the closed form to prove the oracle check bites")
    p.add_argument("--out", help="write a JSON report here")
    p.set_defaults(fn=cmd_selftest)

    # the state options of the single-shot commands
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--r", type=float, required=True, help="squeezing parameter")
    point.add_argument("--n", type=int, required=True, help="photon-pair truncation order")
    point.add_argument("--fock-input", action="store_true", help="use |n,n> input instead of TMSS")
    point.add_argument("--pre-bs", action="store_true", help="evaluate the input state, no splitter")

    p = sub.add_parser("field", parents=[point], help="write the transverse quadrature field as CSV")
    p.add_argument("--grid", default=FIELD_GRID, help="grid spec min:max:n[,min:max:n]")
    p.add_argument("-o", "--output", required=True, help="CSV output path")
    p.add_argument("--vortices", help="also write a vortex-detection JSON report here")
    p.set_defaults(fn=cmd_field)

    p = sub.add_parser("wigner-slice", parents=[point], help="write a 2-D Wigner slice as CSV")
    p.add_argument("--plane", default="y=0,px=0", help="two fixed coords, e.g. 'y=0,px=0'")
    p.add_argument("--grid", default=SLICE_GRID, help="grid spec for the two free coords")
    p.add_argument("--diagonal-form", action="store_true",
                   help="evaluate the diagonal closed form instead of the exact W")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_wigner_slice)

    p = sub.add_parser("nv", parents=[point], help="compute the Wigner negativity volume")
    p.add_argument("--tol", type=float, default=TOL.nv)
    p.add_argument("--order", type=int, default=GH_ORDER)
    p.add_argument("--json", help="write the result as JSON here")
    p.set_defaults(fn=cmd_nv)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FockVortexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
