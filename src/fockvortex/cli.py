"""Command-line front end: figure pipelines, parameter sweeps, selftest.

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
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .beamsplitter import apply_beam_splitter, closed_form_vortex_state, inject_fault
from .config import TOL
from .entanglement import log_negativity, partial_transpose
from .errors import (
    EigensolverError,
    FockVortexError,
    GridTooCoarseError,
    InvalidParameterError,
    NonConvergenceError,
)
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
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3
EXIT_INVARIANT = 4

_USAGE_ERRORS = (InvalidParameterError,)
_NONCONV_ERRORS = (NonConvergenceError, EigensolverError, GridTooCoarseError)

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
FIELD_GRID = "-6.0:6.0:301"
SLICE_GRID = "-3.5:3.5:101"
SWEEP_OUTPUTS = ("field", "vortices", "wigner-slice", "nv", "logneg")


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


def _config_hash(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _num_tag(value) -> str:
    return str(value).replace(".", "p").replace("-", "m")


def _workers() -> int:
    env = os.environ.get("FOCKVORTEX_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise InvalidParameterError(f"FOCKVORTEX_THREADS must be an integer, got {env!r}")
        if n < 1:
            raise InvalidParameterError(f"FOCKVORTEX_THREADS must be >= 1, got {n}")
        return n
    return min(4, os.cpu_count() or 1)


def _build_state(r: float, n: int, fock_input: bool, pre_bs: bool = False) -> TwoModeState:
    if fock_input:
        before = TwoModeState({(n, n): 1.0}, cutoff=2 * n)
    else:
        before = make_tmss(SqueezeParams(r=r, n_max=n))
    return before if pre_bs else apply_beam_splitter(before)


# ---------------------------------------------------------------------------
# task runner with manifest + resume
# ---------------------------------------------------------------------------

class Task(NamedTuple):
    name: str
    outputs: Tuple[str, ...]              # artifact paths relative to out_dir
    run: Callable[[], Optional[dict]]     # computes + writes artifacts, returns payload
    load: Optional[Callable[[], Optional[dict]]] = None  # payload from existing artifacts


def _run_pipeline(
    out_dir: str,
    config_doc: dict,
    tasks: Sequence[Task],
    aggregate: Optional[Tuple[Tuple[str, ...], Callable[[dict], None]]] = None,
) -> int:
    """Run tasks on a thread pool, maintain manifest.json, support resume.

    aggregate = (relative output paths, fn(payloads by task name)) run after
    all tasks; skipped when every task was cached and its outputs are intact.
    The manifest records each artifact's size in bytes; an artifact counts as
    intact on resume only when its size still matches (no hashing, so a warm
    rerun stays a few stat calls).
    """
    os.makedirs(out_dir, exist_ok=True)
    cfg_hash = _config_hash(config_doc)
    manifest_path = os.path.join(out_dir, "manifest.json")

    prev_ok = set()
    sizes: dict = {}  # relative artifact path -> size in bytes when written
    if os.path.exists(manifest_path):
        try:
            with open(manifest_path) as fh:
                old = json.load(fh)
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

    entries = {
        t.name: {"name": t.name, "status": "pending", "outputs": list(t.outputs), "wall_time_s": 0.0}
        for t in tasks
    }
    order = [t.name for t in tasks]

    def flush_manifest() -> None:
        _write_json(
            manifest_path,
            {
                "tool_version": __version__,
                "config_hash": cfg_hash,
                "config": config_doc,
                "tasks": [entries[n] for n in order],
                "artifact_sizes": dict(sorted(sizes.items())),
            },
        )

    cached, to_run = [], []
    for t in tasks:
        if t.name in prev_ok and intact(t.outputs) and (aggregate is None or t.load is not None):
            cached.append(t)
        else:
            to_run.append(t)

    agg_pending = aggregate is not None and (bool(to_run) or not intact(aggregate[0]))
    if not to_run and not agg_pending:
        print(f"{out_dir}: all {len(tasks)} tasks cached; nothing to do")
        return EXIT_OK

    payloads: dict = {}
    failures: List[Tuple[str, BaseException]] = []
    for t in cached:
        entries[t.name]["status"] = "cached"
        if t.load is not None:
            payloads[t.name] = t.load()

    def execute(task: Task):
        start = time.perf_counter()
        try:
            payload = task.run()
            return task.name, payload, time.perf_counter() - start, None
        except BaseException as exc:  # recorded per task; pipeline continues
            return task.name, None, time.perf_counter() - start, exc

    flush_manifest()
    if to_run:
        with ThreadPoolExecutor(max_workers=_workers()) as pool:
            for name, payload, wall, exc in pool.map(execute, to_run):
                entry = entries[name]
                entry["wall_time_s"] = round(wall, 3)
                if exc is None:
                    entry["status"] = "ok"
                    payloads[name] = payload
                    record_sizes(entry["outputs"])
                    print(f"ok {name} ({wall:.2f}s)")
                else:
                    entry["status"] = "failed"
                    entry["error"] = f"{type(exc).__name__}: {exc}"
                    failures.append((name, exc))
                    print(f"FAIL {name}: {type(exc).__name__}: {exc}")
                flush_manifest()

    if aggregate is not None and not failures and agg_pending:
        aggregate[1](payloads)
        record_sizes(aggregate[0])
    flush_manifest()

    if failures:
        print(f"{len(failures)}/{len(tasks)} tasks failed", file=sys.stderr)
        if any(isinstance(e, _USAGE_ERRORS) for _, e in failures):
            return EXIT_USAGE
        if any(isinstance(e, _NONCONV_ERRORS) for _, e in failures):
            return EXIT_NONCONVERGENCE
        return EXIT_INVARIANT
    print(f"{out_dir}: {len(to_run)} tasks run, {len(cached)} cached")
    return EXIT_OK


# ---------------------------------------------------------------------------
# shared artifact builders
# ---------------------------------------------------------------------------

def _field_task(out_dir: str, tag: str, r: float, n: int, fock_input: bool, grid_spec: str,
                with_vortices: bool = True) -> Task:
    field_rel = f"field_{tag}.csv"
    vort_rel = f"vortices_{tag}.json"
    outputs = (field_rel, vort_rel) if with_vortices else (field_rel,)

    def run() -> None:
        state = _build_state(r, n, fock_input)
        grid = QuadratureGrid.from_spec(grid_spec)
        fld = evaluate_field(state, grid)
        _write_via(os.path.join(out_dir, field_rel), fld.to_csv)
        if with_vortices:
            report = count_vortices(fld)
            doc = {"r": r, "n_max": n, "input": "fock" if fock_input else "tmss",
                   "grid": grid_spec}
            doc.update(report.to_json_dict())
            _write_json(os.path.join(out_dir, vort_rel), doc)

    return Task(f"field-{tag}", outputs, run)


def _slice_task(out_dir: str, tag: str, r: float, n: int, plane: dict, grid_spec: str) -> Task:
    rel = f"slice_{tag}.csv"

    def run() -> None:
        state = _build_state(r, n, fock_input=False)
        sl = wigner_slice(state, plane, QuadratureGrid.from_spec(grid_spec))
        _write_via(os.path.join(out_dir, rel), sl.to_csv)

    return Task(f"slice-{tag}", (rel,), run)


def _logneg_row(r: float, n: int) -> dict:
    before = make_tmss(SqueezeParams(r=r, n_max=n))
    after = apply_beam_splitter(before)
    l_before = log_negativity(before).log_negativity
    l_after = log_negativity(after).log_negativity
    ratio = l_after / l_before if l_before > 0 else None
    return {"r": r, "n": n, "l_before": l_before, "l_after": l_after, "ratio": ratio}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# figure pipelines
# ---------------------------------------------------------------------------

def _figure_tasks(figure: int, out_dir: str, fock_input: bool):
    """(config_doc, tasks, aggregate) for one figure pipeline."""
    if figure == 1:
        cfg = {"figure": 1, "r": FIG1_R, "n_values": list(FIG1_N_VALUES),
               "input": "fock" if fock_input else "tmss", "grid": FIELD_GRID}
        tasks = [
            _field_task(out_dir, f"n{n}", FIG1_R, n, fock_input, FIELD_GRID)
            for n in FIG1_N_VALUES
        ]
        return cfg, tasks, None

    if figure == 2:
        cfg = {"figure": 2, "n_max": FIG2_N, "r_values": list(FIG2_R_VALUES),
               "planes": list(SLICE_PLANES), "grid": SLICE_GRID}
        tasks = [
            _slice_task(out_dir, f"r{_num_tag(r)}_plane{i}", r, FIG2_N, plane, SLICE_GRID)
            for r in FIG2_R_VALUES
            for i, plane in enumerate(SLICE_PLANES, start=1)
        ]
        return cfg, tasks, None

    if figure == 3:
        cfg = {"figure": 3, "r": FIG3_R, "n_values": list(FIG3_N_VALUES),
               "planes": list(SLICE_PLANES), "grid": SLICE_GRID}
        tasks = [
            _slice_task(out_dir, f"n{n}_plane{i}", FIG3_R, n, plane, SLICE_GRID)
            for n in FIG3_N_VALUES
            for i, plane in enumerate(SLICE_PLANES, start=1)
        ]
        return cfg, tasks, None

    if figure == 4:
        cfg = {"figure": 4, "n_values": list(FIG4_N_VALUES), "r_values": list(FIG4_R_VALUES)}
        tasks = []
        for n in FIG4_N_VALUES:
            for r in FIG4_R_VALUES:
                tag = f"n{n}_r{_num_tag(r)}"
                rel = f"nv_{tag}.json"

                def run(r=r, n=n, rel=rel) -> dict:
                    result = negativity_volume(_build_state(r, n, fock_input=False))
                    doc = {"r": r, "n_max": n}
                    doc.update(result.to_json_dict())
                    _write_json(os.path.join(out_dir, rel), doc)
                    return doc

                def load(rel=rel) -> dict:
                    with open(os.path.join(out_dir, rel)) as fh:
                        return json.load(fh)

                tasks.append(Task(f"nv-{tag}", (rel,), run, load))

        def assemble(payloads: dict) -> None:
            rows = sorted(payloads.values(), key=lambda d: (d["n_max"], d["r"]))
            lines = ["r,n,nv,normalization_check,final_order,converged"]
            for d in rows:
                final_order = d["resolution_history"][-1][0]
                lines.append(
                    f"{_fmt(float(d['r']))},{d['n_max']},{_fmt(float(d['volume']))},"
                    f"{_fmt(float(d['normalization_check']))},{final_order},{d['converged']}"
                )
            _write_atomic(os.path.join(out_dir, "nv_table.csv"), "\n".join(lines) + "\n")

        return cfg, tasks, (("nv_table.csv",), assemble)

    if figure == 5:
        cfg = {"figure": 5, "n_values": list(FIG5_N_VALUES), "r_values": list(FIG5_R_VALUES)}
        tasks = []
        for n in FIG5_N_VALUES:
            rel = f"logneg_n{n}.json"

            def run(n=n, rel=rel) -> dict:
                rows = [_logneg_row(r, n) for r in FIG5_R_VALUES]
                doc = {"n_max": n, "rows": rows}
                _write_json(os.path.join(out_dir, rel), doc)
                return doc

            def load(rel=rel) -> dict:
                with open(os.path.join(out_dir, rel)) as fh:
                    return json.load(fh)

            tasks.append(Task(f"logneg-n{n}", (rel,), run, load))

        def assemble(payloads: dict) -> None:
            lines = ["r,n,l_before,l_after,ratio"]
            for doc in sorted(payloads.values(), key=lambda d: d["n_max"]):
                for row in doc["rows"]:
                    lines.append(
                        f"{_fmt(float(row['r']))},{row['n']},{_fmt(float(row['l_before']))},"
                        f"{_fmt(float(row['l_after']))},"
                        f"{_fmt(None if row['ratio'] is None else float(row['ratio']))}"
                    )
            _write_atomic(os.path.join(out_dir, "logneg_table.csv"), "\n".join(lines) + "\n")

        return cfg, tasks, (("logneg_table.csv",), assemble)

    raise InvalidParameterError(f"unknown figure id {figure}; expected 1-5")


def cmd_figure(args) -> int:
    try:
        figure = int(args.figure.lstrip("fig")) if isinstance(args.figure, str) else args.figure
    except ValueError:
        raise InvalidParameterError(f"figure id must be 1-5 or fig1..fig5, got {args.figure!r}")
    out_dir = args.out or os.path.join("figures", f"fig{figure}")
    cfg, tasks, aggregate = _figure_tasks(figure, out_dir, args.fock_input)
    return _run_pipeline(out_dir, cfg, tasks, aggregate)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _load_sweep_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InvalidParameterError(f"cannot read sweep config {path}: {exc}")
    except ValueError as exc:
        raise InvalidParameterError(f"sweep config {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise InvalidParameterError("sweep config must be a JSON object")
    for key in ("r_values", "n_values", "outputs"):
        if key not in raw:
            raise InvalidParameterError(f"sweep config missing required key {key!r}")
    r_values = [float(r) for r in raw["r_values"]]
    n_values = [int(n) for n in raw["n_values"]]
    outputs = list(raw["outputs"])
    if not r_values or not n_values:
        raise InvalidParameterError("r_values and n_values must be non-empty")
    for r in r_values:
        for n in n_values:
            SqueezeParams(r=r, n_max=n)
    unknown = set(outputs) - set(SWEEP_OUTPUTS)
    if not outputs or unknown:
        raise InvalidParameterError(
            f"outputs must be a non-empty subset of {SWEEP_OUTPUTS}; offending: {sorted(unknown)}"
        )
    cfg = {
        "r_values": r_values,
        "n_values": n_values,
        "outputs": sorted(outputs),
        "grid": str(raw.get("grid", FIELD_GRID)),
        "slice_grid": str(raw.get("slice_grid", SLICE_GRID)),
        "slice_plane": raw.get("slice_plane", {"y": 0.0, "px": 0.0}),
        "nv_tol": float(raw.get("nv_tol", TOL.nv)),
        "nv_order": int(raw.get("nv_order", WignerRule().order)),
        "output_dir": raw.get("output_dir", "sweep-out"),
    }
    if not isinstance(cfg["slice_plane"], dict):
        raise InvalidParameterError("slice_plane must be an object of coordinate: value")
    plane_free_coords(cfg["slice_plane"])
    WignerRule(order=cfg["nv_order"])
    if not cfg["nv_tol"] > 0:
        raise InvalidParameterError(f"nv_tol must be > 0, got {cfg['nv_tol']}")
    return cfg


def cmd_sweep(args) -> int:
    cfg = _load_sweep_config(args.config)
    out_dir = args.out or cfg["output_dir"]
    outputs = cfg["outputs"]
    want = {name: name in outputs for name in SWEEP_OUTPUTS}

    tasks: List[Task] = []
    for n in cfg["n_values"]:
        for r in cfg["r_values"]:
            tag = f"r{_num_tag(r)}_n{n}"
            rels: List[str] = []
            if want["field"] or want["vortices"]:
                rels.append(f"field_{tag}.csv")
            if want["vortices"]:
                rels.append(f"vortices_{tag}.json")
            if want["wigner-slice"]:
                rels.append(f"slice_{tag}.csv")
            if want["nv"]:
                rels.append(f"nv_{tag}.json")
            if want["logneg"]:
                rels.append(f"logneg_{tag}.json")

            def run(r=r, n=n, tag=tag) -> dict:
                payload = {"r": r, "n": n, "l_before": None, "l_after": None,
                           "ratio": None, "nv": None}
                state = None
                if want["field"] or want["vortices"]:
                    state = _build_state(r, n, fock_input=False)
                    fld = evaluate_field(state, QuadratureGrid.from_spec(cfg["grid"]))
                    _write_via(os.path.join(out_dir, f"field_{tag}.csv"), fld.to_csv)
                    if want["vortices"]:
                        doc = {"r": r, "n_max": n, "input": "tmss", "grid": cfg["grid"]}
                        doc.update(count_vortices(fld).to_json_dict())
                        _write_json(os.path.join(out_dir, f"vortices_{tag}.json"), doc)
                if want["wigner-slice"]:
                    state = state or _build_state(r, n, fock_input=False)
                    sl = wigner_slice(state, cfg["slice_plane"],
                                      QuadratureGrid.from_spec(cfg["slice_grid"]))
                    _write_via(os.path.join(out_dir, f"slice_{tag}.csv"), sl.to_csv)
                if want["nv"]:
                    state = state or _build_state(r, n, fock_input=False)
                    result = negativity_volume(
                        state, WignerRule(order=cfg["nv_order"]), tol=cfg["nv_tol"]
                    )
                    payload["nv"] = result.volume
                    doc = {"r": r, "n_max": n}
                    doc.update(result.to_json_dict())
                    _write_json(os.path.join(out_dir, f"nv_{tag}.json"), doc)
                if want["logneg"]:
                    row = _logneg_row(r, n)
                    payload.update(
                        l_before=row["l_before"], l_after=row["l_after"], ratio=row["ratio"]
                    )
                    _write_json(os.path.join(out_dir, f"logneg_{tag}.json"), row)
                return payload

            def load(r=r, n=n, tag=tag) -> dict:
                payload = {"r": r, "n": n, "l_before": None, "l_after": None,
                           "ratio": None, "nv": None}
                if want["nv"]:
                    with open(os.path.join(out_dir, f"nv_{tag}.json")) as fh:
                        payload["nv"] = json.load(fh)["volume"]
                if want["logneg"]:
                    with open(os.path.join(out_dir, f"logneg_{tag}.json")) as fh:
                        row = json.load(fh)
                    payload.update(
                        l_before=row["l_before"], l_after=row["l_after"], ratio=row["ratio"]
                    )
                return payload

            tasks.append(Task(f"point-{tag}", tuple(rels), run, load))

    def assemble(payloads: dict) -> None:
        rows = sorted(payloads.values(), key=lambda d: (d["n"], d["r"]))
        header = "r,n,l_before,l_after,ratio" + (",nv" if want["nv"] else "")
        lines = [header]
        for d in rows:
            line = (
                f"{_fmt(float(d['r']))},{d['n']},"
                f"{_fmt(None if d['l_before'] is None else float(d['l_before']))},"
                f"{_fmt(None if d['l_after'] is None else float(d['l_after']))},"
                f"{_fmt(None if d['ratio'] is None else float(d['ratio']))}"
            )
            if want["nv"]:
                line += f",{_fmt(None if d['nv'] is None else float(d['nv']))}"
            lines.append(line)
        _write_atomic(os.path.join(out_dir, "sweep.csv"), "\n".join(lines) + "\n")

    return _run_pipeline(out_dir, cfg, tasks, (("sweep.csv",), assemble))


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
        doc = {"r": args.r, "n_max": args.n,
               "input": "fock" if args.fock_input else "tmss", "grid": args.grid}
        doc.update(report.to_json_dict())
        _write_json(args.vortices, doc)
        print(f"vortices: count={report.count} total_charge={report.total_charge} "
              f"-> {args.vortices}")
    return EXIT_OK


def cmd_wigner_slice(args) -> int:
    plane = _parse_plane(args.plane)
    grid = QuadratureGrid.from_spec(args.grid)
    if args.diagonal_form:
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
    rule = WignerRule(scheme=args.scheme, order=args.order, box_half_width=args.box_half_width)
    result = negativity_volume(state, rule, tol=args.tol)
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
        out = apply_beam_splitter(TwoModeState({(1, 1): 1.0}, cutoff=2))
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

    def wigner_diagonal_value():
        got = wigner_fock_diagonal(3, 0.7)
        assert abs(got - (-0.11010127013979758)) < 1e-12, f"got {got}"

    def hermite_spot_values():
        assert abs(hermite_function(50, 3.7) - (-0.05168667850813707)) < 1e-10
        assert abs(hermite_function(7, -1.3) - (-0.40609866425190538)) < 1e-10

    def transpose_involution():
        rng = np.random.default_rng(7)
        rho = state_to_density(random_state(rng, cutoff=3))
        twice = partial_transpose(partial_transpose(rho, "a").matrix, "a").matrix
        assert float(np.max(np.abs(twice.tensor - rho.tensor))) < 1e-14

    def bell_spectrum():
        bell = TwoModeState({(0, 0): 1 / math.sqrt(2), (1, 1): 1 / math.sqrt(2)}, cutoff=2)
        report = log_negativity(bell)
        assert abs(report.log_negativity - 1.0) < 1e-9, f"got {report.log_negativity}"
        assert abs(min(report.negative_eigenvalues) + 0.5) < 1e-12

    def mode_symmetry():
        state = _build_state(0.7, 3, fock_input=False)
        la = log_negativity(state, mode="a").log_negativity
        lb = log_negativity(state, mode="b").log_negativity
        assert abs(la - lb) < 1e-10, f"{la} vs {lb}"

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
        ("wigner-diagonal-value", wigner_diagonal_value),
        ("hermite-spot-values", hermite_spot_values),
        ("transpose-involution", transpose_involution),
        ("bell-spectrum", bell_spectrum),
        ("mode-symmetry", mode_symmetry),
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
            except BaseException as exc:
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

    p = sub.add_parser("field", help="write the transverse quadrature field as CSV")
    p.add_argument("--r", type=float, required=True, help="squeezing parameter")
    p.add_argument("--n", type=int, required=True, help="photon-pair truncation order")
    p.add_argument("--fock-input", action="store_true", help="use |n,n> input instead of TMSS")
    p.add_argument("--pre-bs", action="store_true", help="evaluate the input state, no splitter")
    p.add_argument("--grid", default=FIELD_GRID, help="grid spec min:max:n[,min:max:n]")
    p.add_argument("-o", "--output", required=True, help="CSV output path")
    p.add_argument("--vortices", help="also write a vortex-detection JSON report here")
    p.set_defaults(fn=cmd_field)

    p = sub.add_parser("wigner-slice", help="write a 2-D Wigner slice as CSV")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--fock-input", action="store_true")
    p.add_argument("--pre-bs", action="store_true")
    p.add_argument("--plane", default="y=0,px=0", help="two fixed coords, e.g. 'y=0,px=0'")
    p.add_argument("--grid", default=SLICE_GRID, help="grid spec for the two free coords")
    p.add_argument("--diagonal-form", action="store_true",
                   help="evaluate the diagonal closed form instead of the exact W")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_wigner_slice)

    p = sub.add_parser("nv", help="compute the Wigner negativity volume")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--fock-input", action="store_true")
    p.add_argument("--pre-bs", action="store_true")
    p.add_argument("--tol", type=float, default=TOL.nv)
    p.add_argument("--order", type=int, default=WignerRule().order)
    p.add_argument("--scheme", default="tensor-gauss-hermite",
                   choices=("tensor-gauss-hermite", "uniform-box"))
    p.add_argument("--box-half-width", type=float, default=None)
    p.add_argument("--json", help="write the result as JSON here")
    p.set_defaults(fn=cmd_nv)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NONCONV_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except FockVortexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
