"""Command-line front end: figure pipelines, parameter sweeps, selftest.

Figure tasks, sweep points and the ``field``, ``wigner-slice`` and ``nv``
commands write every field CSV, vortex JSON, Wigner-slice CSV, NV JSON and
log-negativity JSON through one per-(r, N) function, ``_point``, which
checks the settings before it builds the input.  The tables
(``nv_table.csv``, ``logneg_table.csv``, ``sweep.csv``) all go through one
writer, ``_write_table``.

Artifacts (CSV/JSON data files) are written atomically (temp file +
rename) and are byte-identical across runs with identical inputs.  Each
pipeline directory carries a compact-JSON manifest.json recording the
tool version, a hash of the resolved configuration, the size of every
artifact whose task succeeded, and per-task status; the manifest holds
wall times (a run log, not a deterministic artifact) and is written at most
once a second and at the end.  Re-running a completed pipeline with an
unchanged configuration and tool version recomputes and rewrites nothing.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

# The config fingerprint is one SHA-256 per run.  hashlib loads OpenSSL's
# libcrypto (~3.6 MB of RSS), so take the interpreter's built-in SHA-256
# first, as CPython's random.py does for SHA-512; the digest is the same.
try:
    from _sha2 import sha256 as _sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:  # an interpreter built without built-in hashes
        from hashlib import sha256 as _sha256

from . import __version__
from .beamsplitter import apply_beam_splitter
from .config import GH_ORDER, TOL
from .entanglement import log_negativity
from .errors import FockVortexError, InvalidParameterError, NonConvergenceError
from .quadrature import QuadratureGrid, count_vortices, evaluate_field
from .states import SqueezeParams, TwoModeState, make_tmss
from .wigner import (
    WignerSlice,
    check_ladder,
    negativity_volume,
    plane_free_coords,
    plane_points,
    wigner_diagonal_form,
    wigner_slice,
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
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # name the path asked for, not the temp file
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _check_outputs(*paths: Optional[str]) -> None:
    """Fail before any work on an output path whose directory is missing."""
    for path in filter(None, paths):
        if not os.path.exists(os.path.dirname(path) or "."):
            raise InvalidParameterError(f"cannot write {path}: no such directory")


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
    return _sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _num_tag(value) -> str:
    return str(value).replace(".", "p").replace("-", "m")


def _exit_code(exc: Exception) -> int:
    """2 for a usage error, 3 for non-convergence, 4 for anything else."""
    if isinstance(exc, InvalidParameterError):
        return EXIT_USAGE
    return EXIT_NONCONVERGENCE if isinstance(exc, NonConvergenceError) else EXIT_INVARIANT


def _build_state(r: float, n: int, fock_input: bool) -> TwoModeState:
    params = SqueezeParams(r=r, n_max=n)  # checks r for the Fock input too, which records it
    if fock_input:
        return TwoModeState.from_pairs({(n, n): 1.0}, cutoff=2 * n)
    return make_tmss(params)


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

    The manifest's artifact sizes are the one resume record: a size is
    recorded only when the task that wrote the artifact succeeds, and only
    a manifest of the same config hash and tool version is read.  A task is
    cached when each of its outputs still has its recorded size (no hashing,
    so a warm rerun stays a few stat calls), and a cached one whose payload
    cannot be read back is recomputed.  Statuses, errors and wall times are
    a run log, written as compact JSON after a task that ends 1 s or more
    after the last write and once as the run ends, however it ends: a hard
    kill loses at most a second of records, whose tasks rerun on resume.
    A task's ``Exception`` is recorded and the next task runs, and an
    interrupt aborts the run.  When anything must run, ``table`` is deleted
    first and written from every task's payload only if every task succeeds.
    """
    os.makedirs(out_dir, exist_ok=True)
    cfg_hash = _config_hash(config_doc)
    manifest_path = os.path.join(out_dir, "manifest.json")

    sizes: dict = {}  # relative artifact path -> size in bytes when its task succeeded
    try:
        old = _read_json(manifest_path)
        if old.get("config_hash") == cfg_hash and old.get("tool_version") == __version__:
            sizes = {str(rel): int(n) for rel, n in old.get("artifact_sizes", {}).items()}
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        pass

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
        doc = {"tool_version": __version__, "config_hash": cfg_hash, "config": config_doc,
               "tasks": list(entries.values()), "artifact_sizes": sizes}
        _write_atomic(manifest_path, json.dumps(doc, sort_keys=True) + "\n")

    cached = [t for t in tasks if intact(t.outputs)]
    if len(cached) == len(tasks) and (table is None or intact((table[0],))):
        print(f"{out_dir}: all {len(tasks)} tasks cached; nothing to do")
        return EXIT_OK
    if not sizes and os.path.exists(manifest_path):
        # another config's manifest would vouch for what this run overwrites
        # until the first task ends, so a run killed before then must not leave it
        os.remove(manifest_path)
    if table is not None:
        sizes.pop(table[0], None)
        if os.path.exists(os.path.join(out_dir, table[0])):
            os.remove(os.path.join(out_dir, table[0]))

    payloads: dict = {}
    for t in cached:
        try:
            payloads[t.name] = t.load()
        except (OSError, ValueError, KeyError):  # right size, unreadable content
            continue
        entries[t.name]["status"] = "cached"
    to_run = [t for t in tasks if t.name not in payloads]

    failures: List[Exception] = []
    flushed = time.monotonic()
    try:
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
            if time.monotonic() - flushed >= 1.0:  # a hard kill loses at most this much
                flush_manifest()
                flushed = time.monotonic()

        if table is not None and not failures:
            rel, header, rows = table
            _write_table(os.path.join(out_dir, rel), header, rows(payloads))
            record_sizes((rel,))
    finally:
        flush_manifest()

    if failures:
        print(f"{len(failures)}/{len(tasks)} tasks failed", file=sys.stderr)
        return min(map(_exit_code, failures))  # usage, then non-convergence, then invariant
    print(f"{out_dir}: {len(to_run)} tasks run, {len(tasks) - len(to_run)} cached")
    return EXIT_OK


# ---------------------------------------------------------------------------
# per-point task and tables
# ---------------------------------------------------------------------------

def _point_settings(cfg: dict, kinds) -> Tuple[Optional[QuadratureGrid], Optional[QuadratureGrid]]:
    """Check the ``POINT_DEFAULTS`` keys of ``cfg`` that the artifact ``kinds``
    read, and return the (field, slice) grids, None for a kind not among them."""
    grid = slice_grid = None
    if "field" in kinds:
        grid = QuadratureGrid.from_spec(cfg["grid"])
    if "wigner-slice" in kinds:
        slice_grid = QuadratureGrid.from_spec(cfg["slice_grid"])
        if not isinstance(cfg["slice_plane"], dict):
            raise InvalidParameterError("slice_plane must be an object of coordinate: value")
        plane_free_coords(cfg["slice_plane"])
    if "nv" in kinds:
        check_ladder(cfg["nv_order"], cfg["nv_tol"])
    return grid, slice_grid


def _point(paths: dict, r: float, n: int, cfg: dict, fock_input: bool = False,
           pre_bs: bool = False) -> dict:
    """The one production path of every per-(r, N) artifact: checks ``cfg``
    (``_point_settings``), then writes each kind of ``paths``
    (``_ARTIFACT_NAMES`` key -> path, None to write nothing; vortices need the
    field) and returns each result by kind.  NV integrates the input (the
    splitter is passive), the other kinds its image, unless ``pre_bs``."""
    grid, slice_grid = _point_settings(cfg, paths)
    out: dict = {}
    before = _build_state(r, n, fock_input)
    state = before if pre_bs or paths.keys() <= {"nv"} else apply_beam_splitter(before)
    if "field" in paths:
        out["field"] = evaluate_field(state, grid)
        _write_via(paths["field"], out["field"].to_csv)
    if "vortices" in paths:
        kind = "fock" if fock_input else "tmss"
        out["vortices"] = {"r": r, "n_max": n, "input": f"{kind}, no splitter" if pre_bs else kind,
                           "grid": cfg["grid"], **count_vortices(out["field"]).to_json_dict()}
        _write_json(paths["vortices"], out["vortices"])
    if "wigner-slice" in paths:
        out["wigner-slice"] = wigner_slice(state, cfg["slice_plane"], slice_grid)
        _write_via(paths["wigner-slice"], out["wigner-slice"].to_csv)
    if "nv" in paths:
        result = negativity_volume(before, cfg["nv_order"], tol=cfg["nv_tol"])
        out["nv"] = {"r": r, "n_max": n, **result.to_json_dict()}
        if paths["nv"]:
            _write_json(paths["nv"], out["nv"])
    if "logneg" in paths:
        out["logneg"] = _logneg_row(r, n, before, state)
        _write_json(paths["logneg"], out["logneg"])
    return out


def _point_task(out_dir: str, name: str, tag: str, r: float, n: int, cfg: dict,
                fock_input: bool = False) -> Task:
    """``_point`` as a pipeline task writing ``cfg["outputs"]``, and the field for
    vortices, with ``tag``; its payload is r, n and the NV and log-negativity docs."""
    kinds = set(cfg["outputs"])
    if "vortices" in kinds:
        kinds.add("field")
    rels = {kind: pattern.format(tag) for kind, pattern in _ARTIFACT_NAMES.items() if kind in kinds}
    paths = {kind: os.path.join(out_dir, rel) for kind, rel in rels.items()}
    docs = kinds & {"nv", "logneg"}

    def run() -> dict:
        out = _point(paths, r, n, cfg, fock_input)
        return {"r": r, "n": n, **{kind: out[kind] for kind in docs}}

    def load() -> dict:
        return {"r": r, "n": n, **{kind: _read_json(paths[kind]) for kind in docs}}

    return Task(name, tuple(rels.values()), run, load)


def _logneg_row(r: float, n: int, before: TwoModeState, after: TwoModeState) -> dict:
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


def _logneg_rows(payloads: dict, with_nv: bool = False):
    """Rows of ``logneg_table.csv`` and ``sweep.csv``: each point's own r and n,
    blank log-negativity cells where it was not asked for, then its NV."""
    for p in _by_point(payloads):
        row = [p.get("logneg", p).get(k) for k in _LOGNEG_COLUMNS]
        yield row + [p["nv"]["volume"]] if with_nv else row


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

    # figures 4 and 5: one NV or log-negativity document per (N, r)
    kind, n_values, r_values = (("nv", FIG4_N_VALUES, FIG4_R_VALUES) if figure == 4
                                else ("logneg", FIG5_N_VALUES, FIG5_R_VALUES))
    cfg = {"figure": figure, "n_values": list(n_values), "r_values": list(r_values)}
    point = dict(POINT_DEFAULTS, outputs=(kind,))
    tasks = []
    for n in n_values:
        for r in r_values:
            tag = f"n{n}_r{_num_tag(r)}"
            tasks.append(_point_task(out_dir, f"{kind}-{tag}", tag, r, n, point))
    if figure == 5:
        return cfg, tasks, ("logneg_table.csv", _LOGNEG_COLUMNS, _logneg_rows)

    def nv_rows(payloads: dict):
        for p in _by_point(payloads):
            d = p["nv"]
            yield (p["r"], p["n"], d["volume"], d["normalization_check"],
                   d["resolution_history"][-1][0], d["converged"])

    header = ("r", "n", "nv", "normalization_check", "final_order", "converged")
    return cfg, tasks, ("nv_table.csv", header, nv_rows)


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
    unread = sorted(set(raw) - {"r_values", "n_values", "outputs", "output_dir", *POINT_DEFAULTS})
    if unread:  # a misspelt setting would otherwise run at its default
        raise InvalidParameterError(f"sweep config keys that nothing reads: {unread}")
    settings = dict(POINT_DEFAULTS, **raw)
    try:
        if not raw["r_values"] or not raw["n_values"]:
            raise InvalidParameterError("r_values and n_values must be non-empty")
        # the library's own checks first: a bool, a string or an integral
        # float is not a count, and a bool or a string is not a number
        for r in raw["r_values"]:
            for n in raw["n_values"]:
                SqueezeParams(r=r, n_max=n)
        cfg = {
            "r_values": [float(r) for r in raw["r_values"]],  # JSON 1 tags r1p0
            "n_values": raw["n_values"],
            "outputs": sorted(raw["outputs"]),
            "grid": str(settings["grid"]),
            "slice_grid": str(settings["slice_grid"]),
            "slice_plane": settings["slice_plane"],
            "nv_tol": settings["nv_tol"],
            "nv_order": settings["nv_order"],
            "output_dir": raw.get("output_dir", "sweep-out"),
        }
        # every kind's settings, whichever the sweep writes
        _point_settings(cfg, SWEEP_OUTPUTS)
        for count in (*cfg["n_values"], cfg["nv_order"]):
            float(count)  # past the float range a count is no JSON number: OverflowError
        cfg["nv_tol"] = float(cfg["nv_tol"])
    except (TypeError, OverflowError) as exc:  # a number where a list belongs; a huge integer
        raise InvalidParameterError(f"malformed sweep config value: {exc}")
    for key in ("r_values", "n_values"):
        # a repeated value would run its points twice under one task name
        if len(set(cfg[key])) != len(cfg[key]):
            raise InvalidParameterError(f"{key} must not repeat a value: {cfg[key]}")
    unknown = [kind for kind in cfg["outputs"] if kind not in SWEEP_OUTPUTS]
    if not cfg["outputs"] or unknown:
        raise InvalidParameterError(
            f"outputs must be a non-empty subset of {SWEEP_OUTPUTS}; offending: {unknown}"
        )
    if not isinstance(cfg["output_dir"], str):
        raise InvalidParameterError(f"output_dir must be a path string, got {cfg['output_dir']!r}")
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
    header = _LOGNEG_COLUMNS + (("nv",) if with_nv else ())
    table = ("sweep.csv", header, lambda payloads: _logneg_rows(payloads, with_nv))
    return _run_pipeline(out_dir, cfg, tasks, table)


# ---------------------------------------------------------------------------
# single-shot commands
# ---------------------------------------------------------------------------

def _parse_plane(text: str) -> dict:
    plane = {}
    for part in text.split(","):
        if "=" not in part:
            raise InvalidParameterError(f"plane entries must look like coord=value, got {part!r}")
        key, _, val = part.partition("=")
        key = key.strip()
        if key in plane:
            raise InvalidParameterError(f"plane coordinate {key!r} is given twice")
        try:
            plane[key] = float(val)
        except ValueError:
            raise InvalidParameterError(f"plane value for {key!r} is not a number: {val!r}")
    return plane


def cmd_field(args) -> int:
    _check_outputs(args.output, args.vortices)
    paths = {"field": args.output, **({"vortices": args.vortices} if args.vortices else {})}
    out = _point(paths, args.r, args.n, dict(POINT_DEFAULTS, grid=args.grid), args.fock_input,
                 args.pre_bs)
    print(f"field written to {args.output} (grid {args.grid}, "
          f"riemann norm {out['field'].norm_riemann():.6f})")
    if args.vortices:
        doc = out["vortices"]
        print(f"vortices: count={doc['count']} total_charge={doc['total_charge']} -> {args.vortices}")
    return EXIT_OK


def cmd_wigner_slice(args) -> int:
    _check_outputs(args.output)
    plane = POINT_DEFAULTS["slice_plane"] if args.plane is None else _parse_plane(args.plane)
    if args.diagonal_form:
        grid = QuadratureGrid.from_spec(args.grid)
        if args.fock_input or args.pre_bs:
            raise InvalidParameterError("--diagonal-form takes neither --fock-input nor --pre-bs")
        free, point = plane_points(plane, grid)
        sl = WignerSlice(free, grid, wigner_diagonal_form(SqueezeParams(r=args.r, n_max=args.n), point))
        _write_via(args.output, sl.to_csv)
    else:
        cfg = dict(POINT_DEFAULTS, slice_grid=args.grid, slice_plane=plane)
        sl = _point({"wigner-slice": args.output}, args.r, args.n, cfg, args.fock_input,
                    args.pre_bs)["wigner-slice"]
    print(f"{'diagonal-form ' if args.diagonal_form else ''}slice written to {args.output} "
          f"(min {sl.values.min():.6f}, max {sl.values.max():.6f})")
    return EXIT_OK


def cmd_nv(args) -> int:
    _check_outputs(args.json)
    cfg = dict(POINT_DEFAULTS, nv_order=args.order, nv_tol=args.tol)
    doc = _point({"nv": args.json}, args.r, args.n, cfg, args.fock_input)["nv"]
    history = ", ".join(f"{o}:{v:.6f}" for o, v in doc["resolution_history"])
    print(f"negativity volume = {doc['volume']:.6f} "
          f"(integral of W = {doc['normalization_check']:.6f}; orders {history})")
    if not doc["converged"]:
        print("refinement did not converge to requested tolerance", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def cmd_selftest(args) -> int:
    _check_outputs(args.out)
    from . import selftest  # only this command loads the checks and their oracles

    report = selftest.run(args.inject_fault)
    if args.out:
        config = {"selftest": True, "inject_fault": args.inject_fault}
        _write_json(args.out, {"tool_version": __version__, "config_hash": _config_hash(config),
                               **report})
    return EXIT_INVARIANT if report["failures"] else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _figure_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("figure", help="figure id: 1-5 or fig1..fig5")
    p.add_argument("--out", help="output directory (default figures/fig<id>)")
    p.add_argument("--fock-input", action="store_true",
                   help="figure 1: feed twin Fock pairs |n,n> instead of squeezed input")
    p.set_defaults(fn=cmd_figure)


def _sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="sweep config JSON path")
    p.add_argument("--out", help="override the config's output_dir")
    p.set_defaults(fn=cmd_sweep)


def _selftest_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--inject-fault", action="store_true",
                   help="flip a phase in the closed form to prove the oracle check bites")
    p.add_argument("--out", help="write a JSON report here")
    p.set_defaults(fn=cmd_selftest)


# the state options of the single-shot commands, ahead of their own
def _point_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=float, required=True, help="squeezing parameter")
    p.add_argument("--n", type=int, required=True, help="photon-pair truncation order")
    p.add_argument("--fock-input", action="store_true", help="use |n,n> input instead of TMSS")


# field and wigner-slice evaluate the splitter image unless --pre-bs; nv
# integrates the input either way (the splitter is passive), so takes none
def _image_args(p: argparse.ArgumentParser) -> None:
    _point_args(p)
    p.add_argument("--pre-bs", action="store_true", help="evaluate the input state, no splitter")


def _field_args(p: argparse.ArgumentParser) -> None:
    _image_args(p)
    p.add_argument("--grid", default=FIELD_GRID, help="grid spec min:max:n[,min:max:n]")
    p.add_argument("-o", "--output", required=True, help="CSV output path")
    p.add_argument("--vortices", help="also write a vortex-detection JSON report here")
    p.set_defaults(fn=cmd_field)


def _wigner_slice_args(p: argparse.ArgumentParser) -> None:
    _image_args(p)
    p.add_argument("--plane", help="two fixed coords, e.g. 'x=0,py=0' (default: the figures' first)")
    p.add_argument("--grid", default=SLICE_GRID, help="grid spec for the two free coords")
    p.add_argument("--diagonal-form", action="store_true",
                   help="evaluate the diagonal closed form instead of the exact W")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_wigner_slice)


def _nv_args(p: argparse.ArgumentParser) -> None:
    _point_args(p)
    p.add_argument("--tol", type=float, default=TOL.nv)
    p.add_argument("--order", type=int, default=GH_ORDER)
    p.add_argument("--json", help="write the result as JSON here")
    p.set_defaults(fn=cmd_nv)


# command -> (help line, function adding its arguments), in help order
_COMMANDS = {
    "figure": ("reproduce one figure pipeline into an output directory", _figure_args),
    "sweep": ("run a parameter sweep described by a JSON config", _sweep_args),
    "selftest": ("run the built-in verification suite", _selftest_args),
    "field": ("write the transverse quadrature field as CSV", _field_args),
    "wigner-slice": ("write a 2-D Wigner slice as CSV", _wigner_slice_args),
    "nv": ("compute the Wigner negativity volume", _nv_args),
}


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone."""
    # a run parses one command, and building all six costs more than a warm
    # resume, so main builds only the one named.  That parser's usage line
    # still lists every command; the full build keeps argparse's own metavar,
    # which its "argument command:" errors name.
    parser = argparse.ArgumentParser(
        prog="fockvortex",
        description="Two-mode Fock-space engine: beam-splitter vortex states, "
                    "Wigner negativity volume, logarithmic negativity.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        help_text, add_args = _COMMANDS[name]
        add_args(sub.add_parser(name, help=help_text))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return args.fn(args)
    except (FockVortexError, MemoryError, OSError) as exc:
        # numpy's MemoryError names the allocation that failed, and an
        # OSError the output path that cannot be written; exit 4, as the
        # same error inside a pipeline task does
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
