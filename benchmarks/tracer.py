"""In-memory span tracer wrapped around fockvortex's public layer functions.

Each layer function is replaced, at the name its caller binds, by a wrapper
that records a span (name, start, end, thread, parent) and adds per-layer
counts.  Nothing under ``src/`` changes: the wrappers live here and are
installed by ``child.py`` only in the traced run.  Spans stay in memory and
are handed back at the end; ``summarize`` turns them into per-layer calls,
self time and counts.

Self time is computed per thread: a span's duration minus the durations of
its direct children, which by construction ran on the same thread.
"""
from __future__ import annotations

import itertools
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# count function: (args, kwargs, result) -> {count name: value}
Counter = Optional[Callable[[tuple, dict, object], Dict[str, float]]]


def _grid_points(grid) -> float:
    return float(grid.n_x * grid.n_y)


def _file_bytes(args, kwargs, result) -> Dict[str, float]:
    return {"bytes": float(os.path.getsize(args[1]))}


def _nv_counts(args, kwargs, result) -> Dict[str, float]:
    """Work of the 4-D tensor quadrature, derived from the result alone.

    Per pass at order o with per-mode dimension m: o**4 lattice nodes; the
    row-block assembly Re(Ka^T D) is two real GEMMs of 2*m**2*o**4 flops each;
    it allocates four float64 arrays of o**4 entries in total (two GEMM
    products, their difference, its absolute value).
    """
    state = args[0]
    m = state.cutoff + 1 if hasattr(state, "cutoff") else state.dimension + 1
    orders = [o for o, _ in result.resolution_history]
    nodes = [float(o) ** 4 for o in orders]
    return {
        "nv.passes": float(len(orders)),
        "nv.max_order": float(max(orders)),
        "nv.nodes": sum(nodes),
        "nv.final_nodes": nodes[-1],
        "nv.flops_computed": sum(4.0 * m * m * n for n in nodes),
        "nv.bytes_computed": sum(32.0 * n for n in nodes),
    }


# (metric prefix, owner module or class path, attribute, count function).
# The owner is where the caller looks the name up, so the wrapper is seen.
LAYERS = (
    ("states.make_tmss", "fockvortex.cli", "make_tmss", None),
    ("states.state_to_density", "fockvortex.entanglement", "state_to_density", None),
    ("beamsplitter.apply_beam_splitter", "fockvortex.cli", "apply_beam_splitter", None),
    ("quadrature.evaluate_field", "fockvortex.cli", "evaluate_field",
     lambda a, k, r: {"points": _grid_points(a[1])}),
    ("quadrature.count_vortices", "fockvortex.cli", "count_vortices",
     lambda a, k, r: {"vortices": float(r.count)}),
    ("quadrature.field_to_csv", "fockvortex.quadrature.QuadratureField", "to_csv", _file_bytes),
    ("wigner.negativity_volume", "fockvortex.cli", "negativity_volume", _nv_counts),
    ("wigner.build_wigner_grid", "fockvortex.wigner", "build_wigner_grid", None),
    ("wigner.wigner_slice", "fockvortex.cli", "wigner_slice",
     lambda a, k, r: {"points": _grid_points(a[2])}),
    ("wigner.slice_to_csv", "fockvortex.wigner.WignerSlice", "to_csv", _file_bytes),
    ("entanglement.log_negativity", "fockvortex.cli", "log_negativity",
     lambda a, k, r: {"matrix_dim_max": float(r.matrix_dimension)}),
    ("entanglement.partial_transpose", "fockvortex.entanglement", "partial_transpose", None),
)

# counts combined with max() instead of a sum
_MAX_COUNTS = {"nv.max_order", "matrix_dim_max"}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, fn: Callable, counter: Counter) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append({"id": span_id, "parent": parent, "name": name,
                                     "thread": threading.get_ident(),
                                     "start": start, "end": end})
            if counter is not None:
                tracer.add_counts(name, counter(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def add_counts(self, name: str, counts: Dict[str, float]) -> None:
        layer = name.split(".")[0]
        with self._lock:
            for key, value in counts.items():
                full = f"{layer}.{key}" if key.startswith("nv.") else f"{name}.{key}"
                if key in _MAX_COUNTS:
                    self.counts[full] = max(self.counts[full], value)
                else:
                    self.counts[full] += value


def _resolve(path: str):
    import importlib

    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


def install() -> Tracer:
    """Wrap every layer in LAYERS; the wrappers live for the process."""
    tracer = Tracer()
    for name, owner_path, attr, counter in LAYERS:
        owner = _resolve(owner_path)
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), counter))
    return tracer


def summarize(spans: List[dict], counts: Dict[str, float]) -> Dict[str, float]:
    """Per layer: calls and self time (s), plus the recorded counts."""
    child_time: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: Dict[str, float] = {}
    for name, _, _, _ in LAYERS:
        out[f"{name}.calls"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for s in spans:
        out[f"{s['name']}.calls"] += 1.0
        out[f"{s['name']}.self_s"] += (s["end"] - s["start"]) - child_time[s["id"]]
    for key in ("quadrature.evaluate_field.points", "quadrature.count_vortices.vortices",
                "quadrature.field_to_csv.bytes", "wigner.wigner_slice.points",
                "wigner.slice_to_csv.bytes", "entanglement.log_negativity.matrix_dim_max",
                "wigner.nv.passes", "wigner.nv.max_order", "wigner.nv.nodes",
                "wigner.nv.flops_computed", "wigner.nv.bytes_computed"):
        out[key] = counts.get(key, 0.0)
    nodes = counts.get("wigner.nv.nodes", 0.0)
    out["wigner.nv.final_pass_node_share"] = (
        counts.get("wigner.nv.final_nodes", 0.0) / nodes if nodes else 0.0
    )
    return out
