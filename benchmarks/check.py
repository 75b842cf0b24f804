"""Correctness check of a pipeline's artifacts against reference.json.

The reference was recorded from this repository's own output.  It holds the
sha256 of every data artifact (manifest.json excluded: it holds wall times)
and the negativity-volume and log-negativity scalars.

- Field CSVs, slice CSVs and vortex JSONs must be byte-identical.
- NV values may move by up to TOL_NV (a different quadrature may change the
  bits), must have converged, and must integrate W to 1 within TOL_NORM.
- Log-negativity values (and their ratios) may move by up to TOL_LOGNEG (a
  different decomposition may change the last bits).

Each artifact is one check.  ``check_outputs`` returns (artifact, error or
None) per check, so callers count attempted and failed checks.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
from typing import Dict, List, Optional, Tuple

TOL_NV = 1e-3
TOL_LOGNEG = 1e-9
TOL_NORM = 1e-6

_LOGNEG_KEYS = ("l_before", "l_after", "ratio")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _nv_invariants(where: str, converged, normalization: float) -> List[str]:
    errors = []
    if not converged:
        errors.append(f"{where}: not converged")
    if not abs(normalization - 1.0) <= TOL_NORM:
        errors.append(f"{where}: integral of W = {normalization!r}")
    return errors


def _values(name: str, path: str) -> Optional[Tuple[Dict[str, float], List[str]]]:
    """(checked scalars, invariant errors) of a value artifact; None for byte artifacts."""
    if name.startswith("nv_") and name.endswith(".json"):
        with open(path) as fh:
            doc = json.load(fh)
        return ({"nv:volume": float(doc["volume"])},
                _nv_invariants(name, doc["converged"], float(doc["normalization_check"])))
    if name.startswith("logneg_") and name.endswith(".json"):
        with open(path) as fh:
            doc = json.load(fh)
        return {f"logneg:{k}": float(doc[k]) for k in _LOGNEG_KEYS}, []
    if name == "nv_table.csv":
        values, errors = {}, []
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                where = f"r={row['r']},n={row['n']}"
                values[f"nv:{where}"] = float(row["nv"])
                errors += _nv_invariants(f"{name} {where}", row["converged"] == "True",
                                         float(row["normalization_check"]))
        return values, errors
    if name == "sweep.csv":
        values = {}
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                for k in _LOGNEG_KEYS:
                    values[f"logneg:r={row['r']},n={row['n']}:{k}"] = float(row[k])
        return values, []
    return None


def record(out_dir: str) -> dict:
    """Reference entry for one workload from a known-good output directory."""
    ref = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.json":
            continue
        path = os.path.join(out_dir, name)
        entry = {"sha256": _sha256(path)}
        parsed = _values(name, path)
        if parsed is not None:
            entry["values"] = parsed[0]
        ref[name] = entry
    return ref


def check_outputs(ref: dict, out_dir: str) -> List[Tuple[str, Optional[str]]]:
    present = set(os.listdir(out_dir)) - {"manifest.json"}
    results: List[Tuple[str, Optional[str]]] = []
    for name in sorted(present - set(ref)):
        results.append((name, "unexpected artifact"))
    for name, entry in sorted(ref.items()):
        path = os.path.join(out_dir, name)
        if name not in present:
            results.append((name, "missing"))
            continue
        parsed = _values(name, path)
        if parsed is None:
            ok = _sha256(path) == entry["sha256"]
            results.append((name, None if ok else "bytes differ from the reference"))
            continue
        values, errors = parsed
        if set(values) != set(entry["values"]):
            errors.append("checked values differ in kind from the reference")
        for key in sorted(set(values) & set(entry["values"])):
            tol = TOL_NV if key.startswith("nv:") else TOL_LOGNEG
            got, want = values[key], entry["values"][key]
            if not abs(got - want) <= tol:
                errors.append(f"{key} = {got!r}, reference {want!r} (tol {tol:g})")
        results.append((name, "; ".join(errors) or None))
    return results
