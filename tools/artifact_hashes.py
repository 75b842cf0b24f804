"""sha256 of every data artifact of the figure pipelines, a fixed sweep and
fixed single-shot commands.

    python tools/artifact_hashes.py [FIGURE ...] [--src DIR] [--keep DIR]
                                    [--compare FILE [--numeric DIR]]

Runs ``fockvortex figure N`` for each FIGURE into a temporary directory,
with the package imported from DIR (default: the ``src`` directory of this
checkout), and prints one ``<sha256>  figN/<file>`` line per artifact,
sorted, after a ``#`` header naming what the bytes depend on: the
package's version, numpy's version, its BLAS, the BLAS thread count and the
CPU features numpy dispatches on.  Every run pins OpenBLAS and OpenMP to one
thread (``THREADS``), as the benchmark harness does, so the hashes do not
depend on the machine's CPU count.  With no FIGURE it runs figures 1-5,
then ``SWEEP``, a small sweep with all five outputs, whose artifacts are
listed as ``sweep/<file>``, and then the ``SINGLES`` commands, listed as
``single/<file>``.
``manifest.json`` is left out: it holds wall times.  With ``--compare FILE``
(an earlier output of this tool) the hashes are checked against FILE
instead; every differing, missing or extra artifact is printed and the exit
status is 1.  ``--keep DIR`` also copies the artifacts into DIR; with
``--numeric DIR`` (an earlier ``--keep``) each differing CSV or JSON artifact
is compared number by number against its copy in DIR, and the largest |Δ| is
printed after its name.

Comparing two checkouts:

    python tools/artifact_hashes.py --src ../before/src --keep before > before.txt
    python tools/artifact_hashes.py --compare before.txt --numeric before
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# every sweep output at two truncations; r = 0 leaves the ratio cell blank
SWEEP = {
    "r_values": [0.0, 0.5, 0.8],
    "n_values": [2, 3],
    "outputs": ["field", "vortices", "wigner-slice", "nv", "logneg"],
    "grid": "-4:4:41",
    "slice_grid": "-2:2:21",
}

# single-shot commands, run in the artifact directory: NV (of the input, the
# splitter being passive), a Fock-input field with its vortices, a slice on a
# plane that frees both coordinates of mode b (mode a's one fixed point is
# contracted first), the diagonal form, and, with --pre-bs, a field with its
# vortices and a slice of the input with no splitter
SINGLES = [
    ["nv", "--r", "0.8", "--n", "2", "--json", "nv.json"],
    ["field", "--r", "0.02", "--n", "2", "--fock-input", "--grid=-3:3:31", "-o", "field_fock.csv",
     "--vortices", "vortices_fock.json"],
    ["wigner-slice", "--r", "0.8", "--n", "2", "--plane", "x=0.3,px=0", "--grid=-2:2:21",
     "-o", "slice_mode_b.csv"],
    ["wigner-slice", "--r", "0.8", "--n", "2", "--diagonal-form", "--grid=-2:2:21",
     "-o", "slice_diagonal_form.csv"],
    ["field", "--r", "0.8", "--n", "2", "--pre-bs", "--grid=-3:3:31", "-o", "field_pre_bs.csv",
     "--vortices", "vortices_pre_bs.json"],
    ["wigner-slice", "--r", "0.8", "--n", "2", "--pre-bs", "--grid=-2:2:21",
     "-o", "slice_pre_bs.csv"],
]
# one interpreter runs all of SINGLES, so the set costs one import
_RUN_SINGLES = """import json, sys
from fockvortex.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv):
        sys.exit(f"{argv[0]} failed")
"""


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# one BLAS thread, as the benchmark harness runs it: OpenBLAS splits a GEMM
# by its thread count, which moves the last bits of the N = 6 slices
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _env(src: str) -> Dict[str, str]:
    return dict(os.environ, **THREADS,
                PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def pipeline_hashes(figures: List[int], src: str, extras: bool = False,
                    keep: Optional[str] = None) -> Dict[str, str]:
    """{"figN/<file>": sha256} for every data artifact of the given figures,
    plus {"sweep/<file>": sha256} for the artifacts of ``SWEEP`` and
    {"single/<file>": sha256} for those of ``SINGLES`` if ``extras``;
    with ``keep``, each artifact is also copied to ``keep/<name>``."""
    env = _env(src)
    hashes = {}
    with tempfile.TemporaryDirectory() as work:
        # each run writes into its own directory, which is its working directory
        cli = ["-m", "fockvortex.cli"]
        runs = [(f"fig{figure}", cli + ["figure", str(figure), "--out", "."]) for figure in figures]
        if extras:
            config = os.path.join(work, "sweep.json")
            with open(config, "w") as fh:
                json.dump(SWEEP, fh)
            runs.append(("sweep", cli + ["sweep", "--config", config, "--out", "."]))
            runs.append(("single", ["-c", _RUN_SINGLES, json.dumps(SINGLES)]))
        for label, args in runs:
            out = os.path.join(work, label)
            os.mkdir(out)
            proc = subprocess.run([sys.executable, *args], cwd=out, env=env,
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"{label} exited {proc.returncode}: "
                                   f"{proc.stderr.strip()[-2000:]}")
            for name in sorted(os.listdir(out)):
                if name != "manifest.json":
                    hashes[f"{label}/{name}"] = _sha256(os.path.join(out, name))
            if keep:
                shutil.copytree(out, os.path.join(keep, label), dirs_exist_ok=True,
                                ignore=shutil.ignore_patterns("manifest.json"))
    return hashes


def machine_header(src: str = SRC) -> List[str]:
    """``#`` lines naming the package version imported from ``src`` (a change
    of an artifact's bytes bumps it), and the numpy build and CPU the bytes
    came from: einsum and matmul loop choices and SIMD kernels can move a
    last bit."""
    import numpy as np
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 prints its config only
        blas = {}
    version = subprocess.run([sys.executable, "-m", "fockvortex.cli", "--version"], env=_env(src),
                             capture_output=True, text=True, check=True).stdout.strip()
    return [f"# {version}",
            f"# numpy {np.__version__}",
            f"# blas {blas.get('name')} {blas.get('version')}",
            "# threads " + " ".join(f"{name}={value}" for name, value in THREADS.items()),
            "# cpu " + " ".join(name for name, on in __cpu_features__.items() if on)]


def read_hashes(path: str) -> Dict[str, str]:
    with open(path) as fh:
        return {name: digest for digest, name in
                (line.split() for line in fh if line.strip() and not line.startswith("#"))}


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _load(path: str):
    """A JSON document, or a CSV file as a list of rows with numbers parsed."""
    with open(path, newline="") as fh:
        if path.endswith(".json"):
            return json.load(fh)
        if path.endswith(".csv"):
            return [[_cell(text) for text in row] for row in csv.reader(fh)]
    raise ValueError("neither CSV nor JSON")


def _delta(a, b, where: str = "") -> float:
    """Largest |a - b| over the numbers of two documents of the same layout;
    ValueError where they differ in anything but numbers."""
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        return abs(float(a) - float(b))
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return max((_delta(a[k], b[k], f"{where}.{k}") for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max((_delta(x, y, f"{where}[{i}]") for i, (x, y) in enumerate(zip(a, b))),
                   default=0.0)
    if a != b:
        raise ValueError(f"{str(a)[:40]!r} and {str(b)[:40]!r} at {where or 'top level'}")
    return 0.0


def max_abs_delta(old: str, new: str) -> float:
    """Largest |Δ| between the numbers of two CSV or JSON artifacts;
    ValueError if they differ in layout or in anything but numbers."""
    return _delta(_load(old), _load(new))


def compare(want: Dict[str, str], got: Dict[str, str]) -> List[str]:
    """One message per artifact that differs, is missing or is extra."""
    problems = []
    for name in sorted(set(want) | set(got)):
        if name not in got:
            problems.append(f"missing  {name}")
        elif name not in want:
            problems.append(f"extra    {name}")
        elif want[name] != got[name]:
            problems.append(f"differs  {name}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("figures", nargs="*", type=int, metavar="FIGURE",
                        help="figure ids to run, 1-5 (default: all five, the sweep and SINGLES)")
    parser.add_argument("--src", default=SRC, help="directory the fockvortex package is imported from")
    parser.add_argument("--compare", metavar="FILE", help="check against an earlier output")
    parser.add_argument("--keep", metavar="DIR", help="also copy the artifacts into DIR")
    parser.add_argument("--numeric", metavar="DIR",
                        help="with --compare: largest |Δ| of each differing artifact "
                             "against its copy in DIR (an earlier --keep)")
    args = parser.parse_args(argv)
    if any(not 1 <= f <= 5 for f in args.figures):
        parser.error(f"figure ids must be 1-5, got {args.figures}")
    if args.numeric and not args.compare:
        parser.error("--numeric needs --compare")
    with tempfile.TemporaryDirectory() as work:
        # --numeric reads the new artifacts back, so they outlive the run
        keep = args.keep or (os.path.join(work, "new") if args.numeric else None)
        got = pipeline_hashes(args.figures or [1, 2, 3, 4, 5], os.path.abspath(args.src),
                              extras=not args.figures, keep=keep)
        if args.compare is None:
            print("\n".join(machine_header(os.path.abspath(args.src))))
            for name, digest in got.items():
                print(f"{digest}  {name}")
            return 0
        want = read_hashes(args.compare)
        if args.figures:  # compare only the figures that were run
            prefixes = tuple(f"fig{f}/" for f in args.figures)
            want = {name: d for name, d in want.items() if name.startswith(prefixes)}
        problems = compare(want, got)
        for line in problems:
            if args.numeric and line.startswith("differs"):
                name = line.split()[1]
                try:
                    delta = max_abs_delta(os.path.join(args.numeric, name),
                                          os.path.join(keep, name))
                    line += f"  max |Δ| {delta:.3g}"
                except (OSError, ValueError) as exc:
                    line += f"  not comparable: {exc}"
            print(line)
    total = len(set(want) | set(got))
    print(f"{len(problems)} of {total} artifacts not identical" if problems
          else f"all {total} artifacts identical")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
