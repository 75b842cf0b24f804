"""sha256 of every data artifact of the figure pipelines and a fixed sweep.

    python tools/artifact_hashes.py [FIGURE ...] [--src DIR] [--compare FILE]

Runs ``fockvortex figure N`` for each FIGURE into a temporary directory,
with the package imported from DIR (default: the ``src`` directory of this
checkout), and prints one ``<sha256>  figN/<file>`` line per artifact,
sorted.  With no FIGURE it runs figures 1-5 and then ``SWEEP``, a small
sweep with all five outputs, whose artifacts are listed as ``sweep/<file>``.
``manifest.json`` is left out: it holds wall times.  With ``--compare FILE``
(an earlier output of this tool) the hashes are checked against FILE
instead; every differing, missing or extra artifact is printed and the exit
status is 1.

Comparing two checkouts:

    python tools/artifact_hashes.py --src ../before/src > before.txt
    python tools/artifact_hashes.py --compare before.txt
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# every sweep output at two truncations; r = 0 leaves the ratio cell blank
SWEEP = {
    "r_values": [0.0, 0.5, 0.8],
    "n_values": [2, 3],
    "outputs": ["field", "vortices", "wigner-slice", "nv", "logneg"],
    "grid": "-4:4:41",
    "slice_grid": "-2:2:21",
}


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def pipeline_hashes(figures: List[int], src: str, sweep: bool = False) -> Dict[str, str]:
    """{"figN/<file>": sha256} for every data artifact of the given figures,
    plus {"sweep/<file>": sha256} for the artifacts of ``SWEEP`` if ``sweep``."""
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    hashes = {}
    with tempfile.TemporaryDirectory() as work:
        runs = [(f"fig{figure}", ["figure", str(figure)]) for figure in figures]
        if sweep:
            config = os.path.join(work, "sweep.json")
            with open(config, "w") as fh:
                json.dump(SWEEP, fh)
            runs.append(("sweep", ["sweep", "--config", config]))
        for label, argv in runs:
            out = os.path.join(work, label)
            proc = subprocess.run(
                [sys.executable, "-m", "fockvortex.cli", *argv, "--out", out],
                env=env, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"{label} exited {proc.returncode}: "
                                   f"{proc.stderr.strip()[-2000:]}")
            for name in sorted(os.listdir(out)):
                if name != "manifest.json":
                    hashes[f"{label}/{name}"] = _sha256(os.path.join(out, name))
    return hashes


def read_hashes(path: str) -> Dict[str, str]:
    with open(path) as fh:
        return {name: digest for digest, name in (line.split() for line in fh if line.strip())}


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
                        help="figure ids to run, 1-5 (default: all five and the sweep)")
    parser.add_argument("--src", default=SRC, help="directory the fockvortex package is imported from")
    parser.add_argument("--compare", metavar="FILE", help="check against an earlier output")
    args = parser.parse_args(argv)
    if any(not 1 <= f <= 5 for f in args.figures):
        parser.error(f"figure ids must be 1-5, got {args.figures}")
    got = pipeline_hashes(args.figures or [1, 2, 3, 4, 5], os.path.abspath(args.src),
                          sweep=not args.figures)
    if args.compare is None:
        for name, digest in got.items():
            print(f"{digest}  {name}")
        return 0
    want = read_hashes(args.compare)
    if args.figures:  # compare only the figures that were run
        prefixes = tuple(f"fig{f}/" for f in args.figures)
        want = {name: d for name, d in want.items() if name.startswith(prefixes)}
    problems = compare(want, got)
    for line in problems:
        print(line)
    total = len(set(want) | set(got))
    print(f"{len(problems)} of {total} artifacts not identical" if problems
          else f"all {total} artifacts identical")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
