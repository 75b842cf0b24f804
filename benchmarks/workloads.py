"""The benchmark workloads: which CLI pipeline each one runs.

Why each was chosen is in README.md and BENCHMARK.json.  Inputs are fixed
physics parameters.  The seed only permutes the order of the sweep's
``r_values``/``n_values``, which changes the task schedule but not the
artifacts (``sweep.csv`` is sorted); the figure pipelines are fixed by the
paper and ignore it.
"""
from __future__ import annotations

import json
import os
import random
from typing import List

# workload name -> pipeline tasks in one cold run
TASKS = {"fig1-field": 6, "fig4-nv": 12, "sweep-logneg-slice": 8}

SWEEP_R_VALUES = [0.3, 0.6, 0.9, 1.2]
SWEEP_N_VALUES = [10, 14]


def cli_argv(name: str, seed: int, out_dir: str, work_dir: str) -> List[str]:
    """argv for ``fockvortex.cli.main`` that runs workload ``name`` into out_dir."""
    if name == "fig1-field":
        return ["figure", "1", "--out", out_dir]
    if name == "fig4-nv":
        return ["figure", "4", "--out", out_dir]
    if name == "sweep-logneg-slice":
        rng = random.Random(seed)
        r_values, n_values = list(SWEEP_R_VALUES), list(SWEEP_N_VALUES)
        rng.shuffle(r_values)
        rng.shuffle(n_values)
        config = os.path.join(work_dir, f"sweep-seed{seed}.json")
        with open(config, "w") as fh:
            json.dump({"r_values": r_values, "n_values": n_values,
                       "outputs": ["logneg", "wigner-slice"]}, fh)
        return ["sweep", "--config", config, "--out", out_dir]
    raise KeyError(name)
