"""One production path per quantity: ``negativity_volume``, ``log_negativity``
and ``wigner_slice`` take a pure ``TwoModeState`` and refuse anything else by
naming the general path in ``fockvortex.oracles``, which only the selftest
and the tests load."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fockvortex.cli as cli
from fockvortex import (
    InvalidParameterError,
    QuadratureGrid,
    SqueezeParams,
    apply_beam_splitter,
    log_negativity,
    make_tmss,
    negativity_volume,
    state_to_density,
    wigner_slice,
)
from fockvortex.config import TOL
from fockvortex.oracles import log_negativity_eigh, random_state, wigner_state
from fockvortex.wigner import plane_points

_INPUT = make_tmss(SqueezeParams(r=0.5, n_max=2))
_IMAGE = apply_beam_splitter(_INPUT)
_PLANE = {"y": 0.0, "px": 0.0}
_GRID = QuadratureGrid.square(2.0, 5)

# each production path, and the oracle its refusal names
_PATHS = {
    "negativity_volume": (lambda s: negativity_volume(s, order=8, max_refinements=0),
                          "tensor_negativity_volume"),
    "log_negativity": (log_negativity, "log_negativity_eigh"),
    "wigner_slice": (lambda s: wigner_slice(s, _PLANE, _GRID), "wigner_state"),
}


@pytest.mark.parametrize("path", sorted(_PATHS))
def test_production_path_refuses_a_density_matrix_naming_its_oracle(path):
    run, oracle = _PATHS[path]
    with pytest.raises(InvalidParameterError, match=rf"fockvortex\.oracles\.{oracle}\b"):
        run(state_to_density(_IMAGE))


def test_negativity_volume_refuses_a_state_on_no_diagonal():
    # a random pure state sits on no single n_a - n_b diagonal, nor does its
    # splitter image; the Schmidt path and the slices take any pure state
    state = random_state(np.random.default_rng(0), cutoff=3)
    with pytest.raises(InvalidParameterError, match=r"fockvortex\.oracles\.tensor_negativity_volume\b"):
        negativity_volume(state)
    assert log_negativity(state).log_negativity > 0
    assert wigner_slice(state, _PLANE, _GRID).values.shape == (5, 5)


def test_production_paths_take_the_splitter_image():
    image_nv, input_nv = negativity_volume(_IMAGE), negativity_volume(_INPUT)
    assert (image_nv.engine, input_nv.engine) == ("reduced-3d", "reduced-3d")
    assert abs(image_nv.volume - input_nv.volume) < TOL.nv
    fast, slow = log_negativity(_IMAGE), log_negativity_eigh(_IMAGE)
    assert abs(fast.log_negativity - slow.log_negativity) < 1e-12
    gap = wigner_slice(_IMAGE, _PLANE, _GRID).values - wigner_state(_IMAGE, plane_points(_PLANE, _GRID)[1])
    assert np.max(np.abs(gap)) <= 1e-15


_IMPORT_PATH_SCRIPT = """
import json, sys
import fockvortex.cli as cli

def loaded():
    return sorted(m for m in ("fockvortex.oracles", "fockvortex.selftest") if m in sys.modules)

out = sys.argv[1]
seen = {"import": loaded()}
codes = [cli.main(["figure", "4", "--out", out + "/fig4"])]
seen["figure 4"] = loaded()
codes.append(cli.main(["nv", "--r", "0.5", "--n", "2", "--json", out + "/nv.json"]))
seen["nv"] = loaded()
codes.append(cli.main(["selftest"]))
seen["selftest"] = loaded()
print(json.dumps({"codes": codes, "seen": seen}))
"""


def test_cli_loads_the_oracles_only_for_the_selftest(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PATH_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["codes"] == [0, 0, 0]
    assert doc["seen"] == {"import": [], "figure 4": [], "nv": [],
                           "selftest": ["fockvortex.oracles", "fockvortex.selftest"]}
