"""tools/artifact_hashes.py: figure artifact hashes, the --compare check and its
numeric mode, and every artifact against the committed hashes; the library
names the benchmark tracer wraps; the public API list."""
import contextlib
import hashlib
import importlib.util
import io
import json
import shutil
from pathlib import Path

import pytest

import fockvortex.cli as cli
from fockvortex.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
HASHES = ROOT / "tests" / "data" / "artifact_hashes.txt"
FIG5_NAMES = sorted([f"fig5/logneg_n{n}_r{cli._num_tag(r)}.json"
                     for n in cli.FIG5_N_VALUES for r in cli.FIG5_R_VALUES]
                    + ["fig5/logneg_table.csv"])


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


artifact_hashes = _load("artifact_hashes", ROOT / "tools" / "artifact_hashes.py")


def _parse(printed: str) -> dict:
    """{artifact: sha256} from the tool's output, its ``#`` header left out."""
    return dict(reversed(line.split()) for line in printed.splitlines()
                if not line.startswith("#"))


@pytest.fixture(scope="session")
def every_artifact(tmp_path_factory):
    """(printed hashes, --keep directory) of one run of the tool over every
    figure, the sweep and the single-shot commands; the tests below read it
    and copy before they change anything."""
    kept = tmp_path_factory.mktemp("artifacts")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert artifact_hashes.main(["--keep", str(kept)]) == 0
    return out.getvalue(), kept


def _fig5(hashes: dict) -> dict:
    return {name: digest for name, digest in hashes.items() if name.startswith("fig5/")}


def test_artifact_hashes_of_figure5_and_compare(tmp_path, capsys, every_artifact):
    printed, _ = every_artifact
    hashes = _fig5(_parse(printed))
    assert sorted(hashes) == FIG5_NAMES

    direct = tmp_path / "fig5"
    assert cli_main(["figure", "5", "--out", str(direct)]) == 0
    capsys.readouterr()
    for name, digest in hashes.items():
        assert hashlib.sha256((direct / name.split("/")[1]).read_bytes()).hexdigest() == digest

    # one recorded hash altered: the rerun of figure 5 matches the others,
    # flags that one
    saved = tmp_path / "hashes.txt"
    saved.write_text(printed.replace(hashes["fig5/logneg_n4_r0p3.json"], "0" * 64))
    assert artifact_hashes.main(["5", "--compare", str(saved)]) == 1
    report = capsys.readouterr().out.splitlines()
    assert report == ["differs  fig5/logneg_n4_r0p3.json", "1 of 46 artifacts not identical"]


def test_artifacts_match_committed_hashes(every_artifact):
    # every figure, the fixed sweep and the single-shot commands, byte for
    # byte.  A change that declares new bytes regenerates the file:
    #   python tools/artifact_hashes.py > tests/data/artifact_hashes.txt
    problems = artifact_hashes.compare(artifact_hashes.read_hashes(str(HASHES)),
                                       _parse(every_artifact[0]))
    recorded = [line for line in HASHES.read_text().splitlines() if line.startswith("#")]
    assert not problems, "\n".join([
        *problems, "hashes recorded with:", *recorded,
        "this machine:", *artifact_hashes.machine_header(),
        "the bytes depend on numpy's build and the CPU's SIMD, so on another "
        "machine this can fail without a regression"])


# appended to a copy of the package: the slice writer changes one byte of one
# figure-3 artifact, after the exact bytes are written
_ONE_BYTE_OFF = """
import os as _os

from . import wigner as _wigner

_exact_to_csv = _wigner.WignerSlice.to_csv


def _to_csv_one_byte_off(self, path):
    _exact_to_csv(self, path)
    if _os.path.basename(path).startswith("slice_n4_plane2.csv"):
        with open(path, "r+b") as fh:
            fh.seek(-2, 2)
            digit = fh.read(1)[0]
            fh.seek(-2, 2)
            fh.write(bytes([digit ^ 1]))


_wigner.WignerSlice.to_csv = _to_csv_one_byte_off
"""


def test_committed_hashes_catch_a_one_byte_change(tmp_path, capsys):
    src = tmp_path / "src"
    shutil.copytree(Path(cli.__file__).parent, src / "fockvortex",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "fockvortex" / "__init__.py", "a") as fh:
        fh.write(_ONE_BYTE_OFF)
    assert artifact_hashes.main(["3", "--src", str(src), "--compare", str(HASHES)]) == 1
    report = capsys.readouterr().out.splitlines()
    assert report == ["differs  fig3/slice_n4_plane2.csv", "1 of 6 artifacts not identical"]


def test_benchmark_tracer_layers_resolve():
    # the tracer rebinds each (owner, attr) at the name its caller looks up;
    # a library refactor that drops one breaks every traced benchmark run
    tracer = _load("bench_tracer", ROOT / "benchmarks" / "tracer.py")
    for name, owner_path, attr, _ in tracer.LAYERS:
        owner = tracer._resolve(owner_path)
        assert callable(getattr(owner, attr, None)), f"{name}: {owner_path}.{attr} is gone"


def test_public_api_star_import():
    # a name left in __all__ after its definition is deleted fails the star import
    import fockvortex

    namespace: dict = {}
    exec("from fockvortex import *", namespace)
    assert len(set(fockvortex.__all__)) == len(fockvortex.__all__), "duplicate __all__ entry"
    for name in fockvortex.__all__:
        assert namespace[name] is getattr(fockvortex, name), name


def test_package_version_matches_pyproject():
    # resume trusts a manifest of the same version, so both must move together
    import tomllib

    import fockvortex

    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == fockvortex.__version__


def test_max_abs_delta_on_hand_made_artifacts(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    # blank and text cells must match; only parsed numbers contribute
    old_csv = write("old.csv", "r,n,ratio\n0.0,2,\n0.5,2,1.25\n")
    new_csv = write("new.csv", "r,n,ratio\n0.0,2,\n0.5,2,1.2500000000000002\n")
    assert artifact_hashes.max_abs_delta(old_csv, new_csv) == 2.220446049250313e-16
    assert artifact_hashes.max_abs_delta(old_csv, old_csv) == 0.0

    old_json = write("old.json", '{"volume": 0.25, "history": [[24, 0.5], [48, -0.0]], "ok": true}')
    new_json = write("new.json", '{"volume": 0.25, "history": [[24, 0.5], [48, 0.001]], "ok": true}')
    assert artifact_hashes.max_abs_delta(old_json, new_json) == 0.001

    for layout in ('{"volume": 0.25, "history": [[24, 0.5]], "ok": true}',
                   '{"volume": 0.25, "history": [[24, 0.5], [48, 0.0]], "ok": false}'):
        with pytest.raises(ValueError):
            artifact_hashes.max_abs_delta(old_json, write("other.json", layout))
    with pytest.raises(ValueError):
        artifact_hashes.max_abs_delta(old_csv, write("short.csv", "r,n,ratio\n0.0,2,\n"))
    with pytest.raises(ValueError):
        artifact_hashes.max_abs_delta(old_csv, write("text.csv", "r,n,ratio\n0.0,2,\n0.5,2,x\n"))


def test_compare_numeric_reports_largest_delta(tmp_path, capsys, every_artifact):
    printed, shared = every_artifact
    hashes = _fig5(_parse(printed))
    assert sorted(p.name for p in (shared / "fig5").iterdir()) == [
        name.split("/")[1] for name in sorted(hashes)]
    kept = tmp_path / "kept"
    shutil.copytree(shared / "fig5", kept / "fig5")

    # an earlier run whose log-negativity differed by 1e-3 in one entry
    doc_path = kept / "fig5" / "logneg_n4_r0p3.json"
    doc = json.loads(doc_path.read_text())
    doc["l_after"] += 1e-3
    doc_path.write_text(json.dumps(doc))
    saved = tmp_path / "hashes.txt"
    saved.write_text(printed.replace(hashes["fig5/logneg_n4_r0p3.json"], "0" * 64))
    assert artifact_hashes.main(["5", "--compare", str(saved), "--numeric", str(kept)]) == 1
    report = capsys.readouterr().out.splitlines()
    name, delta = report[0].split("max |Δ|")
    assert name.split() == ["differs", "fig5/logneg_n4_r0p3.json"]
    assert float(delta) == pytest.approx(1e-3, rel=1e-9)
    assert report[1:] == ["1 of 46 artifacts not identical"]
