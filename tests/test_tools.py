"""tools/artifact_hashes.py: figure artifact hashes, the --compare check and its
numeric mode; the library names the benchmark tracer wraps; the public API list."""
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from fockvortex.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


artifact_hashes = _load("artifact_hashes", ROOT / "tools" / "artifact_hashes.py")


def test_artifact_hashes_of_figure5_and_compare(tmp_path, capsys):
    assert artifact_hashes.main(["5"]) == 0
    printed = capsys.readouterr().out
    hashes = dict(reversed(line.split()) for line in printed.splitlines())
    assert sorted(hashes) == ["fig5/logneg_n2.json", "fig5/logneg_n4.json",
                              "fig5/logneg_n6.json", "fig5/logneg_table.csv"]

    direct = tmp_path / "fig5"
    assert cli_main(["figure", "5", "--out", str(direct)]) == 0
    capsys.readouterr()
    for name, digest in hashes.items():
        assert hashlib.sha256((direct / name.split("/")[1]).read_bytes()).hexdigest() == digest

    # one recorded hash altered: the rerun matches the other three, flags that one
    saved = tmp_path / "hashes.txt"
    saved.write_text(printed.replace(hashes["fig5/logneg_n4.json"], "0" * 64))
    assert artifact_hashes.main(["5", "--compare", str(saved)]) == 1
    report = capsys.readouterr().out.splitlines()
    assert report == ["differs  fig5/logneg_n4.json", "1 of 4 artifacts not identical"]


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


def test_compare_numeric_reports_largest_delta(tmp_path, capsys):
    kept = tmp_path / "kept"
    assert artifact_hashes.main(["5", "--keep", str(kept)]) == 0
    printed = capsys.readouterr().out
    hashes = dict(reversed(line.split()) for line in printed.splitlines())
    assert sorted(p.name for p in (kept / "fig5").iterdir()) == [
        name.split("/")[1] for name in sorted(hashes)]

    # an earlier run whose log-negativity differed by 1e-3 in one entry
    doc_path = kept / "fig5" / "logneg_n4.json"
    doc = json.loads(doc_path.read_text())
    doc["rows"][2]["l_after"] += 1e-3
    doc_path.write_text(json.dumps(doc))
    saved = tmp_path / "hashes.txt"
    saved.write_text(printed.replace(hashes["fig5/logneg_n4.json"], "0" * 64))
    assert artifact_hashes.main(["5", "--compare", str(saved), "--numeric", str(kept)]) == 1
    report = capsys.readouterr().out.splitlines()
    name, delta = report[0].split("max |Δ|")
    assert name.split() == ["differs", "fig5/logneg_n4.json"]
    assert float(delta) == pytest.approx(1e-3, rel=1e-9)
    assert report[1:] == ["1 of 4 artifacts not identical"]
