"""tools/artifact_hashes.py: figure artifact hashes and the --compare check;
the library names the benchmark tracer wraps; the public API list."""
import hashlib
import importlib.util
from pathlib import Path

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
