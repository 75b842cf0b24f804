"""tools/artifact_hashes.py: figure artifact hashes and the --compare check."""
import hashlib
import importlib.util
from pathlib import Path

from fockvortex.cli import main as cli_main

_spec = importlib.util.spec_from_file_location(
    "artifact_hashes", Path(__file__).resolve().parents[1] / "tools" / "artifact_hashes.py"
)
artifact_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_hashes)


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
