"""The benchmark's own test: its checks pass on good output and bite on bad.

    python3 -m pytest benchmarks/test_bench.py

Runs real pipelines (about a minute on two CPUs): figure 1 and figure 4
once each, figure 1 once more in-process for the resume check, and the
sweep twice, traced, for the count-repeat check.
"""
import csv
import json
import os
import shutil
import sys

import pytest

import check
import child
import run
import tracer

with open(run.REFERENCE) as _fh:
    REFERENCE = json.load(_fh)


def _cold(name, tmp_path):
    out = str(tmp_path / name)
    result = run.run_child(run.pipeline_spec(name, 0, out, str(tmp_path), warm_repeats=1))
    assert result["cold_exit"] == 0 and not result["warm_errors"]
    return out


def _failed(name, out):
    return {a: e for a, e in check.check_outputs(REFERENCE[name], out) if e is not None}


@pytest.fixture(scope="module")
def fig1_out(tmp_path_factory):
    return _cold("fig1-field", tmp_path_factory.mktemp("fig1"))


@pytest.fixture(scope="module")
def fig4_out(tmp_path_factory):
    return _cold("fig4-nv", tmp_path_factory.mktemp("fig4"))


def test_good_output_passes(fig1_out, fig4_out):
    assert _failed("fig1-field", fig1_out) == {}
    assert _failed("fig4-nv", fig4_out) == {}


def test_one_corrupt_byte_in_a_field_csv_is_flagged(fig1_out, tmp_path):
    bad = str(tmp_path / "bad")
    shutil.copytree(fig1_out, bad)
    path = os.path.join(bad, "field_n5.csv")
    with open(path, "r+b") as fh:
        fh.seek(os.path.getsize(path) // 2)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(b"7" if byte != b"7" else b"3")
    assert set(_failed("fig1-field", bad)) == {"field_n5.csv"}


def test_nv_perturbed_by_2e_3_is_flagged(fig4_out, tmp_path):
    bad = str(tmp_path / "bad")
    shutil.copytree(fig4_out, bad)
    path = os.path.join(bad, "nv_n2_r1p1.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["volume"] += 2e-3
    with open(path, "w") as fh:
        json.dump(doc, fh)

    table = os.path.join(bad, "nv_table.csv")
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[3]["nv"] = repr(float(rows[3]["nv"]) - 2e-3)
    with open(table, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    assert set(_failed("fig4-nv", bad)) == {"nv_n2_r1p1.json", "nv_table.csv"}


def _drop_one_artifact(out):
    os.unlink(os.path.join(out, "vortices_n3.json"))


def _stale_manifest(out):
    path = os.path.join(out, "manifest.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["config_hash"] = "0" * 64
    with open(path, "w") as fh:
        json.dump(doc, fh)


@pytest.mark.parametrize("spoil", [None, _drop_one_artifact, _stale_manifest])
def test_warm_rerun_that_recomputes_is_flagged(fig1_out, tmp_path, monkeypatch, spoil):
    monkeypatch.setenv("FOCKVORTEX_THREADS", str(run.WORKERS))
    monkeypatch.syspath_prepend(run.SRC)
    import fockvortex.cli as cli

    out = str(tmp_path / "out")
    shutil.copytree(fig1_out, out)
    argv = ["figure", "1", "--out", out]
    if spoil is not None:
        spoil(out)
    _, errors, _ = child.warm_reruns(cli, argv, out, 6, repeats=2)
    assert bool(errors) == (spoil is not None), errors


def test_count_metrics_repeat_across_seeds(tmp_path):
    """Seeds reorder the sweep's schedule; no count may move."""
    layers = []
    for seed in (1, 2):
        tally = run.Tally()
        result = run.pipeline_run("sweep-logneg-slice", seed, seed, str(tmp_path),
                                  REFERENCE["sweep-logneg-slice"], tally, trace=True)
        assert tally.errors == [] and result is not None
        counts = {k: v for k, v in tracer.summarize(result["spans"], result["counts"]).items()
                  if not k.endswith("_s")}
        counts.update({k: result[k] for k in ("tasks_run", "tasks_cached", "tasks_failed",
                                              "artifact_bytes")})
        layers.append(counts)
    assert layers[0] == layers[1]
    assert layers[0]["entanglement.log_negativity.calls"] == 16


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
