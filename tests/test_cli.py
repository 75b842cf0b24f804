"""End-to-end tests of the command-line front end: exit codes, artifacts,
manifest caching, and agreement between pipeline output and direct library
calls."""
import json
import math
import os

import numpy as np
import pytest

import fockvortex.beamsplitter as beamsplitter
import fockvortex.cli as cli
import fockvortex.entanglement as entanglement
import fockvortex.wigner as wigner
from fockvortex.cli import main
from fockvortex.entanglement import log_negativity
from fockvortex.states import SqueezeParams, make_tmss
from fockvortex.beamsplitter import apply_beam_splitter
from fockvortex.wigner import NegativityResult


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "fockvortex" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("figure_id", ["9", "0", "abc", "fig77", "gif4", "ffig5"])
def test_bad_figure_id_exits_usage(tmp_path, figure_id, capsys):
    code = main(["figure", figure_id, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_negative_squeezing_exits_usage(tmp_path, capsys):
    code = main(["field", "--r", "-0.5", "--n", "2", "-o", str(tmp_path / "f.csv")])
    assert code == 2


def test_bad_plane_spec_exits_usage(tmp_path):
    code = main([
        "wigner-slice", "--r", "0.3", "--n", "1", "--plane", "nonsense",
        "-o", str(tmp_path / "s.csv"),
    ])
    assert code == 2


@pytest.mark.parametrize("command", ["field", "wigner-slice"])
def test_non_finite_grid_exits_usage(tmp_path, command):
    out = tmp_path / "out.csv"
    assert main([command, "--r", "0.3", "--n", "1", "--grid=-inf:inf:3", "-o", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("plane", ["y=0,px=0", "y=0,py=0"])
def test_far_slice_exits_invariant(tmp_path, plane, capsys):
    # the kernel polynomials overflow at |q| = 1e6 and the Gaussian underflows:
    # their product is NaN, which must not reach the CSV.  The suite turns
    # warnings into errors, as `python -W error` does.
    out = tmp_path / "s.csv"
    argv = ["wigner-slice", "--r", "0.5", "--n", "14", "--grid=-1e6:1e6:3", "--plane", plane]
    assert main([*argv, "-o", str(out)]) == 4
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


def test_nan_nv_tolerance_exits_usage(tmp_path):
    # NaN fails every comparison, so without an up-front check the refinement
    # ladder would run to its last order and report non-convergence (exit 3)
    out = tmp_path / "nv.json"
    assert main(["nv", "--r", "0.5", "--n", "2", "--tol", "nan", "--json", str(out)]) == 2
    assert not out.exists()


def test_nonconverged_nv_exits_three(tmp_path, monkeypatch, capsys):
    fake = NegativityResult(
        volume=0.1, integral_abs=1.2, normalization_check=1.0,
        resolution_history=((24, 0.1),), converged=False, under_resolved=False,
    )
    monkeypatch.setattr(cli, "negativity_volume", lambda *a, **k: fake)
    code = main(["nv", "--r", "0.5", "--n", "2"])
    assert code == 3
    assert "did not converge" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def test_selftest_passes_and_reports(tmp_path, capsys):
    report = tmp_path / "selftest.json"
    code = main(["selftest", "--out", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["failures"] == []
    assert len(doc["checks"]) >= 12
    assert all(c["status"] == "ok" for c in doc["checks"])
    out = capsys.readouterr().out
    assert "checks passed" in out


def test_selftest_fault_injection_bites_then_resets(capsys):
    code = main(["selftest", "--inject-fault"])
    out = capsys.readouterr().out
    assert code == 4
    assert "FAIL closed-form-oracle" in out
    # the fault is always unwound: a plain rerun is clean again
    assert main(["selftest"]) == 0


def test_selftest_catches_a_faulty_schmidt_path(monkeypatch, tmp_path):
    exact = entanglement._schmidt_values
    monkeypatch.setattr(entanglement, "_schmidt_values", lambda state: exact(state) * (1 + 1e-6))
    report = tmp_path / "selftest.json"
    assert main(["selftest", "--out", str(report)]) == 4
    doc = json.loads(report.read_text())
    assert doc["failures"] == ["logneg-schmidt-vs-eigh"]
    assert len(doc["checks"]) == 17


def test_selftest_catches_a_faulty_product_slice(monkeypatch, tmp_path):
    exact = wigner._product_grid_wigner
    monkeypatch.setattr(wigner, "_product_grid_wigner",
                        lambda state, point: exact(state, point) * (1 + 1e-6))
    report = tmp_path / "selftest.json"
    assert main(["selftest", "--out", str(report)]) == 4
    doc = json.loads(report.read_text())
    assert doc["failures"] == ["slice-vs-pointwise"]
    assert len(doc["checks"]) == 17


def test_interrupt_in_selftest_aborts_and_resets_fault(monkeypatch):
    ran = []

    def interrupted():
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_selftest_checks",
                        lambda: [("interrupted", interrupted), ("next", lambda: ran.append(1))])
    with pytest.raises(KeyboardInterrupt):
        main(["selftest", "--inject-fault"])
    assert ran == []
    assert beamsplitter._FAULT_INJECTED is False


# ---------------------------------------------------------------------------
# field / wigner-slice / nv artifacts
# ---------------------------------------------------------------------------

def test_field_writes_parseable_csv_and_vortex_report(tmp_path):
    csv_path = tmp_path / "field.csv"
    json_path = tmp_path / "vortices.json"
    code = main([
        "field", "--r", "0.2", "--n", "3", "--grid=-5:5:42",
        "-o", str(csv_path), "--vortices", str(json_path),
    ])
    assert code == 0
    header, rows = read_csv(csv_path)
    assert header == ["x", "y", "re", "im", "abs", "arg"]
    assert len(rows) == 42 * 42
    values = np.array([[float(v) for v in row] for row in rows])  # parse must not fail
    assert np.all(np.isfinite(values))
    # modulus column is consistent with the complex parts
    assert np.allclose(values[:, 4], np.hypot(values[:, 2], values[:, 3]), atol=1e-12)

    doc = json.loads(json_path.read_text())
    assert set(doc) >= {"count", "total_charge", "vortices", "r", "n_max", "grid"}
    assert doc["count"] == len(doc["vortices"])


def test_field_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["field", "--r", "0.7", "--n", "2", "--grid=-4:4:31"]
    assert main(argv + ["-o", str(a)]) == 0
    assert main(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_field_pre_splitter_input_flags(tmp_path):
    out = tmp_path / "pre.csv"
    code = main([
        "field", "--r", "0.4", "--n", "2", "--pre-bs", "--fock-input",
        "--grid=-3:3:15", "-o", str(out),
    ])
    assert code == 0
    assert out.exists()


def test_wigner_slice_csv_layout(tmp_path):
    out = tmp_path / "slice.csv"
    code = main([
        "wigner-slice", "--r", "0.6", "--n", "2", "--grid=-2:2:9",
        "-o", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["x", "py", "w"]  # default plane fixes y and px
    assert len(rows) == 81
    for row in rows:
        [float(v) for v in row]


def test_wigner_slice_diagonal_form_parseable(tmp_path):
    out = tmp_path / "diagonal.csv"
    code = main([
        "wigner-slice", "--r", "0.8", "--n", "2", "--grid=-2:2:7",
        "--diagonal-form", "-o", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["x", "py", "w"]
    ws = [float(row[2]) for row in rows]
    assert all(math.isfinite(w) for w in ws)
    # the diagonal closed form is a positive mixture on this plane at r=0.8
    assert max(ws) > 0


def test_nv_json_artifact_matches_library(tmp_path):
    out = tmp_path / "nv.json"
    code = main(["nv", "--r", "0.5", "--n", "2", "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["converged"] is True
    assert doc["volume"] == pytest.approx(0.056170, abs=5e-4)
    assert doc["normalization_check"] == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# figure pipeline + manifest caching
# ---------------------------------------------------------------------------

def test_figure5_pipeline_runs_then_caches(tmp_path):
    out = tmp_path / "fig5"
    assert main(["figure", "5", "--out", str(out)]) == 0

    table = out / "logneg_table.csv"
    header, rows = read_csv(table)
    assert header == ["r", "n", "l_before", "l_after", "ratio"]
    assert len(rows) == 45  # 15 squeezing values x 3 truncation orders

    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert all(t["status"] == "ok" for t in manifest["tasks"])
    manifest_bytes = manifest_path.read_bytes()
    first_bytes = table.read_bytes()
    first_mtime = table.stat().st_mtime_ns

    # unchanged config: the rerun is a no-op that rewrites nothing at all,
    # leaving even the manifest byte-identical
    assert main(["figure", "5", "--out", str(out)]) == 0
    assert manifest_path.read_bytes() == manifest_bytes
    assert table.read_bytes() == first_bytes
    assert table.stat().st_mtime_ns == first_mtime


def test_figure5_table_row_matches_direct_computation(tmp_path):
    out = tmp_path / "fig5"
    assert main(["figure", "5", "--out", str(out)]) == 0
    _, rows = read_csv(out / "logneg_table.csv")
    picked = [row for row in rows if row[0] == "0.3" and row[1] == "2"]
    assert len(picked) == 1
    row = picked[0]
    before = make_tmss(SqueezeParams(r=0.3, n_max=2))
    after = apply_beam_splitter(before)
    assert float(row[2]) == pytest.approx(log_negativity(before).log_negativity, abs=1e-12)
    assert float(row[3]) == pytest.approx(log_negativity(after).log_negativity, abs=1e-12)
    assert float(row[4]) == pytest.approx(float(row[3]) / float(row[2]), abs=1e-12)


def test_figure_pipeline_resumes_after_deleted_artifact(tmp_path):
    out = tmp_path / "fig5"
    assert main(["figure", "5", "--out", str(out)]) == 0
    victim = out / "logneg_n4.json"
    assert victim.exists()
    victim.unlink()
    assert main(["figure", "5", "--out", str(out)]) == 0
    assert victim.exists()
    manifest = json.loads((out / "manifest.json").read_text())
    statuses = {t["name"]: t["status"] for t in manifest["tasks"]}
    assert statuses["logneg-n4"] == "ok"  # recomputed
    assert statuses["logneg-n2"] == "cached"
    assert statuses["logneg-n6"] == "cached"


def test_figure_pipeline_recomputes_after_tool_version_change(tmp_path, capsys):
    out = tmp_path / "fig5"
    argv = ["figure", "5", "--out", str(out)]
    assert main(argv) == 0
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["tool_version"] = "0.0.1"
    manifest_path.write_text(json.dumps(manifest))

    assert main(argv) == 0
    manifest = json.loads(manifest_path.read_text())
    assert manifest["tool_version"] == cli.__version__
    assert all(t["status"] == "ok" for t in manifest["tasks"])  # nothing served from 0.0.1

    capsys.readouterr()
    assert main(argv) == 0
    assert "all 3 tasks cached; nothing to do" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def write_config(tmp_path, **overrides):
    cfg = {
        "r_values": [0.0, 0.3],
        "n_values": [2],
        "outputs": ["logneg"],
        "output_dir": str(tmp_path / "sweep-out"),
    }
    cfg.update(overrides)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    return path


def test_sweep_logneg_matches_direct_and_blank_ratio_at_zero(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    header, rows = read_csv(tmp_path / "sweep-out" / "sweep.csv")
    assert header == ["r", "n", "l_before", "l_after", "ratio"]
    assert len(rows) == 2

    zero_row = [r for r in rows if float(r[0]) == 0.0][0]
    assert zero_row[4] == ""  # the ratio is undefined at r = 0, left blank

    row = [r for r in rows if float(r[0]) == 0.3][0]
    before = make_tmss(SqueezeParams(r=0.3, n_max=2))
    after = apply_beam_splitter(before)
    assert float(row[2]) == pytest.approx(log_negativity(before).log_negativity, abs=1e-12)
    assert float(row[3]) == pytest.approx(log_negativity(after).log_negativity, abs=1e-12)


def test_sweep_with_nv_column_and_artifacts(tmp_path):
    cfg = write_config(
        tmp_path, r_values=[0.5], outputs=["nv", "logneg"], nv_order=16
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    out = tmp_path / "sweep-out"
    header, rows = read_csv(out / "sweep.csv")
    assert header == ["r", "n", "l_before", "l_after", "ratio", "nv"]
    assert float(rows[0][5]) == pytest.approx(0.056170, abs=5e-4)
    assert (out / "nv_r0p5_n2.json").exists()
    assert (out / "logneg_r0p5_n2.json").exists()


def test_sweep_field_and_slice_artifacts(tmp_path):
    cfg = write_config(
        tmp_path,
        r_values=[0.8],
        outputs=["field", "vortices", "wigner-slice"],
        grid="-4:4:21",
        slice_grid="-2:2:7",
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    out = tmp_path / "sweep-out"
    assert (out / "field_r0p8_n2.csv").exists()
    assert (out / "vortices_r0p8_n2.json").exists()
    assert (out / "slice_r0p8_n2.csv").exists()
    header, rows = read_csv(out / "sweep.csv")
    assert header == ["r", "n", "l_before", "l_after", "ratio"]
    assert rows[0][2] == rows[0][3] == rows[0][4] == ""


@pytest.mark.parametrize(
    "overrides",
    [
        {"r_values": []},
        {"r_values": [-0.1]},
        {"n_values": []},
        {"outputs": ["bogus"]},
        {"outputs": []},
    ],
)
def test_sweep_invalid_config_exits_usage(tmp_path, overrides):
    cfg = write_config(tmp_path, **overrides)
    assert main(["sweep", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "overrides",
    [
        {"nv_order": 1, "outputs": ["nv"]},
        {"r_values": [float("nan")]},
        {"slice_plane": {"z": 0, "px": 0}, "outputs": ["wigner-slice"]},
        {"grid": "-1:1", "outputs": ["field"]},
        {"slice_grid": "-inf:inf:3", "outputs": ["wigner-slice"]},
        # malformed values: not a number, not a list, not an integer, a boolean, not a path
        {"r_values": ["abc"]},
        {"r_values": 0.5},
        {"nv_order": "x", "outputs": ["nv"]},
        {"nv_tol": None, "outputs": ["nv"]},
        {"n_values": [2.5]},
        {"slice_plane": {"y": "a", "px": 0}, "outputs": ["wigner-slice"]},
        {"r_values": [True]},
        {"output_dir": 5},
    ],
)
def test_sweep_invalid_values_exit_usage(tmp_path, overrides):
    cfg = write_config(tmp_path, **overrides)
    assert main(["sweep", "--config", str(cfg)]) == 2
    # rejected by the config check, before any task runs or a manifest is written
    assert not (tmp_path / "sweep-out" / "manifest.json").exists()


def test_sweep_point_matches_figure_artifacts(tmp_path):
    """At the figure defaults a sweep point writes the same bytes as the
    figure task for that point: figure 4's NV and figure 2's first slice."""
    cfg = write_config(tmp_path, r_values=[0.6, 0.8], n_values=[2, 6],
                       outputs=["nv", "wigner-slice"])
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert main(["figure", "4", "--out", str(tmp_path / "fig4")]) == 0
    assert main(["figure", "2", "--out", str(tmp_path / "fig2")]) == 0
    sweep = tmp_path / "sweep-out"
    assert ((sweep / "nv_r0p8_n2.json").read_bytes()
            == (tmp_path / "fig4" / "nv_n2_r0p8.json").read_bytes())
    assert ((sweep / "slice_r0p6_n6.csv").read_bytes()
            == (tmp_path / "fig2" / "slice_r0p6_plane1.csv").read_bytes())


def test_sweep_missing_key_and_bad_json_exit_usage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"r_values": [0.1]}))
    assert main(["sweep", "--config", str(path)]) == 2
    path.write_text("{not json")
    assert main(["sweep", "--config", str(path)]) == 2
    assert main(["sweep", "--config", str(tmp_path / "missing.json")]) == 2


def test_sweep_resume_recomputes_only_missing_points(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep-out"
    assert main(["sweep", "--config", str(cfg)]) == 0
    first = (out / "sweep.csv").read_bytes()
    (out / "logneg_r0p3_n2.json").unlink()
    assert main(["sweep", "--config", str(cfg)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    statuses = {t["name"]: t["status"] for t in manifest["tasks"]}
    assert statuses["point-r0p3_n2"] == "ok"
    assert statuses["point-r0p0_n2"] == "cached"
    assert (out / "sweep.csv").read_bytes() == first


def test_resume_reruns_unreadable_cached_artifact(tmp_path):
    cfg = write_config(tmp_path, r_values=[0.3, 0.6])
    out = tmp_path / "sweep-out"
    assert main(["sweep", "--config", str(cfg)]) == 0
    victim = out / "logneg_r0p3_n2.json"
    original = victim.read_bytes()
    victim.write_bytes(b"x" + original[1:])  # same size, so it passes as intact
    (out / "logneg_r0p6_n2.json").unlink()  # something must run for payloads to load
    assert main(["sweep", "--config", str(cfg)]) == 0
    statuses = {t["name"]: t["status"]
                for t in json.loads((out / "manifest.json").read_text())["tasks"]}
    assert statuses == {"point-r0p3_n2": "ok", "point-r0p6_n2": "ok"}
    assert victim.read_bytes() == original


def test_interrupt_in_a_task_aborts_the_run(tmp_path, monkeypatch):
    def interrupted(r, n):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_logneg_row", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["sweep", "--config", str(write_config(tmp_path))])


@pytest.mark.parametrize(
    "argv",
    [
        *(["figure", str(f), "--fock-input"] for f in range(2, 6)),
        ["wigner-slice", "--r", "0.8", "--n", "2", "--diagonal-form", "--fock-input"],
        ["wigner-slice", "--r", "0.8", "--n", "2", "--diagonal-form", "--pre-bs"],
    ],
    ids=" ".join,
)
def test_flags_that_would_do_nothing_exit_usage(tmp_path, argv, capsys):
    out = ["--out", str(tmp_path / "out")] if argv[0] == "figure" else ["-o", str(tmp_path / "s.csv")]
    assert main(argv + out) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "s.csv").exists()


def test_every_artifact_gets_the_same_mode(tmp_path):
    cfg = write_config(
        tmp_path, r_values=[0.8], outputs=["field", "vortices", "wigner-slice", "logneg"],
        grid="-4:4:21", slice_grid="-2:2:7",
    )
    old_umask = os.umask(0o022)
    try:
        assert main(["sweep", "--config", str(cfg)]) == 0
    finally:
        os.umask(old_umask)
    out = tmp_path / "sweep-out"
    modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
    assert {"field_r0p8_n2.csv", "vortices_r0p8_n2.json", "slice_r0p8_n2.csv",
            "logneg_r0p8_n2.json", "sweep.csv", "manifest.json"} <= set(modes)
    assert set(modes.values()) == {0o644}, modes


def test_resume_recomputes_truncated_artifacts(tmp_path):
    cfg = write_config(tmp_path, r_values=[0.3, 0.8], outputs=["field", "logneg"],
                       grid="-4:4:21")
    out = tmp_path / "sweep-out"
    assert main(["sweep", "--config", str(cfg)]) == 0
    field, table = out / "field_r0p3_n2.csv", out / "sweep.csv"
    originals = {p: p.read_bytes() for p in (field, table)}
    sizes = json.loads((out / "manifest.json").read_text())["artifact_sizes"]
    assert sizes["field_r0p3_n2.csv"] == len(originals[field])
    assert sizes["sweep.csv"] == len(originals[table])

    field.write_bytes(originals[field][: len(originals[field]) // 2])  # non-empty but cut
    assert main(["sweep", "--config", str(cfg)]) == 0
    statuses = {t["name"]: t["status"]
                for t in json.loads((out / "manifest.json").read_text())["tasks"]}
    assert statuses == {"point-r0p3_n2": "ok", "point-r0p8_n2": "cached"}
    assert field.read_bytes() == originals[field]

    table.write_bytes(originals[table][:-3])  # the aggregate alone is cut
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert table.read_bytes() == originals[table]
