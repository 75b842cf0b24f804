"""End-to-end tests of the command-line front end: exit codes, artifacts,
manifest caching, and agreement between pipeline output and direct library
calls."""
import inspect
import json
import math
import os
import re
import resource
import runpy
import subprocess
import sys
import time
import types

import numpy as np
import pytest
from scipy import ndimage

import fockvortex.cli as cli
import fockvortex.entanglement as entanglement
import fockvortex.errors as errors
import fockvortex.floatrepr as floatrepr
import fockvortex.quadrature as quadrature
import fockvortex.selftest as selftest
import fockvortex.wigner as wigner
from fockvortex.cli import main
from fockvortex.entanglement import log_negativity
from fockvortex.oracles import _closed_form_dense
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
    # the Fock input does not use r, but its JSON records it, so r is checked too
    out = tmp_path / "nv.json"
    assert main(["nv", "--r", "-3", "--n", "1", "--fock-input", "--json", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("r,options", [
    pytest.param("inf", [], id="inf"),
    pytest.param("nan", [], id="nan"),
    pytest.param("inf", ["--fock-input"], id="inf-fock-input"),
    pytest.param("nan", ["--fock-input"], id="nan-fock-input"),
])
def test_non_finite_squeezing_exits_usage(tmp_path, capsys, r, options):
    out = tmp_path / "nv.json"
    assert main(["nv", "--r", r, "--n", "2", *options, "--json", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: squeezing parameter must be a finite real number, got {r}\n"
    assert not out.exists()


def test_exit_code_matches_the_documented_error_groups():
    # errors.py lists its classes under "(exit code N)" headings; each class
    # must exit with its heading's code
    documented, code = {}, None
    for line in inspect.getsource(errors).splitlines():
        heading = re.search(r"\(exit code (\d)\)", line)
        if heading:
            code = int(heading.group(1))
        cls = re.match(r"class (\w+)\(", line)
        if cls and code is not None:
            documented[cls.group(1)] = code
    assert set(documented.values()) == {2, 3, 4}
    assert documented["InvalidStateError"] == 4
    for name, want in documented.items():
        cls = getattr(errors, name)
        assert cli._exit_code(cls.__new__(cls)) == want, name  # constructors differ


def test_bad_plane_spec_exits_usage(tmp_path):
    code = main([
        "wigner-slice", "--r", "0.3", "--n", "1", "--plane", "nonsense",
        "-o", str(tmp_path / "s.csv"),
    ])
    assert code == 2


def test_repeated_plane_coordinate_exits_usage(tmp_path, capsys):
    # a later value must not silently replace an earlier one
    out = tmp_path / "s.csv"
    argv = ["wigner-slice", "--r", "0.3", "--n", "1", "--plane", "y=0,y=1,px=0", "--grid=-1:1:3"]
    assert main([*argv, "-o", str(out)]) == 2
    assert "plane coordinate 'y' is given twice" in capsys.readouterr().err
    assert not out.exists()


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


def test_far_diagonal_form_slice_exits_invariant(tmp_path, capsys):
    # the diagonal form's Laguerre factors overflow as the kernels do
    out = tmp_path / "s.csv"
    argv = ["wigner-slice", "--diagonal-form", "--r", "0.5", "--n", "14", "--grid=-1e6:1e6:3"]
    assert main([*argv, "-o", str(out)]) == 4
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


def test_nan_nv_tolerance_exits_usage(tmp_path):
    # NaN fails every comparison, so without an up-front check the refinement
    # ladder would run to its last order and report non-convergence (exit 3);
    # any two orders differ by less than inf, which would report convergence
    out = tmp_path / "nv.json"
    for tol in ("nan", "inf"):
        assert main(["nv", "--r", "0.5", "--n", "2", "--tol", tol, "--json", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("message", [
    "Unable to allocate 23.8 GiB for an array with shape (40000, 40000, 2) and data type float64",
    "",
])
def test_memory_error_exits_invariant_with_one_line(tmp_path, monkeypatch, capsys, message):
    # what a 40000-point grid does, without making the allocation
    def too_big(state, grid):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "evaluate_field", too_big)
    out = tmp_path / "f.csv"
    code = main(["field", "--r", "0.5", "--n", "4", "--grid=-6:6:40000", "-o", str(out)])
    assert code == 4
    assert capsys.readouterr().err.splitlines() == [f"error: {message or 'MemoryError'}"]
    assert not out.exists()


def _run_cli(env, argv, cwd):
    """The CLI in a fresh interpreter with ``env``, under a timeout and a 2 GiB
    address space, so code that built a list of N items would fail, not swap."""
    return subprocess.run([sys.executable, "-m", "fockvortex.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 ** 31,) * 2))


@pytest.mark.parametrize("argv", [
    pytest.param(["field", "--fock-input", "--n", str(10 ** 20), "-o", "f.csv"], id="field-fock-input"),
    pytest.param(["nv", "--n", str(10 ** 9)], id="nv"),
    pytest.param(["nv", "--fock-input", "--n", str(10 ** 9)], id="nv-fock-input"),
])
def test_cutoff_past_numpys_largest_array_exits_usage_at_once(tmp_path, child_env, argv):
    # numpy refuses these shapes outright, before allocating anything
    proc = _run_cli(child_env, [*argv, "--r", "0.5"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cutoff "), err
    assert "needs an array larger than numpy allows" in err[0]
    assert os.listdir(tmp_path) == []


def test_sweep_point_past_numpys_largest_array_fails_its_task_at_once(tmp_path, child_env):
    # make_tmss used to build an (N + 1)-element list before it allocated
    cfg = write_config(tmp_path, r_values=[0.5], n_values=[10 ** 20])
    proc = _run_cli(child_env, ["sweep", "--config", str(cfg)], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == ["1/1 tasks failed"]
    [task] = json.loads((tmp_path / "sweep-out" / "manifest.json").read_text())["tasks"]
    assert task["status"] == "failed"
    assert task["error"].startswith(f"InvalidParameterError: cutoff {2 * 10 ** 20} "), task


@pytest.mark.parametrize("command", ["figure", "field", "field-onto-dir", "nv", "selftest"])
def test_unwritable_output_exits_invariant_with_one_line(tmp_path, monkeypatch, capsys, command):
    # an OSError from an output path exits 4, as it does inside a pipeline task:
    # here a path under a file or onto a directory, whose parent exists
    monkeypatch.setattr(selftest, "checks", lambda fault: [])
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    under_file, onto_dir = str(tmp_path / "file" / "sub"), str(tmp_path / "dir")
    argv, target = {
        "figure": (["figure", "1", "--out"], under_file),
        "field": (["field", "--r", "0.3", "--n", "1", "--grid=-1:1:3", "-o"], under_file),
        "field-onto-dir": (["field", "--r", "0.3", "--n", "1", "--grid=-1:1:3", "-o"], onto_dir),
        "nv": (["nv", "--r", "0.3", "--n", "1", "--json"], under_file),
        "selftest": (["selftest", "--out"], onto_dir),
    }[command]
    assert main([*argv, target]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: [Errno"), err
    # the message names the path asked for, not the temp file written first
    assert err[0].endswith(f": '{target}'") and ".tmp-" not in err[0], err
    # no temp file is left behind, beside the path or anywhere else
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "file"]


@pytest.mark.parametrize("command", ["field", "field-vortices", "wigner-slice", "nv", "selftest"])
def test_output_in_missing_directory_exits_usage_before_any_work(tmp_path, monkeypatch, capsys,
                                                                  command):
    # the output's directory is checked before any state is built, so nothing
    # is computed only to be thrown away
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("computed before the output path was checked")

    for module in (cli, selftest):
        for name in ("evaluate_field", "wigner_slice", "negativity_volume"):
            monkeypatch.setattr(module, name, spy)
    missing = str(tmp_path / "missing" / "out")
    point = ["--r", "0.3", "--n", "1"]
    argv = {
        "field": ["field", *point, "-o", missing],
        "field-vortices": ["field", *point, "-o", str(tmp_path / "f.csv"), "--vortices", missing],
        "wigner-slice": ["wigner-slice", *point, "-o", missing],
        "nv": ["nv", *point, "--json", missing],
        "selftest": ["selftest", "--out", missing],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: cannot write {missing}: no such directory"]
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flags, message", [
    ("field", ["--grid=bogus", "-o", "f.csv"], "error: bad grid spec 'bogus'"),
    ("wigner-slice", ["--plane", "x=0", "-o", "s.csv"], "error: plane must fix exactly two"),
    ("wigner-slice", ["--grid=bogus", "-o", "s.csv"], "error: bad grid spec 'bogus'"),
    ("nv", ["--order", "1"], "error: order must be >= 2"),
    ("nv", ["--tol", "0"], "error: tol must be > 0"),
], ids=["field-grid", "wigner-slice-plane", "wigner-slice-grid", "nv-order", "nv-tol"])
def test_bad_point_setting_exits_usage_before_any_state(tmp_path, monkeypatch, capsys, command,
                                                        flags, message):
    # past the splitter's norm wall (exit 4 once the image is built), so a
    # setting checked after the state would show as an invariant failure
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a state was built before the settings were checked")

    for name in ("make_tmss", "apply_beam_splitter"):
        monkeypatch.setattr(cli, name, spy)
    monkeypatch.chdir(tmp_path)
    assert main([command, "--r", "1.5", "--n", "26", *flags]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message), err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


# each single-shot command of tools/artifact_hashes.py SINGLES, and the
# --fock-input NV, with the summary lines it prints
_NV_08_2 = "negativity volume = 0.183449 (integral of W = 1.000000; orders 24:0.183224, 48:0.183449)"
SINGLE_STDOUT = {
    "nv": ("nv --r 0.8 --n 2 --json nv.json", [_NV_08_2]),
    "nv-fock-input": (
        "nv --r 0.8 --n 2 --fock-input",
        ["negativity volume = 0.994846 (integral of W = 1.000000; "
         "orders 24:0.994141, 48:0.996523, 96:0.993855, 192:0.994846)"]),
    "field-fock-input": (
        "field --r 0.02 --n 2 --fock-input --grid=-3:3:31 -o field_fock.csv "
        "--vortices vortices_fock.json",
        ["field written to field_fock.csv (grid -3:3:31, riemann norm 0.958638)",
         "vortices: count=0 total_charge=0 -> vortices_fock.json"]),
    "field-pre-bs": (
        "field --r 0.8 --n 2 --pre-bs --grid=-3:3:31 -o field_pre_bs.csv "
        "--vortices vortices_pre_bs.json",
        ["field written to field_pre_bs.csv (grid -3:3:31, riemann norm 0.999319)",
         "vortices: count=0 total_charge=0 -> vortices_pre_bs.json"]),
    "wigner-slice-mode-b": (
        "wigner-slice --r 0.8 --n 2 --plane x=0.3,px=0 --grid=-2:2:21 -o slice_mode_b.csv",
        ["slice written to slice_mode_b.csv (min -0.022890, max 0.282746)"]),
    "wigner-slice-pre-bs": (
        "wigner-slice --r 0.8 --n 2 --pre-bs --grid=-2:2:21 -o slice_pre_bs.csv",
        ["slice written to slice_pre_bs.csv (min -0.018478, max 0.405285)"]),
    "wigner-slice-diagonal-form": (
        "wigner-slice --r 0.8 --n 2 --diagonal-form --grid=-2:2:21 -o slice_diagonal_form.csv",
        ["diagonal-form slice written to slice_diagonal_form.csv (min 0.000028, max 0.405285)"]),
}


@pytest.mark.parametrize("argv, lines", SINGLE_STDOUT.values(), ids=SINGLE_STDOUT)
def test_single_shot_summary_lines(tmp_path, monkeypatch, capsys, argv, lines):
    monkeypatch.chdir(tmp_path)
    assert main(argv.split()) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == lines
    assert captured.err == ""


def test_summary_lines_cover_every_single_of_the_hash_tool():
    tool = os.path.join(os.path.dirname(__file__), "..", "tools", "artifact_hashes.py")
    singles = {" ".join(argv) for argv in runpy.run_path(tool)["SINGLES"]}
    assert singles <= {argv for argv, _ in SINGLE_STDOUT.values()}


def test_nonconverged_nv_exits_three(tmp_path, monkeypatch, capsys):
    fake = NegativityResult(
        volume=0.1, integral_abs=1.2, normalization_check=1.0,
        resolution_history=((24, 0.1),), converged=False, under_resolved=False, engine="reduced-3d",
    )
    monkeypatch.setattr(cli, "negativity_volume", lambda *a, **k: fake)
    out = tmp_path / "nv.json"
    code = main(["nv", "--r", "0.5", "--n", "2", "--json", str(out)])
    assert code == 3
    assert "did not converge" in capsys.readouterr().err
    assert json.loads(out.read_text())["converged"] is False  # the best estimate is kept


def test_nan_nv_exits_invariant_with_one_line(tmp_path, monkeypatch, capsys):
    # what `nv --r 0.5 --n 1500 --order 2 --tol 1` meets once its kernel
    # columns overflow, without that run's 374 MB
    monkeypatch.setattr(wigner, "_reduced_pass", lambda *a, **k: (math.nan, math.nan))
    out = tmp_path / "nv.json"
    assert main(["nv", "--r", "0.5", "--n", "2", "--json", str(out)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "not finite" in err[0]
    assert not out.exists()


def test_nan_nv_point_is_a_failed_task(tmp_path, monkeypatch):
    monkeypatch.setattr(wigner, "_reduced_pass", lambda *a, **k: (math.nan, math.nan))
    cfg = write_config(tmp_path, r_values=[0.3], outputs=["nv"])
    assert main(["sweep", "--config", str(cfg)]) == 4
    out = tmp_path / "sweep-out"
    [entry] = json.loads((out / "manifest.json").read_text())["tasks"]
    assert entry["status"] == "failed" and "InvariantError" in entry["error"]
    assert not (out / "nv_r0p3_n2.json").exists()


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


def test_selftest_fault_injection_bites_then_resets(capsys, tmp_path):
    report = tmp_path / "selftest.json"
    code = main(["selftest", "--inject-fault", "--out", str(report)])
    out = capsys.readouterr().out
    assert code == 4
    assert "FAIL closed-form-oracle" in out
    assert json.loads(report.read_text())["failures"] == ["closed-form-oracle"]  # and no other
    # the fault is always unwound: a plain rerun is clean again
    assert main(["selftest"]) == 0


def test_selftest_fault_report_names_the_worst_deviation_and_pair(tmp_path):
    # the check stops at its first (r, N), r = 0.1 and N = 1, and its detail
    # gives the worst |delta| there and the pair it sits at
    report = tmp_path / "selftest.json"
    assert main(["selftest", "--inject-fault", "--out", str(report)]) == 4
    (record,) = [c for c in json.loads(report.read_text())["checks"] if c["status"] == "failed"]
    params = SqueezeParams(r=0.1, n_max=1)
    dev = np.abs(_closed_form_dense(params, fault=True)
                 - apply_beam_splitter(make_tmss(params)).amplitudes)
    na, nb = np.unravel_index(int(dev.argmax()), dev.shape)
    assert record["name"] == "closed-form-oracle"
    assert f"by {dev.max():.3e} at pair ({na}, {nb}), r=0.1, N=1" in record["detail"]


def test_selftest_catches_a_faulty_schmidt_path(monkeypatch, tmp_path):
    exact = entanglement._schmidt_values
    monkeypatch.setattr(entanglement, "_schmidt_values", lambda state: exact(state) * (1 + 1e-6))
    report = tmp_path / "selftest.json"
    assert main(["selftest", "--out", str(report)]) == 4
    doc = json.loads(report.read_text())
    assert doc["failures"] == ["logneg-schmidt-vs-eigh"]
    assert len(doc["checks"]) == 24


def test_selftest_catches_a_faulty_product_slice(monkeypatch, tmp_path):
    exact = wigner._kernel_products
    monkeypatch.setattr(wigner, "_kernel_products", lambda *args: exact(*args) * (1 + 1e-6))
    report = tmp_path / "selftest.json"
    assert main(["selftest", "--out", str(report)]) == 4
    doc = json.loads(report.read_text())
    assert doc["failures"] == ["slice-vs-pointwise"]
    assert len(doc["checks"]) == 24


def test_selftest_catches_a_slab_built_without_the_conjugate(monkeypatch, tmp_path):
    # each slab of the pair matrix built as A (x) A instead of A (x) A*; no
    # other path runs an einsum with these subscripts
    einsum = np.einsum

    def faulty(subscripts, *operands, **kwargs):
        if subscripts == "ab,cd->acbd":
            operands = (operands[0], operands[1].conj())
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", faulty)
    report = tmp_path / "selftest.json"
    assert main(["selftest", "--out", str(report)]) == 4
    doc = json.loads(report.read_text())
    assert doc["failures"] == ["slice-vs-pointwise"]
    assert len(doc["checks"]) == 24


def test_selftest_catches_a_writer_that_merges_signed_zeros(monkeypatch, tmp_path):
    exact = quadrature._repr_table
    monkeypatch.setattr(quadrature, "_repr_table",
                        lambda values: exact(np.where(values == 0, 0.0, values)))
    report = tmp_path / "selftest.json"
    assert main(["selftest", "--out", str(report)]) == 4
    doc = json.loads(report.read_text())
    assert doc["failures"] == ["csv-dedup-vs-direct"]
    assert len(doc["checks"]) == 24


def test_selftest_catches_a_removal_loop_capped_at_1e17(monkeypatch, tmp_path):
    # at most 17 digits dropped: 0.2, whose scaled vr has 19 digits, prints as
    # 0.20; the CSV check's values either need fewer or read alike (1.0)
    monkeypatch.setattr(floatrepr, "_POW10", floatrepr._POW10[:18])
    report = tmp_path / "selftest.json"
    assert main(["selftest", "--out", str(report)]) == 4
    doc = json.loads(report.read_text())
    assert doc["failures"] == ["repr-fast-vs-python"]
    assert len(doc["checks"]) == 24


def test_selftest_catches_a_four_connected_labeler(monkeypatch, tmp_path):
    # scipy's default structure is the 4-connected cross
    monkeypatch.setattr(quadrature, "_label8", ndimage.label)
    report = tmp_path / "selftest.json"
    assert main(["selftest", "--out", str(report)]) == 4
    doc = json.loads(report.read_text())
    assert doc["failures"] == ["vortex-label-8conn"]
    assert len(doc["checks"]) == 24


def _selftest_with_row_cache(monkeypatch, tmp_path, key):
    """The selftest's report with ``_cached_band_rows`` replaced by a cache
    keyed on ``key(span, na0, nb0, order, folded)`` alone."""
    exact = wigner._cached_band_rows
    served = {}
    hits = []

    def keyed(span, na0, nb0, order, folded):
        if key(span, na0, nb0, order, folded) in served:
            hits.append(1)
        else:
            served[key(span, na0, nb0, order, folded)] = exact(span, na0, nb0, order, folded)
        return served[key(span, na0, nb0, order, folded)]

    keyed.cache_clear = served.clear
    keyed.cache_info = lambda: types.SimpleNamespace(hits=len(hits))
    monkeypatch.setattr(wigner, "_cached_band_rows", keyed)
    report = tmp_path / "selftest.json"
    assert main(["selftest", "--out", str(report)]) == 4
    return json.loads(report.read_text())


def test_selftest_catches_profile_tables_cached_by_order_alone(monkeypatch, tmp_path):
    # a band-row cache that forgets the diagonal's span: band s of one span
    # starts at another row than in the next, so every reuse across spans
    # reads wrong rows, and nv-reduced-vs-tensor's N = 1 pass at order 48
    # reads the rows that wigner-normalization's N = 2 pass left
    doc = _selftest_with_row_cache(monkeypatch, tmp_path,
                                   lambda span, na0, nb0, order, folded: (order, folded))
    assert doc["failures"] == ["nv-reduced-vs-tensor", "nv-tables-cached-vs-fresh"]
    assert len(doc["checks"]) == 24


def test_selftest_catches_profile_tables_cached_without_the_fold(monkeypatch, tmp_path):
    # a band-row cache that forgets whether the radial rule was folded
    doc = _selftest_with_row_cache(monkeypatch, tmp_path,
                                   lambda span, na0, nb0, order, folded: (span, na0, nb0, order))
    assert doc["failures"] == ["nv-tables-cached-vs-fresh"]
    assert len(doc["checks"]) == 24


def test_selftest_catches_band_rows_cached_without_the_diagonal_offsets(monkeypatch, tmp_path):
    # a band-row cache that forgets where the diagonal starts
    doc = _selftest_with_row_cache(monkeypatch, tmp_path,
                                   lambda span, na0, nb0, order, folded: (span, order, folded))
    assert doc["failures"] == ["nv-tables-cached-vs-fresh"]
    assert len(doc["checks"]) == 24


def test_selftest_catches_band_tables_shifted_by_one_band(monkeypatch, tmp_path):
    # band s read as band s + 1: every harmonic takes the next band's rows
    exact = wigner._band_rows

    def shifted(span, na0, nb0, ua, ub):
        rows = exact(span, na0, nb0, ua, ub)
        off = wigner._band_layout(span)[0]
        out = np.zeros_like(rows)
        for s in range(span - 1):
            out[off[s]:off[s + 1] - 1] = rows[off[s + 1]:off[s + 2]]
        return out

    monkeypatch.setattr(wigner, "_band_rows", shifted)
    wigner._cached_band_rows.cache_clear()  # no rows another test built
    try:
        report = tmp_path / "selftest.json"
        assert main(["selftest", "--out", str(report)]) == 4
    finally:
        wigner._cached_band_rows.cache_clear()  # no shifted rows for later tests
    doc = json.loads(report.read_text())
    # the checks that hold the reduced pass to an independent value fail; the
    # ones that hold two reduced passes on the same rows together do not
    assert doc["failures"] == ["wigner-normalization", "nv-reduced-vs-tensor"]
    assert len(doc["checks"]) == 24


def test_selftest_catches_an_image_diagonal_one_photon_off(monkeypatch, tmp_path):
    exact = wigner._pair_diagonal

    def shifted(state):
        found = exact(state)
        if found is None or wigner._single_diagonal(state.amplitudes) is not None:
            return found
        c, na0, nb0 = found  # found after one more splitter pass
        return c, na0 + 1, nb0 + 1

    monkeypatch.setattr(wigner, "_pair_diagonal", shifted)
    report = tmp_path / "selftest.json"
    assert main(["selftest", "--out", str(report)]) == 4
    doc = json.loads(report.read_text())
    assert doc["failures"] == ["nv-splitter-invariance"]
    assert len(doc["checks"]) == 24


def test_selftest_catches_a_broken_fold_end_weight(monkeypatch, tmp_path):
    exact = wigner._theta_rule

    def broken(n_theta, folded):
        theta, weights = exact(n_theta, folded)
        if folded:
            weights[-1] *= 1 + 1e-9  # the theta = pi node
        return theta, weights

    monkeypatch.setattr(wigner, "_theta_rule", broken)
    wigner._theta_basis.cache_clear()  # no basis another test built
    try:
        report = tmp_path / "selftest.json"
        assert main(["selftest", "--out", str(report)]) == 4
    finally:
        wigner._theta_basis.cache_clear()  # no broken weights for later tests
    doc = json.loads(report.read_text())
    assert doc["failures"] == ["nv-fold-vs-full-circle"]
    assert len(doc["checks"]) == 24


def test_selftest_catches_a_broken_radial_fold_middle_weight(monkeypatch, tmp_path):
    exact = wigner._radial_pair_rule

    def broken(order, folded):
        ua, ub, w = exact(order, folded)
        if folded and order % 2:
            w = w.copy()
            w[(order - 1) // 2::(order + 1) // 2] *= 1 + 1e-9  # the t = 1/2 node of each v
        return ua, ub, w

    monkeypatch.setattr(wigner, "_radial_pair_rule", broken)
    report = tmp_path / "selftest.json"
    assert main(["selftest", "--out", str(report)]) == 4
    doc = json.loads(report.read_text())
    assert doc["failures"] == ["nv-radial-fold-vs-full"]
    assert len(doc["checks"]) == 24


def test_interrupt_in_selftest_aborts_before_the_next_check(monkeypatch):
    ran = []

    def interrupted():
        raise KeyboardInterrupt

    monkeypatch.setattr(selftest, "checks",
                        lambda fault: [("interrupted", interrupted), ("next", lambda: ran.append(1))])
    with pytest.raises(KeyboardInterrupt):
        main(["selftest", "--inject-fault"])
    assert ran == []


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


def test_field_past_the_splitter_norm_wall_names_the_expansion(tmp_path, capsys):
    # the input is normalized; the binomial expansion's rounding moves its
    # image's norm by 1.34e-12, and the one error line says so and where
    out = tmp_path / "f.csv"
    assert main(["field", "--r", "1.5", "--n", "26", "--grid=-4:4:21", "-o", str(out)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the splitter's binomial expansion lost "
                                               "the norm of its normalized input at cutoff 52"), err
    assert "1.340e-12" in err[0]
    assert not out.exists()


def test_field_pre_splitter_input_flags(tmp_path):
    out = tmp_path / "pre.csv"
    code = main([
        "field", "--r", "0.4", "--n", "2", "--pre-bs", "--fock-input",
        "--grid=-3:3:15", "-o", str(out),
    ])
    assert code == 0
    assert out.exists()


def test_field_pre_splitter_never_applies_the_splitter(tmp_path, monkeypatch):
    # the splitter fails its norm check at this N; the input alone is fine
    def no_splitter(state):
        raise AssertionError("--pre-bs applied the splitter")

    monkeypatch.setattr(cli, "apply_beam_splitter", no_splitter)
    out = tmp_path / "pre.csv"
    assert main(["field", "--r", "1.5", "--n", "26", "--pre-bs", "--grid=-2:2:5",
                 "-o", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("flags,source", [
    ([], "tmss"), (["--fock-input"], "fock"),
    (["--pre-bs"], "tmss, no splitter"), (["--pre-bs", "--fock-input"], "fock, no splitter"),
], ids=["tmss", "fock", "tmss-pre-bs", "fock-pre-bs"])
def test_vortex_report_says_whether_the_splitter_ran(tmp_path, flags, source):
    out = tmp_path / "v.json"
    assert main(["field", "--r", "0.8", "--n", "2", *flags, "--grid=-3:3:31",
                 "-o", str(tmp_path / "f.csv"), "--vortices", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["input"] == source
    assert sorted(doc) == ["count", "grid", "input", "n_max", "r", "total_charge", "vortices"]


def test_nv_past_the_splitter_norm_wall_integrates_the_input(tmp_path):
    # the splitter image misses TOL.norm at this N (exit 4 when nv applied the
    # splitter); NV is splitter-invariant, so nv integrates the input
    out = tmp_path / "nv.json"
    assert main(["nv", "--r", "1.5", "--n", "26", "--json", str(out)]) == 0
    result = wigner.negativity_volume(make_tmss(SqueezeParams(r=1.5, n_max=26)))
    want = {"r": 1.5, "n_max": 26, **result.to_json_dict()}
    # the volume, its history and checks, bit for bit, and no pre_bs key
    assert json.loads(out.read_text()) == json.loads(json.dumps(want))


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


_NO_SCIPY_SCRIPT = """
import json, sys
import fockvortex.cli as cli

def loaded():
    scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    return {"scipy": scipy, "selftest": "fockvortex.selftest" in sys.modules}

out = sys.argv[1]
seen = {"import": loaded()}
codes = [cli.main(["nv", "--r", "0.5", "--n", "2", "--json", out + "/nv.json"])]
seen["nv"] = loaded()
codes.append(cli.main(["field", "--r", "0.5", "--n", "3", "--fock-input", "--grid=-4:4:40",
                       "-o", out + "/field.csv", "--vortices", out + "/vortices.json"]))
# the labeler on a field with one vortex of each charge, at 1 + 0.5i and -1 - 0.5i
import numpy as np
from fockvortex.quadrature import QuadratureField, QuadratureGrid, count_vortices
grid = QuadratureGrid.square(4.0, 40)
gx, gy = np.meshgrid(grid.x_axis(), grid.y_axis(), indexing="ij")
z = gx + 1j * gy
values = (z - (1 + 0.5j)) * (z + (1 + 0.5j)).conj() * np.exp(-0.5 * (gx**2 + gy**2))
labeled = count_vortices(QuadratureField(grid, values)).to_json_dict()
seen["field"] = loaded()
codes.append(cli.main(["selftest"]))
seen["selftest"] = loaded()
print(json.dumps({"codes": codes, "seen": seen,
                  "labeled": [labeled["count"], labeled["total_charge"]]}))
"""


def _run_child(env, script, *args):
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_loads_no_scipy(tmp_path, child_env):
    # scipy is a test oracle only: the CLI import, the NV Gauss rules and the
    # vortex labeler must not reach it, not even through a deferred import;
    # the selftest's checks load only when the selftest runs
    doc = _run_child(child_env, _NO_SCIPY_SCRIPT, str(tmp_path))
    assert doc["codes"] == [0, 0, 0]
    assert doc["seen"] == {"import": {"scipy": [], "selftest": False},
                           "nv": {"scipy": [], "selftest": False},
                           "field": {"scipy": [], "selftest": False},
                           "selftest": {"scipy": [], "selftest": True}}
    # the labeler ran on a non-empty winding mask.  The --fock-input field's
    # own vortices, if any, are rounding residue: the image of |N, N> is i^N
    # times a real wavefunction
    assert doc["labeled"] == [2, 0]


_NO_OPENSSL_SCRIPT = """
import json, sys
import fockvortex.cli as cli

def loaded():
    return sorted(m for m in ("_hashlib", "ssl") if m in sys.modules)

out = sys.argv[1]
with open(out + "/sweep.json", "w") as fh:
    json.dump({"r_values": [0.5], "n_values": [2], "outputs": list(cli.SWEEP_OUTPUTS),
               "grid": "-4:4:21", "slice_grid": "-2:2:7", "output_dir": out + "/sweep"}, fh)
runs = {
    "figure 4": ["figure", "4", "--out", out + "/fig4"],
    "sweep": ["sweep", "--config", out + "/sweep.json"],
    "nv": ["nv", "--r", "0.5", "--n", "2", "--json", out + "/nv.json"],
    "field": ["field", "--r", "0.5", "--n", "3", "--grid=-4:4:40", "-o", out + "/field.csv"],
    "wigner-slice": ["wigner-slice", "--r", "0.5", "--n", "2", "--grid=-2:2:7",
                     "-o", out + "/slice.csv"],
}
seen, codes = {"import": loaded()}, []
for name, argv in runs.items():
    codes.append(cli.main(argv))
    seen[name] = loaded()
print(json.dumps({"codes": codes, "seen": seen}))
"""


def test_cli_loads_no_openssl(tmp_path, child_env):
    # the config fingerprint takes the interpreter's built-in SHA-256, so no
    # command but the selftest loads OpenSSL; the selftest is exempt because
    # its splitter_unitarity check calls np.random.default_rng, and
    # numpy.random imports secrets -> hmac -> _hashlib
    doc = _run_child(child_env, _NO_OPENSSL_SCRIPT, str(tmp_path))
    assert doc["codes"] == [0] * 5
    assert doc["seen"] == {name: [] for name in
                           ("import", "figure 4", "sweep", "nv", "field", "wigner-slice")}
    assert len(list((tmp_path / "sweep").iterdir())) == len(cli.SWEEP_OUTPUTS) + 2


def _hashlib_config_hash(doc):
    import hashlib  # the oracle, in the tests only
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("doc", [
    {}, {"a": 1}, {"r_values": [0.0, 0.3], "n_values": [2], "outputs": ["logneg"]},
    {"figure": 4, "nv_order": 16, "grid": "-4:4:21", "plane": {"y": 0, "px": 0.5}, "name": "é"},
])
def test_config_hash_is_the_sha256_of_the_sorted_json(doc):
    assert cli._config_hash(doc) == _hashlib_config_hash(doc)


_HASHLIB_FALLBACK_SCRIPT = """
import hashlib, json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None  # no built-in SHA-256
import fockvortex.cli as cli
print(json.dumps({"fallback": cli._sha256 is hashlib.sha256, "hash": cli._config_hash({"a": 1})}))
"""


def test_config_hash_falls_back_to_hashlib_without_builtin_sha256(child_env):
    doc = _run_child(child_env, _HASHLIB_FALLBACK_SCRIPT)
    assert doc == {"fallback": True, "hash": _hashlib_config_hash({"a": 1})}


def test_manifest_hashed_with_hashlib_still_resumes(tmp_path, capsys):
    cfg = write_config(tmp_path, r_values=[0.0, 0.3, 0.5])
    assert main(["sweep", "--config", str(cfg)]) == 0
    manifest_path = tmp_path / "sweep-out" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["config_hash"] == _hashlib_config_hash(manifest["config"])
    # a manifest written by a build that hashed the config with hashlib
    manifest["config_hash"] = _hashlib_config_hash(manifest["config"])
    manifest_path.write_text(json.dumps(manifest, sort_keys=True) + "\n")
    before = manifest_path.read_bytes()

    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert "all 3 tasks cached; nothing to do" in capsys.readouterr().out
    assert manifest_path.read_bytes() == before


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
    victim = out / "logneg_n4_r0p5.json"
    assert victim.exists()
    victim.unlink()
    assert main(["figure", "5", "--out", str(out)]) == 0
    assert victim.exists()
    manifest = json.loads((out / "manifest.json").read_text())
    statuses = {t["name"]: t["status"] for t in manifest["tasks"]}
    assert statuses.pop("logneg-n4_r0p5") == "ok"  # recomputed
    assert len(statuses) == 44 and set(statuses.values()) == {"cached"}


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
    assert "all 45 tasks cached; nothing to do" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------------------

# the help, usage-error and version paths, each of which exits in the parser
PARSER_EXITS = [
    [], ["--help"], ["--version"], ["bogus"], ["figure"],
    *([command, "--help"] for command in cli._COMMANDS),
    ["figure", "1", "--bogus"], ["nv", "--r", "x", "--n", "2"], ["field", "--r", "1"],
    ["--bogus", "figure", "1"], ["figure", "1", "sweep"],
]
# one run of each command, with its options off their defaults
PARSER_RUNS = [
    ["figure", "fig1", "--out", "d", "--fock-input"],
    ["sweep", "--config", "c.json", "--out", "d"],
    ["selftest", "--inject-fault", "--out", "r.json"],
    ["field", "--r", "0.3", "--n", "2", "--pre-bs", "--grid=-1:1:5", "-o", "f.csv",
     "--vortices", "v.json"],
    ["wigner-slice", "--r", "0.3", "--n", "2", "--fock-input", "--plane", "x=0,py=0",
     "--diagonal-form", "-o", "s.csv"],
    ["nv", "--r", "0.3", "--n", "2", "--tol", "1e-4", "--order", "32", "--json", "n.json"],
]


def _main_outcome(argv, capsys):
    """(exit code, stdout, stderr) of one ``main`` call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("argv", PARSER_EXITS, ids=" ".join)
def test_narrowed_parser_prints_what_the_full_one_does(monkeypatch, capsys, argv):
    # main builds only the command named first; the parser of every command is
    # the oracle for its help, usage lines, error messages and exit codes
    got = _main_outcome(argv, capsys)
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full())
    assert got == _main_outcome(argv, capsys)


@pytest.mark.parametrize("argv", PARSER_RUNS, ids=lambda argv: argv[0])
def test_narrowed_parser_parses_what_the_full_one_does(monkeypatch, argv):
    seen = []
    for name in ("cmd_figure", "cmd_sweep", "cmd_selftest", "cmd_field",
                 "cmd_wigner_slice", "cmd_nv"):
        monkeypatch.setattr(cli, name, seen.append)
    assert main(argv) is None
    assert seen == [cli._build_parser().parse_args(argv)]


def test_main_builds_only_the_named_command(tmp_path, monkeypatch):
    out = str(tmp_path / "fig1")
    assert main(["figure", "1", "--out", out]) == 0
    built = []
    for name, (help_text, add_args) in cli._COMMANDS.items():
        def spy(parser, name=name, add_args=add_args):
            built.append(name)
            add_args(parser)
        monkeypatch.setitem(cli._COMMANDS, name, (help_text, spy))
    assert main(["figure", "1", "--out", out]) == 0  # the warm rerun
    assert built == ["figure"]


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
        {"nv_tol": float("inf"), "outputs": ["nv"]},  # JSON Infinity
        {"n_values": [2.5]},
        {"slice_plane": {"y": "a", "px": 0}, "outputs": ["wigner-slice"]},
        {"r_values": [True]},
        {"output_dir": 5},
        # strings that read as numbers are still not numbers
        {"r_values": ["0.3"], "n_values": ["2"]},
        {"n_values": ["2"]},
        {"nv_tol": "0.001", "outputs": ["nv"]},
        {"nv_order": "16", "outputs": ["nv"]},
        # a repeated value would run its point twice under one task name
        {"r_values": [0.3, 0.3], "n_values": [2]},
        {"n_values": [2, 2.0]},
        # an integral float is not a count, as SqueezeParams(n_max=2.0) and
        # nv --order 48.0 hold
        {"n_values": [2.0]},
        {"nv_order": 48.0, "outputs": ["nv"]},
        # an empty list is found before a malformed value; a list is not a number
        {"r_values": ["abc"], "n_values": []},
        {"r_values": [[0.3]]},
        # past the float range an integer is no JSON number
        {"nv_order": 10 ** 400, "outputs": ["nv"]},
        {"r_values": [10 ** 400]},
        {"slice_plane": {"y": 10 ** 400, "px": 0}, "outputs": ["wigner-slice"]},
    ],
)
def test_sweep_invalid_values_exit_usage(tmp_path, overrides, capsys):
    cfg = write_config(tmp_path, **overrides)
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.count("error:") == 1
    # rejected by the config check, before any task runs or a manifest is written
    assert not (tmp_path / "sweep-out" / "manifest.json").exists()


def test_sweep_config_key_that_nothing_reads_exits_usage(tmp_path, capsys):
    # a misspelt nv_tol used to run at the default tolerance, unreported
    cfg = write_config(tmp_path, r_values=[0.5], outputs=["nv"], nv_tolerance=1e-9, Grid="-1:1:5")
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "['Grid', 'nv_tolerance']" in err[0]
    assert not (tmp_path / "sweep-out").exists()


def test_sweep_tags_an_integer_squeezing_as_a_float(tmp_path):
    # r is normalized to a float after the checks, so JSON 1 tags r1p0
    cfg = write_config(tmp_path, r_values=[1])
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert (tmp_path / "sweep-out" / "logneg_r1p0_n2.json").exists()


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
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_logneg_row", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["sweep", "--config", str(write_config(tmp_path))])


def fake_clock(monkeypatch, step):
    """cli reads a monotonic clock that advances ``step`` seconds per read."""
    now = [0.0]

    def monotonic():
        now[0] += step
        return now[0]

    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=time.perf_counter,
                                                            monotonic=monotonic))


def count_manifest_writes(monkeypatch):
    writes = []
    write_atomic = cli._write_atomic

    def spy(path, text):
        if os.path.basename(path) == "manifest.json":
            writes.append(path)
        write_atomic(path, text)

    monkeypatch.setattr(cli, "_write_atomic", spy)
    return writes


@pytest.mark.parametrize("step,writes_per_task", [(0.0, 0), (2.0, 1)])
def test_manifest_is_written_by_time_and_once_at_the_end(tmp_path, monkeypatch, step,
                                                         writes_per_task):
    fake_clock(monkeypatch, step)
    writes = count_manifest_writes(monkeypatch)
    out = tmp_path / "fig5"
    assert main(["figure", "5", "--out", str(out)]) == 0
    tasks = json.loads((out / "manifest.json").read_text())["tasks"]
    assert len(writes) == writes_per_task * len(tasks) + 1
    assert {t["status"] for t in tasks} == {"ok"}
    writes.clear()
    assert main(["figure", "5", "--out", str(out)]) == 0  # cached: nothing rewritten
    assert writes == []


def test_interrupt_with_frozen_clock_keeps_the_finished_tasks(tmp_path, monkeypatch):
    fake_clock(monkeypatch, 0.0)
    cfg = write_config(tmp_path, r_values=[0.1, 0.2, 0.3, 0.4, 0.5])
    out = tmp_path / "sweep-out"
    logneg_row = cli._logneg_row
    calls = []

    def third_interrupted(*args):
        calls.append(args[0])
        if len(calls) == 3:
            raise KeyboardInterrupt
        return logneg_row(*args)

    with monkeypatch.context() as m:
        m.setattr(cli, "_logneg_row", third_interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--config", str(cfg)])
    manifest = json.loads((out / "manifest.json").read_text())
    statuses = [t["status"] for t in manifest["tasks"]]
    assert statuses == ["ok", "ok", "pending", "pending", "pending"]
    done = [rel for t in manifest["tasks"][:2] for rel in t["outputs"]]
    assert manifest["artifact_sizes"] == {rel: (out / rel).stat().st_size for rel in done}

    calls.clear()
    monkeypatch.setattr(cli, "_logneg_row", lambda *args: calls.append(args[0]) or logneg_row(*args))
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert len(calls) == 3


def test_sweep_point_builds_its_states_once(tmp_path, monkeypatch):
    calls = {"make_tmss": 0, "apply_beam_splitter": 0}

    def counted(name):
        original = getattr(cli, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return spy

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    cfg = write_config(tmp_path, r_values=[0.5], nv_order=16, grid="-4:4:21",
                       slice_grid="-2:2:7", outputs=["field", "wigner-slice", "nv", "logneg"])
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert calls == {"make_tmss": 1, "apply_beam_splitter": 1}


def test_figure4_makes_no_splitter_pass(tmp_path, monkeypatch):
    calls = []

    def spy(state):
        calls.append(state)
        return apply_beam_splitter(state)

    monkeypatch.setattr(cli, "apply_beam_splitter", spy)
    monkeypatch.setattr(wigner, "apply_beam_splitter", spy)
    assert main(["figure", "4", "--out", str(tmp_path / "fig4")]) == 0
    assert calls == []


def test_failed_sweep_leaves_no_aggregate_table(tmp_path):
    out = tmp_path / "sweep-out"
    table = out / "sweep.csv"
    cfg = write_config(tmp_path, r_values=[0.3, 0.6], outputs=["logneg", "wigner-slice"],
                       slice_grid="-2:2:5")
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert table.exists()
    # every slice overflows this far out, so every task of the new config fails
    cfg = write_config(tmp_path, r_values=[0.3, 0.6], n_values=[14],
                       outputs=["logneg", "wigner-slice"], slice_grid="-1e6:1e6:3")
    assert main(["sweep", "--config", str(cfg)]) == 4
    assert not table.exists()  # the old config's N = 2 rows are gone


def test_failed_task_records_no_size_and_reruns(tmp_path, monkeypatch):
    def fails(field):
        raise RuntimeError("labeler failed")

    cfg = write_config(tmp_path, r_values=[0.3], outputs=["vortices"], grid="-4:4:21")
    out = tmp_path / "sweep-out"
    with monkeypatch.context() as m:
        m.setattr(cli, "count_vortices", fails)
        assert main(["sweep", "--config", str(cfg)]) == 4
    assert (out / "field_r0p3_n2.csv").exists()  # written before the labeler ran
    manifest = json.loads((out / "manifest.json").read_text())
    assert "field_r0p3_n2.csv" not in manifest["artifact_sizes"]

    assert main(["sweep", "--config", str(cfg)]) == 0
    statuses = {t["name"]: t["status"]
                for t in json.loads((out / "manifest.json").read_text())["tasks"]}
    assert statuses == {"point-r0p3_n2": "ok"}
    assert (out / "vortices_r0p3_n2.json").exists()


def test_interrupted_run_of_another_config_leaves_nothing_cached(tmp_path, monkeypatch):
    # the two planes give slices of equal size that differ in their header
    def config(plane):
        return write_config(tmp_path, r_values=[0.3], outputs=["logneg", "wigner-slice"],
                            slice_grid="-2:2:5", slice_plane=plane)

    out = tmp_path / "sweep-out"
    first = {"y": 0.0, "px": 0.0}
    assert main(["sweep", "--config", str(config(first))]) == 0
    victim = out / "slice_r0p3_n2.csv"
    original = victim.read_bytes()

    def interrupted(*args):
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(cli, "_logneg_row", interrupted)  # after the slice is written
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--config", str(config({"x": 0.0, "py": 0.0}))])
    assert victim.read_bytes() != original and len(victim.read_bytes()) == len(original)

    assert main(["sweep", "--config", str(config(first))]) == 0
    assert victim.read_bytes() == original
    statuses = {t["name"]: t["status"]
                for t in json.loads((out / "manifest.json").read_text())["tasks"]}
    assert statuses == {"point-r0p3_n2": "ok"}


@pytest.mark.parametrize(
    "argv",
    [
        *(["figure", str(f), "--fock-input"] for f in range(2, 6)),
        ["wigner-slice", "--r", "0.8", "--n", "2", "--diagonal-form", "--fock-input"],
        ["wigner-slice", "--r", "0.8", "--n", "2", "--diagonal-form", "--pre-bs"],
        ["nv", "--r", "0.8", "--n", "2", "--pre-bs"],  # the parser has no such flag
    ],
    ids=" ".join,
)
def test_flags_that_would_do_nothing_exit_usage(tmp_path, argv, capsys):
    out = {"figure": ["--out", str(tmp_path / "out")],
           "nv": ["--json", str(tmp_path / "n.json")]}.get(argv[0], ["-o", str(tmp_path / "s.csv")])
    code, _, err = _main_outcome(argv + out, capsys)
    assert code == 2
    assert "error:" in err
    assert list(tmp_path.iterdir()) == []


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
