"""One fresh interpreter: import the CLI, run a pipeline cold, rerun it warm.

``run.py`` starts this as ``python3 child.py SPEC_JSON`` with the thread
variables already in the environment, so they hold before numpy loads.
Only the standard library is imported before the timed import of
``fockvortex.cli``.  The last stdout line is one JSON object.

SPEC keys: ``src`` (the checkout's src directory; the imported package must
come from it), ``argv`` (for ``fockvortex.cli.main``), ``out_dir``, ``tasks``
(the pipeline's task count), ``cold`` (false: out_dir already holds a
completed run, only rerun it warm), ``warm_repeats``, ``trace``.
"""
import contextlib
import io
import json
import os
import resource
import sys
import time


def _snapshot(out_dir):
    """(inode, mtime_ns, size) per file: any rewrite or atomic replace shows."""
    snap = {}
    for entry in os.scandir(out_dir):
        st = entry.stat()
        snap[entry.name] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return snap


def _call_main(cli, argv):
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return time.perf_counter() - start, code, buf.getvalue()


def warm_reruns(cli, argv, out_dir, tasks, repeats, tracer=None):
    """Rerun an unchanged, completed pipeline; (wall times, errors, first output).

    Every rerun must exit 0 and report all ``tasks`` cached, and no rerun may
    rewrite an artifact or, when traced, call a layer function.
    """
    before = _snapshot(out_dir)
    spans_before = len(tracer.spans) if tracer is not None else 0
    walls, errors, first_output = [], [], ""
    for i in range(repeats):
        wall, code, output = _call_main(cli, argv)
        walls.append(wall)
        first_output = output if i == 0 else first_output
        if code != 0 or f"all {tasks} tasks cached; nothing to do" not in output:
            errors.append(f"exit {code}: {output.strip()[-300:]}")
    if _snapshot(out_dir) != before:
        errors.append("a warm rerun rewrote artifacts")
    if tracer is not None and len(tracer.spans) != spans_before:
        errors.append(f"a warm rerun called {len(tracer.spans) - spans_before} layer functions")
    return walls, errors, first_output


def _environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(spec):
    start = time.perf_counter()
    import fockvortex.cli as cli
    import_s = time.perf_counter() - start

    src = os.path.realpath(spec["src"])
    origin = os.path.realpath(cli.__file__)
    if not origin.startswith(src + os.sep):
        raise SystemExit(f"fockvortex imported from {origin}, not from {src}")
    result = {"import_s": import_s, "environment": _environment()}
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.install()
    if not spec["cold"]:
        warm, errors, _ = warm_reruns(cli, spec["argv"], spec["out_dir"], spec["tasks"],
                                      spec["warm_repeats"])
        result.update(warm_s=warm, warm_errors=errors)
        return result
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    cold_s, code, output = _call_main(cli, spec["argv"])
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        cold_s=cold_s,
        cold_exit=code,
        cold_output=output[-4000:],
        peak_rss_mb=ru1.ru_maxrss / 1024.0,
        cpu_user_s=ru1.ru_utime - ru0.ru_utime,
        cpu_sys_s=ru1.ru_stime - ru0.ru_stime,
        minflt=ru1.ru_minflt - ru0.ru_minflt,
    )
    if tracer is not None:
        result["spans"] = list(tracer.spans)
        result["counts"] = dict(tracer.counts)
    if code != 0:
        return result

    warm, errors, first_output = warm_reruns(cli, spec["argv"], spec["out_dir"], spec["tasks"],
                                             spec["warm_repeats"], tracer)
    result.update(warm_s=warm, warm_errors=errors, warm_first_output=first_output)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
