"""One pass of a workload in a fresh process.

Reads a JSON spec on stdin: {"src", "spawn_t", "requests", "trace", "tmp"}.
Imports the package from `src`, runs every request through the public CLI
entry point `entropybench.cli.main` one after another, and prints one JSON
line with timings, exit codes, the CSV each request wrote, peak RSS and,
when traced, the per-layer table.  Run by run.py with BLAS pinned to one
thread in the environment, so the pin is in place before numpy loads.
"""

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time


def blas_runtime() -> dict:
    """Threads and version the loaded OpenBLAS reports about itself."""
    import ctypes
    import glob

    import numpy

    info = {"numpy": numpy.__version__, "blas_threads": None, "blas_config": None}
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info["blas_threads"] = threads()
                    info["blas_config"] = config().decode()
                    return info
    return info


def reference_s() -> float:
    """Fastest of three runs of a fixed kernel: a pure-Python loop, then
    small numpy calls, in about equal parts.

    Timed between requests, it measures how fast the host runs this kind
    of code at that moment; run.py divides request times by it.  When the
    host slows down, interpreted Python and small numpy calls slow down by
    different factors, and the workloads mix both.
    """
    import numpy

    vec = numpy.arange(64.0) + 1j
    mat = numpy.ones((8, 8))
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(30000):
            acc += i * i % 7
        for i in range(750):
            out = vec * 0.5 + vec
            acc += float(abs(out[i % 64])) + float((mat @ mat)[0, 0])
        best = min(best, time.perf_counter() - t0)
    return best


def main(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    entropybench = importlib.import_module("entropybench")
    cli = importlib.import_module("entropybench.cli")
    # the first request can run from here on
    result = {"setup_s": time.monotonic() - spec["spawn_t"]}
    if not os.path.abspath(entropybench.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        raise SystemExit(f"imported {entropybench.__file__}, not the package under {spec['src']}")
    # Module state a previous pass left behind would be visible here.
    result["inherited_state"] = getattr(cli, "_bench_pass_marker", None)

    tracer = None
    if spec["trace"]:
        from tracer import Tracer  # bench/ is sys.path[0] for this script

        tracer = Tracer()
        missed = tracer.install(entropybench)
        result["trace_missed"] = [where for where, _ in missed]

    requests = spec["requests"]
    codes, errors, request_s = [], [], []
    sink = io.StringIO()
    refs = [reference_s()]  # refs[i] and refs[i + 1] bracket request i
    for i, argv in enumerate(requests):
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                code = cli.main(list(argv) + ["--out", os.path.join(spec["tmp"], f"{i}.csv")])
        except Exception as exc:  # a traceback out of the CLI is a failed request
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        request_s.append(time.perf_counter() - t0)
        codes.append(code)
        errors.append(err.getvalue().strip()[-300:])
        sink.seek(0)
        sink.truncate()
        refs.append(reference_s())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cli._bench_pass_marker = spec["spawn_t"]

    csvs = []
    for i in range(len(requests)):
        path = os.path.join(spec["tmp"], f"{i}.csv")
        if os.path.exists(path):
            with open(path) as fh:
                csvs.append(fh.read())
            os.remove(path)
        else:
            csvs.append(None)
    result.update(
        refs=refs,
        request_s=request_s,
        codes=codes,
        errors=errors,
        csvs=csvs,
        peak_rss_mb=peak_rss_mb,
        python=sys.version.split()[0],
        **blas_runtime(),
    )
    if tracer is not None:
        from tracer import layer_table, reuse_frac, root_time

        result["layers"] = layer_table(tracer.spans)
        result["fit_reuse_frac"] = reuse_frac(tracer.fit_keys)
        result["root_s"] = root_time(tracer.spans)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.stdin.read()))))
