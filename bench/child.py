"""One fresh interpreter of the benchmark: ``python3 child.py JOB``.

JOB is a JSON object; the child writes its result, a JSON object, to the
path in ``job["result"]``.  Modes:

- ``pass``: time the import, then call ``beckner.cli.main`` on each of
  ``job["argv"]`` with ``--seed`` and ``--out`` appended;
- ``trace``: import numpy, scipy.special, sympy and beckner.cli in that
  order, timing each, wrap the beckner modules in spans, then run the pass.

An invocation that raises is recorded with its exception type and the pass
goes on.  ``wall_s`` runs from the end of the import to the end of the last
invocation.
"""
import importlib
import json
import os
import resource
import sys
import time
import traceback

_IMPORT_STEPS = ("numpy", "scipy.special", "sympy", "beckner.cli")


def _environment():
    import numpy
    import scipy
    import sympy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "sympy": sympy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version', '')}".strip()}


def run(job: dict) -> dict:
    imports = {}
    t0 = time.perf_counter()
    if job["mode"] == "trace":
        for name in _IMPORT_STEPS:
            t = time.perf_counter()
            importlib.import_module(name)
            imports[name] = time.perf_counter() - t
    else:
        importlib.import_module("beckner.cli")
    setup_s = time.perf_counter() - t0
    cli = sys.modules["beckner.cli"]
    where = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    if where != os.path.abspath(job["src"]):
        raise SystemExit(f"imported beckner from {where}, not {job['src']}")
    result = {"setup_s": setup_s, "imports": imports}
    tracer = None
    if job["mode"] == "trace":
        import spans
        tracer = spans.Tracer()
        result["untraced"] = spans.install(tracer)

    invocations = []
    t_start = time.perf_counter()
    for i, argv in enumerate(job["argv"]):
        out = os.path.join(job["workdir"], f"report-{i}.json")
        entry = {"argv": argv, "report": out}
        try:
            entry["exit"] = cli.main(argv + ["--seed", str(job["seed"]),
                                             "--out", out])
        except Exception as exc:  # a lost invocation is a result; go on
            entry["error"] = type(exc).__name__
            entry["traceback"] = traceback.format_exc()
        invocations.append(entry)
    wall_s = time.perf_counter() - t_start

    ru = resource.getrusage(resource.RUSAGE_SELF)
    result.update(wall_s=wall_s, peak_rss_mb=ru.ru_maxrss / 1024.0,
                  cpu_s=ru.ru_utime + ru.ru_stime, invocations=invocations,
                  environment=_environment())
    if tracer is not None:
        result["trace"] = tracer.summary()
    return result


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    result = run(job)
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
