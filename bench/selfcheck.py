"""Fast self-check of the benchmark; run from the repository root with
``python3 bench/selfcheck.py``.  It takes about a minute and checks that:

- each workload runs on a one-point grid with every end-to-end metric
  present, with its unit, and no failed check;
- the traced mode gives every per-layer metric, with its unit;
- ``BENCHMARK.json`` names exactly the metrics and units ``run.py`` emits;
- a lost invocation (``--suite qtm --d 1 --t 0.005`` raises DomainError)
  counts as one failed check with its exception type, and the pass goes on;
- the benchmark refuses to run without the beckner sources.

It then prints the cold-start wall time of each CLI suite on its default
grid beside the baseline measured when the benchmark was written.
"""
import json
import shutil
import subprocess
import sys
import time

import run
from workloads import SMALL

CRASH = ["run", "--suite", "qtm", "--d", "1", "--t", "0.005"]
GOOD = ["run", "--suite", "measures", "--d", "1", "--b", "3"]

# cold `beckner run --suite <s>` on the default grid, import included,
# on a 2-core machine with Python 3.11, numpy 2.4, scipy 1.17, sympy 1.14
BASELINE_S = {"measures": 1.6, "qtm": 1.6, "bessel": 11.1, "gamma2": 2.4,
              "cauchy": 1.8, "sphere": 5.2}


def quiet(_line):
    pass


def check(cond, what):
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {what}")


def main():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    reference = run.load_reference()

    print(f"{'workload':<11} {'setup_s':>9} {'wall_s':>9} {'peak_rss_mb':>12} "
          f"{'failed_ratio':>13}   (one-point grids, seed 0)")
    for name, argvs in SMALL.items():
        line, ledger = run.measure(argvs, 0, 1.0, False, reference, out=quiet)
        m = line["metrics"]
        check(line["correct"] and ledger.failed == 0,
              f"{name}: {ledger.problems}")
        check({k: v["unit"] for k, v in m.items()}
              == {e["name"]: e["unit"] for e in spec["end_to_end"]},
              f"{name}: end-to-end metrics differ from BENCHMARK.json")
        print(f"{name:<11} {m['setup_s']['value']:7.3f} s {m['wall_s']['value']:7.3f} s "
              f"{m['peak_rss_mb']['value']:9.1f} MB "
              f"{ledger.failed / ledger.attempted:7.3f} ratio")

    line, ledger = run.measure(SMALL["numeric"], 0, 1.0, True, reference, out=quiet)
    check(line["correct"], f"traced run: {ledger.problems}")
    check({k: v["unit"] for k, v in line["metrics"].items()}
          == {p["name"]: p["unit"] for p in spec["per_layer"]},
          "per-layer metrics differ from BENCHMARK.json")
    print(f"traced mode: {len(line['metrics'])} per-layer metrics, "
          f"overhead {line['metrics']['trace.overhead_ratio']['value']:+.3f}")

    line, ledger = run.measure([CRASH, GOOD], 0, 1.0, False, reference, out=quiet)
    good = 1 + 1 + 1  # measure-mass, measure-second-moment, norm-const-ratio
    check(ledger.lost == [{"argv": CRASH, "checks": 1, "error": "DomainError"}],
          f"lost invocation not recorded: {ledger.lost}")
    check((ledger.attempted, ledger.failed) == (1 + good, 1) and not line["correct"],
          f"failure accounting: attempted {ledger.attempted}, failed {ledger.failed}")
    print(f"failure accounting: {' '.join(CRASH[1:])} -> DomainError, "
          f"{ledger.failed} of {ledger.attempted} checks failed")

    bare = run.HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "bench", ignore=shutil.ignore_patterns(
        ".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                               "numeric", "--seed", "0", "--seconds", "1"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip().endswith("}"),
          "the benchmark ran without the beckner sources")
    print(f"without sources: exit {proc.returncode}, no result line")

    print(f"\n{'suite':<9} {'baseline':>9} {'now':>8}   cold CLI, default grid")
    workdir = run.HERE / ".work" / "suites"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for suite, base in BASELINE_S.items():
            children = run.Children(workdir, time.monotonic() + 120.0)
            res, why = children.run({"mode": "pass", "seed": 0,
                                     "argv": [["run", "--suite", suite]]})
            check(res is not None, f"suite {suite}: {why}")
            print(f"{suite:<9} {base:7.1f} s {res['setup_s'] + res['wall_s']:6.1f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\nselfcheck passed")


if __name__ == "__main__":
    main()
