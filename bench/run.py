"""Verdict-time benchmark of the ``beckner`` command line.

Run from the repository root:

    python3 bench/run.py --workload symbolic --seed 0 --seconds 60 --trace 0

Every pass is a fresh interpreter (``child.py``) that imports ``beckner.cli``
and calls ``beckner.cli.main`` on each argument list of the workload
(``workloads.py``), writing JSON reports.  A fresh process per pass is
deliberate: a CLI user pays the import and every sympy compile on each
invocation.  Load is closed-loop: one child at a time, one check at a time.

``--trace 0`` runs passes until the next one would end after ``--seconds``
and reports end-to-end metrics as medians over the passes: ``setup_s``
(import of beckner.cli), ``wall_s`` (end of import to the last report
written) and ``peak_rss_mb`` (the child's ru_maxrss).  ``--trace 1`` runs one traced pass (see ``spans.py``) and
untraced passes for the tracing overhead, and reports per-layer metrics.

Every report is checked.  A check counts as failed when its verdict is
``fail``, ``inconclusive`` or ``error``, when its invocation raised or wrote
no report, or, at seed 0, when it departs from ``reference.json`` (the seed-0
records): a different verdict, or, where the record has error bars, an lhs
or rhs further from the reference than the two error bars together.  All of
these but ``inconclusive`` also break the correctness gate.  The last line
of standard output is a JSON object with ``correct`` (the gate held),
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when the gate
broke.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

DEADLINE_S = 170.0       # a run never outlives this, whatever a child does
GATE_VERDICTS = ("fail", "error")
# a statistical check that could not decide counts as failed, but at its
# nominal rate (qtm-mc beyond 3 sigma) it is not a wrong output
FAILED_VERDICTS = GATE_VERDICTS + ("inconclusive",)
MEASURED_PARAMS = ("sigma",)   # record params that are results, not inputs

CHILD_ENV = {
    # numpy links a threaded OpenBLAS; one thread keeps runs steady on a
    # shared 2-core machine
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    # fixed str hashing: sympy iterates over sets, so this makes every run
    # do the same work and the traced counts repeat exactly
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": str(SRC),
}

CHECK_IDS = (
    "sphere-identities", "sphere-r-constant", "sphere-beckner",
    "qm-halfspace", "phi-conditions", "cd-pointwise",
    "poincare-cauchy", "beckner-cauchy", "rayleigh-high-b", "rayleigh-low-b",
    "qtm-crosspath", "qtm-mc", "qtm-harmonic",
    "measure-mass", "measure-second-moment", "norm-const-ratio",
    "hitting-law-ks", "bessel-dynkin",
)


def argv_key(argv) -> str:
    return " ".join(argv)


def record_keys(records):
    """Identity of each record: check id, input params, occurrence number."""
    seen = Counter()
    keys = []
    for rec in records:
        params = {k: v for k, v in rec["params"].items() if k not in MEASURED_PARAMS}
        base = (rec["check_id"], json.dumps(params, sort_keys=True))
        keys.append(base + (seen[base],))
        seen[base] += 1
    return keys


def gate(rec, ref):
    """Why ``rec`` departs from its seed-0 reference record, or None."""
    if ref is None:
        return "no reference record"
    if rec["verdict"] != ref["verdict"]:
        return f"verdict {rec['verdict']}, reference {ref['verdict']}"
    if rec["lhs_err"] or rec["rhs_err"] or ref["lhs_err"] or ref["rhs_err"]:
        for side in ("lhs", "rhs"):
            gap = abs(rec[side] - ref[side])
            allowed = rec[side + "_err"] + ref[side + "_err"]
            if gap > allowed:
                return f"{side} moved by {gap:.3g} > error bars {allowed:.3g}"
    return None


class Ledger:
    """Checks attempted and failed over one run, with the reasons."""

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.violations = 0   # failed checks that also break the gate
        self.problems = []
        self.lost = []     # invocations that wrote no report

    def _expected(self, argv) -> int:
        return len(self.reference.get(argv_key(argv), ())) or 1

    def _lose(self, argv, why, error=None):
        n = self._expected(argv)
        self.attempted += n
        self.failed += n
        self.violations += n
        self.lost.append({"argv": argv, "checks": n, "error": error})
        self.problems.append(f"[{argv_key(argv)}] {n} check(s) lost: {why}")

    def account(self, result, argvs, why_missing=None) -> list:
        """Check one pass and return its records; ``result`` None is a
        child that produced nothing."""
        if result is None:
            for argv in argvs:
                self._lose(argv, why_missing)
            return []
        records = []
        for inv in result["invocations"]:
            argv, path = inv["argv"], inv["report"]
            if "error" in inv:
                self._lose(argv, f"{inv['error']} raised\n{inv['traceback']}",
                           inv["error"])
                continue
            if not os.path.exists(path):
                self._lose(argv, f"exit code {inv['exit']}, no report")
                continue
            with open(path) as fh:
                recs = json.load(fh)["checks"]
            os.remove(path)
            self._check(argv, recs)
            records.extend(recs)
        return records

    def _check(self, argv, records):
        ref = self.reference.get(argv_key(argv)) if self.seed == 0 else None
        ref_by_key = dict(zip(record_keys(ref), ref)) if ref is not None else None
        keys = record_keys(records)
        for key, rec in zip(keys, records):
            self.attempted += 1
            reasons = []
            if rec["verdict"] in FAILED_VERDICTS:
                reasons.append(f"verdict {rec['verdict']}")
            broken = rec["verdict"] in GATE_VERDICTS
            if ref_by_key is not None:
                why = gate(rec, ref_by_key.get(key))
                if why:
                    reasons.append(why)
                    broken = True
            if reasons:
                self.failed += 1
                self.violations += broken
                self.problems.append(
                    f"{rec['check_id']} {rec['params']}: {'; '.join(reasons)}")
        if ref_by_key is not None:
            for key in set(ref_by_key) - set(keys):
                self.attempted += 1
                self.failed += 1
                self.violations += 1
                self.problems.append(f"{key[0]} {key[1]}: missing from the report")


class Children:
    """Starts child interpreters one at a time inside the run's deadline."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.started = 0

    def run(self, job: dict):
        """(result, None) on success, (None, reason) otherwise."""
        self.started += 1
        result_path = self.workdir / f"result-{self.started}.json"
        job = dict(job, src=str(SRC), workdir=str(self.workdir),
                   result=str(result_path))
        timeout = max(self.deadline - time.monotonic(), 1.0)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(job)],
                cwd=ROOT, env={**os.environ, **CHILD_ENV}, timeout=timeout,
                stdin=subprocess.DEVNULL, capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            return None, f"child killed after {timeout:.0f} s"
        if proc.returncode != 0 or not result_path.exists():
            return None, f"child exited {proc.returncode}: {proc.stderr[-2000:]}"
        with open(result_path) as fh:
            result = json.load(fh)
        result_path.unlink()
        return result, None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def layer_metrics(traced: dict, passes: list) -> dict:
    """Per-layer metrics from the traced pass and the untraced passes."""
    tr = traced["trace"]
    layers, calls, errors, counts = tr["layers"], tr["calls"], tr["errors"], tr["counts"]

    def spans(layer):
        return layers.get(layer, [0, 0.0, 0.0])[0]

    def self_s(layer):
        return layers.get(layer, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    imports = traced["imports"]
    eval_points = counts.get("fields.eval_points", 0)
    paths = counts.get("bessel.paths", 0)
    walls = [r["wall_s"] for r, _ in passes]
    records = [rec for _, recs in passes for rec in recs]
    check_s = defaultdict(list)
    budgets = []
    for rec in records:
        check_s[rec["check_id"]].append(rec["seconds"])
        bar = rec["lhs_err"] + rec["rhs_err"]
        if bar > 0 and rec["rhs"] != 0:
            budgets.append(bar / abs(rec["rhs"]))

    m = {
        "import.numpy_s": imports["numpy"],
        "import.scipy_s": imports["scipy.special"],
        "import.sympy_s": imports["sympy"],
        "import.beckner_s": imports["beckner.cli"],
        # calls of sympy.diff and sympy.lambdify made by beckner.fields
        "fields.compile_n": spans("fields.compile"),
        "fields.compile_s": self_s("fields.compile"),
        "fields.build_n": spans("fields.build"),
        "fields.build_s": self_s("fields.build"),
        "fields.eval_n": spans("fields.eval"),
        "fields.eval_points_n": eval_points,
        "fields.eval_s": self_s("fields.eval"),
        "fields.points_per_eval": ratio(eval_points, spans("fields.eval")),
        "numerics.integrate_rd_n": calls.get("numerics.integrate_rd", 0),
        # the whole adaptive-quadrature layer: integrate_rd and the radial and
        # interval integrators, under it or called directly (subordination)
        "numerics.integrate_rd_s": self_s("numerics.quad"),
        "numerics.n_evals": counts.get("numerics.n_evals", 0),
        "numerics.panels_n": counts.get("numerics.panels", 0),
        "numerics.angular_rule_n": calls.get("numerics.angular_rule", 0),
        "numerics.angular_rule_s": self_s("numerics.angular_rule"),
        "numerics.fd_derivative_n": calls.get("numerics.fd_derivative", 0),
        "numerics.mc_estimate_s": self_s("numerics.mc"),
        "numerics.mc_samples_n": counts.get("numerics.mc_samples", 0),
        "numerics.nonconvergence_n":
            errors.get("numerics.integrate_interval:NonConvergence", 0),
        "qtm.quadrature_n": calls.get("qtm.qtm_quadrature", 0),
        "qtm.quadrature_s": self_s("qtm.quadrature"),
        "qtm.subordinated_n": calls.get("qtm.qtm_subordinated", 0),
        "qtm.subordinated_s": self_s("qtm.subordinated"),
        "qtm.mc_s": self_s("qtm.mc"),
        "qtm.harmonicity_s": self_s("qtm.harmonicity"),
        "measures.integrate_s": self_s("measures.integrate"),
        "measures.sample_s": self_s("measures.sample"),
        "measures.samples_n": counts.get("measures.samples", 0),
        "bessel.simulate_s": self_s("bessel.simulate"),
        "bessel.dynkin_s": self_s("bessel.dynkin"),
        "bessel.paths_n": paths,
        "bessel.paths_per_s": ratio(paths, layers.get("bessel.simulate", [0, 0.0])[1]),
        "bessel.hit_ratio": ratio(counts.get("bessel.hits", 0), paths),
        "gamma2.operator_n": spans("gamma2.operator"),
        "gamma2.operator_s": self_s("gamma2.operator"),
        "gamma2.pointwise_n": spans("gamma2.pointwise"),
        "gamma2.pointwise_s": self_s("gamma2.pointwise"),
        "sphere.identities_s": self_s("sphere.identities"),
        "sphere.constant_R_n": calls.get("sphere.constant_R", 0),
        "sphere.constant_R_s": self_s("sphere.constant_R"),
        "sphere.integrate_s": self_s("sphere.integrate"),
        "sphere.deficit_s": self_s("sphere.deficit"),
        "inequalities.deficit_n": spans("inequalities.deficit"),
        "inequalities.deficit_s": self_s("inequalities.deficit"),
        "inequalities.rayleigh_s": self_s("inequalities.rayleigh"),
    }
    for cid in CHECK_IDS:
        m[f"cli.check_s.{cid}"] = statistics.median(check_s[cid]) if check_s[cid] else 0.0
    # cli.main's own time: argument parsing, report rendering and writing
    m["cli.render_s"] = self_s("cli.main")
    m["cli.budget_rel_median"] = statistics.median(budgets) if budgets else 0.0
    m["proc.cpu_s"] = statistics.median(r["cpu_s"] for r, _ in passes)
    m["trace.overhead_ratio"] = traced["wall_s"] / statistics.median(walls) - 1.0
    return m


def unit_of(name: str) -> str:
    special = {"fields.points_per_eval": "points", "bessel.paths_per_s": "1/s",
               "peak_rss_mb": "MB"}
    if name in special:
        return special[name]
    if name.endswith("_s") or ".check_s." in name:
        return "s"
    if name.endswith("_n") or name == "numerics.n_evals":
        return "count"
    return "ratio"


def measure(argvs, seed: int, seconds: float, trace: bool, reference: dict,
            out=print):
    """Run the benchmark on one workload; returns (result line, ledger)."""
    t_start = time.monotonic()
    budget_end = t_start + seconds
    workdir = HERE / ".work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    children = Children(workdir, t_start + DEADLINE_S)
    ledger = Ledger(seed, reference)
    passes, traced = [], None
    try:
        if trace:
            traced, why = children.run({"mode": "trace", "argv": argvs, "seed": seed})
            ledger.account(traced, argvs, why)
        longest = 0.0
        while True:
            t0 = time.monotonic()
            res, why = children.run({"mode": "pass", "argv": argvs, "seed": seed})
            longest = max(longest, time.monotonic() - t0)
            records = ledger.account(res, argvs, why)
            if res is None:
                break
            passes.append((res, records))
            if time.monotonic() + longest > budget_end:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    if passes and (traced is not None or not trace):
        env = passes[0][0]["environment"]
        out("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
        if trace:
            if traced["untraced"]:
                out("not traced (missing): " + ", ".join(traced["untraced"]))
            values = layer_metrics(traced, passes)
            out(f"traced pass wall {traced['wall_s']:.3f} s; "
                f"{len(passes)} untraced pass(es)")
        else:
            samples = {"setup_s": [r["setup_s"] for r, _ in passes],
                       "wall_s": [r["wall_s"] for r, _ in passes],
                       "peak_rss_mb": [r["peak_rss_mb"] for r, _ in passes]}
            values = {}
            for name, vals in samples.items():
                q1, values[name], q3 = quartiles(vals)
                out(f"{name:<13} {values[name]:10.4f} {unit_of(name):<3} median of "
                    f"{len(vals)} (q1 {q1:.4f}, q3 {q3:.4f})")
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    ratio = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    out(f"failed_ratio  {ratio:10.4f} ratio {ledger.failed} of "
        f"{ledger.attempted} checks")
    for problem in ledger.problems[:20]:
        out("problem: " + problem)
    line = {"correct": ledger.violations == 0 and bool(metrics),
            "attempted": max(ledger.attempted, 1), "failed": ledger.failed,
            "metrics": metrics}
    return line, ledger


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)["records"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "beckner" / "cli.py").is_file():
        print(f"no beckner sources under {SRC}", file=sys.stderr)
        return 2
    argvs = WORKLOADS[args.workload]["argv"]
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    line, _ = measure(argvs, args.seed, args.seconds, bool(args.trace),
                      load_reference())
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
