"""Write ``reference.json``: the seed-0 records of every workload.

Run from the repository root with ``python3 bench/make_reference.py``.  The
reference is the correctness gate of ``run.py`` at seed 0, so regenerate it
only when a change is meant to move verdicts or values, and say so.
"""
import json
import shutil
import time

from run import HERE, REFERENCE, Children, argv_key
from workloads import WORKLOADS

KEPT = ("check_id", "params", "lhs", "lhs_err", "rhs", "rhs_err", "verdict")


def main():
    workdir = HERE / ".work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    records = {}
    try:
        for name, spec in WORKLOADS.items():
            children = Children(workdir, time.monotonic() + 600.0)
            res, why = children.run({"mode": "pass", "argv": spec["argv"], "seed": 0})
            if res is None:
                raise SystemExit(f"{name}: {why}")
            for inv in res["invocations"]:
                if "error" in inv:
                    raise SystemExit(f"{argv_key(inv['argv'])}: {inv['traceback']}")
                with open(inv["report"]) as fh:
                    checks = json.load(fh)["checks"]
                records[argv_key(inv["argv"])] = [
                    {k: rec[k] for k in KEPT} for rec in checks]
            print(f"{name}: {sum(len(records[argv_key(a)]) for a in spec['argv'])} records")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w") as fh:
        json.dump({"seed": 0, "records": records}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
