"""The benchmark's workloads: the ``beckner`` CLI argument lists of one pass.

A pass runs every argument list of its workload, in order, in one fresh
interpreter.  The seed is not part of the lists: the harness appends
``--seed <seed> --out <report>`` to each of them.

There are two workloads, not one per kind of numerics, because the speed of a
core on a shared host swings by up to 2x for tens of seconds at a time: only
runs of 60 s keep the median pass time of one run close to the next, and the
whole benchmark (22 runs per workload) has to fit in under an hour.  The
bessel suite runs at m=8 only (5-6 s instead of 14 s for m=6 and 8), so that
it does not swamp the quadrature in `numeric`.
"""

WORKLOADS = {
    # sympy diff + lambdify in `fields` and the pointwise Gamma/Gamma_2
    # calculus in `gamma2`/`sphere`; fields are evaluated one point per call.
    "symbolic": {
        "why": "sympy compile and pointwise Gamma/Gamma2 calculus dominate; "
               "fields are evaluated one point per call",
        "argv": [
            ["run", "--suite", "sphere", "--d", "2", "3", "--m", "6"],
            ["run", "--suite", "gamma2", "--d", "1", "2", "3", "--m", "6"],
            ["run", "--suite", "cauchy", "--d", "1", "2", "3", "--b", "4", "5"],
        ],
    },
    # adaptive quadrature in `numerics`/`qtm` (fields evaluated in batches of
    # 1e3-1e5 points, the opposite use of `fields` to `symbolic`), then the
    # Euler-Maruyama loop of `bessel.simulate_joint_paths`.  Both are numpy
    # work that `symbolic` bypasses; they share one workload so that each run
    # can last 60 s (see the module docstring).
    "numeric": {
        "why": "adaptive G7/K15 and subordination quadrature on batches of "
               "1e3-1e5 points, then the Euler-Maruyama path loop in bessel",
        "argv": [
            ["run", "--suite", "qtm", "--d", "1", "2", "3", "--m", "6", "9",
             "--t", "0.5", "1", "2"],
            ["run", "--suite", "measures", "--d", "1", "2", "3",
             "--b", "3", "4", "5"],
            ["run", "--suite", "bessel", "--d", "1", "--m", "8"],
        ],
    },
}

# One-point grids of the same suites, for the fast self-check.
SMALL = {
    "symbolic": [
        ["run", "--suite", "sphere", "--d", "2", "--m", "6"],
        ["run", "--suite", "gamma2", "--d", "2", "--m", "6"],
        ["run", "--suite", "cauchy", "--d", "1", "--b", "4"],
    ],
    "numeric": [
        ["run", "--suite", "qtm", "--d", "1", "--m", "6", "--t", "1"],
        ["run", "--suite", "measures", "--d", "1", "--b", "3"],
        ["run", "--suite", "bessel", "--d", "1", "--m", "8"],
    ],
}
