"""Batch verification driver.

Runs named check suites over parameter grids and writes machine-readable
reports (JSON or CSV).  ``CHECKS`` declares each check once, ``_record``
judges every record by it, and ``SuiteConfig`` is the one config schema.
Exit codes: 0 all checks pass, 1 any check fails, 2 configuration error, 3
numerical non-convergence.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__
from .errors import ConfigError, NonConvergence, UnknownCheck
from .fields import coordinate, make_power_of_rho, standard_library
from .numerics import Estimate, MonteCarloConfig, QuadratureConfig, pooled
from .measures import (CauchyMeasure, HittingTimeLaw, TKernel, log_norm_const,
                       second_moment)
from .qtm import harmonicity_residual, qtm_mc, qtm_subordinated
from .bessel import BesselSimConfig, dynkin_check
from .gamma2 import (cd1_residual, phi_conditions, qm_residual,
                     reinforced_cd_residual)
from .inequalities import (DeficitReport, beckner_cauchy_rows, beckner_deficit,
                           optimal_constant_rayleigh, poincare_cauchy_deficit)
from .sphere import (SphereBecknerParams, constant_R, constant_R_closed_form,
                     eigenfunction_residuals, log_rho_identities,
                     sphere_beckner_deficit)


@dataclass(frozen=True)
class Check:
    """A check the CLI emits: its suite, what it certifies, the tolerance a
    residual must stay below (rhs = tol), the verdict ``miss`` of a record
    with lhs >= rhs, and whether the certification ``policy`` judges it."""
    suite: str
    explanation: str
    tol: float | None = None
    miss: str = "fail"
    policy: bool = False


CHECKS = {
    "measure-mass": Check("measures", "The normalized density (1+|y|^2)^{-b} "
        "/ c(2b-d,d) must integrate to 1 on R^d.  Parameters: dimension d, "
        "index b.", 1e-9),
    "measure-second-moment": Check("measures", "The second moment of the "
        "Cauchy-type measure equals d/(2b-2-d) whenever 2b-2-d > 0.", 1e-6),
    "norm-const-ratio": Check("measures", "Ratio identity c(m,d)/c(m-2,d) = "
        "(m-2)/(m-2+d) for the normalization constants.", 1e-13),
    "qtm-crosspath": Check("qtm", "The extension operator evaluated by direct "
        "quadrature and by heat-kernel subordination must agree within the "
        "summed error bounds."),
    "qtm-mc": Check("qtm", "Monte Carlo evaluation of the extension operator "
        "through the exact kernel sampler must sit within 3 standard errors "
        "of the quadrature value.", miss="inconclusive"),
    "qtm-harmonic": Check("qtm", "The extension G(x,t) of f satisfies "
        "(Laplacian_x + d^2/dt^2 + ((1-m)/t) d/dt) G = 0; a finite-difference "
        "stencil applied under the integral sign gives the residual, which is "
        "compared to 1e-4 x scale.", 1e-4),
    "hitting-law-ks": Check("bessel", "The exact hitting-time sampler S = "
        "t^2/(4G), G ~ Gamma(m/2), is tested against the numerically "
        "integrated density CDF with a 1%-level KS statistic."),
    "bessel-dynkin": Check("bessel", "Pathwise check: the mean of f at the "
        "simulated exit position equals the extension operator value at the "
        "start point.  log Y is stepped exactly in its Lamperti clock to the "
        "switch level t0/2, with a trapezoid time, then finished: the time "
        "left from level y is y^2/(4G), G ~ Gamma(m/2), the law "
        "hitting-law-ks tests.  The clock change and its time quadrature are "
        "the part under test; a gap of 0.02 or more is inconclusive.", 0.02,
        "inconclusive"),
    "qm-halfspace": Check("gamma2", "For the half-space operator with drift "
        "(1-m)/t the tensor identity (n - D) Ric(L) = X (x) X holds exactly "
        "with n = d - m + 2 and D = d + 1.", 1e-12),
    "phi-conditions": Check("gamma2", "For m > d + 2 (so n = d - m + 2 < 0) "
        "the sub-harmonicity condition set for the surface Phi(y,z) = y^beta z "
        "holds exactly on beta in [n/(2-n), 0] and fails below."),
    "cd-pointwise": Check("gamma2", "Pointwise curvature-dimension "
        "consequences: the beta-weighted residual and the reinforced CD(0,d) "
        "residual are nonnegative up to roundoff.", 1e-9),
    "poincare-cauchy": Check("cauchy", "Var(f) <= (1/(2(b-1))) Int |grad f|^2 "
        "(1+|y|^2) dnu_b; coordinate functions saturate it.", policy=True),
    "beckner-cauchy": Check("cauchy", "(p/(p-1))[Int f^2 dnu_b - (Int f^{2/p} "
        "dnu_b)^p] <= (1/(b-1)) Int |grad f|^2 (1+|y|^2) dnu_b for b >= d+1 "
        "and p in [1+1/(b-d), 2].", policy=True),
    "rayleigh-high-b": Check("cauchy", "Independent Rayleigh-quotient "
        "estimate of the best Poincare constant; for d=1, b >= 3/2 it equals "
        "1/(2(b-1)).", 1e-2),
    "rayleigh-low-b": Check("cauchy", "For d=1, 1/2 < b <= 3/2 the best "
        "Poincare constant switches regime to 4/(2b-1)^2.", 2e-2),
    "sphere-identities": Check("sphere", "Chart identities for u = "
        "(1-|x|^2)/(1+|x|^2): Delta_S u = -d u, Gamma_S(u) = 1-u^2, and the "
        "closed forms of Delta_S log rho, Gamma_S log rho.", 1e-10),
    "sphere-r-constant": Check("sphere", "The chart function R collapses to "
        "the constant (c(d,d)/c(m,d)) (3d+m-2)/(d+m-2).", 1e-9),
    "sphere-beckner": Check("sphere", "Int f^2 dmu_S <= A (Int f^{2/p} "
        "dmu_S)^p + 16/((m+2-d)(3d-2+m)) Int Gamma_S(f) dmu_S with p = "
        "1+2/(m-d); saturated by f = rho^{(d-m-2)/2}.", policy=True),
}

# Suites in table order; the runner of suite s is `_suite_<s>`.
SUITES = tuple(dict.fromkeys(c.suite for c in CHECKS.values())) + ("all",)


@dataclass
class SuiteConfig:
    suite: str = "all"
    d: list = field(default_factory=lambda: [1, 2])
    b: list = field(default_factory=lambda: [3.0, 4.0])
    m: list = field(default_factory=lambda: [6.0])
    p: list = field(default_factory=lambda: [1.5, 2.0])
    t: list = field(default_factory=lambda: [1.0])
    seed: int = 0
    out: str = "-"
    format: str = "json"
    deterministic_timestamps: bool = False

    def validate(self):
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; choose from {SUITES}")
        if self.format not in ("json", "csv"):
            raise ConfigError("format must be json or csv")
        for name in ("d", "b", "m", "p", "t"):
            grid = getattr(self, name)
            if not grid:
                raise ConfigError(f"{name} grid is empty")
            if not all(math.isfinite(v) for v in grid):
                raise ConfigError(f"{name} grid must be finite")
        if any(dd not in (1, 2, 3) for dd in self.d):
            raise ConfigError("d grid must lie in {1,2,3}")
        self.d = [int(dd) for dd in self.d]
        if any(tt <= 0 for tt in self.t):
            raise ConfigError("t grid must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.suite in ("cauchy", "all"):
            for dd in self.d:
                for bb in self.b:
                    if bb < dd + 1:
                        raise ConfigError(
                            f"cauchy suite needs b >= d+1, got b={bb}, d={dd}")
        if self.suite in ("qtm", "bessel", "gamma2", "sphere", "all"):
            for dd in self.d:
                for mm in self.m:
                    if mm < dd + 2:
                        raise ConfigError(
                            f"suite {self.suite} needs m >= d+2, got m={mm}, d={dd}")


def _record(check_id, params, lhs, rhs=None):
    """The one place a verdict is decided.  ``lhs`` and ``rhs`` are floats or
    ``Estimate``s; ``rhs`` None is the check's ``tol``, for lhs = |residual|."""
    check = CHECKS[check_id]
    lhs, rhs = (x if isinstance(x, Estimate) else Estimate(x, 0.0, 0)
                for x in (lhs, check.tol if rhs is None else rhs))
    verdict = (DeficitReport(lhs, rhs).verdict if check.policy
               else "pass" if lhs.value < rhs.value else check.miss)
    return {"check_id": check_id, "params": params,
            "lhs": float(lhs.value), "lhs_err": float(lhs.error_bound),
            "rhs": float(rhs.value), "rhs_err": float(rhs.error_bound),
            "deficit": float(rhs.value) - float(lhs.value), "verdict": verdict}


def _suite_measures(cfg: SuiteConfig):
    for dd in cfg.d:
        for bb in cfg.b:
            if bb <= dd / 2.0:
                continue
            nu = CauchyMeasure(dd, bb)
            mass = nu.integrate(lambda pts: np.ones(len(pts)), QuadratureConfig())
            yield _record("measure-mass", {"d": dd, "b": bb}, abs(mass.value - 1.0))
            if 2.0 * bb - 2.0 - dd > 0:
                mom = nu.integrate(
                    lambda pts: np.sum(np.atleast_2d(pts) ** 2, axis=1),
                    QuadratureConfig(), growth=2.0)
                exact = second_moment(bb, dd)
                yield _record("measure-second-moment", {"d": dd, "b": bb},
                              abs((mom.value - exact) / exact))
        worst = 0.0
        for mm in range(3, 21):
            lhs = log_norm_const(mm, dd) - log_norm_const(mm - 2, dd)
            rhs = np.log((mm - 2.0) / (mm - 2.0 + dd))
            worst = max(worst, abs(np.expm1(lhs - rhs)))
        yield _record("norm-const-ratio", {"d": dd}, worst)


def _suite_qtm(cfg: SuiteConfig):
    for dd in cfg.d:
        f = standard_library(dd)["positive_bump"]
        grid = [(mm, tt) for mm in cfg.m for tt in cfg.t]
        kernels = [TKernel(dd, mm, tt, (0.0,) * dd) for mm, tt in grid]
        # one stencil pass per t gives Q_t f and the harmonicity residual of
        # every m, and one subordination pass serves every (m, t) kernel of this d
        harmonic = harmonicity_residual(f, kernels)
        subordinated = qtm_subordinated(f, kernels)
        # the kernels of one m (one run of len(t) in the grid) differ only in
        # t, so they share their draws
        mc_cfg, nt = MonteCarloConfig(100_000, cfg.seed), len(cfg.t)
        mcs = [est for i in range(0, len(kernels), nt)
               for est in qtm_mc(f, kernels[i:i + nt], mc_cfg)]
        for (mm, tt), s, (q, res), mc in zip(grid, subordinated, harmonic, mcs):
            yield _record("qtm-crosspath",
                          {"d": dd, "m": mm, "t": tt, "field": "positive_bump"},
                          abs(q.value - s.value), q.error_bound + s.error_bound)
            gap = replace(mc, value=abs(mc.value - q.value))
            z = gap.value / max(mc.error_bound, 1e-300)
            yield _record("qtm-mc", {"d": dd, "m": mm, "t": tt, "sigma": z},
                          gap, 3.0 * mc.error_bound)
            scale = max(abs(q.value), 1.0)
            yield _record("qtm-harmonic", {"d": dd, "m": mm, "t": tt},
                          abs(res.value / scale))


def _suite_bessel(cfg: SuiteConfig):
    for mm in cfg.m:
        law = HittingTimeLaw(mm, 1.0)
        samples = np.sort(pooled(law.draw, MonteCarloConfig(20_000, cfg.seed)))
        # the two-sided KS statistic over every draw: the empirical CDF steps
        # from (i - 1)/n to i/n at the i-th smallest
        cdf, n = law.cdf(samples), len(samples)
        ks = float(max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n)))
        crit = 1.63 / np.sqrt(len(samples))  # 1% asymptotic KS critical value
        yield _record("hitting-law-ks", {"m": mm, "t": 1.0, "n": len(samples)}, ks, crit)
        dd = cfg.d[0]
        gap = dynkin_check(standard_library(dd)["positive_bump"],
                           BesselSimConfig(m=mm, t0=0.5, dt=2e-3),
                           20_000, seed=cfg.seed)
        yield _record("bessel-dynkin", {"m": mm, "d": dd, "t0": 0.5}, gap)


def _suite_gamma2(cfg: SuiteConfig):
    rng = np.random.default_rng(cfg.seed)
    for dd in cfg.d:
        for mm in cfg.m:
            x = rng.uniform([-2.0] * dd + [0.2], [2.0] * dd + [2.0], (10, dd + 1))
            yield _record("qm-halfspace", {"d": dd, "m": mm},
                          abs(qm_residual(dd, mm, x)))
            if mm <= dd + 2:
                continue   # the negative-dimension family needs n < 0
            n = dd - mm + 2.0
            beta_star = n / (2.0 - n)
            ok = phi_conditions(beta_star, n, dd)
            bad = phi_conditions(beta_star - 0.1, n, dd)
            # passes iff the conditions hold at beta_star and fail below it
            yield _record("phi-conditions", {"d": dd, "m": mm, "beta": beta_star},
                          float(not ok), float(not bad))
        if dd >= 2:
            f = standard_library(dd)["positive_bump"]
            x = rng.uniform(-1.5, 1.5, (20, dd))
            worst = min(0.0, np.min(cd1_residual(f, -0.5, dd, x)),
                        np.min(reinforced_cd_residual(f, dd, x)))
            yield _record("cd-pointwise", {"d": dd}, abs(worst))


def _suite_cauchy(cfg: SuiteConfig):
    for dd in cfg.d:
        for bb in cfg.b:
            rep = poincare_cauchy_deficit(coordinate(0, dd), bb, dd)
            yield _record("poincare-cauchy", rep.params, rep.lhs, rep.rhs)
            # the rows of one (d, b), one per p of the range, make one pass
            ps = [pp for pp in cfg.p if 1.0 + 1.0 / (bb - dd) <= pp <= 2.0]
            f = standard_library(dd)["positive_bump"]
            for rep in beckner_deficit(beckner_cauchy_rows(f, bb, ps, dd)):
                yield _record("beckner-cauchy", rep.params, rep.lhs, rep.rhs)
        if dd == 1:
            yield _record("rayleigh-high-b", {"d": 1, "b": 2.0},
                          abs(optimal_constant_rayleigh(2.0, 1) / 0.5 - 1.0))
            yield _record("rayleigh-low-b", {"d": 1, "b": 1.0},
                          abs(optimal_constant_rayleigh(1.0, 1) / 4.0 - 1.0))


def _suite_sphere(cfg: SuiteConfig):
    rng = np.random.default_rng(cfg.seed)
    for dd in cfg.d:
        if dd < 2:
            continue
        x = rng.uniform(-2, 2, (20, dd))
        residuals = eigenfunction_residuals(dd, x)[1:] + log_rho_identities(dd, x)
        yield _record("sphere-identities", {"d": dd}, max(0.0, np.max(residuals)))
        for mm in cfg.m:
            vals = constant_R(mm, dd, rng.uniform(-3, 3, (50, dd)))
            spread = float(np.std(vals) / np.mean(vals))
            closed = constant_R_closed_form(mm, dd)
            res = max(spread, abs(vals[0] / closed - 1.0))
            yield _record("sphere-r-constant", {"d": dd, "m": mm}, res)
            par = SphereBecknerParams(mm, dd)
            for f in (make_power_of_rho((dd - mm - 2.0) / 2.0, dd),
                      standard_library(dd)["positive_bump"]):
                rep = sphere_beckner_deficit(f, par)
                yield _record("sphere-beckner", rep.params, rep.lhs, rep.rhs)


def run_suite(cfg: SuiteConfig) -> dict:
    """Run the configured suites; each record's `seconds` is the time since
    the previous record of its suite (or since the suite started)."""
    cfg.validate()
    names = SUITES[:-1] if cfg.suite == "all" else (cfg.suite,)
    checks = []
    for name in names:
        t = time.perf_counter()
        for rec in globals()[f"_suite_{name}"](cfg):
            now = time.perf_counter()
            rec["seconds"] = now - t
            checks.append(rec)
            t = now
    checks.sort(key=lambda r: (r["check_id"], json.dumps(r["params"], sort_keys=True)))
    if cfg.deterministic_timestamps:
        for r in checks:
            r["seconds"] = 0.0
        stamp = "1970-01-01T00:00:00Z"
    else:
        stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    summary = {"pass": 0, "fail": 0, "saturated": 0, "inconclusive": 0}
    for r in checks:
        summary[r["verdict"]] += 1
    return {"config": asdict(cfg), "checks": checks, "summary": summary,
            "version": __version__, "timestamp": stamp}


def explain_check(check_id: str) -> str:
    if check_id not in CHECKS:
        raise UnknownCheck(f"no check named {check_id!r}; known: "
                           + ", ".join(sorted(CHECKS)))
    return CHECKS[check_id].explanation


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def render_csv(report: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["check_id", "param_json", "lhs", "lhs_err", "rhs", "rhs_err",
                "deficit", "verdict", "seconds"])
    for r in report["checks"]:
        w.writerow([r["check_id"], json.dumps(r["params"], sort_keys=True),
                    _fmt17(r["lhs"]), _fmt17(r["lhs_err"]),
                    _fmt17(r["rhs"]), _fmt17(r["rhs_err"]),
                    _fmt17(r["deficit"]), r["verdict"], _fmt17(r["seconds"])])
    return buf.getvalue()


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _cast(cast, val: str, where: str, what="a number"):
    try:
        return cast(val)
    except (KeyError, ValueError):
        raise ConfigError(f"{where}: expected {what}, got {val!r}") from None


def load_config_file(path: str) -> dict:
    """Flat key = value config.  A key is a ``SuiteConfig`` field and takes
    the type of its default: a list is comma-separated numbers, a boolean is
    true/false/yes/no/1/0 in any case."""
    defaults, opts = asdict(SuiteConfig()), {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    for lineno, line in enumerate(lines, 1):
        where = f"{path}:{lineno}"
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in defaults:
            raise ConfigError(f"{where}: unknown key {key!r}")
        default = defaults[key]
        if isinstance(default, list):
            opts[key] = [_cast(float, v, where) for v in val.split(",") if v.strip()]
        elif isinstance(default, bool):
            opts[key] = _cast(lambda v: _BOOLEANS[v.lower()], val, where,
                              "/".join(_BOOLEANS))
        elif isinstance(default, int):
            opts[key] = _cast(int, val, where)
        else:
            opts[key] = val
    return opts


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="beckner",
        description="Numerical verification suites for Cauchy-measure "
                    "functional inequalities.")
    sub = ap.add_subparsers(dest="command")
    run = sub.add_parser("run", help="run a verification suite")
    run.add_argument("--suite", help="one of " + ", ".join(SUITES) + " (default all)")
    run.add_argument("--config", help="flat key = value config file")
    run.add_argument("--d", type=int, nargs="+", help="dimension grid")
    run.add_argument("--b", type=float, nargs="+", help="measure index grid")
    run.add_argument("--m", type=float, nargs="+", help="kernel index grid")
    run.add_argument("--p", type=float, nargs="+", help="interpolation exponents")
    run.add_argument("--t", type=float, nargs="+", help="extension heights")
    run.add_argument("--seed", type=int, help="random seed")
    run.add_argument("--out", help="output path ('-' for stdout)")
    run.add_argument("--format", choices=("json", "csv"), help="report format")
    run.add_argument("--deterministic-timestamps", action="store_true", default=None,
                     help="zero out timestamps and wall times for diffable output")
    exp = sub.add_parser("explain", help="describe a check id")
    exp.add_argument("check_id")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "explain":
        try:
            print(explain_check(args.check_id))
        except UnknownCheck as exc:
            print(str(exc), file=sys.stderr)
            return 2
        return 0
    if args.command != "run":
        ap.print_help()
        return 2
    try:
        opts = load_config_file(args.config) if args.config else {}
        opts.update((f.name, getattr(args, f.name)) for f in fields(SuiteConfig)
                    if getattr(args, f.name) is not None)
        cfg = SuiteConfig(**opts)
        report = run_suite(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    text = json.dumps(report, indent=2, sort_keys=True) + "\n" \
        if cfg.format == "json" else render_csv(report)
    if cfg.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2
    return 0 if report["summary"]["fail"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
