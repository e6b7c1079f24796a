"""Batch verification driver.

Runs named check suites over parameter grids, applies the certification
policy, and writes machine-readable reports (JSON or CSV).  Exit codes:
0 all checks pass, 1 any check fails, 2 configuration error, 3 numerical
non-convergence.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__
from .errors import ConfigError, NonConvergence, UnknownCheck
from .fields import (constant, coordinate, make_power_of_rho, positive_bump,
                     standard_library)
from .numerics import MonteCarloConfig, QuadratureConfig
from .measures import (CauchyMeasure, HittingTimeLaw, log_norm_const,
                       sample_hitting, second_moment)
from .qtm import QtmParams, harmonicity_residual, qtm_mc, qtm_quadrature, \
    qtm_subordinated
from .bessel import BesselSimConfig, dynkin_check
from .gamma2 import (cd1_residual, phi_conditions, power_surface, qm_residual,
                     halfspace_m, reinforced_cd_residual)
from .inequalities import (DeficitReport, beckner_cauchy_deficit,
                           optimal_constant_rayleigh, p_grid,
                           poincare_cauchy_deficit)
from .sphere import (SphereBecknerParams, SphereGeometry, constant_R,
                     constant_R_closed_form, eigenfunction_residuals,
                     log_rho_identities, sphere_beckner_deficit)

SUITES = ("measures", "qtm", "bessel", "gamma2", "cauchy", "sphere", "all")


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
        if any(int(dd) < 1 or int(dd) > 3 for dd in self.d):
            raise ConfigError("d grid must lie in {1,2,3}")
        if self.suite in ("cauchy", "all"):
            for dd in self.d:
                for bb in self.b:
                    if bb < dd + 1:
                        raise ConfigError(
                            f"cauchy suite needs b >= d+1, got b={bb}, d={dd}")
        if self.suite in ("qtm", "bessel", "sphere", "all"):
            for dd in self.d:
                for mm in self.m:
                    if mm < dd + 2:
                        raise ConfigError(
                            f"suite {self.suite} needs m >= d+2, got m={mm}, d={dd}")


def _record(check_id, params, lhs, lhs_err, rhs, rhs_err, verdict, seconds):
    return {"check_id": check_id, "params": params,
            "lhs": float(lhs), "lhs_err": float(lhs_err),
            "rhs": float(rhs), "rhs_err": float(rhs_err),
            "deficit": float(rhs) - float(lhs), "verdict": verdict,
            "seconds": seconds}


def _residual_record(check_id, params, residual, tol, t0):
    verdict = "pass" if abs(residual) < tol else "fail"
    return _record(check_id, params, abs(residual), 0.0, tol, 0.0,
                   verdict, time.perf_counter() - t0)


def _deficit_record(check_id, rep: DeficitReport, t0):
    return _record(check_id, rep.params,
                   rep.lhs.value, rep.lhs.error_bound,
                   rep.rhs.value, rep.rhs.error_bound,
                   rep.verdict, time.perf_counter() - t0)


def _suite_measures(cfg: SuiteConfig):
    out = []
    for dd in cfg.d:
        dd = int(dd)
        for bb in cfg.b:
            if bb <= dd / 2.0:
                continue
            t0 = time.perf_counter()
            nu = CauchyMeasure(dd, bb)
            mass = nu.integrate(lambda pts: np.ones(len(pts)), QuadratureConfig())
            out.append(_residual_record("measure-mass", {"d": dd, "b": bb},
                                        mass.value - 1.0, 1e-9, t0))
            if 2.0 * bb - 2.0 - dd > 0:
                t0 = time.perf_counter()
                mom = nu.integrate(
                    lambda pts: np.sum(np.atleast_2d(pts) ** 2, axis=1),
                    QuadratureConfig(), growth=2.0)
                exact = second_moment(bb, dd)
                out.append(_residual_record(
                    "measure-second-moment", {"d": dd, "b": bb},
                    (mom.value - exact) / exact, 1e-6, t0))
        t0 = time.perf_counter()
        worst = 0.0
        for mm in range(3, 21):
            lhs = log_norm_const(mm, dd) - log_norm_const(mm - 2, dd)
            rhs = np.log((mm - 2.0) / (mm - 2.0 + dd))
            worst = max(worst, abs(np.expm1(lhs - rhs)))
        out.append(_residual_record("norm-const-ratio", {"d": dd}, worst, 1e-13, t0))
    return out


def _suite_qtm(cfg: SuiteConfig):
    out = []
    for dd in cfg.d:
        dd = int(dd)
        lib = standard_library(dd)
        f = lib["positive_bump"]
        for mm in cfg.m:
            for tt in cfg.t:
                params = QtmParams(mm, dd, tt, (0.0,) * dd)
                t0 = time.perf_counter()
                q = qtm_quadrature(f, params)
                s = qtm_subordinated(f, params)
                gap = abs(q.value - s.value)
                budget = q.error_bound + s.error_bound
                out.append(_record("qtm-crosspath",
                                   {"d": dd, "m": mm, "t": tt, "field": "positive_bump"},
                                   gap, 0.0, budget, 0.0,
                                   "pass" if gap <= budget else "fail",
                                   time.perf_counter() - t0))
                t0 = time.perf_counter()
                mc = qtm_mc(f, params, MonteCarloConfig(100_000, cfg.seed))
                z = abs(mc.value - q.value) / max(mc.error_bound, 1e-300)
                out.append(_record("qtm-mc", {"d": dd, "m": mm, "t": tt, "sigma": z},
                                   abs(mc.value - q.value), mc.error_bound,
                                   3.0 * mc.error_bound, 0.0,
                                   "pass" if z <= 3.0 else "inconclusive",
                                   time.perf_counter() - t0))
                t0 = time.perf_counter()
                res = harmonicity_residual(f, params)
                scale = max(abs(q.value), 1.0)
                out.append(_residual_record("qtm-harmonic",
                                            {"d": dd, "m": mm, "t": tt},
                                            res / scale, 1e-4, t0))
    return out


def _suite_bessel(cfg: SuiteConfig):
    out = []
    for mm in cfg.m:
        t0 = time.perf_counter()
        law = HittingTimeLaw(mm, 1.0)
        samples = sample_hitting(law, MonteCarloConfig(20_000, cfg.seed))
        samples = np.sort(samples)
        grid = samples[:: max(len(samples) // 200, 1)]
        cdf = np.atleast_1d(law.cdf(grid))
        emp = np.searchsorted(samples, grid, side="right") / len(samples)
        ks = float(np.max(np.abs(cdf - emp)))
        crit = 1.63 / np.sqrt(len(samples))  # 1% asymptotic KS critical value
        out.append(_record("hitting-law-ks", {"m": mm, "t": 1.0, "n": len(samples)},
                           ks, 0.0, crit, 0.0, "pass" if ks < crit else "fail",
                           time.perf_counter() - t0))
        t0 = time.perf_counter()
        dd = int(cfg.d[0])
        gap = dynkin_check(standard_library(dd)["positive_bump"],
                           BesselSimConfig(m=mm, t0=0.5, dt=2e-4),
                           20_000, seed=cfg.seed)
        out.append(_record("bessel-dynkin", {"m": mm, "d": dd, "t0": 0.5},
                           gap, 0.0, 0.02, 0.0,
                           "pass" if gap < 0.02 else "inconclusive",
                           time.perf_counter() - t0))
    return out


def _suite_gamma2(cfg: SuiteConfig):
    out = []
    rng = np.random.default_rng(cfg.seed)
    for dd in cfg.d:
        dd = int(dd)
        for mm in cfg.m:
            if mm < dd + 2:
                continue
            t0 = time.perf_counter()
            op = halfspace_m(dd, mm)
            worst = 0.0
            for _ in range(10):
                x = np.append(rng.uniform(-2, 2, dd), rng.uniform(0.2, 2.0))
                worst = max(worst, qm_residual(op, x))
            out.append(_residual_record("qm-halfspace", {"d": dd, "m": mm},
                                        worst, 1e-12, t0))
            t0 = time.perf_counter()
            n = dd - mm + 2.0
            beta_star = n / (2.0 - n)
            grid = [(y, z) for y in np.linspace(0.5, 3.0, 8)
                    for z in np.linspace(0.1, 2.0, 8)]
            ok, _ = phi_conditions(power_surface(beta_star), n, dd, grid)
            bad, _ = phi_conditions(power_surface(beta_star - 0.1), n, dd, grid)
            verdict = "pass" if (ok and not bad) else "fail"
            out.append(_record("phi-conditions", {"d": dd, "m": mm, "beta": beta_star},
                               float(not ok), 0.0, float(not bad), 0.0, verdict,
                               time.perf_counter() - t0))
        if dd >= 2:
            t0 = time.perf_counter()
            lib = standard_library(dd)
            f = lib["positive_bump"]
            worst = 0.0
            for _ in range(20):
                x = rng.uniform(-1.5, 1.5, dd)
                worst = min(worst, cd1_residual(f, -0.5, dd, x))
                worst = min(worst, reinforced_cd_residual(f, dd, x))
            out.append(_residual_record("cd-pointwise", {"d": dd},
                                        min(worst, 0.0), 1e-9, t0))
    return out


def _suite_cauchy(cfg: SuiteConfig):
    out = []
    for dd in cfg.d:
        dd = int(dd)
        for bb in cfg.b:
            t0 = time.perf_counter()
            rep = poincare_cauchy_deficit(coordinate(0, dd), bb, dd)
            out.append(_deficit_record("poincare-cauchy", rep, t0))
            f = positive_bump(1.0, [0.3] * dd, dd)
            for pp in cfg.p:
                if not (1.0 + 1.0 / (bb - dd) <= pp <= 2.0):
                    continue
                t0 = time.perf_counter()
                rep = beckner_cauchy_deficit(f, bb, pp, dd)
                out.append(_deficit_record("beckner-cauchy", rep, t0))
        t0 = time.perf_counter()
        if dd == 1:
            est = optimal_constant_rayleigh(2.0, 1)
            out.append(_residual_record("rayleigh-high-b", {"d": 1, "b": 2.0},
                                        est / 0.5 - 1.0, 1e-2, t0))
            t0 = time.perf_counter()
            est = optimal_constant_rayleigh(1.0, 1)
            out.append(_residual_record("rayleigh-low-b", {"d": 1, "b": 1.0},
                                        est / 4.0 - 1.0, 2e-2, t0))
    return out


def _suite_sphere(cfg: SuiteConfig):
    out = []
    rng = np.random.default_rng(cfg.seed)
    for dd in cfg.d:
        dd = int(dd)
        if dd < 2:
            continue
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(20):
            x = rng.uniform(-2, 2, dd)
            _, r1, r2 = eigenfunction_residuals(dd, x)
            r3, r4 = log_rho_identities(dd, x)
            worst = max(worst, r1, r2, r3, r4)
        out.append(_residual_record("sphere-identities", {"d": dd}, worst, 1e-10, t0))
        for mm in cfg.m:
            t0 = time.perf_counter()
            vals = np.array([constant_R(mm, dd, rng.uniform(-3, 3, dd))
                             for _ in range(50)])
            spread = float(np.std(vals) / np.mean(vals))
            closed = constant_R_closed_form(mm, dd)
            res = max(spread, abs(vals[0] / closed - 1.0))
            out.append(_residual_record("sphere-r-constant", {"d": dd, "m": mm},
                                        res, 1e-9, t0))
            t0 = time.perf_counter()
            par = SphereBecknerParams(mm, dd)
            f = make_power_of_rho((dd - mm - 2.0) / 2.0, dd)
            rep = sphere_beckner_deficit(f, par)
            out.append(_deficit_record("sphere-beckner", rep, t0))
            t0 = time.perf_counter()
            rep = sphere_beckner_deficit(positive_bump(1.0, [0.3] * dd, dd), par)
            out.append(_deficit_record("sphere-beckner", rep, t0))
    return out


_RUNNERS = {"measures": _suite_measures, "qtm": _suite_qtm,
            "bessel": _suite_bessel, "gamma2": _suite_gamma2,
            "cauchy": _suite_cauchy, "sphere": _suite_sphere}


def run_suite(cfg: SuiteConfig) -> dict:
    cfg.validate()
    names = list(_RUNNERS) if cfg.suite == "all" else [cfg.suite]
    checks = []
    for name in names:
        checks.extend(_RUNNERS[name](cfg))
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


_EXPLANATIONS = {
    "measure-mass": "The normalized density (1+|y|^2)^{-b} / c(2b-d,d) must "
                    "integrate to 1 on R^d.  Parameters: dimension d, index b.",
    "measure-second-moment": "The second moment of the Cauchy-type measure "
                             "equals d/(2b-2-d) whenever 2b-2-d > 0.",
    "norm-const-ratio": "Ratio identity c(m,d)/c(m-2,d) = (m-2)/(m-2+d) for "
                        "the normalization constants.",
    "qtm-crosspath": "The extension operator evaluated by direct quadrature "
                     "and by heat-kernel subordination must agree within the "
                     "summed error bounds.",
    "qtm-mc": "Monte Carlo evaluation of the extension operator through the "
              "exact kernel sampler must sit within 3 standard errors of the "
              "quadrature value.",
    "qtm-harmonic": "The extension G(x,t) of f satisfies "
                    "(Laplacian_x + d^2/dt^2 + ((1-m)/t) d/dt) G = 0; the "
                    "finite-difference residual is compared to 1e-4 x scale.",
    "hitting-law-ks": "The exact hitting-time sampler S = t^2/(4G), "
                      "G ~ Gamma(m/2), is tested against the numerically "
                      "integrated density CDF with a 1%-level KS statistic.",
    "bessel-dynkin": "Pathwise check: the mean of f at the simulated exit "
                     "position equals the extension operator value at the "
                     "start point.",
    "qm-halfspace": "For the half-space operator with drift (1-m)/t the "
                    "tensor identity (n - D) Ric(L) = X (x) X holds exactly "
                    "with n = d - m + 2 and D = d + 1.",
    "phi-conditions": "The sub-harmonicity condition set for the surface "
                      "Phi(y,z) = y^beta z holds exactly on "
                      "beta in [n/(2-n), 0] and fails below.",
    "cd-pointwise": "Pointwise curvature-dimension consequences: the "
                    "beta-weighted residual and the reinforced CD(0,d) "
                    "residual are nonnegative up to roundoff.",
    "poincare-cauchy": "Var(f) <= (1/(2(b-1))) Int |grad f|^2 (1+|y|^2) dnu_b; "
                       "coordinate functions saturate it.",
    "beckner-cauchy": "(p/(p-1))[Int f^2 dnu_b - (Int f^{2/p} dnu_b)^p] <= "
                      "(1/(b-1)) Int |grad f|^2 (1+|y|^2) dnu_b for b >= d+1 "
                      "and p in [1+1/(b-d), 2].",
    "beckner-qt": "(p/(p-1))(Q_t^m(f^2) - Q_t^m(f^{2/p})^p) <= "
                  "(2t^2/(m-2)) Q_t^{m-2}(|grad f|^2), the extension-operator "
                  "form of the interpolation inequality.",
    "phi-entropy": "Q_t^m(Phi(f)) - Phi(Q_t^m f) <= (t^2/(2(m-2))) "
                   "Q_t^{m-2}(Phi''(f) |grad f|^2) for admissible Phi.",
    "rayleigh-high-b": "Independent Rayleigh-quotient estimate of the best "
                       "Poincare constant; for d=1, b >= 3/2 it equals "
                       "1/(2(b-1)).",
    "rayleigh-low-b": "For d=1, 1/2 < b <= 3/2 the best Poincare constant "
                      "switches regime to 4/(2b-1)^2.",
    "sphere-identities": "Chart identities for u = (1-|x|^2)/(1+|x|^2): "
                         "Delta_S u = -d u, Gamma_S(u) = 1-u^2, and the "
                         "closed forms of Delta_S log rho, Gamma_S log rho.",
    "sphere-r-constant": "The chart function R collapses to the constant "
                         "(c(d,d)/c(m,d)) (3d+m-2)/(d+m-2).",
    "sphere-beckner": "Int f^2 dmu_S <= A (Int f^{2/p} dmu_S)^p + "
                      "16/((m+2-d)(3d-2+m)) Int Gamma_S(f) dmu_S with "
                      "p = 1+2/(m-d); saturated by f = rho^{(d-m-2)/2}.",
    "sphere-classical-beckner": "Int f^2 dmu_S <= (Int |f|^{2/p} dmu_S)^p + "
                                "(2(p-1)/(pd)) Int Gamma_S(f) dmu_S; the "
                                "constant is 1/d at p=2 and tends to the "
                                "2/d log-Sobolev constant as p -> 1.",
}


def explain_check(check_id: str) -> str:
    if check_id not in _EXPLANATIONS:
        raise UnknownCheck(f"no check named {check_id!r}; known: "
                           + ", ".join(sorted(_EXPLANATIONS)))
    return _EXPLANATIONS[check_id]


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


def load_config_file(path: str) -> dict:
    """Flat key = value config; list values are comma-separated."""
    opts = {}
    list_keys = {"d", "b", "m", "p", "t"}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key in list_keys:
                opts[key] = [float(v) for v in val.split(",") if v.strip()]
            elif key in ("seed",):
                opts[key] = int(val)
            elif key in ("deterministic_timestamps",):
                opts[key] = val.lower() in ("1", "true", "yes")
            elif key in ("suite", "out", "format"):
                opts[key] = val
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
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
    run.add_argument("--deterministic-timestamps", action="store_true",
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
        for key in ("suite", "d", "b", "m", "p", "t", "seed", "out", "format"):
            val = getattr(args, key, None)
            if val is not None:
                opts[key] = val
        if args.deterministic_timestamps:
            opts["deterministic_timestamps"] = True
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
