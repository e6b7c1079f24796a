"""End-to-end acceptance checks, one per headline claim of the library.

Each test prints exactly one PASS/FAIL line with the governing numbers so
that the suite output doubles as a verification report.
"""
import math

import numpy as np
import pytest

from beckner.fields import (constant, coordinate, gaussian_bump,
                            grad_norm_squared, make_power_of_rho, positive_bump, quadratic,
                            standard_library, trig)
from beckner.gamma2 import (cd1_residual, halfspace_m, qm_residual,
                            reinforced_cd_residual, subharmonic_residual)
from beckner.inequalities import (PhiEntropySpec, admissibility_check,
                                  beckner_cauchy_deficit, beckner_qt_deficit,
                                  gaussian_limit_probe, limit_rate,
                                  optimal_constant_rayleigh, p_grid,
                                  phi_entropy_deficit, poincare_cauchy_deficit)
from beckner.measures import (CauchyMeasure, HittingTimeLaw, TKernel, log_norm_const,
                              second_moment)
from beckner.bessel import BesselSimConfig, simulate_joint_paths
from beckner.numerics import MonteCarloConfig, QuadratureConfig, pooled
from beckner.qtm import (QtmField, harmonicity_residual,
                         moment_identity_gap, qtm_mc, qtm_quadrature,
                         qtm_subordinated, taylor_remainder_order)
from beckner.sphere import (SphereBecknerParams, classical_beckner_deficit,
                            constant_R, constant_R_closed_form,
                            eigenfunction_residuals, log_rho_identities,
                            nash_sobolev_probe, sphere_beckner_deficit)
from oracles import half_space_operator_fd


def _line(num, name, ok, detail):
    print(f"[{num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_01_normalization_and_moments():
    worst_mass = worst_mom = 0.0
    for d, b in [(1, 2.0), (2, 4.0), (3, 5.0)]:
        nu = CauchyMeasure(d, b)
        mass = nu.integrate(lambda pts: np.ones(len(pts)), QuadratureConfig())
        worst_mass = max(worst_mass, abs(mass.value - 1.0))
        mom = nu.integrate(lambda pts: np.sum(np.atleast_2d(pts) ** 2, axis=1),
                           QuadratureConfig(), growth=2.0)
        exact = second_moment(b, d)
        worst_mom = max(worst_mom, abs(mom.value - exact) / exact)
    worst_ratio = 0.0
    for d in (1, 2, 3):
        for m in range(3, 21):
            lhs = log_norm_const(m, d) - log_norm_const(m - 2, d)
            rhs = math.log((m - 2.0) / (m - 2.0 + d))
            worst_ratio = max(worst_ratio, abs(math.expm1(lhs - rhs)))
    ok = worst_mass < 1e-9 and worst_mom < 1e-6 and worst_ratio < 1e-13
    _line(1, "normalization/moments", ok,
          f"mass {worst_mass:.2e} (<1e-9), moment {worst_mom:.2e} (<1e-6), "
          f"ratio {worst_ratio:.2e} (<1e-13)")


_PARAM_GRID = [(6.0, 1, 1.0, (0.0,)), (8.0, 1, 0.5, (0.3,)),
               (6.0, 2, 1.0, (0.0, 0.0)), (8.0, 2, 0.7, (0.2, -0.1)),
               (7.0, 3, 1.2, (0.0, 0.0, 0.0)), (9.0, 3, 0.6, (0.1, 0.0, -0.2))]
_FIELD_NAMES = ["one", "quadratic", "trig", "gaussian_bump", "positive_bump"]


def test_02_crosspath_grid():
    worst_gap_ratio = 0.0
    worst_z = 0.0
    for m, d, t, x in _PARAM_GRID:
        lib = standard_library(d)
        kernel = TKernel(d, m, t, x)
        for name in _FIELD_NAMES:
            f = lib[name]
            q = qtm_quadrature(f, kernel)
            (s,) = qtm_subordinated(f, [kernel])
            gap = abs(q.value - s.value)
            budget = q.error_bound + s.error_bound + 1e-12
            worst_gap_ratio = max(worst_gap_ratio, gap / budget)
            (mc,) = qtm_mc(f, [kernel], MonteCarloConfig(1_000_000, seed=0))
            # discount the quadrature's own error bound before scoring the
            # MC discrepancy (constant fields have zero MC variance)
            excess = max(abs(mc.value - q.value) - q.error_bound, 0.0)
            z = excess / max(mc.error_bound, 1e-300) if excess else 0.0
            worst_z = max(worst_z, z)
    ok = worst_gap_ratio <= 1.0 and worst_z <= 3.0
    _line(2, "extension cross-path", ok,
          f"5x6 grid, worst gap/budget {worst_gap_ratio:.3f} (<=1), "
          f"worst MC z {worst_z:.2f} (<=3) at n=1e6")


def test_03_harmonicity():
    worst = 0.0
    for m, d, t in [(6.0, 2, 1.0), (8.0, 1, 0.5)]:
        f = positive_bump(1.0, [0.3] * d, d)
        ((value, res),) = harmonicity_residual(f, [TKernel(d, m, t, (0.0,) * d)])
        scale = max(abs(value.value), 1.0)
        worst = max(worst, abs(res.value) / scale)
    m, d = 6.0, 2

    def F(p):
        p = np.atleast_1d(p)
        return float(np.sum(p[:-1] ** 2) + p[-1] ** 2 * d / (m - 2.0))

    exact_res = abs(half_space_operator_fd(F, d, m, np.array([0.3, -0.2, 1.0])))
    ok = worst < 1e-4 and exact_res < 1e-12
    _line(3, "harmonicity", ok,
          f"FD residual/scale {worst:.2e} (<1e-4), "
          f"analytic residual {exact_res:.2e} (<1e-12)")


def test_04_moment_identity():
    worst_quad = worst_z = 0.0
    for m, d in [(6.0, 1), (8.0, 2)]:
        g = positive_bump(1.0, [0.3] * d, d)
        rep = moment_identity_gap(g, 1.0, TKernel(d, m, 1.0, (0.0,) * d))
        worst_quad = max(worst_quad, rep.gap_quadrature / abs(rep.rhs))
        worst_z = max(worst_z, rep.gap_mc / max(rep.mc_sigma, 1e-300))
    ok = worst_quad < 1e-6 and worst_z < 3.0
    _line(4, "moment identity", ok,
          f"quadrature rel gap {worst_quad:.2e} (<1e-6), MC z {worst_z:.2f} (<3)")


def test_05_hitting_time_law():
    law = HittingTimeLaw(6.0, 1.0)
    n = 100_000
    samples = np.sort(pooled(law.draw, MonteCarloConfig(n, seed=2)))
    cdf = law.cdf(samples)
    i = np.arange(1, n + 1)
    ks = float(max(np.max(np.abs(cdf - i / n)), np.max(np.abs(cdf - (i - 1) / n))))
    crit = 1.628 / math.sqrt(n)  # asymptotic 1% critical value
    cfg = BesselSimConfig(m=6.0, t0=1.0, dt=2e-4)
    times, hit = pooled(lambda rng, k: simulate_joint_paths(cfg, rng, k, 0, ())[1:],
                        MonteCarloConfig(6000, seed=4))
    finished = times[hit]
    mean = float(np.mean(finished))
    se = float(np.std(finished, ddof=1) / np.sqrt(len(finished)))
    exact = law.mean()  # = 1/(2(m-2)) at t=1
    mean_ok = abs(mean - exact) < 3.0 * se + 0.005
    ok = ks < crit and mean_ok
    _line(5, "hitting-time law", ok,
          f"KS {ks:.4f} (<{crit:.4f} at 1%, n=1e5), clock-step+exact-finish mean "
          f"{mean:.5f} vs exact {exact:.5f} (+-{3 * se + 0.005:.4f})")


def test_06_taylor_remainder():
    slope = taylor_remainder_order(trig([1.0], 1), 10.0, 1, [0.2],
                                   np.geomspace(0.05, 0.4, 8))
    ok = abs(slope - 6.0) < 0.3
    _line(6, "small-t expansion order", ok,
          f"fitted remainder exponent {slope:.3f} (6 +- 0.3)")


def test_07_qm_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    count = 0
    for d in (1, 2, 3):
        for m in (d + 2.0, d + 3.5, d + 5.0, 9.5):
            for _ in range(5):
                x = np.append(rng.uniform(-3, 3, d), rng.uniform(0.1, 3.0))
                worst = max(worst, qm_residual(d, m, x))
                count += 1
    ok = worst < 1e-12 and count >= 50
    _line(7, "quasi-model identity", ok,
          f"worst residual {worst:.2e} (<1e-12) over {count} points")


def test_08_subharmonicity():
    rng = np.random.default_rng(8)
    worst = 0.0
    for d in (1, 2):
        for m in (d + 2.0, d + 4.0, d + 6.0):
            n = d - m + 2.0
            beta = n / (2.0 - n)
            op = halfspace_m(d, m)
            F = QtmField(positive_bump(1.0, [0.3] * d, d), m, d)
            for _ in range(100 // 6 + 1):
                pt = np.append(rng.uniform(-1.5, 1.5, d), rng.uniform(0.3, 1.5))
                worst = min(worst, subharmonic_residual(op, F, beta, pt))
    ok = worst >= -1e-8
    _line(8, "sub-harmonicity", ok,
          f"min residual {worst:.2e} (>= -1e-8) at extremal beta, d in {{1,2}}")


def test_09_poincare_saturation_and_rayleigh():
    worst_ratio = 0.0
    for d, b in [(1, 2.0), (2, 4.0)]:
        rep = poincare_cauchy_deficit(coordinate(0, d), b, d)
        worst_ratio = max(worst_ratio, abs(rep.deficit) / rep.error_budget)
    high = optimal_constant_rayleigh(2.0, 1)
    low = optimal_constant_rayleigh(1.0, 1)
    e_high = abs(high / 0.5 - 1.0)
    e_low = abs(low / 4.0 - 1.0)
    ok = worst_ratio <= 10.0 and e_high < 1e-2 and e_low < 2e-2
    _line(9, "weighted Poincare", ok,
          f"saturation |deficit|/budget {worst_ratio:.2f} (<=10); Rayleigh "
          f"rel err {e_high:.2e} (<1e-2, b=2) and {e_low:.2e} (<2e-2, b=1)")


def _positive_family(d):
    return [constant(1.0, d), positive_bump(1.0, [0.3] * d, d),
            positive_bump(2.0, [-0.2] * d, d), make_power_of_rho(-0.5, d),
            make_power_of_rho(-1.0, d)]


def test_10_beckner_sweep_and_equivalence():
    worst = -np.inf
    n_checks = 0
    for d, b in [(1, 3.0), (2, 4.0)]:
        for p in p_grid(b, d, 9):
            for f in _positive_family(d):
                rep = beckner_cauchy_deficit(f, b, float(p), d)
                worst = max(worst, -(rep.deficit + rep.error_budget))
                n_checks += 1
    # the extension row, the Cauchy row of f(x + t .), against its three
    # integrals by subordination: f^2, f^{2/p} at kernel m, |grad f|^2 at m - 2
    f, m, p, t, x = positive_bump(1.0, [0.3], 1), 5.0, 1.5, 0.7, (0.4,)
    qt = beckner_qt_deficit(f, m, p, t, x)
    (sq,), (mid,), (energy,) = (qtm_subordinated(g, [TKernel(1, mm, t, x)]) for g, mm in (
        (f.power(2), m), (f.power(2.0 / p), m), (grad_norm_squared(f), m - 2.0)))
    a, c = p / (p - 1.0), 2.0 * t ** 2 / (m - 2.0)
    eq_ratio = max(
        abs(qt.lhs.value - a * (sq.value - mid.value ** p)) / (qt.lhs.error_bound + a * (
            sq.error_bound + p * mid.value ** (p - 1.0) * mid.error_bound)),
        abs(qt.rhs.value - c * energy.value) / (qt.rhs.error_bound + c * energy.error_bound))
    ok = worst <= 0.0 and eq_ratio <= 1.0
    _line(10, "interpolation sweep", ok,
          f"{n_checks} certified deficits (worst violation {worst:.2e} <= 0); "
          f"extension/subordination gap {eq_ratio:.2f} of the summed bars (<= 1)")


def test_11_sphere_identities():
    rng = np.random.default_rng(11)
    worst_id = 0.0
    worst_r = 0.0
    for d in (2, 3):
        for _ in range(50):
            x = rng.uniform(-3, 3, d)
            _, r1, r2 = eigenfunction_residuals(d, x)
            r3, r4 = log_rho_identities(d, x)
            worst_id = max(worst_id, r1, r2, r3, r4)
        for m in (d + 2.5, d + 4.0):
            vals = np.array([constant_R(m, d, rng.uniform(-3, 3, d))
                             for _ in range(200)])
            closed = constant_R_closed_form(m, d)
            worst_r = max(worst_r, float(np.std(vals) / np.mean(vals)),
                          float(np.max(np.abs(vals / closed - 1.0))))
    ok = worst_id < 1e-10 and worst_r < 1e-9
    _line(11, "sphere chart identities", ok,
          f"eigenfunction/log-rho residual {worst_id:.2e} (<1e-10), "
          f"R spread {worst_r:.2e} (<1e-9, 200 pts, d in {{2,3}})")


def test_12_sphere_beckner():
    a_gap = max(abs(SphereBecknerParams(float(d + 2), d).A - 1.0)
                for d in (2, 3))
    worst_sat = 0.0
    for d, m in [(2, 4.0), (2, 6.0), (3, 5.0)]:
        par = SphereBecknerParams(m, d)
        f = make_power_of_rho((d - m - 2.0) / 2.0, d)
        rep = sphere_beckner_deficit(f, par)
        worst_sat = max(worst_sat, abs(rep.deficit) / rep.error_budget)
    worst_bump = np.inf
    par = SphereBecknerParams(6.0, 2)
    for c in (0.0, 0.4):
        rep = sphere_beckner_deficit(positive_bump(1.0, [c, c], 2), par)
        worst_bump = min(worst_bump, rep.deficit + rep.error_budget)
    ok = a_gap < 1e-12 and worst_sat <= 10.0 and worst_bump >= 0.0
    _line(12, "sphere interpolation", ok,
          f"|A-1| {a_gap:.2e} at m=d+2 (<1e-12), saturation ratio "
          f"{worst_sat:.2f} (<=10), bump deficit margin {worst_bump:.2e} (>=0)")


def test_13_phi_entropy():
    # the q = 2 entropy row, off centre, against its three integrals by
    # subordination: f^2 and f at kernel m, |grad f|^2 at m - 2 (Phi'' = 2)
    f, m, d, t, x = positive_bump(1.0, [0.3], 1), 6.0, 1, 1.6, (-0.3,)
    ent = phi_entropy_deficit(f, PhiEntropySpec(2.0, d - m + 2.0), m, t, x)
    (sq,), (mean,), (energy,) = (qtm_subordinated(g, [TKernel(d, mm, t, x)]) for g, mm in (
        (f.power(2), m), (f, m), (grad_norm_squared(f), m - 2.0)))
    c = t ** 2 / (m - 2.0)
    match = max(
        abs(ent.lhs.value - (sq.value - mean.value ** 2)) / (ent.lhs.error_bound + (
            sq.error_bound + 2.0 * mean.value * mean.error_bound)),
        abs(ent.rhs.value - c * energy.value) / (ent.rhs.error_bound + c * energy.error_bound))
    grid = np.linspace(0.5, 3.0, 40)
    adm_ok = True
    for n in (-2.0, -4.0):
        q_star = (4.0 - n) / (2.0 - n)
        for q, expect in [(q_star, True), (q_star + 0.1, True), (2.0, True),
                          (q_star - 0.05, False), (2.2, False)]:
            got, worst, _ = admissibility_check(PhiEntropySpec(q, n), grid)
            adm_ok &= (got == expect) and (expect or worst < 0)
    ok = match <= 1.0 and adm_ok
    _line(13, "entropy inequality", ok,
          f"quadratic profile vs subordination gap {match:.2f} of the summed bars (<= 1); "
          f"power-profile admissibility matches [(4-n)/(2-n), 2]: {adm_ok}")


def test_14_pointwise_curvature():
    rng = np.random.default_rng(14)
    worst = 0.0
    for d in (2, 3):
        f = positive_bump(1.0, [0.3] * d, d)
        for _ in range(100):
            x = rng.uniform(-1.5, 1.5, d)
            worst = min(worst, cd1_residual(f, -0.5, d, x))
            worst = min(worst, reinforced_cd_residual(f, d, x))
    eq = max(abs(cd1_residual(quadratic(2), 0.0, 2, [0.4, 0.7])),
             abs(reinforced_cd_residual(quadratic(2), 2, [0.5, -0.3])))
    ok = worst >= -1e-9 and eq < 1e-10
    _line(14, "pointwise curvature bounds", ok,
          f"min residual {worst:.2e} (>= -1e-9, 100 pts, d in {{2,3}}), "
          f"equality cases {eq:.2e} (<1e-10)")


def test_15_sobolev_probe():
    fam = [("one", constant(1.0, 3)),
           ("bump", positive_bump(1.0, [0.3] * 3, 3)),
           ("bump2", positive_bump(2.0, [-0.2] * 3, 3)),
           ("gauss", gaussian_bump(1.0, [0.3] * 3, 3)),
           ("rho-1", make_power_of_rho(-1.0, 3)),
           ("rho-05", make_power_of_rho(-0.5, 3))]
    C, _ = nash_sobolev_probe(fam, 3)
    _, rec = nash_sobolev_probe([("held-out", make_power_of_rho(-0.6, 3))], 3)
    held = rec[0]["c_needed"]
    ok = math.isfinite(C) and C > 0 and held <= 1.01 * C
    _line(15, "spherical Sobolev probe", ok,
          f"fitted C {C:.4f} finite over 6 fields; held-out needs "
          f"{held:.4f} (<= 1.01 C = {1.01 * C:.4f})")


def test_16_gaussian_limit():
    f = positive_bump(1.0, [0.3], 1)
    _, gauss, gaps = gaussian_limit_probe(f, [10.0, 100.0, 1000.0], 1.5, 1)
    r_lhs = limit_rate(gaps, "lhs_gap")
    r_rhs = limit_rate(gaps, "rhs_gap")
    ok = gauss.certified and 0.7 <= r_lhs <= 1.3 and 0.7 <= r_rhs <= 1.3
    _line(16, "Gaussian limit", ok,
          f"rate exponents lhs {r_lhs:.3f}, rhs {r_rhs:.3f} (in [0.7,1.3], "
          f"b in {{10,100,1000}})")
