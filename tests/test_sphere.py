import math
from collections import Counter

import numpy as np
import pytest

from beckner.errors import DomainError
from beckner.fields import (DifferentiableField, constant, grad_norm_squared,
                            growth_degree, make_power_of_rho, positive_bump)
from beckner.gamma2 import sphere_stereo, value_L_gamma
from beckner import sphere
from beckner.inequalities import beckner_cauchy_deficit
from beckner.measures import CauchyMeasure, SphereMeasure, norm_const
from beckner.numerics import QuadratureConfig
from beckner.sphere import (SphereBecknerParams,
                            classical_beckner_deficit, constant_R,
                            constant_R_closed_form, eigenfunction_residuals,
                            eigenfunction_u, log_rho_identities,
                            nash_sobolev_probe, sphere_beckner_deficit)


def _one(pts):
    return np.ones(len(pts))


@pytest.mark.parametrize("d", [2, 3])
def test_uniform_measure_is_probability(d):
    mass = SphereMeasure(d).integrate(_one, QuadratureConfig())
    assert abs(mass.value - 1.0) < 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_sphere_mass_within_bound(d):
    # the bound carries the tail beyond the fixed chart radius: 2.0e-11 at
    # d = 2 and 5.1e-11 at d = 3, which is nearly all of the error
    mass = SphereMeasure(d).integrate(_one, QuadratureConfig())
    assert abs(mass.value - 1.0) <= mass.error_bound


def test_dimension_guard():
    with pytest.raises(DomainError):
        SphereMeasure(1)


def _chart_integrands(d, m=6.0):
    p = SphereBecknerParams(m, d).p
    for f in (positive_bump(1.0, [0.3] * d, d),
              make_power_of_rho((d - m - 2.0) / 2.0, d)):
        yield f.power(2)
        yield f.power(2.0 / p)


@pytest.mark.parametrize("d", [2, 3])
def test_sphere_measure_is_cauchy_d_d(d):
    # the chart measure is CauchyMeasure(d, d) up to its truncation radius
    cfg = QuadratureConfig()
    pairs = [(_one, 0.0)] + [(g, growth_degree(g)) for g in _chart_integrands(d)]
    for g, growth in pairs:
        a = SphereMeasure(d).integrate(g, cfg, growth=growth)
        b = CauchyMeasure(d, d).integrate(g, cfg, growth=growth)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound


@pytest.mark.parametrize("d", [2, 3])
def test_sphere_beckner_row_over_cauchy_d_d(d, monkeypatch):
    par = SphereBecknerParams(6.0, d)
    f = positive_bump(1.0, [0.3] * d, d)
    chart = sphere_beckner_deficit(f, par)
    monkeypatch.setattr(sphere, "SphereMeasure", lambda dim: CauchyMeasure(dim, dim))
    cauchy = sphere_beckner_deficit(f, par)
    assert abs(chart.deficit - cauchy.deficit) <= chart.error_budget + cauchy.error_budget


def test_eigenfunction_pole_and_equator():
    u, lap_res, gam_res = eigenfunction_residuals(2, [0.0, 0.0])
    assert u == pytest.approx(1.0)
    assert lap_res < 1e-12 and gam_res < 1e-12
    u, _, gam_res = eigenfunction_residuals(2, [1.0, 0.0])
    assert u == pytest.approx(0.0)
    assert gam_res < 1e-12  # Gamma_S(u) = 1 on the equator


@pytest.mark.parametrize("d", [2, 3])
def test_eigenfunction_identities_grid(d):
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-3, 3, d)
        _, r1, r2 = eigenfunction_residuals(d, x)
        assert r1 < 1e-10 and r2 < 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_log_rho_closed_forms(d):
    # pole: Delta_S log rho = d/4, Gamma_S log rho = 0; equator: 1/2 and 1/4
    r1, r2 = log_rho_identities(d, [0.0] * d)
    assert r1 < 1e-12 and r2 < 1e-12
    x = [1.0] + [0.0] * (d - 1)
    r1, r2 = log_rho_identities(d, x)
    assert r1 < 1e-12 and r2 < 1e-12
    rng = np.random.default_rng(1)
    for _ in range(20):
        r1, r2 = log_rho_identities(d, rng.uniform(-3, 3, d))
        assert r1 < 1e-10 and r2 < 1e-10


def test_sphere_gamma_matches_closed_form():
    # Gamma_S(f) = (1/4)(1+|x|^2)^2 |grad f|^2 in the stereographic chart
    d = 2
    op = sphere_stereo(d)
    f = positive_bump(1.0, [0.2, 0.2], d)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.uniform(-2, 2, d)
        closed = 0.25 * (1.0 + x @ x) ** 2 * float(grad_norm_squared(f).value(x))
        assert value_L_gamma(op, f, x)[2] == pytest.approx(closed, rel=1e-10)


@pytest.mark.parametrize("d,m", [(2, 4.0), (2, 6.0), (3, 5.0), (3, 8.0)])
def test_constant_r(d, m):
    rng = np.random.default_rng(3)
    vals = np.array([constant_R(m, d, rng.uniform(-3, 3, d))
                     for _ in range(200)])
    assert np.std(vals) / np.mean(vals) < 1e-9
    closed = norm_const(d, d) / norm_const(m, d) \
        * (3.0 * d + m - 2.0) / (d + m - 2.0)
    assert vals[0] == pytest.approx(closed, rel=1e-10)
    assert constant_R_closed_form(m, d) == pytest.approx(closed, rel=1e-14)


def test_beckner_params_invariants():
    with pytest.raises(DomainError):
        SphereBecknerParams(3.0, 2)  # m < d+2
    assert SphereBecknerParams(4.0, 2).A == pytest.approx(1.0, abs=1e-14)
    a_vals = [SphereBecknerParams(m, 2).A for m in (4.0, 5.0, 6.0, 8.0, 12.0)]
    assert all(x < y for x, y in zip(a_vals, a_vals[1:]))
    p = SphereBecknerParams(6.0, 2).p
    assert p == pytest.approx(1.5)


def test_constant_field_deficit_is_a_minus_one():
    par = SphereBecknerParams(6.0, 2)
    rep = sphere_beckner_deficit(constant(1.0, 2), par)
    assert rep.deficit == pytest.approx(par.A - 1.0, abs=1e-9)
    assert rep.certified


@pytest.mark.parametrize("d,m", [(2, 4.0), (2, 6.0), (3, 5.0)])
def test_saturation_by_power_of_rho(d, m):
    par = SphereBecknerParams(m, d)
    f = make_power_of_rho((d - m - 2.0) / 2.0, d)
    rep = sphere_beckner_deficit(f, par)
    assert rep.saturated, (rep.deficit, rep.error_budget)


@pytest.mark.parametrize("d,m", [(2, 4.0), (2, 6.0), (2, 9.0), (3, 5.0), (3, 7.0)])
def test_sphere_row_is_the_conformal_image_of_the_cauchy_row(d, m):
    # with b = (m+d)/2, p = 1 + 2/(m-d) (the left end of the Cauchy range) and
    # alpha = (m-d+2)/2, a positive g on nu_b maps to f = g rho^{-alpha} on the
    # sphere, and D_S(f) = kappa D_C(g); the two rows integrate different
    # integrands against different measures, so this is a second path
    par = SphereBecknerParams(m, d)
    b, p, alpha = (m + d) / 2.0, par.p, (m - d + 2.0) / 2.0
    z_b, z_d = norm_const(m, d), norm_const(d, d)
    kappa = z_b / z_d * (p - 1.0) / p * (m + d - 2.0) / (m + 3.0 * d - 2.0)
    assert par.A == pytest.approx(kappa * p / (p - 1.0) * (z_d / z_b) ** p, rel=1e-13)
    assert par.gradient_constant == pytest.approx(4.0 * kappa * z_d / ((b - 1.0) * z_b),
                                                  rel=1e-13)
    for g in (positive_bump(1.0, [0.3] * d, d), positive_bump(0.7, [0.4, -0.2, 0.1][:d], d)):
        sph = sphere_beckner_deficit(g * make_power_of_rho(-alpha, d), par)
        cau = beckner_cauchy_deficit(g, b, p, d)
        assert abs(sph.deficit - kappa * cau.deficit) <= (
            sph.error_budget + kappa * cau.error_budget), (sph, cau)


def test_bump_family_certified():
    par = SphereBecknerParams(6.0, 2)
    for c in (0.0, 0.5):
        rep = sphere_beckner_deficit(positive_bump(1.0, [c, c], 2), par)
        assert rep.certified and rep.deficit >= 0


def test_positivity_required():
    par = SphereBecknerParams(6.0, 2)
    with pytest.raises(DomainError):
        sphere_beckner_deficit(eigenfunction_u(2), par)


def test_classical_beckner_constant_field_tight():
    rep = classical_beckner_deficit(constant(1.0, 2), 1.5, 2)
    assert abs(rep.deficit) < 1e-9


def test_classical_beckner_eigenfunction():
    # u at p=2, d=2: int u^2 = 1/3, (int |u|)^2 = 1/4, energy term
    # (1/d) int Gamma_S(u) = 1/3; deficit is exactly 1/4.  The sign-changing
    # eigenfunction does not saturate the absolute-value form; the spectral
    # saturation shows up as int u^2 = (1/d) int Gamma_S(u) instead.
    rep = classical_beckner_deficit(eigenfunction_u(2), 2.0, 2)
    assert rep.deficit == pytest.approx(1.0 / 4.0, abs=1e-8)
    assert rep.lhs.value == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert rep.certified


def test_classical_beckner_perturbation():
    eps = 0.05
    f = constant(1.0, 2) + eigenfunction_u(2) * eps
    rep = classical_beckner_deficit(f, 1.5, 2)
    assert rep.deficit >= -rep.error_budget


def test_chart_inversion_invariance():
    # the antipodal chart is x -> x/|x|^2; int f^2 dmu_S is chart-independent
    d = 2
    mu, cfg = SphereMeasure(d), QuadratureConfig()
    f = positive_bump(1.0, [0.3, 0.3], d)

    def pulled(pts):
        pts = np.atleast_2d(pts)
        r2 = np.sum(pts * pts, axis=1)
        r2 = np.where(r2 == 0, 1e-300, r2)
        return np.asarray(f.value(pts / r2[:, None])) ** 2

    a = mu.integrate(lambda pts: np.asarray(f.value(pts)) ** 2, cfg)
    b = mu.integrate(pulled, cfg)
    assert a.value == pytest.approx(b.value, abs=1e-8)


def test_nash_sobolev_probe_fit_then_validate():
    fam = [("one", constant(1.0, 3)),
           ("bump", positive_bump(1.0, [0.3] * 3, 3)),
           ("bump2", positive_bump(2.0, [-0.2] * 3, 3)),
           ("rho-1", make_power_of_rho(-1.0, 3)),
           ("rho-05", make_power_of_rho(-0.5, 3))]
    held_out = ("rho-near", make_power_of_rho(-0.6, 3))
    C, records = nash_sobolev_probe(fam, 3)
    assert math.isfinite(C) and C > 0
    _, rec = nash_sobolev_probe([held_out], 3)
    assert rec[0]["c_needed"] <= 1.01 * C
    with pytest.raises(DomainError):
        nash_sobolev_probe(fam, 2)


# u or log rho, the conformal factor a and the three drift components, plus
# the value of u where the identity needs it: one jet build per field
@pytest.mark.parametrize("call,builds", [
    (lambda x: eigenfunction_residuals(3, x), 5),
    (lambda x: log_rho_identities(3, x), 6),
    (lambda x: constant_R(8.0, 3, x), 6),
], ids=["eigenfunction_residuals", "log_rho_identities", "constant_R"])
def test_one_jet_build_per_field_and_point(call, builds, monkeypatch):
    seen = Counter()
    original = DifferentiableField._eval

    def counting(self, points, order):
        seen[(id(self), tuple(np.ravel(points)))] += 1
        return original(self, points, order)

    monkeypatch.setattr(DifferentiableField, "_eval", counting)
    call(np.array([0.4, -0.2, 0.7]))
    assert len(seen) == builds and set(seen.values()) == {1}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("call", [
    lambda d, x: eigenfunction_residuals(d, x),
    lambda d, x: log_rho_identities(d, x),
    lambda d, x: constant_R(d + 4.0, d, x),
], ids=["eigenfunction_residuals", "log_rho_identities", "constant_R"])
def test_batch_matches_points(call, d):
    x = np.random.default_rng(1).uniform(-3, 3, (6, d))
    loop = np.stack([np.array(call(d, xi)) for xi in x], axis=-1)
    np.testing.assert_array_equal(np.array(call(d, x)), loop)
