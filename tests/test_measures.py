import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beckner.errors import DomainError
from beckner.fields import growth_degree, standard_library
from beckner.measures import (CauchyMeasure, GaussianMeasure, HittingTimeLaw,
                              SphereMeasure, TKernel, heavy_tail_cutoff, log_norm_const,
                              norm_const, second_moment, surface_area)
from beckner import measures, numerics
from beckner.numerics import Estimate, MonteCarloConfig, QuadratureConfig, integrate_rd, pooled
from beckner.qtm import qtm_quadrature


def test_norm_const_closed_values():
    # c(1,1) = pi Gamma(1/2)/Gamma(1) / sqrt(pi) ... = pi; c(2,2) = pi; c(3,1) = pi/2
    assert norm_const(1, 1) == pytest.approx(math.pi, rel=1e-14)
    assert norm_const(2, 2) == pytest.approx(math.pi, rel=1e-14)
    assert norm_const(3, 1) == pytest.approx(math.pi / 2, rel=1e-14)


def test_norm_const_is_the_integral():
    # independent check by direct quadrature of (1+|y|^2)^{-(m+d)/2}
    for m, d in [(3.0, 1), (4.0, 2)]:
        (est,) = integrate_rd(
            lambda pts: np.ones(len(pts)), lambda r2: -(m + d) / 2.0 * np.log1p(r2),
            d, QuadratureConfig(), cutoff=heavy_tail_cutoff(m, d, 1e-10))
        assert est.value == pytest.approx(norm_const(m, d), rel=1e-9)


@given(st.floats(3.0, 20.0), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_ratio_identity(m, d):
    lhs = log_norm_const(m, d) - log_norm_const(m - 2, d)
    rhs = math.log((m - 2.0) / (m - 2.0 + d))
    assert abs(lhs - rhs) < 1e-13


def test_surface_area():
    assert surface_area(1) == pytest.approx(2.0)
    assert surface_area(2) == pytest.approx(2 * math.pi)
    assert surface_area(3) == pytest.approx(4 * math.pi)


@pytest.mark.parametrize("d,b", [(1, 2.0), (2, 4.0), (3, 5.0)])
def test_mass_and_second_moment(d, b):
    nu = CauchyMeasure(d, b)
    mass = nu.integrate(lambda pts: np.ones(len(pts)), QuadratureConfig())
    assert abs(mass.value - 1.0) < 1e-9
    mom = nu.integrate(lambda pts: np.sum(np.atleast_2d(pts) ** 2, axis=1),
                       QuadratureConfig(), growth=2.0)
    exact = second_moment(b, d)
    assert abs(mom.value - exact) / exact < 1e-6


@pytest.mark.parametrize("d", [
    # the truncation tail takes 99.99999 % of its abs_tol/10 allowance, and the
    # G7/K15 estimate has no roundoff floor: the quadrature claims 2.0e-15 and
    # is off by 2.9e-15, so the mass misses its bound by 8e-16
    pytest.param(1, marks=pytest.mark.xfail(
        strict=True, reason="G7/K15 error estimate has no roundoff floor")),
    2, 3])
def test_mass_error_within_bound(d):
    mass = CauchyMeasure(d, d + 1).integrate(lambda pts: np.ones(len(pts)),
                                             QuadratureConfig())
    assert abs(mass.value - 1.0) <= mass.error_bound


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gaussian_measure_closed_forms(d):
    # gamma(1) = 1 and gamma(|y|^2) = d, each within its bound (tail included)
    gamma, cfg = GaussianMeasure(d), QuadratureConfig()
    mass = gamma.integrate(lambda pts: np.ones(len(pts)), cfg)
    assert abs(mass.value - 1.0) <= mass.error_bound
    mom = gamma.integrate(lambda pts: np.sum(pts * pts, axis=1), cfg, growth=2.0)
    assert abs(mom.value - d) <= mom.error_bound
    radius, tail = gamma.truncation(cfg.abs_tol, 2.0, 1.0)
    assert radius == 12.0 and 0.0 < tail < 1e-25


def test_second_moment_divergence_guard():
    with pytest.raises(DomainError):
        second_moment(1.5, 1)
    with pytest.raises(DomainError):
        CauchyMeasure(2, 1.0)


def test_tkernel_density_normalized():
    k = TKernel(1, 5.0, 0.7, (0.3,))
    (est,) = integrate_rd(k.density, np.zeros_like, 1, QuadratureConfig(),
                          cutoff=heavy_tail_cutoff(5.0, 1, 1e-10) + 1.0)
    assert est.value == pytest.approx(1.0, abs=1e-8)
    assert k.base_measure().b == pytest.approx(3.0)


def test_hitting_law_mean_and_cdf():
    law = HittingTimeLaw(6.0, 1.0)
    assert law.mean() == pytest.approx(1.0 / 8.0)
    s = np.linspace(0.01, 30.0, 50)
    c = law.cdf(s)
    assert np.all(np.diff(c) >= -1e-12)
    assert c[-1] == pytest.approx(1.0, abs=1e-4)
    with pytest.raises(DomainError):
        HittingTimeLaw(2.0, 1.0).mean()


def test_hitting_law_cdf_keeps_the_input_shape():
    law = HittingTimeLaw(6.0, 1.0)
    assert isinstance(law.cdf(0.3), float)
    one = law.cdf(np.array([0.3]))
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert one[0] == law.cdf(0.3)
    grid = np.array([[0.3, 0.1], [2.0, 0.05]])
    out = law.cdf(grid)
    assert out.shape == (2, 2)
    assert np.array_equal(out.ravel(), law.cdf(grid.ravel()))


# The draw order is pinned with numpy alone: a seed's stream is part of every
# Monte Carlo record, so a reordered draw would move reports silently.
def test_tkernel_draw_is_normal_first():
    k = TKernel(2, 5.0, 0.7, (0.3, -0.1))
    ref = np.random.default_rng(42)
    z = ref.standard_normal((7, 2))
    g = ref.standard_gamma(2.5, 7)
    expected = np.array([0.3, -0.1]) + 0.7 * z / np.sqrt(2.0 * g)[:, None]
    assert np.array_equal(k.draw(np.random.default_rng(42), 7), expected)


def test_tkernel_draw_coupled_is_gamma_first():
    k = TKernel(2, 5.0, 0.7, (0.3, -0.1))
    ref = np.random.default_rng(42)
    s = 0.7 ** 2 / (4.0 * ref.standard_gamma(2.5, 7))
    xs = np.array([0.3, -0.1]) + np.sqrt(2.0 * s)[:, None] * ref.standard_normal((7, 2))
    s_got, xs_got = k.draw_coupled(np.random.default_rng(42), 7)
    assert np.array_equal(s_got, s) and np.array_equal(xs_got, xs)


def test_hitting_law_draw_is_inverse_gamma():
    expected = 0.8 ** 2 / (4.0 * np.random.default_rng(42).standard_gamma(3.5, 7))
    assert np.array_equal(HittingTimeLaw(7.0, 0.8).draw(np.random.default_rng(42), 7),
                          expected)


def test_tkernel_sampler_matches_density_moments():
    k = TKernel(1, 6.0, 1.0, (0.5,))
    draws = pooled(k.draw, MonteCarloConfig(n_samples=400_000, seed=2))
    # mean = x; variance of the t-kernel = t^2 d/(m-2)
    assert np.mean(draws) == pytest.approx(0.5, abs=0.01)
    assert np.var(draws) == pytest.approx(1.0 / 4.0, rel=0.03)


def test_hitting_sampler_matches_mean():
    law = HittingTimeLaw(8.0, 1.0)
    s = pooled(law.draw, MonteCarloConfig(n_samples=200_000, seed=5))
    assert np.mean(s) == pytest.approx(law.mean(), rel=0.02)


def test_coupled_sampler_marginals():
    s, xs = pooled(TKernel(1, 6.0, 1.0, (0.2,)).draw_coupled, MonteCarloConfig(300_000, seed=7))
    # S has the hitting law; X_S has the t-kernel law
    assert np.mean(s) == pytest.approx(HittingTimeLaw(6.0, 1.0).mean(), rel=0.03)
    assert np.mean(xs) == pytest.approx(0.2, abs=0.01)
    assert np.var(xs[:, 0]) == pytest.approx(1.0 / 4.0, rel=0.03)


@pytest.mark.parametrize("n_samples,n_streams", [(1001, 4), (3, 5)])
def test_hitting_sampler_is_coupled_time(n_samples, n_streams):
    cfg = MonteCarloConfig(n_samples, seed=11, n_streams=n_streams)
    s = pooled(HittingTimeLaw(7.0, 0.8).draw, cfg)
    s_coupled, _ = pooled(TKernel(2, 7.0, 0.8, (0.1, -0.3)).draw_coupled, cfg)
    assert np.array_equal(s, s_coupled)


def test_sampler_reproducibility():
    k = TKernel(2, 5.0, 1.0, (0.0, 0.0))
    a = pooled(k.draw, MonteCarloConfig(1000, seed=9))
    b = pooled(k.draw, MonteCarloConfig(1000, seed=9))
    assert np.array_equal(a, b)


def _per_point_integral(measure, f, config, growth, scale):
    """``Measure.integrate`` with the density applied at every point of the
    angular rule, as it was before the density became a per-radius weight."""
    def g(pts):
        r2 = np.sum(pts * pts, axis=1)
        return np.asarray(f(pts), dtype=float) * np.exp(measure.log_density(r2))

    cutoff, tail = measure.truncation(config.abs_tol, growth, scale)
    (est,) = integrate_rd(g, np.zeros_like, measure.d, config, cutoff=cutoff)
    return Estimate(est.value, est.error_bound + tail, est.n_evals)


_RADIAL_MEASURES = ([CauchyMeasure(d, d + 2.0) for d in (1, 2, 3)]
                    + [SphereMeasure(d) for d in (2, 3)]
                    + [GaussianMeasure(d) for d in (1, 2, 3)]
                    + [TKernel(2, 6.0, 0.7, (0.2, -0.4))])


# the scale of the per-point test, to a relative 1e-3
_SCALE_CONFIG = QuadratureConfig(rel_tol=1e-3)


@pytest.mark.parametrize("mu", _RADIAL_MEASURES, ids=repr)
def test_per_radius_density_matches_per_point(mu):
    cfg = QuadratureConfig()
    for name, f in standard_library(mu.d).items():
        growth = growth_degree(f)
        if isinstance(mu, TKernel):   # the base measure's integral of f(x + t z)
            nu, g = mu.base_measure(), lambda z: f(mu.center + mu.t * z)
            scale = mu.tail_scale(f, growth)
        else:
            nu, g, scale = mu, f, 1.0
        try:
            nu.truncation(cfg.abs_tol, growth, scale)
        except DomainError:
            continue   # f grows faster than the measure's tail decays
        est = (qtm_quadrature(f, mu) if isinstance(mu, TKernel)
               else mu.integrate(f, cfg, growth=growth))
        ref = _per_point_integral(nu, g, cfg, growth, scale)
        # relative to the mean of |g|, the scale of a cancelling integral; a
        # scale needs few digits, and the kinks of |trig| would otherwise
        # raise every panel to angular order 128
        size = _per_point_integral(nu, lambda p: np.abs(g(p)), _SCALE_CONFIG, growth,
                                   scale).value
        assert abs(est.value - ref.value) <= 1e-13 * size, (name, est, ref)
        assert est.n_evals == ref.n_evals, name


@pytest.mark.parametrize("mu", [CauchyMeasure(3, 5.0), SphereMeasure(3), GaussianMeasure(3),
                                TKernel(3, 6.0, 1.0, (0.1, 0.2, 0.3))], ids=repr)
def test_log_density_sees_only_the_radii_of_a_panel(monkeypatch, mu):
    # one call per G7/K15 panel, on its 15 radii, never on the panel's points
    sizes, panels, points = [], [], []
    for cls in (CauchyMeasure, GaussianMeasure):
        def spy(self, r2, original=cls.log_density):
            sizes.append(np.shape(r2))
            return original(self, r2)
        monkeypatch.setattr(cls, "log_density", spy)
    interval, rd = numerics.integrate_interval, measures.integrate_rd

    def counted_interval(*args):
        est = interval(*args)
        panels.append(est.n_evals // 15)
        return est

    def counted_rd(g, *args, **kwargs):
        return rd(lambda p: points.append(len(p)) or g(p), *args, **kwargs)

    monkeypatch.setattr(numerics, "integrate_interval", counted_interval)
    monkeypatch.setattr(measures, "integrate_rd", counted_rd)
    f = standard_library(3)["positive_bump"]
    est = qtm_quadrature(f, mu) if isinstance(mu, TKernel) else mu.integrate(f, QuadratureConfig())
    assert sizes and set(sizes) == {(15,)} and len(sizes) == sum(panels)
    # n_evals counts the points at which the integrand was evaluated
    assert est.n_evals == sum(points)
