import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beckner.errors import DomainError
from beckner.measures import (CauchyMeasure, HittingTimeLaw, TKernel,
                              heavy_tail_cutoff, log_norm_const, norm_const,
                              sample_coupled, sample_gamma, sample_hitting,
                              sample_tkernel, second_moment, surface_area)
from beckner.numerics import MonteCarloConfig, QuadratureConfig, spawn_rngs


def test_norm_const_closed_values():
    # c(1,1) = pi Gamma(1/2)/Gamma(1) / sqrt(pi) ... = pi; c(2,2) = pi; c(3,1) = pi/2
    assert norm_const(1, 1) == pytest.approx(math.pi, rel=1e-14)
    assert norm_const(2, 2) == pytest.approx(math.pi, rel=1e-14)
    assert norm_const(3, 1) == pytest.approx(math.pi / 2, rel=1e-14)


def test_norm_const_is_the_integral():
    # independent check by direct quadrature of (1+|y|^2)^{-(m+d)/2}
    from beckner.numerics import integrate_rd
    for m, d in [(3.0, 1), (4.0, 2)]:
        est = integrate_rd(
            lambda pts: (1.0 + np.sum(pts ** 2, axis=1)) ** (-(m + d) / 2.0),
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


def test_second_moment_divergence_guard():
    with pytest.raises(DomainError):
        second_moment(1.5, 1)
    with pytest.raises(DomainError):
        CauchyMeasure(2, 1.0)


def test_tkernel_density_normalized():
    k = TKernel(1, 5.0, 0.7, (0.3,))
    from beckner.numerics import integrate_rd
    est = integrate_rd(lambda pts: k.density(pts), 1, QuadratureConfig(),
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


def test_gamma_sampler_moments():
    rng = spawn_rngs(0, 1)[0]
    g = sample_gamma(rng, 3.0, 200_000)
    assert np.mean(g) == pytest.approx(3.0, rel=0.01)
    assert np.var(g) == pytest.approx(3.0, rel=0.05)
    with pytest.raises(DomainError):
        sample_gamma(rng, -1.0, 10)


def test_tkernel_sampler_matches_density_moments():
    k = TKernel(1, 6.0, 1.0, (0.5,))
    draws = sample_tkernel(k, MonteCarloConfig(n_samples=400_000, seed=2))
    # mean = x; variance of the t-kernel = t^2 d/(m-2)
    assert np.mean(draws) == pytest.approx(0.5, abs=0.01)
    assert np.var(draws) == pytest.approx(1.0 / 4.0, rel=0.03)


def test_hitting_sampler_matches_mean():
    law = HittingTimeLaw(8.0, 1.0)
    s = sample_hitting(law, MonteCarloConfig(n_samples=200_000, seed=5))
    assert np.mean(s) == pytest.approx(law.mean(), rel=0.02)


def test_coupled_sampler_marginals():
    s, xs = sample_coupled(1, 6.0, 1.0, [0.2], MonteCarloConfig(300_000, seed=7))
    # S has the hitting law; X_S has the t-kernel law
    assert np.mean(s) == pytest.approx(HittingTimeLaw(6.0, 1.0).mean(), rel=0.03)
    assert np.mean(xs) == pytest.approx(0.2, abs=0.01)
    assert np.var(xs[:, 0]) == pytest.approx(1.0 / 4.0, rel=0.03)


@pytest.mark.parametrize("n_samples,n_streams", [(1001, 4), (3, 5)])
def test_hitting_sampler_is_coupled_time(n_samples, n_streams):
    cfg = MonteCarloConfig(n_samples, seed=11, n_streams=n_streams)
    s = sample_hitting(HittingTimeLaw(7.0, 0.8), cfg)
    s_coupled, _ = sample_coupled(2, 7.0, 0.8, [0.1, -0.3], cfg)
    assert np.array_equal(s, s_coupled)


def test_sampler_reproducibility():
    k = TKernel(2, 5.0, 1.0, (0.0, 0.0))
    a = sample_tkernel(k, MonteCarloConfig(1000, seed=9))
    b = sample_tkernel(k, MonteCarloConfig(1000, seed=9))
    assert np.array_equal(a, b)
