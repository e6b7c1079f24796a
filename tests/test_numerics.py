import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beckner.errors import DomainError, NonConvergence
from beckner.numerics import (Estimate, MonteCarloConfig, QuadratureConfig,
                              angular_rule, fd_derivative, integrate_interval,
                              integrate_radial, integrate_rd, mc_estimate,
                              pairwise_sum, spawn_rngs, substreams)


def test_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureConfig(radial_cutoff=-1.0)
    with pytest.raises(DomainError):
        MonteCarloConfig(n_samples=0)
    with pytest.raises(DomainError):
        Estimate(1.0, -1.0, 3)


def test_interval_polynomial_exact():
    # K15 integrates polynomials up to degree 29 exactly; a quintic is easy
    est = integrate_interval(lambda x: 5 * x ** 4, 0.0, 2.0, QuadratureConfig())
    assert abs(est.value - 32.0) < 1e-12


def test_interval_oscillatory():
    est = integrate_interval(np.cos, 0.0, 10.0, QuadratureConfig())
    assert abs(est.value - math.sin(10.0)) <= est.error_bound + 1e-13


def test_interval_nonconvergence():
    cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14, max_evals=150)
    with pytest.raises(NonConvergence):
        integrate_interval(lambda x: np.abs(x - math.pi / 10) ** 0.1, 0.0, 1.0, cfg)


def test_radial_gaussian_moment():
    # int_0^inf r^2 exp(-r^2) dr = sqrt(pi)/4
    est = integrate_radial(lambda r: r ** 2 * np.exp(-r ** 2), QuadratureConfig())
    assert abs(est.value - math.sqrt(math.pi) / 4) < 1e-12


def test_radial_heavy_tail():
    # int_0^inf dr/(1+r^2) = pi/2
    est = integrate_radial(lambda r: 1.0 / (1.0 + r ** 2), QuadratureConfig())
    # the default truncation radius leaves a ~1e-6 analytic tail
    assert abs(est.value - math.pi / 2) < 2e-6


@pytest.mark.parametrize("d,area", [(1, 2.0), (2, 2 * math.pi), (3, 4 * math.pi)])
def test_angular_rule_weights(d, area):
    nodes, w = angular_rule(d, 48)
    assert abs(w.sum() - area) < 1e-12
    assert np.allclose(np.linalg.norm(nodes, axis=1), 1.0)


def test_angular_rule_d4_unsupported():
    with pytest.raises(DomainError):
        angular_rule(4, 16)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_full_space_gaussian(d):
    est = integrate_rd(
        lambda pts: np.exp(-np.sum(pts ** 2, axis=1)), d, QuadratureConfig(),
        cutoff=15.0)
    assert abs(est.value - math.pi ** (d / 2.0)) < 1e-9


def test_fd_derivative_matches_analytic():
    f = lambda p: math.sin(p[0]) * p[1] ** 3
    x = np.array([0.4, 1.2])
    assert abs(fd_derivative(f, x, (1, 0)) - math.cos(0.4) * 1.2 ** 3) < 1e-8
    assert abs(fd_derivative(f, x, (1, 2)) - math.cos(0.4) * 6 * 1.2) < 1e-6


def test_fd_derivative_domain_guard():
    with pytest.raises(DomainError):
        fd_derivative(math.sqrt, [1e-9], (1,), step=1e-2,
                      domain=lambda p: p[0] > 0)


def test_fd_order_cap():
    with pytest.raises(DomainError):
        fd_derivative(lambda p: p[0], [0.0], (5,))


def test_spawn_rngs_reproducible():
    a = [g.standard_normal(4) for g in spawn_rngs(7, 3)]
    b = [g.standard_normal(4) for g in spawn_rngs(7, 3)]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert not np.array_equal(a[0], a[1])


@pytest.mark.parametrize("n_samples,n_streams", [(10, 4), (12, 4), (3, 5), (1, 1)])
def test_substreams_split(n_samples, n_streams):
    cfg = MonteCarloConfig(n_samples=n_samples, seed=5, n_streams=n_streams)
    counts = [n for _, n in substreams(cfg)]
    assert sum(counts) == n_samples
    assert len(counts) == min(n_samples, n_streams)  # empty streams skipped
    assert max(counts) - min(counts) <= 1
    # each yielded generator is the matching spawned stream
    for (rng, _), ref in zip(substreams(cfg), spawn_rngs(5, n_streams)):
        assert rng.standard_normal() == ref.standard_normal()


@given(st.lists(st.floats(-1e6, 1e6), max_size=200))
@settings(max_examples=50, deadline=None)
def test_pairwise_sum_close_to_fsum(vals):
    assert pairwise_sum(vals) == pytest.approx(math.fsum(vals), abs=1e-6)


def test_pairwise_sum_deterministic_order():
    vals = [1e16, 1.0, -1e16, 1.0]
    assert pairwise_sum(vals) == pairwise_sum(list(vals))


def test_mc_estimate_normal_mean():
    est = mc_estimate(lambda rng, n: rng.standard_normal(n),
                      MonteCarloConfig(n_samples=40_000, seed=3))
    assert est.kind == "monte-carlo"
    assert abs(est.value) < 4.0 * est.error_bound
    assert est.error_bound == pytest.approx(1.0 / math.sqrt(40_000), rel=0.1)


def test_mc_estimate_seed_reproducible():
    cfg = MonteCarloConfig(n_samples=10_000, seed=11)
    e1 = mc_estimate(lambda rng, n: rng.standard_normal(n), cfg)
    e2 = mc_estimate(lambda rng, n: rng.standard_normal(n), cfg)
    assert e1.value == e2.value
