import math

import numpy as np
import pytest

from beckner.errors import DomainError
from beckner.fields import (constant, gaussian_bump, positive_bump, quadratic,
                            standard_library, trig)
from beckner.measures import TKernel, sample_tkernel
from beckner.numerics import MonteCarloConfig, QuadratureConfig, fd_derivative
from beckner.qtm import (QtmField, QtmParams, biharmonic,
                         half_space_operator_fd, harmonicity_residual,
                         moment_identity_gap, qtm_mc, qtm_quadrature,
                         qtm_subordinated, taylor_remainder_order)


def exact_quadratic_extension(m, d, t, x):
    """Extension of |y|^2: |x|^2 + t^2 d/(m-2)."""
    return float(np.sum(np.asarray(x) ** 2)) + t ** 2 * d / (m - 2.0)


def test_constant_fixed_point():
    p = QtmParams(6.0, 2, 1.3, (0.4, -0.2))
    for op in (qtm_quadrature, qtm_subordinated):
        assert op(constant(1.0, 2), p).value == pytest.approx(1.0, abs=1e-10)


def test_t_zero_is_identity():
    f = gaussian_bump(1.0, [0.0], 1)
    p = QtmParams(6.0, 1, 0.0, (0.3,))
    assert qtm_quadrature(f, p).value == pytest.approx(float(f.value([0.3])))


@pytest.mark.parametrize("m,d,t,x", [(6.0, 1, 1.0, (0.0,)),
                                     (8.0, 2, 0.5, (0.3, -0.1)),
                                     (7.0, 3, 1.2, (0.0, 0.2, 0.1))])
def test_quadratic_extension_all_paths(m, d, t, x):
    f = quadratic(d)
    p = QtmParams(m, d, t, x)
    exact = exact_quadratic_extension(m, d, t, x)
    q = qtm_quadrature(f, p)
    s = qtm_subordinated(f, p)
    assert q.value == pytest.approx(exact, abs=max(1e-9, 10 * q.error_bound))
    assert s.value == pytest.approx(exact, abs=max(1e-8, 10 * s.error_bound))
    mc = qtm_mc(f, p, MonteCarloConfig(n_samples=200_000, seed=1))
    assert abs(mc.value - exact) < 4.0 * mc.error_bound


def test_mc_path_averages_kernel_draws():
    f = gaussian_bump(1.0, [0.3, 0.0], 2)
    p = QtmParams(6.0, 2, 0.7, (0.1, -0.2))
    cfg = MonteCarloConfig(n_samples=5001, seed=3)
    draws = sample_tkernel(TKernel(p.d, p.m, p.t, p.x), cfg)
    assert qtm_mc(f, p, cfg).value == pytest.approx(np.mean(f.value(draws)),
                                                     rel=1e-12)


def test_crosspath_agreement_bump():
    f = positive_bump(1.0, [0.3], 1)
    p = QtmParams(6.0, 1, 1.0, (0.0,))
    q = qtm_quadrature(f, p)
    s = qtm_subordinated(f, p)
    assert abs(q.value - s.value) <= q.error_bound + s.error_bound


def test_index_guard():
    with pytest.raises(DomainError):
        QtmParams(0.0, 1, 1.0, (0.0,))
    with pytest.raises(DomainError):
        QtmParams(6.0, 1, -1.0, (0.0,))


def test_qtm_field_partials_match_fd():
    f = positive_bump(1.0, [0.3], 1)
    G = QtmField(f, 6.0, 1)
    pt = np.array([0.2, 0.8])  # (x, t)

    def g(p):
        return qtm_quadrature(f, QtmParams(6.0, 1, float(p[1]), (float(p[0]),)),
                              QuadratureConfig(1e-12, 1e-12)).value

    for alpha in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]:
        fd = fd_derivative(g, pt, alpha, step=5e-3)
        assert G.partial(alpha, pt) == pytest.approx(fd, abs=2e-4)


def test_qtm_field_rejects_boundary():
    G = QtmField(positive_bump(1.0, [0.0], 1), 6.0, 1)
    with pytest.raises(DomainError):
        G.partial((1, 0), [0.0, 0.0])


def test_harmonicity_bump():
    f = positive_bump(1.0, [0.3] * 2, 2)
    res = harmonicity_residual(f, QtmParams(6.0, 2, 1.0, (0.0, 0.0)))
    assert res < 1e-4


def test_harmonicity_analytic_extension():
    # F(x,t) = |x|^2 + t^2 d/(m-2) solves the half-space equation exactly
    m, d = 6.0, 2

    def F(p):
        p = np.atleast_1d(p)
        return float(np.sum(p[:-1] ** 2) + p[-1] ** 2 * d / (m - 2.0))

    res = half_space_operator_fd(F, d, m, np.array([0.3, -0.2, 1.0]))
    assert abs(res) < 1e-12


def test_moment_identity():
    g = positive_bump(1.0, [0.3], 1)
    rep = moment_identity_gap(g, 1.0, QtmParams(6.0, 1, 1.0, (0.0,)))
    assert rep.gap_quadrature / abs(rep.rhs) < 1e-6
    assert rep.gap_mc < 3.0 * rep.mc_sigma


def test_moment_identity_p_guard():
    g = constant(1.0, 1)
    with pytest.raises(DomainError):
        moment_identity_gap(g, 4.0, QtmParams(6.0, 1, 1.0, (0.0,)))


def test_taylor_remainder_slope():
    f = trig([1.0], 1)
    slope = taylor_remainder_order(f, 10.0, 1, [0.2],
                                   np.geomspace(0.05, 0.4, 8))
    assert abs(slope - 6.0) < 0.3


def test_biharmonic_quartic():
    # f = y^4: Delta^2 f = 24
    lib = standard_library(1)
    f = lib["quadratic"] * lib["quadratic"]
    assert biharmonic(f, [0.7]) == pytest.approx(24.0)
