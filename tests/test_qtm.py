import math

import numpy as np
import pytest

from beckner.errors import DomainError
from beckner.fields import (constant, gaussian_bump, positive_bump, quadratic,
                            standard_library, trig)
from beckner.measures import TKernel, sample_tkernel
from beckner.numerics import MonteCarloConfig, QuadratureConfig, fd_derivative
from beckner import qtm
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


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("t,x0", [(1.0, 0.0), (0.5, 0.3)])
def test_mass_error_within_bound(d, t, x0):
    one = standard_library(d)["one"]
    est = qtm_quadrature(one, QtmParams(6.0, d, t, (x0,) * d))
    assert abs(est.value - 1.0) <= est.error_bound


@pytest.mark.parametrize("d", [1, 2, 3])
def test_extension_of_one_is_one(d):
    G = QtmField(standard_library(d)["one"], 6.0, d)
    assert abs(G.value([0.3] * d + [0.7]) - 1.0) <= 1e-9


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


@pytest.mark.parametrize("d,t", [(1, 0.7), (2, 0.7), (3, 0.7), (2, 1.0)])
def test_harmonicity_integrates_each_point_once(monkeypatch, d, t):
    f = standard_library(d)["positive_bump"]
    p = QtmParams(6.0, d, t, (0.1,) * d)
    cfg = QuadratureConfig(1e-8, 1e-8)
    step = 5e-3
    visited = []

    def G(pt):  # the un-memoised reference: one quadrature per stencil call
        pt = np.atleast_1d(pt)
        visited.append(tuple(pt.tolist()))
        return qtm_quadrature(f, QtmParams(p.m, d, float(pt[-1]),
                                           tuple(pt[:-1])), cfg).value

    ref = abs(half_space_operator_fd(G, d, p.m, np.append(p.center, p.t),
                                     step=step))
    calls = []

    def counted(f, params, cfg=None):
        calls.append(params.x + (params.t,))
        return qtm_quadrature(f, params, cfg)

    monkeypatch.setattr(qtm, "qtm_quadrature", counted)
    assert harmonicity_residual(f, p, step=step, cfg=cfg) == ref
    assert len(visited) == 4 * d + 6
    assert sorted(calls) == sorted(set(visited))
    # 2d+5 points in exact arithmetic; at t = 1 the two stencil routes to the
    # centre, (t+h)-h and (t-h)+h, round to different floats
    assert len(calls) <= 2 * d + 5 + (t == 1.0)


def _heat_value_per_s(f, x, s_values, d, order):
    """The per-s loop that the broadcast heat rule replaced."""
    nodes, weights = qtm._heat_rule(d, order)
    out = np.empty(len(s_values))
    for i, s in enumerate(s_values):
        pts = x[None, :] + 2.0 * math.sqrt(s) * nodes
        out[i] = float(np.dot(weights, f.value(pts)))
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_heat_rule_broadcast_matches_loop(d):
    f = standard_library(d)["positive_bump"]
    x = np.linspace(-0.2, 0.3, d)
    s = np.geomspace(1e-3, 20.0, 15)
    order = qtm._HERMITE_ORDER[d]
    np.testing.assert_allclose(qtm._heat_value(f, x, s, d, order),
                               _heat_value_per_s(f, x, s, d, order),
                               rtol=1e-14, atol=0.0)
    nodes, weights = qtm._heat_rule(d, order)
    assert qtm._heat_rule(d, order) is qtm._heat_rule(d, order)
    assert nodes.shape == (order ** d, d)
    assert not nodes.flags.writeable and not weights.flags.writeable
    assert math.fsum(weights) == pytest.approx(1.0, rel=1e-13)


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
