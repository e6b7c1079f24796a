import math
from functools import lru_cache

import numpy as np
import pytest

from beckner.errors import DomainError
from beckner import measures, numerics
from beckner.fields import (DifferentiableField, constant, gaussian_bump, grad_norm_squared,
                            make_power_of_rho, positive_bump, quadratic, standard_library,
                            trig)
from beckner.measures import TKernel
from beckner.numerics import Estimate, MonteCarloConfig, QuadratureConfig, pooled
from beckner import qtm
from beckner.qtm import (QtmField, biharmonic, harmonicity_residual,
                         moment_identity_gap, qtm_mc, qtm_quadrature,
                         qtm_subordinated, taylor_remainder_order)
from oracles import cauchy_mean_mp, extension_bump_mp, fd_derivative, half_space_operator_fd


def exact_quadratic_extension(m, d, t, x):
    """Extension of |y|^2: |x|^2 + t^2 d/(m-2)."""
    return float(np.sum(np.asarray(x) ** 2)) + t ** 2 * d / (m - 2.0)


def test_constant_fixed_point():
    p = TKernel(2, 6.0, 1.3, (0.4, -0.2))
    one = constant(1.0, 2)
    (s,) = qtm_subordinated(one, [p])
    for est in (qtm_quadrature(one, p), s):
        assert est.value == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("t,x0", [(1.0, 0.0), (0.5, 0.3)])
def test_mass_error_within_bound(d, t, x0):
    one = standard_library(d)["one"]
    est = qtm_quadrature(one, TKernel(d, 6.0, t, (x0,) * d))
    assert abs(est.value - 1.0) <= est.error_bound


@lru_cache(maxsize=None)
def _long_wave_mean():
    """E cos(a z), a = pi/2000, under CauchyMeasure(1, 2), whose density is
    (2/pi)(1 + z^2)^-2, by mpmath at 30 digits: panels of z up to R = 4e4, then
    z = R/u on (0, 1]; (1 + a) e^-a in closed form."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        a, R = mp.pi / 2000, 40000
        f = lambda z: mp.cos(a * z) / (1 + z ** 2) ** 2
        val = 4 / mp.pi * (mp.quad(f, mp.linspace(0, R, 41))
                           + mp.quad(lambda u: f(R / u) * R / u ** 2, mp.linspace(0, 1, 41)))
        assert abs(val - (1 + a) * mp.exp(-a)) < 1e-18
        return float(val)


def test_long_wave_cosine_has_growth_zero():
    # two samples of cos(pi y/2000) read growth 6, and the quadrature raised
    # DomainError: integrand growth defeats the tail decay
    est = qtm_quadrature(trig([math.pi / 2000], 1), TKernel(1, 3.0, 1.0, (0.0,)))
    assert abs(est.value - _long_wave_mean()) <= 1e-9


@pytest.mark.xfail(strict=True, reason="G7/K15 error estimate (200|K-G|)^1.5 is not "
                   "relative to the panel's size: claims 3.9e-11, off by 3.3e-10")
def test_long_wave_cosine_within_bound():
    est = qtm_quadrature(trig([math.pi / 2000], 1), TKernel(1, 3.0, 1.0, (0.0,)))
    assert abs(est.value - _long_wave_mean()) <= est.error_bound


@pytest.mark.parametrize("d", [1, 2, 3])
def test_extension_of_one_is_one(d):
    G = QtmField(standard_library(d)["one"], 6.0, d)
    assert abs(G.value([0.3] * d + [0.7]) - 1.0) <= 1e-9


def test_t_zero_is_rejected():
    # Q_0 is the identity, but a kernel needs t > 0: no path special-cases t = 0
    with pytest.raises(DomainError):
        TKernel(1, 6.0, 0.0, (0.3,))


@pytest.mark.parametrize("m,d,t,x", [(6.0, 1, 1.0, (0.0,)),
                                     (8.0, 2, 0.5, (0.3, -0.1)),
                                     (7.0, 3, 1.2, (0.0, 0.2, 0.1))])
def test_quadratic_extension_all_paths(m, d, t, x):
    f = quadratic(d)
    p = TKernel(d, m, t, x)
    exact = exact_quadratic_extension(m, d, t, x)
    q = qtm_quadrature(f, p)
    (s,) = qtm_subordinated(f, [p])
    assert q.value == pytest.approx(exact, abs=max(1e-9, 10 * q.error_bound))
    assert s.value == pytest.approx(exact, abs=max(1e-8, 10 * s.error_bound))
    (mc,) = qtm_mc(f, [p], MonteCarloConfig(n_samples=200_000, seed=1))
    assert abs(mc.value - exact) < 4.0 * mc.error_bound


def test_mc_path_averages_kernel_draws():
    f = gaussian_bump(1.0, [0.3, 0.0], 2)
    p = TKernel(2, 6.0, 0.7, (0.1, -0.2))
    cfg = MonteCarloConfig(n_samples=5001, seed=3)
    draws = pooled(p.draw, cfg)
    (mc,) = qtm_mc(f, [p], cfg)
    assert mc.value == pytest.approx(np.mean(f.value(draws)), rel=1e-12)


def test_crosspath_agreement_bump():
    f = positive_bump(1.0, [0.3], 1)
    p = TKernel(1, 6.0, 1.0, (0.0,))
    q = qtm_quadrature(f, p)
    (s,) = qtm_subordinated(f, [p])
    assert abs(q.value - s.value) <= q.error_bound + s.error_bound


# the qtm grid of the benchmark's numeric workload: positive_bump at x = 0
_QTM_GRID = [(m, t) for m in (6.0, 9.0) for t in (0.5, 1.0, 2.0)]


def _grid_kernels(d):
    return [TKernel(d, m, t, (0.0,) * d) for m, t in _QTM_GRID]


@lru_cache(maxsize=None)
def _bump_oracle(d, m, t):
    return extension_bump_mp(1.0, [0.3] * d, d, m, t, [0.0] * d)


@lru_cache(maxsize=None)
def _shared_pass(d):
    return qtm_subordinated(standard_library(d)["positive_bump"], _grid_kernels(d))


@lru_cache(maxsize=None)
def _stencil_pass(d):
    return harmonicity_residual(standard_library(d)["positive_bump"], _grid_kernels(d))


@pytest.mark.parametrize("m,t", _QTM_GRID)
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("path", ["quadrature", "subordination", "stencil"])
def test_bump_extension_within_bound_of_mpmath(path, d, m, t):
    # ROADMAP item 1: the deterministic paths against a closed-form oracle;
    # "stencil" is path 1's value from the shared harmonicity pass of one d
    if path == "quadrature":
        est = qtm_quadrature(standard_library(d)["positive_bump"],
                             TKernel(d, m, t, (0.0,) * d))
    elif path == "subordination":
        est = _shared_pass(d)[_QTM_GRID.index((m, t))]
    else:
        est, _ = _stencil_pass(d)[_QTM_GRID.index((m, t))]
    assert abs(est.value - _bump_oracle(d, m, t)) <= est.error_bound


# positive_bump at x = 0, t = 8: one-kernel subordination misses the oracle by
# 1.71x its bound at (d = 1, m = 3) and by 1.27x at (d = 2, m = 5)
_LARGE_T = [(1, 3.0), (2, 5.0)]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: at t = 8 both Gauss-Hermite "
                   "orders step over the field, so the rule-order term |hi - lo| "
                   "understates the error")
@pytest.mark.parametrize("d,m", _LARGE_T)
def test_subordination_within_bound_of_mpmath_at_large_t(d, m):
    (est,) = qtm_subordinated(standard_library(d)["positive_bump"],
                              [TKernel(d, m, 8.0, (0.0,) * d)])
    oracle = extension_bump_mp(1.0, [0.3] * d, d, m, 8.0, [0.0] * d)
    assert abs(est.value - oracle) <= est.error_bound


def _slow_field_case():
    """|grad f|^2 of f = (1+y^2)^{-1/2}, the kernel m - 2 = 4 of an m = 6
    extension row at t = 1.6, x = -0.3, and its mpmath value."""
    f = grad_norm_squared(make_power_of_rho(-1.0, 1))
    oracle = cauchy_mean_mp(lambda z: (1.6 * z - 0.3) ** 2 * (1 + (1.6 * z - 0.3) ** 2) ** -3,
                            2.5, breaks=(-10.0, 0.1875, 10.0))
    return f, TKernel(1, 4.0, 1.6, (-0.3,)), oracle


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: the rule-order term |hi - lo| "
                   "also understates the error on a slowly decaying field at t = 1.6 "
                   "(1.03 times the bound)")
def test_subordination_within_bound_of_mpmath_on_a_slow_field():
    f, kernel, oracle = _slow_field_case()
    (est,) = qtm_subordinated(f, [kernel])
    assert abs(est.value - oracle) <= est.error_bound


def test_quadrature_within_bound_of_mpmath_on_a_slow_field():
    f, kernel, oracle = _slow_field_case()
    est = qtm_quadrature(f, kernel)
    assert abs(est.value - oracle) <= est.error_bound


@pytest.mark.parametrize("d,m", _LARGE_T)
def test_quadrature_within_bound_of_mpmath_at_large_t(d, m):
    # path 1 holds at the kernels where subordination does not
    est = qtm_quadrature(standard_library(d)["positive_bump"], TKernel(d, m, 8.0, (0.0,) * d))
    oracle = extension_bump_mp(1.0, [0.3] * d, d, m, 8.0, [0.0] * d)
    assert abs(est.value - oracle) <= est.error_bound


@pytest.mark.parametrize("d", [1, 2])
def test_shared_pass_matches_one_kernel_passes(d):
    f = standard_library(d)["positive_bump"]
    for k, shared in zip(_grid_kernels(d), _shared_pass(d)):
        (alone,) = qtm_subordinated(f, [k])
        assert abs(shared.value - alone.value) <= shared.error_bound + alone.error_bound


@pytest.mark.parametrize("d", [1, 2])
def test_wide_t_grid_is_resolved(d):
    # t_max / t_min = 200: in one shared variable the t = 2 weight would sit
    # below the first panel's nodes and integrate to 0, so it takes its own pass
    f = standard_library(d)["positive_bump"]
    kernels = [TKernel(d, 6.0, t, (0.0,) * d) for t in (2.0, 0.01)]
    for k, shared in zip(kernels, qtm_subordinated(f, kernels)):
        oracle = extension_bump_mp(1.0, [0.3] * d, d, 6.0, k.t, [0.0] * d)
        assert abs(shared.value - oracle) <= shared.error_bound
        (alone,) = qtm_subordinated(f, [k])
        assert abs(shared.value - alone.value) <= shared.error_bound + alone.error_bound


def test_passes_split_at_the_t_spread(monkeypatch):
    passes = []
    radial = qtm.integrate_radial

    def counted(integrand, cfg, cutoff):
        est = radial(integrand, cfg, cutoff)
        passes.append(len(est) // 2)
        return est

    monkeypatch.setattr(qtm, "integrate_radial", counted)
    f = standard_library(1)["positive_bump"]
    ts = (0.5, 2.0, 0.01, 0.04, 2.01)
    ests = qtm_subordinated(f, [TKernel(1, 6.0, t, (0.0,)) for t in ts])
    # sorted by t: {0.01, 0.04}, {0.5, 2.0}, {2.01}
    assert passes == [2, 2, 1] and len(ests) == len(ts)


@pytest.mark.parametrize("n_kernels", [1, 6])
def test_heat_rule_runs_twice_per_panel(monkeypatch, n_kernels):
    calls = {"heat": 0, "panel": 0}
    heat, panel = qtm._heat_value, numerics._gk_panel

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(qtm, "_heat_value", counted("heat", heat))
    monkeypatch.setattr(numerics, "_gk_panel", counted("panel", panel))
    ests = qtm_subordinated(standard_library(1)["positive_bump"],
                            _grid_kernels(1)[:n_kernels])
    assert len(ests) == n_kernels and calls["panel"] > 0
    assert calls["heat"] == 2 * calls["panel"]
    # every kernel reports the shared pass's evaluations: 15 per panel per rule node
    orders = qtm._HERMITE_ORDER[1] + qtm._HERMITE_ORDER_LO[1]
    assert all(e.n_evals == 15 * calls["panel"] * orders for e in ests)


@pytest.mark.parametrize("name", ["qtm_subordinated", "harmonicity_residual", "qtm_mc"])
def test_kernel_pass_needs_one_d_and_one_x(name):
    # each pass takes a nonempty sequence of kernels with one d and one x;
    # Monte Carlo kernels share their draws, so they also need one m
    f, run = standard_library(1)["positive_bump"], getattr(qtm, name)
    if name == "qtm_mc":
        run = lambda f, kernels: qtm_mc(f, kernels, MonteCarloConfig(1000, seed=0))
    k = TKernel(1, 6.0, 1.0, (0.0,))
    assert len(run(f, [k])) == 1
    for kernels in ([], [k, TKernel(2, 6.0, 1.0, (0.0, 0.0))], [k, TKernel(1, 6.0, 1.0, (0.1,))]):
        with pytest.raises(DomainError, match="kernel"):
            run(f, kernels)
    other_m = [k, TKernel(1, 9.0, 2.0, (0.0,))]
    if name == "qtm_mc":
        with pytest.raises(DomainError, match="kernel"):
            run(f, other_m)
    else:
        assert len(run(f, other_m)) == 2


def test_index_guard():
    with pytest.raises(DomainError):
        TKernel(1, 0.0, 1.0, (0.0,))
    with pytest.raises(DomainError):
        TKernel(1, 6.0, -1.0, (0.0,))
    with pytest.raises(DomainError, match="coordinates"):
        TKernel(6.0, 1, 1.0, (0.0,))  # (m, d) in the wrong order


def test_qtm_field_partials_match_fd():
    f = positive_bump(1.0, [0.3], 1)
    G = QtmField(f, 6.0, 1)
    pt = np.array([0.2, 0.8])  # (x, t)

    def g(p):
        return qtm_quadrature(f, TKernel(1, 6.0, float(p[1]), (float(p[0]),)),
                              QuadratureConfig(1e-12, 1e-12)).value

    for alpha in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]:
        fd = fd_derivative(g, pt, alpha, step=5e-3)
        assert G.partial(alpha, pt) == pytest.approx(fd, abs=2e-4)


def test_qtm_field_partials_are_its_partial():
    G = QtmField(positive_bump(1.0, [0.3], 1), 6.0, 1)
    pt = np.array([0.2, 0.8])
    jet = G.partials(pt, 2)
    assert set(jet) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}
    assert all(jet[alpha] == G.partial(alpha, pt) for alpha in jet)


def test_qtm_field_partials_take_one_point():
    G = QtmField(positive_bump(1.0, [0.3], 1), 6.0, 1)
    with pytest.raises(DomainError):
        G.partials(np.array([[0.2, 0.8], [0.1, 0.5]]), 1)


def test_qtm_field_rejects_boundary():
    G = QtmField(positive_bump(1.0, [0.0], 1), 6.0, 1)
    with pytest.raises(DomainError):
        G.partial((1, 0), [0.0, 0.0])


def test_harmonicity_bump():
    f = positive_bump(1.0, [0.3] * 2, 2)
    ((_, res),) = harmonicity_residual(f, [TKernel(2, 6.0, 1.0, (0.0, 0.0))])
    assert abs(res.value) < 1e-4


def test_harmonicity_analytic_extension():
    # F(x,t) = |x|^2 + t^2 d/(m-2) solves the half-space equation exactly
    m, d = 6.0, 2

    def F(p):
        p = np.atleast_1d(p)
        return float(np.sum(p[:-1] ** 2) + p[-1] ** 2 * d / (m - 2.0))

    res = half_space_operator_fd(F, d, m, np.array([0.3, -0.2, 1.0]))
    assert abs(res) < 1e-12


def _reference_residual(f, p, cfg):
    """The reference stencil on separate quadratures of Q_t f at its points:
    the residual and its propagated budget sum_k |c_k| err_k."""
    ests = {}

    def G(pt):
        key = tuple(np.atleast_1d(pt).tolist())
        if key not in ests:
            ests[key] = qtm_quadrature(f, TKernel(p.d, p.m, key[-1], key[:-1]), cfg)
        return ests[key].value

    point = np.append(p.center, p.t)
    value = half_space_operator_fd(G, p.d, p.m, point, step=5e-3)
    # the stencil is linear: c_k is the reference applied to the indicator of point k
    weights = {key: half_space_operator_fd(
        lambda q, key=key: float(tuple(np.atleast_1d(q).tolist()) == key),
        p.d, p.m, point, step=5e-3) for key in ests}
    return value, sum(abs(weights[k]) * est.error_bound for k, est in ests.items())


@pytest.mark.parametrize("t", [0.05, 0.7, 1.0, 2.0])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("name", ["positive_bump", "gaussian_bump"])
def test_harmonicity_matches_reference_stencil(name, d, t):
    # a two-m group at one t: each kernel's residual takes its own c_1 = (1-m)/(2ht)
    f = standard_library(d)[name]
    kernels = [TKernel(d, m, t, (0.1,) * d) for m in (6.0, 9.0)]
    for p, (_, est) in zip(kernels, harmonicity_residual(f, kernels)):
        ref, budget = _reference_residual(f, p, QuadratureConfig(1e-12, 1e-12))
        assert abs(est.value - ref) <= budget + est.error_bound


@pytest.mark.parametrize("t", [0.05, 0.7, 1.0, 2.0])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("name", ["one", "quadratic"])
def test_harmonicity_exact_on_polynomial_extensions(name, d, t):
    # Q_t 1 = 1 and Q_t |y|^2 = |x|^2 + t^2 d/(m-2): the stencil is exact on both
    ((_, est),) = harmonicity_residual(standard_library(d)[name],
                                       [TKernel(d, 6.0, t, (0.1,) * d)])
    assert abs(est.value) <= est.error_bound


def _forbid_qtm_quadrature(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("harmonicity_residual called qtm_quadrature")

    monkeypatch.setattr(qtm, "qtm_quadrature", forbidden)


def _count_passes(monkeypatch):
    """Spy on ``integrate_rd`` as the measures module calls it: the number of
    components of each pass."""
    passes = []
    integrate = measures.integrate_rd

    def counted(*args, **kwargs):
        est = integrate(*args, **kwargs)
        passes.append(len(est))
        return est

    monkeypatch.setattr(measures, "integrate_rd", counted)
    return passes


def test_harmonicity_is_one_integral(monkeypatch):
    passes = _count_passes(monkeypatch)
    _forbid_qtm_quadrature(monkeypatch)
    ((value, res),) = harmonicity_residual(standard_library(2)["positive_bump"],
                                           [TKernel(2, 6.0, 0.7, (0.1, 0.1))])
    assert passes == [2] and isinstance(value, Estimate) and isinstance(res, Estimate)


def test_harmonicity_takes_one_pass_per_t(monkeypatch):
    passes = _count_passes(monkeypatch)
    _forbid_qtm_quadrature(monkeypatch)
    kernels = [TKernel(1, m, t, (0.0,)) for m in (6.0, 9.0) for t in (0.5, 1.0, 2.0)]
    pairs = harmonicity_residual(standard_library(1)["positive_bump"], kernels)
    # two kernels per t, each a value and a residual component
    assert passes == [4, 4, 4] and len(pairs) == len(kernels)


@pytest.mark.parametrize("ms", [(6.0,), (6.0, 9.0)], ids=["one-kernel", "two-kernels"])
@pytest.mark.parametrize("d", [1, 2])
def test_harmonicity_evaluates_each_stencil_point_once_per_panel(monkeypatch, d, ms):
    # each call of the pass's integrand evaluates f once per stencil point,
    # on the whole batch of that call
    batches, calls, inside = [], [], []
    value, rd = DifferentiableField.value, measures.integrate_rd

    def counted_value(self, points):
        if inside:
            calls.append(len(np.atleast_2d(points)))
        return value(self, points)

    def counted_rd(g, *args, **kwargs):
        def spy(z):
            batches.append(len(z))
            inside.append(True)
            try:
                return g(z)
            finally:
                inside.pop()
        return rd(spy, *args, **kwargs)

    monkeypatch.setattr(DifferentiableField, "value", counted_value)
    monkeypatch.setattr(measures, "integrate_rd", counted_rd)
    _forbid_qtm_quadrature(monkeypatch)
    kernels = [TKernel(d, m, 0.7, (0.1,) * d) for m in ms]
    pairs = harmonicity_residual(standard_library(d)["positive_bump"], kernels)
    assert len(pairs) == len(ms) and batches
    assert calls == [n for n in batches for _ in range(2 * d + 5)]
    assert all(e.n_evals == (2 * d + 5) * sum(batches) for pair in pairs for e in pair)


@pytest.mark.parametrize("t", [0.0, 0.005, 0.01])
def test_harmonicity_stencil_must_stay_above_boundary(t):
    with pytest.raises(DomainError):
        harmonicity_residual(standard_library(1)["positive_bump"],
                             [TKernel(1, 6.0, 1.0, (0.0,)), TKernel(1, 6.0, t, (0.0,))])


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
    rep = moment_identity_gap(g, 1.0, TKernel(1, 6.0, 1.0, (0.0,)))
    assert rep.gap_quadrature / abs(rep.rhs) < 1e-6
    assert rep.gap_mc < 3.0 * rep.mc_sigma


def test_moment_identity_p_guard():
    g = constant(1.0, 1)
    with pytest.raises(DomainError):
        moment_identity_gap(g, 4.0, TKernel(1, 6.0, 1.0, (0.0,)))


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
