import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beckner import numerics
from beckner.errors import DomainError, NonConvergence
from beckner.measures import CauchyMeasure
from beckner.numerics import (Estimate, MonteCarloConfig, QuadratureConfig,
                              angular_rule, integrate_interval,
                              integrate_radial, integrate_rd, mc_estimate,
                              pairwise_sum, pooled, spawn_rngs, substreams)
from oracles import fd_derivative, trig_cauchy_mp


def test_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(DomainError):
        MonteCarloConfig(n_samples=0)
    with pytest.raises(DomainError, match="seed"):
        MonteCarloConfig(seed=-1)
    with pytest.raises(DomainError):
        Estimate(1.0, -1.0, 3)
    with pytest.raises(DomainError):
        integrate_radial(lambda r: np.exp(-r), QuadratureConfig(), cutoff=-1.0)


def test_interval_polynomial_exact():
    # K15 integrates polynomials up to degree 29 exactly; a quintic is easy
    (est,) = integrate_interval(lambda x: 5 * x ** 4, 0.0, 2.0, QuadratureConfig())
    assert abs(est.value - 32.0) < 1e-12


def test_interval_oscillatory():
    (est,) = integrate_interval(np.cos, 0.0, 10.0, QuadratureConfig())
    assert abs(est.value - math.sin(10.0)) <= est.error_bound + 1e-13


def test_interval_nonconvergence():
    cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14, max_evals=150)
    with pytest.raises(NonConvergence):
        integrate_interval(lambda x: np.abs(x - math.pi / 10) ** 0.1, 0.0, 1.0, cfg)


def test_radial_gaussian_moment():
    # int_0^inf r^2 exp(-r^2) dr = sqrt(pi)/4
    (est,) = integrate_radial(lambda r: r ** 2 * np.exp(-r ** 2), QuadratureConfig(),
                              cutoff=1e6)
    assert abs(est.value - math.sqrt(math.pi) / 4) < 1e-12


def test_radial_heavy_tail():
    # int_0^inf dr/(1+r^2) = pi/2
    (est,) = integrate_radial(lambda r: 1.0 / (1.0 + r ** 2), QuadratureConfig(),
                              cutoff=1e6)
    # the truncation radius leaves a ~1e-6 analytic tail
    assert abs(est.value - math.pi / 2) < 2e-6


def _scalar_integral(f, a, b, config):
    """The adaptive G7/K15 integrator as it was before stacked integrands."""
    def panel(lo, hi):
        h = 0.5 * (hi - lo)
        y = np.asarray(f(lo + (numerics._GK_X + 1.0) * h), dtype=float)
        g7 = h * float(np.dot(numerics._GK_WG, y))
        k15 = h * float(np.dot(numerics._GK_WK, y))
        return k15, min((200.0 * abs(g7 - k15)) ** 1.5,
                        abs(g7 - k15) * 200.0 + numerics._EPS)

    edges = np.linspace(a, b, numerics.MIN_PANELS + 1)
    intervals = [(lo, hi, *panel(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])]
    n_evals = 15 * len(intervals)
    while True:
        total = math.fsum(iv[2] for iv in intervals)
        err = math.fsum(iv[3] for iv in intervals)
        tol = max(config.abs_tol, config.rel_tol * abs(total))
        if err <= tol:
            return Estimate(total, err, n_evals)
        cut = max(tol / (2 * len(intervals)), err / (4 * len(intervals)))
        fresh = []
        for lo, hi, val, e in intervals:
            if e > cut:
                mid = 0.5 * (lo + hi)
                fresh += [(lo, mid, *panel(lo, mid)), (mid, hi, *panel(mid, hi))]
                n_evals += 30
            else:
                fresh.append((lo, hi, val, e))
        intervals = fresh


_SCALAR_CASES = [(np.cos, 0.0, 10.0), (lambda x: np.abs(x - 0.3) ** 0.7, 0.0, 1.0),
                 (lambda x: np.exp(-x) / (1e-3 + (x - 1.3) ** 2), 0.0, 5.0)]


@pytest.mark.parametrize("f,a,b", _SCALAR_CASES)
def test_scalar_integrand_keeps_its_arithmetic(f, a, b):
    cfg = QuadratureConfig()
    (est,), ref = integrate_interval(f, a, b, cfg), _scalar_integral(f, a, b, cfg)
    assert type(est.value) is float and type(est.error_bound) is float
    assert (est.value, est.error_bound, est.n_evals) == (ref.value, ref.error_bound,
                                                          ref.n_evals)


@pytest.mark.parametrize("f,a,b", _SCALAR_CASES)
def test_one_column_stack_is_the_scalar_integral(f, a, b):
    # a 1-D integrand gives one float Estimate, bit for bit its (n, 1) column's
    cfg = QuadratureConfig()
    for integrate, g, args in ((integrate_interval, f, (a, b, cfg)),
                               (integrate_radial, lambda r: np.exp(-r) * f(r), (cfg, 100.0))):
        scalar, stack = integrate(g, *args), integrate(lambda x: g(x)[:, None], *args)
        assert len(scalar) == len(stack) == 1 and isinstance(scalar[0], Estimate)
        assert type(scalar[0].value) is float and type(scalar[0].error_bound) is float
        assert scalar == stack and scalar.n_evals == scalar[0].n_evals


def test_stack_components_meet_their_own_tolerance():
    # an absolute tolerance far below both values makes each component's
    # tolerance relative, so the 1e-6 copy and the peak each set their own
    cfg = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-10)
    parts = [lambda x: np.exp(-x) * np.cos(7 * x), lambda x: 1e-6 * np.exp(-x) * np.cos(7 * x),
             lambda x: 1e-2 / (1e-4 + (x - 1.3) ** 2)]
    ests = integrate_interval(lambda x: np.stack([g(x) for g in parts], axis=1), 0.0, 5.0, cfg)
    assert len(ests) == 3 and ests.n_evals % 15 == 0
    for est, g in zip(ests, parts):
        assert est.error_bound <= max(cfg.abs_tol, cfg.rel_tol * abs(est.value))
        (alone,) = integrate_interval(g, 0.0, 5.0, cfg)
        assert abs(est.value - alone.value) <= est.error_bound + alone.error_bound


def test_stack_nonconvergence():
    cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14, max_evals=150)
    with pytest.raises(NonConvergence):
        integrate_interval(lambda x: np.stack([x, np.abs(x - math.pi / 10) ** 0.1], axis=1),
                           0.0, 1.0, cfg)


def test_stacked_radial_integral():
    # int_0^inf r^j exp(-r) dr = j! for j = 0, 1, 2
    ests = integrate_radial(lambda r: np.stack([r ** j * np.exp(-r) for j in range(3)],
                                               axis=1), QuadratureConfig(), cutoff=1e3)
    assert all(isinstance(e, Estimate) for e in ests) and ests.n_evals > 0
    np.testing.assert_allclose([e.value for e in ests], [1.0, 1.0, 2.0], rtol=0, atol=1e-12)
    assert all(e.error_bound <= 1e-10 * max(1.0, e.value) for e in ests)


@pytest.mark.parametrize("d,area", [(1, 2.0), (2, 2 * math.pi), (3, 4 * math.pi)])
def test_angular_rule_weights(d, area):
    for order in (8, 16, 32, 64, 128):
        nodes, w = angular_rule(d, order)
        size = {1: 2, 2: order, 3: order * order // 2}[d]
        assert nodes.shape == (size, d) and w.shape == (size,)
        assert abs(w.sum() - area) < 1e-12
        assert np.allclose(np.linalg.norm(nodes, axis=1), 1.0)
        # built once per (d, order) and shared, so callers cannot mutate it
        again = angular_rule(d, order)
        assert again[0] is nodes and again[1] is w
        assert not nodes.flags.writeable and not w.flags.writeable
        if d == 2:   # the rule of half the order is every other node: a pair costs nothing
            np.testing.assert_array_equal(nodes[::2], angular_rule(2, order // 2)[0])


def test_angular_rule_d4_unsupported():
    with pytest.raises(DomainError):
        angular_rule(4, 16)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_full_space_gaussian(d):
    # the Gaussian as the radial density, applied once per radius
    (est,) = integrate_rd(lambda pts: np.ones(len(pts)), lambda r2: -r2, d,
                          QuadratureConfig(), cutoff=15.0)
    assert abs(est.value - math.pi ** (d / 2.0)) < 1e-9


def _fixed_rd(g, log_density, d, config, cutoff, order):
    """``integrate_rd`` at one angular order and without an angular term:
    the reduction as it was before each panel chose its order."""
    nodes, w = angular_rule(d, order)

    def radial(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        pts = r[:, None, None] * nodes[None, :, :]
        vals = np.asarray(g(pts.reshape(-1, d)), dtype=float).reshape(len(r), -1)
        return (r ** (d - 1) * np.exp(log_density(r * r))) * (vals @ w)

    return integrate_radial(radial, config, cutoff)


def _bump(pts):
    return 1.0 + np.exp(-np.sum((pts - 0.3) ** 2, axis=1))


def _radial_bump(pts):
    return 1.0 + np.exp(-np.sum(pts * pts, axis=1))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_rd_scalar_and_one_column_stack_keep_the_arithmetic(d):
    nu, cfg = CauchyMeasure(d, d + 2.0), QuadratureConfig()
    cutoff = nu.truncation(cfg.abs_tol, 0.0, 2.0)[0]
    # a radial g stays at order 8 on every panel: the value is that rule's,
    # and the bound adds only the rounding of its pair
    (ref,) = _fixed_rd(_radial_bump, nu.log_density, d, cfg, cutoff, 8)
    (est,) = integrate_rd(_radial_bump, nu.log_density, d, cfg, cutoff)
    assert type(est.value) is float and est.value == ref.value
    assert ref.error_bound <= est.error_bound <= ref.error_bound + 1e-14
    # each radius evaluates order 8, and at d = 3 also order 4, whose polar
    # nodes differ; the reference counts radii
    assert est.n_evals == ref.n_evals * {1: 2, 2: 8, 3: 32 + 8}[d]
    # a 1-D g gives one float Estimate, bit for bit its (n, 1) column's, with
    # either shape of log-density
    scalar = integrate_rd(_bump, nu.log_density, d, cfg, cutoff)
    assert len(scalar) == 1 and isinstance(scalar[0], Estimate)
    assert type(scalar[0].value) is float and type(scalar[0].error_bound) is float
    for log_density in (nu.log_density, lambda r2: nu.log_density(r2)[:, None]):
        column = integrate_rd(lambda p: _bump(p)[:, None], log_density, d, cfg, cutoff)
        assert column == scalar and column.n_evals == scalar[0].n_evals


@pytest.mark.parametrize("d", [1, 2, 3])
def test_rd_stack_weights_each_component_by_its_own_density(d):
    nus, cfg = [CauchyMeasure(d, d / 2.0 + 1.5), CauchyMeasure(d, d / 2.0 + 4.0)], QuadratureConfig()
    cutoff = max(nu.truncation(cfg.abs_tol, 0.0, 2.0)[0] for nu in nus)
    parts = [_bump, lambda p: np.cos(p[:, 0])]
    points = []

    def g(p):
        points.append(len(p))
        return np.stack([part(p) for part in parts], axis=1)

    stack = integrate_rd(g, lambda r2: np.stack([nu.log_density(r2) for nu in nus], axis=1),
                         d, cfg, cutoff)
    # n_evals counts the points at which g was evaluated
    assert stack.n_evals == sum(points)
    for est, part, nu in zip(stack, parts, nus):
        (alone,) = integrate_rd(part, nu.log_density, d, cfg, cutoff)
        assert abs(est.value - alone.value) <= est.error_bound + alone.error_bound
    # the two densities differ, so each column saw its own weight
    (mixed,) = integrate_rd(parts[0], nus[1].log_density, d, cfg, cutoff)
    assert abs(stack[0].value - mixed.value) > 1e-3


def _points_per_radius(g, log_density, d, cutoff):
    """The number of points at which ``integrate_rd`` evaluates g on each of
    its radii, and those radii."""
    seen = []

    def spy(p):
        seen.append(np.linalg.norm(p, axis=1))
        return g(p)

    integrate_rd(spy, log_density, d, QuadratureConfig(), cutoff)
    return np.unique(np.round(np.concatenate(seen), 8), return_counts=True)


@pytest.mark.parametrize("d", [2, 3])
def test_rd_raises_the_angular_order_only_where_g_needs_it(d):
    nu = CauchyMeasure(d, d / 2.0 + 1.5)
    # a radial g meets every share at order 8 (and its pair, order 4)
    radii, counts = _points_per_radius(_radial_bump, nu.log_density, d, 200.0)
    assert set(counts) == {{2: 8, 3: 32 + 8}[d]}
    # cos(y_1 + ... + y_d) oscillates faster with the radius: order 128
    # far out, lower orders near the origin
    trig = lambda p: np.cos(np.sum(p, axis=1))
    radii, counts = _points_per_radius(trig, nu.log_density, d, 200.0)
    top = {2: 128, 3: 128 * 64}[d]
    assert counts[radii > 10.0].min() >= top
    assert counts[radii < 0.3].max() < top / 4


def test_rd_stack_columns_carry_their_own_angular_terms():
    # one subdivision and one order per panel, but each column's bound adds
    # only its own angular terms: the radial column's stay at rounding level
    nu, cfg = CauchyMeasure(2, 2.0), QuadratureConfig()
    trig = lambda p: np.cos(np.sum(p, axis=1))
    column, trig_column = integrate_rd(lambda p: np.stack([_radial_bump(p), trig(p)], axis=1),
                                       nu.log_density, 2, cfg, 200.0)
    (radial,) = integrate_rd(_radial_bump, nu.log_density, 2, cfg, 200.0)
    (wave,) = integrate_rd(trig, nu.log_density, 2, cfg, 200.0)
    assert column.error_bound <= 2 * max(cfg.abs_tol, cfg.rel_tol * abs(column.value))
    assert trig_column.error_bound > 1e4 * column.error_bound
    assert abs(column.value - radial.value) <= column.error_bound + radial.error_bound
    assert abs(trig_column.value - wave.value) <= trig_column.error_bound + wave.error_bound


@pytest.mark.parametrize("d,widest", [(2, 128), (3, 128 * 64 + 64 * 32)])
def test_rd_call_batch_splits_panels_into_runs_of_radii(d, widest):
    # a call takes at most ``batch`` points, or one radius of a panel's
    # nodes (at most ``widest``, a new order-128 panel): the same points are
    # evaluated, and each run's angular sums are those of its radii
    nu, cfg = CauchyMeasure(d, 2.5), QuadratureConfig()

    def g(p):
        calls.append(len(p))
        return np.stack([np.cos(np.sum(p, axis=1)), _radial_bump(p)], axis=1)

    calls = []
    whole = integrate_rd(g, nu.log_density, d, cfg, 30.0)
    assert max(calls) > 100
    calls = []
    runs = integrate_rd(g, nu.log_density, d, cfg, 30.0, batch=100)
    assert all(n <= max(100, widest) for n in calls) and min(calls) <= 100
    for a, b in zip(whole, runs):
        assert a.n_evals == b.n_evals
        assert a.value == pytest.approx(b.value, rel=1e-13, abs=1e-15)
        # (a bound at rounding level moves with the last bits of the sums)
        assert a.error_bound == pytest.approx(b.error_bound, rel=1e-6, abs=1e-13)


@pytest.mark.parametrize("d,b,cutoff", [(2, 3.0, 30.0), (3, 2.5, 20.0),
                                         (2, 2.0, 100.0), (3, 3.0, 100.0)])
def test_rd_bound_holds_against_the_closed_form_angular_mean(d, b, cutoff):
    # cos(y_1 + ... + y_d) has a closed-form mean on every sphere
    cfg = QuadratureConfig()
    (est,) = integrate_rd(lambda p: np.cos(np.sum(p, axis=1)), CauchyMeasure(d, b).log_density,
                          d, cfg, cutoff)
    error = abs(est.value - trig_cauchy_mp(d, b, cutoff))
    assert error <= est.error_bound
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(est.value))
    if cutoff < 50.0:   # every panel met its angular share
        assert est.error_bound <= 2.0 * tol
    else:   # beyond r = 100/sqrt(d) order 128 misses: only the angular terms cover it
        assert error > 100.0 * tol


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


def test_pooled_concatenates_in_stream_order():
    cfg = MonteCarloConfig(n_samples=10, seed=5, n_streams=4)
    ref = [g.standard_normal(n) for g, n in zip(spawn_rngs(5, 4), (3, 3, 2, 2))]
    assert np.array_equal(pooled(lambda rng, n: rng.standard_normal(n), cfg),
                          np.concatenate(ref))
    # a tuple draw is pooled componentwise, each component along its first axis
    sizes, pts = pooled(lambda rng, n: (np.full(n, n), rng.standard_normal((n, 2))), cfg)
    assert sizes.tolist() == [3, 3, 3, 3, 3, 3, 2, 2, 2, 2] and pts.shape == (10, 2)


@given(st.lists(st.floats(-1e6, 1e6), max_size=200))
@settings(max_examples=50, deadline=None)
def test_pairwise_sum_close_to_fsum(vals):
    assert pairwise_sum(vals) == pytest.approx(math.fsum(vals), abs=1e-6)


def test_pairwise_sum_deterministic_order():
    vals = [1e16, 1.0, -1e16, 1.0]
    assert pairwise_sum(vals) == pairwise_sum(list(vals))


def test_mc_estimate_normal_mean():
    (est,) = mc_estimate(lambda rng, n: rng.standard_normal(n),
                         MonteCarloConfig(n_samples=40_000, seed=3))
    assert est.kind == "monte-carlo"
    assert type(est.value) is float and type(est.error_bound) is float
    assert abs(est.value) < 4.0 * est.error_bound
    assert est.error_bound == pytest.approx(1.0 / math.sqrt(40_000), rel=0.1)


def test_mc_estimate_seed_reproducible():
    cfg = MonteCarloConfig(n_samples=10_000, seed=11)
    e1 = mc_estimate(lambda rng, n: rng.standard_normal(n), cfg)
    e2 = mc_estimate(lambda rng, n: rng.standard_normal(n), cfg)
    assert e1 == e2
    # a 1-D draw is one float Estimate, bit for bit its (n, 1) column's
    column = mc_estimate(lambda rng, n: rng.standard_normal(n)[:, None], cfg)
    assert len(e1) == 1 and column == e1 and e1.n_evals == 10_000
