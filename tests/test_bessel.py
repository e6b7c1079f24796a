import math

import numpy as np
import pytest

from beckner.bessel import BesselSimConfig, dynkin_check, simulate_joint_paths
from beckner.errors import DomainError, Inconclusive
from beckner.fields import positive_bump
from beckner.measures import HittingTimeLaw
from beckner.numerics import MonteCarloConfig, pooled, spawn_rngs
from oracles import extension_bump_mp


def pooled_times(cfg, mc):
    """Hitting times and hit flags of ``simulate_joint_paths`` pooled over the
    substreams of ``mc``."""
    return pooled(lambda rng, n: simulate_joint_paths(cfg, rng, n, 0, ())[1:], mc)


def test_config_validation():
    with pytest.raises(DomainError):
        BesselSimConfig(m=-1.0, t0=1.0)
    for switch in (0.0, 1.0):
        with pytest.raises(DomainError):
            BesselSimConfig(m=6.0, t0=1.0, switch=switch)
    with pytest.raises(DomainError):
        BesselSimConfig(m=6.0, t0=0.01, dt=1.0)


def test_paths_absorb_for_large_m():
    cfg = BesselSimConfig(m=6.0, t0=0.5, dt=5e-4)
    rng = spawn_rngs(0, 1)[0]
    _, times, hit = simulate_joint_paths(cfg, rng, 2000, 0, ())
    assert hit.mean() > 0.999
    assert np.all(times[hit] < cfg.max_time)


def test_radial_paths_pinned():
    # the radial stream at a fixed seed, with hits and non-hits; it fixes the
    # hitting-time samples that the pooled tests draw.  The switch
    # level sits at 1e-3, so each hit is finished by a tail of ~1e-7
    cfg = BesselSimConfig(m=3.0, t0=0.5, dt=5e-4, max_time=0.1, switch=2e-3)
    _, times, hit = simulate_joint_paths(cfg, spawn_rngs(7, 1)[0], 500, 0, ())
    assert times[:6].tolist() == [0.1, 0.1, 0.1, 0.06161713655113064,
                                  0.046980173008322496, 0.007189657263415618]
    assert hit[:6].tolist() == [False, False, False, True, True, True]
    assert int(hit.sum()) == 372


@pytest.mark.parametrize("d", [1, 3])
def test_hitting_times_do_not_depend_on_d(d):
    cfg = BesselSimConfig(m=3.0, t0=0.5, dt=5e-4, max_time=0.1)
    _, t0, h0 = simulate_joint_paths(cfg, spawn_rngs(7, 1)[0], 500, 0, ())
    pos, t, h = simulate_joint_paths(cfg, spawn_rngs(7, 1)[0], 500, d,
                                     np.zeros(d))
    assert pos.shape == (500, d)
    assert np.array_equal(t, t0) and np.array_equal(h, h0)


def test_exit_point_is_gaussian_given_hitting_time():
    stats = pytest.importorskip("scipy.stats")
    # X_S - x = sqrt(2 S) Z with Z ~ N(0, I_d) independent of S
    cfg = BesselSimConfig(m=6.0, t0=0.5, dt=5e-4)
    x = np.array([0.3, -1.0, 2.0])
    pos, times, hit = simulate_joint_paths(cfg, spawn_rngs(2, 1)[0], 2000, 3, x)
    z = (pos[hit] - x) / np.sqrt(2.0 * times[hit])[:, None]
    assert stats.kstest(z.ravel(), "norm").pvalue > 0.01
    # no correlation between |Z| and S
    assert abs(stats.spearmanr(times[hit], np.sum(z * z, axis=1))[0]) < 0.1


def test_joint_paths_reject_misshapen_start():
    cfg = BesselSimConfig(m=6.0, t0=0.5, dt=5e-4)
    with pytest.raises(DomainError):
        simulate_joint_paths(cfg, spawn_rngs(0, 1)[0], 10, 2, [0.0])
    with pytest.raises(DomainError):
        simulate_joint_paths(cfg, spawn_rngs(0, 1)[0], 10, 1, 0.0)


def test_empirical_mean_near_exact():
    # E S = t0^2 / (2(m-2)) = 0.125 for m=6, t0=1
    cfg = BesselSimConfig(m=6.0, t0=1.0, dt=2e-4)
    times, hit = pooled_times(cfg, MonteCarloConfig(8000, seed=3))
    mean = times[hit].mean()
    exact = HittingTimeLaw(6.0, 1.0).mean()
    se = times[hit].std(ddof=1) / np.sqrt(hit.sum())
    # the time quadrature above the switch level is biased; allow bias + noise
    assert abs(mean - exact) < 4 * se + 0.01


@pytest.mark.parametrize("m,dt", [(8.0, 2e-4), (3.0, 1e-3)])
def test_finished_times_follow_hitting_law(m, dt):
    stats = pytest.importorskip("scipy.stats")
    # clock steps down to the switch level, then the exact Gamma finish; the
    # times must follow the law of the first zero from t0.  At m = 3 the tail
    # of the time is heavy, but that of the clock time to the switch level is
    # not, so no path steps for long
    cfg = BesselSimConfig(m=m, t0=0.5, dt=dt)
    _, times, _ = simulate_joint_paths(cfg, spawn_rngs(0, 1)[0], 20_000, 0, ())
    law = HittingTimeLaw(m, 0.5)
    assert stats.kstest(times, law.cdf).pvalue > 0.01


def test_joint_paths_spatial_spread():
    cfg = BesselSimConfig(m=6.0, t0=1.0, dt=5e-4)
    rng = spawn_rngs(1, 1)[0]
    pos, times, hit = simulate_joint_paths(cfg, rng, 3000, 1, [0.0])
    # Var X_S = 2 E S = t0^2/(m-2) = 0.25
    v = np.var(pos[hit, 0])
    assert v == pytest.approx(0.25, rel=0.15)


def test_dynkin_identity():
    f = positive_bump(1.0, [0.3], 1)
    gap = dynkin_check(f, BesselSimConfig(m=6.0, t0=0.5, dt=2e-4),
                       15_000, seed=0)
    assert gap < 0.01


def test_dynkin_inconclusive_on_non_hits():
    # m = 1 < 2: the process is recurrent-slow; many paths miss the horizon
    f = positive_bump(1.0, [0.0], 1)
    cfg = BesselSimConfig(m=1.2, t0=1.0, dt=1e-3, max_time=0.2)
    with pytest.raises(Inconclusive):
        dynkin_check(f, cfg, 2000, seed=0)


def test_reproducible_streams():
    cfg = BesselSimConfig(m=6.0, t0=1.0, dt=1e-3)
    a = pooled_times(cfg, MonteCarloConfig(2000, seed=9))[0]
    b = pooled_times(cfg, MonteCarloConfig(2000, seed=9))[0]
    assert np.array_equal(a, b)


class CountingRng:
    """A generator that counts its calls for normal variates and the
    variates they draw."""

    def __init__(self, rng):
        self.rng, self.calls, self.normals = rng, 0, 0

    def _count(self, size):
        self.calls += 1
        self.normals += math.prod(size)

    def normal(self, loc, scale, size):
        self._count(size)
        return self.rng.normal(loc, scale, size)

    def standard_normal(self, size):
        self._count(size)
        return self.rng.standard_normal(size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_radial_work_is_bounded():
    # every path draws about log(1/switch)/(m dt) clock steps on average,
    # plus at most one partial block of 64.  While a block holds fewer than
    # 64 steps it draws over n_paths / 2 variates, so the calls stay few too;
    # a loop of one call per step would make one per step of the slowest
    # path, tens of thousands at m = 3
    cfg = BesselSimConfig(m=3.0, t0=0.5, dt=2e-4)
    n_paths = 5000
    rng = CountingRng(spawn_rngs(0, 1)[0])
    _, _, hit = simulate_joint_paths(cfg, rng, n_paths, 0, ())
    assert hit.mean() > 0.999
    per_path = math.log(1.0 / cfg.switch) / (cfg.m * cfg.dt) + 64
    assert rng.normals <= 1.25 * n_paths * per_path
    assert rng.calls <= 2 * per_path


@pytest.mark.parametrize("m,n_paths", [(3.0, 100_000), (6.0, 200_000), (8.0, 400_000)])
def test_time_quadrature_bias_within_noise(m, n_paths):
    # E P_S f(x) = Q_t f(x); with P_s f in closed form for the bump
    # 1 + exp(-|y - c|^2), the mean of P_S f(x) over the hits checks the law
    # of S alone; 4 se is 17 to 180 times tighter than the Dynkin check's
    # 0.02.  A left-point time sum, whose bias is first order in dt, misses
    # by 7.6 se at m = 8
    cfg = BesselSimConfig(m=m, t0=0.5, dt=2e-3)
    times, hit = pooled_times(cfg, MonteCarloConfig(n_paths, seed=0))
    c, x = 0.3, 0.0
    s = times[hit]
    p = 1.0 + np.exp(-(x - c) ** 2 / (1.0 + 4.0 * s)) / np.sqrt(1.0 + 4.0 * s)
    se = p.std(ddof=1) / math.sqrt(p.size)
    exact = extension_bump_mp(1.0, [c], 1, m, cfg.t0, [x])
    assert abs(p.mean() - exact) < 4.0 * se
