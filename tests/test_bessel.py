import numpy as np
import pytest

from beckner.bessel import (BesselSimConfig, dynkin_check,
                            empirical_hitting_times, simulate_joint_paths)
from beckner.errors import DomainError, Inconclusive
from beckner.fields import positive_bump
from beckner.measures import HittingTimeLaw
from beckner.numerics import MonteCarloConfig, spawn_rngs


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
    # hitting-time samples that empirical_hitting_times pools.  The switch
    # level sits at 1e-3, so each hit is finished by a tail of ~1e-7
    cfg = BesselSimConfig(m=3.0, t0=0.5, dt=5e-4, max_time=0.1, switch=2e-3)
    _, times, hit = simulate_joint_paths(cfg, spawn_rngs(7, 1)[0], 500, 0, ())
    assert times[:6].tolist() == [0.04316029370537421, 0.1, 0.1,
                                  0.04546054806709722, 0.03518986045168622,
                                  0.00790014909312537]
    assert hit[:6].tolist() == [True, False, False, True, True, True]
    assert int(hit.sum()) == 376


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
    times, hit = empirical_hitting_times(cfg, MonteCarloConfig(8000, seed=3))
    mean = times[hit].mean()
    exact = HittingTimeLaw(6.0, 1.0).mean()
    se = times[hit].std(ddof=1) / np.sqrt(hit.sum())
    # the Euler segment above the switch level is biased; allow bias + noise
    assert abs(mean - exact) < 4 * se + 0.01


@pytest.mark.parametrize("m,dt", [(8.0, 2e-4), (3.0, 1e-3)])
def test_finished_times_follow_hitting_law(m, dt):
    stats = pytest.importorskip("scipy.stats")
    # Euler steps down to the switch level, then the exact Gamma finish; the
    # pooled times must follow the law of the first zero from t0.  At m = 3
    # the heavy tail leaves a few paths stepping for tens of time units, so
    # a coarser dt keeps the test fast
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
    a = empirical_hitting_times(cfg, MonteCarloConfig(2000, seed=9))[0]
    b = empirical_hitting_times(cfg, MonteCarloConfig(2000, seed=9))[0]
    assert np.array_equal(a, b)
