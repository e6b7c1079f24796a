import numpy as np
import pytest
from scipy import stats

from beckner.bessel import (BesselSimConfig, dynkin_check,
                            empirical_hitting_times, richardson_hitting_mean,
                            simulate_joint_paths)
from beckner.errors import DomainError, Inconclusive
from beckner.fields import positive_bump
from beckner.measures import HittingTimeLaw
from beckner.numerics import MonteCarloConfig, spawn_rngs


def test_config_validation():
    with pytest.raises(DomainError):
        BesselSimConfig(m=-1.0, t0=1.0)
    with pytest.raises(DomainError):
        BesselSimConfig(m=6.0, t0=1.0, absorption_eps=2.0)
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
    # hitting-time samples that empirical_hitting_times pools
    cfg = BesselSimConfig(m=3.0, t0=0.5, dt=5e-4, max_time=0.1)
    _, times, hit = simulate_joint_paths(cfg, spawn_rngs(7, 1)[0], 500, 0, ())
    assert times[:6].tolist() == [0.04316018408094401, 0.1, 0.1,
                                  0.04546047401598205, 0.03518976937538922,
                                  0.007899858986513205]
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
    # absorption at eps > 0 biases the time downward; allow bias + noise
    assert abs(mean - exact) < 4 * se + 0.01


def test_richardson_reduces_bias():
    extrap, se = richardson_hitting_mean(6.0, 1.0,
                                         MonteCarloConfig(6000, seed=4),
                                         dt=2e-4, eps_pair=(5e-2, 5e-3))
    exact = HittingTimeLaw(6.0, 1.0).mean()
    assert abs(extrap - exact) < 4 * se + 0.005


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
