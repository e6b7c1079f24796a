"""Pathwise simulation of the singular-drift process and its hitting time.

Euler-Maruyama for dY = sqrt(2) dW + ((1-m)/Y) ds with absorption at a small
threshold instead of an exact zero hit; near the origin the step size is
scaled down by min(1, Y^2) so the singular drift stays bounded per step.
Paths are vectorized over a whole batch and advanced until every path is
absorbed or the time horizon is reached.

The exit point of the joint process is x + B_S for a sqrt(2)-Brownian motion
B in R^d independent of Y, stopped at the hitting time S of Y.  Only Y is
stepped: conditionally on S, B_S is exactly N(0, 2 S I_d), so the exit point
is drawn once per path after the loop instead of being accumulated step by
step.  The draw is exact in law whatever the radial step, because the
stopping rule depends on the radial path alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, Inconclusive
from .fields import DifferentiableField
from .numerics import (MonteCarloConfig, QuadratureConfig, spawn_rngs,
                       substreams)
from .qtm import QtmParams, qtm_quadrature


@dataclass(frozen=True)
class BesselSimConfig:
    m: float
    t0: float
    dt: float = 1e-4
    max_time: float = 50.0
    absorption_eps: float = 1e-3

    def __post_init__(self):
        if self.m <= 0 or self.t0 <= 0 or self.dt <= 0:
            raise DomainError("m, t0 and dt must be positive")
        if self.absorption_eps >= self.t0:
            raise DomainError("absorption threshold must sit below the start")
        if self.dt > self.t0 ** 2:
            raise DomainError("dt must be small against t0^2")


def simulate_joint_paths(cfg: BesselSimConfig, rng, n_paths: int, d: int, x):
    """Exit points, hitting times and hit flags of ``n_paths`` joint paths.

    Only the radial path is stepped.  A path's stopping time ``stop`` is its
    hitting time S, or for a non-hit the accumulated time at the first step
    that reaches ``max_time``; the exit point is then drawn once as
    x + sqrt(2 stop) Z with Z ~ N(0, I_d), exact in law given ``stop`` (see
    the module docstring).  Returns (X_S, times, hit); ``times`` holds S
    where ``hit`` is True and ``max_time`` elsewhere, and non-hits are data,
    not errors.  ``times`` and ``hit`` do not depend on ``d``: the radial
    draws come first, and with d = 0 the final (n, 0) draw does not advance
    ``rng``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise DomainError(f"x must have shape ({d},), got {x.shape}")
    y = np.full(n_paths, cfg.t0)
    s = np.zeros(n_paths)
    idx = np.arange(n_paths)
    stop = np.empty(n_paths)
    hit = np.zeros(n_paths, dtype=bool)
    drift_c = 1.0 - cfg.m
    while idx.size:
        dt = cfg.dt * np.minimum(1.0, y * y)
        dw = rng.standard_normal(idx.size)
        y = y + drift_c / y * dt + np.sqrt(2.0 * dt) * dw
        s = s + dt
        absorbed = y <= cfg.absorption_eps
        done = absorbed | (s >= cfg.max_time)
        if done.any():
            hit[idx[absorbed]] = True
            stop[idx[done]] = s[done]
            keep = ~done
            y, s, idx = y[keep], s[keep], idx[keep]
    times = np.where(hit, stop, cfg.max_time)
    pos = x + np.sqrt(2.0 * stop)[:, None] * rng.standard_normal((n_paths, d))
    return pos, times, hit


def empirical_hitting_times(cfg: BesselSimConfig, mc: MonteCarloConfig):
    """Hitting times pooled over reproducible substreams."""
    runs = [simulate_joint_paths(cfg, rng, n, 0, ())[1:]
            for rng, n in substreams(mc)]
    return np.concatenate([t for t, _ in runs]), np.concatenate([h for _, h in runs])


def dynkin_check(f: DifferentiableField, cfg: BesselSimConfig, n_paths: int,
                 x=None, seed: int = 0,
                 quad_cfg: QuadratureConfig | None = None) -> float:
    """|pathwise average of f(X_S) - quadrature value of the extension|."""
    d = f.dim
    x = np.zeros(d) if x is None else np.atleast_1d(np.asarray(x, dtype=float))
    rng = spawn_rngs(seed, 1)[0]
    pos, _, hit = simulate_joint_paths(cfg, rng, n_paths, d, x)
    miss = 1.0 - hit.mean()
    if miss > 1e-3:
        raise Inconclusive(f"non-hit fraction {miss:.2e} exceeds 0.1%")
    avg = float(np.mean(f.value(pos[hit])))
    ref = qtm_quadrature(f, QtmParams(cfg.m, d, cfg.t0, tuple(x)),
                         quad_cfg or QuadratureConfig()).value
    return abs(avg - ref)


def richardson_hitting_mean(m: float, t0: float, mc: MonteCarloConfig,
                            dt: float = 1e-4,
                            eps_pair=(1e-3, 1e-4)):
    """Absorption-bias-corrected empirical mean hitting time.

    Linear Richardson extrapolation over the absorption threshold; returns
    (extrapolated mean, standard error of the finer run).
    """
    means = []
    se = 0.0
    for eps in eps_pair:
        cfg = BesselSimConfig(m=m, t0=t0, dt=dt, absorption_eps=eps)
        times, hit = empirical_hitting_times(cfg, mc)
        used = times[hit]
        means.append(float(np.mean(used)))
        se = float(np.std(used, ddof=1) / np.sqrt(len(used)))
    e0, e1 = eps_pair
    extrap = means[1] + (means[1] - means[0]) * e1 / (e0 - e1)
    return extrap, se
