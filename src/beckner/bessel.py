"""Pathwise simulation of the singular-drift process and its hitting time.

Euler-Maruyama for dY = sqrt(2) dW + ((1-m)/Y) ds from Y = t0 down to a
switch level y* = switch * t0; the step size is scaled by min(1, Y^2) so the
singular drift stays bounded per step.  Below y* the path is finished
exactly: by the strong Markov property the time left from the crossing value
y is the hitting time from y, whose law is y^2/(4G) with G ~ Gamma(m/2)
(``HittingTimeLaw(m, y)``), so one Gamma draw per path replaces the steps
that would creep towards zero.  Paths are vectorized over a whole batch and
stepped until every path has crossed y* or reached the time horizon.

What the pathwise check still tests on its own is the Euler segment above
y*; the finishing law is the same Gamma identity that the exact hitting-time
sampler uses and that the KS check of the hitting-time law tests.

The exit point of the joint process is x + B_S for a sqrt(2)-Brownian motion
B in R^d independent of Y, stopped at the hitting time S of Y.  Only Y is
stepped: conditionally on S, B_S is exactly N(0, 2 S I_d), so the exit point
is drawn once per path after the finish instead of being accumulated step by
step.  The draw is exact in law whatever the radial step, because the
stopping rule depends on the radial path alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, Inconclusive
from .fields import DifferentiableField
from .measures import TKernel
from .numerics import MonteCarloConfig, QuadratureConfig, pooled, spawn_rngs
from .qtm import qtm_quadrature


@dataclass(frozen=True)
class BesselSimConfig:
    m: float
    t0: float
    dt: float = 1e-4
    max_time: float = 50.0
    switch: float = 0.5

    def __post_init__(self):
        if self.m <= 0 or self.t0 <= 0 or self.dt <= 0:
            raise DomainError("m, t0 and dt must be positive")
        if not 0.0 < self.switch < 1.0:
            raise DomainError("switch must lie in (0, 1); the level is switch * t0")
        if self.dt > self.t0 ** 2:
            raise DomainError("dt must be small against t0^2")


def simulate_joint_paths(cfg: BesselSimConfig, rng, n_paths: int, d: int, x):
    """Exit points, hitting times and hit flags of ``n_paths`` joint paths.

    Only the radial path is stepped, until it first falls to the switch level
    y* = ``cfg.switch * cfg.t0``; one Gamma draw per path then adds the exact
    time left from its crossing value (see the module docstring).  A path is
    a hit when its finished time is below ``max_time``.  Its stopping time
    ``stop`` is that finished time, or for a path that reaches ``max_time``
    before y* the accumulated time at that step; the exit point is then drawn
    once as x + sqrt(2 stop) Z with Z ~ N(0, I_d), exact in law given
    ``stop``.  Returns (X_S, times, hit); ``times`` holds S where ``hit`` is
    True and ``max_time`` elsewhere, and non-hits are data, not errors.
    ``times`` and ``hit`` do not depend on ``d``: the radial steps come
    first, then the Gamma draw, and with d = 0 the final (n, 0) normal draw
    does not advance ``rng``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise DomainError(f"x must have shape ({d},), got {x.shape}")
    level = cfg.switch * cfg.t0
    y = np.full(n_paths, cfg.t0)
    s = np.zeros(n_paths)
    idx = np.arange(n_paths)
    stop = np.empty(n_paths)
    y_cross = np.zeros(n_paths)
    crossed = np.zeros(n_paths, dtype=bool)
    drift_c = 1.0 - cfg.m
    while idx.size:
        dt = cfg.dt * np.minimum(1.0, y * y)
        dw = rng.standard_normal(idx.size)
        y = y + drift_c / y * dt + np.sqrt(2.0 * dt) * dw
        s = s + dt
        below = y <= level
        done = below | (s >= cfg.max_time)
        if done.any():
            crossed[idx[below]] = True
            y_cross[idx[below]] = y[below]
            stop[idx[done]] = s[done]
            keep = ~done
            y, s, idx = y[keep], s[keep], idx[keep]
    # y_cross stays 0 on a path that reached max_time first, so it gets no
    # finish; an Euler step that overshoots zero has already hit, so neither
    g = rng.standard_gamma(0.5 * cfg.m, n_paths)
    stop += np.maximum(y_cross, 0.0) ** 2 / (4.0 * g)
    hit = crossed & (stop < cfg.max_time)
    times = np.where(hit, stop, cfg.max_time)
    pos = x + np.sqrt(2.0 * stop)[:, None] * rng.standard_normal((n_paths, d))
    return pos, times, hit


def empirical_hitting_times(cfg: BesselSimConfig, mc: MonteCarloConfig):
    """Hitting times and hit flags pooled over reproducible substreams."""
    return pooled(lambda rng, n: simulate_joint_paths(cfg, rng, n, 0, ())[1:], mc)


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
    ref = qtm_quadrature(f, TKernel(d, cfg.m, cfg.t0, tuple(x)),
                         quad_cfg or QuadratureConfig()).value
    return abs(avg - ref)

