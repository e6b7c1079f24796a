"""Pathwise simulation of the singular-drift process and its hitting time.

The radial process dY = sqrt(2) dW + ((1-m)/Y) ds is stepped in its Lamperti
clock tau = int ds / Y^2, in which Z = log(Y/t0) is exactly a Brownian motion
with variance 2 per unit time and drift -m (Lamperti, Z. Wahrsch. 22, 1972).
On a grid of step h in tau the increments of Z are therefore sampled exactly,
Z <- Z + sqrt(2h) xi - m h; the only approximation left is the time
s = int Y^2 dtau = t0^2 int e^{2Z} dtau, summed by the trapezoid rule, whose
bias is second order in h.

Each path is stepped until the first grid point at which Y falls to the
switch level y* = switch * t0 (or its time reaches the horizon).  Below y* it
is finished exactly: by the strong Markov property the time left from the
value y it stands at is the hitting time from y, whose law is y^2/(4G) with
G ~ Gamma(m/2) (``HittingTimeLaw(m, y)``), the tau -> infinity end of the
same representation (Dufresne, Scand. Actuar. J., 1990).  The grid crossing
is a stopping time, so a crossing between grid points needs no correction.
What the pathwise check still tests on its own is the clock change and its
quadrature above y*; the finishing law is the Gamma identity that the exact
hitting-time sampler uses and that the KS check of the hitting-time law tests.

The exit point of the joint process is x + B_S for a sqrt(2)-Brownian motion
B in R^d independent of Y, stopped at the hitting time S of Y.  Only Y is
stepped: conditionally on S, B_S is exactly N(0, 2 S I_d), so the exit point
is drawn once per path after the finish instead of being accumulated step by
step.  The draw is exact in law whatever the radial step, because the
stopping rule depends on the radial path alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, Inconclusive
from .fields import DifferentiableField
from .measures import TKernel
from .numerics import QuadratureConfig, spawn_rngs
from .qtm import qtm_quadrature


@dataclass(frozen=True)
class BesselSimConfig:
    """Radial path simulation from ``t0`` down to ``switch * t0``.

    ``dt`` is the step of the Lamperti clock tau = int ds / Y^2, which does
    not depend on ``t0``; it must be small against log(1/switch)/m, the mean
    clock time from t0 to the switch level.  ``max_time`` is the horizon in
    the process's own time s.
    """
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
        if self.dt > math.log(1.0 / self.switch) / self.m:
            raise DomainError("dt must be small against log(1/switch)/m, the "
                              "clock time to the switch level")


def _cumsum_rows(a):
    """Cumulative sum down axis 0, in place.  One vectorized add per row:
    numpy's accumulate along axis 0 runs one inner loop per column, which
    for a (1, n) block costs about twenty times as much."""
    for j in range(1, a.shape[0]):
        a[j] += a[j - 1]


def simulate_joint_paths(cfg: BesselSimConfig, rng, n_paths: int, d: int, x):
    """Exit points, hitting times and hit flags of ``n_paths`` joint paths.

    Each radial path takes exact steps of ``cfg.dt`` in the Lamperti clock,
    with its time s summed by the trapezoid rule, until the first grid point
    at which it stands at or below the switch level y* = ``cfg.switch *
    cfg.t0`` or s reaches ``max_time``; one Gamma draw per path then adds the
    exact time left from where it stands (see the module docstring).  A path
    is a hit when its finished time is below ``max_time``.  Its stopping time
    ``stop`` is that finished time, or for a path that reaches ``max_time``
    above y* its time at that grid point; the exit point is then drawn once
    as x + sqrt(2 stop) Z with Z ~ N(0, I_d), exact in law given ``stop``.
    Returns (X_S, times, hit); ``times`` holds S where ``hit`` is True and
    ``max_time`` elsewhere, and non-hits are data, not errors.

    The live paths draw their increments in (K, n_live) blocks, K = min(64,
    n_paths // n_live), so no working array exceeds ``n_paths`` elements and
    the few paths left late in a run take 64 steps per loop iteration.
    ``times`` and ``hit`` do not depend on ``d``: the radial increments come
    first, then the Gamma draw, and with d = 0 the final (n, 0) normal draw
    does not advance ``rng``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise DomainError(f"x must have shape ({d},), got {x.shape}")
    # w = 2 log(Y/t0), so e^w = (Y/t0)^2 and s = t0^2 int e^w dtau
    level = 2.0 * math.log(cfg.switch)
    drift, sigma = -2.0 * cfg.m * cfg.dt, 2.0 * math.sqrt(2.0 * cfg.dt)
    half_step = 0.5 * cfg.dt * cfg.t0 ** 2
    w, s, idx = np.zeros(n_paths), np.zeros(n_paths), np.arange(n_paths)
    w_stop, s_stop = np.empty(n_paths), np.empty(n_paths)
    while idx.size:
        k = min(64, n_paths // idx.size)
        wb = rng.normal(drift, sigma, (k, idx.size))
        wb[0] += w
        _cumsum_rows(wb)
        # e^w on the grid, turned in place into the time at each grid point:
        # pairs e_{j-1} + e_j, scaled by half a step and summed after s
        sb = np.exp(wb)
        for j in range(k - 1, 0, -1):
            sb[j] += sb[j - 1]
        sb[0] += np.exp(w)
        sb *= half_step
        sb[0] += s
        _cumsum_rows(sb)
        stopped = wb <= level
        stopped |= sb >= cfg.max_time
        done = stopped.any(axis=0)
        cols = np.flatnonzero(done)
        first = stopped[:, cols].argmax(axis=0)
        w_stop[idx[cols]], s_stop[idx[cols]] = wb[first, cols], sb[first, cols]
        live = ~done
        # one at a time, so that each old array is freed before the next copy
        w = wb[-1][live]
        s = sb[-1][live]
        idx = idx[live]
    # the time left from y = t0 e^{w/2} is y^2/(4G); a path that reached
    # max_time above y* gets no finish
    crossed = w_stop <= level
    g = rng.standard_gamma(0.5 * cfg.m, n_paths)
    stop = s_stop + np.where(crossed, cfg.t0 ** 2 * np.exp(w_stop) / (4.0 * g), 0.0)
    hit = crossed & (stop < cfg.max_time)
    times = np.where(hit, stop, cfg.max_time)
    pos = x + np.sqrt(2.0 * stop)[:, None] * rng.standard_normal((n_paths, d))
    return pos, times, hit


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

