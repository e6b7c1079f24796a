"""Quadrature and Monte Carlo primitives.

All deterministic integration goes through an adaptive Gauss-Kronrod (G7/K15)
rule on finite intervals; improper radial integrals are mapped to [0,1) by
r = s/(1-s) first and truncated at a cutoff radius that every caller passes
in, together with its own bound on the tail beyond it.  An integrand may
return an (n, k) stack of k components instead of n values: they share every
abscissa and one subdivision, each meets its own tolerance, and each is
reduced with the arithmetic of a scalar integrand.  Full-space integrals
over R^d (d <= 3) against a radial density are reduced to a radial integral
of an angular product rule of order ``ANGULAR_ORDER``; the density is a
weight applied once per radius, not once per point.  Monte Carlo draws use
numpy substreams spawned from a single seed so parallel draws stay
reproducible; ``pooled`` and ``mc_estimate`` are the only loops over them.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, NonConvergence

_EPS = np.finfo(float).eps

# G7/K15 nodes on [-1,1]: (node, Gauss weight, Kronrod weight).
_GK15 = np.array([
    (+0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (+0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (+0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (0.000000000000000, 0.417959183673469, 0.209482141084728),
    (+0.991455371120813, 0.0, 0.022935322010529),
    (-0.991455371120813, 0.0, 0.022935322010529),
    (+0.864864423359769, 0.0, 0.104790010322250),
    (-0.864864423359769, 0.0, 0.104790010322250),
    (+0.586087235467691, 0.0, 0.169004726639267),
    (-0.586087235467691, 0.0, 0.169004726639267),
    (+0.207784955007898, 0.0, 0.204432940075298),
    (-0.207784955007898, 0.0, 0.204432940075298),
])
_GK_X = _GK15[:, 0]
_GK_WG = _GK15[:, 1]
_GK_WK = _GK15[:, 2]

# Nodes per circle of the angular product rule (see ``angular_rule``).
ANGULAR_ORDER = 48
MIN_PANELS = 4  # equal panels that ``integrate_interval`` starts from


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_evals: int = 500_000

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DomainError("tolerances must be positive")
        if self.max_evals < 100:
            raise DomainError("max_evals must be at least 100")


@dataclass(frozen=True)
class MonteCarloConfig:
    n_samples: int = 100_000
    seed: int = 0
    n_streams: int = 4

    def __post_init__(self):
        if self.n_samples < 1 or self.n_streams < 1:
            raise DomainError("n_samples and n_streams must be >= 1")
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class Estimate:
    """A value with an error bound.

    ``kind`` records whether ``error_bound`` is a one-sided quadrature bound
    or a 1-sigma Monte Carlo standard error.  The integral of a stack of k
    integrands holds (k,) arrays of both; only ``integrate_interval``,
    ``integrate_radial`` and ``integrate_rd`` return one, and only for a
    stacked integrand.  Its two callers unpack it into float estimates:
    ``qtm.qtm_subordinated`` (``integrate_radial``) and
    ``measures.integrate_stack`` (``integrate_rd``), which serves
    ``qtm.harmonicity_residual``.
    """
    value: float | np.ndarray
    error_bound: float | np.ndarray
    n_evals: int
    kind: str = "quadrature"

    def __post_init__(self):
        bound = self.error_bound
        if (bound < 0).any() if isinstance(bound, np.ndarray) else bound < 0:
            raise DomainError("error_bound must be nonnegative")


def _gk_panel(f, a, b):
    """One G7/K15 evaluation of ``f`` (vectorized) on [a, b]: the value and
    the error estimate of each component of ``f`` (one for a 1-D ``f``), as
    lists of floats, and whether ``f`` returned a stack."""
    h = 0.5 * (b - a)
    x = a + (_GK_X + 1.0) * h
    y = np.asarray(f(x), dtype=float)
    if not np.isfinite(y).all():
        raise DomainError("integrand returned non-finite values")
    h = float(h)   # the same value; float arithmetic is cheaper than numpy scalars
    vals, errs = [], []
    for col in np.ascontiguousarray(y.reshape(len(x), -1).T):
        g7 = h * float(np.dot(_GK_WG, col))
        k15 = h * float(np.dot(_GK_WK, col))
        err = (200.0 * abs(g7 - k15)) ** 1.5
        vals.append(k15)
        errs.append(min(err, abs(g7 - k15) * 200.0 + _EPS))
    return vals, errs, y.ndim == 2


def integrate_interval(f, a, b, config: QuadratureConfig) -> Estimate:
    """Adaptive G7/K15 integral of a vectorized ``f`` over [a, b].

    ``f`` maps n points to n values, or to an (n, k) stack of k integrands
    that share one subdivision (Genz & Malik 1980).  A panel is split while
    any unconverged component carries more than its share of that
    component's budget, and the pass ends when every component meets its own
    max(abs_tol, rel_tol |value|).  A stack gives one ``Estimate`` whose
    value and bound are (k,) arrays; ``n_evals`` counts abscissae either way.
    """
    edges = np.linspace(a, b, MIN_PANELS + 1)
    intervals = []
    n_evals = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err, stacked = _gk_panel(f, lo, hi)
        intervals.append((lo, hi, val, err))
        n_evals += 15
    while True:
        total = [math.fsum(c) for c in zip(*(iv[2] for iv in intervals))]
        err = [math.fsum(c) for c in zip(*(iv[3] for iv in intervals))]
        tol = [max(config.abs_tol, config.rel_tol * abs(v)) for v in total]
        converged = [e <= t for e, t in zip(err, tol)]
        if all(converged):
            if stacked:
                return Estimate(np.array(total), np.array(err), n_evals)
            return Estimate(total[0], err[0], n_evals)
        if n_evals + 30 > config.max_evals:
            j = max(range(len(err)), key=lambda j: err[j] / tol[j])
            raise NonConvergence(
                f"quadrature error {err[j]:.3e} > tol {tol[j]:.3e} after {n_evals} evals")
        # split every interval carrying more than its share of the budget of
        # a component that has not converged
        n = len(intervals)
        cut = [math.inf if c else max(t / (2 * n), e / (4 * n))
               for c, e, t in zip(converged, err, tol)]
        fresh = []
        for lo, hi, val, e in intervals:
            if any(map(operator.gt, e, cut)) and n_evals + 30 <= config.max_evals:
                mid = 0.5 * (lo + hi)
                v1, e1, _ = _gk_panel(f, lo, mid)
                v2, e2, _ = _gk_panel(f, mid, hi)
                n_evals += 30
                fresh.append((lo, mid, v1, e1))
                fresh.append((mid, hi, v2, e2))
            else:
                fresh.append((lo, hi, val, e))
        intervals = fresh


def integrate_radial(integrand, config: QuadratureConfig, cutoff: float) -> Estimate:
    """Integral of ``integrand`` over [0, infinity), truncated at ``cutoff``.

    The half-line is mapped to [0,1) by r = s/(1-s) and cut at r = ``cutoff``.
    The returned bound covers the quadrature only: the caller chooses the
    cutoff and accounts for the tail beyond it.  ``integrand`` may return an
    (n, k) stack, as in ``integrate_interval``.
    """
    if not 0.0 < cutoff < math.inf:
        raise DomainError(f"cutoff must be positive and finite, got {cutoff}")
    s_max = cutoff / (1.0 + cutoff)

    def mapped(s):
        s = np.asarray(s, dtype=float)
        r = s / (1.0 - s)
        jac = 1.0 / (1.0 - s) ** 2
        vals = np.asarray(integrand(r), dtype=float)
        return vals * (jac[:, None] if vals.ndim == 2 else jac)

    return integrate_interval(mapped, 0.0, s_max, config)


@lru_cache(maxsize=None)
def angular_rule(d: int, order: int):
    """Nodes on S^{d-1} (shape (n, d)) and weights summing to its surface area.

    Built once per (d, order) and shared by every caller, so both arrays are
    read-only.
    """
    if d == 1:
        nodes, w = np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    elif d == 2:
        theta = 2.0 * np.pi * np.arange(order) / order
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        w = np.full(order, 2.0 * np.pi / order)
    elif d == 3:
        n_pol = max(order // 2, 4)
        n_az = max(order, 8)
        c, wc = leggauss(n_pol)
        phi = 2.0 * np.pi * np.arange(n_az) / n_az
        s = np.sqrt(1.0 - c ** 2)
        nodes = np.empty((n_pol * n_az, 3))
        w = np.empty(n_pol * n_az)
        k = 0
        for i in range(n_pol):
            for j in range(n_az):
                nodes[k] = (s[i] * np.cos(phi[j]), s[i] * np.sin(phi[j]), c[i])
                w[k] = wc[i] * 2.0 * np.pi / n_az
                k += 1
    else:
        raise DomainError(f"deterministic cubature supports d <= 3, got d={d}")
    nodes.setflags(write=False)
    w.setflags(write=False)
    return nodes, w


def integrate_rd(g, log_density, d: int, config: QuadratureConfig,
                 cutoff: float) -> Estimate:
    """Integral of g(y) exp(log_density(|y|^2)) over the ball of radius ``cutoff``.

    ``g`` must accept an (n, d) array of points, ``log_density`` an array of
    squared radii.  Reduction: radial adaptive quadrature of
    r^{d-1} exp(log_density(r^2)) sum_j w_j g(r w_j), so the density is
    evaluated once per radius, never per point; as in ``integrate_radial``,
    the tail beyond the cutoff is the caller's.  ``g`` may return an (n, k)
    stack, integrated on one shared subdivision as in ``integrate_interval``;
    then ``log_density`` returns either one column for every component or
    one per component, (n_r, k), and each component is reduced with the
    arithmetic of a 1-D ``g``.  ``n_evals`` counts points either way.
    """
    nodes, w = angular_rule(d, ANGULAR_ORDER)

    def radial(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        pts = r[:, None, None] * nodes[None, :, :]
        vals = np.asarray(g(pts.reshape(-1, d)), dtype=float)
        weight = r ** (d - 1) * np.exp(log_density(r * r)).T   # (n_r,) or (k, n_r)
        if vals.ndim == 1:
            return weight * (vals.reshape(len(r), -1) @ w)
        # one contiguous (radius, node) block per component, reduced as a 1-D g
        cols = np.ascontiguousarray(np.moveaxis(vals.reshape(len(r), len(w), -1), -1, 0))
        return (weight * (cols @ w)).T

    est = integrate_radial(radial, config, cutoff)
    return Estimate(est.value, est.error_bound, est.n_evals * len(w))


def spawn_rngs(seed: int, n_streams: int):
    """Independent reproducible generators from one 64-bit seed."""
    ss = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.PCG64(child)) for child in ss.spawn(n_streams)]


def pairwise_sum(values) -> float:
    """Deterministic pairwise-tree reduction, independent of scheduling."""
    vals = [float(v) for v in values]
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def substreams(cfg: MonteCarloConfig):
    """Yield ``(rng, n)`` for each substream that gets samples.

    ``cfg.n_samples`` is split as evenly as possible over ``cfg.n_streams``
    generators spawned from ``cfg.seed``, the first streams taking one extra
    sample each; a stream with no samples is skipped.
    """
    per, extra = divmod(cfg.n_samples, cfg.n_streams)
    for i, rng in enumerate(spawn_rngs(cfg.seed, cfg.n_streams)):
        n = per + (i < extra)
        if n:
            yield rng, n


def pooled(draw, cfg: MonteCarloConfig):
    """``draw(rng, n)`` over every substream of ``cfg``, concatenated in
    stream order; a draw that returns a tuple is concatenated componentwise."""
    parts = [draw(rng, n) for rng, n in substreams(cfg)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(part) for part in zip(*parts))
    return np.concatenate(parts)


def mc_estimate(sample_fn, cfg: MonteCarloConfig) -> Estimate:
    """Monte Carlo mean of ``sample_fn(rng, n) -> array`` over all substreams."""
    sums, sq_sums, n_tot = [], [], 0
    for rng, n in substreams(cfg):
        x = np.asarray(sample_fn(rng, n), dtype=float)
        sums.append(float(np.sum(x)))
        sq_sums.append(float(np.sum(x * x)))
        n_tot += n
    total = pairwise_sum(sums)
    total_sq = pairwise_sum(sq_sums)
    mean = total / n_tot
    var = max(total_sq / n_tot - mean * mean, 0.0)
    stderr = math.sqrt(var / n_tot)
    return Estimate(mean, stderr, n_tot, kind="monte-carlo")
