"""Quadrature, Monte Carlo and finite-difference primitives.

All deterministic integration goes through an adaptive Gauss-Kronrod (G7/K15)
rule on finite intervals; improper radial integrals are mapped to [0,1) by
r = s/(1-s) first.  Full-space integrals over R^d (d <= 3) are reduced to a
radial integral of an angular product rule.  Monte Carlo draws use numpy
substreams spawned from a single seed so parallel draws stay reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_evals: int = 500_000
    radial_cutoff: float = 1e6
    angular_order: int = 48

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DomainError("tolerances must be positive")
        if self.radial_cutoff <= 0:
            raise DomainError("radial_cutoff must be positive")
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


@dataclass(frozen=True)
class Estimate:
    """A value with an error bound.

    ``kind`` records whether ``error_bound`` is a one-sided quadrature bound
    or a 1-sigma Monte Carlo standard error.
    """
    value: float
    error_bound: float
    n_evals: int
    kind: str = "quadrature"

    def __post_init__(self):
        if self.error_bound < 0:
            raise DomainError("error_bound must be nonnegative")


def _gk_panel(f, a, b):
    """One G7/K15 evaluation of ``f`` (vectorized) on [a, b]."""
    h = 0.5 * (b - a)
    x = a + (_GK_X + 1.0) * h
    y = np.asarray(f(x), dtype=float)
    if not np.all(np.isfinite(y)):
        raise DomainError("integrand returned non-finite values")
    g7 = h * float(np.dot(_GK_WG, y))
    k15 = h * float(np.dot(_GK_WK, y))
    err = (200.0 * abs(g7 - k15)) ** 1.5
    return k15, min(err, abs(g7 - k15) * 200.0 + _EPS)


def integrate_interval(f, a, b, config: QuadratureConfig, min_panels: int = 4) -> Estimate:
    """Adaptive G7/K15 integral of a vectorized ``f`` over [a, b]."""
    edges = np.linspace(a, b, min_panels + 1)
    intervals = []
    n_evals = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _gk_panel(f, lo, hi)
        intervals.append((lo, hi, val, err))
        n_evals += 15
    while True:
        total = math.fsum(iv[2] for iv in intervals)
        err = math.fsum(iv[3] for iv in intervals)
        tol = max(config.abs_tol, config.rel_tol * abs(total))
        if err <= tol:
            return Estimate(total, err, n_evals)
        if n_evals + 30 > config.max_evals:
            raise NonConvergence(
                f"quadrature error {err:.3e} > tol {tol:.3e} after {n_evals} evals")
        # split every interval carrying more than its share of the budget
        cut = max(tol / (2 * len(intervals)), err / (4 * len(intervals)))
        fresh = []
        for lo, hi, val, e in intervals:
            if e > cut and n_evals + 30 <= config.max_evals:
                mid = 0.5 * (lo + hi)
                v1, e1 = _gk_panel(f, lo, mid)
                v2, e2 = _gk_panel(f, mid, hi)
                n_evals += 30
                fresh.append((lo, mid, v1, e1))
                fresh.append((mid, hi, v2, e2))
            else:
                fresh.append((lo, hi, val, e))
        intervals = fresh


def integrate_radial(integrand, config: QuadratureConfig) -> Estimate:
    """Integral of ``integrand`` over [0, infinity).

    The half-line is mapped to [0,1) by r = s/(1-s) and truncated at
    ``config.radial_cutoff``; the caller guarantees the tail beyond the
    cutoff is below ``abs_tol``.
    """
    s_max = config.radial_cutoff / (1.0 + config.radial_cutoff)

    def mapped(s):
        s = np.asarray(s, dtype=float)
        r = s / (1.0 - s)
        jac = 1.0 / (1.0 - s) ** 2
        return np.asarray(integrand(r), dtype=float) * jac

    return integrate_interval(mapped, 0.0, s_max, config)


def angular_rule(d: int, order: int):
    """Nodes on S^{d-1} (shape (n, d)) and weights summing to its surface area."""
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if d == 2:
        theta = 2.0 * np.pi * np.arange(order) / order
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        w = np.full(order, 2.0 * np.pi / order)
        return nodes, w
    if d == 3:
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
        return nodes, w
    raise DomainError(f"deterministic cubature supports d <= 3, got d={d}")


def integrate_rd(g, d: int, config: QuadratureConfig, cutoff: float | None = None) -> Estimate:
    """Integral of a vectorized g : R^d -> R over the whole space.

    ``g`` must accept an (n, d) array of points.  Reduction: radial adaptive
    quadrature of the angular average r^{d-1} * sum_j w_j g(r w_j).
    """
    nodes, w = angular_rule(d, config.angular_order)

    def radial(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        pts = r[:, None, None] * nodes[None, :, :]
        vals = np.asarray(g(pts.reshape(-1, d)), dtype=float).reshape(len(r), -1)
        return (r ** (d - 1)) * (vals @ w)

    cfg = config
    if cutoff is not None and cutoff != config.radial_cutoff:
        cfg = QuadratureConfig(config.abs_tol, config.rel_tol, config.max_evals,
                               cutoff, config.angular_order)
    est = integrate_radial(radial, cfg)
    return Estimate(est.value, est.error_bound, est.n_evals * len(w))


def _as_point(point, dim=None):
    p = np.atleast_1d(np.asarray(point, dtype=float))
    if dim is not None and p.shape != (dim,):
        raise DomainError(f"expected point of dimension {dim}")
    return p


def fd_derivative(field, point, multi_index, step: float | None = None,
                  domain=None) -> float:
    """Central finite difference of ``field`` at ``point``.

    ``multi_index`` is a tuple of per-coordinate derivative orders with total
    order <= 4; the error is O(step^2).  ``domain`` is an optional predicate;
    a stencil point outside it raises DomainError.
    """
    point = _as_point(point)
    alpha = tuple(int(a) for a in multi_index)
    order = sum(alpha)
    if order > 4:
        raise DomainError("finite differences support order <= 4")
    if any(a < 0 for a in alpha):
        raise DomainError("multi_index entries must be nonnegative")
    if step is None:
        scale = max(1.0, float(np.max(np.abs(point))))
        step = _EPS ** (1.0 / (order + 2)) * scale
    if step <= 0:
        raise DomainError("step must be positive")

    def rec(p, a):
        for i, ai in enumerate(a):
            if ai > 0:
                e = np.zeros_like(p)
                e[i] = step
                a2 = list(a)
                a2[i] -= 1
                return (rec(p + e, a2) - rec(p - e, a2)) / (2.0 * step)
        if domain is not None and not domain(p):
            raise DomainError(f"stencil point {p} outside the field's domain")
        return float(field(p if p.size > 1 else p[0]))

    return rec(point, alpha)


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
