"""Cauchy-type measures, the heavy-tailed extension kernel and hitting times.

Normalization constants are kept in log space (log-Gamma) so that large
index parameters stay representable.  Samplers are exact: the kernel draw is
a Gaussian scale mixture over a Gamma variate and the hitting time is an
inverse-Gamma transform of the same variate, which also provides the coupled
pair (S, X_S).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError
from .numerics import (Estimate, MonteCarloConfig, QuadratureConfig,
                       integrate_radial, integrate_rd, substreams)


def log_norm_const(m: float, d: int) -> float:
    """log of c(m,d) = pi^{d/2} Gamma(m/2) / Gamma((m+d)/2)."""
    if m <= 0:
        raise DomainError("index m must be positive")
    return 0.5 * d * math.log(math.pi) + gammaln(m / 2.0) - gammaln((m + d) / 2.0)


def norm_const(m: float, d: int) -> float:
    """Normalization constant of the density (1+|y|^2)^{-(m+d)/2} on R^d."""
    return math.exp(log_norm_const(m, d))


def surface_area(d: int) -> float:
    """Surface area of the unit sphere S^{d-1}."""
    return 2.0 * math.pi ** (d / 2.0) / math.exp(gammaln(d / 2.0))


def heavy_tail_cutoff(m: float, d: int, abs_tol: float, scale: float = 1.0,
                      growth: float = 0.0) -> float:
    """Truncation radius R with analytic tail bound below abs_tol/10.

    Tail of the normalized weight beyond R against an integrand bounded by
    scale * r^growth is at most |S^{d-1}| scale R^{-(m-growth)} / ((m-growth) c(m,d)).
    """
    decay = m - growth
    if decay <= 0:
        raise DomainError("integrand growth defeats the tail decay")
    c = surface_area(d) * scale / (decay * norm_const(m, d))
    target = abs_tol / 10.0
    r = (c / target) ** (1.0 / decay) if c > target else 1.0
    return max(r, 10.0)


def second_moment(b: float, d: int) -> float:
    """Second moment of the Cauchy-type measure: d / (2b - 2 - d)."""
    if 2.0 * b - 2.0 - d <= 0:
        raise DomainError("second moment diverges for 2b - 2 - d <= 0")
    return d / (2.0 * b - 2.0 - d)


@dataclass(frozen=True)
class CauchyMeasure:
    """Probability measure with density (1/c(2b-d,d)) (1+|y|^2)^{-b} on R^d."""
    d: int
    b: float

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("dimension must be >= 1")
        if self.b <= self.d / 2.0:
            raise DomainError("need b > d/2 for integrability")

    @property
    def log_norm(self) -> float:
        return log_norm_const(2.0 * self.b - self.d, self.d)

    def density(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r2 = np.sum(pts * pts, axis=1)
        return np.exp(-self.b * np.log1p(r2) - self.log_norm)

    def integrate(self, f, config: QuadratureConfig,
                  growth: float = 0.0) -> Estimate:
        """Integral of a vectorized f against the measure.

        ``growth`` is a polynomial bound on the integrand at infinity
        (degree of |f(y)| in |y|); it widens the truncation radius so the
        analytic tail bound stays below abs_tol/10, which is then folded
        into the returned error bound.
        """
        log_c = self.log_norm
        b = self.b

        def g(pts):
            r2 = np.sum(pts * pts, axis=1)
            return np.asarray(f(pts), dtype=float) * np.exp(-b * np.log1p(r2) - log_c)

        cutoff = heavy_tail_cutoff(2.0 * self.b - self.d, self.d, config.abs_tol,
                                   growth=growth)
        est = integrate_rd(g, self.d, config, cutoff=cutoff)
        return Estimate(est.value, est.error_bound + config.abs_tol / 10.0,
                        est.n_evals, est.kind)


@dataclass(frozen=True)
class TKernel:
    """The kernel q_t(x, .) : Cauchy-type measure pushed through y -> t y + x."""
    d: int
    m: float
    t: float
    x: tuple

    def __post_init__(self):
        if self.m <= 0 or self.t <= 0:
            raise DomainError("need m > 0 and t > 0")

    @property
    def center(self):
        return np.asarray(self.x, dtype=float)

    def base_measure(self) -> CauchyMeasure:
        return CauchyMeasure(self.d, (self.m + self.d) / 2.0)

    def density(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        diff = pts - self.center
        r2 = np.sum(diff * diff, axis=1)
        log_c = log_norm_const(self.m, self.d)
        return np.exp(self.m * math.log(self.t)
                      - 0.5 * (self.m + self.d) * np.log(self.t ** 2 + r2) - log_c)


@dataclass(frozen=True)
class HittingTimeLaw:
    """Law of the first zero of the Bessel-type process started at t."""
    m: float
    t: float

    def __post_init__(self):
        if self.m <= 0 or self.t <= 0:
            raise DomainError("need m > 0 and t > 0")

    def density(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        pos = s > 0
        sp_ = s[pos]
        log_pdf = (self.m * math.log(self.t) - self.t ** 2 / (4.0 * sp_)
                   - (self.m / 2.0 + 1.0) * np.log(sp_)
                   - self.m * math.log(2.0) - gammaln(self.m / 2.0))
        out[pos] = np.exp(log_pdf)
        return out

    def mean(self) -> float:
        if self.m <= 2:
            raise DomainError("mean hitting time diverges for m <= 2")
        return self.t ** 2 / (2.0 * (self.m - 2.0))

    def cdf(self, s, panels_per_gap: int = 1):
        """CDF at the given points by cumulative quadrature of the density.

        Deliberately independent of the sampler's Gamma transform: the
        density is integrated panel by panel with a fixed Kronrod rule.
        """
        from .numerics import _GK_X, _GK_WK
        s = np.atleast_1d(np.asarray(s, dtype=float))
        order = np.argsort(s)
        edges = np.concatenate([[0.0], s[order]])
        lo, hi = edges[:-1], edges[1:]
        h = 0.5 * (hi - lo)
        nodes = lo[:, None] + (1.0 + _GK_X)[None, :] * h[:, None]
        with np.errstate(divide="ignore"):
            vals = self.density(nodes.reshape(-1)).reshape(nodes.shape)
        panel = h * (vals @ _GK_WK)
        out = np.empty_like(s)
        out[order] = np.cumsum(panel)
        return np.clip(out, 0.0, 1.0) if out.size > 1 else float(np.clip(out[0], 0, 1))


def sample_gamma(rng, shape: float, n: int):
    """Gamma(shape, 1) variates (Marsaglia-Tsang rejection inside numpy)."""
    if shape <= 0:
        raise DomainError("gamma shape must be positive")
    return rng.standard_gamma(shape, size=n)


def draw_tkernel(rng, n: int, d: int, m: float, t: float, x):
    """n draws of x + t Z / sqrt(2 G) from one generator: Z first, then G."""
    z = rng.standard_normal((n, d))
    g = sample_gamma(rng, m / 2.0, n)
    return x + t * z / np.sqrt(2.0 * g)[:, None]


def draw_coupled(rng, n: int, d: int, m: float, t: float, x):
    """n coupled pairs (S, x + sqrt(2 S) Z) from one generator.

    G is drawn first and S = t^2 / (4 G), then Z.  With d = 0 the (n, 0)
    normal draw does not advance the generator, so S alone is drawn.
    """
    g = sample_gamma(rng, m / 2.0, n)
    s = t ** 2 / (4.0 * g)
    z = rng.standard_normal((n, d))
    return s, x + np.sqrt(2.0 * s)[:, None] * z


def sample_tkernel(k: TKernel, cfg: MonteCarloConfig):
    """Exact draws from q_t(x, .): x + t Z / sqrt(2 G), G ~ Gamma(m/2)."""
    return np.concatenate([draw_tkernel(rng, n, k.d, k.m, k.t, k.center)
                           for rng, n in substreams(cfg)], axis=0)


def sample_hitting(h: HittingTimeLaw, cfg: MonteCarloConfig):
    """Exact draws of the hitting time: S = t^2 / (4 G), G ~ Gamma(m/2)."""
    return np.concatenate([draw_coupled(rng, n, 0, h.m, h.t, 0.0)[0]
                           for rng, n in substreams(cfg)])


def sample_coupled(d: int, m: float, t: float, x, cfg: MonteCarloConfig):
    """Coupled draws (S, X_S) with X_S = x + sqrt(2 S) Z.

    The marginal of X_S is the t-kernel; this is the probabilistic face of
    the subordination identity.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    draws = [draw_coupled(rng, n, d, m, t, x) for rng, n in substreams(cfg)]
    return (np.concatenate([s for s, _ in draws]),
            np.concatenate([xs for _, xs in draws], axis=0))
