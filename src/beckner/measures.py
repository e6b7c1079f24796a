"""Cauchy-type measures, the heavy-tailed extension kernel and hitting times.

Normalization constants are kept in log space (log-Gamma) so that large
index parameters stay representable.  ``TKernel(d, m, t, x)`` is the kernel
q_t(x, .) of the extension operator, and every evaluation path of Q_t takes
one; it is no ``Measure`` but the image x + t z of its ``base_measure``.
Draws are exact and live on the law they sample: ``TKernel.draw`` is a
Gaussian scale mixture over a Gamma variate, ``HittingTimeLaw.draw`` the
inverse-Gamma transform t^2/(4G) of the same variate, and
``TKernel.draw_coupled`` the pair (S, X_S).  Each takes ``(rng, n)``;
``numerics.pooled`` runs it over the substreams of a ``MonteCarloConfig``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import (_GK_WK, _GK_X, CALL_POINTS, Estimate, QuadratureConfig,
                       integrate_rd)


def log_norm_const(m: float, d: int) -> float:
    """log of c(m,d) = pi^{d/2} Gamma(m/2) / Gamma((m+d)/2)."""
    if m <= 0:
        raise DomainError("index m must be positive")
    return (0.5 * d * math.log(math.pi) + math.lgamma(m / 2.0)
            - math.lgamma((m + d) / 2.0))


def norm_const(m: float, d: int) -> float:
    """Normalization constant of the density (1+|y|^2)^{-(m+d)/2} on R^d."""
    return math.exp(log_norm_const(m, d))


def surface_area(d: int) -> float:
    """Surface area of the unit sphere S^{d-1}."""
    return 2.0 * math.pi ** (d / 2.0) / math.exp(math.lgamma(d / 2.0))


def heavy_tail_bound(m: float, d: int, radius: float, scale: float, growth: float) -> float:
    """Tail beyond R of (1+|y|^2)^{-(m+d)/2}/c(m,d) against an integrand bounded
    by scale * r^growth: |S^{d-1}| scale R^{-(m-growth)} / ((m-growth) c(m,d))."""
    decay = m - growth
    if decay <= 0:
        raise DomainError("integrand growth defeats the tail decay")
    return surface_area(d) * scale / (decay * norm_const(m, d)) * radius ** -decay


def heavy_tail_cutoff(m: float, d: int, abs_tol: float, scale: float = 1.0,
                      growth: float = 0.0) -> float:
    """Truncation radius R >= 10 with ``heavy_tail_bound`` below abs_tol/10."""
    c, target = heavy_tail_bound(m, d, 1.0, scale, growth), abs_tol / 10.0
    return max((c / target) ** (1.0 / (m - growth)) if c > target else 1.0, 10.0)


def second_moment(b: float, d: int) -> float:
    """Second moment of the Cauchy-type measure: d / (2b - 2 - d)."""
    if 2.0 * b - 2.0 - d <= 0:
        raise DomainError("second moment diverges for 2b - 2 - d <= 0")
    return d / (2.0 * b - 2.0 - d)


class Measure:
    """The measure protocol: ``integrate(f, config, growth, scale)`` integrates a
    vectorized f with ``|f(y)| <= scale |y|^growth`` at infinity up to a radius R,
    and its error bound always includes the tail beyond R.  A subclass gives ``d``,
    ``log_density(|y|^2)`` and ``truncation(abs_tol, growth, scale) -> (R, tail)``.
    The density depends on |y| alone, so ``integrate_rd`` applies it once per
    radius of its radial rule, as a weight on the angular sum of f.  The
    integral is ``integrate_stack`` of one column, the float ``Estimate`` of f."""

    def integrate(self, f, config: QuadratureConfig, growth: float = 0.0,
                  scale: float = 1.0) -> Estimate:
        return integrate_stack(f, [self], config, [growth], [scale])[0]


@dataclass(frozen=True)
class CauchyMeasure(Measure):
    """Probability measure with density (1/c(2b-d,d)) (1+|y|^2)^{-b} on R^d."""
    d: int
    b: float

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("dimension must be >= 1")
        if self.b <= self.d / 2.0:
            raise DomainError("need b > d/2 for integrability")

    def log_density(self, r2):
        return -self.b * np.log1p(r2) - log_norm_const(2.0 * self.b - self.d, self.d)

    def density(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.exp(self.log_density(np.sum(pts * pts, axis=1)))

    def truncation(self, abs_tol: float, growth: float, scale: float):
        """The radius that keeps the analytic tail below abs_tol/10."""
        return heavy_tail_cutoff(2.0 * self.b - self.d, self.d, abs_tol, scale=scale,
                                 growth=growth), abs_tol / 10.0


class SphereMeasure(CauchyMeasure):
    """The uniform measure of S^d in the stereographic chart, d >= 2: it is
    ``CauchyMeasure(d, d)`` but for its truncation, the fixed radius
    R = max((10/(abs_tol d))^{1/d}, 50) with the tail bound of that radius."""

    def __init__(self, d: int):
        if d < 2:
            raise DomainError("spherical analysis needs d >= 2")
        super().__init__(d, d)

    def truncation(self, abs_tol: float, growth: float, scale: float):
        radius = max((10.0 / (abs_tol * self.d)) ** (1.0 / self.d), 50.0)
        return radius, heavy_tail_bound(self.d, self.d, radius, scale, growth)


def integrate_stack(g, measures, config: QuadratureConfig, growths, scales,
                    batch: int = CALL_POINTS) -> list[Estimate]:
    """Column j of the (n, k) stack ``g(y)`` (n values for one measure)
    integrated against ``measures[j]``, measures on one R^d, with
    |column j| <= ``scales[j]`` |y|^``growths[j]`` at infinity: one
    ``integrate_rd`` pass, out to the largest of the columns' truncation
    radii.  Each column is weighted by its own density, or all of them by the
    one density of a pass whose measures are one.  A tail bound also holds
    beyond its own radius, so each column's bound adds the tail of its own
    truncation, at its own growth and scale.  ``batch`` caps the points of
    one call of g (see ``integrate_rd``).  Returns one float ``Estimate`` per
    column; ``n_evals`` counts the pass's points."""
    cuts = [mu.truncation(config.abs_tol, growth, s)
            for mu, growth, s in zip(measures, growths, scales, strict=True)]
    if all(mu == measures[0] for mu in measures):
        log_density = measures[0].log_density
    else:
        def log_density(r2):
            return np.stack([mu.log_density(r2) for mu in measures], axis=1)
    ests = integrate_rd(g, log_density, measures[0].d, config,
                        cutoff=max(radius for radius, _ in cuts), batch=batch)
    return [Estimate(e.value, e.error_bound + tail, e.n_evals) for e, (_, tail) in zip(ests, cuts)]


@dataclass(frozen=True)
class GaussianMeasure(Measure):
    """The standard Gaussian measure on R^d, truncated at radius 12."""
    d: int

    def log_density(self, r2):
        return -0.5 * r2 - 0.5 * self.d * math.log(2.0 * math.pi)

    def truncation(self, abs_tol: float, growth: float, scale: float):
        """R = 12; the tail is scale |S^{d-1}| (2 pi)^{-d/2} times the integral of
        r^k e^{-r^2/2} over r > R, k = growth + d - 1, which integration by parts
        bounds by R^{k-1} e^{-R^2/2} / (1 - max(k-1, 0)/R^2)."""
        radius, k = 12.0, growth + self.d - 1.0
        shrink = 1.0 - max(k - 1.0, 0.0) / radius ** 2
        if shrink <= 0:
            raise DomainError("integrand growth defeats the Gaussian tail bound")
        weight = surface_area(self.d) / (2.0 * math.pi) ** (0.5 * self.d)
        return radius, scale * weight * radius ** (k - 1.0) * math.exp(-0.5 * radius ** 2) / shrink


@dataclass(frozen=True)
class TKernel:
    """The kernel q_t(x, .) of the extension of index m on R^d: the law of
    x + t z with z ~ nu_{(m+d)/2}, the only object that holds (d, m, t, x).
    ``qtm.qtm_quadrature`` integrates f(x + t z) against ``base_measure``."""
    d: int
    m: float
    t: float
    x: tuple

    def __post_init__(self):
        if self.m <= 0 or self.t <= 0:
            raise DomainError("need m > 0 and t > 0")
        if len(self.x) != self.d:
            raise DomainError(f"x must have d = {self.d} coordinates, got {len(self.x)}")

    @property
    def center(self):
        return np.asarray(self.x, dtype=float)

    def base_measure(self) -> CauchyMeasure:
        return CauchyMeasure(self.d, (self.m + self.d) / 2.0)

    def tail_scale(self, f, growth: float) -> float:
        """Scale of the tail bound of f(x + t z) against the base measure:
        |f(x + t z)| <= ((1 + |x| + t)^growth + |f(x)|) |z|^growth."""
        x = self.center
        return ((1.0 + float(np.max(np.abs(x))) + self.t) ** growth
                + abs(float(f(x[None, :])[0])))

    def density(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.base_measure().density((pts - self.center) / self.t) / self.t ** self.d

    def draw(self, rng, n: int):
        """n exact draws x + t Z / sqrt(2 G), G ~ Gamma(m/2): Z first, then G."""
        z = rng.standard_normal((n, self.d))
        g = rng.standard_gamma(self.m / 2.0, n)
        # t z / sqrt(2 G) + x in the (d, n) row layout, where adding x is fast
        rows = np.multiply(z.T, self.t, out=np.empty((self.d, n)))
        rows /= np.sqrt(2.0 * g)
        rows += self.center[:, None]
        return rows.T

    def draw_coupled(self, rng, n: int):
        """n coupled pairs (S, x + sqrt(2 S) Z): S from ``HittingTimeLaw(m, t)``
        first, then Z.  The second component has this kernel's law, the
        probabilistic face of the subordination identity."""
        s = HittingTimeLaw(self.m, self.t).draw(rng, n)
        return s, self.center + np.sqrt(2.0 * s)[:, None] * rng.standard_normal((n, self.d))


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
                   - self.m * math.log(2.0) - math.lgamma(self.m / 2.0))
        out[pos] = np.exp(log_pdf)
        return out

    def mean(self) -> float:
        if self.m <= 2:
            raise DomainError("mean hitting time diverges for m <= 2")
        return self.t ** 2 / (2.0 * (self.m - 2.0))

    def cdf(self, s):
        """CDF at the given points by cumulative quadrature of the density: a
        float for a scalar, an array of the input's shape otherwise.

        Deliberately independent of the sampler's Gamma transform: the
        density is integrated with one fixed Kronrod panel per gap, 1024
        gaps at a time, so that the temporaries stay small however many
        points there are.
        """
        s = np.asarray(s, dtype=float)
        flat = s.reshape(-1)
        order = np.argsort(flat)
        edges = np.concatenate([[0.0], flat[order]])
        lo, hi = edges[:-1], edges[1:]
        panel = np.empty_like(flat)
        for j in range(0, len(flat), 1024):
            block = slice(j, j + 1024)
            h = 0.5 * (hi[block] - lo[block])
            nodes = lo[block, None] + (1.0 + _GK_X)[None, :] * h[:, None]
            with np.errstate(divide="ignore"):
                vals = self.density(nodes.reshape(-1)).reshape(nodes.shape)
            panel[block] = h * (vals @ _GK_WK)
        out = np.empty_like(flat)
        out[order] = np.cumsum(panel)
        out = np.clip(out, 0.0, 1.0)
        return float(out[0]) if s.ndim == 0 else out.reshape(s.shape)

    def draw(self, rng, n: int):
        """n exact draws t^2 / (4 G), G ~ Gamma(m/2), from one generator."""
        return self.t ** 2 / (4.0 * rng.standard_gamma(self.m / 2.0, n))
