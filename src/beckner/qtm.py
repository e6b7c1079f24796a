"""The harmonic-extension operator with three independent evaluation paths.

Path 1 integrates the defining heavy-tailed average directly, against the
Cauchy-type measure nu_{(m+d)/2} (adaptive radial-angular quadrature).
Path 2 subordinates the heat semigroup over the hitting-time law, realized
as a generalized Gauss-Laguerre rule in the Gamma variable times a
Gauss-Hermite product rule for the Gaussian convolution.
Path 3 is plain Monte Carlo over exact kernel draws.  The three paths share
nothing beyond the integrand, which is the point: agreement certifies each.
Each takes the kernel as one ``measures.TKernel(d, m, t, x)``, so t > 0.
The harmonicity check applies a finite-difference stencil of the half-space
operator under the integral sign of path 1, so no quadrature is differenced.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateFit, DomainError
from .fields import DifferentiableField, growth_degree, laplacian, multi_indices
from .measures import TKernel
from .numerics import (Estimate, MonteCarloConfig, QuadratureConfig,
                       integrate_radial, mc_estimate)


def qtm_quadrature(f: DifferentiableField, k: TKernel,
                   cfg: QuadratureConfig | None = None) -> Estimate:
    """The defining integral: the average of f(x + t z) over z ~ nu_{(m+d)/2},
    which is ``TKernel.integrate`` at the growth degree of f."""
    cfg = cfg or QuadratureConfig()
    return k.integrate(f, cfg, growth=growth_degree(f))


_HERMITE_ORDER = {1: 48, 2: 32, 3: 18}
_HERMITE_ORDER_LO = {1: 32, 2: 22, 3: 12}


@lru_cache(maxsize=None)
def _heat_rule(d: int, order: int):
    """Gauss-Hermite product rule for the Gaussian average E g(2 sqrt(s) Z).

    Nodes of shape (order^d, d) and weights summing to 1.  Built once per
    (d, order) and shared by every caller, so both arrays are read-only.
    """
    h, w = np.polynomial.hermite.hermgauss(order)
    if d == 1:
        nodes = h[:, None]
        weights = w
    elif d == 2:
        nodes = np.stack(np.meshgrid(h, h, indexing="ij"), axis=-1).reshape(-1, 2)
        weights = np.outer(w, w).reshape(-1)
    elif d == 3:
        g = np.meshgrid(h, h, h, indexing="ij")
        nodes = np.stack(g, axis=-1).reshape(-1, 3)
        weights = np.einsum("i,j,k->ijk", w, w, w).reshape(-1)
    else:
        raise DomainError("heat semigroup rule supports d <= 3")
    weights = weights / math.pi ** (d / 2.0)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _heat_value(f, x, s_values, d, order):
    """P_s f(x) for an array of times s, by a Gauss-Hermite product rule.

    Every (s, node) point is evaluated once, in one ``f.value`` call on a
    (len(s) * n_nodes, d) batch, and reduced by one matrix-vector product.
    """
    nodes, weights = _heat_rule(d, order)
    scale = 2.0 * np.sqrt(np.asarray(s_values, dtype=float))
    pts = np.multiply(scale[:, None, None], nodes)
    pts += x
    vals = f.value(pts.reshape(-1, d)).reshape(len(scale), -1)
    return vals @ weights


def _subordinated_value(f, k: TKernel, cfg: QuadratureConfig, n_her):
    """Adaptive integral over the Gamma variable u = t^2/(4s)."""
    log_gamma_m2 = math.lgamma(k.m / 2.0)
    x, t, d, m = k.center, k.t, k.d, k.m
    evals = 0

    def integrand(u):
        nonlocal evals
        u = np.atleast_1d(np.asarray(u, dtype=float))
        heat = _heat_value(f, x, t ** 2 / (4.0 * u), d, n_her)
        evals += len(u) * n_her ** d
        with np.errstate(divide="ignore"):
            logw = (m / 2.0 - 1.0) * np.log(u) - u - log_gamma_m2
        return heat * np.exp(logw)

    est = integrate_radial(integrand, cfg, cutoff=2000.0)
    return est, evals


def qtm_subordinated(f: DifferentiableField, k: TKernel,
                     cfg: QuadratureConfig | None = None) -> Estimate:
    """Subordination path: heat semigroup averaged over the hitting-time law.

    The substitution u = t^2/(4s) maps the heavy-tailed hitting-time density
    to a Gamma(m/2) weight; the Gaussian convolution itself uses a
    Gauss-Hermite product rule, with the rule-order sensitivity folded into
    the reported error bound.
    """
    cfg = cfg or QuadratureConfig()
    hi, n_hi = _subordinated_value(f, k, cfg, _HERMITE_ORDER[k.d])
    lo, n_lo = _subordinated_value(f, k, cfg, _HERMITE_ORDER_LO[k.d])
    err = hi.error_bound + abs(hi.value - lo.value) + 1e-14 * (1.0 + abs(hi.value))
    return Estimate(hi.value, err, n_hi + n_lo)


def qtm_mc(f: DifferentiableField, k: TKernel,
           cfg: MonteCarloConfig | None = None) -> Estimate:
    """Monte Carlo average of f over exact kernel draws."""
    cfg = cfg or MonteCarloConfig()
    return mc_estimate(lambda rng, n: f.value(k.draw(rng, n)), cfg)


class QtmField:
    """The extension F(x, t) = Q_t f(x) as a field on the upper half-space.

    Partial derivatives in (x, t) to order 3 are taken under the integral
    sign: every t-derivative produces one directional derivative (z . grad)
    acting on f, so each mixed partial is a moment-weighted average of partials
    of f, read from one jet of f per batch.  Nothing differentiates a quadrature.
    """

    def __init__(self, f: DifferentiableField, m: float, d: int,
                 cfg: QuadratureConfig | None = None):
        if m <= 0:
            raise DomainError("index m must be positive")
        self.f = f
        self.m = float(m)
        self.d = int(d)
        self.dim = self.d + 1
        self.cfg = cfg or QuadratureConfig(abs_tol=1e-11, rel_tol=1e-11)

    def value(self, point):
        return self.partial((0,) * self.dim, point)

    def __call__(self, point):
        return self.value(point)

    def partials(self, point, order: int) -> dict:
        """Every partial of order <= ``order`` at one point, as {alpha: float};
        one integral each.  A batch of points raises ``DomainError``."""
        return {alpha: self.partial(alpha, point)
                for alpha in multi_indices(self.dim, order)}

    def partial(self, alpha, point):
        alpha = tuple(int(a) for a in alpha)
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if len(alpha) != self.dim or point.shape != (self.dim,):
            raise DomainError("bad multi-index or point for the extension field")
        x, t = point[:-1], float(point[-1])
        nu = TKernel(self.d, self.m, t, tuple(x)).base_measure()
        ax, j = alpha[:-1], alpha[-1]
        # (d/dt)^j f(x+tz) = sum_{|gamma|=j} j!/gamma! z^gamma (D^{gamma+ax} f)(x+tz)
        terms = [(math.factorial(j) / math.prod(map(math.factorial, g)), np.array(g),
                  tuple(a + gi for a, gi in zip(ax, g)))
                 for g in multi_indices(self.d, j) if sum(g) == j]

        def integrand(z):
            jet = self.f.partials(x + t * z, sum(alpha))
            return sum(c * np.prod(z ** g, axis=1) * jet[pa] for c, g, pa in terms)

        # derivative integrands of bounded fields: a heuristic growth that
        # keeps a positive decay rather than rejecting high orders outright
        growth = min(2.0 + j, self.m - 0.5)
        return nu.integrate(integrand, self.cfg, growth=growth).value


_STEP = 5e-3  # spacing h: the positive_bump residual at t = 0.05, d = 3 is 6.7e-6 < 1e-4


def harmonicity_residual(f: DifferentiableField, k: TKernel,
                         cfg: QuadratureConfig | None = None) -> Estimate:
    """(Laplacian_x + d^2/dt^2 + ((1-m)/t) d/dt) Q_t f at (x, t) by a stencil
    (second differences of spacing 2h on the d+1 axes, the central t-difference
    of spacing h) under the integral sign: each point (x_k, t_k) averages
    f(x_k + t_k z) over one z ~ nu_{(m+d)/2}, the base measure of ``k``, so the
    stencil is one integral, whose tail scale sums the points' ``TKernel``
    tail scales by |weight|."""
    if k.t - 2 * _STEP <= 0:
        raise DomainError(f"the harmonicity stencil needs t > {2 * _STEP}")
    h, x, t, growth = _STEP, k.center, k.t, growth_degree(f)
    c2, c1 = 1.0 / (4.0 * h * h), (1.0 - k.m) / (2.0 * h * t)
    stencil = [(x, t, -2.0 * (k.d + 1) * c2), (x, t + 2 * h, c2), (x, t - 2 * h, c2),
               (x, t + h, c1), (x, t - h, -c1)]
    stencil += [(x + s * e, t, c2) for e in 2 * h * np.eye(k.d) for s in (1.0, -1.0)]

    def integrand(z):
        acc, pts = np.zeros(len(z)), np.empty_like(z)
        for xk, tk, ck in stencil:
            np.multiply(z, tk, out=pts)   # one buffer for every stencil point
            pts += xk
            acc += ck * f.value(pts)
        return acc

    scale = sum(abs(ck) * TKernel(k.d, k.m, tk, tuple(xk)).tail_scale(f, growth, 1.0)
                for xk, tk, ck in stencil)
    est = k.base_measure().integrate(integrand, cfg or QuadratureConfig(),
                                     growth=growth, scale=scale)
    return Estimate(est.value, est.error_bound, est.n_evals * len(stencil))


@dataclass(frozen=True)
class MomentIdentityReport:
    lhs_quadrature: float
    lhs_mc: float
    mc_sigma: float
    rhs: float

    @property
    def gap_quadrature(self) -> float:
        return abs(self.lhs_quadrature - self.rhs)

    @property
    def gap_mc(self) -> float:
        return abs(self.lhs_mc - self.rhs)


@lru_cache(maxsize=None)
def _laguerre_rule(n: int, alpha: float):
    """n-point generalized Gauss-Laguerre rule for the weight u^alpha e^{-u}.

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of the
    symmetric tridiagonal Jacobi matrix of the Laguerre three-term recurrence,
    the weights Gamma(alpha + 1) times the squared first eigenvector components.
    Built once per (n, alpha) and shared, so both arrays are read-only.
    """
    k = np.arange(n)
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    jacobi = np.diag(2.0 * k + alpha + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(jacobi)
    weights = math.exp(math.lgamma(alpha + 1.0)) * vecs[0] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def moment_identity_gap(g: DifferentiableField, p_exp: float, k: TKernel,
                        cfg: QuadratureConfig | None = None,
                        mc: MonteCarloConfig | None = None) -> MomentIdentityReport:
    """Both sides of the hitting-time moment identity.

    LHS twice: by Laguerre-Hermite double quadrature over (s, y) and by Monte
    Carlo over the coupled (S, X_S) sampler.  RHS: the log-Gamma prefactor
    times the extension at index m - 2p.
    """
    if not 0 < p_exp < k.m / 2.0:
        raise DomainError("need 0 < p < m/2")
    mc = mc or MonteCarloConfig(n_samples=400_000)
    m, d, t, x = k.m, k.d, k.t, k.center

    # double quadrature: E(S^p g(X_S)) = (t^{2p}/4^p) E_U[U^{-p} P_{t^2/4U} g(x)]
    u, w = _laguerre_rule(64, m / 2.0 - p_exp - 1.0)
    w = w / math.exp(math.lgamma(m / 2.0))
    heat = _heat_value(g, x, t ** 2 / (4.0 * u), d, _HERMITE_ORDER[d])
    lhs_quad = (t ** (2 * p_exp) / 4.0 ** p_exp) * float(np.dot(w, heat))

    def sample(rng, n):
        s, xs = k.draw_coupled(rng, n)
        return s ** p_exp * g.value(xs)

    est = mc_estimate(sample, mc)

    log_pref = (2 * p_exp * math.log(t) + math.lgamma(m / 2.0 - p_exp)
                - p_exp * math.log(4.0) - math.lgamma(m / 2.0))
    rhs = math.exp(log_pref) * qtm_quadrature(
        g, TKernel(d, m - 2 * p_exp, t, k.x), cfg).value
    return MomentIdentityReport(lhs_quad, est.value, est.error_bound, rhs)


def biharmonic(f: DifferentiableField, x) -> float:
    """Delta^2 f at x from one jet of f of order 4."""
    return float(laplacian(laplacian(f)).value(x))


def taylor_remainder_order(f: DifferentiableField, m: float, d: int, x,
                           t_grid, cfg: QuadratureConfig | None = None) -> float:
    """Fitted log-log slope of the small-t expansion remainder.

    Subtracts identity, Laplacian and bi-Laplacian terms; the next term in
    the expansion gives slope 6 for generic analytic fields.
    """
    if m <= 4:
        raise DomainError("the fourth-order expansion needs m > 4")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 5 or np.any(t_grid <= 0) or np.any(t_grid > 0.5):
        raise DomainError("need >= 5 grid points in (0, 0.5]")
    cfg = cfg or QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    f0 = float(f.value(x))
    lap = float(laplacian(f).value(x))
    bih = biharmonic(f, x)
    rem = np.empty_like(t_grid)
    noise = 0.0
    for i, t in enumerate(t_grid):
        est = qtm_quadrature(f, TKernel(d, m, float(t), tuple(x)), cfg)
        rem[i] = (est.value - f0 - t ** 2 * lap / (2.0 * (m - 2.0))
                  - t ** 4 * bih / (8.0 * (m - 2.0) * (m - 4.0)))
        noise += est.error_bound
    if np.max(np.abs(rem)) <= 10.0 * (noise + 1e-15):
        raise DegenerateFit("remainder is below quadrature noise; "
                            "consistent with the stated order")
    slope = np.polyfit(np.log(t_grid), np.log(np.abs(rem)), 1)[0]
    return float(slope)
