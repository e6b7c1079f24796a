"""The harmonic-extension operator with three independent evaluation paths.

Path 1 integrates the defining heavy-tailed average directly (adaptive
radial-angular quadrature).  Path 2 subordinates the heat semigroup over the
hitting-time law, realized as a generalized Gauss-Laguerre rule in the Gamma
variable times a Gauss-Hermite product rule for the Gaussian convolution.
Path 3 is plain Monte Carlo over exact kernel draws.  The three paths share
nothing beyond the integrand, which is the point: agreement certifies each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, roots_genlaguerre, roots_hermite

from .errors import DegenerateFit, DomainError, NonConvergence
from .fields import DifferentiableField, multi_indices
from .measures import (draw_coupled, draw_tkernel, heavy_tail_cutoff,
                       log_norm_const)
from .numerics import (Estimate, MonteCarloConfig, QuadratureConfig,
                       fd_derivative, integrate_rd, mc_estimate)


@dataclass(frozen=True)
class QtmParams:
    m: float
    d: int
    t: float
    x: tuple

    def __post_init__(self):
        if self.m <= 0:
            raise DomainError("index m must be positive")
        if self.t < 0:
            raise DomainError("t must be nonnegative")
        if len(self.x) != self.d:
            raise DomainError("x has wrong dimension")

    @property
    def center(self):
        return np.asarray(self.x, dtype=float)


def _tail_cutoff(p: QtmParams, abs_tol: float, f=None,
                 growth: float = 2.0) -> float:
    """Truncation radius for the index-m weight against the integrand's growth."""
    scale = 1.0
    if f is not None:
        from .inequalities import growth_degree
        growth = growth_degree(f)
        scale = (1.0 + float(np.max(np.abs(p.center))) + p.t) ** growth \
            + abs(float(f.value(p.center)))
    else:
        # heuristic callers (derivative integrands of bounded fields): keep a
        # positive decay rather than rejecting high orders outright
        growth = min(growth, p.m - 0.5)
    return heavy_tail_cutoff(p.m, p.d, abs_tol, scale=scale, growth=growth)


def qtm_quadrature(f: DifferentiableField, p: QtmParams,
                   cfg: QuadratureConfig | None = None) -> Estimate:
    """The defining integral: average of f(x + t z) over the index-m weight."""
    cfg = cfg or QuadratureConfig()
    if p.t == 0.0:
        return Estimate(float(f.value(p.center)), 0.0, 1)
    log_c = log_norm_const(p.m, p.d)
    expo = 0.5 * (p.m + p.d)
    x, t = p.center, p.t

    def g(z):
        r2 = np.sum(z * z, axis=1)
        return np.asarray(f.value(x + t * z), dtype=float) * np.exp(
            -expo * np.log1p(r2) - log_c)

    est = integrate_rd(g, p.d, cfg, cutoff=_tail_cutoff(p, cfg.abs_tol, f))
    # the reported bound must cover the analytic tail-truncation allowance
    return Estimate(est.value, est.error_bound + cfg.abs_tol / 10.0, est.n_evals)


_HERMITE_ORDER = {1: 48, 2: 32, 3: 18}
_HERMITE_ORDER_LO = {1: 32, 2: 22, 3: 12}


def _heat_value(f, x, s_values, d, order):
    """P_s f(x) for an array of times s, by a Gauss-Hermite product rule."""
    h, w = roots_hermite(order)
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
    out = np.empty(len(s_values))
    for i, s in enumerate(s_values):
        pts = x[None, :] + 2.0 * math.sqrt(s) * nodes
        out[i] = float(np.dot(weights, f.value(pts)))
    return out


def _subordinated_value(f, p: QtmParams, cfg: QuadratureConfig, n_her):
    """Adaptive integral over the Gamma variable u = t^2/(4s)."""
    from .numerics import integrate_radial
    log_gamma_m2 = gammaln(p.m / 2.0)
    x, t, d, m = p.center, p.t, p.d, p.m
    evals = 0

    def integrand(u):
        nonlocal evals
        u = np.atleast_1d(np.asarray(u, dtype=float))
        heat = _heat_value(f, x, t ** 2 / (4.0 * u), d, n_her)
        evals += len(u) * n_her ** d
        with np.errstate(divide="ignore"):
            logw = (m / 2.0 - 1.0) * np.log(u) - u - log_gamma_m2
        return heat * np.exp(logw)

    sub_cfg = QuadratureConfig(cfg.abs_tol, cfg.rel_tol, cfg.max_evals,
                               radial_cutoff=2000.0,
                               angular_order=cfg.angular_order)
    est = integrate_radial(integrand, sub_cfg)
    return est, evals


def qtm_subordinated(f: DifferentiableField, p: QtmParams,
                     cfg: QuadratureConfig | None = None) -> Estimate:
    """Subordination path: heat semigroup averaged over the hitting-time law.

    The substitution u = t^2/(4s) maps the heavy-tailed hitting-time density
    to a Gamma(m/2) weight; the Gaussian convolution itself uses a
    Gauss-Hermite product rule, with the rule-order sensitivity folded into
    the reported error bound.
    """
    cfg = cfg or QuadratureConfig()
    if p.t == 0.0:
        return Estimate(float(f.value(p.center)), 0.0, 1)
    hi, n_hi = _subordinated_value(f, p, cfg, _HERMITE_ORDER[p.d])
    lo, n_lo = _subordinated_value(f, p, cfg, _HERMITE_ORDER_LO[p.d])
    err = hi.error_bound + abs(hi.value - lo.value) + 1e-14 * (1.0 + abs(hi.value))
    return Estimate(hi.value, err, n_hi + n_lo)


def qtm_mc(f: DifferentiableField, p: QtmParams,
           cfg: MonteCarloConfig | None = None) -> Estimate:
    """Monte Carlo average of f over exact kernel draws."""
    cfg = cfg or MonteCarloConfig()
    if p.t == 0.0:
        return Estimate(float(f.value(p.center)), 0.0, 1, kind="monte-carlo")
    x, t, d, m = p.center, p.t, p.d, p.m

    def sample(rng, n):
        return f.value(draw_tkernel(rng, n, d, m, t, x))

    return mc_estimate(sample, cfg)


class QtmField:
    """The extension F(x, t) = Q_t f(x) as a field on the upper half-space.

    Partial derivatives in (x, t) to order 3 are taken under the integral
    sign: every t-derivative produces one directional derivative (z . grad)
    acting on f, so each mixed partial is a moment-weighted average of an
    analytic derivative of f.  Nothing here differentiates a quadrature.
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
        self._log_c = log_norm_const(self.m, self.d)
        self._cache = {}

    def in_domain(self, point) -> bool:
        return float(np.atleast_1d(point)[-1]) > 0.0

    def value(self, point):
        return self.partial((0,) * self.dim, point)

    def __call__(self, point):
        return self.value(point)

    def partial(self, alpha, point):
        alpha = tuple(int(a) for a in alpha)
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if len(alpha) != self.dim or point.shape != (self.dim,):
            raise DomainError("bad multi-index or point for the extension field")
        x, t = point[:-1], float(point[-1])
        if t <= 0:
            raise DomainError("the extension field lives on t > 0")
        key = (alpha, tuple(x), t)
        if key in self._cache:
            return self._cache[key]
        ax, j = alpha[:-1], alpha[-1]
        expo = 0.5 * (self.m + self.d)
        log_c = self._log_c
        # (d/dt)^j f(x+tz) = sum_{|gamma|=j} j!/gamma! z^gamma (D^{gamma+ax} f)(x+tz)
        gammas = [g for g in multi_indices(self.d, j) if sum(g) == j]
        coefs = [math.factorial(j) / math.prod(math.factorial(gi) for gi in g)
                 for g in gammas]
        partials = [tuple(a + g for a, g in zip(ax, g)) for g in gammas]

        def integrand(z):
            r2 = np.sum(z * z, axis=1)
            w = np.exp(-expo * np.log1p(r2) - log_c)
            pts = x + t * z
            acc = np.zeros(len(z))
            for c, g, pa in zip(coefs, gammas, partials):
                mono = np.ones(len(z))
                for i, gi in enumerate(g):
                    if gi:
                        mono = mono * z[:, i] ** gi
                acc += c * mono * self.f.partial(pa, pts)
            return acc * w

        cutoff = _tail_cutoff(QtmParams(self.m, self.d, t, tuple(x)),
                              self.cfg.abs_tol, growth=2.0 + j)
        val = integrate_rd(integrand, self.d, self.cfg, cutoff=cutoff).value
        self._cache[key] = val
        return val


def half_space_operator_fd(G, d: int, m: float, point, step: float = 1e-2) -> float:
    """Finite-difference application of the half-space operator to G(x, t)."""
    point = np.atleast_1d(np.asarray(point, dtype=float))
    if point.shape != (d + 1,) or point[-1] <= 0:
        raise DomainError("need a point (x, t) with t > 0")
    if point[-1] - 2 * step <= 0:
        raise DomainError("stencil crosses t = 0; reduce step")
    dom = lambda p: p[-1] > 0

    acc = 0.0
    for i in range(d):
        alpha = tuple(2 if j == i else 0 for j in range(d + 1))
        acc += fd_derivative(G, point, alpha, step=step, domain=dom)
    alpha_tt = tuple(0 for _ in range(d)) + (2,)
    alpha_t = tuple(0 for _ in range(d)) + (1,)
    acc += fd_derivative(G, point, alpha_tt, step=step, domain=dom)
    acc += (1.0 - m) / point[-1] * fd_derivative(G, point, alpha_t, step=step, domain=dom)
    return acc


def harmonicity_residual(f: DifferentiableField, p: QtmParams,
                         step: float = 5e-3,
                         cfg: QuadratureConfig | None = None) -> float:
    """|Delta^(m) Q_t f| at (x, t) via finite differences of the quadrature path."""
    if p.t <= 0:
        raise DomainError("harmonicity is checked at t > 0")
    cfg = cfg or QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12)

    def G(pt):
        pt = np.atleast_1d(pt)
        params = QtmParams(p.m, p.d, float(pt[-1]), tuple(pt[:-1]))
        return qtm_quadrature(f, params, cfg).value

    return abs(half_space_operator_fd(G, p.d, p.m, np.append(p.center, p.t), step=step))


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


def moment_identity_gap(g: DifferentiableField, p_exp: float, params: QtmParams,
                        cfg: QuadratureConfig | None = None,
                        mc: MonteCarloConfig | None = None) -> MomentIdentityReport:
    """Both sides of the hitting-time moment identity.

    LHS twice: by Laguerre-Hermite double quadrature over (s, y) and by Monte
    Carlo over the coupled (S, X_S) sampler.  RHS: the log-Gamma prefactor
    times the extension at index m - 2p.
    """
    if not 0 < p_exp < params.m / 2.0:
        raise DomainError("need 0 < p < m/2")
    cfg = cfg or QuadratureConfig()
    mc = mc or MonteCarloConfig(n_samples=400_000)
    m, d, t, x = params.m, params.d, params.t, params.center

    # double quadrature: E(S^p g(X_S)) = (t^{2p}/4^p) E_U[U^{-p} P_{t^2/4U} g(x)]
    u, w = roots_genlaguerre(64, m / 2.0 - p_exp - 1.0)
    w = w / math.exp(gammaln(m / 2.0))
    heat = _heat_value(g, x, t ** 2 / (4.0 * u), d, _HERMITE_ORDER[d])
    lhs_quad = (t ** (2 * p_exp) / 4.0 ** p_exp) * float(np.dot(w, heat))

    def sample(rng, n):
        s, xs = draw_coupled(rng, n, d, m, t, x)
        return s ** p_exp * g.value(xs)

    est = mc_estimate(sample, mc)

    log_pref = (2 * p_exp * math.log(t) + gammaln(m / 2.0 - p_exp)
                - p_exp * math.log(4.0) - gammaln(m / 2.0))
    rhs = math.exp(log_pref) * qtm_quadrature(
        g, QtmParams(m - 2 * p_exp, d, t, params.x), cfg).value
    return MomentIdentityReport(lhs_quad, est.value, est.error_bound, rhs)


def biharmonic(f: DifferentiableField, x) -> float:
    """Delta^2 f at x from analytic order-4 partials."""
    d = f.dim
    acc = 0.0
    for i in range(d):
        for j in range(d):
            alpha = [0] * d
            alpha[i] += 2
            alpha[j] += 2
            acc += f.partial(tuple(alpha), x)
    return acc


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
    lap = float(f.laplacian(x))
    bih = biharmonic(f, x)
    rem = np.empty_like(t_grid)
    noise = 0.0
    for i, t in enumerate(t_grid):
        est = qtm_quadrature(f, QtmParams(m, d, float(t), tuple(x)), cfg)
        rem[i] = (est.value - f0 - t ** 2 * lap / (2.0 * (m - 2.0))
                  - t ** 4 * bih / (8.0 * (m - 2.0) * (m - 4.0)))
        noise += est.error_bound
    if np.max(np.abs(rem)) <= 10.0 * (noise + 1e-15):
        raise DegenerateFit("remainder is below quadrature noise; "
                            "consistent with the stated order")
    slope = np.polyfit(np.log(t_grid), np.log(np.abs(rem)), 1)[0]
    return float(slope)
