"""The harmonic-extension operator with three independent evaluation paths.

Path 1 integrates the defining heavy-tailed average directly, against the
Cauchy-type measure nu_{(m+d)/2} (adaptive radial-angular quadrature).
Path 2 subordinates the heat semigroup over the hitting-time law: adaptive
G7/K15 quadrature in the Gamma variable of a Gauss-Hermite product rule for
the Gaussian convolution.  The heat values depend on neither m nor t, so all
kernels that share (d, x) are integrated in one pass over a stack of
integrands, one per kernel and rule order.
Path 3 is plain Monte Carlo over exact kernel draws.  The three paths share
nothing beyond the integrand, which is the point: agreement certifies each.
Path 1 takes one ``measures.TKernel(d, m, t, x)``, so t > 0; paths 2 and 3
take a sequence of kernels with one d and x (and one m for path 3) and
return one ``Estimate`` per kernel.
The harmonicity check applies a finite-difference stencil of the half-space
operator under the integral sign of path 1, so no quadrature is differenced.
The stencil's centre is path 1's own integrand and no stencil point depends
on m, so the kernels that share (d, x, t) share one pass, which returns
path 1's value next to each kernel's residual.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateFit, DomainError
from .fields import DifferentiableField, growth_degree, laplacian, multi_indices
from .measures import TKernel, integrate_stack
from .numerics import (Estimate, MonteCarloConfig, QuadratureConfig,
                       integrate_radial, mc_estimate)


def qtm_quadrature(f: DifferentiableField, k: TKernel,
                   cfg: QuadratureConfig | None = None) -> Estimate:
    """The defining integral: the base measure nu_{(m+d)/2}'s integral of
    f(x + t z), at the growth degree of f and its ``TKernel.tail_scale``."""
    cfg, x, t, growth = cfg or QuadratureConfig(), k.center, k.t, growth_degree(f)
    return k.base_measure().integrate(lambda z: f(x + t * z), cfg, growth=growth,
                                      scale=k.tail_scale(f, growth))


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
    # one contiguous row per coordinate, as in ``harmonicity_residual``
    pts = np.multiply(scale[None, :, None], nodes.T[:, None, :],
                      out=np.empty((d, len(scale), len(nodes))))
    pts += np.reshape(x, (d, 1, 1))
    vals = f.value(pts.reshape(d, -1).T).reshape(len(scale), -1)
    return vals @ weights


def _kernel_pass(kernels, same_m: bool = False):
    """``kernels`` as a list, with their one d and x; ``DomainError`` unless
    the list is nonempty and its kernels share d and x (and m if ``same_m``)."""
    kernels = list(kernels)
    if not kernels:
        raise DomainError("a kernel pass needs at least one kernel")
    first = kernels[0]
    if any(k.d != first.d or not np.array_equal(k.center, first.center)
           or (same_m and k.m != first.m) for k in kernels):
        raise DomainError("the kernels of one pass must share d and x"
                          + (" and m" if same_m else ""))
    return kernels, first.d, first.center


# The widest t_max / t_min of one shared pass: the numeric qtm grid's
# spread, within which every Gamma weight stays resolved (200 is not).
_T_SPREAD = 4.0


def qtm_subordinated(f: DifferentiableField, kernels,
                     cfg: QuadratureConfig | None = None) -> list[Estimate]:
    """Subordination path for a sequence of kernels with one d and one x:
    the heat semigroup averaged over each kernel's hitting-time law.

    The substitution u = t0^2/(4s), with t0 the smallest t of a pass, maps
    kernel k's hitting-time density to the weight c^2 gamma_{m/2}(c^2 u),
    c = t/t0, so P_s f(x), which depends on neither m nor t, is computed once
    per abscissa for every kernel of the pass: one adaptive pass integrates
    the stack of each kernel's integrand under two Gauss-Hermite product rule
    orders.  The weight of kernel k is the base one squeezed toward u = 0 by
    c^2; once that is large, the first panel's G7/K15 nodes all miss its
    mass and both rules agree on 0.  So the kernels, sorted by t, share a
    pass only while t / t0 <= ``_T_SPREAD``, and a wider t grid takes one
    pass per such group.  Each kernel's bound adds the rule-order sensitivity
    |hi - lo| to the quadrature bound; ``n_evals`` counts its pass's field
    evaluations.  Returns one ``Estimate`` per kernel, in order.
    """
    kernels, d, x = _kernel_pass(kernels)
    cfg = cfg or QuadratureConfig()
    orders = (_HERMITE_ORDER[d], _HERMITE_ORDER_LO[d])
    out = [None] * len(kernels)
    pending = sorted(range(len(kernels)), key=lambda i: kernels[i].t)
    while pending:
        t0 = kernels[pending[0]].t
        group = [i for i in pending if kernels[i].t <= _T_SPREAD * t0]
        pending = pending[len(group):]
        c2 = np.array([(kernels[i].t / t0) ** 2 for i in group])
        half_m = np.array([kernels[i].m / 2.0 for i in group])
        log_norm = np.log(c2) - np.array([math.lgamma(a) for a in half_m])

        def integrand(u):
            cu = np.multiply.outer(u, c2)
            with np.errstate(divide="ignore"):
                weight = np.exp((half_m - 1.0) * np.log(cu) - cu + log_norm)
            s = t0 ** 2 / (4.0 * u)
            return np.concatenate([_heat_value(f, x, s, d, n)[:, None] * weight
                                   for n in orders], axis=1)

        ests = integrate_radial(integrand, cfg, cutoff=2000.0)
        n_evals = ests.n_evals * sum(n ** d for n in orders)
        for i, hi, lo in zip(group, ests, ests[len(group):]):
            err = hi.error_bound + abs(hi.value - lo.value) + 1e-14 * (1.0 + abs(hi.value))
            out[i] = Estimate(hi.value, err, n_evals)
    return out


def qtm_mc(f: DifferentiableField, kernels,
           cfg: MonteCarloConfig | None = None) -> list[Estimate]:
    """Monte Carlo average of f over exact kernel draws, for a sequence of
    kernels with one d, m and x: one ``Estimate`` per kernel, in order.

    The kernels differ only in t, so they share every draw: each substream
    draws W = Z / sqrt(2 G) once, from the kernel at t = 1 and x = 0, and
    kernel k averages f(x + t_k W), so the estimates of one call share their
    noise.
    """
    kernels, d, x = _kernel_pass(kernels, same_m=True)
    unit = TKernel(d, kernels[0].m, 1.0, (0.0,) * d)

    def sample(rng, n):
        rows = np.ascontiguousarray(unit.draw(rng, n).T)   # W, one row per coordinate
        pts, out = np.empty_like(rows), np.empty((n, len(kernels)))
        for j, k in enumerate(kernels):
            np.multiply(rows, k.t, out=pts)
            pts += x[:, None]
            out[:, j] = f.value(pts.T)
        return out

    return mc_estimate(sample, cfg or MonteCarloConfig())


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


def harmonicity_residual(f: DifferentiableField, kernels,
                         cfg: QuadratureConfig | None = None) -> list[tuple[Estimate, Estimate]]:
    """Q_t f(x) and (Laplacian_x + d^2/dt^2 + ((1-m)/t) d/dt) Q_t f at (x, t)
    for a sequence of kernels with one d and one x.

    The residual is a stencil (second differences of spacing 2h on the d+1
    axes, the central t-difference of spacing h) under the integral sign:
    each point (x_k, t_k) averages f(x_k + t_k z) over z ~ nu_{(m+d)/2}, the
    base measure of the kernel.  No stencil point depends on m, and the
    centre is Q_t f's own integrand, so the kernels that share a t share one
    pass: each point is evaluated once per batch and added into two
    components per kernel, the centre value and sum_k c_k(m) f(x_k + t_k z),
    each against its own nu (``measures.integrate_stack``).  The value's tail
    scale is ``qtm_quadrature``'s, the residual's sums the points' ``TKernel``
    tail scales by |c_k|.  Returns one ``(value, residual)`` pair of
    ``Estimate``s per kernel, in order; ``n_evals`` counts the field
    evaluations of its pass.
    """
    kernels, d, x = _kernel_pass(kernels)
    if min(k.t for k in kernels) - 2 * _STEP <= 0:
        raise DomainError(f"the harmonicity stencil needs t > {2 * _STEP}")
    cfg, h, growth = cfg or QuadratureConfig(), _STEP, growth_degree(f)
    groups = {}
    for i, k in enumerate(kernels):
        groups.setdefault(k.t, []).append(i)
    out = [None] * len(kernels)
    for t, group in groups.items():
        n = len(group)
        c2 = np.full(n, 1.0 / (4.0 * h * h))
        c1 = np.array([(1.0 - kernels[i].m) / (2.0 * h * t) for i in group])
        # (x_k, t_k, c_k), the centre first; c_k holds point k's weight for every kernel
        stencil = [(x, t, -2.0 * (d + 1) * c2), (x, t + 2 * h, c2), (x, t - 2 * h, c2),
                   (x, t + h, c1), (x, t - h, -c1)]
        stencil += [(x + s * e, t, c2) for e in 2 * h * np.eye(d) for s in (1.0, -1.0)]

        def integrand(z):
            # one contiguous row per coordinate: adding x_k to (n, d) points
            # broadcasts over a length-d inner loop, several times slower
            z = np.ascontiguousarray(z.T)
            stack, pts = np.zeros((2 * n, z.shape[1])), np.empty_like(z)
            for k, (xk, tk, ck) in enumerate(stencil):
                np.multiply(z, tk, out=pts)   # one buffer for every stencil point
                pts += xk[:, None]
                vals = f.value(pts.T)
                if k == 0:   # the centre is Q_t f's own integrand
                    stack[:n] = vals
                stack[n:] += np.multiply.outer(ck, vals)
            return stack.T

        # a tail scale depends on the point, not on m
        point_scales = [TKernel(d, kernels[group[0]].m, tk, tuple(xk)).tail_scale(f, growth)
                        for xk, tk, _ in stencil]
        scales = [point_scales[0]] * n + [
            sum(abs(ck[j]) * sk for (_, _, ck), sk in zip(stencil, point_scales))
            for j in range(n)]
        nus = [kernels[i].base_measure() for i in group]
        ests = integrate_stack(integrand, nus + nus, cfg, [growth] * (2 * n), scales)
        n_evals = ests[0].n_evals * len(stencil)
        for j, i in enumerate(group):
            out[i] = tuple(Estimate(e.value, e.error_bound, n_evals)
                           for e in (ests[j], ests[n + j]))
    return out


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

    (est,) = mc_estimate(sample, mc)

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
