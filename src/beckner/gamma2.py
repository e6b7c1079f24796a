"""Carre du champ calculus for the three built-in diffusion operators.

Operators are restricted to the conformal-Euclidean form a(x) Laplacian + X;
that covers the Euclidean space, the half-space operator with its singular
radial drift, and the stereographic sphere.  The iterated operator is
assembled from partial derivatives of the field (order 3), read through one
protocol, ``partials(points, order)``: test fields give them all from one
Taylor jet per point batch, the kernel-differentiated harmonic extension one
integral per partial at a single point.  Every pointwise entry point takes one
point (and returns floats) or an (n, dim) batch (and returns (n,) arrays).

The two identities behind the sub-harmonic corollary are read in closed form:
the quasi-model identity of the half-space operator (``qm_residual``) and the
sign conditions on Phi(y, z) = y^beta z (``phi_conditions``).
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError
from .fields import DifferentiableField, constant, coords, make_power_of_rho


class DiffusionOperator:
    """a(x) Laplacian + X . grad on R^dim, or on the part of it where
    ``domain(points)`` holds."""

    def __init__(self, dim, a, X, tag, domain=None):
        self.dim = dim
        self.a = a                  # DifferentiableField (conformal factor)
        self.X = X                  # list of DifferentiableField components
        self.tag = tag
        self._domain = domain

    def check_domain(self, points):
        bad = ~self._domain(points) if self._domain is not None else False
        if np.any(bad):
            raise DomainError(f"points {points[bad]} outside the operator's domain")


@lru_cache(maxsize=None)
def euclidean(d: int) -> DiffusionOperator:
    zero = [constant(0.0, d) for _ in range(d)]
    return DiffusionOperator(d, constant(1.0, d), zero, f"euclidean({d})")


@lru_cache(maxsize=None)
def halfspace_m(d: int, m: float) -> DiffusionOperator:
    """The operator Laplacian + d^2/dt^2 + ((1-m)/t) d/dt on R^d x (0, inf)."""
    dim = d + 1
    t = coords(dim)[-1]
    xs = [constant(0.0, dim) for _ in range(d)]
    xs.append((1.0 - m) * DifferentiableField(dim, "pow", -1.0, (t,)))
    return DiffusionOperator(dim, constant(1.0, dim), xs, f"halfspace_m({d},{m})",
                             domain=lambda p: p[..., -1] > 0)


@lru_cache(maxsize=None)
def sphere_stereo(d: int) -> DiffusionOperator:
    """Laplace-Beltrami of the d-sphere in the stereographic chart."""
    if d < 2:
        raise DomainError("the stereographic chart needs d >= 2")
    rho2 = make_power_of_rho(2.0, d)   # 1 + |y|^2
    xs = [(2.0 - d) / 2.0 * rho2 * s for s in coords(d)]
    return DiffusionOperator(d, 0.25 * rho2 ** 2, xs, f"sphere_stereo({d})")


# -- the pointwise calculus ------------------------------------------------

class _Jet:
    """The partials of order <= ``order`` of one field at a point or an (n, dim)
    batch, from one ``field.partials`` call: ``J(i, j, ...)`` along the listed
    axes, ``J()`` the value; floats at a point, (n,) arrays on a batch."""

    def __init__(self, field, x, order):
        self.dim = x.shape[-1]
        self._vals = field.partials(x, order)

    def __call__(self, *axes):
        return self._vals[tuple(axes.count(i) for i in range(self.dim))]


def _jets(op: DiffusionOperator, f, x, order):
    """Jets at x (a point or a batch) of f to ``order``, of a and each drift
    component to ``order - 1``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    op.check_domain(x)
    low = max(order - 1, 0)
    return _Jet(f, x, order), _Jet(op.a, x, low), [_Jet(X, x, low) for X in op.X]


def _grad(J):
    return [J(i) for i in range(J.dim)]


def _gamma(ja, u, v):
    """Gamma(f, g) = a grad f . grad g from the two gradients."""
    return ja() * sum(ui * vi for ui, vi in zip(u, v))


def _L(ja, jx, grad, pure2):
    """a Laplacian + X . grad of a field from its gradient and pure second partials."""
    return ja() * sum(pure2) + sum(X() * g for X, g in zip(jx, grad))


def _lf(jf, ja, jx):
    return _L(ja, jx, _grad(jf), [jf(i, i) for i in range(jf.dim)])


def _half_d_sq(jf, i):
    """(1/2) d_i |grad f|^2."""
    return sum(jf(j) * jf(i, j) for j in range(jf.dim))


def _gamma_grad(jf, ja):
    """d_i Gamma(f) = (d_i a) |grad f|^2 + a d_i |grad f|^2."""
    sq = sum(v * v for v in _grad(jf))
    return [ja(i) * sq + 2.0 * ja() * _half_d_sq(jf, i) for i in range(jf.dim)]


def _gamma2(jf, ja, jx):
    """Gamma_2(f) = (1/2) L Gamma(f) - Gamma(f, Lf); f to order 3, a to order 2."""
    dim, a0, f1 = jf.dim, ja(), _grad(jf)
    sq = sum(v * v for v in f1)
    g_pure2 = [ja(i, i) * sq + 4.0 * ja(i) * _half_d_sq(jf, i)
               + 2.0 * a0 * sum(jf(i, j) ** 2 + f1[j] * jf(i, i, j) for j in range(dim))
               for i in range(dim)]
    lap = sum(jf(j, j) for j in range(dim))
    grad_lf = [ja(k) * lap + a0 * sum(jf(j, j, k) for j in range(dim))
               + sum(jx[j](k) * f1[j] + jx[j]() * jf(j, k) for j in range(dim))
               for k in range(dim)]
    return 0.5 * _L(ja, jx, _gamma_grad(jf, ja), g_pure2) - _gamma(ja, f1, grad_lf)


def value_L_gamma(op: DiffusionOperator, f, x):
    """(f(x), Lf, Gamma(f)) at x from one set of jets."""
    jf, ja, jx = _jets(op, f, x, 2)
    f1 = _grad(jf)
    return jf(), _lf(jf, ja, jx), _gamma(ja, f1, f1)


def gamma2(op: DiffusionOperator, f, x) -> float | np.ndarray:
    """Gamma_2(f) = (1/2) L Gamma(f) - Gamma(f, Lf) from the definition."""
    return _gamma2(*_jets(op, f, x, 3))


def cd_residual(op: DiffusionOperator, f, x, rho: float, n: float) -> float | np.ndarray:
    """Gamma_2(f) - rho Gamma(f) - (Lf)^2 / n; >= 0 is the certificate."""
    if n == 0:
        raise DomainError("n = 0 has no 1/n term; use the tensor form")
    jf, ja, jx = _jets(op, f, x, 3)
    lf, f1 = _lf(jf, ja, jx), _grad(jf)
    return _gamma2(jf, ja, jx) - rho * _gamma(ja, f1, f1) - lf * lf / n


def qm_residual(d: int, m: float, x) -> float:
    """Largest entry of (n - D) Ric(L) - X (x) X for halfspace_m(d, m) on
    D = d + 1 coordinates, over all points of a batch.

    The drift X = (1 - m)/t e_t makes both tensors vanish but in their (t, t)
    entries, (1 - m)/t^2 and (1 - m)^2/t^2.  With n = d - m + 2 the identity
    is exact; the returned residual should vanish to machine precision.
    """
    x = np.asarray(x, dtype=float)
    halfspace_m(d, m).check_domain(x)
    n = d - m + 2.0
    t2 = x[..., -1] ** 2
    return float(np.max(np.abs((n - (d + 1)) * ((1.0 - m) / t2) - (1.0 - m) ** 2 / t2)))


# -- sub-harmonic functional machinery ------------------------------------

def phi_conditions(beta: float, n: float, d: int) -> bool:
    """Whether Phi(y, z) = y^beta z meets the sub-harmonicity conditions at
    rho = 0.

    Phi_2 = y^beta > 0 and Phi_22 = 0, so c2 = y^beta (n+1-d)/(n-d),
    c3 = (n-d) n y^beta and c4 = z y^(beta-2) [beta(beta-1) - 2(n-1)beta^2/n]
    = z y^(beta-2) beta (beta(2-n)/n - 1): no sign depends on (y, z).
    """
    if n == 0:   # m = d + 2: for Phi = z, n p2 + 2(n-1) z p22 = 0 and the cross term is 0/0
        raise DomainError("the sub-harmonicity conditions need n != 0")
    p11, cross = beta * (beta - 1.0), 2.0 * (n - 1.0) * beta ** 2 / n
    # c4 vanishes at the extremal beta* = n/(2-n); allow roundoff there
    return ((n - d) * n > 0 and (n + 1 - d) * (n - d) > 0
            and p11 - cross >= -1e-11 * (abs(p11) + abs(cross)))


def subharmonic_residual(op: DiffusionOperator, F, beta: float, point) -> float | np.ndarray:
    """L(F^beta Gamma(F)) for a harmonic F, assembled without differencing F.

    Uses the diffusion identity
    L(Phi(F, Gamma(F))) = 2 Phi_2 Gamma_2(F) + Phi_11 Gamma(F)
                          + 2 Phi_12 Gamma(F, Gamma(F)) + Phi_22 Gamma(Gamma F),
    valid when L F = 0, with Phi(y, z) = y^beta z, whose Phi_22 is 0.
    """
    jf, ja, jx = _jets(op, F, point, 3)
    y = jf()
    if np.any(y <= 0):
        raise DomainError("F must be strictly positive at every point")
    f1 = _grad(jf)
    z = _gamma(ja, f1, f1)
    return (2.0 * y ** beta * _gamma2(jf, ja, jx) + beta * (beta - 1) * y ** (beta - 2) * z * z
            + 2.0 * beta * y ** (beta - 1) * _gamma(ja, f1, _gamma_grad(jf, ja)))


# -- pointwise curvature checks from the small-t expansion ----------------

def cd1_residual(f: DifferentiableField, beta: float, d: int, x) -> float | np.ndarray:
    """Pointwise gap of the beta-weighted curvature inequality (Euclidean).

    Gamma_2(f) >= (beta+1)/(d(beta+1)-2beta) (Lap f)^2
                  - beta Gamma(f, Gamma f)/f - beta(beta-1)/2 Gamma(f)^2/f^2.
    """
    if not -1.0 < beta <= 0.0:
        raise DomainError("beta must lie in (-1, 0]")
    jf, ja, jx = _jets(euclidean(d), f, x, 3)
    fx = jf()
    if np.any(fx <= 0):
        raise DomainError("f must be positive at every point")
    lap, f1 = _lf(jf, ja, jx), _grad(jf)
    gam = _gamma(ja, f1, f1)
    rhs = ((beta + 1.0) / (d * (beta + 1.0) - 2.0 * beta) * lap ** 2
           - beta * _gamma(ja, f1, _gamma_grad(jf, ja)) / fx
           - 0.5 * beta * (beta - 1.0) * gam ** 2 / fx ** 2)
    return _gamma2(jf, ja, jx) - rhs


def reinforced_cd_residual(f: DifferentiableField, d: int, x) -> float | np.ndarray:
    """Gap of the reinforced flat curvature bound (needs Gamma(f) > 0, d >= 2)."""
    if d < 2:
        raise DomainError("the reinforced bound needs d >= 2")
    jf, ja, jx = _jets(euclidean(d), f, x, 3)
    f1 = _grad(jf)
    gam = _gamma(ja, f1, f1)
    if np.any(gam <= 0):
        raise DomainError("Gamma(f) vanishes at a point; bound undefined")
    lap = _lf(jf, ja, jx)
    gamma_f_gf = _gamma(ja, f1, _gamma_grad(jf, ja))
    rhs = (lap ** 2 / d
           + d / (d - 1.0) * (gamma_f_gf / (2.0 * gam) - lap / d) ** 2)
    return _gamma2(jf, ja, jx) - rhs
