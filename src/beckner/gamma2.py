"""Carre du champ calculus for the three built-in diffusion operators.

Operators are restricted to the conformal-Euclidean form a(x) Laplacian + X;
that covers the Euclidean space, the half-space operator with its singular
radial drift, and the stereographic sphere.  The iterated operator is
assembled from partial derivatives of the field (order 3), so any object
exposing ``partial(alpha, point)`` works: symbolic test fields as well as
the kernel-differentiated harmonic extension.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
import sympy as sp

from .errors import DomainError
from .fields import DifferentiableField, coords, multi_indices


@dataclass(frozen=True)
class CDParams:
    rho: float
    n: float


@dataclass(frozen=True)
class PhiSurface:
    """A smooth surface Phi(y, z) with its first and second partials."""
    phi: Callable[[float, float], float]
    phi1: Callable[[float, float], float]
    phi2: Callable[[float, float], float]
    phi11: Callable[[float, float], float]
    phi12: Callable[[float, float], float]
    phi22: Callable[[float, float], float]


def power_surface(beta: float) -> PhiSurface:
    """Phi(y, z) = y^beta z, the surface behind the sub-harmonic corollary."""
    return PhiSurface(
        phi=lambda y, z: y ** beta * z,
        phi1=lambda y, z: beta * y ** (beta - 1) * z,
        phi2=lambda y, z: y ** beta,
        phi11=lambda y, z: beta * (beta - 1) * y ** (beta - 2) * z,
        phi12=lambda y, z: beta * y ** (beta - 1),
        phi22=lambda y, z: 0.0,
    )


class DiffusionOperator:
    """a(x) Laplacian + X . grad on R^dim (or the upper half-space)."""

    def __init__(self, dim, a_field, x_fields, tag, domain_check=None,
                 ric=None, xx=None):
        self.dim = dim
        self.a = a_field            # DifferentiableField (conformal factor)
        self.X = x_fields           # list of DifferentiableField components
        self.tag = tag
        self._domain_check = domain_check
        self._ric = ric             # point -> (dim, dim) matrix or None
        self._xx = xx

    def check_domain(self, point):
        if self._domain_check is not None and not self._domain_check(point):
            raise DomainError(f"point {point} outside the operator's domain")

    def ric(self, point):
        if self._ric is None:
            raise DomainError(f"no analytic Ricci tensor for {self.tag}")
        return self._ric(np.atleast_1d(np.asarray(point, dtype=float)))

    def xx(self, point):
        if self._xx is None:
            raise DomainError(f"no analytic drift tensor for {self.tag}")
        return self._xx(np.atleast_1d(np.asarray(point, dtype=float)))


@lru_cache(maxsize=None)
def euclidean(d: int) -> DiffusionOperator:
    y = coords(d)
    one = DifferentiableField(sp.Integer(1), y, positive=True)
    zero = [DifferentiableField(sp.Integer(0), y) for _ in range(d)]
    z = lambda p: np.zeros((d, d))
    return DiffusionOperator(d, one, zero, f"euclidean({d})", ric=z, xx=z)


def halfspace_m(d: int, m: float) -> DiffusionOperator:
    """The operator Laplacian + d^2/dt^2 + ((1-m)/t) d/dt on R^d x (0, inf)."""
    dim = d + 1
    y = coords(dim)
    t = y[-1]
    one = DifferentiableField(sp.Integer(1), y, positive=True)
    xs = [DifferentiableField(sp.Integer(0), y) for _ in range(d)]
    xs.append(DifferentiableField((1 - sp.nsimplify(m)) / t, y, domain="half_space"))

    def ric(p):
        out = np.zeros((dim, dim))
        out[-1, -1] = (1.0 - m) / p[-1] ** 2
        return out

    def xx(p):
        out = np.zeros((dim, dim))
        out[-1, -1] = (1.0 - m) ** 2 / p[-1] ** 2
        return out

    return DiffusionOperator(dim, one, xs, f"halfspace_m({d},{m})",
                             domain_check=lambda p: float(np.atleast_1d(p)[-1]) > 0,
                             ric=ric, xx=xx)


@lru_cache(maxsize=None)
def sphere_stereo(d: int) -> DiffusionOperator:
    """Laplace-Beltrami of the d-sphere in the stereographic chart."""
    if d < 2:
        raise DomainError("the stereographic chart needs d >= 2")
    y = coords(d)
    r2 = sum(s ** 2 for s in y)
    a = DifferentiableField((1 + r2) ** 2 / 4, y, positive=True)
    xs = [DifferentiableField(-sp.Rational(d - 2, 2) * (1 + r2) * s, y) for s in y]
    return DiffusionOperator(d, a, xs, f"sphere_stereo({d})")


# -- first- and second-order calculus -------------------------------------

def _p(field, alpha, x):
    return float(field.partial(tuple(alpha), x))


def _unit(dim, i, order=1):
    a = [0] * dim
    a[i] = order
    return tuple(a)


def op_L(op: DiffusionOperator, f, x) -> float:
    """L f = a Laplacian(f) + X . grad f at x."""
    op.check_domain(x)
    dim = op.dim
    lap = sum(_p(f, _unit(dim, i, 2), x) for i in range(dim))
    drift = sum(op.X[i].value(x) * _p(f, _unit(dim, i), x) for i in range(dim))
    return float(op.a.value(x)) * lap + drift


def carre_du_champ(op: DiffusionOperator, f, g, x) -> float:
    """Gamma(f, g) = a grad f . grad g for conformal operators."""
    op.check_domain(x)
    dim = op.dim
    dot = sum(_p(f, _unit(dim, i), x) * _p(g, _unit(dim, i), x) for i in range(dim))
    return float(op.a.value(x)) * dot


def gamma(op: DiffusionOperator, f, x) -> float:
    return carre_du_champ(op, f, f, x)


def _gamma_partials(op: DiffusionOperator, f, x):
    """Value, gradient and pure second partials of Gamma(f) at x.

    Needs partials of f to order 3 and of the conformal factor to order 2.
    """
    dim = op.dim
    a0 = float(op.a.value(x))
    a1 = [_p(op.a, _unit(dim, i), x) for i in range(dim)]
    a2 = [_p(op.a, _unit(dim, i, 2), x) for i in range(dim)]
    f1 = [_p(f, _unit(dim, j), x) for j in range(dim)]
    f2 = [[_p(f, tuple(np.add(_unit(dim, i), _unit(dim, j))), x)
           for j in range(dim)] for i in range(dim)]
    sq = sum(v * v for v in f1)
    val = a0 * sq
    grad = [a1[i] * sq + 2.0 * a0 * sum(f1[j] * f2[i][j] for j in range(dim))
            for i in range(dim)]
    second = []
    for i in range(dim):
        f3 = [_p(f, tuple(np.add(_unit(dim, i, 2), _unit(dim, j))), x)
              for j in range(dim)]
        s = (a2[i] * sq
             + 4.0 * a1[i] * sum(f1[j] * f2[i][j] for j in range(dim))
             + 2.0 * a0 * sum(f2[i][j] ** 2 + f1[j] * f3[j] for j in range(dim)))
        second.append(s)
    return val, grad, second


def gamma2(op: DiffusionOperator, f, x) -> float:
    """Gamma_2(f) = (1/2) L Gamma(f) - Gamma(f, Lf) from the definition."""
    op.check_domain(x)
    dim = op.dim
    a0 = float(op.a.value(x))
    _, g_grad, g_second = _gamma_partials(op, f, x)
    xvals = [op.X[i].value(x) for i in range(dim)]
    l_gamma = a0 * sum(g_second) + sum(xvals[i] * g_grad[i] for i in range(dim))

    # grad(Lf): needs a to order 1, X to order 1, f to order 3
    a1 = [_p(op.a, _unit(dim, i), x) for i in range(dim)]
    lap = sum(_p(f, _unit(dim, j, 2), x) for j in range(dim))
    f1 = [_p(f, _unit(dim, j), x) for j in range(dim)]
    grad_lf = []
    for k in range(dim):
        d_lap = sum(_p(f, tuple(np.add(_unit(dim, j, 2), _unit(dim, k))), x)
                    for j in range(dim))
        d_drift = sum(_p(op.X[j], _unit(dim, k), x) * f1[j]
                      + xvals[j] * _p(f, tuple(np.add(_unit(dim, j), _unit(dim, k))), x)
                      for j in range(dim))
        grad_lf.append(a1[k] * lap + a0 * d_lap + d_drift)
    gamma_f_lf = a0 * sum(f1[k] * grad_lf[k] for k in range(dim))
    return 0.5 * l_gamma - gamma_f_lf


def gamma2_bochner(op: DiffusionOperator, f, x) -> float:
    """Hessian-norm + Ric(L) form; only for builtins with a == 1."""
    op.check_domain(x)
    dim = op.dim
    hess = np.array([[_p(f, tuple(np.add(_unit(dim, i), _unit(dim, j))), x)
                      for j in range(dim)] for i in range(dim)])
    grad = np.array([_p(f, _unit(dim, i), x) for i in range(dim)])
    return float(np.sum(hess * hess) + grad @ op.ric(x) @ grad)


def cd_residual(op: DiffusionOperator, f, x, cd: CDParams) -> float:
    """Gamma_2(f) - rho Gamma(f) - (Lf)^2 / n; >= 0 is the certificate."""
    if cd.n == 0:
        raise DomainError("n = 0 has no 1/n term; use the tensor form")
    lf = op_L(op, f, x)
    return gamma2(op, f, x) - cd.rho * gamma(op, f, x) - lf * lf / cd.n


def qm_residual(op: DiffusionOperator, x) -> float:
    """Largest entry of (n - dim) Ric(L) - X (x) X for the half-space builtin.

    With n = (base dimension) - m + 2 the identity is exact; the returned
    residual should vanish to machine precision.
    """
    if not op.tag.startswith("halfspace_m"):
        raise DomainError("the quasi-model identity targets the half-space operator")
    op.check_domain(x)
    d_base = op.dim - 1
    m = float(op.tag.split(",")[1].rstrip(")"))
    n = d_base - m + 2.0
    T = (n - op.dim) * op.ric(x) - op.xx(x)
    return float(np.max(np.abs(T)))


# -- sub-harmonic functional machinery ------------------------------------

_GRADIENT_BRANCH = "strict"
_DEGENERATE_FLAT = "degenerate-flat"
_DEGENERATE_CONVEX = "degenerate-convex"


def phi_condition_report(phi: PhiSurface, n: float, d: int, rho: float,
                         y: float, z: float):
    """Which branch (if any) of the sub-harmonicity conditions holds at (y, z)."""
    p2 = phi.phi2(y, z)
    p11 = phi.phi11(y, z)
    p12 = phi.phi12(y, z)
    p22 = phi.phi22(y, z)
    if p2 > 0:
        c2 = p2 * (n + 1 - d) / (n - d) + 2.0 * z * p22
        c3 = (n - d) * (n * p2 + 2.0 * (n - 1.0) * z * p22)
        denom = n * p2 + 2.0 * (n - 1.0) * z * p22
        cross = 2.0 * (n - 1.0) * z * p12 ** 2 / denom
        c4 = 2.0 * rho * p2 + p11 - cross
        # the extremal surface sits exactly at c4 = 0; allow roundoff there
        c4_scale = abs(2.0 * rho * p2) + abs(p11) + abs(cross) + 1e-30
        ok = c2 > 0 and c3 > 0 and c4 >= -1e-11 * c4_scale
        return (_GRADIENT_BRANCH if ok else None,
                {"phi2": p2, "c2": c2, "c3": c3, "c4": c4})
    if p2 == 0:
        if z * p22 == 0 and z * p12 == 0 and z * p11 >= 0:
            return _DEGENERATE_FLAT, {"phi2": p2}
        if z * p22 > 0 and p11 * p22 - p12 ** 2 >= 0:
            return _DEGENERATE_CONVEX, {"phi2": p2}
    return None, {"phi2": p2}


def phi_conditions(phi: PhiSurface, n: float, d: int, grid, rho: float = 0.0):
    """Evaluate the branch conditions over a grid of (y, z) points.

    Returns (overall pass, list of per-point records).
    """
    records = []
    ok = True
    for (y, z) in grid:
        if z <= 0:
            raise DomainError("grid points need z > 0")
        branch, detail = phi_condition_report(phi, n, d, rho, y, z)
        records.append({"y": y, "z": z, "branch": branch, **detail})
        ok = ok and branch is not None
    return ok, records


def theta_admissible(theta: DifferentiableField, n: float, grid) -> bool:
    """2 (n-1)/n theta'^2 <= theta theta'' pointwise (n < 0)."""
    if theta.dim != 1:
        raise DomainError("theta must be a one-variable profile")
    if n >= 0:
        raise DomainError("admissibility is stated for n < 0")
    for y in np.atleast_1d(np.asarray(grid, dtype=float)):
        v = theta.value(np.array([y]))
        if v <= 0:
            raise DomainError("theta must be positive on the grid")
        d1 = theta.partial((1,), np.array([y]))
        d2 = theta.partial((2,), np.array([y]))
        if 2.0 * (n - 1.0) / n * d1 * d1 > v * d2 + 1e-12 * (abs(v * d2) + 1.0):
            return False
    return True


def subharmonic_residual(op: DiffusionOperator, F, beta: float, point) -> float:
    """L(F^beta Gamma(F)) for a harmonic F, assembled without differencing F.

    Uses the diffusion identity
    L(Phi(F, Gamma(F))) = 2 Phi_2 Gamma_2(F) + Phi_11 Gamma(F)
                          + 2 Phi_12 Gamma(F, Gamma(F)) + Phi_22 Gamma(Gamma F),
    valid when L F = 0, with Phi(y, z) = y^beta z.
    """
    op.check_domain(point)
    dim = op.dim
    y = F.value(point) if hasattr(F, "value") else float(F(point))
    if y <= 0:
        raise DomainError("F must be strictly positive at the point")
    a0 = float(op.a.value(point))
    g_val, g_grad, _ = _gamma_partials(op, F, point)
    f1 = [_p(F, _unit(dim, i), point) for i in range(dim)]
    gam2 = gamma2(op, F, point)
    gamma_f_gf = a0 * sum(f1[i] * g_grad[i] for i in range(dim))
    gamma_gf_gf = a0 * sum(v * v for v in g_grad)
    s = power_surface(beta)
    z = g_val
    return (2.0 * s.phi2(y, z) * gam2 + s.phi11(y, z) * z
            + 2.0 * s.phi12(y, z) * gamma_f_gf + s.phi22(y, z) * gamma_gf_gf)


# -- pointwise curvature checks from the small-t expansion ----------------

def cd1_residual(f: DifferentiableField, beta: float, d: int, x) -> float:
    """Pointwise gap of the beta-weighted curvature inequality (Euclidean).

    Gamma_2(f) >= (beta+1)/(d(beta+1)-2beta) (Lap f)^2
                  - beta Gamma(f, Gamma f)/f - beta(beta-1)/2 Gamma(f)^2/f^2.
    """
    if not -1.0 < beta <= 0.0:
        raise DomainError("beta must lie in (-1, 0]")
    op = euclidean(d)
    fx = float(f.value(x))
    if fx <= 0:
        raise DomainError("f must be positive at the point")
    lap = f.laplacian(x)
    gam = gamma(op, f, x)
    _, g_grad, _ = _gamma_partials(op, f, x)
    f1 = [_p(f, _unit(d, i), x) for i in range(d)]
    gamma_f_gf = sum(f1[i] * g_grad[i] for i in range(d))
    lhs = gamma2(op, f, x)
    rhs = ((beta + 1.0) / (d * (beta + 1.0) - 2.0 * beta) * lap ** 2
           - beta * gamma_f_gf / fx
           - 0.5 * beta * (beta - 1.0) * gam ** 2 / fx ** 2)
    return lhs - rhs


def reinforced_cd_residual(f: DifferentiableField, d: int, x) -> float:
    """Gap of the reinforced flat curvature bound (needs Gamma(f) > 0, d >= 2)."""
    if d < 2:
        raise DomainError("the reinforced bound needs d >= 2")
    op = euclidean(d)
    gam = gamma(op, f, x)
    if gam <= 0:
        raise DomainError("Gamma(f) vanishes at the point; bound undefined")
    lap = f.laplacian(x)
    _, g_grad, _ = _gamma_partials(op, f, x)
    f1 = [_p(f, _unit(d, i), x) for i in range(d)]
    gamma_f_gf = sum(f1[i] * g_grad[i] for i in range(d))
    lhs = gamma2(op, f, x)
    rhs = (lap ** 2 / d
           + d / (d - 1.0) * (gamma_f_gf / (2.0 * gam) - lap / d) ** 2)
    return lhs - rhs
