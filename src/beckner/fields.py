"""Differentiable scalar test fields.

Fields are symbolic expressions (sympy) with every partial derivative up to
order 4 generated analytically and lambdified on demand.  All evaluation
entry points are vectorized over an (n, d) array of points.  Combinators
(sum, scale, power, affine precomposition, composition with a scalar
profile) stay inside the class, so chain rules are exact.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
import sympy as sp

from .errors import DomainError

FULL_SPACE = "full_space"
HALF_SPACE = "half_space"


def coords(d: int):
    return sp.symbols(f"y0:{d}", real=True)


class DifferentiableField:
    """Scalar field on R^d with analytic partials to order 4.

    ``positive`` marks fields guaranteed to be bounded away from zero, the
    precondition for negative powers.
    """

    def __init__(self, expr, syms, domain: str = FULL_SPACE, positive: bool = False):
        self.syms = tuple(syms)
        self.dim = len(self.syms)
        self.expr = sp.sympify(expr)
        self.domain = domain
        self.positive = positive
        self._fns = {}
        self._grad_norm_squared = None

    # -- evaluation ---------------------------------------------------------
    def _fn(self, alpha):
        fn = self._fns.get(alpha)
        if fn is None:
            e = self.expr
            for s, k in zip(self.syms, alpha):
                if k:
                    e = sp.diff(e, s, k)
            fn = sp.lambdify(self.syms, e, modules="numpy")
            self._fns[alpha] = fn
        return fn

    def _eval(self, alpha, points):
        pts = np.asarray(points, dtype=float)
        scalar = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[-1] != self.dim:
            raise DomainError(f"points must have dimension {self.dim}")
        out = self._fn(alpha)(*(pts[:, i] for i in range(self.dim)))
        out = np.broadcast_to(np.asarray(out, dtype=float), (pts.shape[0],)).copy()
        return float(out[0]) if scalar else out

    def value(self, points):
        return self._eval((0,) * self.dim, points)

    def __call__(self, points):
        return self.value(points)

    def partial(self, alpha, points):
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dim or any(a < 0 for a in alpha):
            raise DomainError("bad multi-index")
        if sum(alpha) > 4:
            raise DomainError("analytic derivatives available to order 4 only")
        return self._eval(alpha, points)

    def gradient(self, points):
        cols = [self.partial(tuple(1 if j == i else 0 for j in range(self.dim)), points)
                for i in range(self.dim)]
        return np.stack([np.atleast_1d(c) for c in cols], axis=-1) \
            if np.ndim(cols[0]) else np.array(cols)

    def laplacian(self, points):
        acc = None
        for i in range(self.dim):
            term = self.partial(tuple(2 if j == i else 0 for j in range(self.dim)), points)
            acc = term if acc is None else acc + term
        return acc

    def in_domain(self, point) -> bool:
        if self.domain == HALF_SPACE:
            return float(np.atleast_1d(point)[-1]) > 0.0
        return True

    # -- combinators --------------------------------------------------------
    def _like(self, expr, positive=None):
        return DifferentiableField(expr, self.syms, domain=self.domain,
                                   positive=self.positive if positive is None else positive)

    def __add__(self, other):
        if isinstance(other, DifferentiableField):
            return self._like(self.expr + other.expr,
                              positive=self.positive and other.positive)
        return self._like(self.expr + sp.Float(other), positive=False)

    def __mul__(self, other):
        if isinstance(other, DifferentiableField):
            return self._like(self.expr * other.expr,
                              positive=self.positive and other.positive)
        return self._like(sp.Float(other) * self.expr,
                          positive=self.positive and other > 0)

    __rmul__ = __mul__

    def power(self, beta):
        """f^beta; non-integer or negative beta requires a positive field."""
        if (beta != int(beta) or beta < 0) and not self.positive:
            raise DomainError(
                "non-integer/negative powers require a strictly positive field")
        return self._like(self.expr ** sp.nsimplify(beta), positive=self.positive)

    def compose_scalar(self, profile_expr, var):
        """profile(f) for a 1-D sympy expression ``profile_expr`` in ``var``."""
        return self._like(profile_expr.subs(var, self.expr), positive=False)

    def grad_norm_squared(self):
        """The field |grad f|^2, used as the energy density Gamma(f).

        Built once per field, so its compiled partials are reused.
        """
        if self._grad_norm_squared is None:
            e = sum(sp.diff(self.expr, s) ** 2 for s in self.syms)
            self._grad_norm_squared = self._like(e, positive=False)
        return self._grad_norm_squared


def affine_precompose(f: DifferentiableField, t: float, x) -> DifferentiableField:
    """The field y -> f(t y + x)."""
    if t <= 0:
        raise DomainError("scale t must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (f.dim,):
        raise DomainError("shift has wrong dimension")
    sub = {s: sp.Float(t) * s + sp.Float(xi) for s, xi in zip(f.syms, x)}
    return DifferentiableField(f.expr.subs(sub, simultaneous=True), f.syms,
                               domain=f.domain, positive=f.positive)


# -- library --------------------------------------------------------------

def constant(c: float, d: int) -> DifferentiableField:
    return DifferentiableField(sp.Float(c), coords(d), positive=c > 0)


def coordinate(i: int, d: int) -> DifferentiableField:
    y = coords(d)
    if not 0 <= i < d:
        raise DomainError("coordinate index out of range")
    return DifferentiableField(y[i], y)


def quadratic(d: int) -> DifferentiableField:
    y = coords(d)
    return DifferentiableField(sum(s ** 2 for s in y), y)


def trig(k, d: int) -> DifferentiableField:
    """cos(k . y)."""
    y = coords(d)
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.shape != (d,):
        raise DomainError("wave vector has wrong dimension")
    return DifferentiableField(sp.cos(sum(sp.Float(ki) * s for ki, s in zip(k, y))), y)


def gaussian_bump(a: float, c, d: int) -> DifferentiableField:
    y = coords(d)
    c = np.atleast_1d(np.asarray(c, dtype=float))
    e = sp.exp(-sp.Float(a) * sum((s - sp.Float(ci)) ** 2 for s, ci in zip(y, c)))
    return DifferentiableField(e, y)


def positive_bump(a: float, c, d: int) -> DifferentiableField:
    """1 + exp(-a|y-c|^2); strictly positive, safe for negative powers."""
    f = gaussian_bump(a, c, d)
    return DifferentiableField(1 + f.expr, f.syms, positive=True)


def make_power_of_rho(alpha: float, d: int) -> DifferentiableField:
    """(1 + |y|^2)^{alpha/2}."""
    y = coords(d)
    e = (1 + sum(s ** 2 for s in y)) ** (sp.nsimplify(alpha) / 2)
    return DifferentiableField(e, y, positive=True)


def multi_indices(d: int, max_order: int):
    """All multi-indices in d variables with total order <= max_order."""
    out = []
    for order in range(max_order + 1):
        for alpha in itertools.product(range(order + 1), repeat=d):
            if sum(alpha) == order:
                out.append(alpha)
    return out


@lru_cache(maxsize=None)
def standard_library(d: int):
    """The built-in test fields used across the verification suites."""
    lib = {
        "one": constant(1.0, d),
        "coordinate": coordinate(0, d),
        "quadratic": quadratic(d),
        "trig": trig([1.0] * d, d),
        "gaussian_bump": gaussian_bump(1.0, [0.3] * d, d),
        "positive_bump": positive_bump(1.0, [0.3] * d, d),
        "power_of_rho": make_power_of_rho(-2.0, d),
    }
    return lib
