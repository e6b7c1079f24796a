"""Reference implementations that tests compare the library against.

They share no code with the library: finite differences, integrals by
mpmath at 30 digits, and the sub-harmonicity conditions read branch by branch
on a grid of (y, z).
"""
import math

import mpmath as mp
import numpy as np

from beckner.errors import DomainError

_EPS = np.finfo(float).eps


def fd_derivative(field, point, multi_index, step: float | None = None,
                  domain=None) -> float:
    """Central finite difference of ``field`` at ``point``.

    ``multi_index`` is a tuple of per-coordinate derivative orders with total
    order <= 4; the error is O(step^2).  ``domain`` is an optional predicate;
    a stencil point outside it raises DomainError.
    """
    point = np.atleast_1d(np.asarray(point, dtype=float))
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


def half_space_operator_fd(G, d: int, m: float, point, step: float = 1e-2) -> float:
    """Finite-difference application of the half-space operator
    (Laplacian_x + d^2/dt^2 + ((1-m)/t) d/dt) to a function G(x, t): nested
    central stencils of ``fd_derivative``, one call of G per stencil visit."""
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


def power_surface(beta):
    """(y, z) -> (Phi_2, Phi_11, Phi_12, Phi_22) of Phi(y, z) = y^beta z."""
    return lambda y, z: (y ** beta, beta * (beta - 1) * y ** (beta - 2) * z,
                         beta * y ** (beta - 1), 0.0)


def phi_condition_report(partials, n: float, d: int, rho: float, y: float, z: float):
    """Which branch (if any) of the sub-harmonicity conditions holds at (y, z)
    for the surface whose partials ``partials(y, z)`` gives, and its numbers."""
    p2, p11, p12, p22 = partials(y, z)
    if p2 > 0:
        c2 = p2 * (n + 1 - d) / (n - d) + 2.0 * z * p22
        c3 = (n - d) * (n * p2 + 2.0 * (n - 1.0) * z * p22)
        denom = n * p2 + 2.0 * (n - 1.0) * z * p22
        cross = 2.0 * (n - 1.0) * z * p12 ** 2 / denom
        c4 = 2.0 * rho * p2 + p11 - cross
        # the extremal surface sits exactly at c4 = 0; allow roundoff there
        c4_scale = abs(2.0 * rho * p2) + abs(p11) + abs(cross) + 1e-30
        ok = c2 > 0 and c3 > 0 and c4 >= -1e-11 * c4_scale
        return "strict" if ok else None, {"phi2": p2, "c2": c2, "c3": c3, "c4": c4}
    if p2 == 0:
        if z * p22 == 0 and z * p12 == 0 and z * p11 >= 0:
            return "degenerate-flat", {"phi2": p2}
        if z * p22 > 0 and p11 * p22 - p12 ** 2 >= 0:
            return "degenerate-convex", {"phi2": p2}
    return None, {"phi2": p2}


def phi_conditions_on_grid(partials, n: float, d: int, grid, rho: float = 0.0):
    """Whether a branch holds at every (y, z) of ``grid``, and each point's
    numbers."""
    reports = [phi_condition_report(partials, n, d, rho, y, z) for y, z in grid]
    return all(branch is not None for branch, _ in reports), [num for _, num in reports]


def cauchy_mean_mp(h, b, breaks) -> float:
    """The mean of h against nu_b = (1+y^2)^{-b} / c on R (d = 1), by mpmath at
    30 digits: tanh-sinh quadrature split at ``breaks``, over the closed-form
    mass c = sqrt(pi) Gamma(b - 1/2) / Gamma(b).  ``h`` takes an mpf."""
    with mp.workdps(30):
        b = mp.mpf(b)
        pts = [-mp.inf] + [mp.mpf(x) for x in breaks] + [mp.inf]
        num = mp.quad(lambda y: h(y) * (1 + y * y) ** -b, pts)
        return float(num / (mp.sqrt(mp.pi) * mp.gamma(b - 0.5) / mp.gamma(b)))


def extension_bump_mp(a, c, d: int, m, t, x) -> float:
    """Q_t f(x) for f = 1 + exp(-a|y - c|^2) (``positive_bump``) at index m,
    by mpmath at 30 digits: the heat semigroup of the bump in closed form,
    averaged over u ~ Gamma(m/2),
    1 + int_0^inf (1 + a t^2/u)^{-d/2} e^{-a|x-c|^2 u/(u + a t^2)} gamma_{m/2}(u) du."""
    with mp.workdps(30):
        a, t, k = mp.mpf(a), mp.mpf(t), mp.mpf(m) / 2
        r2 = mp.fsum((mp.mpf(xi) - mp.mpf(ci)) ** 2 for xi, ci in zip(x, c))
        at2 = a * t * t

        def integrand(u):
            return ((1 + at2 / u) ** (-mp.mpf(d) / 2) * mp.exp(-a * r2 * u / (u + at2))
                    * u ** (k - 1) * mp.exp(-u))

        return float(1 + mp.quad(integrand, [0, 1, 4, 16, mp.inf]) / mp.gamma(k))


def trig_cauchy_mp(d: int, b, cutoff) -> float:
    """The integral of cos(y_1 + ... + y_d) against ``CauchyMeasure(d, b)``
    over the ball of radius ``cutoff``, by mpmath at 20 digits.  The wave's
    mean over the sphere of radius r is in closed form, 2 pi J_0(sqrt(2) r) on
    S^1 and 4 pi sin(sqrt(3) r)/(sqrt(3) r) on S^2, and is integrated against
    r^{d-1} (1 + r^2)^{-b} / c(2b - d, d), c(m, d) = pi^{d/2} Gamma(m/2) /
    Gamma((m + d)/2), on unit intervals, each shorter than a period."""
    if d not in (2, 3):
        raise DomainError("the closed-form angular mean covers d = 2 and 3")
    with mp.workdps(20):
        b, k = mp.mpf(b), mp.sqrt(d)
        norm = mp.pi ** (mp.mpf(d) / 2) * mp.gamma(b - mp.mpf(d) / 2) / mp.gamma(b)

        def mean(r):
            if d == 2:
                return 2 * mp.pi * mp.besselj(0, k * r)
            return 4 * mp.pi * mp.sinc(k * r)

        def integrand(r):
            return r ** (d - 1) * (1 + r * r) ** (-b) * mean(r)

        edges = [mp.mpf(j) for j in range(int(math.floor(cutoff)) + 1)] + [mp.mpf(cutoff)]
        return float(mp.quad(integrand, edges) / norm)
