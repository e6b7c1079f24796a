"""Reference implementations that tests compare the library against."""
import numpy as np

from beckner.errors import DomainError
from beckner.numerics import fd_derivative


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
