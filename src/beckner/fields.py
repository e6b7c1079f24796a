"""Differentiable scalar test fields: small expressions on R^d of constants,
coordinates, +, *, exp, cos, log, real powers, partials d_i and affine maps.

On an (n, d) batch a field evaluates to plain numpy arrays (values only) or to
one truncated Taylor jet of order k, the coefficients c_alpha (|alpha| <= k)
with D^alpha f = alpha! c_alpha.  Products of jets multiply truncated
polynomials, exp/cos/log/powers act through their one-variable Taylor series,
an affine map scales c_alpha by t^|alpha| and d_i shifts the indices.  The jet
of a constant is the number itself: adding it touches c_0 only and
multiplying by it scales.

A jet is built block by block, ``_BLOCK`` points at a time, and the blocks
are written into the result once; this holds also for a jet that a partial
d_i pulls inside a values walk, such as |grad f|^2.  Each block's memo keeps
only the jets that its walk requests more than once.  The reason is memory,
not arithmetic: built on the whole of one 17 280-point quadrature panel in
d = 3 with every node's jet kept, an order-1 jet of ``positive_bump`` peaks at
12.7 MB of temporaries, which the allocator returns to the system and
page-faults afresh on every call, and takes 10 ms against 0.2-0.4 ms for the
values (2-core x86 VM).  Block by block it peaks at 1.2 MB, 0.55 MB of which
is the result, and takes 1-2 ms.

Plain values (order 0, no d_i in the expression) are one walk over the whole
batch: their operands are unnamed temporaries, which numpy reuses in place,
and per-block Python overhead would cost more than blocks save.

``stacked`` evaluates several fields, the roots, as the columns of one
stack, with one walk of all of them per block and one memo across them: a
jet that several roots request is built once.  Where a walk builds a node's
order-1 jet anyway, the node's values are that jet's row 0, bit for bit the
same numbers, so f^2, f^beta and |grad f|^2 w cost one jet of f per block.
"""
from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache, reduce

import numpy as np

from .errors import DomainError


def multi_indices(d: int, max_order: int):
    """All multi-indices in d variables with total order <= max_order."""
    return [a for order in range(max_order + 1)
            for a in itertools.product(range(order + 1), repeat=d) if sum(a) == order]


class _Basis:
    """The multi-indices of order <= k in d variables, by order (a jet of lower
    order is a prefix), and the tables of the jet product and of d_i."""

    def __init__(self, d: int, k: int):
        self.alphas = alphas = multi_indices(d, k)
        self.index = index = {a: i for i, a in enumerate(alphas)}
        self.fact = np.array([math.prod(map(math.factorial, a)) for a in alphas], float)
        self.order = np.array([sum(a) for a in alphas])
        # the pairs a + b = g, a, b != 0, g-major: b's index from a mixed-radix code
        grid, radix = np.array(alphas).reshape(-1, d), (k + 1) ** np.arange(d)
        lookup = np.zeros((k + 1) ** d, dtype=int)
        lookup[grid @ radix] = np.arange(len(alphas))
        diff = grid[:, None, :] - grid[None, 1:, :]
        rows, left = np.nonzero(np.all(diff >= 0, axis=2) & (diff.sum(axis=2) > 0))
        self.left, self.right = left + 1, lookup[diff[rows, left] @ radix]
        self.first2 = d + 1   # the first g of order 2
        # sums the pairs a + b = g, a, b != 0, of each g over a whole batch
        self.scatter = (rows == np.arange(d + 1, len(alphas))[:, None]).astype(float)
        # d_i of a jet of order k - 1 from this one: c'_a = (a_i + 1) c_{a + e_i}
        lower = [a for a in alphas if sum(a) < k]
        self.shift = [(np.array([index[a[:i] + (a[i] + 1,) + a[i + 1:]] for a in lower]),
                       np.array([a[i] + 1.0 for a in lower])[:, None]) for i in range(d)]

    def cross(self, u, v, out):
        """Adds the product of the non-constant parts of two jets to ``out``
        (orders >= 2 only; an order-1 jet has no such terms)."""
        if self.first2 < len(self.alphas):
            out[self.first2:] += self.scatter @ (u[self.left] * v[self.right])
        return out

    def mul(self, u, w):
        """The product of two jets."""
        out = u * w[0]
        out += w * u[0]
        self.cross(u, w, out)
        out[0] = u[0] * w[0]
        return out

    def compose(self, u, derivs):
        """g(u) = sum_j g^(j)(u_0) h^j / j! with h = u - u_0, from the
        g^(j)(u_0), j = 0..k; a g^(j) that is exactly 0 ends the series."""
        out, hj = derivs[1] * u, u
        out[0] = derivs[0]
        for j, dj in enumerate(derivs[2:], start=2):
            if isinstance(dj, float) and dj == 0.0:
                break
            hj = self.cross(hj, u, np.zeros_like(u))
            out += (dj / math.factorial(j)) * hj
        return out


_basis = lru_cache(maxsize=None)(_Basis)   # one basis per (d, k)
_BLOCK = 4096   # points per block of a jet: 128 KB at order 1 in d = 3


def falling_factorial(beta: float, k: int) -> float:
    """beta (beta - 1) ... (beta - k + 1), the factor of the k-th derivative of v^beta."""
    return math.prod(beta - i for i in range(k))


def _derivs(op: str, beta, u0, k: int):
    """g^(j)(u0), j = 0..k, of exp, cos, log or v^beta (exactly 0 if its factor is)."""
    if op == "exp":
        return [np.exp(u0)] * (k + 1)
    if op == "cos":
        c, s = np.cos(u0), np.sin(u0)
        return [(c, -s, -c, s)[j % 4] for j in range(k + 1)]
    if op == "log":
        return [np.log(u0)] + [-math.factorial(j - 1) * (-1.0 / u0) ** j
                               for j in range(1, k + 1)]
    facs = [falling_factorial(beta, j) for j in range(k + 1)]
    return [c * u0 ** (beta - j) if c else 0.0 for j, c in enumerate(facs)]


class DifferentiableField:
    """Scalar field on R^d with exact partials to order 4: a node ``op`` with
    its constant, coordinate, exponent, axis or (scale, shift) ``param`` and
    operand fields ``args``.  ``positive`` marks fields bounded away from zero,
    the precondition for negative powers; ``degree`` is the polynomial degree (-inf
    for the zero partial of a constant), None for a field that is not a polynomial;
    ``growth`` is a structural bound g with |f| <= C (1 + |y|)^g, the degree carried
    through +, * and powers with cos counted as 0, None where the structure
    gives none (exp, log, negative or fractional powers, a partial of a
    non-polynomial).

    A jet is built ``_BLOCK`` points at a time and its memo keeps only the
    jets a walk requests more than once (``_memo``), so the working set of a
    jet, also one pulled by a partial d_i inside a values walk, is a few
    blocks whatever the batch.  Plain values of an expression without d_i
    are one walk over the whole batch (see the module docstring)."""

    def __init__(self, dim: int, op: str, param=None, args=(), positive: bool = False):
        self.dim, self.op, self.param, self.args = dim, op, param, tuple(args)
        self.positive = positive
        if any(a.dim != dim for a in self.args):
            raise DomainError("operands live in different dimensions")
        rule = {"const": lambda g: 0, "coord": lambda g: 1, "add": max, "affine": max,
                "mul": sum, "d": lambda g: g[0] - 1 if g[0] > 0 else -math.inf,
                "pow": lambda g: (None if param < 0 or param % 1
                                  else g[0] * int(param) if param else 0)}

        def carry(attr):
            g = [getattr(a, attr) for a in self.args]
            return None if None in g or op not in rule else rule[op](g)

        self.degree = carry("degree")
        # |cos| <= 1, but d_i cos(...) is bounded only when its argument is
        self.growth = 0 if op == "cos" else self.degree if op == "d" else carry("growth")
        self.has_partial = op == "d" or any(a.has_partial for a in self.args)
        self._shared = {}   # per walk order: the jets that its memo keeps

    # -- evaluation ---------------------------------------------------------
    def _memo(self, k):
        """An empty memo for a walk of order k: a slot for each jet that the
        walk requests more than once.  Every other jet is freed once used."""
        if k not in self._shared:
            self._shared[k] = _plan((self,), k)
        return dict.fromkeys(self._shared[k])

    def _count(self, k, seen, jets=()):
        """Counts the jets (node, order) that a walk of order k requests; a
        node's values count as its order-1 jet when ``jets`` holds that jet,
        since the walk reads them off its row 0."""
        if k == 0 and (id(self), 1) in jets:
            k = 1
        if k:
            key = (id(self), k)
            seen[key] = seen.get(key, 0) + 1
            if seen[key] > 1:
                return
        if self.op == "d":
            self.args[0]._count(k + 1, seen, jets)
        elif self.op != "affine":   # an affine map walks its operand apart
            for a in self.args:
                a._count(k, seen, jets)

    def _walk(self, pts, k, memo):
        """Values (k = 0) or the order-k jet, built once per node; a
        constant's jet is a number.  Values whose order-1 jet the memo keeps
        are that jet's row 0, which equals them bit for bit."""
        if k == 0 and (id(self), 1) in memo:
            jet = self._walk(pts, 1, memo)
            return jet if isinstance(jet, float) else jet[0]
        key = (id(self), k)
        if key not in memo:
            return self._node(pts, k, memo)
        if memo[key] is None:
            memo[key] = self._node(pts, k, memo)
        return memo[key]

    def _node(self, pts, k, memo):
        op, p = self.op, self.param
        if op == "const":
            return p
        if op == "coord":
            if k == 0:
                return pts[:, p]
            b = _basis(self.dim, k)
            out = np.zeros((len(b.alphas), len(pts)))
            out[0] = pts[:, p]
            out[b.index[tuple(int(i == p) for i in range(self.dim))]] = 1.0
            return out
        if op == "affine":
            t, x = p
            # t y + x in the (d, n) row layout: adding x to (n, d) points
            # broadcasts over a length-d inner loop, several times slower
            rows = np.multiply(pts.T, t, out=np.empty((self.dim, len(pts))))
            rows += x[:, None]
            inner = self.args[0]._walk(rows.T, k, self.args[0]._memo(k))
            if k and not isinstance(inner, float):
                inner *= (t ** _basis(self.dim, k).order)[:, None]
            return inner
        if op == "d":
            jet = self.args[0]._walk(pts, k + 1, memo)
            if isinstance(jet, float):
                return 0.0
            rows, fac = _basis(self.dim, k + 1).shift[p]
            out = jet[rows]
            out *= fac
            return out[0] if k == 0 else out
        a = self.args   # values: no named temporaries, so numpy reuses them in place
        if k == 0 and op == "add":
            return a[0]._walk(pts, 0, memo) + a[1]._walk(pts, 0, memo)
        if k == 0 and op == "mul":
            return a[0]._walk(pts, 0, memo) * a[1]._walk(pts, 0, memo)
        if k == 0:
            return a[0]._walk(pts, 0, memo) ** p if op == "pow" else getattr(np, op)(
                a[0]._walk(pts, 0, memo))
        u = a[0]._walk(pts, k, memo)
        if op in ("add", "mul"):
            w = a[1]._walk(pts, k, memo)
            if isinstance(u, float) != isinstance(w, float):   # a jet and a number c
                jet, c = (w, u) if isinstance(u, float) else (u, w)
                if op == "mul":
                    return jet * c
                out = jet.copy()
                out[0] += c
                return out
            if op == "add" or isinstance(u, float):
                return getattr(operator, op)(u, w)
            return _basis(self.dim, k).mul(u, w)
        if isinstance(u, float):
            return np.power(u, p) if op == "pow" else getattr(np, op)(u)
        return _basis(self.dim, k).compose(u, _derivs(op, p, u[0], k))

    def _eval(self, points, order: int):
        """The values (order 0) or the jet of that order on a batch; a jet,
        also one under a d_i, is built ``_BLOCK`` points at a time."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[-1] != self.dim:
            raise DomainError(f"points must have dimension {self.dim}")
        if not (order or self.has_partial):
            out = self._walk(pts, 0, {})
            if isinstance(out, float) or np.may_share_memory(out, pts):
                # a constant, or a coordinate: a view of the caller's points
                return np.broadcast_to(np.asarray(out, dtype=float), (len(pts),)).copy()
            return out
        out = np.zeros((len(_basis(self.dim, order).alphas), len(pts)))
        for s in range(0, len(pts), _BLOCK):
            jet = self._walk(pts[s:s + _BLOCK], order, self._memo(order))
            # values, or a number: the jet of a constant, all in c_0
            out[slice(None) if np.ndim(jet) == 2 else 0, s:s + _BLOCK] = jet
        return out if order else out[0]

    def value(self, points):
        out = self._eval(points, 0)
        return float(out[0]) if np.ndim(points) == 1 else out

    __call__ = value

    def partials(self, points, order: int) -> dict:
        """Every partial of order <= ``order`` from one jet, as {alpha: values}:
        floats at a single point, (n,) arrays on a batch."""
        if order > 4:
            raise DomainError("analytic derivatives available to order 4 only")
        b = _basis(self.dim, order)
        vals = np.atleast_2d(self._eval(points, order))   # order 0: one row
        vals *= b.fact[:, None]
        return dict(zip(b.alphas, vals[:, 0].tolist() if np.ndim(points) == 1 else vals))

    def partial(self, alpha, points):
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dim or any(a < 0 for a in alpha):
            raise DomainError("bad multi-index")
        return self.partials(points, sum(alpha))[alpha]

    # -- combinators --------------------------------------------------------
    def _join(self, op, other, positive):
        if not isinstance(other, DifferentiableField):
            other = constant(other, self.dim)
        return DifferentiableField(self.dim, op, None, (self, other), positive)

    def __add__(self, other):
        both = getattr(other, "positive", False)   # a shift by a number drops the flag
        return self._join("add", other, self.positive and both)

    def __mul__(self, other):
        both = other.positive if isinstance(other, DifferentiableField) else other > 0
        return self._join("mul", other, self.positive and both)

    __radd__ = __add__
    __rmul__ = __mul__

    def __sub__(self, other):
        return self + -1.0 * other

    def __rsub__(self, other):
        return -1.0 * self + other

    def power(self, beta):
        """f^beta; non-integer or negative beta requires a positive field."""
        natural = beta == int(beta) and beta >= 0
        if not (natural or self.positive):
            raise DomainError(
                "non-integer/negative powers require a strictly positive field")
        return DifferentiableField(self.dim, "pow", int(beta) if natural else float(beta),
                                   (self,), self.positive)   # int: numpy's fast square

    __pow__ = power


def _plan(roots, k):
    """The jets that one walk of order k over all of ``roots`` requests more
    than once, with a node's values counted as its order-1 jet where the walk
    builds that jet anyway."""
    jets, seen = {}, {}
    for root in roots:
        root._count(k, jets)
    for root in roots:
        root._count(k, seen, jets)
    return [key for key, n in seen.items() if n > 1]


def stacked(roots):
    """The values of several fields on one R^d as one vectorized function:
    an (n, d) batch to the (n, k) stack whose column j holds ``roots[j]``.
    Each block of ``_BLOCK`` points is one walk of every root with one memo,
    so a jet that several roots request is built once per block: for f^2,
    f^beta and |grad f|^2 w, f's order-1 jet feeds the d_i, and its row 0
    gives f to the powers.  The plan of that memo is made once, here."""
    roots = tuple(roots)
    dim = roots[0].dim
    if any(r.dim != dim for r in roots):
        raise DomainError("operands live in different dimensions")
    shared = _plan(roots, 0)

    def values(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[-1] != dim:
            raise DomainError(f"points must have dimension {dim}")
        out = np.empty((len(roots), len(pts)))
        for s in range(0, len(pts), _BLOCK):
            block, memo = pts[s:s + _BLOCK], dict.fromkeys(shared)
            for row, root in zip(out, roots):
                row[s:s + _BLOCK] = root._walk(block, 0, memo)
        return out.T

    return values


def _unary(op):
    return lambda f: DifferentiableField(f.dim, op, None, (f,))


exp, cos, log = _unary("exp"), _unary("cos"), _unary("log")


def abs_power(f: DifferentiableField, beta: float) -> DifferentiableField:
    """|f|^beta = (f^2)^(beta/2) for a field of either sign, smooth off its zeros."""
    return DifferentiableField(f.dim, "pow", beta / 2.0, (f.power(2),))


def _d(f: DifferentiableField, i: int) -> DifferentiableField:
    return DifferentiableField(f.dim, "d", i, (f,))


def grad_norm_squared(f: DifferentiableField) -> DifferentiableField:
    """The field |grad f|^2, used as the energy density Gamma(f)."""
    return reduce(operator.add, [g * g for g in (_d(f, i) for i in range(f.dim))])


def laplacian(f: DifferentiableField) -> DifferentiableField:
    """The field Laplacian(f)."""
    return reduce(operator.add, [_d(_d(f, i), i) for i in range(f.dim)])


def affine_precompose(f: DifferentiableField, t: float, x) -> DifferentiableField:
    """The field y -> f(t y + x)."""
    if not (math.isfinite(t) and t > 0):
        raise DomainError("scale t must be positive and finite")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (f.dim,) or not np.all(np.isfinite(x)):
        raise DomainError("shift must be finite, one entry per dimension")
    return DifferentiableField(f.dim, "affine", (float(t), x), (f,), f.positive)


# -- library --------------------------------------------------------------

def constant(c: float, d: int) -> DifferentiableField:
    return DifferentiableField(d, "const", float(c), positive=c > 0)


def coordinate(i: int, d: int) -> DifferentiableField:
    if not 0 <= i < d:
        raise DomainError("coordinate index out of range")
    return DifferentiableField(d, "coord", i)


def coords(d: int):
    return tuple(coordinate(i, d) for i in range(d))


def quadratic(d: int) -> DifferentiableField:
    return reduce(operator.add, [s ** 2 for s in coords(d)])


def trig(k, d: int) -> DifferentiableField:
    """cos(k . y)."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.shape != (d,):
        raise DomainError("wave vector has wrong dimension")
    return cos(reduce(operator.add, [float(ki) * s for ki, s in zip(k, coords(d))]))


def gaussian_bump(a: float, c, d: int) -> DifferentiableField:
    c = np.atleast_1d(np.asarray(c, dtype=float))
    return exp(reduce(operator.add, [-float(a) * (s - float(ci)) ** 2
                                     for s, ci in zip(coords(d), c)]))


def positive_bump(a: float, c, d: int) -> DifferentiableField:
    """1 + exp(-a|y-c|^2); strictly positive, safe for negative powers."""
    return DifferentiableField(d, "add", None, (gaussian_bump(a, c, d), constant(1.0, d)),
                               positive=True)


def make_power_of_rho(alpha: float, d: int) -> DifferentiableField:
    """(1 + |y|^2)^{alpha/2}."""
    return DifferentiableField(d, "pow", alpha / 2.0, (quadratic(d) + 1.0,), positive=True)


def growth_degree(f: DifferentiableField) -> float:
    """Polynomial growth bound of |f| at infinity: the structural bound
    ``f.growth`` (the degree of a polynomial, 0 for a cosine), else the largest
    rounded-up growth rate measured between two large radii along the 2d
    signed axes and the 2^d signed diagonals, in one batch."""
    if f.growth is not None:
        return max(float(f.growth), 0.0)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=f.dim)))
    direcs = np.concatenate([np.eye(f.dim), -np.eye(f.dim), signs / math.sqrt(f.dim)])
    v1, v2 = np.abs(f.value(np.concatenate([1e3 * direcs, 1e6 * direcs]))).reshape(2, -1)
    if not np.all(np.isfinite(v2)):
        raise DomainError("field is not finite at radius 1e6: no polynomial growth bound")
    live = (v1 > 1e-300) & (v2 > 1e-300)
    rate = np.max(np.log(v2[live] / v1[live]), initial=0.0) / math.log(1e6 / 1e3)
    return max(math.ceil(rate - 1e-6), 0.0)


@lru_cache(maxsize=None)
def standard_library(d: int):
    """The built-in test fields used across the verification suites."""
    return {"one": constant(1.0, d), "coordinate": coordinate(0, d),
            "quadratic": quadratic(d), "trig": trig([1.0] * d, d),
            "gaussian_bump": gaussian_bump(1.0, [0.3] * d, d),
            "positive_bump": positive_bump(1.0, [0.3] * d, d),
            "power_of_rho": make_power_of_rho(-2.0, d)}
